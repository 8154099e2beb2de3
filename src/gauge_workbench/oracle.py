"""Brute-force radial-grid evaluation of every matrix element.

Nothing in this module knows the closed forms: bound states come from a
finite-difference eigensolve and second-order quantities from solving the
inhomogeneous resolvent equation directly (the Dalgarno-Lewis trick), so
agreement with the analytic module is a genuine cross-check rather than a
tautology.

Discretization.  The radial coordinate is mapped exponentially, y = ln r,
which spends points near the origin where Coulomb wavefunctions vary fastest.
Substituting u(r) = sqrt(r) w(y) symmetrizes the mapped radial Hamiltonian
into the generalized problem A w = E r^2 w, and conjugating by diag(1/r)
turns that into an ordinary symmetric eigenproblem K w = E w with

    K = D [ -(1/2) d^2/dy^2 + l(l+1)/2 + 1/8 - r ] D,      D = diag(1/r),

where w = sqrt(r) u and the y-grid quadrature is simply h * sum (the
trapezoid weights of a decaying integrand on a uniform grid).  Every grid
derivative comes from a weight table with its own denominator, _STENCIL
for -(1/2) d^2/dy^2 in K and _DERIVATIVE for d/dy in the velocity-gauge
driving term u' - u/r.  Past r_max both take u = 0.  Below r_min, K
takes ghost points on the first two terms of the regular solution, D w ~
r^(l + 1/2) (1 - r / (l + 1)), which fold into its first _KD diagonal
entries (_hamiltonian_bands); the driving term keeps u = 0 there.  No
edge row is written out, and the order of the discretization (fourth) is
stated in the tables alone.  K has half-bandwidth _KD = 2 and is stored
once per state in LAPACK's lower symmetric band storage (row k holds
K[j + k, j] at column j; row 0 is the diagonal); every consumer reads
that one layout: K w, the backward-error gates, banded Cholesky, the
banded eigensolver, and the pivoted-LU layout expanded from it where LU
runs (2S, and once per pseudostate sum).  Resolvent solves factor K - E
by banded Cholesky (dpbtrf/dpbtrs, called directly; lower storage gives
their BLAS calls unit stride), O(n) per right-hand side.
That is valid because every resolvent energy here lies below the whole
l = 1 spectrum: E_1S +- x with 0 < x < 3/8, at least 1e-6 Hartree below
the grid's 2P level, so K - E is positive definite.  One factorization
and one componentwise backward-error gate serve both gauges at the same
energy, and every 2S and 1S element there is read from that solve
(_elements); the gate forms the residual and |K - E| |x| in one pass.

LAPACK comes from scipy's f2py extension scipy/linalg/_flapack, loaded
from its file (_load_lapack) after a plain ``import scipy``: the
scipy.linalg package __init__, about half the wall time of a cold
``verify``, never runs.  The extension registers itself in sys.modules
under its own dotted name, so a later ``import scipy.linalg`` reuses the
same routine objects.  Where the file is not found, the routines come
from scipy.linalg.lapack instead, which holds the same objects.

Three error terms set the grid defaults.  Truncating the grid at r_min
with these ghosts shifts E_1S by -2 r_min^3 (ghosts on the power law
r^(l + 1/2) alone cost +2 r_min^2, u = 0 at r_min 2 r_min): 2e-12 Hartree
at the default r_min = 1e-4.  The stencil error scales as h^4, and
roundoff in the Rayleigh quotient grows like eps / h^2, because the
diagonal of K reaches 1/(h r_min)^2; together they leave E_1S scattered
by up to a few 1e-11 from one point count to the next.  That floor is
why r_min stops at 1e-4: smaller values only add points below r = 1e-4,
and 3249 points keep the spacing h = 0.0041848 of the former 4350-point
grid from 1e-6.  On the default grid Q reads 6e-12 relative at x = 3/16
and 3e-11 at x = 0.37, up to 2e-10 and 4e-9 within 10 points of the
default count, the error growing like 1 / (3/8 - x) toward the 2P pole
(up to 2e-7 at x = 0.3749).  The driving term's u = 0 below r_min meets
l = 1 partners that vanish like r^(5/2) in w: at r_min = 1e-4 it moves P
by 2e-12 to 5e-12 relative against ghosts on u ~ r (1 - r), far under
the grid's own 1e-10 to 1e-9 error in P.

RadialGrid states the grid's domain with a reason for each bound: r_min
in [1e-12, 1e-2], where the closure error -2 r_min^3 stays under 2e-6
Hartree and every 1/r^2 band entry is finite, and r_max in [60, 700],
short of r ~ 708, where the 1S tail e^-r falls below the smallest normal
double (from r_max = 1000 the l = 1 resolvent misses its gate).

Eigenpairs are found by inverse iteration at a fixed shift next to the
known hydrogen energy: K is factored once at that shift, and every step
is one pair of triangular solves with those factors.  Inside the domain
every grid level lies within 2e-6 Hartree of its hydrogen level.  1S and
2P are the lowest levels of their channels, so a shift _BELOW_LEVEL =
1e-5 Hartree under the level leaves K - shift positive definite, and they
are factored by banded Cholesky through the helper the resolvent uses
(_shifted_cholesky); a failed factorization is an error that names the
state, never a fallback.  2S lies above 1S, where K_0 - E is indefinite,
so it is factored at its hydrogen level by pivoted banded LU, from the
LU layout expanded for it.  One factorization converges each state, in
two solves on the default grid; over 48 grids sampled across the domain
the most was four, for 1S on 200000 points from r_min = 1e-2.
The pseudostate sum takes only eigenvalues from LAPACK's banded
eigensolver dsbevx, called directly, and gets each mode's vector by
banded inverse iteration with pivoted LU at the mode's own eigenvalue,
from one LU layout per call, one factorization and two solves per mode,
for at most _MAX_MODES modes.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from types import ModuleType

import numpy as np
import scipy

from .closedform import require_window
from .errors import ConvergenceError, DomainError, NearResonanceError

_RESIDUAL_TARGET = 1e-8
_RESOLVENT_TARGET = 1e-12
_NEAR_RESONANCE_GAP = 1e-6
# inverse iteration stops once the energy changes by at most this, relative
# to max(1, |E|)
_STALL = 1e-10
# A nodeless state (1S, 2P) is iterated at this distance below its hydrogen
# level, in Hartree, where K_l - shift is positive definite: it lies above
# the 2e-6 bound on |grid level - hydrogen level| over the whole domain (set
# by -2 r_min^3 at r_min = 1e-2), and it is small against the gap to the next
# level of the channel (0.069 Hartree from 2P to 3P), so two solves still
# converge.
_BELOW_LEVEL = 1e-5

# Every grid derivative, as (weights, denominator).
# -(1/2) d^2/dy^2: offsets 0, 1, ... over denominator * h^2; K_l has one
# off-diagonal per weight after the first, and ghost points below r_min.
_STENCIL = ((30.0, -16.0, 1.0), 24.0)
_KD = len(_STENCIL[0]) - 1
# d/dy: offsets 1, 2, ... over denominator * h; offset -k takes minus the
# weight; u = 0 past the grid.
_DERIVATIVE = ((8.0, -1.0), 12.0)

# Solves kept per OracleState, as the 2S and 1S elements at one signed x; the
# oldest is dropped beyond this, so a long sweep holds at most this many.
_AMPLITUDE_MEMO_SIZE = 64

# Most modes one pseudostate_q call sums; each mode costs one banded LU
# and keeps an n-vector, so this bounds its time and memory.
_MAX_MODES = 200


def _load_lapack(directory: str) -> ModuleType:
    """scipy's f2py LAPACK extension ``_flapack``, loaded from its file in
    ``directory`` without importing the scipy.linalg package; where no such
    file exists, scipy.linalg.lapack, which holds the same routines."""
    paths = (os.path.join(directory, "_flapack" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    path = next(filter(os.path.isfile, paths), None)
    if path is None:
        from scipy.linalg import lapack
        return lapack
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_lapack(os.path.join(os.path.dirname(scipy.__file__), "linalg"))
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs


def _is_index(value: object) -> bool:
    """True for an integer count; bool passes operator.index, but True is no count."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


@dataclass(frozen=True)
class RadialGrid:
    """Log-mapped radial grid: n_points from r_min to r_max (Bohr radii).

    Its checks state the oracle's whole domain, each bound with its reason:
    n_points in [2000, 200000], r_max in [60, 700], r_min in [1e-12, 1e-2].
    The defaults put the r_min error, -2 r_min^3 in E_1S with the oracle's
    cusp-corrected closure, at 2e-12, under the ~1e-11 scatter of the
    stencil and roundoff; 3249 points then give the spacing h = 0.0041848
    (see the oracle module docstring for the budget)."""

    n_points: int = 3249
    r_max: float = 80.0
    r_min: float = 1e-4

    def __post_init__(self) -> None:
        if not _is_index(self.n_points):
            raise DomainError(f"n_points = {self.n_points!r} must be an integer")
        if self.n_points < 2000:
            raise DomainError(f"n_points = {self.n_points} below the 2000 floor")
        if self.n_points > 200000:
            raise DomainError(f"n_points = {self.n_points} above the 200000 ceiling "
                              "(past ~48000 points roundoff outgrows the stencil error)")
        if not 60.0 <= self.r_max <= 700.0:
            raise DomainError(f"r_max = {self.r_max} outside [60, 700] (below 60 truncates "
                              "the 2S tail; past r ~ 708 the 1S tail e^-r underflows)")
        if not 1e-12 <= self.r_min <= 1e-2:
            raise DomainError(f"r_min = {self.r_min} outside [1e-12, 1e-2] (at 1e-2 E_1S "
                              "is off by 2 r_min^3 = 2e-6; at 1e-12 that is far under "
                              "roundoff and the bands stay finite)")

    def refined(self) -> "RadialGrid":
        """Same span with n_points doubled, for convergence estimates."""
        return RadialGrid(2 * self.n_points, self.r_max, self.r_min)


@dataclass(frozen=True, eq=False)
class BoundState:
    """One radial eigenstate: u(r) = r R(r) sampled on the grid."""

    label: tuple[int, int]
    energy: float
    radial_values: np.ndarray


class OracleState:
    """Grid plus cached bound states and resolvent elements.

    ``bands[l]`` is K_l for l = 0 and l = 1, the channels of 1S, 2S and 2P.
    Everything but ``_amplitudes`` is fixed after construction; the memo
    maps a signed x to the _elements solved at E_1S + x and lives and dies
    with the state, so ``build_oracle.cache_clear()`` drops it too."""

    def __init__(self, grid: RadialGrid) -> None:
        self.grid = grid
        y = np.linspace(np.log(grid.r_min), np.log(grid.r_max), grid.n_points)
        self.h = float(y[1] - y[0])
        self.r = np.exp(y)
        self.sqrt_r = np.sqrt(self.r)
        self.bands = {l: _hamiltonian_bands(l, self.h, self.r) for l in (0, 1)}

        self.s1 = _solve_on_state(self, 1, 0)
        self.s2 = _solve_on_state(self, 2, 0)
        self.s2p = _solve_on_state(self, 2, 1)
        self.w1 = self.sqrt_r * self.s1.radial_values
        self.w2 = self.sqrt_r * self.s2.radial_values
        self.w2p = self.sqrt_r * self.s2p.radial_values
        # Velocity-gauge driving terms u' - u/r, kept in the w representation.
        self.wd1 = self._velocity_reduce(self.s1.radial_values)
        self.wd2 = self._velocity_reduce(self.s2.radial_values)
        # Both gauges' driving terms, r w1 and wd1, stacked column-major: the
        # layout green_solve passes to LAPACK without a copy.
        self._driving = np.asfortranarray(np.column_stack((self.r * self.w1, self.wd1)))
        # the length-gauge bra r w2 that every <2S| r G r |1S> integral reads
        self._bra = self.w2 * self.r
        self._amplitudes: dict[float, tuple[float, float, float, float]] = {}

    def _velocity_reduce(self, u: np.ndarray) -> np.ndarray:
        """w representation of u'(r) - u(r)/r for an l = 0 state: du/dr is
        (du/dy)/r, with du/dy from _DERIVATIVE and u = 0 past both ends of
        the grid, summed from offset -m up to +m."""
        weights, denominator = _DERIVATIVE
        m, n, r = len(weights), u.size, self.r
        padded = np.concatenate((np.zeros(m), u, np.zeros(m)))
        du = np.zeros_like(u)
        for k in range(m, 0, -1):
            du -= weights[k - 1] * padded[m - k:m - k + n]
        for k in range(1, m + 1):
            du += weights[k - 1] * padded[m + k:m + k + n]
        return self.sqrt_r * (du / (denominator * self.h) / r - u / r)

    def integrate(self, wa: np.ndarray, wb: np.ndarray) -> float:
        """Radial integral of a*b dr from w-representation arrays."""
        return self.h * float(np.dot(wa, wb))


def _hamiltonian_bands(l: int, h: float, r: np.ndarray) -> np.ndarray:
    """K_l in lower symmetric band storage, (_KD + 1) x n: row k holds
    K[j + k, j] at column j, the diagonal is row 0.

    The stencil's neighbours below the grid are ghost points on the
    regular solution's first two terms, D w ~ r^(l + 1/2) (1 - r / (l + 1))
    (Kato's cusp condition, Z = 1): k steps below row i the value is
    (D w)_i e^(-k (l + 1/2) h) (1 - r_i e^(-k h) / (l + 1)) / (1 - r_i / (l + 1)).
    Neither term depends on the energy, and each ghost is a multiple of its
    own row's value, so it folds into the first _KD diagonal entries and K
    stays symmetric."""
    weights, denominator = _STENCIL
    n = r.size
    scale = denominator * h * h
    a, c = l + 0.5, 1.0 / (l + 1)
    ghost = np.zeros(n)
    for i in range(_KD):
        ghost[i] = sum(weights[k] * math.exp(-k * a * h) * (1.0 - c * r[i] * math.exp(-k * h))
                       for k in range(i + 1, _KD + 1)) / ((1.0 - c * r[i]) * scale)
    ab = np.zeros((_KD + 1, n))
    ab[0] = (weights[0] / scale + ghost + 0.5 * l * (l + 1) + 0.125 - r) / (r * r)
    for k in range(1, _KD + 1):
        ab[k, :-k] = weights[k] / scale / (r[:-k] * r[k:])
    return ab


def _full_banded(ab: np.ndarray) -> np.ndarray:
    """Expand lower symmetric bands into the LAPACK banded-LU layout of K.

    K[i, j] sits at row 2 _KD + i - j of column j; rows 0 to _KD - 1 are the
    workspace that partial pivoting fills in.  Column-major, so LAPACK
    factors a copy in place."""
    n = ab.shape[1]
    full = np.zeros((3 * _KD + 1, n), order="F")
    for k in range(_KD + 1):
        full[2 * _KD - k, k:] = full[2 * _KD + k, :n - k] = ab[k, :n - k]
    return full


def _band_products(ab: np.ndarray, w: np.ndarray) -> Iterator[tuple[tuple, np.ndarray]]:
    """The off-diagonal products of K w as (target slice, product), two
    per off-diagonal, in the order _apply_bands sums them."""
    for k in range(1, _KD + 1):
        coef = ab[k, :-k]
        yield np.s_[..., k:], coef * w[..., :-k]
        yield np.s_[..., :-k], coef * w[..., k:]


def _apply_bands(ab: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K w for the lower symmetric bands ab, applied along the last axis of w."""
    out = ab[0] * w
    for rows, product in _band_products(ab, w):
        out[rows] += product
    return out


def _count_nodes(u: np.ndarray) -> int:
    """Interior sign changes, ignoring the sub-amplitude tails where the
    discretized state underflows toward zero."""
    floor = 1e-7 * np.max(np.abs(u))
    live = u[np.abs(u) > floor]
    return int(np.sum(live[1:] * live[:-1] < 0.0))


def _shifted_cholesky(ab: np.ndarray, shift: float,
                      what: str) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Factor K - shift once by banded Cholesky; return its bands and the
    solve v = (K - shift)^-1 rhs.

    ``ab`` holds K in lower symmetric band storage; dpbtrf factors a copy of
    the shifted bands, which the caller may then read intact.  Each solve
    reuses the factor, two triangular sweeps at O(n) per column.  A shift
    that leaves K - shift not positive definite, or a non-finite solution,
    is a ConvergenceError, never a fallback to another solver."""
    shifted = ab.copy()
    shifted[0] -= shift
    factor, info = dpbtrf(shifted, lower=1)
    if info > 0:
        raise ConvergenceError(f"K - E is not positive definite for {what}")

    def solve(rhs: np.ndarray) -> np.ndarray:
        sol, _ = dpbtrs(factor, rhs, lower=1)
        if not np.all(np.isfinite(sol)):
            raise ConvergenceError(f"non-finite solve for {what}")
        return sol

    return shifted, solve


def _shifted_lu(layout: np.ndarray, shift: float,
                what: str) -> Callable[[np.ndarray], np.ndarray]:
    """Factor K - shift once by pivoted banded LU; return the solve v = (K - shift)^-1 rhs.

    ``layout`` is the dgbtrf layout of K (``_full_banded``); the shift comes
    off the diagonal row of a copy.  Each solve reuses the factors, two
    triangular sweeps at O(n).  Inverse iteration shifts onto an eigenvalue
    on purpose, so an exactly singular factor or a non-finite solution
    means the shift is unusable, not that it should be nudged and
    retried."""
    lu = layout.copy(order="F")
    lu[2 * _KD] -= shift
    lu, piv, info = dgbtrf(lu, _KD, _KD, overwrite_ab=1)
    if info > 0:
        raise ConvergenceError(f"singular banded LU at shift {shift!r} for {what}")

    def solve(rhs: np.ndarray) -> np.ndarray:
        v, _ = dgbtrs(lu, _KD, _KD, rhs, piv)
        if not np.all(np.isfinite(v)):
            raise ConvergenceError(f"non-finite banded solve at shift {shift!r} for {what}")
        return v

    return solve


def _laguerre(degree: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """Generalized Laguerre polynomial L_degree^(alpha)(x) by its three-term recurrence."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(degree):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def _check_eigenpair(ab: np.ndarray, h: float, w: np.ndarray, energy: float,
                     kw: np.ndarray, what: str) -> None:
    """Reject the eigenpair (energy, w) of ``what`` unless its backward error
    meets _RESIDUAL_TARGET; w is quadrature-normalized and kw = K w already
    applied.

    The residual is scaled by the local operator magnitude; the raw
    residual norm is meaningless here because the log-grid diagonal grows
    like 1/(h r)^2 toward the origin and amplifies roundoff.  A NaN
    residual fails the ``<=`` test."""
    residual = kw - energy * w
    scale = np.abs(ab[0]) + abs(energy)
    rnorm = float(np.sqrt(h * np.dot(residual / scale, residual / scale)))
    if not rnorm <= _RESIDUAL_TARGET:
        raise ConvergenceError(
            f"eigensolve backward error {rnorm:.2e} above {_RESIDUAL_TARGET} for {what}")


def _solve_on_state(state: OracleState, n: int, l: int) -> BoundState:
    ab = state.bands[l]
    h, r = state.h, state.r
    target = -0.5 / (n * n)

    # Seed with the full analytic radial shape, Laguerre factor included.
    # A bare r^(l+1) exp(-r/n) envelope is not safe in general: for (n,l) = (3,0)
    # it is exactly orthogonal to the target state and the iteration would
    # lock onto a neighbor instead.
    poly = _laguerre(n - l - 1, 2 * l + 1, 2.0 * r / n)
    w = (r ** (l + 1) * np.exp(-r / n) * poly) * state.sqrt_r
    w /= np.sqrt(h * np.dot(w, w))
    what = f"(n,l)=({n},{l})"
    # On every grid RadialGrid accepts, the hydrogen energy lies within the
    # r_min and h^4 shifts (at most 2e-6 Hartree) of the grid eigenvalue, so
    # inverse iteration at a fixed shift near it gains many digits per step
    # and one factorization serves every step.  The lowest state of its
    # channel (no nodes) is shifted _BELOW_LEVEL under the whole spectrum
    # and factored by banded Cholesky, as the resolvent is; 2S sits above 1S,
    # where K_0 - E is indefinite, so it is factored by pivoted LU at its
    # hydrogen level.  The first quotient still carries the seed's error, so
    # the loop always takes a second solve.  Roundoff in the quotient grows
    # with the grid (changes of a few 1e-12 from 24000 points on, 2.5e-11 at
    # 192000), so the loop stops at the _STALL threshold instead of waiting
    # for a change inside that noise.
    if n == l + 1:
        _, solve = _shifted_cholesky(ab, target - _BELOW_LEVEL, what)
    else:
        solve = _shifted_lu(_full_banded(ab), target, what)
    energy = target
    for step in range(12):
        v = solve(w)
        v /= np.sqrt(h * np.dot(v, v))
        kv = _apply_bands(ab, v)
        updated = h * float(np.dot(v, kv))
        last_change = abs(updated - energy)
        w, kw, energy = v, kv, updated
        if step > 0 and last_change <= _STALL * max(1.0, abs(energy)):
            break
    else:
        raise ConvergenceError(
            f"eigensolve stalled at energy change {last_change:.2e} for {what}")
    _check_eigenpair(ab, h, w, energy, kw, what)

    u = w / state.sqrt_r
    lead = np.argmax(np.abs(u) > 1e-8 * np.max(np.abs(u)))
    if u[lead] < 0.0:
        u = -u
    nodes = _count_nodes(u)
    if nodes != n - l - 1:
        raise ConvergenceError(f"state {what} shows {nodes} nodes, expected {n - l - 1}")
    return BoundState(label=(n, l), energy=energy, radial_values=u)


@functools.lru_cache(maxsize=8)
def build_oracle(grid: RadialGrid) -> OracleState:
    """Construct (and memoize) the grid state for a given discretization."""
    return OracleState(grid)


def _componentwise_backward_error(shifted: np.ndarray, x: np.ndarray,
                                  b: np.ndarray) -> np.ndarray:
    """Oettli-Prager backward error of A x = b, A given by its lower bands.

    max_i |r_i| / ((|A| |x|)_i + |b_i|) is the smallest relative perturbation
    of each entry of A and b that makes x exact.  x and b hold one system
    (n,) or one system per row (k, n); the result has one entry per
    system.  Unlike the unscaled
    |r| / |b| it stays at roundoff level for a backward-stable solve however
    ill-conditioned A is.  Rows where the denominator is zero have r_i = 0
    and count as 0.  A column whose products overflow comes back as NaN,
    which no ``<=`` test accepts.

    One pass over the bands: each product p = a x goes into the residual
    and |p| into |A| |x|.  |a x| = |a| |x| exactly in IEEE arithmetic and
    both sums run in _apply_bands order, so this equals the two-pass
    |A x - b| and |A| |x| + |b| bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = shifted[0] * x
        scale = np.abs(residual)
        for rows, product in _band_products(shifted, x):
            residual[rows] += product
            scale[rows] += np.abs(product, out=product)
        residual -= b
        np.abs(residual, out=residual)
        scale += np.abs(b)
        ratio = np.divide(residual, scale, out=np.zeros_like(residual), where=scale > 0.0)
    return np.where(np.isfinite(scale).all(axis=-1), ratio.max(axis=-1), np.nan)


def green_solve(state: OracleState, energy: float, driving_w: np.ndarray) -> np.ndarray:
    """Solve (H_1 - energy) solution = driving for one or several driving terms.

    ``driving_w`` is one column (n,) or a stack (n, k) in the symmetrized
    w = sqrt(r) u representation; the solution comes back in the same
    shape.  The l = 1 channel is the only intermediate one of a dipole
    transition out of an S state.  One banded Cholesky factorization of
    K_1 - energy (LAPACK ``dpbtrf``, then ``dpbtrs``, through
    _shifted_cholesky, as for 1S and 2P) serves every column.  The
    state's bands are already in LAPACK's lower storage, where the
    unblocked factorization's BLAS calls run at unit stride; dpbtrf
    factors a copy of the shifted bands, which the gate then reads
    intact.  The energy
    must lie below the spectrum of H_1: a matrix that is not positive
    definite, a non-finite solution or a column whose componentwise
    backward error exceeds the target is a ConvergenceError, never a
    fallback to another solver."""
    # column-major, so that each column is one contiguous row of the
    # transpose the gate works on
    driving = np.asfortranarray(driving_w)
    what = f"the l = 1 resolvent at energy {energy!r}"
    shifted, solve = _shifted_cholesky(state.bands[1], energy, what)
    sol = solve(driving)
    worst = float(np.max(_componentwise_backward_error(shifted, sol.T, driving.T)))
    if not worst <= _RESOLVENT_TARGET:
        raise ConvergenceError(
            f"componentwise backward error {worst:.2e} above {_RESOLVENT_TARGET} for {what}")
    return sol


def _intermediate_energy(state: OracleState, x: float) -> float:
    """E_1S + x, rejected unless at least _NEAR_RESONANCE_GAP below the grid's 2P level."""
    energy = state.s1.energy + x
    if not energy <= state.s2p.energy - _NEAR_RESONANCE_GAP:
        raise NearResonanceError(
            f"intermediate energy not at least {_NEAR_RESONANCE_GAP} Hartree below the n=2 level"
        )
    return energy


def _elements(state: OracleState, x: float) -> tuple[float, float, float, float]:
    """(<2S| r G r |1S>, <2S| v G v |1S>, <1S| r G r |1S>, <1S| v G v |1S>)
    for G = (H_1 - E_1S - x)^-1 and v = u' - u/r, memoized on the state.

    On a miss both gauges' driving columns are solved in one green_solve
    call (one factorization, one backward-error gate).  The near-resonance
    guard runs before the lookup, and a failed solve stores nothing, so
    every error is raised again on every call."""
    energy = _intermediate_energy(state, x)
    memo = state._amplitudes
    elements = memo.get(x)
    if elements is None:
        length, velocity = green_solve(state, energy, state._driving).T
        elements = (state.integrate(state._bra, length), state.integrate(state.wd2, velocity),
                    state.integrate(state._driving[:, 0], length),
                    state.integrate(state._driving[:, 1], velocity))
        if len(memo) >= _AMPLITUDE_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[x] = elements
    return elements


def gauge_pair_oracle(grid: RadialGrid, x: float) -> tuple[float, float]:
    """(Q, P) at x from the grid alone: the 2S elements of _elements over 3,
    so Q and P at one (grid, x) share one solve."""
    require_window(x)
    q, p, _, _ = _elements(build_oracle(grid), x)
    return q / 3.0, p / 3.0


def diagonal_elements(grid: RadialGrid, x: float) -> tuple[float, float]:
    """(<1S| r G r |1S>, <1S| v G v |1S>) at E_1S + x for a signed x with
    0 < |x| < 3/8 (x < 0 reads the E_1S - x term of the ac-Stark identity),
    from the solve that (Q, P) at the same x read."""
    require_window(abs(x))
    return _elements(build_oracle(grid), x)[2:]


def q_oracle(grid: RadialGrid, x: float) -> float:
    """Length-gauge amplitude from the grid alone.

    Solves (H_{l=1} - E_1S - x) psi = r u_1S and integrates u_2S r psi / 3;
    in Hartree atomic units this is already the dimensionless amplitude.
    The solve is shared with p_oracle at the same (grid, x), so a velocity
    column that fails the backward-error gate raises here too."""
    return gauge_pair_oracle(grid, x)[0]


def p_oracle(grid: RadialGrid, x: float) -> float:
    """Velocity-gauge amplitude from the grid alone.

    The dipole-channel reduction of the momentum operator acting on an
    s state is the radial factor u' - u/r; the convention is locked by
    the one_photon_ratio check before any value here is trusted.  The
    solve is shared with q_oracle at the same (grid, x), so a length
    column that fails the backward-error gate raises here too."""
    return gauge_pair_oracle(grid, x)[1]


def r2_overlap(grid: RadialGrid) -> float:
    """Quadrature of <2S| r^2 |1S> in Bohr-radius squared units."""
    state = build_oracle(grid)
    return state.integrate(state._bra, state._driving[:, 0])


def norm_1s(grid: RadialGrid) -> float:
    """Quadrature of <1S|1S>, the contact term of the ac-Stark identity."""
    state = build_oracle(grid)
    return state.integrate(state.w1, state.w1)


def one_photon_elements(grid: RadialGrid) -> tuple[float, float, float]:
    """(m_len, m_vel, E_2P - E_1S): the 1S-2P elements of r and of
    u' - u/r between the grid's states, and the grid's level gap.  Exact
    states satisfy the commutator relation m_vel = -(E_2P - E_1S) m_len."""
    state = build_oracle(grid)
    return (state.integrate(state.w2p, state._driving[:, 0]),
            state.integrate(state.w2p, state.wd1),
            state.s2p.energy - state.s1.energy)


def _mode_vector(state: OracleState, layout: np.ndarray, eigenvalue: float) -> np.ndarray:
    """Quadrature-normalized eigenvector of K_1 for a computed eigenvalue.

    One banded LU at the eigenvalue itself, from ``layout``, the dgbtrf
    layout of K_1, then two inverse-iteration steps with it from a fixed
    all-ones start; the mode is accepted only if its scaled backward error
    meets the same target as the bound states."""
    ab, h = state.bands[1], state.h
    what = f"l = 1 mode at {eigenvalue!r}"
    solve = _shifted_lu(layout, eigenvalue, what)
    v = np.ones(state.grid.n_points)
    for _ in range(2):
        v = solve(v)
        v /= np.sqrt(h * np.dot(v, v))
    _check_eigenpair(ab, h, v, eigenvalue, _apply_bands(ab, v), what)
    return v


def pseudostate_q(grid: RadialGrid, x: float, count: int = 30) -> np.ndarray:
    """Partial sums of the length-gauge amplitude over discrete l = 1 modes.

    Truncating the spectral representation after k modes gives a sequence
    that approaches the direct resolvent solve from one side while the
    intermediate energy lies below the whole l = 1 spectrum; useful as an
    independent consistency path, not as the primary evaluator.

    Only the ``count`` lowest eigenvalues come from LAPACK's banded
    eigensolver (``dsbevx``, with the arguments scipy's ``eig_banded``
    passes for ``eigvals_only=True, select="i"``); each mode's vector then
    comes from inverse iteration with the banded LU (``_mode_vector``),
    O(n) per mode, instead of the O(n^3) eigenvector matrix.  ``count`` is
    at most _MAX_MODES, checked before anything is built or solved; a
    failed eigensolve or one that returns fewer than ``count`` eigenvalues
    is a ConvergenceError."""
    require_window(x)
    if not _is_index(count):
        raise DomainError(f"count = {count!r} must be an integer")
    if not 1 <= count <= _MAX_MODES:
        raise DomainError(f"count must lie in [1, {_MAX_MODES}], got {count}")
    state = build_oracle(grid)
    energy = _intermediate_energy(state, x)
    # the bands are finite on every grid RadialGrid accepts, so eig_banded's
    # check_finite has nothing to add
    vals, _, found, _, info = _flapack.dsbevx(
        state.bands[1], 0.0, 0.0, 1, count, compute_v=0, mmax=1, range=2, lower=1,
        overwrite_ab=0, abstol=2 * _flapack.dlamch("s"))
    if info != 0 or found < count:
        raise ConvergenceError(
            f"banded eigensolve found {found} of the {count} lowest l = 1 "
            f"eigenvalues (dsbevx info = {info})")
    vals = vals[:count]
    layout = _full_banded(state.bands[1])
    vecs = np.column_stack([_mode_vector(state, layout, float(val)) for val in vals])
    # quadrature-normalized columns: each projection is an h-weighted sum
    bra = state.h * (state._bra @ vecs)
    ket = state.h * (state._driving[:, 0] @ vecs)
    terms = bra * ket / (vals - energy) / 3.0
    return np.cumsum(terms)

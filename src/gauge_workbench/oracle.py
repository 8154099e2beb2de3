"""Brute-force radial-grid evaluation of every matrix element.

Nothing in this module knows the closed forms: bound states come from a
finite-difference eigensolve and second-order quantities from solving the
inhomogeneous resolvent equation directly (the Dalgarno-Lewis trick), so
agreement with the analytic module is a genuine cross-check rather than a
tautology.

Discretization.  The radial coordinate is mapped exponentially, y = ln r,
which spends points near the origin where Coulomb wavefunctions vary
fastest.  States and driving terms are kept as w = sqrt(r) u, for which
the y-grid quadrature is simply h * sum (the trapezoid weights of a
decaying integrand on a uniform grid).  With phi = w / r, the channel-l
radial equation (H_l - E) u = s reads

    phi'' = F phi - 2 r b,      F = (l + 1/2)^2 - 2r - 2E r^2,

for the driving term b = sqrt(r) s.  One discretization serves every
solve: Numerov's three-point scheme (Numerov, Astron. Nachr. 230, 359
(1927); as a matrix method, Pillai, Goglio and Walker, Am. J. Phys. 80,
1017 (2012)), fourth order in h.  With c = 1 - h^2 F / 12 and
psi = c phi + (h^2 / 6) r b it is exactly the symmetric tridiagonal system

    (-tridiag(1, -2, 1) + diag(h^2 F / c)) psi = 2 h^2 r b / c,

whose entries stay O(1), with w = r (psi - (h^2 / 6) r b) / c.  Solving
it applies (H_l - E)^-1 of one discrete H_l, symmetric in the w
representation, so the bound states, the pseudostate modes and the
resolvent are the eigenpairs and the resolvent of one operator per
channel.  Its energy-independent rows are built once per state and
channel (_channel_rows); _numerov_rows states them at an energy and drops
the rows past r ~ 100 at the corners of the domain where c would fall to
zero.  psi = 0 past r_max.  Below r_min the s channel takes one ghost
point on the first two terms of the regular solution, phi ~ r^(1/2)
(1 - r), which folds into its first diagonal entry; the l = 1 channel
takes psi = 0 there, and the driving terms u = 0.  The velocity-gauge
driving term u' - u/r takes d/dy as the five-point central difference.

Two LAPACK paths solve the system.  The resolvent (green_solve) works at
E_1S +- x with 0 < x < 3/8, at least 1e-6 Hartree below the grid's 2P
level, where the l = 1 system is positive definite: dptsv factors and
solves it, O(n) per right-hand side.  One factorization serves both
gauges at the same energy, each column passes a componentwise
backward-error gate on the three bands, and every 2S and 1S element there
is read from that solve (_elements).  The eigensolves, bound states and
pseudostate modes alike, factor their system once at a fixed shift by
pivoted tridiagonal LU, dgttrf, since a shift on a level above the lowest
leaves it indefinite, and take one dgttrs per step (_shifted_solve).
Each dgttrf factors a fresh diagonal in place; the state's rows are only
read.  The tridiagonal resolvent keeps its temporaries small: its gate
runs one column at a time and its back-transform is written in place, so
a two-column solve at 3249 points peaks at about 240 kB of arrays.  With
the gate over both columns at once (340 kB), a loop of such solves took
57 minor page faults per solve and 1.3 times the time (2-vCPU VM).

LAPACK comes from scipy's f2py extension scipy/linalg/_flapack, loaded
from its file (_load_lapack) in the directory importlib.util.find_spec
names: neither the scipy package __init__ nor the scipy.linalg one, about
half the wall time of a cold ``verify``, runs (with numpy loaded, the
load takes a median 7 ms in a fresh interpreter, 19 ms through ``import
scipy``).  The extension registers itself in sys.modules under its own
dotted name, so a later ``import scipy.linalg`` reuses the same routine
objects.  Without scipy, or without the extension's file, the import is
an ImportError.

Three error terms set the grid defaults.  Truncating the grid at r_min
with the s-channel ghost shifts E_1S by -2 r_min^3 (a ghost on the power
law r^(1/2) alone costs +2 r_min^2, psi = 0 below r_min about +2 r_min):
2e-12 Hartree at the default r_min = 1e-4.  The stencil error scales as
h^4.  Roundoff grows as h shrinks, because the diagonal 2 + h^2 F / c
carries F to only about eps / h^2 relative; it overtakes the stencil
error past about 12000 points (E_1S off by 7.7e-13 on 12000 points,
2.0e-11 on 24000, 5.9e-9 on 200000).  On the default grid, h = 0.0041848
for 3249 points, E_1S reads -3.3e-12, and within 10 points of that count
E_1S scatters by up to 4.1e-12; that floor is why r_min stops at 1e-4:
smaller values only add points below r = 1e-4 at the same spacing.  Q
reads 2.3e-11 relative at x = 3/16 and 5.9e-10 at x = 0.37, and P
1.9e-10 and 1.1e-9; within 10 points of the default count Q reads up to
3.1e-11 and 7.5e-10, the error growing like 1 / (3/8 - x) toward the 2P
pole (up to 3.5e-8 at x = 0.3749).  The driving term's u = 0 below r_min
meets l = 1 partners that vanish like r^(5/2) in w: at r_min = 1e-4 it
moved P by 2e-12 to 5e-12 relative against ghosts on u ~ r (1 - r)
(measured on the five-point operator this scheme replaced), far under
the grid's own 1e-10 to 1e-9 error in P.  The l = 1 channel's psi = 0
below r_min admixes the irregular solution r^(-3/2) of phi with a weight
r_min^3 against the regular r^(3/2); it moves E_2P by +6.1e-8 at
r_min = 1e-2.

RadialGrid states the grid's domain with a reason for each bound: r_min
in [1e-12, 1e-2], where the closure error -2 r_min^3 stays under 2e-6
Hartree, and r_max in [60, 700], short of r ~ 708, where the 1S tail
e^-r falls below the smallest normal double.

Every bound state comes from one routine, _inverse_iteration: its
channel's system factored once at the state's hydrogen level, one solve
per step, the Rayleigh quotient from the solve itself (shift + v.w / v.v
for v = (H_l - shift)^-1 w, with no product with H_l), a stop once it
stalls after at least two solves, and a normwise backward-error gate on
the result (_eigenpair_gate).  Inside the domain every grid level lies
within 2e-6 Hartree of its hydrogen level, so one factorization converges
each state: in two solves on every grid sampled, 2000 and 24000 points
at each corner of r_min in {1e-12, 1e-6, 1e-3, 1e-2} and r_max in
{60, 700}, where the gate read at most 2.2e-14.  The quotient's roundoff
is relative to the correction v.w / v.v, not to E, so it does not stall
on fine grids.

The pseudostate sum takes its l = 1 modes from the spectral-transformation
Lanczos method (Ericsson and Ruhe, Math. Comp. 35, 1251 (1980)) on the
resolvent G = (H_1 - E)^-1 at the sum's own energy E = E_1S + x, applied
through the same shifted solve (_lanczos).  The lowest modes of H_1 are
the largest eigenvalues theta = 1 / (lambda - E) of G, so the
denominators of the sum are 1 / theta, with no cancellation.  There is no
O(n^2) reduction and no factorization per mode: time and memory grow as
n m for m Lanczos steps, at most _MAX_KRYLOV, and each mode passes the
same gate as a bound state.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
from collections.abc import Callable
from dataclasses import dataclass
from types import ModuleType

import numpy as np

from .closedform import require_window
from .errors import ConvergenceError, DomainError, NearResonanceError

_RESIDUAL_TARGET = 1e-8
_RESOLVENT_TARGET = 1e-12
_NEAR_RESONANCE_GAP = 1e-6
# inverse iteration stops once the energy changes by at most this, relative
# to max(1, |E|)
_STALL = 1e-10

# Solves kept per OracleState, as the 2S and 1S elements at one signed x; the
# oldest is dropped beyond this, so a long sweep holds at most this many.
_AMPLITUDE_MEMO_SIZE = 64

# Most modes one pseudostate_q call sums.
_MAX_MODES = 200
# Most Lanczos steps one pseudostate_q call takes.  The Krylov basis keeps
# one n-vector per step and full reorthogonalization costs 4 n m flops at
# step m, so this bounds its memory (n m doubles) and time (2 n m^2).  Over
# the domain's r_min and r_max corners the most any count up to _MAX_MODES
# took was 529 steps (24000 points, r_max = 700, r_min = 1e-12,
# count = 200, x = 0.001); 30 modes at r_max = 80 take 80 to 92.
_MAX_KRYLOV = 1000
# Lanczos stops once every wanted Ritz value theta has a residual
# |beta_m s_m| <= _RITZ_TOL theta; it tests that at m = 2 count and then
# whenever m has grown by the factor _CHECK_GROWTH, since a test costs
# about as much as a few steps and a step past convergence costs 4 n m.
_RITZ_TOL = 1e-13
_CHECK_GROWTH = 1.15


def _load_lapack(directory: str) -> ModuleType:
    """scipy's f2py LAPACK extension ``_flapack``, loaded from its file in
    ``directory`` without importing the scipy.linalg package; an
    ImportError that names ``directory`` where no such file exists."""
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [directory])
    if spec is None:
        raise ImportError(f"the grid oracle needs scipy's _flapack extension, "
                          f"which is not in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# scipy's directory, found without running its __init__
_scipy = importlib.util.find_spec("scipy")
if _scipy is None:
    raise ImportError("the grid oracle needs scipy, which is not installed")
_flapack = _load_lapack(os.path.join(_scipy.submodule_search_locations[0], "linalg"))
dgttrf, dgttrs = _flapack.dgttrf, _flapack.dgttrs
dptsv = _flapack.dptsv


def _is_a(value: object, kind: type) -> bool:
    """True for an instance of ``kind``, numbers.Integral for a count or
    numbers.Real for a radius; bool is both, but True is neither."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class RadialGrid:
    """Log-mapped radial grid: n_points from r_min to r_max (Bohr radii).

    Its checks state the oracle's whole domain, each bound with its reason:
    n_points in [2000, 200000], r_max in [60, 700], r_min in [1e-12, 1e-2].
    The defaults put the r_min error, -2 r_min^3 in E_1S with the oracle's
    cusp-corrected closure, at 2e-12, within the scatter of up to 4e-12
    that the stencil and roundoff leave; 3249 points then give the spacing
    h = 0.0041848.  Past about 12000 points roundoff outgrows the stencil
    error (see the oracle module docstring for the budget)."""

    n_points: int = 3249
    r_max: float = 80.0
    r_min: float = 1e-4

    def __post_init__(self) -> None:
        if not _is_a(self.n_points, numbers.Integral):
            raise DomainError(f"n_points = {self.n_points!r} must be an integer")
        if self.n_points < 2000:
            raise DomainError(f"n_points = {self.n_points} below the 2000 floor")
        if self.n_points > 200000:
            raise DomainError(f"n_points = {self.n_points} above the 200000 ceiling "
                              "(past ~12000 points roundoff outgrows the stencil error)")
        for name in ("r_max", "r_min"):
            value = getattr(self, name)
            if not _is_a(value, numbers.Real):
                raise DomainError(f"{name} = {value!r} must be a real number")
        if not 60.0 <= self.r_max <= 700.0:
            raise DomainError(f"r_max = {self.r_max} outside [60, 700] (below 60 truncates "
                              "the 2S tail; past r ~ 708 the 1S tail e^-r underflows)")
        if not 1e-12 <= self.r_min <= 1e-2:
            raise DomainError(f"r_min = {self.r_min} outside [1e-12, 1e-2] (at 1e-2 E_1S "
                              "is off by 2 r_min^3 = 2e-6; at 1e-12 that is far under "
                              "roundoff)")

    def refined(self) -> "RadialGrid":
        """Same span with n_points doubled, for convergence estimates."""
        return RadialGrid(2 * self.n_points, self.r_max, self.r_min)


@dataclass(frozen=True, eq=False)
class BoundState:
    """One radial eigenstate: u(r) = r R(r) sampled on the grid."""

    energy: float
    radial_values: np.ndarray


class OracleState:
    """Grid plus cached bound states and resolvent elements.

    ``_numerov[l]`` holds the energy-independent rows of channel l's
    Numerov system (_channel_rows) for l = 0 and l = 1, the channels of 1S,
    2S and 2P; the bound states, the pseudostate modes and the resolvent
    all read them.  Everything but ``_amplitudes`` is fixed after
    construction; the memo maps a signed x to the _elements solved at
    E_1S + x and lives and dies with the state, so
    ``build_oracle.cache_clear()`` drops it too."""

    def __init__(self, grid: RadialGrid) -> None:
        self.grid = grid
        y = np.linspace(np.log(grid.r_min), np.log(grid.r_max), grid.n_points)
        self.h = float(y[1] - y[0])
        self.r = np.exp(y)
        self.sqrt_r = np.sqrt(self.r)
        self._numerov = np.array([_channel_rows(l, self.h, self.r) for l in (0, 1)])
        # the source 2 h^2 r and the back-transform's (h^2 / 6) r multiply
        # the driving term b in every solve
        h2 = self.h * self.h
        self._source = 2.0 * h2 * self.r
        self._back = h2 / 6.0 * self.r
        self._off_diagonal = np.full(self.r.size - 1, -1.0)

        self.s1 = _solve_on_state(self, 1, 0)
        self.s2 = _solve_on_state(self, 2, 0)
        self.s2p = _solve_on_state(self, 2, 1)
        self.w1 = self.sqrt_r * self.s1.radial_values
        self.w2 = self.sqrt_r * self.s2.radial_values
        self.w2p = self.sqrt_r * self.s2p.radial_values
        # Velocity-gauge driving terms u' - u/r, kept in the w representation.
        self.wd1 = self._velocity_reduce(self.s1.radial_values)
        self.wd2 = self._velocity_reduce(self.s2.radial_values)
        # Both gauges' driving terms, r w1 and wd1, stacked column-major:
        # their transpose is the C-contiguous rows green_solve works on.
        self._driving = np.asfortranarray(np.column_stack((self.r * self.w1, self.wd1)))
        # the length-gauge bra r w2 that every <2S| r G r |1S> integral reads
        self._bra = self.w2 * self.r
        self._amplitudes: dict[float, tuple[float, float, float, float]] = {}

    def _velocity_reduce(self, u: np.ndarray) -> np.ndarray:
        """w representation of u'(r) - u(r)/r for an l = 0 state: du/dr is
        (du/dy)/r, with du/dy the five-point difference
        (u[i-2] - 8 u[i-1] + 8 u[i+1] - u[i+2]) / (12 h) and u = 0 past
        both ends of the grid."""
        padded = np.concatenate((np.zeros(2), u, np.zeros(2)))
        du = (padded[:-4] - 8.0 * padded[1:-3] + 8.0 * padded[3:-1] - padded[4:]) / (12.0 * self.h)
        return self.sqrt_r * (du / self.r - u / self.r)

    def integrate(self, wa: np.ndarray, wb: np.ndarray) -> float:
        """Radial integral of a*b dr from w-representation arrays."""
        return self.h * float(np.dot(wa, wb))


def _channel_rows(l: int, h: float, r: np.ndarray) -> np.ndarray:
    """The energy-independent rows of channel l's Numerov system, (2, 2, n).

    With F = (l + 1/2)^2 - 2r - 2E r^2, both c = 1 - h^2 F / 12 and
    2 + 5 h^2 F / 6, the numerator of the diagonal, are a0 + E a1: row 0
    holds their a0, row 1 their a1.

    For l = 0 one ghost point below r_min lies on the regular solution's
    first two terms, phi ~ r^(1/2) (1 - r) (Kato's cusp condition, Z = 1):
    psi_-1 = (c_-1 / c_0) g psi_0, with g = e^(-h/2) (1 - r_-1) / (1 - r_0)
    and r_-1 = r_0 e^-h.  c_-1 is a0 + E a1 as well, so the ghost folds
    exactly into the first numerator, 2 + 5 h^2 F_0 / 6 - g c_-1, and the
    system stays symmetric.  For l = 1, psi = 0 below r_min."""
    h2, f0 = h * h, (l + 0.5) ** 2 - 2.0 * r
    rows = np.array([[1.0 - h2 / 12.0 * f0, 2.0 + 5.0 * h2 / 6.0 * f0],
                     [h2 / 6.0 * (r * r), -5.0 * h2 / 3.0 * (r * r)]])
    if l == 0:
        below = float(r[0]) * math.exp(-h)
        g = math.exp(-0.5 * h) * (1.0 - below) / (1.0 - float(r[0]))
        rows[:, 1, 0] -= g * np.array([1.0 - h2 / 12.0 * (0.25 - 2.0 * below),
                                       h2 / 6.0 * below * below])
    return rows


def _numerov_rows(rows: np.ndarray, energy: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(m, c, diagonal) of one channel's Numerov system at ``energy``, from
    its _channel_rows: the count m of rows kept, then c = 1 - h^2 F / 12
    and the diagonal 2 + h^2 F / c = (2 + 5 h^2 F / 6) / c on those rows.

    The rows kept are those before the first point where c <= 1/2, all of
    them where there is none; past it the solution is w = 0.  Where
    c > 1/2 the diagonal stays below 14 and the back-transform's division
    by c is well conditioned.  For E < 0, F is convex in r and near
    (l + 1/2)^2 at r_min, far below the 6 / h^2 where c = 1/2, so c <= 1/2
    holds on a suffix of the grid and the rule cuts only that suffix.  An
    energy so far below zero that c <= 1/2 already at r_min keeps no row,
    a ConvergenceError."""
    c, diagonal = values = rows[1] * energy
    values += rows[0]
    cut = c <= 0.5
    m = int(np.argmax(cut))
    if not cut[m]:
        m = c.size
    elif m == 0:
        raise ConvergenceError(f"no Numerov row has c > 1/2 at energy {energy!r}")
    return m, c[:m], np.divide(diagonal[:m], c[:m], out=diagonal[:m])


def _tridiagonal_residual(diagonal: np.ndarray, x: np.ndarray,
                          b: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """(A x - b, |A| |x| + |b|) along the last axis of x, for the symmetric
    tridiagonal A with ``diagonal`` on its diagonal and -1 on both
    off-diagonals.  Each sums the diagonal term, the left neighbour's, the
    right neighbour's and b's, in that order; |d| |x| is taken as |d x|,
    the same number."""
    magnitude = np.abs(x)
    residual = diagonal * x
    scale = np.abs(residual)
    residual[..., 1:] -= x[..., :-1]
    scale[..., 1:] += magnitude[..., :-1]
    residual[..., :-1] -= x[..., 1:]
    scale[..., :-1] += magnitude[..., 1:]
    residual -= b
    scale += np.abs(b, out=magnitude)
    return residual, scale


def _count_nodes(u: np.ndarray) -> int:
    """Interior sign changes, ignoring the sub-amplitude tails where the
    discretized state underflows toward zero."""
    floor = 1e-7 * np.max(np.abs(u))
    live = u[np.abs(u) > floor]
    return int(np.sum(live[1:] * live[:-1] < 0.0))


def _shifted_solve(state: OracleState, l: int, shift: float,
                   what: str) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
    """(m, solve): channel l's Numerov system at ``shift``, factored once
    by pivoted tridiagonal LU (dgttrf), and the solve v = (H_l - shift)^-1 z
    through it, in the w representation, for one column z (n,).

    m is the count of rows _numerov_rows keeps at the shift.  A solve maps
    z to psi and back by the scheme of the module docstring, with v = 0
    past the kept rows.  Each solve reuses the factors, one dgttrs at
    O(n).  The state's rows are only read: the diagonal is a fresh array,
    factored in place, and f2py copies the off-diagonals.
    Inverse iteration shifts onto an eigenvalue on purpose, so an exactly
    singular factor or a non-finite solution means the shift is unusable,
    a ConvergenceError, never a fallback to another solver."""
    m, c, diagonal = _numerov_rows(state._numerov[l], shift)
    off = state._off_diagonal[:m - 1]
    dl, d, du, du2, ipiv, info = dgttrf(off, diagonal, off, overwrite_d=1)
    if info > 0:
        raise ConvergenceError(f"singular Numerov system at shift {shift!r} for {what}")
    source, back, scale = state._source[:m] / c, state._back[:m], state.r[:m] / c

    def solve(z: np.ndarray) -> np.ndarray:
        psi, _ = dgttrs(dl, d, du, du2, ipiv, source * z[:m], overwrite_b=1)
        psi -= back * z[:m]
        v = np.zeros(state.r.size)
        np.multiply(scale, psi, out=v[:m])
        # a NaN or infinite component makes v.v non-finite too
        if not math.isfinite(np.dot(v, v)):
            raise ConvergenceError(f"non-finite solve at shift {shift!r} for {what}")
        return v

    return m, solve


def _inverse_iteration(state: OracleState, l: int, shift: float, w: np.ndarray,
                       what: str) -> tuple[float, np.ndarray]:
    """Eigenpair (energy, w) of channel l by inverse iteration from the
    start w, through channel l's Numerov system factored once at
    ``shift`` (_shifted_solve); w comes back quadrature-normalized.

    Each step solves v = (H_l - shift)^-1 w and takes the Rayleigh
    quotient of v from the solve itself, shift + v.w / v.v, since
    (H_l - shift) v = w; no product with H_l is formed.  The first quotient
    still carries the start's error, so the loop always takes a second
    solve, and it stops once the energy changes by at most _STALL relative
    to max(1, |E|); 12 solves without that stop are a ConvergenceError.
    The pair then passes _eigenpair_gate or is rejected."""
    m, solve = _shifted_solve(state, l, shift, what)
    energy = shift
    for step in range(12):
        v = solve(w)
        vv = float(np.dot(v, v))
        updated = shift + float(np.dot(v, w)) / vv
        last_change = abs(updated - energy)
        w, energy = v / math.sqrt(state.h * vv), updated
        if step > 0 and last_change <= _STALL * max(1.0, abs(energy)):
            _eigenpair_gate(state, l, m, energy, w, what)
            return energy, w
    raise ConvergenceError(f"eigensolve stalled at energy change {last_change:.2e} for {what}")


def _eigenpair_gate(state: OracleState, l: int, m: int, energy: float | np.ndarray,
                    w: np.ndarray, what: str) -> None:
    """Reject eigenpairs (energy, w) of channel l whose normwise backward
    error exceeds _RESIDUAL_TARGET.

    w is one vector (n,) with a float energy, or one per row (k, n) with k
    energies, on a system whose first m rows were kept.  The error is that
    of the homogeneous Numerov system at the pair's own energy,
    S(E) psi = 0 with psi = c w / r on the m rows: max |S psi| over
    max |S| |psi|, each on the three bands.  Row by row (Oettli-Prager)
    the tail's components read up to 1, so the maximum is taken over the
    whole vector.  A NaN fails the ``<=`` test."""
    energy = np.asarray(energy)[..., None]
    rows = state._numerov[l, :, :, :m]
    c = rows[0, 0] + energy * rows[1, 0]
    diagonal = (rows[0, 1] + energy * rows[1, 1]) / c
    with np.errstate(over="ignore", invalid="ignore"):
        residual, scale = _tridiagonal_residual(diagonal, c * w[..., :m] / state.r[:m], 0.0)
        error = float(np.max(np.max(np.abs(residual), axis=-1) / np.max(scale, axis=-1)))
    if not error <= _RESIDUAL_TARGET:
        raise ConvergenceError(
            f"eigensolve backward error {error:.2e} above {_RESIDUAL_TARGET} for {what}")


def _solve_on_state(state: OracleState, n: int, l: int) -> BoundState:
    """The grid's (n, l) state, for the three the oracle builds: 1S, 2S and 2P."""
    r = state.r
    target = -0.5 / (n * n)

    # Seed with the full analytic radial shape, r^(l+1) exp(-r/n) times the
    # Laguerre factor L_(n-l-1)^(2l+1)(2r/n): 1 for the nodeless 1S and 2P,
    # 2 - r for 2S.  A bare envelope is not safe in general: for (n,l) = (3,0)
    # it is exactly orthogonal to the target state and the iteration would
    # lock onto a neighbor instead.
    laguerre = 1.0 if n == l + 1 else 2.0 - r
    w = (r ** (l + 1) * np.exp(-r / n) * laguerre) * state.sqrt_r
    what = f"(n,l)=({n},{l})"
    # On every grid RadialGrid accepts, the hydrogen energy lies within the
    # r_min and h^4 shifts (at most 2e-6 Hartree) of the grid eigenvalue, so
    # inverse iteration factored at the hydrogen level gains many digits per
    # step and one factorization serves every step.
    energy, w = _inverse_iteration(state, l, target, w, what)

    u = w / state.sqrt_r
    lead = np.argmax(np.abs(u) > 1e-8 * np.max(np.abs(u)))
    if u[lead] < 0.0:
        u = -u
    nodes = _count_nodes(u)
    if nodes != n - l - 1:
        raise ConvergenceError(f"state {what} shows {nodes} nodes, expected {n - l - 1}")
    return BoundState(energy=energy, radial_values=u)


@functools.lru_cache(maxsize=8)
def build_oracle(grid: RadialGrid) -> OracleState:
    """Construct (and memoize) the grid state for a given discretization."""
    return OracleState(grid)


def _backward_error(diagonal: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """Oettli-Prager backward error of A x = b for one column x, b and the
    symmetric positive definite tridiagonal A with ``diagonal`` on its
    diagonal and -1 on both off-diagonals.

    max_i |r_i| / ((|A| |x|)_i + |b_i|) is the smallest relative perturbation
    of each entry of A and b that makes x exact; both sums come from
    _tridiagonal_residual.  Unlike the unscaled |r| / |b| it stays at
    roundoff level for a backward-stable solve however ill-conditioned A
    is.  Rows where the denominator is zero have r_i = 0 and count as 0.
    A column whose products overflow comes back as NaN, which no ``<=``
    test accepts."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual, scale = _tridiagonal_residual(diagonal, x, b)
        if not math.isfinite(np.max(scale)):
            return math.nan
        np.abs(residual, out=residual)
        return float(np.max(np.divide(residual, scale, out=residual, where=scale > 0.0)))


def green_solve(state: OracleState, energy: float, driving_w: np.ndarray) -> np.ndarray:
    """Solve (H_1 - energy) solution = driving for one or several driving terms.

    ``driving_w`` is one column (n,) or a stack (n, k) in the symmetrized
    w = sqrt(r) u representation; the solution comes back in the same
    shape.  The l = 1 channel is the only intermediate one of a dipole
    transition out of an S state.

    The equation is solved on the l = 1 Numerov system of the module
    docstring, the one that 2P and the pseudostate modes are eigenpairs
    of.  Below the l = 1 spectrum that system is positive definite, and
    one LAPACK ``dptsv`` call factors it once and solves every column.
    The rows come from _numerov_rows, which keeps those before the first
    point where c <= 1/2; past it the solution is w = 0.  That cut happens
    only at corners of RadialGrid's domain with r_max = 700 and few
    points, where c falls to 1/2 beyond r ~ 100 and the 1S tail is below
    e^-100; c stays above 0.76 on every grid with r_max = 80 (0.98 on the
    default grid).  The driving columns are taken as C-contiguous rows
    (k, n) and handed to LAPACK transposed, so no layout is copied.  A
    matrix that is not positive definite, a non-finite solution or a
    column whose componentwise backward error on the three bands exceeds
    _RESOLVENT_TARGET is a ConvergenceError, never a fallback to another
    solver."""
    what = f"the l = 1 resolvent at energy {energy!r}"
    rows = np.ascontiguousarray(np.atleast_2d(driving_w.T))
    m, c, diagonal = _numerov_rows(state._numerov[1], energy)
    b = rows[:, :m]
    rhs = np.multiply(state._source[:m], b)
    rhs /= c
    psi, info = dptsv(diagonal, state._off_diagonal[:m - 1], rhs.T)[2:]
    if info > 0:
        raise ConvergenceError(f"the Numerov system is not positive definite for {what}")
    psi = psi.T
    if not np.all(np.isfinite(psi)):
        raise ConvergenceError(f"non-finite solve for {what}")
    for x, b_row in zip(psi, rhs):
        error = _backward_error(diagonal, x, b_row)
        if not error <= _RESOLVENT_TARGET:
            raise ConvergenceError(
                f"componentwise backward error {error:.2e} above {_RESOLVENT_TARGET} for {what}")
    # w = r (psi - (h^2 / 6) r b) / c, in place on psi, with rhs as scratch
    np.subtract(psi, np.multiply(state._back[:m], b, out=rhs), out=psi)
    psi *= state.r[:m]
    psi /= c
    if m < rows.shape[1]:
        psi = np.concatenate((psi, np.zeros((rows.shape[0], rows.shape[1] - m))), axis=1)
    return psi.T if driving_w.ndim == 2 else psi[0]


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


def _lanczos(solve: Callable[[np.ndarray], np.ndarray], n: int, count: int,
             what: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` largest eigenvalues theta of the symmetric positive
    semidefinite n x n operator G that ``solve`` applies, in descending
    order, and their Ritz vectors as the rows of a (count, n) array, each
    of unit Euclidean norm to roundoff.

    Lanczos starts from G applied to the all-ones vector, normalized, so
    every basis vector lies in the range of G.  That purges the components
    G maps to nearly nothing, next to r_min and past cut rows (Ericsson and
    Ruhe's purification): from the all-ones vector itself, the basis kept
    roundoff of its unit components at r_min, which a mode's psi = c w / r
    then read amplified by 1 / r_min, and on 2000 points from r_min = 1e-12
    every Ritz pair failed the gate at 1e-6 to 8e-5.  The steps run with full
    reorthogonalization: after the three-term recurrence each new vector
    is projected off the whole basis by classical Gram-Schmidt, and
    projected once more only when that pass leaves less than 1/sqrt(2) of
    its norm.  The basis grows with the steps taken, to the next test of
    the check schedule (_CHECK_GROWTH).  A test reads only the tridiagonal
    T_m: its eigenvalues (dstev) and, from dstein, the last components
    s_m of the ``count`` wanted eigenvectors; the Ritz pairs are
    converged once |beta_m s_m| <= _RITZ_TOL theta for each.  No
    convergence within _MAX_KRYLOV steps, or a failed tridiagonal
    eigensolve, is a ConvergenceError that names m and ``count``."""
    q = solve(np.ones(n))
    q /= math.sqrt(np.dot(q, q))
    alpha: list[float] = []
    beta: list[float] = []
    check = min(2 * count, _MAX_KRYLOV)
    basis = np.empty((check, n))
    m = 0
    while True:
        basis[m] = q
        w = solve(q)
        a = float(np.dot(q, w))
        w -= a * q
        if m:
            w -= beta[-1] * basis[m - 1]
        span = basis[:m + 1]
        norm = math.sqrt(np.dot(w, w))
        for _ in range(2):
            before = norm
            coefficients = span @ w
            w -= coefficients @ span
            a += float(coefficients[m])
            norm = math.sqrt(np.dot(w, w))
            if norm >= before * math.sqrt(0.5):
                break
        alpha.append(a)
        beta.append(norm)
        m += 1
        if m == check:
            d, e = np.array(alpha), np.array(beta[:-1])
            theta, _, info = _flapack.dstev(d, e, compute_v=0)
            if info == 0:
                theta = theta[-count:]
                # one unreduced block: T_m splits only where some beta is 0
                s, info = _flapack.dstein(d, e, theta, np.ones(m, np.int32),
                                          np.full(m, m, np.int32))
            if info != 0:
                raise ConvergenceError(f"tridiagonal eigensolve failed (info = {info}) at "
                                       f"m = {m} Lanczos steps, count = {count}, for {what}")
            if np.all(np.abs(norm * s[-1]) <= _RITZ_TOL * theta):
                return theta[::-1], (s.T @ basis)[::-1]
            if m >= _MAX_KRYLOV:
                raise ConvergenceError(
                    f"the {count} lowest modes did not converge in m = {m} Lanczos steps "
                    f"(cap {_MAX_KRYLOV}) for {what}")
            check = min(math.ceil(_CHECK_GROWTH * m), _MAX_KRYLOV)
            grown = np.empty((check, n))
            grown[:m] = basis
            basis = grown
        q = w / norm


def pseudostate_q(grid: RadialGrid, x: float, count: int = 30) -> np.ndarray:
    """Partial sums of the length-gauge amplitude over discrete l = 1 modes.

    Truncating the spectral representation after k modes gives a sequence
    that approaches the l = 1 resolvent value from one side while the
    intermediate energy lies below the whole l = 1 spectrum; the modes and
    the direct solve come from the same Numerov operator H_1.  Useful as
    an independent consistency path, not as the primary evaluator.

    The ``count`` lowest modes of H_1 come from _lanczos on the resolvent
    (H_1 - E)^-1 at the sum's energy E = E_1S + x, applied through the
    l = 1 system factored once at E (_shifted_solve, as for the bound
    states): one dgttrf, then one dgttrs for the start vector and one per
    Lanczos step.  Each Ritz value theta gives a mode's denominator
    lambda - E = 1 / theta directly and its eigenvalue lambda = E + 1 / theta,
    and every Ritz pair must pass _eigenpair_gate, the bound states' gate.
    ``count`` is at most _MAX_MODES, checked before anything is built or
    solved.

    Cost: m Lanczos steps take time ~ 2 n m^2 and memory ~ n m.  Best of 7
    on a busy 2-vCPU VM: 30 modes on 2000 points take m = 80 to 92 steps
    and 20-26 ms.  A dense low spectrum needs more steps, and
    reorthogonalization then dominates: on 2000 points, r_max = 700 and
    r_min = 1e-2, 30 modes at x = 0.001 take m = 288 and 133-151 ms,
    200 modes m = 460 and 253-279 ms; 200 modes at r_max = 80 take m = 400
    and 211 ms.  200 modes on 24000 points from r_min = 1e-12 to
    r_max = 700 take m = 529, 4.7 s and 0.1 GB of basis."""
    require_window(x)
    if not _is_a(count, numbers.Integral):
        raise DomainError(f"count = {count!r} must be an integer")
    if not 1 <= count <= _MAX_MODES:
        raise DomainError(f"count must lie in [1, {_MAX_MODES}], got {count}")
    state = build_oracle(grid)
    energy = _intermediate_energy(state, x)
    what = f"the l = 1 modes at energy {energy!r}"
    m, solve = _shifted_solve(state, 1, energy, what)
    theta, modes = _lanczos(solve, grid.n_points, count, what)
    modes /= np.sqrt(state.h * np.einsum("ij,ij->i", modes, modes))[:, None]
    _eigenpair_gate(state, 1, m, energy + 1.0 / theta, modes, what)
    # quadrature-normalized rows: each projection is an h-weighted sum
    bra = state.h * (modes @ state._bra)
    ket = state.h * (modes @ state._driving[:, 0])
    return np.cumsum(bra * ket * theta / 3.0)

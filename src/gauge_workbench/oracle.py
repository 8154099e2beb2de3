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
trapezoid weights of a decaying integrand on a uniform grid).  The second
derivative uses the five-point stencil, making K pentadiagonal, so every
banded solve costs O(n) per right-hand side.  Resolvent solves factor
K - E by banded Cholesky.  That is valid because every resolvent energy
here lies below the whole l = 1 spectrum: E_1S +- x with 0 < x < 3/8, kept
at least 1e-6 Hartree below the grid's 2P level, the lowest l = 1
eigenvalue, so K - E is positive definite.  One factorization then serves
the length- and the velocity-gauge driving terms at the same energy.
Inverse iteration shifts onto an eigenvalue, where K - E is indefinite;
it keeps the pivoted banded LU.

Two systematic errors matter and set the grid defaults.  The stencil error
scales as h^4 and is negligible at the default spacing.  Truncating the
grid at r_min imposes u(r_min) = 0, which shifts s-state energies by
u'(0)^2 * r_min / 2 (2 r_min for the 1S state); r_min = 1e-9 pushes this
to 2e-9 Hartree, inside every tolerance used here, while costing only a
few extra points per decade thanks to the log map.

Eigenpairs are found by inverse iteration with Rayleigh-quotient updates
seeded at the known hydrogen energies; each step is one banded solve, so a
full state build stays well under 0.1 s.  The pseudostate sum takes only
eigenvalues from the dense banded eigensolver and gets each mode's vector
by the same kind of banded inverse iteration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig_banded, solve_banded, solveh_banded
from scipy.special import eval_genlaguerre

from .closedform import X_MAX, require_window
from .errors import ConvergenceError, DegenerateError, DomainError, NearResonanceError

_RESIDUAL_TARGET = 1e-8
_RESOLVENT_TARGET = 1e-12
_NEAR_RESONANCE_GAP = 1e-6
_DEGENERACY_GAP = 1e-9


@dataclass(frozen=True)
class RadialGrid:
    """Log-mapped radial grid: n_points from r_min to r_max (Bohr radii)."""

    n_points: int = 6000
    r_max: float = 80.0
    r_min: float = 1e-9

    def __post_init__(self) -> None:
        if self.n_points < 2000:
            raise DomainError(f"n_points = {self.n_points} below the 2000 floor")
        if not 60.0 <= self.r_max < np.inf:
            raise DomainError(f"r_max = {self.r_max} must be finite and >= 60 "
                              "(below 60 truncates the 2S tail)")
        if not 0.0 < self.r_min < 1.0:
            raise DomainError(f"r_min = {self.r_min} outside (0, 1)")

    def refined(self, factor: int = 2) -> "RadialGrid":
        """Same span with n_points multiplied, for convergence estimates."""
        return RadialGrid(self.n_points * factor, self.r_max, self.r_min)


@dataclass(frozen=True, eq=False)
class BoundState:
    """One radial eigenstate: u(r) = r R(r) sampled on the grid."""

    label: tuple[int, int]
    energy: float
    radial_values: np.ndarray
    norm: float


class OracleState:
    """Grid plus cached bound states; treat as immutable after construction."""

    def __init__(self, grid: RadialGrid) -> None:
        self.grid = grid
        y = np.linspace(np.log(grid.r_min), np.log(grid.r_max), grid.n_points)
        self.h = float(y[1] - y[0])
        self.r = np.exp(y)
        self.sqrt_r = np.sqrt(self.r)
        # Near r = 0 the 1/(r r') band entries overflow when r_min is tiny.
        # Past r ~ 1.3e154, r^2 overflows: those entries flush to zero instead
        # and the r^(l+1) bound-state seeds become inf * 0 = NaN.
        with np.errstate(over="ignore", divide="ignore"):
            self._bands = {l: _hamiltonian_bands(l, self.h, self.r) for l in (0, 1)}
            top = self.r[-1] * self.r[-1]
        if not (np.isfinite(top) and all(np.isfinite(ab).all() for ab in self._bands.values())):
            raise DomainError(
                f"grid from r_min = {grid.r_min} to r_max = {grid.r_max} overflows "
                "the Hamiltonian bands; lower r_max or raise r_min")

        self.s1 = self._solve(1, 0)
        self.s2 = self._solve(2, 0)
        self.s2p = self._solve(2, 1)
        self.w1 = self.sqrt_r * self.s1.radial_values
        self.w2 = self.sqrt_r * self.s2.radial_values
        self.w2p = self.sqrt_r * self.s2p.radial_values
        # Velocity-gauge driving terms u' - u/r, kept in the w representation.
        self.wd1 = self._velocity_reduce(self.s1.radial_values)
        self.wd2 = self._velocity_reduce(self.s2.radial_values)

    def bands(self, l: int) -> np.ndarray:
        if l not in self._bands:
            raise DomainError(f"only l = 0 and l = 1 channels are built, got l = {l}")
        return self._bands[l]

    def _solve(self, n: int, l: int) -> BoundState:
        return _solve_on_state(self, n, l)

    def _velocity_reduce(self, u: np.ndarray) -> np.ndarray:
        """w representation of u'(r) - u(r)/r for an l = 0 state.

        du/dr = (du/dy)/r on the log grid; the five-point first-derivative
        stencil keeps the differentiation error at the h^4 level of the
        Hamiltonian itself.  One-sided stencils at the edges are harmless
        because u decays to ~1e-12 there."""
        h, r = self.h, self.r
        du = np.empty_like(u)
        du[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * h)
        du[0] = u[1] - u[0]
        du[1] = (u[2] - u[0]) / 2.0
        du[-2] = (u[-1] - u[-3]) / 2.0
        du[-1] = u[-1] - u[-2]
        du[:2] /= h
        du[-2:] /= h
        return self.sqrt_r * (du / r - u / r)

    def integrate(self, wa: np.ndarray, wb: np.ndarray) -> float:
        """Radial integral of a*b dr from w-representation arrays."""
        return self.h * float(np.dot(wa, wb))


def _hamiltonian_bands(l: int, h: float, r: np.ndarray) -> np.ndarray:
    """Upper bands (3 x n) of the symmetric pentadiagonal operator K_l."""
    n = r.size
    c0 = 30.0 / (24.0 * h * h)
    c1 = -16.0 / (24.0 * h * h)
    c2 = 1.0 / (24.0 * h * h)
    ab = np.zeros((3, n))
    ab[0, 2:] = c2 / (r[:-2] * r[2:])
    ab[1, 1:] = c1 / (r[:-1] * r[1:])
    ab[2, :] = (c0 + 0.5 * l * (l + 1) + 0.125 - r) / (r * r)
    return ab


def _full_banded(ab: np.ndarray, shift: float) -> np.ndarray:
    """Expand symmetric upper bands into the (2,2)-banded LU layout of K - shift."""
    n = ab.shape[1]
    full = np.zeros((5, n))
    full[0, 2:] = ab[0, 2:]
    full[1, 1:] = ab[1, 1:]
    full[2, :] = ab[2, :] - shift
    full[3, :-1] = ab[1, 1:]
    full[4, :-2] = ab[0, 2:]
    return full


def _apply_bands(ab: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K w for the symmetric upper bands ab, applied along the last axis of w."""
    out = ab[2] * w
    out[..., 1:] += ab[1, 1:] * w[..., :-1]
    out[..., :-1] += ab[1, 1:] * w[..., 1:]
    out[..., 2:] += ab[0, 2:] * w[..., :-2]
    out[..., :-2] += ab[0, 2:] * w[..., 2:]
    return out


def _count_nodes(u: np.ndarray) -> int:
    """Interior sign changes, ignoring the sub-amplitude tails where the
    discretized state underflows toward zero."""
    floor = 1e-7 * np.max(np.abs(u))
    live = u[np.abs(u) > floor]
    return int(np.sum(live[1:] * live[:-1] < 0.0))


def _shifted_solve(ab: np.ndarray, shift: float, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve (K - shift) v = rhs; a singular or overflowing solve is an error.

    Inverse iteration shifts onto an eigenvalue on purpose, so an exactly
    singular factorization or a non-finite solution means the shift is
    unusable, not that it should be nudged and retried."""
    try:
        v = solve_banded((2, 2), _full_banded(ab, shift), rhs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular banded solve at shift {shift!r} for {what}") from exc
    if not np.all(np.isfinite(v)):
        raise ConvergenceError(f"non-finite banded solve at shift {shift!r} for {what}")
    return v


def _scaled_backward_error(ab: np.ndarray, h: float, w: np.ndarray, energy: float) -> float:
    """Backward error of the eigenpair (energy, w), w quadrature-normalized.

    The residual is scaled by the local operator magnitude; the raw
    residual norm is meaningless here because the log-grid diagonal grows
    like 1/(h r)^2 toward the origin and amplifies roundoff.  A NaN
    residual comes back as NaN, which no ``<=`` test accepts."""
    residual = _apply_bands(ab, w) - energy * w
    scale = np.abs(ab[2]) + abs(energy)
    return float(np.sqrt(h * np.dot(residual / scale, residual / scale)))


def _solve_on_state(state: OracleState, n: int, l: int) -> BoundState:
    if not 0 <= l < n:
        raise DomainError(f"need 0 <= l < n, got n = {n}, l = {l}")
    ab = state.bands(l)
    h, r = state.h, state.r
    target = -0.5 / (n * n)

    # Seed with the full analytic radial shape, Laguerre factor included.
    # A bare r^(l+1) exp(-r/n) envelope is not safe here: for (n,l) = (3,0)
    # it is exactly orthogonal to the target state and the iteration would
    # lock onto a neighbor instead.
    poly = eval_genlaguerre(n - l - 1, 2 * l + 1, 2.0 * r / n)
    w = (r ** (l + 1) * np.exp(-r / n) * poly) * state.sqrt_r
    w /= np.sqrt(h * np.dot(w, w))
    energy = target
    last_change = np.inf
    for iteration in range(12):
        v = _shifted_solve(ab, energy, w, f"(n,l)=({n},{l})")
        v /= np.sqrt(h * np.dot(v, v))
        updated = h * float(np.dot(v, _apply_bands(ab, v)))
        last_change = abs(updated - energy)
        # the Rayleigh sequence bottoms out in roundoff noise around 1e-12;
        # anything below 1e-13 is converged, anything above 1e-10 is stuck
        done = last_change < 1e-13 and iteration > 0
        w, energy = v, updated
        if done:
            break

    if last_change > 1e-10 * max(1.0, abs(energy)):
        raise ConvergenceError(
            f"eigensolve stalled at energy change {last_change:.2e} "
            f"for (n,l)=({n},{l})"
        )
    rnorm = _scaled_backward_error(ab, h, w, energy)
    if not rnorm <= _RESIDUAL_TARGET:
        raise ConvergenceError(
            f"eigensolve backward error {rnorm:.2e} above {_RESIDUAL_TARGET} "
            f"for (n,l)=({n},{l})"
        )

    u = w / state.sqrt_r
    lead = np.argmax(np.abs(u) > 1e-8 * np.max(np.abs(u)))
    if u[lead] < 0.0:
        u = -u
        w = -w
    nodes = _count_nodes(u)
    if nodes != n - l - 1:
        raise ConvergenceError(
            f"state (n,l)=({n},{l}) shows {nodes} nodes, expected {n - l - 1}"
        )
    norm = h * float(np.dot(w, w))
    return BoundState(label=(n, l), energy=energy, radial_values=u, norm=norm)


@functools.lru_cache(maxsize=8)
def build_oracle(grid: RadialGrid) -> OracleState:
    """Construct (and memoize) the grid state for a given discretization."""
    return OracleState(grid)


def solve_bound(grid: RadialGrid, n: int, l: int) -> BoundState:
    """Eigensolve for the (n, l) hydrogen bound state on the grid."""
    state = build_oracle(grid)
    if (n, l) == (1, 0):
        return state.s1
    if (n, l) == (2, 0):
        return state.s2
    if (n, l) == (2, 1):
        return state.s2p
    return _solve_on_state(state, n, l)


def _componentwise_backward_error(shifted: np.ndarray, x: np.ndarray,
                                  b: np.ndarray) -> np.ndarray:
    """Oettli-Prager backward error of A x = b, A given by its bands.

    max_i |r_i| / ((|A| |x|)_i + |b_i|) is the smallest relative perturbation
    of each entry of A and b that makes x exact.  x and b hold one system
    (n,) or one system per row (k, n); the result has one entry per
    system.  Unlike the unscaled
    |r| / |b| it stays at roundoff level for a backward-stable solve however
    ill-conditioned A is.  Rows where the denominator is zero have r_i = 0
    and count as 0.  A column whose products overflow comes back as NaN,
    which no ``<=`` test accepts."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(_apply_bands(shifted, x) - b)
        scale = _apply_bands(np.abs(shifted), np.abs(x)) + np.abs(b)
        ratio = np.divide(residual, scale, out=np.zeros_like(residual), where=scale > 0.0)
    return np.where(np.isfinite(scale).all(axis=-1), ratio.max(axis=-1), np.nan)


def green_solve(state: OracleState, l: int, energy: float,
                driving_w: np.ndarray) -> np.ndarray:
    """Solve (H_l - energy) solution = driving for one or several driving terms.

    ``driving_w`` is one column (n,) or a stack (n, k) in the symmetrized
    w = sqrt(r) u representation; the solution comes back in the same
    shape.  One banded Cholesky factorization of K_l - energy serves every
    column.  The energy must lie below the spectrum of H_l: a matrix that is
    not positive definite, a non-finite solution or a column whose
    componentwise backward error exceeds the target is a ConvergenceError,
    never a fallback to another solver."""
    shifted = state.bands(l).copy()
    shifted[2] -= energy
    # column-major, so that LAPACK takes the stack without a copy and each
    # column is one contiguous row of the transpose the gate works on
    driving = np.asfortranarray(driving_w)
    what = f"the l = {l} resolvent at energy {energy!r}"
    try:
        sol = solveh_banded(shifted, driving, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"K - E is not positive definite for {what}") from exc
    if not np.all(np.isfinite(sol)):
        raise ConvergenceError(f"non-finite solve for {what}")
    worst = float(np.max(_componentwise_backward_error(shifted, sol.T, driving.T)))
    if not worst <= _RESOLVENT_TARGET:
        raise ConvergenceError(
            f"componentwise backward error {worst:.2e} above {_RESOLVENT_TARGET} for {what}")
    return sol


def _intermediate_energy(state: OracleState, x: float) -> float:
    """E_1S + x, rejecting energies that sit on the discrete l = 1 level."""
    energy = state.s1.energy + x
    if abs(energy - state.s2p.energy) < _NEAR_RESONANCE_GAP:
        raise NearResonanceError(
            f"intermediate energy within {_NEAR_RESONANCE_GAP} Hartree of the n=2 level"
        )
    return energy


def q_oracle(grid: RadialGrid, x: float) -> float:
    """Length-gauge amplitude from the grid alone.

    Solves (H_{l=1} - E_1S - x) psi = r u_1S and integrates u_2S r psi / 3;
    in Hartree atomic units this is already the dimensionless amplitude."""
    require_window(x)
    state = build_oracle(grid)
    energy = _intermediate_energy(state, x)
    psi = green_solve(state, 1, energy, state.r * state.w1)
    return state.integrate(state.w2 * state.r, psi) / 3.0


def p_oracle(grid: RadialGrid, x: float) -> float:
    """Velocity-gauge amplitude from the grid alone.

    The dipole-channel reduction of the momentum operator acting on an
    s state is the radial factor u' - u/r; the convention is locked by
    check_one_photon_ratio before any value here is trusted."""
    require_window(x)
    state = build_oracle(grid)
    energy = _intermediate_energy(state, x)
    psi = green_solve(state, 1, energy, state.wd1)
    return state.integrate(state.wd2, psi) / 3.0


def gauge_pair_oracle(grid: RadialGrid, x: float) -> tuple[float, float]:
    """(q_oracle, p_oracle) at x from one factorization of the resolvent.

    Both gauges drive the same propagator G(E_1S + x), so the length- and
    velocity-gauge driving terms are solved as two columns of one call."""
    require_window(x)
    state = build_oracle(grid)
    energy = _intermediate_energy(state, x)
    psi = green_solve(state, 1, energy, np.column_stack((state.r * state.w1, state.wd1)))
    return (state.integrate(state.w2 * state.r, psi[:, 0]) / 3.0,
            state.integrate(state.wd2, psi[:, 1]) / 3.0)


def r2_overlap(grid: RadialGrid) -> float:
    """Quadrature of <2S| r^2 |1S> in Bohr-radius squared units."""
    state = build_oracle(grid)
    return state.integrate(state.w2 * state.r, state.r * state.w1)


def check_one_photon_ratio(grid: RadialGrid, omega: float) -> float:
    """Ratio of velocity- to length-gauge one-photon 1S-2P elements.

    Exact states satisfy M_v / M_l = (E_2P - E_1S) / omega, so the grid
    value must reproduce that factor; the resonant point omega = E_2P - E_1S
    (where the ratio crosses 1 trivially) is flagged as degenerate rather
    than evaluated."""
    if omega <= 0.0:
        raise DomainError(f"photon energy must be positive, got {omega}")
    state = build_oracle(grid)
    gap = state.s2p.energy - state.s1.energy
    if abs(omega - gap) < _DEGENERACY_GAP:
        raise DegenerateError(
            "one-photon resonance: the gauge ratio tends to 1 trivially"
        )
    m_len = state.integrate(state.w2p, state.r * state.w1)
    m_vel = state.integrate(state.w2p, state.wd1)
    # The two i factors from the momentum operator make the physical ratio
    # -m_vel / (omega * m_len).
    return -m_vel / (omega * m_len)


def ac_stark_sides(grid: RadialGrid, x: float) -> tuple[float, float]:
    """Both sides of the dynamic-polarizability gauge identity at +-x.

    Left: the momentum-form response summed over both photon signs minus
    the contact normalization 3 <1S|1S>.  Right: x^2 times the position-form
    response summed the same way.  Exact algebra makes these equal; the
    returned pair exposes the grid residual."""
    if not 0.0 < x < X_MAX:
        raise DomainError(f"need 0 < x < {X_MAX} to keep both signs resolvable, got {x}")
    state = build_oracle(grid)
    norm_1s = state.integrate(state.w1, state.w1)
    lhs = -3.0 * norm_1s
    rhs = 0.0
    driving = np.column_stack((state.wd1, state.r * state.w1))
    for sign in (+1.0, -1.0):
        energy = state.s1.energy + sign * x
        if abs(energy - state.s2p.energy) < _NEAR_RESONANCE_GAP:
            raise NearResonanceError("polarizability energy degenerate with n=2 level")
        response = green_solve(state, 1, energy, driving)
        lhs += state.integrate(driving[:, 0], response[:, 0])
        rhs += state.integrate(driving[:, 1], response[:, 1])
    return lhs, x * x * rhs


def _mode_vector(state: OracleState, l: int, eigenvalue: float) -> np.ndarray:
    """Quadrature-normalized eigenvector of K_l for a computed eigenvalue.

    Two inverse-iteration steps from a fixed all-ones start, each one
    banded solve at the eigenvalue itself; the mode is accepted only if its
    scaled backward error meets the same target as the bound states."""
    ab, h = state.bands(l), state.h
    what = f"l = {l} mode at {eigenvalue!r}"
    v = np.ones(state.grid.n_points)
    for _ in range(2):
        v = _shifted_solve(ab, eigenvalue, v, what)
        v /= np.sqrt(h * np.dot(v, v))
    rnorm = _scaled_backward_error(ab, h, v, eigenvalue)
    if not rnorm <= _RESIDUAL_TARGET:
        raise ConvergenceError(
            f"mode backward error {rnorm:.2e} above {_RESIDUAL_TARGET} for {what}"
        )
    return v


def pseudostate_q(grid: RadialGrid, x: float, count: int = 30) -> np.ndarray:
    """Partial sums of the length-gauge amplitude over discrete l = 1 modes.

    Truncating the spectral representation after k modes gives a sequence
    that approaches the direct resolvent solve from one side while the
    intermediate energy lies below the whole l = 1 spectrum; useful as an
    independent consistency path, not as the primary evaluator.

    Only the ``count`` lowest eigenvalues come from the dense banded
    eigensolver; each mode's vector then comes from inverse iteration with
    the banded LU (``_mode_vector``), O(n) per mode, instead of the O(n^3)
    eigenvector matrix."""
    require_window(x)
    if not 1 <= count <= grid.n_points:
        raise DomainError(f"count must lie in [1, {grid.n_points}], got {count}")
    state = build_oracle(grid)
    energy = _intermediate_energy(state, x)
    vals = eig_banded(state.bands(1), lower=False, eigvals_only=True,
                      select="i", select_range=(0, count - 1))
    vecs = np.column_stack([_mode_vector(state, 1, float(val)) for val in vals])
    # quadrature-normalized columns: each projection is an h-weighted sum
    bra = state.h * ((state.w2 * state.r) @ vecs)
    ket = state.h * ((state.r * state.w1) @ vecs)
    terms = bra * ket / (vals - energy) / 3.0
    return np.cumsum(terms)

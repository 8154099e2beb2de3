"""The l = 1 resolvent in a Coulomb-Sturmian basis, on the standard library alone.

The intermediate channel of a dipole transition out of an S state is
expanded in the Coulomb-Sturmian functions

    phi_k(r) = s^2 e^(-s/2) L_k^(3)(s),      s = 2 LAMBDA r,  k < BASIS_SIZE,

in which the overlap S and the Hamiltonian H = -(1/2) d^2/dr^2 + 1/r^2 - 1/r
are tridiagonal (Rotenberg, Ann. Phys. 19, 262 (1962); Heller & Yamani,
Phys. Rev. A 9, 1201 (1974)).  Their entries come from closed recurrences
(_pencil), so a resolvent solve (H - E S) c = b is one O(N) LDL^T sweep
without pivoting: below the l = 1 spectrum H - E S is positive definite,
and a non-positive pivot is a ConvergenceError, never a fallback.

At LAMBDA = 1 the single l = 0 function 2 r e^-r is the exact 1S state, so
E_1S and <1S|1S> are its own H and S entries, and both gauges' driving
terms are exact and sparse: r u_1S = phi_0 / 2 gives b_L = S e_0 / 2 =
(6, -6, 0, ...), and u_1S' - u_1S/r = -2 r e^-r gives b_V = (-3, 0, ...).
The 2P state is the lowest eigenpair of the l = 1 pencil, by inverse
iteration.  The pencil depends on (l, n) alone, so _pencil is cached for
the process; its entries are tuples, so no caller can change a cached one.

Both gauge identities therefore hold exactly in the Galerkin algebra:
since r u_1S lies in the basis, (H - E_1S S) e_0 / 2 = -b_V entry by
entry, so the ac_stark residuals of the diagonal_elements, and of the
commutator relation between the one_photon_elements, are roundoff
whatever BASIS_SIZE is; they show no basis convergence.  The evidence
that BASIS_SIZE functions resolve the propagator is the agreement of the
elements themselves with the radial grid, in the tests.

Nothing here evaluates a hypergeometric function, but the closed forms of
closedform.py come from the Sturmian expansion of the same Coulomb Green
function, so this module is an independent witness for the gauge
identities, not for the amplitudes.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

from .closedform import require_window
from .errors import ConvergenceError

BASIS_SIZE = 30
LAMBDA = 1.0

# 2P is found by inverse iteration this far below the hydrogen level, where
# H - E S is still positive definite (the basis level lies above -1/8).
# Each step shrinks the other states' share by this gap over the 2P-3P
# spacing, 1.4e-5, so once a step changes no coefficient by more than
# _CONVERGED the error left is far under roundoff.
_SHIFT_BELOW_LEVEL = 1e-6
_CONVERGED = 1e-15
_MAX_STEPS = 8

Pencil = tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], tuple[float, ...]]


@functools.lru_cache(maxsize=None)
def _pencil(l: int, n: int) -> Pencil:
    """(H diagonal, H off-diagonal, S diagonal, S off-diagonal) of channel l
    in the n lowest Sturmians s^(l+1) e^(-s/2) L_k^(2l+1)(s).

    With w_k = (k + 2l + 1)! / k!, the diagonal entries of 1/r: S_kk =
    2 (k + l + 1) w_k / (2 LAMBDA) and S_k,k+1 = -(k + 1) w_(k+1) / (2 LAMBDA).
    Each Sturmian solves the kinetic-plus-centrifugal equation with the
    potential -(k + l + 1) LAMBDA / r at energy -LAMBDA^2 / 2, so H =
    LAMBDA (k + l + 1) <1/r> - <1/r> - (LAMBDA^2 / 2) S."""
    w = [math.prod(range(k + 1, k + 2 * l + 2)) for k in range(n)]
    s_diag = [(k + l + 1) * w[k] / LAMBDA for k in range(n)]
    s_off = [-(k + 1) * w[k + 1] / (2.0 * LAMBDA) for k in range(n - 1)]
    half = LAMBDA * LAMBDA / 2.0
    h_diag = [(LAMBDA * (k + l + 1) - 1.0) * w[k] - half * s_diag[k] for k in range(n)]
    h_off = [-half * s for s in s_off]
    return tuple(h_diag), tuple(h_off), tuple(s_diag), tuple(s_off)


def _product(diag: tuple[float, ...], off: tuple[float, ...], v: list[float]) -> list[float]:
    """M v for the symmetric tridiagonal M."""
    out = [d * x for d, x in zip(diag, v)]
    for k, m in enumerate(off):
        out[k] += m * v[k + 1]
        out[k + 1] += m * v[k]
    return out


def _dot(a: list[float], b: list[float]) -> float:
    return sum(x * y for x, y in zip(a, b))


def _factor(pencil: Pencil, energy: float) -> Callable[[list[float]], list[float]]:
    """Factor H - energy S = L D L^T; return the solve c = (H - energy S)^-1 b."""
    h_diag, h_off, s_diag, s_off = pencil
    off = [h - energy * s for h, s in zip(h_off, s_off)]
    pivots, multipliers = [], []
    for k, (h, s) in enumerate(zip(h_diag, s_diag)):
        pivot = h - energy * s
        if k:
            multipliers.append(off[k - 1] / pivots[-1])
            pivot -= multipliers[-1] * off[k - 1]
        # a NaN pivot fails this test too
        if not pivot > 0.0:
            raise ConvergenceError(
                f"H - E S is not positive definite at energy {energy!r} (pivot {k})")
        pivots.append(pivot)

    def solve(b: list[float]) -> list[float]:
        c = list(b)
        for k, m in enumerate(multipliers):
            c[k + 1] -= m * c[k]
        c = [y / d for y, d in zip(c, pivots)]
        for k in range(len(multipliers) - 1, -1, -1):
            c[k] -= multipliers[k] * c[k + 1]
        return c

    return solve


def _driving_terms() -> tuple[list[float], list[float]]:
    """<phi_k | r u_1S> and <phi_k | u_1S' - u_1S / r> for u_1S = 2 r e^-r.

    u_1S' = 2 e^-r - 2 r e^-r and u_1S / r = 2 e^-r; at LAMBDA = 1,
    <phi_k | 2 e^-r> = 2 for every k and <phi_k | 2 r e^-r> = 3 for k = 0
    only, so the two 2 e^-r terms cancel."""
    pad = [0.0] * (BASIS_SIZE - 2)
    return [6.0, -6.0] + pad, [-3.0, 0.0] + pad


def _state_1s() -> tuple[float, float]:
    """(E_1S, <1S|1S>): the l = 0 function 2 r e^-r, exact at LAMBDA = 1."""
    (h,), _, (s,), _ = _pencil(0, 1)
    return h / s, s


def _state_2p(pencil: Pencil) -> tuple[float, list[float]]:
    """Lowest eigenpair (E_2P, c) of the l = 1 pencil H c = E S c, c
    normalized in S."""
    h_diag, h_off, s_diag, s_off = pencil
    solve = _factor(pencil, -0.125 - _SHIFT_BELOW_LEVEL)
    c = [1.0] + [0.0] * (len(h_diag) - 1)
    for _ in range(_MAX_STEPS):
        v = solve(_product(s_diag, s_off, c))
        norm = math.sqrt(_dot(v, _product(s_diag, s_off, v)))
        v = [x / norm for x in v]
        change = max(abs(a - b) for a, b in zip(v, c))
        c = v
        if change <= _CONVERGED:
            return _dot(c, _product(h_diag, h_off, c)), c
    raise ConvergenceError(f"2P inverse iteration stalled at vector change {change:.2e}")


def diagonal_elements(x: float) -> tuple[float, float]:
    """(<1S| r G r |1S>, <1S| v G v |1S>), G = (H - E S)^-1 at E = E_1S + x,
    v = u' - u/r, for a signed x with 0 < |x| < 3/8.  E stays below -1/8,
    and the basis's 2P level, a Galerkin upper bound, lies above -1/8, so
    H - E S is positive definite.  <1S|1S> is exactly 1 here."""
    require_window(abs(x))
    e_1s, _ = _state_1s()
    b_len, b_vel = _driving_terms()
    solve = _factor(_pencil(1, BASIS_SIZE), e_1s + x)
    return _dot(b_len, solve(b_len)), _dot(b_vel, solve(b_vel))


def one_photon_elements() -> tuple[float, float, float]:
    """(m_len, m_vel, E_2P - E_1S): the 1S-2P elements of r and of
    u' - u/r in the basis's 2P state, and the level gap.  Exact states
    satisfy the commutator relation m_vel = -(E_2P - E_1S) m_len."""
    e_1s, _ = _state_1s()
    e_2p, c_2p = _state_2p(_pencil(1, BASIS_SIZE))
    b_len, b_vel = _driving_terms()
    return _dot(c_2p, b_len), _dot(c_2p, b_vel), e_2p - e_1s

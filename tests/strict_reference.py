"""Two kernels of the strict report in their plain forms: the Sturmian
solve with one sweep per column, and the delta_linear residual formed
as the gauge_pair record forms its f2 and delta.

``sturmian._factor`` and ``sturmian._solve`` factor H - E S once per
energy and solve each column with that factor, and
``identities.check_delta_linear`` forms f1 - f2 from (Q, P) without
building a record.  This module keeps independent forms of both: a
factor written as one loop over the pivots, which returns a solve for one
column at a time in three plain sweeps, ``diagonal_elements``,
``_state_2p`` and ``one_photon_elements`` built on it, and the residual
formed from (Q, P) in the operations of ``gauge_pair``.  The tests hold the
package to these bit for bit.  Its dot product adds left to right with
reduce, independently of ``sturmian._dot``.  It imports only the package
and the standard library, so ``test_identities.py`` also runs in the
stdlib-floor CI job.
"""

import math
import operator
from functools import reduce

from gauge_workbench import sturmian
from gauge_workbench.closedform import DELTA_SLOPE, X_MAX, X_RESONANCE
from gauge_workbench.errors import ConvergenceError
from gauge_workbench.identities import DELTA_GRID

# 200 signed x on each side of E_1S, up to 0.3749 next to the 2P pole
SIGNED_X = [s * 0.3749 * (i + 1) / 200 for i in range(200) for s in (1.0, -1.0)]


def dot(a, b):
    return reduce(operator.add, map(operator.mul, a, b), 0.0)


def factor(pencil, energy):
    """Factor H - energy S = L D L^T; return the solve c = (H - energy S)^-1 b."""
    h_diag, h_off, s_diag, s_off = pencil
    off = [h - energy * s for h, s in zip(h_off, s_off)]
    pivots, multipliers = [], []
    for k, (h, s) in enumerate(zip(h_diag, s_diag)):
        pivot = h - energy * s
        if k:
            multipliers.append(off[k - 1] / pivots[-1])
            pivot -= multipliers[-1] * off[k - 1]
        if not pivot > 0.0:
            raise ConvergenceError(
                f"H - E S is not positive definite at energy {energy!r} (pivot {k})")
        pivots.append(pivot)

    def solve(b):
        c = list(b)
        for k, m in enumerate(multipliers):
            c[k + 1] -= m * c[k]
        c = [y / d for y, d in zip(c, pivots)]
        for k in range(len(multipliers) - 1, -1, -1):
            c[k] -= multipliers[k] * c[k + 1]
        return c

    return solve


def state_2p(pencil):
    """Inverse iteration on one factor, solving one column per step."""
    h_diag, h_off, s_diag, s_off = pencil
    solve = factor(pencil, -0.125 - sturmian._SHIFT_BELOW_LEVEL)
    c = [1.0] + [0.0] * (len(h_diag) - 1)
    for _ in range(sturmian._MAX_STEPS):
        v = solve(sturmian._product(s_diag, s_off, c))
        norm = math.sqrt(dot(v, sturmian._product(s_diag, s_off, v)))
        v = [x / norm for x in v]
        change = max(abs(a - b) for a, b in zip(v, c))
        c = v
        if change <= sturmian._CONVERGED:
            return dot(c, sturmian._product(h_diag, h_off, c)), c
    raise ConvergenceError(f"2P inverse iteration stalled at vector change {change:.2e}")


def diagonal_elements(x):
    """The length and velocity columns solved in two sweeps of one factor."""
    b_len, b_vel = sturmian._driving_terms()
    solve = factor(sturmian._pencil(1, sturmian.BASIS_SIZE), sturmian._E_1S + x)
    return dot(b_len, solve(b_len)), dot(b_vel, solve(b_vel))


def one_photon_elements():
    e_2p, c_2p = state_2p(sturmian._pencil(1, sturmian.BASIS_SIZE))
    b_len, b_vel = sturmian._driving_terms()
    return dot(c_2p, b_len), dot(c_2p, b_vel), e_2p - sturmian._E_1S


def delta_residuals(pair):
    """The delta_linear residuals of pair, x -> (Q, P), over DELTA_GRID:
    f2 = (3/8 - x)(-x) Q and f1 - f2 = P - f2, as gauge_pair forms them."""
    residuals = []
    for x in DELTA_GRID:
        q, p = pair(x)
        f2 = (X_MAX - x) * (-x) * q
        residuals.append((p - f2) - DELTA_SLOPE * (x - X_RESONANCE))
    return tuple(residuals)

"""The derived closed forms composed from their single statements.

``closedform._q``, ``closedform._p`` and ``closedform._pair`` write Q, P
and (Q, P) out in one frame each.  This module composes the same values
from the pieces that state them once: ``_horner`` over the ``_*_SMOOTH_*``
coefficient tables, the tail ``specfun.lerch_sum(Z, 3 - 1/t, TAIL_TERMS)``
and the tail coefficients c_Q and c_P of the ``closedform`` docstring.  The
tests hold all three kernels to this composition bit for bit, over real t
and the complex t of ``q_slope``, so a property shown here (the tail's
remainder bound, its agreement with mpmath) holds for the production path.
It imports only the package and the standard library, so
``test_closedform.py`` also runs in the stdlib-floor CI job.
"""

from gauge_workbench import closedform
from gauge_workbench.closedform import (
    _P_SMOOTH_DEN,
    _P_SMOOTH_NUM,
    _P_TAIL_SCALE,
    _Q_SMOOTH_DEN,
    _Q_SMOOTH_NUM,
    _Q_TAIL_SCALE,
    SQRT2,
    TAIL_TERMS,
    _horner,
)
from gauge_workbench.specfun import lerch_sum

# dense real t over the window's [1/2, 1], and the complex step of q_slope
# at each of them
REAL_T = [0.5 + 0.5 * i / 4000 for i in range(4001)]
T = REAL_T + [complex(t, -closedform._COMPLEX_STEP / t) for t in REAL_T]


def outcome(evaluate, t):
    """The value at t, or ZeroDivisionError on S_Q's pole at real t = 1/2."""
    try:
        return evaluate(t)
    except ZeroDivisionError:
        return ZeroDivisionError


def z_arg(t):
    """The hypergeometric argument Z(t) = (1 - t)(1 - 2t) / ((1 + t)(1 + 2t))."""
    return (1.0 - t) * (1.0 - 2.0 * t) / ((1.0 + t) * (1.0 + 2.0 * t))


def tail(t, terms=TAIL_TERMS):
    """Phi(Z, 1, 3 - 1/t) summed by lerch_sum over ``terms`` terms."""
    return lerch_sum(z_arg(t), 3.0 - 1.0 / t, terms)


def q(t, terms=TAIL_TERMS):
    return (SQRT2 * _horner(_Q_SMOOTH_NUM, t) / _horner(_Q_SMOOTH_DEN, t)
            + _Q_TAIL_SCALE * (1.0 - t)
            / (3.0 * (1.0 + t) ** 5 * (1.0 + 2.0 * t) ** 6) * tail(t, terms))


def p(t, terms=TAIL_TERMS):
    """P, the value of ``closedform._p`` and of ``closedform._pair(t)[1]``."""
    return (SQRT2 * _horner(_P_SMOOTH_NUM, t) / _horner(_P_SMOOTH_DEN, t)
            + _P_TAIL_SCALE * (1.0 - t) ** 2 * (1.0 - 2.0 * t)
            / (3.0 * (1.0 + t) ** 4 * (1.0 + 2.0 * t) ** 5) * tail(t, terms))


def pair(t, terms=TAIL_TERMS):
    """(Q, P), the values of ``closedform._pair``."""
    return q(t, terms), p(t, terms)

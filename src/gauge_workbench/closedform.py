"""Closed-form two-photon 1S-2S matrix elements for hydrogen.

The dimensionless length-gauge amplitude Q(x) and velocity-gauge amplitude
P(x) are functions of the photon energy fraction x in (0, 3/8), expressed
through the substitution t = sqrt(1 - 2x).  Both amplitudes take the shape

    rational(t)  +  coefficient(t) * 2F1(1, -1/t, 1 - 1/t; Z(t)),

with the shared hypergeometric argument

    Z(t) = (1 - t)(1 - 2t) / ((1 + t)(1 + 2t)),        |Z| < 0.03 on the window.

Evaluated term by term this shape is numerically treacherous at both window
edges: the rational part and the low-order hypergeometric terms each diverge
like 1/(1 - t) as x -> 0 although their sum stays finite.  The evaluation
therefore folds the k = 0..2 series terms into the rational part once and
for all (the series head has closed form, so the fold is exact algebra, not
an approximation), and folds the factor -Z^3/t of the remaining tail into
its coefficient.  What remains is

    Q(x) = S_Q(t) + c_Q(t) * Phi(Z, 1, 3 - 1/t),    Phi(z, 1, a) = sum_{j>=0} z^j / (j + a),

where S_Q is rational with its only zero denominator in [1/2, 1] at t = 1/2,
the physical intermediate-state resonance at the upper window edge, and
c_Q(t) = 4096 sqrt(2) (1 - t) / (3 (1 + t)^5 (1 + 2t)^6) has none.  The same
fold gives S_P and c_P(t) = 256 sqrt(2) (1 - t)^2 (1 - 2t) / (3 (1 + t)^4
(1 + 2t)^5); no denominator of P vanishes on [1/2, 1] because the
velocity-gauge coupling to the degenerate n = 2 level is zero.  The tail's
denominators j + 3 - 1/t are at least 1, so a fixed number of terms reaches
double precision on the whole window; it is summed once per x for Q and P.

The derived path is written out in three straight-line kernels: ``_q(t)``
returns Q, ``_p(t)`` returns P, and ``_pair(t)`` returns (Q, P) from one
shared tail.  Each holds Z, the nested TAIL_TERMS-term tail, and the Horner
numerators and denominators of S_Q and c_Q, of S_P and c_P, or of all four,
in one frame, with the operations of ``specfun.lerch_sum`` and of a Horner
loop over the coefficient tables ``_Q_SMOOTH_*`` and ``_P_SMOOTH_*`` in
their order: the same bits, without the loops' and the calls' interpreter
cost.  ``_p`` performs ``_pair``'s P operations in ``_pair``'s order, so
``_p(t)`` is ``_pair(t)[1]`` bit for bit.  The tables and ``lerch_sum``
stay the single statement of the coefficients and the tail, and the tests
hold all three kernels to their composition bit for bit, at real t and at
the complex t of ``q_slope``.

Measured against the folded forms at 40 digits (mpmath) at 34 051 x,
spread over the window and clustered toward both edges, the relative
forward error of ``q_length`` is at most 9 (1 + x/(3/8 - x)) 2^-53 and that
of ``p_velocity`` at most 7 (1 + x/(3/8 - x)) 2^-53; the largest readings
were 8.05 and 6.05.  The factor x/(3/8 - x) is the conditioning of Q in x
next to its pole: there the rounding of t = sqrt(1 - 2x) is a relative
error in 1 - 2t, the distance to the pole.  The tests hold the frozen
references and a 40-digit sweep to this bound.

Every check reads the amplitudes through an amplitude source, a callable
x -> (Q, P).  ``SOURCES`` maps the names "derived", "alt-a" and "alt-b" to
the derived forms and to two alternate transcriptions (differing in the
denominator attached to the hypergeometric term).  The alternates are
negative controls: the verification suite must be able to demonstrate
that it can reject a wrong reading, not merely confirm the right one.
The grid oracle's ``gauge_pair_oracle`` has the same shape once its grid
is bound.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DomainError, PoleError
from .specfun import lerch_sum

SQRT2 = math.sqrt(2.0)

X_MAX = 0.375
X_RESONANCE = 0.1875

# d(delta)/dx: the gauge difference f1 - f2 is exactly linear in x with
# this slope, crossing zero at x = 3/16.
DELTA_SLOPE = -512.0 * SQRT2 / 729.0

AmplitudeSource = Callable[[float], tuple[float, float]]

# Rational parts with the k <= 2 hypergeometric head folded in, as
# coefficient arrays (highest power first) of numerator and denominator;
# every array carries an overall factor sqrt(2).
_Q_SMOOTH_NUM = (-65536.0, -393216.0, -1040384.0, -1622016.0, -1683456.0,
                 -1216512.0, -645632.0, -86016.0, -214528.0)
_Q_SMOOTH_DEN = (46656.0, 279936.0, 711504.0, 979776.0, 755244.0, 262440.0,
                 -53217.0, -96228.0, -42282.0, -8748.0, -729.0)
_P_SMOOTH_NUM = (256.0, 1280.0, 1984.0, 3008.0, -1088.0, 1472.0)
_P_SMOOTH_DEN = (1296.0, 6480.0, 13608.0, 15552.0, 10449.0, 4131.0, 891.0, 81.0)

# Constant factors of the tail coefficients c_Q and c_P, multiplied once.
_Q_TAIL_SCALE = 4096.0 * SQRT2
_P_TAIL_SCALE = 256.0 * SQRT2

# Imaginary step of q_slope.  Its value does not matter: no difference is
# taken, so nothing cancels, and the step enters only through the relative
# term h^2 Q'''/(6 Q'), below 1e-40 at the resonance and 1e-28 at
# x = 0.374999.  h = 1e-20 and h = 1e-30 give bit-identical slopes.
_COMPLEX_STEP = 1e-20

# Terms of the tail Phi(Z, 1, 3 - 1/t).  On [1/2, 1], |Z| <= 0.0295 and the
# shift lies in [1, 2], so the dropped remainder is at most
# |Z|^11 / (12 (1 - |Z|)) < 1.3e-18, below 2.6e-18 relative to Phi >= 1/2.
# The bound sets the length of the written-out tail in _q, _p and _pair,
# which has exactly this many terms; the tests hold it to lerch_sum with
# this count.
TAIL_TERMS = 11

# Terms of Phi(z, 1, 1 - t) in the alternates' 2F1 = 1 - t z Phi.  There
# 0 <= z <= 0.2 and 1 - t > 0, so the dropped part of the 2F1 is at most
# z^22 / (21 (1 - z)) < 2.5e-17, below 3.2e-17 relative to 2F1 >= 0.78.
ALT_TERMS = 21

# |t - n| below this, for a positive integer n, puts the alternates' shift
# 1 - t on the pole of the term j = n - 1.
_POLE_DISTANCE = 1e-12

# Polynomial factors of the alternate transcriptions (negative controls).
_ALT_Q_POLY = (419.0, 134.0, -15.0, 30.0, 60.0, -120.0, -32.0, 64.0)
_ALT_P_POLY = (23.0, 8.0, 1.0, -2.0)


def _horner(coeffs: tuple[float, ...], t: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * t + c
    return acc


def require_window(x: float) -> None:
    """Reject photon energies outside the open interval (0, 3/8).

    The endpoints are excluded deliberately: x = 0 is the static limit
    outside the two-photon problem, and x = 3/8 puts the intermediate
    energy exactly on the n = 2 level where Q diverges.
    """
    if not 0.0 < x < X_MAX:
        raise DomainError(f"photon energy fraction x = {x} outside (0, {X_MAX})")


def _checked_t(x: float) -> float:
    """Validate x and return t = sqrt(1 - 2x), real inside the window."""
    require_window(x)
    return math.sqrt(1.0 - 2.0 * x)


# The three kernels of the module docstring, for real t and for the complex
# t of q_slope.  A value used twice, such as 1 - t, is computed once: the
# same operation gives the same bits.  The first Horner step, 0 * z +
# 1/(a + 10) or 0 * t + c, is exactly its second term, for complex t too,
# so each sum starts there.


def _q(t: float) -> float:
    u = 1.0 - t
    v = 1.0 + t
    s = 2.0 * t
    w = 1.0 + s
    z = u * (1.0 - s) / (v * w)
    a = 3.0 - 1.0 / t
    tail = ((((((((((1.0 / (a + 10.0) * z + 1.0 / (a + 9.0)) * z + 1.0 / (a + 8.0)) * z
                   + 1.0 / (a + 7.0)) * z + 1.0 / (a + 6.0)) * z + 1.0 / (a + 5.0)) * z
                + 1.0 / (a + 4.0)) * z + 1.0 / (a + 3.0)) * z + 1.0 / (a + 2.0)) * z
             + 1.0 / (a + 1.0)) * z + 1.0 / a)
    return (SQRT2 * ((((((((-65536.0 * t - 393216.0) * t - 1040384.0) * t - 1622016.0) * t
                         - 1683456.0) * t - 1216512.0) * t - 645632.0) * t - 86016.0) * t
                    - 214528.0)
            / ((((((((((46656.0 * t + 279936.0) * t + 711504.0) * t + 979776.0) * t
                      + 755244.0) * t + 262440.0) * t - 53217.0) * t - 96228.0) * t
                 - 42282.0) * t - 8748.0) * t - 729.0)
            + _Q_TAIL_SCALE * u / (3.0 * v ** 5 * w ** 6) * tail)


def _pair(t: float) -> tuple[float, float]:
    u = 1.0 - t
    v = 1.0 + t
    s = 2.0 * t
    m = 1.0 - s
    w = 1.0 + s
    z = u * m / (v * w)
    a = 3.0 - 1.0 / t
    tail = ((((((((((1.0 / (a + 10.0) * z + 1.0 / (a + 9.0)) * z + 1.0 / (a + 8.0)) * z
                   + 1.0 / (a + 7.0)) * z + 1.0 / (a + 6.0)) * z + 1.0 / (a + 5.0)) * z
                + 1.0 / (a + 4.0)) * z + 1.0 / (a + 3.0)) * z + 1.0 / (a + 2.0)) * z
             + 1.0 / (a + 1.0)) * z + 1.0 / a)
    q = (SQRT2 * ((((((((-65536.0 * t - 393216.0) * t - 1040384.0) * t - 1622016.0) * t
                      - 1683456.0) * t - 1216512.0) * t - 645632.0) * t - 86016.0) * t
                 - 214528.0)
         / ((((((((((46656.0 * t + 279936.0) * t + 711504.0) * t + 979776.0) * t
                   + 755244.0) * t + 262440.0) * t - 53217.0) * t - 96228.0) * t
              - 42282.0) * t - 8748.0) * t - 729.0)
         + _Q_TAIL_SCALE * u / (3.0 * v ** 5 * w ** 6) * tail)
    p = (SQRT2 * (((((256.0 * t + 1280.0) * t + 1984.0) * t + 3008.0) * t - 1088.0) * t + 1472.0)
         / (((((((1296.0 * t + 6480.0) * t + 13608.0) * t + 15552.0) * t + 10449.0) * t
              + 4131.0) * t + 891.0) * t + 81.0)
         + _P_TAIL_SCALE * u ** 2 * m / (3.0 * v ** 4 * w ** 5) * tail)
    return q, p


def _p(t: float) -> float:
    u = 1.0 - t
    v = 1.0 + t
    s = 2.0 * t
    m = 1.0 - s
    w = 1.0 + s
    z = u * m / (v * w)
    a = 3.0 - 1.0 / t
    tail = ((((((((((1.0 / (a + 10.0) * z + 1.0 / (a + 9.0)) * z + 1.0 / (a + 8.0)) * z
                   + 1.0 / (a + 7.0)) * z + 1.0 / (a + 6.0)) * z + 1.0 / (a + 5.0)) * z
                + 1.0 / (a + 4.0)) * z + 1.0 / (a + 3.0)) * z + 1.0 / (a + 2.0)) * z
             + 1.0 / (a + 1.0)) * z + 1.0 / a)
    return (SQRT2 * (((((256.0 * t + 1280.0) * t + 1984.0) * t + 3008.0) * t - 1088.0) * t
                     + 1472.0)
            / (((((((1296.0 * t + 6480.0) * t + 13608.0) * t + 15552.0) * t + 10449.0) * t
                 + 4131.0) * t + 891.0) * t + 81.0)
            + _P_TAIL_SCALE * u ** 2 * m / (3.0 * v ** 4 * w ** 5) * tail)


def _alt_hyp(t: float) -> float:
    """2F1(1, -t; 1 - t; z) = 1 - t z Phi(z, 1, 1 - t) at the alternates'
    argument z = (1-t)(2-t)/((1+t)(2+t)); PoleError when t is ~ a positive
    integer n, where the shift 1 - t meets the pole of the term j = n - 1."""
    n = round(t)
    if n >= 1 and abs(t - n) < _POLE_DISTANCE:
        raise PoleError(f"parameter {t} sits within machine distance of the pole at {n}")
    z = (1.0 - t) * (2.0 - t) / ((1.0 + t) * (2.0 + t))
    return 1.0 - t * z * lerch_sum(z, 1.0 - t, ALT_TERMS)


def _q_alternate(t: float, f: float, mirror: bool) -> float:
    t2 = t * t
    first = (512.0 * SQRT2 * t2 * _horner(_ALT_Q_POLY, t)
             / (729.0 * (t - 2.0) ** 3 * (t2 - 1.0) ** 2 * (t + 2.0) ** 2))
    if mirror:
        den = 3.0 * (t - 2.0) ** 3 * (t + 2.0) ** 2 * (t2 - 1.0) ** 2
    else:
        den = 3.0 * (t2 - 2.0) ** 3 * (t2 - 1.0) ** 2
    return first - 4096.0 * SQRT2 * f / den


def _p_alternate(t: float, f: float) -> float:
    t2 = t * t
    first = (64.0 * SQRT2 * t2 * _horner(_ALT_P_POLY, t)
             / (81.0 * (t - 2.0) ** 2 * (t2 - 1.0) * (t + 2.0)))
    return first - 256.0 * SQRT2 * f / (3.0 * (t - 2.0) ** 2 * (t2 - 1.0) * (t + 2.0) ** 2)


def q_length(x: float) -> float:
    """Dimensionless length-gauge two-photon amplitude Q(x).

    Finite on the whole open window and negative throughout; diverges
    toward -infinity as x -> 3/8 where the intermediate state crosses the
    n = 2 shell.  The folded form needs no small-x guard: it stays accurate
    down to the smallest positive x (see module docstring)."""
    if not 0.0 < x < X_MAX:
        require_window(x)
    return _q(math.sqrt(1.0 - 2.0 * x))


def p_velocity(x: float) -> float:
    """Dimensionless velocity-gauge two-photon amplitude P(x).

    Positive and finite on the whole window; unlike Q it stays bounded as
    x -> 3/8 because the velocity coupling between the degenerate n = 2
    states vanishes."""
    if not 0.0 < x < X_MAX:
        require_window(x)
    return _p(math.sqrt(1.0 - 2.0 * x))


def q_slope(x: float) -> float:
    """dQ/dx of the derived Q by a complex step.  The folded form has no
    branch, abs or comparison, so it is analytic in t and Im Q(x + ih) / h
    is dQ/dx to rounding, from one evaluation with no subtraction (Lyness &
    Moler, SIAM J. Numer. Anal. 4, 202 (1967)).  Like Q, its relative error
    grows as x / (3/8 - x) next to the pole."""
    t = _checked_t(x)
    # t(x + ih) = t - ih/t + O(h^2), and the step keeps only the first order:
    # the slopes match those through cmath.sqrt(1 - 2(x + ih)) bit for bit,
    # and compute and scan start without importing cmath
    t = complex(t, -_COMPLEX_STEP / t)
    return _q(t).imag / _COMPLEX_STEP


def derived_pair(x: float) -> tuple[float, float]:
    """(Q(x), P(x)) from the derived closed forms, sharing one tail sum."""
    if not 0.0 < x < X_MAX:
        require_window(x)
    return _pair(math.sqrt(1.0 - 2.0 * x))


def _alternate(mirror: bool) -> AmplitudeSource:
    """A negative-control source: (Q, P) from a wrong transcription, with
    one 2F1 evaluation shared by both amplitudes."""
    def source(x: float) -> tuple[float, float]:
        t = _checked_t(x)
        f = _alt_hyp(t)
        return _q_alternate(t, f, mirror), _p_alternate(t, f)
    return source


SOURCES: dict[str, AmplitudeSource] = {
    "derived": derived_pair,
    "alt-a": _alternate(mirror=False),
    "alt-b": _alternate(mirror=True),
}


def source_named(name: str) -> AmplitudeSource:
    """The registered source for a name; DomainError for any other name."""
    if name not in SOURCES:
        raise DomainError(f"unknown formula variant {name!r}; choose from {tuple(SOURCES)}")
    return SOURCES[name]


@dataclass(frozen=True)
class GaugeAmplitudes:
    """Both gauge amplitudes at a single photon energy, plus the comparison
    functions f1 = P and f2 = (3/8 - x)(-x) Q and their difference."""

    x: float
    q: float
    p: float
    f1: float
    f2: float
    delta: float

    @classmethod
    def at(cls, x: float, source: AmplitudeSource) -> GaugeAmplitudes:
        """Evaluate source once at x and package the gauge comparison."""
        q, p = source(x)
        f2 = (X_MAX - x) * (-x) * q
        # The generated frozen __init__ sets each field through
        # object.__setattr__; filling the instance dict directly builds the
        # same object (equal, same hash and repr) at a fraction of the cost.
        pair = object.__new__(cls)
        fields = pair.__dict__
        fields["x"] = x
        fields["q"] = q
        fields["p"] = p
        fields["f1"] = p
        fields["f2"] = f2
        fields["delta"] = p - f2
        return pair


def gauge_pair(x: float) -> GaugeAmplitudes:
    """Evaluate Q and P once, sharing one tail sum, and package the gauge
    comparison.

    f1 and f2 agree only at x = 3/16; their difference is exactly linear,
    delta = DELTA_SLOPE * (x - 3/16)."""
    return GaugeAmplitudes.at(x, derived_pair)


def _partner(x1: float) -> float:
    """The partner x2 = 3/8 - x1 of a photon energy fraction x1 in the
    window; DomainError naming both values when it rounds to 3/8."""
    if not 0.0 < x1 < X_MAX:
        require_window(x1)
    x2 = X_MAX - x1
    if x2 == X_MAX:
        raise DomainError(f"partner x2 = {X_MAX} - x1 of photon energy fraction"
                          f" x1 = {x1} rounds to {x2}, outside (0, {X_MAX})")
    return x2


def two_color_combination(x1: float, q: Callable[[float], float]) -> float:
    """(3/4) [q(x1) + q(x2)], x2 = 3/8 - x1, for any evaluation q of Q.

    The partner frequency is fixed by the two-photon resonance condition
    x1 + x2 = 3/8.  In exact arithmetic x2 lies in the window exactly when
    x1 does, but for x1 below half an ulp of 3/8 (2.8e-17) the difference
    3/8 - x1 rounds to 3/8, on the pole; that x1 is a DomainError naming
    both values.  The two terms are the two possible time orderings of the
    absorptions."""
    x2 = _partner(x1)
    return 0.75 * (q(x1) + q(x2))


def two_color_q(x1: float) -> float:
    """Two-color resonant combination (3/4) [Q(x1) + Q(x2)], x2 = 3/8 - x1,
    from the derived Q alone: two_color_combination(x1, q_length), with the
    kernel called directly at both photon energies."""
    x2 = _partner(x1)
    return 0.75 * (_q(math.sqrt(1.0 - 2.0 * x1)) + _q(math.sqrt(1.0 - 2.0 * x2)))

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

Alternate transcriptions of the amplitude (differing in the denominator
attached to the hypergeometric term) are kept behind the ``variant`` flag
as negative controls: the verification suite must be able to demonstrate
that it can reject a wrong reading, not merely confirm the right one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import CancellationWarning, DomainError, PoleError
from .specfun import lerch_sum

SQRT2 = math.sqrt(2.0)

X_MAX = 0.375
X_RESONANCE = 0.1875

# d(delta)/dx: the gauge difference f1 - f2 is exactly linear in x with
# this slope, crossing zero at x = 3/16.
DELTA_SLOPE = -512.0 * SQRT2 / 729.0

# |t - 1| below this means x < ~1e-4; the evaluation path is unchanged but
# callers are warned that naive formulas would already have lost ~8 digits.
GUARD_BAND = 1e-4

VARIANTS = ("derived", "alt-a", "alt-b")

# Rational parts with the k <= 2 hypergeometric head folded in, as
# coefficient arrays (highest power first) of numerator and denominator;
# every array carries an overall factor sqrt(2).
_Q_SMOOTH_NUM = (-65536.0, -393216.0, -1040384.0, -1622016.0, -1683456.0,
                 -1216512.0, -645632.0, -86016.0, -214528.0)
_Q_SMOOTH_DEN = (46656.0, 279936.0, 711504.0, 979776.0, 755244.0, 262440.0,
                 -53217.0, -96228.0, -42282.0, -8748.0, -729.0)
_P_SMOOTH_NUM = (256.0, 1280.0, 1984.0, 3008.0, -1088.0, 1472.0)
_P_SMOOTH_DEN = (1296.0, 6480.0, 13608.0, 15552.0, 10449.0, 4131.0, 891.0, 81.0)

# Terms of the tail Phi(Z, 1, 3 - 1/t).  On [1/2, 1], |Z| <= 0.0295 and the
# shift lies in [1, 2], so the dropped remainder is at most
# |Z|^11 / (12 (1 - |Z|)) < 1.3e-18, below 2.6e-18 relative to Phi >= 1/2.
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


def _rational(num: tuple[float, ...], den: tuple[float, ...], t: float) -> float:
    return SQRT2 * _horner(num, t) / _horner(den, t)


def require_window(x: float) -> None:
    """Reject photon energies outside the open interval (0, 3/8).

    The endpoints are excluded deliberately: x = 0 is the static limit
    outside the two-photon problem, and x = 3/8 puts the intermediate
    energy exactly on the n = 2 level where Q diverges.
    """
    if not 0.0 < x < X_MAX:
        raise DomainError(f"photon energy fraction x = {x} outside (0, {X_MAX})")


def t_of_x(x: float) -> float:
    """Map x to t = sqrt(1 - 2x); requires 0 < x < 1/2 so t stays real."""
    if not 0.0 < x < 0.5:
        raise DomainError(f"t = sqrt(1 - 2x) needs 0 < x < 1/2, got x = {x}")
    return math.sqrt(1.0 - 2.0 * x)


def x_of_t(t: float) -> float:
    """Inverse map; round-trips with t_of_x to machine precision."""
    return 0.5 * (1.0 - t * t)


def _z_arg(t: float) -> float:
    return (1.0 - t) * (1.0 - 2.0 * t) / ((1.0 + t) * (1.0 + 2.0 * t))


def _checked_t(x: float, variant: str) -> float:
    """Validate x and variant, warn inside the guard band, and return t."""
    require_window(x)
    _check_variant(variant)
    t = t_of_x(x)
    if abs(t - 1.0) < GUARD_BAND:
        warnings.warn(
            "evaluation inside the small-x guard band |t - 1| < 1e-4; "
            "the folded form stays exact but term-by-term forms would not",
            CancellationWarning,
            stacklevel=3,
        )
    return t


def _tail(t: float) -> float:
    """Phi(Z, 1, 3 - 1/t), the hypergeometric tail with Z^3 and -1/t folded out."""
    return lerch_sum(_z_arg(t), 3.0 - 1.0 / t, TAIL_TERMS)


def _q_derived(t: float, tail: float) -> float:
    return (_rational(_Q_SMOOTH_NUM, _Q_SMOOTH_DEN, t)
            + 4096.0 * SQRT2 * (1.0 - t)
            / (3.0 * (1.0 + t) ** 5 * (1.0 + 2.0 * t) ** 6) * tail)


def _p_derived(t: float, tail: float) -> float:
    return (_rational(_P_SMOOTH_NUM, _P_SMOOTH_DEN, t)
            + 256.0 * SQRT2 * (1.0 - t) ** 2 * (1.0 - 2.0 * t)
            / (3.0 * (1.0 + t) ** 4 * (1.0 + 2.0 * t) ** 5) * tail)


def _alt_hyp(t: float) -> float:
    """2F1(1, -t; 1 - t; z) = 1 - t z Phi(z, 1, 1 - t) at the alternates'
    argument z = (1-t)(2-t)/((1+t)(2+t)); PoleError when t is ~ a positive
    integer n, where the shift 1 - t meets the pole of the term j = n - 1."""
    n = round(t)
    if n >= 1 and abs(t - n) < _POLE_DISTANCE:
        raise PoleError(f"parameter {t} sits within machine distance of the pole at {n}")
    z = (1.0 - t) * (2.0 - t) / ((1.0 + t) * (2.0 + t))
    return 1.0 - t * z * lerch_sum(z, 1.0 - t, ALT_TERMS)


def _q_alternate(t: float, mirror: bool) -> float:
    f = _alt_hyp(t)
    t2 = t * t
    first = (512.0 * SQRT2 * t2 * _horner(_ALT_Q_POLY, t)
             / (729.0 * (t - 2.0) ** 3 * (t2 - 1.0) ** 2 * (t + 2.0) ** 2))
    if mirror:
        den = 3.0 * (t - 2.0) ** 3 * (t + 2.0) ** 2 * (t2 - 1.0) ** 2
    else:
        den = 3.0 * (t2 - 2.0) ** 3 * (t2 - 1.0) ** 2
    return first - 4096.0 * SQRT2 * f / den


def _p_alternate(t: float) -> float:
    f = _alt_hyp(t)
    t2 = t * t
    first = (64.0 * SQRT2 * t2 * _horner(_ALT_P_POLY, t)
             / (81.0 * (t - 2.0) ** 2 * (t2 - 1.0) * (t + 2.0)))
    return first - 256.0 * SQRT2 * f / (3.0 * (t - 2.0) ** 2 * (t2 - 1.0) * (t + 2.0) ** 2)


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise DomainError(f"unknown formula variant {variant!r}; choose from {VARIANTS}")


def q_length(x: float, variant: str = "derived") -> float:
    """Dimensionless length-gauge two-photon amplitude Q(x).

    Finite on the whole open window and negative throughout; diverges
    toward -infinity as x -> 3/8 where the intermediate state crosses the
    n = 2 shell.  A CancellationWarning is emitted inside the small-x
    guard band (see module docstring)."""
    t = _checked_t(x, variant)
    if variant == "derived":
        return _q_derived(t, _tail(t))
    return _q_alternate(t, mirror=(variant == "alt-b"))


def p_velocity(x: float, variant: str = "derived") -> float:
    """Dimensionless velocity-gauge two-photon amplitude P(x).

    Positive and finite on the whole window; unlike Q it stays bounded as
    x -> 3/8 because the velocity coupling between the degenerate n = 2
    states vanishes."""
    t = _checked_t(x, variant)
    if variant == "derived":
        return _p_derived(t, _tail(t))
    return _p_alternate(t)


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


def gauge_pair(x: float, variant: str = "derived") -> GaugeAmplitudes:
    """Evaluate Q and P once, sharing one tail sum, and package the gauge
    comparison.

    f1 and f2 agree only at x = 3/16; their difference is exactly linear,
    delta = DELTA_SLOPE * (x - 3/16)."""
    t = _checked_t(x, variant)
    if variant == "derived":
        tail = _tail(t)
        q, p = _q_derived(t, tail), _p_derived(t, tail)
    else:
        q, p = _q_alternate(t, mirror=(variant == "alt-b")), _p_alternate(t)
    f1 = p
    f2 = (X_MAX - x) * (-x) * q
    return GaugeAmplitudes(x=x, q=q, p=p, f1=f1, f2=f2, delta=f1 - f2)


def two_color_q(x1: float, variant: str = "derived") -> float:
    """Two-color resonant combination (3/4) [Q(x1) + Q(x2)], x2 = 3/8 - x1.

    The partner frequency is fixed by the two-photon resonance condition
    x1 + x2 = 3/8, so x2 lies in the window exactly when x1 does.  The two
    terms are the two possible time orderings of the absorptions."""
    require_window(x1)
    x2 = X_MAX - x1
    return 0.75 * (q_length(x1, variant) + q_length(x2, variant))


@dataclass(frozen=True)
class ResonanceConstants:
    """Frozen values at the two-photon resonance x = 3/16."""

    x_r: float
    q_r: float
    p_r: float


# q_r and p_r are the converged closed-form values; p_r = -(3/16)^2 q_r
# holds exactly (the resonance gauge identity).
RESONANCE = ResonanceConstants(
    x_r=X_RESONANCE,
    q_r=-7.853655422351426,
    p_r=0.2761050734420423,
)

"""Series tests: the fixed-length Lerch sum, its term counts, and the 2F1
reductions built on it."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gauge_workbench.closedform import (
    ALT_TERMS,
    TAIL_TERMS,
    _alt_hyp,
    _tail,
    _z_arg,
    p_velocity,
    q_length,
    t_of_x,
)
from gauge_workbench.errors import CancellationWarning, PoleError
from gauge_workbench.specfun import lerch_sum

# enough terms for every |z| <= 0.9 used below: 0.9^400 < 1e-18
MANY = 400


def _remainder_bound(z, a, n):
    return abs(z) ** n / ((n + a) * (1.0 - abs(z)))


class TestLerchPhi:
    def test_zero_argument_is_inverse_shift(self):
        assert lerch_sum(0.0, 0.5, TAIL_TERMS) == 2.0

    def test_unit_shift_gives_log_series(self):
        # sum z^k/(k+1) = -ln(1-z)/z; at z = 1/2 that is 2 ln 2
        assert math.isclose(lerch_sum(0.5, 1.0, 60), 2.0 * math.log(2.0), rel_tol=1e-14)

    @pytest.mark.parametrize(
        "z,a",
        [(0.5, 1.0), (0.8, 0.7), (-0.9, 2.3), (0.03, -1.7), (-0.2, -0.5)],
    )
    def test_matches_reference_implementation(self, z, a):
        mine = lerch_sum(z, a, MANY)
        ref = float(mpmath.lerchphi(z, 1, a))
        assert math.isclose(mine, ref, rel_tol=1e-13)

    def test_tail_bound_covers_truncation_error(self):
        z, a, n = 0.8, 0.7, 20
        assert abs(lerch_sum(z, a, n) - lerch_sum(z, a, MANY)) <= _remainder_bound(z, a, n)

    @settings(deadline=None, max_examples=60)
    @given(
        # mpmath returns 0.0 for subnormal-ish z, so keep z a normal size
        z=st.floats(-0.9, 0.9).filter(lambda v: abs(v) > 1e-8),
        a=st.floats(0.1, 5.0),
    )
    def test_against_reference_over_positive_shifts(self, z, a):
        mine = lerch_sum(z, a, MANY)
        # some argument regions send mpmath down a complex route that
        # returns an mpc with roundoff imaginary part; keep the real part
        ref = mpmath.lerchphi(z, 1, a)
        assert abs(float(mpmath.im(ref))) < 1e-12
        assert math.isclose(mine, float(mpmath.re(ref)), rel_tol=1e-12, abs_tol=1e-12)


class TestTailLength:
    def test_tail_argument_stays_small(self):
        # TAIL_TERMS is justified by |Z| <= 0.0295 over the whole window
        t = np.linspace(0.5, 1.0, 100_001)
        z = (1.0 - t) * (1.0 - 2.0 * t) / ((1.0 + t) * (1.0 + 2.0 * t))
        assert np.max(np.abs(z)) < 0.0295

    def test_stated_bounds_reach_double_precision(self):
        # the remainder bounds quoted next to TAIL_TERMS and ALT_TERMS,
        # relative to the smallest value each sum takes on its domain
        assert _remainder_bound(0.0295, 1.0, TAIL_TERMS) / 0.5 < 3e-18
        assert 0.2 * _remainder_bound(0.2, 0.0, ALT_TERMS) / 0.78 < 2**-53

    def test_production_tail_matches_lerchphi(self):
        # Phi(z, 1, a) = 2F1(1, a; a + 1; z) / a, which mpmath evaluates about
        # a thousand times faster than mpmath.lerchphi at the same precision
        with mpmath.workdps(40):
            for i in range(1, 201):
                t = t_of_x(0.375 * i / 201.0)
                z, a = mpmath.mpf(_z_arg(t)), mpmath.mpf(3.0 - 1.0 / t)
                ref = mpmath.hyp2f1(1, a, a + 1, z) / a
                assert abs(_tail(t) / ref - 1) <= 2 * 2**-52


class TestHyp2F1Special:
    @pytest.mark.parametrize("b", [0.6, 1.1, 1.5, 1.9])
    @pytest.mark.parametrize("z", [-0.5, -0.03, 0.02, 0.5])
    def test_matches_scipy(self, b, z):
        # the Lerch reduction 2F1(1,-b;1-b;z) = 1 - b z Phi(z, 1, 1-b)
        mine = 1.0 - b * z * lerch_sum(z, 1.0 - b, MANY)
        ref = sp.hyp2f1(1.0, -b, 1.0 - b, z)
        assert math.isclose(mine, ref, rel_tol=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(t=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    def test_lerch_reduction_identity(self, t):
        # the alternates evaluate 2F1(1,-t;1-t;z) through the same reduction
        # with ALT_TERMS terms, at their argument z = (1-t)(2-t)/((1+t)(2+t))
        assume(abs(t - 1.0) >= 1e-12)
        z = (1.0 - t) * (2.0 - t) / ((1.0 + t) * (2.0 + t))
        assert math.isclose(_alt_hyp(t), sp.hyp2f1(1.0, -t, 1.0 - t, z), rel_tol=1e-15)

    @pytest.mark.parametrize("b", [1.0, 2.0, 3.0 + 1e-13])
    def test_integer_parameter_hits_pole(self, b):
        # 1/(j + 1 - b) has a pole at every positive integer b = j + 1
        with pytest.raises(PoleError):
            _alt_hyp(b)

    def test_alternates_raise_at_pole(self):
        # x = 1e-13 puts t within 1e-12 of the pole at t = 1
        with pytest.warns(CancellationWarning), pytest.raises(PoleError):
            q_length(1e-13, "alt-a")
        with pytest.warns(CancellationWarning), pytest.raises(PoleError):
            p_velocity(1e-13, "alt-b")

    def test_tail_plus_head_reassembles_full_value(self):
        # folding the k <= 1 head out of 2F1(1,-b;1-b;z) leaves -b z^2 Phi(z, 1, 2-b)
        b, z = 1.25, 0.4
        full = sp.hyp2f1(1.0, -b, 1.0 - b, z)
        head = 1.0 + (-b * z / (1.0 - b))
        tail = -b * z * z * lerch_sum(z, 2.0 - b, 60)
        assert math.isclose(full, head + tail, rel_tol=1e-14)


def test_lerch_combination_reproduces_resonance_amplitude():
    # the resonance-point amplitude admits an expression through one Lerch
    # value at z = 6 sqrt(10) - 19 with shift -2 sqrt(2/5); assembling it
    # must land on the same number the production evaluator returns
    phi = float(mpmath.lerchphi(6.0 * math.sqrt(10.0) - 19.0, 1,
                                -2.0 * math.sqrt(0.4)))
    value = -(2.0**15 / 3.0**6) * (
        19.0 * math.sqrt(2.0) + 16.0 * math.sqrt(5.0)
        + 64.0 * math.sqrt(2.0) * phi
    )
    assert abs(value - (-7.853655422)) < 1e-8
    from gauge_workbench.closedform import RESONANCE

    assert math.isclose(value, RESONANCE.q_r, rel_tol=1e-10)

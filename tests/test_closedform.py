"""Closed-form amplitude tests: frozen values, identities, edge behavior."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauge_workbench.closedform import (
    DELTA_SLOPE,
    RESONANCE,
    VARIANTS,
    X_MAX,
    X_RESONANCE,
    gauge_pair,
    p_velocity,
    q_length,
    t_of_x,
    two_color_q,
    x_of_t,
)
from gauge_workbench.errors import CancellationWarning, DomainError

# Frozen high-precision references, computed once with 40-digit arithmetic
# from the defining sums and pinned here against regressions.  The edge
# points 1e-8 and 0.3749.. are for the exact binary value of x, since Q near
# its pole moves by ~3e-11 relative between 0.374999 and its nearest double.
AMPLITUDE_TABLE = {
    1e-08: (-3.47636595667412002, 0.186233887860848925),
    0.001: (-3.48718540849297223, 0.186544844714356756),
    0.01: (-3.58750642025302472, 0.189395809337170286),
    0.025: (-3.76739026821170987, 0.194367364969543145),
    0.05: (-4.10813368181380361, 0.203328687817904887),
    0.1: (-4.99743945120271868, 0.224338731127985131),
    0.12: (-5.46190112553493767, 0.234178372953871376),
    0.15: (-6.33083986495796887, 0.250912622393721607),
    0.1875: (-7.85365542235142587, 0.276105073442042316),
    0.2: (-8.52176621742442663, 0.285846225292724879),
    0.25: (-12.6860293213077064, 0.334360454705215562),
    0.3: (-23.0864091509841322, 0.407703875042972502),
    0.32: (-33.0131047942094265, 0.44942536581650735),
    0.35: (-79.7785745764957387, 0.53665982742164703),
    0.36: (-138.431684122412191, 0.576195920284631106),
    0.37: (-435.24036074917529, 0.62392701955587552),
    0.3749: (-22335.6653477732989, 0.651229533869515018),
    0.37499: (-223468.247594444119, 0.651759629372146962),
    0.374999: (-2234794.20169876726, 0.65181269931084832),
}

# <2S| r^2 |1S> enters the master identity with a 1/3 angular factor.
R2_EXACT = -512.0 * math.sqrt(2.0) / 243.0


@pytest.mark.filterwarnings("ignore::gauge_workbench.errors.CancellationWarning")
@pytest.mark.parametrize("x", sorted(AMPLITUDE_TABLE))
def test_amplitudes_match_frozen_references(x):
    q_ref, p_ref = AMPLITUDE_TABLE[x]
    # next to its pole Q inherits the rounding of x amplified by x / (3/8 - x)
    q_tol = max(5e-13, 4 * 2**-52 * x / (X_MAX - x))
    assert math.isclose(q_length(x), q_ref, rel_tol=q_tol)
    assert math.isclose(p_velocity(x), p_ref, rel_tol=5e-13)


class TestSubstitution:
    def test_exact_point(self):
        assert t_of_x(0.18) == 0.8

    def test_window_midpoint(self):
        assert math.isclose(t_of_x(X_RESONANCE), math.sqrt(0.625), rel_tol=1e-15)

    @settings(deadline=None, max_examples=80)
    @given(x=st.floats(1e-4, 0.4999))
    def test_round_trip(self, x):
        assert math.isclose(x_of_t(t_of_x(x)), x, rel_tol=1e-13, abs_tol=1e-15)

    @pytest.mark.parametrize("x", [0.0, 0.5, -0.1, 0.6])
    def test_rejects_out_of_range(self, x):
        with pytest.raises(DomainError):
            t_of_x(x)


class TestWindow:
    @pytest.mark.parametrize("x", [0.0, X_MAX, 0.5, -1e-12])
    def test_amplitudes_reject_out_of_window(self, x):
        with pytest.raises(DomainError):
            q_length(x)
        with pytest.raises(DomainError):
            p_velocity(x)
        with pytest.raises(DomainError):
            two_color_q(x)

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            q_length(0.1, variant="no-such-thing")

    def test_divergence_toward_upper_edge(self):
        # Q has a simple pole at the n = 2 crossing; P stays bounded
        assert q_length(0.3749) < -1e4
        assert q_length(0.37499) < 10.0 * q_length(0.3749)
        assert 0.0 < p_velocity(0.37499) < 1.0


class TestResonance:
    def test_velocity_locks_to_length_at_resonance(self):
        q = q_length(X_RESONANCE)
        p = p_velocity(X_RESONANCE)
        assert abs(p + (3.0 / 16.0) ** 2 * q) < 1e-14

    def test_frozen_resonance_constants(self):
        assert math.isclose(q_length(RESONANCE.x_r), RESONANCE.q_r, rel_tol=1e-14)
        assert math.isclose(p_velocity(RESONANCE.x_r), RESONANCE.p_r, rel_tol=1e-14)
        assert math.isclose(RESONANCE.p_r, -(3.0 / 16.0) ** 2 * RESONANCE.q_r,
                            rel_tol=1e-14)


class TestGaugePair:
    @pytest.mark.parametrize("x", [0.01, 0.1875, 0.3])
    def test_fields_are_consistent(self, x):
        pair = gauge_pair(x)
        assert pair.f1 == pair.p
        assert pair.f2 == (X_MAX - x) * (-x) * pair.q
        assert pair.delta == pair.f1 - pair.f2

    def test_difference_is_the_stated_line(self):
        xs = [0.01 + i * (0.36 / 199.0) for i in range(200)]
        worst = max(
            abs(gauge_pair(x).delta - DELTA_SLOPE * (x - X_RESONANCE))
            for x in xs
        )
        assert worst < 1e-9

    def test_signs_flip_across_resonance(self):
        assert gauge_pair(0.10).delta > 0.0
        assert gauge_pair(0.25).delta < 0.0

    @settings(deadline=None, max_examples=100)
    @given(x=st.floats(0.005, 0.37))
    def test_master_identity_holds_everywhere(self, x):
        pair = gauge_pair(x)
        shift = (x - X_RESONANCE) * R2_EXACT / 3.0
        residual = pair.p - ((X_MAX - x) * (-x) * pair.q + shift)
        assert abs(residual) < 1e-9

    def test_monotone_trends(self):
        xs = [0.02 + 0.01 * i for i in range(35)]
        qs = [q_length(x) for x in xs]
        ps = [p_velocity(x) for x in xs]
        assert all(b < a for a, b in zip(qs, qs[1:]))
        assert all(b > a for a, b in zip(ps, ps[1:]))


class TestTwoColor:
    def test_partner_symmetry(self):
        assert two_color_q(0.05) == two_color_q(X_MAX - 0.05)
        assert two_color_q(0.30) == two_color_q(X_MAX - 0.30)

    def test_degenerate_point_reduces_to_one_color(self):
        assert two_color_q(X_RESONANCE) == 1.5 * q_length(X_RESONANCE)

    def test_frozen_table_entry(self):
        assert math.isclose(two_color_q(0.35), -62.6594736335306, rel_tol=1e-13)

    def test_velocity_combination_matches_length_combination(self):
        # P(x1) + P(x2) = -x1 x2 [Q(x1) + Q(x2)] whenever x1 + x2 = 3/8
        xs = [0.005 + i * (0.365 / 49.0) for i in range(50)]
        for x1 in xs:
            x2 = X_MAX - x1
            residual = (p_velocity(x1) + p_velocity(x2)
                        + x1 * x2 * (q_length(x1) + q_length(x2)))
            assert abs(residual) < 1e-9


class TestGuardBand:
    def test_small_x_warns_but_stays_exact(self):
        with pytest.warns(CancellationWarning):
            q = q_length(5e-5)
        assert math.isclose(q, -3.47690531656549693, rel_tol=1e-12)
        with pytest.warns(CancellationWarning):
            p = p_velocity(1e-6)
        assert math.isclose(p, 0.186234195147327766, rel_tol=1e-12)

    @pytest.mark.parametrize("x", [1e-17, 5e-324])
    def test_t_rounding_to_one_stays_finite(self, x):
        # below x ~ 1.1e-16, t = sqrt(1 - 2x) rounds to exactly 1.0
        assert t_of_x(x) == 1.0
        with pytest.warns(CancellationWarning):
            pair, near = gauge_pair(x), gauge_pair(1e-15)
            q, p = q_length(x), p_velocity(x)
        assert math.isclose(pair.q, near.q, rel_tol=1e-14)
        assert math.isclose(pair.p, near.p, rel_tol=1e-14)
        assert (q, p) == (pair.q, pair.p)

    def test_normal_window_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", CancellationWarning)
            q_length(0.01)
            p_velocity(0.36)


class TestVariants:
    def test_variant_registry(self):
        assert VARIANTS == ("derived", "alt-a", "alt-b")

    @pytest.mark.parametrize("variant", ["alt-a", "alt-b"])
    def test_alternates_deviate_measurably(self, variant):
        # the alternates transcribe the amplitude with a different
        # denominator reading; the verifier must be able to reject them
        assert abs(q_length(X_RESONANCE, variant) - RESONANCE.q_r) > 1e-2
        assert abs(p_velocity(X_RESONANCE, variant) - RESONANCE.p_r) > 1e-3

    @pytest.mark.parametrize("variant", ["alt-a", "alt-b"])
    def test_alternates_still_respect_the_window(self, variant):
        with pytest.raises(DomainError):
            q_length(0.5, variant)

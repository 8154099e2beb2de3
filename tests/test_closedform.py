"""Closed-form amplitude tests: frozen values, identities, edge behavior."""

import cmath
import dataclasses
import math
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauge_workbench import closedform, rabi
from gauge_workbench.closedform import (
    DELTA_SLOPE,
    SOURCES,
    X_MAX,
    X_RESONANCE,
    GaugeAmplitudes,
    derived_pair,
    gauge_pair,
    p_velocity,
    q_length,
    q_slope,
    source_named,
    two_color_q,
)
from gauge_workbench.errors import DomainError
from gauge_workbench.specfun import lerch_sum

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


@pytest.mark.parametrize("x", sorted(AMPLITUDE_TABLE))
def test_amplitudes_match_frozen_references(x):
    q_ref, p_ref = AMPLITUDE_TABLE[x]
    # next to its pole Q inherits the rounding of x amplified by x / (3/8 - x)
    q_tol = max(5e-13, 4 * 2**-52 * x / (X_MAX - x))
    assert math.isclose(q_length(x), q_ref, rel_tol=q_tol)
    assert math.isclose(p_velocity(x), p_ref, rel_tol=5e-13)


def _q_folded_mp(x):
    """The folded Q at 40 digits, its tail summed to convergence."""
    t = mpmath.sqrt(1 - 2 * x)
    z, a = (1 - t) * (1 - 2 * t) / ((1 + t) * (1 + 2 * t)), 3 - 1 / t
    tail = mpmath.nsum(lambda j: z**j / (j + a), [0, mpmath.inf])
    smooth = (mpmath.polyval(closedform._Q_SMOOTH_NUM, t)
              / mpmath.polyval(closedform._Q_SMOOTH_DEN, t))
    return mpmath.sqrt(2) * (smooth + 4096 * (1 - t) / (3 * (1 + t)**5 * (1 + 2 * t)**6) * tail)


class TestQSlope:
    @pytest.mark.parametrize("x", sorted(AMPLITUDE_TABLE) + [5e-324])
    def test_matches_mpmath_derivative(self, x):
        with mpmath.workdps(40):
            ref = mpmath.diff(_q_folded_mp, mpmath.mpf(x))
            rel = float(abs(q_slope(x) / ref - 1))
        # the Q rule of the frozen table, doubled for the derivative
        assert rel <= max(5e-15, 8 * 2**-52 * x / (X_MAX - x))

    @pytest.mark.parametrize("x", sorted(AMPLITUDE_TABLE) + [5e-324])
    def test_first_order_t_equals_the_complex_square_root(self, x):
        h = closedform._COMPLEX_STEP
        t = cmath.sqrt(1.0 - 2.0 * complex(x, h))
        assert q_slope(x) == closedform._q_derived(t, closedform._tail(t)).imag / h

    @pytest.mark.parametrize("x", [0.0, X_MAX, math.nan])
    def test_outside_the_window_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            q_slope(x)


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
        with pytest.raises(DomainError, match="unknown formula variant"):
            source_named("no-such-thing")

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
        q_r, p_r = AMPLITUDE_TABLE[X_RESONANCE]
        assert math.isclose(q_length(X_RESONANCE), q_r, rel_tol=1e-14)
        assert math.isclose(p_velocity(X_RESONANCE), p_r, rel_tol=1e-14)
        assert math.isclose(p_r, -(3.0 / 16.0) ** 2 * q_r, rel_tol=1e-14)


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

    @pytest.mark.parametrize("source", ["derived", "alt-a", "alt-b"])
    def test_at_builds_the_constructed_record(self, source):
        x = 0.1
        q, p = SOURCES[source](x)
        f2 = (X_MAX - x) * (-x) * q
        built = GaugeAmplitudes.at(x, SOURCES[source])
        expected = GaugeAmplitudes(x, q, p, p, f2, p - f2)
        assert built == expected
        assert hash(built) == hash(expected)
        assert repr(built) == repr(expected)
        assert dataclasses.astuple(built) == (x, q, p, p, f2, p - f2)

    @pytest.mark.parametrize("field", ["x", "q", "p", "f1", "f2", "delta"])
    def test_fields_stay_frozen(self, field):
        for pair in (gauge_pair(0.1), GaugeAmplitudes(0.1, 1.0, 2.0, 2.0, 3.0, -1.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pair, field, 0.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(pair, field)

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
        q = q_length(5e-5)
        assert math.isclose(q, -3.47690531656549693, rel_tol=1e-12)
        p = p_velocity(1e-6)
        assert math.isclose(p, 0.186234195147327766, rel_tol=1e-12)

    @pytest.mark.parametrize("x", [1e-17, 5e-324])
    def test_t_rounding_to_one_stays_finite(self, x):
        # below x ~ 1.1e-16, t = sqrt(1 - 2x) rounds to exactly 1.0
        assert closedform._checked_t(x) == 1.0
        pair, near = gauge_pair(x), gauge_pair(1e-15)
        q, p = q_length(x), p_velocity(x)
        assert math.isclose(pair.q, near.q, rel_tol=1e-14)
        assert math.isclose(pair.p, near.p, rel_tol=1e-14)
        assert (q, p) == (pair.q, pair.p)

    def test_normal_window_is_silent(self):
        # no warning of any kind, down to x where t rounds to 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e-17, 1e-5, 0.01, 0.36):
                q_length(x)
                p_velocity(x)
                gauge_pair(x)


class TestVariants:
    def test_variant_registry(self):
        assert tuple(SOURCES) == ("derived", "alt-a", "alt-b")
        assert SOURCES["derived"] is derived_pair
        assert all(source_named(name) is SOURCES[name] for name in SOURCES)

    @pytest.mark.parametrize("x", [1e-8, 0.01, 0.1875, 0.35, 0.374999])
    def test_derived_source_matches_the_scalar_evaluators(self, x):
        assert derived_pair(x) == (q_length(x), p_velocity(x))

    @pytest.mark.parametrize("variant", ["alt-a", "alt-b"])
    def test_alternates_deviate_measurably(self, variant):
        # the alternates transcribe the amplitude with a different
        # denominator reading; the verifier must be able to reject them
        q_r, p_r = AMPLITUDE_TABLE[X_RESONANCE]
        q, p = SOURCES[variant](X_RESONANCE)
        assert abs(q - q_r) > 1e-2
        assert abs(p - p_r) > 1e-3

    @pytest.mark.parametrize("variant", ["alt-a", "alt-b"])
    def test_alternates_still_respect_the_window(self, variant):
        with pytest.raises(DomainError):
            SOURCES[variant](0.5)


def _counted(monkeypatch, name):
    """Record the calls of closedform's global ``name`` in a list."""
    calls = []
    real = getattr(closedform, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(closedform, name, counted)
    return calls


class TestHotPaths:
    """Each derived evaluator sums one tail per photon energy and makes no
    lerch_sum call; only the alternates call lerch_sum."""

    @pytest.fixture
    def tail_calls(self, monkeypatch):
        return _counted(monkeypatch, "_tail")

    @pytest.fixture
    def lerch_calls(self, monkeypatch):
        return _counted(monkeypatch, "lerch_sum")

    @pytest.mark.parametrize("evaluate,expected", [
        (gauge_pair, 1), (derived_pair, 1), (q_length, 1), (p_velocity, 1),
        (q_slope, 1), (two_color_q, 2), (rabi.beta, 1),
        pytest.param(lambda x: GaugeAmplitudes.at(x, derived_pair), 1,
                     id="GaugeAmplitudes.at-1"),
    ])
    def test_lerch_sums_per_call(self, tail_calls, lerch_calls, evaluate, expected):
        for x in (0.01, 0.1875, 0.3):
            tail_calls.clear()
            evaluate(x)
            assert len(tail_calls) == expected
        assert lerch_calls == []

    @pytest.mark.parametrize("variant", ["alt-a", "alt-b"])
    def test_alternates_share_one_hypergeometric_per_pair(self, lerch_calls, variant):
        SOURCES[variant](0.1)
        assert len(lerch_calls) == 1


class TestSmoothParts:
    """The unrolled numerators and denominators of the rational parts are
    the Horner sums of the coefficient tables, bit for bit."""

    # dense real t over the window's [1/2, 1], and the complex step of
    # q_slope at each of them
    REAL_T = [0.5 + 0.5 * i / 4000 for i in range(4001)]
    T = REAL_T + [complex(t, -closedform._COMPLEX_STEP / t) for t in REAL_T]

    @pytest.mark.parametrize("smooth,num,den", [
        (closedform._q_smooth, closedform._Q_SMOOTH_NUM, closedform._Q_SMOOTH_DEN),
        (closedform._p_smooth, closedform._P_SMOOTH_NUM, closedform._P_SMOOTH_DEN),
    ], ids=["Q", "P"])
    def test_unrolled_forms_are_the_table_horner_sums(self, smooth, num, den):
        horner = closedform._horner
        for t in self.T:
            assert smooth(t) == (horner(num, t), horner(den, t))


class TestWrittenOutTail:
    """The written-out tail is lerch_sum over TAIL_TERMS terms, bit for bit,
    at the real t of the window and at q_slope's complex step."""

    def test_tail_is_the_lerch_sum(self):
        for t in TestSmoothParts.T:
            assert closedform._tail(t) == lerch_sum(
                closedform._z_arg(t), 3.0 - 1.0 / t, closedform.TAIL_TERMS)

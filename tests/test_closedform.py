"""Closed-form amplitude tests: frozen values, identities, edge behavior."""

import cmath
import dataclasses
import math
import warnings

import derived_reference
import mpmath
import pytest
import test_output_digest
from derived_reference import outcome
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
    two_color_combination,
    two_color_q,
)
from gauge_workbench.errors import DomainError

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

DIGEST_XS = test_output_digest.grid_xs()

# <2S| r^2 |1S> enters the master identity with a 1/3 angular factor.
R2_EXACT = -512.0 * math.sqrt(2.0) / 243.0


def _forward_error_bounds(x):
    """The relative error bounds of Q and P stated in the closedform
    docstring, c (1 + x/(3/8 - x)) 2^-53 with c = 9 and 7.  Next to its pole
    Q inherits the rounding of t amplified by x / (3/8 - x)."""
    scale = (1.0 + x / (X_MAX - x)) * 2**-53
    return 9.0 * scale, 7.0 * scale


@pytest.mark.parametrize("x", sorted(AMPLITUDE_TABLE))
def test_amplitudes_match_frozen_references(x):
    q_ref, p_ref = AMPLITUDE_TABLE[x]
    q_tol, p_tol = _forward_error_bounds(x)
    assert math.isclose(q_length(x), q_ref, rel_tol=q_tol)
    assert math.isclose(p_velocity(x), p_ref, rel_tol=p_tol)


def _folded_mp(x):
    """The folded Q and P at the working precision, the shared tail summed
    to convergence."""
    t = mpmath.sqrt(1 - 2 * x)
    z, a = (1 - t) * (1 - 2 * t) / ((1 + t) * (1 + 2 * t)), 3 - 1 / t
    tail = mpmath.nsum(lambda j: z**j / (j + a), [0, mpmath.inf])
    q_smooth = (mpmath.polyval(closedform._Q_SMOOTH_NUM, t)
                / mpmath.polyval(closedform._Q_SMOOTH_DEN, t))
    p_smooth = (mpmath.polyval(closedform._P_SMOOTH_NUM, t)
                / mpmath.polyval(closedform._P_SMOOTH_DEN, t))
    q = q_smooth + 4096 * (1 - t) / (3 * (1 + t)**5 * (1 + 2 * t)**6) * tail
    p = p_smooth + 256 * (1 - t)**2 * (1 - 2 * t) / (3 * (1 + t)**4 * (1 + 2 * t)**5) * tail
    return mpmath.sqrt(2) * q, mpmath.sqrt(2) * p


def test_forward_error_bound_over_the_window():
    # uniform over the window, and geometric toward both edges
    xs = ([X_MAX * (i + 0.5) / 200 for i in range(200)]
          + [X_MAX - 10.0**(-1 - 15 * i / 49) for i in range(50)]
          + [10.0**(-1 - 299 * i / 49) for i in range(50)])
    with mpmath.workdps(40):
        for x in xs:
            q_ref, p_ref = _folded_mp(mpmath.mpf(x))
            q, p = derived_pair(x)
            q_tol, p_tol = _forward_error_bounds(x)
            assert abs(q / q_ref - 1) <= q_tol
            assert abs(p / p_ref - 1) <= p_tol


class TestQSlope:
    @pytest.mark.parametrize("x", sorted(AMPLITUDE_TABLE) + [5e-324])
    def test_matches_mpmath_derivative(self, x):
        with mpmath.workdps(40):
            ref = mpmath.diff(lambda v: _folded_mp(v)[0], mpmath.mpf(x))
            rel = float(abs(q_slope(x) / ref - 1))
        # next to the pole the slope, like Q, inherits the rounding of t
        # amplified by x / (3/8 - x)
        assert rel <= max(5e-15, 8 * 2**-52 * x / (X_MAX - x))

    @pytest.mark.parametrize("x", sorted(AMPLITUDE_TABLE) + [5e-324])
    def test_first_order_t_equals_the_complex_square_root(self, x):
        h = closedform._COMPLEX_STEP
        t = cmath.sqrt(1.0 - 2.0 * complex(x, h))
        assert q_slope(x) == closedform._q(t).imag / h

    @pytest.mark.parametrize("x", [0.0, X_MAX, math.nan])
    def test_outside_the_window_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            q_slope(x)


class TestWindow:
    # NaN fails every comparison, so only a window test written as "not
    # inside" rejects it
    @pytest.mark.parametrize("x", [0.0, X_MAX, 0.5, -1e-12, math.nan, math.inf, -math.inf])
    def test_amplitudes_reject_out_of_window(self, x):
        for evaluate in (q_length, p_velocity, derived_pair, gauge_pair, q_slope,
                         two_color_q, rabi.beta):
            with pytest.raises(DomainError, match="outside"):
                evaluate(x)

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

    @pytest.mark.parametrize("x", [1e-300, 0.1, 0.1875, 0.3749999])
    def test_builds_the_constructed_record(self, x):
        # the object.__new__ fill builds what the generated __init__ builds
        q, p = derived_pair(x)
        f2 = (X_MAX - x) * (-x) * q
        built = gauge_pair(x)
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

    def test_direct_kernel_calls_are_the_combination_of_q_length(self):
        for x1 in DIGEST_XS:
            assert two_color_q(x1) == two_color_combination(x1, q_length)

    @pytest.mark.parametrize("x1", [1e-17, 2.7e-17])
    def test_partner_on_the_pole_is_the_same_error_as_the_combination(self, x1):
        messages = []
        for evaluate in (two_color_q, lambda x: two_color_combination(x, q_length)):
            with pytest.raises(DomainError, match=f"x1 = {x1} rounds to") as raised:
                evaluate(x1)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

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

    @pytest.mark.parametrize("x", [1e-8, 0.01, 0.1875, 0.35, 0.374999])
    def test_derived_source_matches_the_scalar_evaluators(self, x):
        assert derived_pair(x) == (q_length(x), p_velocity(x))

    def test_velocity_kernel_is_the_pairs_p(self):
        for x in DIGEST_XS:
            assert p_velocity(x) == derived_pair(x)[1]

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


def _counted(monkeypatch, *names):
    """Record the calls of closedform's globals ``names`` in one list."""
    calls = []

    def counting(name, real):
        def counted(*args):
            calls.append((name, args))
            return real(*args)
        return counted

    for name in names:
        monkeypatch.setattr(closedform, name, counting(name, getattr(closedform, name)))
    return calls


class TestHotPaths:
    """Each derived evaluator makes one kernel call, and so sums one tail,
    per photon energy and makes no lerch_sum call; only the alternates call
    lerch_sum."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        return _counted(monkeypatch, "_q", "_p", "_pair")

    @pytest.fixture
    def lerch_calls(self, monkeypatch):
        return _counted(monkeypatch, "lerch_sum")

    @pytest.mark.parametrize("evaluate,expected", [
        (gauge_pair, 1), (derived_pair, 1), (q_length, 1), (p_velocity, 1),
        (q_slope, 1), (two_color_q, 2), (rabi.beta, 1),
    ])
    def test_lerch_sums_per_call(self, kernel_calls, lerch_calls, evaluate, expected):
        for x in (0.01, 0.1875, 0.3):
            kernel_calls.clear()
            evaluate(x)
            assert len(kernel_calls) == expected
        assert lerch_calls == []

    @pytest.mark.parametrize("evaluate,kernels", [
        (p_velocity, ["_p"]), (q_length, ["_q"]), (two_color_q, ["_q", "_q"]),
        (gauge_pair, ["_pair"]), (derived_pair, ["_pair"]),
    ])
    def test_each_evaluator_calls_its_own_kernel(self, kernel_calls, evaluate, kernels):
        for x in (0.01, 0.1875, 0.3):
            kernel_calls.clear()
            evaluate(x)
            assert [name for name, _ in kernel_calls] == kernels

    @pytest.mark.parametrize("variant", ["alt-a", "alt-b"])
    def test_alternates_share_one_hypergeometric_per_pair(self, lerch_calls, variant):
        SOURCES[variant](0.1)
        assert len(lerch_calls) == 1


class TestSmoothParts:
    """The kernels' unrolled Horner forms, and the tail they share, are the
    composition of the coefficient tables and lerch_sum
    (tests/derived_reference.py), bit for bit, at the real t of the window
    and at q_slope's complex step."""

    @pytest.mark.parametrize("kernel,reference", [
        (closedform._q, derived_reference.q),
        (closedform._pair, derived_reference.pair),
        (closedform._p, derived_reference.p),
    ], ids=["Q", "P", "P-alone"])
    def test_unrolled_forms_are_the_table_horner_sums(self, kernel, reference):
        for t in derived_reference.T:
            assert outcome(kernel, t) == outcome(reference, t)


class TestWrittenOutTail:
    """The tail written out in all three kernels is lerch_sum over TAIL_TERMS
    terms: the composition whose tail sums TAIL_TERMS terms is each kernel
    bit for bit, and one summed over a term fewer or a term more is not."""

    def test_tail_is_the_lerch_sum(self):
        def matches(kernel, reference, terms):
            return all(outcome(kernel, t) == outcome(lambda s: reference(s, terms), t)
                       for t in derived_reference.T)

        for terms in (closedform.TAIL_TERMS - 1, closedform.TAIL_TERMS,
                      closedform.TAIL_TERMS + 1):
            expected = terms == closedform.TAIL_TERMS
            assert matches(closedform._q, derived_reference.q, terms) is expected
            assert matches(closedform._pair, derived_reference.pair, terms) is expected
            assert matches(closedform._p, derived_reference.p, terms) is expected

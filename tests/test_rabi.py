"""SI conversion tests: coefficient values, constants handling, dimensions."""

import json
import math
from dataclasses import fields, replace

import pytest

from gauge_workbench.closedform import X_RESONANCE, q_length, q_slope
from gauge_workbench.errors import DomainError
from gauge_workbench.rabi import (
    DEFAULT_CONSTANTS,
    ENV_CONSTANTS,
    PhysicalConstants,
    beta,
    beta_slope,
    load_constants,
    rabi_frequency,
    require_finite,
)


class TestBetaValues:
    def test_resonance_coefficient(self):
        value = beta(X_RESONANCE)
        assert math.isclose(value, 3.68111e-5, rel_tol=1e-3)
        # tighter regression pin on the exact computed number
        assert math.isclose(value, 3.6811064572103195e-05, rel_tol=1e-12)

    def test_positive_on_the_whole_window(self):
        for x in (0.01, 0.1875, 0.37):
            assert beta(x) > 0.0

    def test_slope_about_resonance(self):
        slope = beta_slope()
        assert math.isclose(slope, 2.32293e-4, rel_tol=1e-3)
        # the prefactor times a 40-digit mpmath.diff of the folded Q
        assert math.isclose(slope, 2.3229339127770627e-04, rel_tol=1e-14)

    def test_slope_is_the_prefactor_times_the_q_slope(self):
        doubled = replace(DEFAULT_CONSTANTS, hbar=2.0 * DEFAULT_CONSTANTS.hbar)
        for k in (DEFAULT_CONSTANTS, doubled):
            assert beta_slope(k) == -k.beta_prefactor * q_slope(X_RESONANCE)

    def test_prefactor_scales_linearly_with_hbar(self):
        doubled = replace(DEFAULT_CONSTANTS, hbar=2.0 * DEFAULT_CONSTANTS.hbar)
        assert math.isclose(beta(0.1, doubled), 2.0 * beta(0.1), rel_tol=1e-12)


def _prefactor_formula(k):
    return (k.e**2 * k.hbar
            / (k.alpha**4 * k.m_e**3 * k.c**5 * 4.0 * math.pi * k.eps0))


class TestPrefactorPerRecord:
    """The prefactor is kept with its record: no record is served another's."""

    @pytest.mark.parametrize("x", [0.01, X_RESONANCE, 0.37])
    def test_replaced_record(self, x):
        beta(x)   # the default record's prefactor is in use first
        k = replace(DEFAULT_CONSTANTS, alpha=7.3e-3)
        assert beta(x, k) == -_prefactor_formula(k) * q_length(x)
        assert beta(x, k) != beta(x)
        assert beta(x) == -_prefactor_formula(DEFAULT_CONSTANTS) * q_length(x)

    def test_record_from_a_file(self, tmp_path):
        path = tmp_path / "consts.json"
        path.write_text(json.dumps({"m_e": 9.2e-31, "hbar": 1.06e-34}))
        beta(0.1)
        k = PhysicalConstants.from_file(str(path))
        for x in (0.1, X_RESONANCE, 0.3):
            assert beta(x, k) == -_prefactor_formula(k) * q_length(x)
            assert k.beta_prefactor == _prefactor_formula(k)
        assert beta(0.1, k) != beta(0.1)

    def test_prefactor_is_no_field_of_the_record(self):
        k = replace(DEFAULT_CONSTANTS, c=3.0e8)
        fresh = replace(DEFAULT_CONSTANTS, c=3.0e8)
        assert k.beta_prefactor == _prefactor_formula(k)
        # computing it changes neither equality, hash, repr nor the fields
        assert k == fresh and hash(k) == hash(fresh) and repr(k) == repr(fresh)
        assert "beta_prefactor" not in {f.name for f in fields(PhysicalConstants)}


class TestRabiFrequency:
    def test_reference_intensity(self):
        # at 1e4 W/m^2 the resonant angular rate is a desk-checkable number
        omega = rabi_frequency(X_RESONANCE, 1e4)
        assert math.isclose(omega, 4.625814801221556, rel_tol=1e-10)

    def test_linear_in_intensity(self):
        base = rabi_frequency(0.1875, 250.0)
        assert math.isclose(rabi_frequency(0.1875, 500.0), 2.0 * base, rel_tol=1e-14)

    def test_zero_intensity_is_allowed(self):
        assert rabi_frequency(0.1875, 0.0) == 0.0

    def test_negative_intensity_rejected(self):
        with pytest.raises(DomainError, match="nonnegative and finite, got -1.0"):
            rabi_frequency(0.1875, -1.0)

    @pytest.mark.parametrize("intensity", [math.nan, math.inf])
    def test_non_finite_intensity_rejected(self, intensity):
        with pytest.raises(DomainError, match="nonnegative and finite"):
            rabi_frequency(0.1875, intensity)

    def test_intensity_is_checked_before_x(self):
        # both arguments are out of range: the intensity is reported, not the window
        with pytest.raises(DomainError, match="intensity") as info:
            rabi_frequency(0.5, -1.0)
        assert "photon energy fraction" not in str(info.value)

    def test_overflowing_frequency_names_x(self):
        # beta is finite there; the intensity scales it past the largest double
        assert 0.0 < beta(0.3749999) < math.inf
        with pytest.raises(DomainError, match=r"Rabi frequency at .* x = 0\.3749999 is inf"):
            rabi_frequency(0.3749999, 1e308)


class TestNonFiniteBeta:
    # e = 1e136 leaves the prefactor finite (1.8e304), but beta overflows
    # where |Q| passes ~1e4; one decade less of e keeps it finite at 0.3749
    def test_overflowing_beta_names_x(self):
        k = replace(DEFAULT_CONSTANTS, e=1e136)
        with pytest.raises(DomainError, match=r"beta at .* x = 0\.3749999 is inf"):
            beta(0.3749999, k)

    def test_largest_finite_beta_is_returned(self):
        k = replace(DEFAULT_CONSTANTS, e=1e135)
        assert f"{beta(0.3749, k):.11e}" == "4.07835138413e+306"

    def test_overflowing_beta_slope_names_the_resonance(self):
        # at e = 1.5e137 beta(3/16) is 3.2e307, but its slope overflows
        k = replace(DEFAULT_CONSTANTS, e=1.5e137)
        assert beta(X_RESONANCE, k) < math.inf
        with pytest.raises(DomainError, match=r"beta slope at .* x = 0\.1875 is inf"):
            beta_slope(k)
        assert beta_slope(replace(DEFAULT_CONSTANTS, e=1.2e137)) < math.inf

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_the_rule_rejects_every_non_finite_value(self, value):
        with pytest.raises(DomainError, match="x = 0.2 is"):
            require_finite(value, 0.2, "beta")

    def test_the_rule_returns_finite_values(self):
        assert require_finite(-1.5e308, 0.2, "beta") == -1.5e308


class TestLinearizedBeta:
    def test_close_to_full_evaluation_nearby(self):
        # beta_slope is the tangent of beta at the resonance
        lin = beta(X_RESONANCE) + beta_slope() * (0.19 - X_RESONANCE)
        full = beta(0.19)
        assert math.isclose(lin, full, rel_tol=1e-3)


# positive finite constants whose beta prefactor is not
_PREFACTOR_OUT_OF_RANGE = [{"c": 1e-300}, {"m_e": 1e200}, {"m_e": 1e100},
                           {"hbar": 1e300, "e": 1e10}]


class TestConstantsHandling:
    def test_defaults_vintage(self):
        assert DEFAULT_CONSTANTS.provenance_tag == "CODATA-2018"
        assert DEFAULT_CONSTANTS.c == 299792458.0

    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            PhysicalConstants(alpha=-1.0)
        with pytest.raises(DomainError):
            PhysicalConstants(hbar=0.0)

    @pytest.mark.parametrize("value", ["x", True, None, math.inf, math.nan, 10**400],
                             ids=["str", "bool", "none", "inf", "nan", "int-overflow"])
    def test_non_real_or_non_finite_constants_rejected(self, value):
        with pytest.raises(DomainError, match="alpha"):
            PhysicalConstants(alpha=value)

    def test_integer_constant_accepted(self):
        assert PhysicalConstants(c=299792458).c == 299792458

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "consts.json"
        path.write_text(json.dumps({"alpha": 7.3e-3}))
        k = PhysicalConstants.from_file(str(path))
        assert k.alpha == 7.3e-3
        assert k.m_e == DEFAULT_CONSTANTS.m_e
        assert k.provenance_tag == "file:consts.json"

    def test_file_provenance_passthrough(self, tmp_path):
        path = tmp_path / "consts.json"
        path.write_text(json.dumps({"provenance_tag": "in-house-2026"}))
        assert PhysicalConstants.from_file(str(path)).provenance_tag == \
            "in-house-2026"

    def test_file_rejects_unknown_names(self, tmp_path):
        path = tmp_path / "consts.json"
        path.write_text(json.dumps({"planck": 1.0}))
        with pytest.raises(DomainError):
            PhysicalConstants.from_file(str(path))

    @pytest.mark.parametrize("content", ['{"alpha": ', '{"alpha": "x"}', '{"alpha": false}',
                                         '{"provenance_tag": 3}'],
                             ids=["invalid-json", "string", "bool", "numeric-tag"])
    def test_file_errors_name_the_file(self, tmp_path, content):
        path = tmp_path / "consts.json"
        path.write_text(content)
        with pytest.raises(DomainError, match="consts.json"):
            PhysicalConstants.from_file(str(path))

    @pytest.mark.parametrize("record", _PREFACTOR_OUT_OF_RANGE,
                             ids=["zero-division", "overflow", "underflow-to-0", "inf"])
    def test_constants_whose_prefactor_is_out_of_range_are_rejected(self, tmp_path, record):
        # every constant is positive and finite; the prefactor they build
        # divides by zero, overflows, or rounds to 0 or inf
        with pytest.raises(DomainError, match="beta prefactor"):
            PhysicalConstants(**record)
        path = tmp_path / "consts.json"
        path.write_text(json.dumps(record))
        with pytest.raises(DomainError, match="consts.json: .*beta prefactor"):
            PhysicalConstants.from_file(str(path))

    def test_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "consts.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(DomainError):
            PhysicalConstants.from_file(str(path))

    def test_env_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "consts.json"
        path.write_text(json.dumps({"alpha": 7.4e-3}))
        monkeypatch.setenv(ENV_CONSTANTS, str(path))
        assert load_constants().alpha == 7.4e-3
        monkeypatch.delenv(ENV_CONSTANTS)
        assert load_constants() is DEFAULT_CONSTANTS

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        env_file = tmp_path / "env.json"
        env_file.write_text(json.dumps({"alpha": 7.4e-3}))
        arg_file = tmp_path / "arg.json"
        arg_file.write_text(json.dumps({"alpha": 7.5e-3}))
        monkeypatch.setenv(ENV_CONSTANTS, str(env_file))
        assert load_constants(str(arg_file)).alpha == 7.5e-3


def test_prefactor_dimensions_reduce_to_hz_per_intensity():
    """Track SI base-unit exponents through e^2 hbar / (a^4 m^3 c^5 4 pi e0).

    Hz per (W/m^2) is s^2/kg in base units; the prefactor must land there.
    """
    dims = {
        "e": {"A": 1, "s": 1},
        "hbar": {"kg": 1, "m": 2, "s": -1},
        "m_e": {"kg": 1},
        "c": {"m": 1, "s": -1},
        "eps0": {"A": 2, "s": 4, "kg": -1, "m": -3},
        "alpha": {},
    }

    def combine(powers):
        out = {}
        for name, p in powers.items():
            for unit, exponent in dims[name].items():
                out[unit] = out.get(unit, 0) + p * exponent
        return {u: e for u, e in out.items() if e != 0}

    numerator = {"e": 2, "hbar": 1}
    denominator = {"alpha": 4, "m_e": 3, "c": 5, "eps0": 1}
    total = combine(numerator)
    for unit, exponent in combine(denominator).items():
        total[unit] = total.get(unit, 0) - exponent
    total = {u: e for u, e in total.items() if e != 0}
    assert total == {"s": 2, "kg": -1}
    # and the magnitude is the frozen number used throughout
    assert math.isclose(DEFAULT_CONSTANTS.beta_prefactor, 4.68712498735e-6, rel_tol=1e-11)

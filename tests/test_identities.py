"""Verification-report tests: the six checks, determinism, negative controls,
and the Sturmian solve of the strict report held to its plain form."""

import dataclasses
import math

import pytest
import strict_reference
from strict_golden import EXPECTED_STRICT_DIGEST, strict_digest

from gauge_workbench import sturmian
from gauge_workbench.closedform import DELTA_SLOPE, SOURCES, X_RESONANCE, gauge_pair
from gauge_workbench.errors import DomainError
from gauge_workbench.identities import (
    AC_STARK_POINTS,
    BASIS,
    DELTA_GRID,
    TOL_ORACLE,
    ConstantComparison,
    IdentityCheck,
    VerificationReport,
    build_report,
    check_ac_stark,
    check_delta_linear,
    check_master_identity,
    check_one_photon,
    check_resonance_pq,
    check_two_color,
    closed_form_source,
    constants_table,
    grid_source,
)
from gauge_workbench.rabi import DEFAULT_CONSTANTS

CLOSED = closed_form_source("derived")


class TestIdentityCheck:
    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            IdentityCheck("master_identity", (0.1, 0.2), (0.0,), 1e-9, "closed_form")

    def test_max_residual(self):
        check = IdentityCheck("x", (0.1, 0.2), (1e-12, -3e-11), 1e-9, "closed_form")
        assert check.max_residual == 3e-11
        assert check.passed
        # a NaN fails its check and is the reported maximum wherever it sits
        for residuals in ((0.0, math.nan), (math.nan, 0.0)):
            check = IdentityCheck("x", (0.1, 0.2), residuals, 1e-9, "closed_form")
            assert not check.passed
            assert math.isnan(check.max_residual)
        assert not IdentityCheck("x", (0.1, 0.2), (0.0, -math.inf), 1e-9, "closed_form").passed


class TestDerivedVerdicts:
    def test_records_hold_no_verdict_fields(self):
        def names(cls):
            return tuple(f.name for f in dataclasses.fields(cls))

        assert names(IdentityCheck) == ("name", "x_values", "residuals", "tolerance", "source")
        assert names(ConstantComparison) == ("name", "computed", "reference", "rel_tolerance",
                                             "provenance")
        assert names(VerificationReport) == ("checks", "constants")

    def test_a_residual_above_its_tolerance_fails_the_row_and_the_report(self):
        bad = IdentityCheck("master_identity", (0.1,), (1.0,), 1e-9, "closed_form")
        assert bad.passed is False
        report = build_report("strict")
        assert report.overall_pass
        assert not VerificationReport(report.checks + (bad,), report.constants).overall_pass


class TestIndividualChecks:
    def test_master_identity_closed_form(self):
        check = check_master_identity(CLOSED)
        assert check.name == "master_identity"
        assert check.tolerance == 1e-9
        assert len(check.x_values) == 20
        assert check.passed

    def test_master_identity_oracle(self, default_grid):
        check = check_master_identity(grid_source(default_grid))
        assert (check.source, check.tolerance) == ("grid", 1e-6)
        assert check.passed
        # the grid result is genuinely coarser than the closed forms
        assert check.max_residual > 1e-12

    def test_resonance_lock(self):
        check = check_resonance_pq(CLOSED)
        assert check.x_values == (0.1875,)
        assert check.passed

    def test_ac_stark(self, default_grid):
        # the Sturmian resolvent at the closed-form tolerance, and the grid
        check = check_ac_stark(BASIS)
        assert check.x_values == (0.001, 0.05, 0.10, 0.15)
        assert (check.source, check.tolerance) == ("sturmian", 1e-9)
        assert check.passed
        grid = check_ac_stark(grid_source(default_grid))
        assert grid.x_values == check.x_values
        assert (grid.source, grid.tolerance) == ("grid", 1e-6)
        assert grid.passed

    def test_two_color(self):
        check = check_two_color(CLOSED)
        assert (check.source, check.tolerance) == ("closed_form", 1e-9)
        assert check.passed

    def test_delta_linear(self):
        check = check_delta_linear(CLOSED)
        assert len(check.x_values) == 200
        assert check.passed

    @pytest.mark.parametrize("variant", sorted(SOURCES))
    def test_delta_linear_equals_the_gauge_amplitudes_residual(self, variant):
        # bit for bit f1 - f2 formed from (Q, P) as gauge_pair forms it, and
        # for the derived source the residual read through gauge_pair itself
        check = check_delta_linear(closed_form_source(variant))
        assert check.residuals == strict_reference.delta_residuals(SOURCES[variant])
        if variant == "derived":
            assert check.residuals == tuple(
                gauge_pair(x).delta - DELTA_SLOPE * (x - X_RESONANCE) for x in DELTA_GRID)

    def test_grid_atom_as_the_source_of_three_claims(self, default_grid):
        # independent numerical evidence for the resonance lock, the
        # two-color law and the straight gauge difference: each check reads
        # Q and P from the grid instead of the closed forms, and the
        # residuals sit inside the grid tolerance
        source = grid_source(default_grid)
        for check, points in ((check_resonance_pq(source), 1),
                              (check_two_color(source), 3),
                              (check_delta_linear(source), 200)):
            assert len(check.residuals) == points
            assert check.passed and check.source == "grid", check.name
            assert check.tolerance == TOL_ORACLE, check.name
            # coarser than the closed forms, so the grid really was read
            assert check.max_residual > 1e-12, check.name

    def test_one_photon(self, default_grid):
        # held to the smaller of the source's tolerance and TOL_ONE_PHOTON
        check = check_one_photon(BASIS)
        assert check.name == "one_photon_ratio"
        assert (check.source, check.tolerance) == ("sturmian", 1e-9)
        assert check.passed
        grid = check_one_photon(grid_source(default_grid))
        assert (grid.source, grid.tolerance) == ("grid", 1e-8)
        assert grid.passed

    def test_a_source_without_the_input_is_rejected(self):
        # the basis gives no amplitudes and the closed forms no 1S reads
        with pytest.raises(ValueError, match="'sturmian' provides no pair"):
            check_two_color(BASIS)
        with pytest.raises(ValueError, match="'closed_form' provides no diagonal"):
            check_ac_stark(CLOSED)
        with pytest.raises(ValueError, match="'closed_form' provides no one_photon"):
            check_one_photon(CLOSED)
        with pytest.raises(ValueError, match="'sturmian' provides no r2"):
            check_master_identity(dataclasses.replace(BASIS, pair=CLOSED.pair))


class TestReport:
    def test_all_six_checks_present_in_order(self):
        report = build_report("strict")
        assert tuple(c.name for c in report.checks) == (
            "master_identity", "resonance_pq", "ac_stark", "two_color", "delta_linear",
            "one_photon_ratio")
        assert report.overall_pass
        assert all(c.passed for c in report.checks)

    def test_strict_report_values_are_pinned(self):
        # every residual and constant of every source, to the last bit: the
        # printed lines show 12 digits only
        assert strict_digest() == EXPECTED_STRICT_DIGEST

    def test_oracle_profile_swaps_master_source(self, default_grid):
        strict = build_report("strict")
        oracle = build_report("oracle", grid=default_grid)
        get = lambda rep: next(c for c in rep.checks
                               if c.name == "master_identity")
        assert get(strict).tolerance == 1e-9
        assert get(oracle).tolerance == 1e-6
        assert oracle.overall_pass

    def test_every_check_names_its_source(self, default_grid):
        closed = {"resonance_pq": "closed_form", "two_color": "closed_form",
                  "delta_linear": "closed_form"}
        expected = {
            "strict": {**closed, "master_identity": "closed_form",
                       "ac_stark": "sturmian", "one_photon_ratio": "sturmian"},
            "oracle": {**closed, "master_identity": "grid",
                       "ac_stark": "grid", "one_photon_ratio": "grid"},
        }
        tolerances = {"strict": {"ac_stark": 1e-9, "one_photon_ratio": 1e-9},
                      "oracle": {"ac_stark": 1e-6, "one_photon_ratio": 1e-8}}
        for profile, grid in (("strict", None), ("oracle", default_grid)):
            report = build_report(profile, grid=grid)
            assert {c.name: c.source for c in report.checks} == expected[profile]
            for check in report.checks:
                if check.name in tolerances[profile]:
                    assert check.tolerance == tolerances[profile][check.name]

    def test_report_rows_are_direct_calls(self, default_grid):
        # a row is one check on one source, so a direct call reproduces it,
        # label and tolerance included
        grid = grid_source(default_grid)
        for profile, numeric, master in (("strict", BASIS, CLOSED), ("oracle", grid, grid)):
            report = build_report(profile, grid=default_grid if numeric is grid else None)
            assert report.checks == (
                check_master_identity(master), check_resonance_pq(CLOSED),
                check_ac_stark(numeric), check_two_color(CLOSED),
                check_delta_linear(CLOSED), check_one_photon(numeric))

    def test_closed_form_rows_are_the_same_in_both_profiles(self, default_grid):
        # resonance_pq, two_color, delta_linear and the constants read the
        # closed forms in either profile; on the grid delta_linear alone
        # would cost 200 solves
        strict = build_report("strict")
        oracle = build_report("oracle", grid=default_grid)
        closed = ("resonance_pq", "two_color", "delta_linear")
        for report in (strict, oracle):
            assert {c.source for c in report.checks if c.name in closed} == {"closed_form"}

        def bits(report):
            # repr tells every two doubles apart, -0.0 from 0.0 included
            rows = [c for c in report.checks if c.name in closed] + list(report.constants)
            return [repr(dataclasses.astuple(c)) for c in rows]

        assert bits(oracle) == bits(strict)

    def test_strict_profile_takes_no_grid(self, default_grid):
        # the strict profile builds no grid, so a grid given to it is an error
        with pytest.raises(DomainError, match="profile 'oracle'"):
            build_report("strict", grid=default_grid)

    def test_repeated_runs_are_bit_identical(self):
        first = build_report("strict")
        second = build_report("strict")
        for a, b in zip(first.checks, second.checks):
            assert a.residuals == b.residuals

    def test_unknown_profile_rejected(self, default_grid):
        with pytest.raises(DomainError):
            build_report("lenient", grid=default_grid)

    def test_constants_all_pass(self):
        for entry in constants_table(closed_form_source(), DEFAULT_CONSTANTS):
            assert entry.passed, entry
            assert entry.provenance == "published"
            assert entry.relative_error <= entry.rel_tolerance

    def test_reference_values_are_reproduced(self):
        table = {c.name: c
                 for c in constants_table(closed_form_source(), DEFAULT_CONSTANTS)}
        assert math.isclose(table["resonance_q"].computed,
                            -7.853655422, abs_tol=1e-8)
        assert math.isclose(table["two_color_q"].computed,
                            -62.659473633, abs_tol=1e-8)
        assert math.isclose(table["beta_resonance"].computed,
                            3.68111e-5, rel_tol=1e-3)
        assert math.isclose(table["beta_slope"].computed,
                            2.32293e-4, rel_tol=1e-3)


class TestNegativeControls:
    @pytest.mark.parametrize("variant", ["alt-a", "alt-b"])
    def test_wrong_transcription_fails_the_report(self, variant):
        report = build_report("strict", variant=variant)
        assert not report.overall_pass
        # every check and constant that reads the closed forms fails; the
        # Sturmian checks and the SI constants (built on the derived Q)
        # cannot depend on the variant
        failed = {c.name for c in report.checks + report.constants if not c.passed}
        passed = {c.name for c in report.checks + report.constants if c.passed}
        assert failed == {"master_identity", "resonance_pq", "two_color", "delta_linear",
                          "resonance_q", "two_color_q"}
        assert passed == {"ac_stark", "one_photon_ratio", "beta_resonance", "beta_slope"}

    def test_gauge_difference_is_real_off_resonance(self):
        assert abs(gauge_pair(0.10).delta) > 1e-2
        assert abs(gauge_pair(0.25).delta) > 1e-2


class TestClosedFormSource:
    def test_each_variant_reads_its_registered_source(self):
        assert all(closed_form_source(name).pair is SOURCES[name] for name in SOURCES)

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError, match=r"unknown formula variant 'no-such-thing'; "
                                              r"choose from \('derived', 'alt-a', 'alt-b'\)"):
            closed_form_source("no-such-thing")


class TestOneSweep:
    """One L D L^T factor per energy, solved for each column, gives the
    bits of one sweep per column (tests/strict_reference.py)."""

    def test_diagonal_elements_equal_one_sweep_per_column(self):
        points = strict_reference.SIGNED_X + [s for x in AC_STARK_POINTS for s in (x, -x)]
        assert 0.3749 in points and -0.3749 in points
        for x in points:
            assert sturmian.diagonal_elements(x) == strict_reference.diagonal_elements(x), x

    def test_one_photon_elements_equal_one_sweep_per_column(self):
        pencil = sturmian._pencil(1, sturmian.BASIS_SIZE)
        (energy, c), (reference_energy, reference_c) = \
            sturmian._state_2p(pencil), strict_reference.state_2p(pencil)
        assert energy == reference_energy and c == tuple(reference_c)
        assert sturmian.one_photon_elements() == strict_reference.one_photon_elements()

    def test_one_factor_serves_both_columns(self, monkeypatch):
        # diagonal_elements factors once and solves both columns with that
        # factor; inverse iteration factors once and solves once per step,
        # on a cold cache, and a warm one reads the cached 2P pair
        calls = []
        real_factor, real_solve = sturmian._factor, sturmian._solve

        def factor(pencil, energy):
            calls.append("factor")
            return real_factor(pencil, energy)

        def solve(factor, b):
            calls.append("solve")
            return real_solve(factor, b)

        monkeypatch.setattr(sturmian, "_factor", factor)
        monkeypatch.setattr(sturmian, "_solve", solve)
        sturmian.diagonal_elements(0.1)
        assert calls == ["factor", "solve", "solve"]
        calls.clear()
        sturmian._state_2p.cache_clear()
        sturmian.one_photon_elements()
        assert calls == ["factor"] + ["solve"] * 4
        calls.clear()
        sturmian.one_photon_elements()
        assert calls == []

    def test_dot_adds_left_to_right(self):
        # compensated summation, which sum() of floats uses from Python 3.12
        # on, gives 1.0 here; plain left-to-right addition loses the 1.0
        assert sturmian._dot([1.0, 1.0, 1.0], [1e16, 1.0, -1e16]) == 0.0
        assert sturmian._dot([2.0, 3.0], [0.5, 4.0]) == 13.0

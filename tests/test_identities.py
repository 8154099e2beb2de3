"""Verification-report tests: the six checks, determinism, negative controls."""

import math
from functools import partial

import pytest

from gauge_workbench.closedform import gauge_pair
from gauge_workbench.errors import DomainError
from gauge_workbench.identities import (
    CHECK_NAMES,
    TOL_ONE_PHOTON,
    TOL_ORACLE,
    IdentityCheck,
    _make_check,
    build_report,
    check_ac_stark,
    check_delta_linear,
    check_master_identity,
    check_one_photon,
    check_resonance_pq,
    check_two_color,
    constants_table,
)
from gauge_workbench.oracle import (
    diagonal_elements,
    gauge_pair_oracle,
    norm_1s,
    one_photon_elements,
    r2_overlap,
)


class TestIdentityCheck:
    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            IdentityCheck("master_identity", (0.1, 0.2), (0.0,), 1e-9, True)

    def test_max_residual(self):
        check = IdentityCheck("x", (0.1, 0.2), (1e-12, -3e-11), 1e-9, True)
        assert check.max_residual == 3e-11
        # a NaN fails its check and is the reported maximum wherever it sits
        for residuals in ((0.0, math.nan), (math.nan, 0.0)):
            check = _make_check("x", (0.1, 0.2), residuals, 1e-9)
            assert not check.passed
            assert math.isnan(check.max_residual)
        assert not _make_check("x", (0.1, 0.2), (0.0, -math.inf), 1e-9).passed


class TestIndividualChecks:
    def test_master_identity_closed_form(self):
        check = check_master_identity()
        assert check.name == "master_identity"
        assert check.tolerance == 1e-9
        assert len(check.x_values) == 20
        assert check.passed

    def test_master_identity_oracle(self, default_grid):
        check = check_master_identity(partial(gauge_pair_oracle, default_grid),
                                      r2_overlap(default_grid), TOL_ORACLE)
        assert check.tolerance == 1e-6
        assert check.passed
        # the grid result is genuinely coarser than the closed forms
        assert check.max_residual > 1e-12

    def test_resonance_lock(self):
        check = check_resonance_pq()
        assert check.x_values == (0.1875,)
        assert check.passed

    def test_ac_stark(self, default_grid):
        # the Sturmian resolvent by default, at the closed-form tolerance
        check = check_ac_stark()
        assert check.x_values == (0.001, 0.05, 0.10, 0.15)
        assert check.tolerance == 1e-9
        assert check.passed
        grid = check_ac_stark(partial(diagonal_elements, default_grid), norm_1s(default_grid),
                              TOL_ORACLE)
        assert grid.x_values == check.x_values
        assert grid.passed

    def test_two_color(self):
        check = check_two_color()
        assert check.passed

    def test_delta_linear(self):
        check = check_delta_linear()
        assert len(check.x_values) == 200
        assert check.passed

    def test_grid_atom_as_the_source_of_three_claims(self, default_grid):
        # independent numerical evidence for the resonance lock, the
        # two-color law and the straight gauge difference: each check reads
        # Q and P from the grid instead of the closed forms, and the
        # residuals sit inside the grid tolerance
        source = partial(gauge_pair_oracle, default_grid)
        for check, points in ((check_resonance_pq(source), 1),
                              (check_two_color(source), 3),
                              (check_delta_linear(source), 200)):
            assert len(check.residuals) == points
            assert check.max_residual <= TOL_ORACLE, check.name
            # coarser than the closed forms, so the grid really was read
            assert check.max_residual > 1e-12, check.name

    def test_one_photon(self, default_grid):
        check = check_one_photon()
        assert check.name == "one_photon_ratio"
        assert check.tolerance == 1e-9
        assert check.passed
        grid = check_one_photon(one_photon_elements(default_grid), TOL_ONE_PHOTON)
        assert grid.tolerance == 1e-8
        assert grid.passed


class TestReport:
    def test_all_six_checks_present_in_order(self):
        report = build_report("strict")
        assert tuple(c.name for c in report.checks) == CHECK_NAMES
        assert report.overall_pass
        assert all(c.passed for c in report.checks)

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
        for entry in constants_table():
            assert entry.passed, entry
            assert entry.provenance == "published"
            assert entry.relative_error <= entry.rel_tolerance

    def test_reference_values_are_reproduced(self):
        table = {c.name: c for c in constants_table()}
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

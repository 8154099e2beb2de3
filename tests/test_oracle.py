"""Grid oracle tests: eigensolves, resolvent solves, and self-consistency.

The default grid is built once per session (construction is cached), so
these tests mostly cost one banded solve each.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eig_banded, solve_banded

from gauge_workbench.closedform import p_velocity, q_length
from gauge_workbench.errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    NearResonanceError,
)
from gauge_workbench.oracle import (
    OracleState,
    RadialGrid,
    ac_stark_sides,
    build_oracle,
    check_one_photon_ratio,
    gauge_pair_oracle,
    green_solve,
    p_oracle,
    pseudostate_q,
    q_oracle,
    r2_overlap,
    solve_bound,
)

R2_EXACT = -512.0 * math.sqrt(2.0) / 243.0


class TestRadialGrid:
    def test_defaults_satisfy_floors(self):
        grid = RadialGrid()
        assert grid.n_points == 6000
        assert grid.r_max == 80.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_points": 1999},
            {"r_max": 50.0},
            {"r_min": 0.0},
            {"r_min": 1.5},
            {"r_max": math.nan},
            {"r_max": math.inf},
            {"r_min": math.nan},
        ],
    )
    def test_rejects_unusable_parameters(self, kwargs):
        with pytest.raises(DomainError):
            RadialGrid(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"r_max": 1e300}, {"r_min": 1e-200}],
                             ids=["r_max-squared-overflows", "r_min-bands-overflow"])
    def test_overflowing_grid_is_rejected_before_any_solve(self, kwargs):
        with pytest.raises(DomainError, match="overflows"):
            OracleState(RadialGrid(**kwargs))

    def test_refined_doubles_points(self):
        grid = RadialGrid()
        assert grid.refined().n_points == 12000
        assert grid.refined(3).n_points == 18000


class TestBoundStates:
    @pytest.mark.parametrize(
        "n,l",
        [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)],
    )
    def test_energies_and_norms(self, default_grid, n, l):
        state = solve_bound(default_grid, n, l)
        assert abs(state.energy + 0.5 / (n * n)) < 1e-8
        assert abs(state.norm - 1.0) < 1e-10
        assert state.label == (n, l)

    def test_sign_convention_is_positive_near_origin(self, default_grid):
        for n, l in [(1, 0), (2, 0), (2, 1)]:
            u = solve_bound(default_grid, n, l).radial_values
            lead = np.argmax(np.abs(u) > 1e-8 * np.max(np.abs(u)))
            assert u[lead] > 0.0

    def test_node_counts_via_sign_changes(self, default_grid):
        for n, l, nodes in [(1, 0, 0), (2, 0, 1), (2, 1, 0), (3, 0, 2)]:
            u = solve_bound(default_grid, n, l).radial_values
            floor = 1e-7 * np.max(np.abs(u))
            live = u[np.abs(u) > floor]
            assert int(np.sum(live[1:] * live[:-1] < 0.0)) == nodes

    def test_orthogonality(self, default_grid):
        state = build_oracle(default_grid)
        assert abs(state.integrate(state.w1, state.w2)) < 1e-10

    def test_rejects_bad_quantum_numbers(self, default_grid):
        with pytest.raises(DomainError):
            solve_bound(default_grid, 1, 1)

    def test_only_dipole_channels_are_built(self, default_grid):
        with pytest.raises(DomainError):
            build_oracle(default_grid).bands(2)


class TestR2Overlap:
    def test_matches_exact_integral(self, default_grid):
        assert math.isclose(r2_overlap(default_grid), R2_EXACT, rel_tol=1e-6)

    def test_diagonal_slot_sanity(self, default_grid):
        state = build_oracle(default_grid)
        r2_11 = state.integrate(state.w1 * state.r, state.r * state.w1)
        assert math.isclose(r2_11, 3.0, rel_tol=1e-8)

    def test_converged_under_refinement(self, default_grid):
        coarse = r2_overlap(default_grid)
        fine = r2_overlap(default_grid.refined())
        assert abs(fine - coarse) < 1e-8


class TestGreenSolve:
    def test_solution_satisfies_the_linear_system(self, default_grid):
        from gauge_workbench.oracle import _apply_bands

        state = build_oracle(default_grid)
        energy = state.s1.energy + 0.1
        driving = state.r * state.w1
        solution = green_solve(state, 1, energy, driving)
        resid = (_apply_bands(state.bands(1), solution)
                 - energy * solution - driving)
        rel = np.sqrt(np.dot(resid, resid) / np.dot(driving, driving))
        assert rel < 1e-8

    def test_overflowing_solve_is_an_error(self, small_grid):
        # A driving term that overflows next to the 2P level must raise,
        # not come back as a non-finite solution.
        state = build_oracle(small_grid)
        driving = np.full(small_grid.n_points, 1e300)
        with pytest.raises(ConvergenceError, match="non-finite"):
            green_solve(state, 1, state.s2p.energy, driving)

    def test_bra_ket_symmetry(self, default_grid):
        # <2S r|G|r 1S> = <1S r|G|r 2S> for the symmetric resolvent
        state = build_oracle(default_grid)
        energy = state.s1.energy + 0.1
        fwd = state.integrate(
            state.w2 * state.r,
            green_solve(state, 1, energy, state.r * state.w1))
        rev = state.integrate(
            state.w1 * state.r,
            green_solve(state, 1, energy, state.r * state.w2))
        assert math.isclose(fwd, rev, rel_tol=1e-10)

    @pytest.mark.parametrize("offset", [0.001, 0.1875, 0.37, -0.15])
    def test_cholesky_agrees_with_pivoted_lu(self, default_grid, offset):
        from gauge_workbench.oracle import _full_banded

        state = build_oracle(default_grid)
        energy = state.s1.energy + offset
        driving = np.column_stack((state.r * state.w1, state.wd1))
        solution = green_solve(state, 1, energy, driving)
        assert solution.shape == driving.shape
        for k in range(driving.shape[1]):
            lu = solve_banded((2, 2), _full_banded(state.bands(1), energy), driving[:, k])
            assert np.max(np.abs(solution[:, k] - lu)) <= 1e-10 * np.max(np.abs(lu))

    def test_stacked_call_with_one_overflowing_column_is_an_error(self, small_grid):
        # one bad column fails the whole call rather than coming back partial
        state = build_oracle(small_grid)
        driving = np.column_stack((state.r * state.w1, np.full(small_grid.n_points, 1e300)))
        with pytest.raises(ConvergenceError, match="non-finite"):
            green_solve(state, 1, state.s2p.energy, driving)

    def test_zero_driving_column_passes_the_gate(self, small_grid):
        # rows with |K - E| |x| + |b| = 0 carry no residual, not a 0/0
        state = build_oracle(small_grid)
        driving = np.column_stack((state.r * state.w1, np.zeros(small_grid.n_points)))
        solution = green_solve(state, 1, state.s1.energy + 0.1, driving)
        assert not np.any(solution[:, 1])

    def test_energy_inside_the_l1_spectrum_is_rejected(self, default_grid):
        # Negative control for the Cholesky route: between 2P and 3P the
        # shifted operator is indefinite, so there is no solution to return.
        state = build_oracle(default_grid)
        with pytest.raises(ConvergenceError, match="not positive definite"):
            green_solve(state, 1, state.s2p.energy + 0.01, state.r * state.w1)

    def test_backward_error_gate_sees_a_perturbed_solution(self, default_grid):
        # Negative control for the componentwise gate: the exact solve sits
        # at roundoff, a 1e-9 relative perturbation of it does not.
        from gauge_workbench.oracle import _RESOLVENT_TARGET, _componentwise_backward_error

        state = build_oracle(default_grid)
        energy = state.s1.energy + 0.1
        driving = state.r * state.w1
        shifted = state.bands(1).copy()
        shifted[2] -= energy
        solution = green_solve(state, 1, energy, driving)
        perturbed = solution * (1.0 + 1e-9 * np.cos(np.arange(solution.size)))
        assert _componentwise_backward_error(shifted, solution, driving) <= 1e-15
        assert _componentwise_backward_error(shifted, perturbed, driving) > _RESOLVENT_TARGET


class TestAmplitudeOracles:
    @pytest.mark.parametrize("x", [0.05, 0.1875, 0.32])
    def test_agree_with_analytic_evaluation(self, default_grid, x):
        assert math.isclose(q_oracle(default_grid, x), q_length(x),
                            rel_tol=1e-6)
        assert math.isclose(p_oracle(default_grid, x), p_velocity(x),
                            rel_tol=1e-6)

    @pytest.mark.parametrize("x", [0.05, 0.1875, 0.3749])
    def test_gauge_pair_matches_single_column_solves(self, default_grid, x):
        q, p = gauge_pair_oracle(default_grid, x)
        assert math.isclose(q, q_oracle(default_grid, x), rel_tol=1e-12)
        assert math.isclose(p, p_oracle(default_grid, x), rel_tol=1e-12)

    @pytest.mark.parametrize("x", [0.3749, 0.37499])
    def test_close_to_the_2p_pole_is_computed(self, default_grid, x):
        # The gap to 2P is 1e-4 / 1e-5 Hartree here; the solves are
        # backward stable and the remaining error is the r_min shift of
        # E_1S relative to that gap (2e-5 / 2e-4 for Q).
        assert math.isclose(q_oracle(default_grid, x), q_length(x), rel_tol=1e-3)
        assert math.isclose(p_oracle(default_grid, x), p_velocity(x), rel_tol=1e-3)

    def test_near_resonance_is_flagged(self, default_grid):
        x_close = 0.375 - 5e-7
        with pytest.raises(NearResonanceError):
            q_oracle(default_grid, x_close)
        with pytest.raises(NearResonanceError):
            p_oracle(default_grid, x_close)

    def test_guard_edge_is_flagged_for_every_amplitude(self, default_grid):
        # x = 0.374999 leaves the grid's 2P level 1e-6 minus the 2e-9 r_min
        # shift above E_1S + x: just inside the 1e-6 guard
        for amplitude in (q_oracle, p_oracle, gauge_pair_oracle):
            with pytest.raises(NearResonanceError):
                amplitude(default_grid, 0.374999)

    def test_window_is_enforced(self, default_grid):
        with pytest.raises(DomainError):
            q_oracle(default_grid, 0.4)


class TestOnePhotonRatio:
    def test_commutator_lock(self, default_grid):
        # omega * ratio must equal the level gap independently of omega
        state = build_oracle(default_grid)
        gap = state.s2p.energy - state.s1.energy
        for omega in (0.1, 0.2, 0.3):
            ratio = check_one_photon_ratio(default_grid, omega)
            assert abs(ratio * omega - gap) < 1e-8

    def test_half_gap_doubles_the_ratio(self, default_grid):
        state = build_oracle(default_grid)
        gap = state.s2p.energy - state.s1.energy
        ratio = check_one_photon_ratio(default_grid, gap / 2.0)
        assert math.isclose(ratio, 2.0, rel_tol=1e-8)

    def test_known_frequency_value(self, default_grid):
        assert math.isclose(check_one_photon_ratio(default_grid, 0.2),
                            1.875, rel_tol=1e-8)

    def test_degenerate_frequency_is_flagged(self, default_grid):
        state = build_oracle(default_grid)
        gap = state.s2p.energy - state.s1.energy
        with pytest.raises(DegenerateError):
            check_one_photon_ratio(default_grid, gap)

    @pytest.mark.parametrize("omega", [0.0, -0.2])
    def test_rejects_nonpositive_frequency(self, default_grid, omega):
        with pytest.raises(DomainError):
            check_one_photon_ratio(default_grid, omega)


class TestAcStark:
    @pytest.mark.parametrize("x", [0.001, 0.05, 0.10, 0.15])
    def test_sides_agree(self, default_grid, x):
        lhs, rhs = ac_stark_sides(default_grid, x)
        assert abs(lhs - rhs) < 1e-6

    def test_static_polarizability_limit(self, default_grid):
        # x -> 0: each sign contributes the radial static response 27/4,
        # which is 3/2 of the ground-state dipole polarizability 9/2
        _, rhs = ac_stark_sides(default_grid, 1e-3)
        radial = rhs / (2.0 * (1e-3) ** 2)
        assert math.isclose((2.0 / 3.0) * radial, 4.5, rel_tol=1e-3)

    def test_window_is_enforced(self, default_grid):
        with pytest.raises(DomainError):
            ac_stark_sides(default_grid, 0.5)


def _pseudostate_reference(grid, xs, count=30):
    """Partial sums from the full eig_banded eigenvector matrix, O(n^3).

    Unit-Euclidean columns, so each bra * ket product carries one net
    factor of h; one eigensolve serves every x."""
    state = build_oracle(grid)
    vals, vecs = eig_banded(state.bands(1), lower=False, select="i",
                            select_range=(0, count - 1))
    bra = (state.w2 * state.r) @ vecs
    ket = (state.r * state.w1) @ vecs
    return [np.cumsum(state.h * bra * ket / (vals - state.s1.energy - x) / 3.0)
            for x in xs]


def _assert_partial_sums_close_on_resolvent(grid, x=0.1):
    target = q_oracle(grid, x)
    errors = np.abs(pseudostate_q(grid, x, count=30) - target)
    assert np.all(np.diff(errors) <= 0.0)
    assert errors[-1] < 0.05 * errors[0]


class TestPseudostateSum:
    def test_partial_sums_approach_resolvent_value(self, small_grid):
        _assert_partial_sums_close_on_resolvent(small_grid)

    def test_partial_sums_approach_resolvent_value_on_default_grid(self, default_grid):
        _assert_partial_sums_close_on_resolvent(default_grid)

    def test_matches_full_eigenvector_reference(self, small_grid):
        xs = (0.02, 0.1, 0.1875, 0.3, 0.37)
        for x, reference in zip(xs, _pseudostate_reference(small_grid, xs)):
            partial = pseudostate_q(small_grid, x, count=30)
            assert np.max(np.abs(partial / reference - 1.0)) <= 1e-10

    def test_mode_between_two_eigenvalues_is_rejected(self, small_grid):
        # Negative control for the per-mode residual gate: a shift midway
        # between two eigenvalues converges to a mixture whose backward
        # error is of the order of the gap.
        from gauge_workbench.oracle import _mode_vector

        state = build_oracle(small_grid)
        vals = eig_banded(state.bands(1), lower=False, eigvals_only=True,
                          select="i", select_range=(0, 1))
        _mode_vector(state, 1, float(vals[0]))
        with pytest.raises(ConvergenceError, match="backward error"):
            _mode_vector(state, 1, float(0.5 * (vals[0] + vals[1])))

    def test_count_validation(self, small_grid):
        with pytest.raises(DomainError):
            pseudostate_q(small_grid, 0.1, count=0)

    def test_count_above_grid_size_is_a_domain_error(self, small_grid):
        with pytest.raises(DomainError):
            pseudostate_q(small_grid, 0.1, count=small_grid.n_points + 1)

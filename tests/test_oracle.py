"""Grid oracle tests: eigensolves, resolvent solves, and self-consistency.

The default grid is built once per session (construction is cached), so
these tests mostly cost one banded solve each.
"""

import dataclasses
import functools
import math
import types

import numpy as np
import pytest
from scipy.linalg import eig_banded, lapack, solve_banded, solveh_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs
from scipy.special import eval_genlaguerre

from gauge_workbench import identities, oracle
from gauge_workbench.closedform import p_velocity, q_length
from gauge_workbench.errors import (
    ConvergenceError,
    DomainError,
    NearResonanceError,
)
from gauge_workbench.identities import TOL_ONE_PHOTON, TOL_ORACLE
from gauge_workbench.oracle import (
    OracleState,
    RadialGrid,
    build_oracle,
    diagonal_elements,
    gauge_pair_oracle,
    green_solve,
    norm_1s,
    one_photon_elements,
    p_oracle,
    pseudostate_q,
    q_oracle,
    r2_overlap,
)

R2_EXACT = -512.0 * math.sqrt(2.0) / 243.0


def _upper(ab):
    """Lower symmetric bands (row k holds K[j + k, j]) in the upper layout
    that solveh_banded and eig_banded(lower=False) take (row 2 - k holds
    K[j - k, j]), written out row by row."""
    upper = np.zeros_like(ab)
    upper[0, 2:] = ab[2, :-2]
    upper[1, 1:] = ab[1, :-1]
    upper[2, :] = ab[0, :]
    return upper


def _lu_bands(ab, shift):
    """K - shift in the (2,2)-banded layout that solve_banded takes."""
    n = ab.shape[1]
    full = np.zeros((5, n))
    full[0, 2:] = ab[0, 2:]
    full[1, 1:] = ab[1, 1:]
    full[2, :] = ab[2, :] - shift
    full[3, :-1] = ab[1, 1:]
    full[4, :-2] = ab[0, 2:]
    return full


class TestRadialGrid:
    def test_defaults_satisfy_floors(self):
        grid = RadialGrid()
        assert grid.n_points == 3249
        assert grid.r_max == 80.0
        assert grid.r_min == 1e-4

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
            {"n_points": 200001},
            {"n_points": 10**9},
            # past the domain's edges: r^2 overflows at 1e300 and the bands
            # at 1e-200; the 1S tail underflows past r ~ 708; the closure
            # error passes 2e-6 Hartree above r_min = 1e-2
            {"r_max": 1e300},
            {"r_min": 1e-200},
            {"r_min": 1e-13},
            {"r_min": 0.02},
            {"r_max": 701.0},
        ],
    )
    def test_rejects_unusable_parameters(self, kwargs):
        with pytest.raises(DomainError):
            RadialGrid(**kwargs)

    @pytest.mark.parametrize("n_points", [6000.5, 6000.0, True, "6000", None])
    def test_rejects_non_integer_point_counts(self, n_points):
        with pytest.raises(DomainError, match="must be an integer"):
            RadialGrid(n_points=n_points)

    def test_accepts_numpy_integer_point_counts(self):
        assert RadialGrid(n_points=np.int64(3249)) == RadialGrid()

    def test_refined_doubles_points(self):
        grid = RadialGrid()
        assert grid.refined().n_points == 6498


def _bound_state(grid, n, l):
    """The (n, l) state of the grid's oracle: 1S, 2S or 2P."""
    state = build_oracle(grid)
    return {(1, 0): state.s1, (2, 0): state.s2, (2, 1): state.s2p}[n, l]


class TestBoundStates:
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (2, 1)])
    def test_energies_and_norms(self, default_grid, n, l):
        state = build_oracle(default_grid)
        bound = _bound_state(default_grid, n, l)
        w = state.sqrt_r * bound.radial_values
        assert abs(bound.energy + 0.5 / (n * n)) < 1e-8
        assert abs(state.integrate(w, w) - 1.0) < 1e-10
        assert bound.label == (n, l)

    def test_sign_convention_is_positive_near_origin(self, default_grid):
        for n, l in [(1, 0), (2, 0), (2, 1)]:
            u = _bound_state(default_grid, n, l).radial_values
            lead = np.argmax(np.abs(u) > 1e-8 * np.max(np.abs(u)))
            assert u[lead] > 0.0

    def test_node_counts_via_sign_changes(self, default_grid):
        for n, l, nodes in [(1, 0, 0), (2, 0, 1), (2, 1, 0)]:
            u = _bound_state(default_grid, n, l).radial_values
            floor = 1e-7 * np.max(np.abs(u))
            live = u[np.abs(u) > floor]
            assert int(np.sum(live[1:] * live[:-1] < 0.0)) == nodes

    def test_orthogonality(self, default_grid):
        state = build_oracle(default_grid)
        assert abs(state.integrate(state.w1, state.w2)) < 1e-10


def _dense_operator(l, h, r):
    """K_l as a dense matrix, entry by entry from the five-point formula:
    (30, -16, 1) / (24 h^2) on the diagonal and the first two off-diagonals,
    conjugated by diag(1/r), plus (l(l+1)/2 + 1/8 - r) / r^2 on the diagonal.
    The ghost points below the grid, (D w)_i e^(-k a h) f(r_i e^(-k h)) /
    f(r_i) for the neighbour k steps below row i, with a = l + 1/2 and
    f(r) = 1 - c r, c = 1/(l + 1), add (-16 e^(-ah) f(r_0 e^-h) +
    e^(-2ah) f(r_0 e^(-2h))) / (f(r_0) 24 h^2) to row 0 and
    e^(-2ah) f(r_1 e^(-2h)) / (f(r_1) 24 h^2) to row 1 before the division
    by r^2."""
    n = r.size
    a, c = l + 0.5, 1.0 / (l + 1)
    ghost = np.zeros(n)
    ghost[0] = ((-16.0 * math.exp(-a * h) * (1.0 - c * r[0] * math.exp(-h))
                 + 1.0 * math.exp(-2.0 * a * h) * (1.0 - c * r[0] * math.exp(-2.0 * h)))
                / ((1.0 - c * r[0]) * (24.0 * h * h)))
    ghost[1] = (1.0 * math.exp(-2.0 * a * h) * (1.0 - c * r[1] * math.exp(-2.0 * h))
                / ((1.0 - c * r[1]) * (24.0 * h * h)))
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, i] = (30.0 / (24.0 * h * h) + ghost[i] + 0.5 * l * (l + 1) + 0.125
                       - r[i]) / (r[i] * r[i])
        for k, weight in ((1, -16.0), (2, 1.0)):
            if i + k < n:
                dense[i, i + k] = dense[i + k, i] = weight / (24.0 * h * h) / (r[i] * r[i + k])
    return dense


def _dense_from_lower(ab):
    """Unpack lower symmetric band storage: ab[k, j] is K[j + k, j]; the
    last k slots of row k lie outside the matrix and must hold zero."""
    rows, n = ab.shape
    dense = np.zeros((n, n))
    for k in range(rows):
        for j in range(n):
            if j + k < n:
                dense[j + k, j] = dense[j, j + k] = ab[k, j]
            else:
                assert ab[k, j] == 0.0
    return dense


def _dense_from_lu_layout(full):
    """Unpack the (2, 2) dgbtrf layout: K[i, j] is full[4 + i - j, j]; the
    two workspace rows and every slot outside the matrix must hold zero."""
    rows, n = full.shape
    dense = np.zeros((n, n))
    for row in range(rows):
        for j in range(n):
            i = row - 4 + j
            if row >= 2 and 0 <= i < n:
                dense[i, j] = full[row, j]
            else:
                assert full[row, j] == 0.0
    return dense


class TestBandStorage:
    """The one band layout every consumer of K_l reads, pinned against a
    dense matrix written out by hand."""

    @pytest.mark.parametrize("l", [0, 1])
    def test_lower_bands_and_lu_layout_unpack_to_the_dense_operator(self, l):
        y = np.linspace(math.log(0.01), math.log(5.0), 12)
        h, r = float(y[1] - y[0]), np.exp(y)
        dense = _dense_operator(l, h, r)
        ab = oracle._hamiltonian_bands(l, h, r)
        full = oracle._full_banded(ab)
        assert ab.shape == (3, 12) and full.shape == (7, 12)
        assert full.flags.f_contiguous
        assert np.array_equal(_dense_from_lower(ab), dense)
        assert np.array_equal(_dense_from_lu_layout(full), dense)

    def test_nothing_factors_the_shared_operator_in_place(self, small_grid):
        state = build_oracle(small_grid)
        green_solve(state, state.s1.energy + 0.1, state._driving)
        for n, l in [(1, 0), (2, 0), (2, 1)]:
            oracle._solve_on_state(state, n, l)
        pseudostate_q(small_grid, 0.1, count=5)
        assert build_oracle(small_grid) is state
        for l in (0, 1):
            assert np.array_equal(state.bands[l],
                                  oracle._hamiltonian_bands(l, state.h, state.r))


def _lapack_results(routines, state):
    """Every output of the four bound LAPACK routines on one banded system
    of the state: Cholesky of K_1 - (E_1S + 0.1) and pivoted LU of the
    indefinite K_1 - (E_2P + 1e-3), each with a two-column solve."""
    shifted = state.bands[1].copy()
    shifted[0] -= state.s1.energy + 0.1
    factor, info = routines.dpbtrf(shifted, lower=1)
    sol, sinfo = routines.dpbtrs(factor, state._driving, lower=1)
    layout = oracle._full_banded(state.bands[1])
    layout[2 * oracle._KD] -= state.s2p.energy + 1e-3
    lu, piv, luinfo = routines.dgbtrf(layout, oracle._KD, oracle._KD)
    v, vinfo = routines.dgbtrs(lu, oracle._KD, oracle._KD, state._driving, piv)
    return factor, sol, lu, piv, v, (info, sinfo, luinfo, vinfo)


class TestLapackBinding:
    """The oracle loads scipy's private _flapack extension from its file;
    these pin what it binds to the public scipy.linalg.lapack routines."""

    def test_bound_routines_match_scipy_linalg_lapack_bit_for_bit(self, small_grid):
        state = build_oracle(small_grid)
        ours = _lapack_results(oracle, state)
        public = _lapack_results(lapack, state)
        assert ours[-1] == public[-1] == (0, 0, 0, 0)
        for mine, theirs in zip(ours[:-1], public[:-1]):
            assert np.array_equal(mine, theirs)

    def test_missing_extension_falls_back_to_the_same_values(self, fresh_grid, tmp_path,
                                                             monkeypatch):
        expected = (gauge_pair_oracle(fresh_grid, 0.1), pseudostate_q(fresh_grid, 0.1, count=5))
        fallback = oracle._load_lapack(str(tmp_path))
        assert fallback is lapack
        monkeypatch.setattr(oracle, "_flapack", fallback)
        for name in ("dgbtrf", "dgbtrs", "dpbtrf", "dpbtrs"):
            monkeypatch.setattr(oracle, name, getattr(fallback, name))
        build_oracle.cache_clear()
        pair = gauge_pair_oracle(fresh_grid, 0.1)
        partial = pseudostate_q(fresh_grid, 0.1, count=5)
        build_oracle.cache_clear()
        assert pair == expected[0]
        assert np.array_equal(partial, expected[1])


def _five_point_driving_term(state, u):
    """u' - u/r in the w representation: the five-point first derivative
    (u[i-2] - 8 u[i-1] + 8 u[i+1] - u[i+2]) / (12 h) of u padded with two
    zeros at each end, then divided by r."""
    padded = np.concatenate((np.zeros(2), u, np.zeros(2)))
    du = (padded[:-4] - 8.0 * padded[1:-3] + 8.0 * padded[3:-1] - padded[4:]) / (12.0 * state.h)
    return state.sqrt_r * (du / state.r - u / state.r)


class TestStencilTables:
    """Every grid derivative comes from _STENCIL or _DERIVATIVE, applied with
    u = 0 past both ends of the grid."""

    @pytest.mark.parametrize("grid", [RadialGrid(), RadialGrid(2000)], ids=["default", "2000"])
    def test_driving_terms_equal_the_zero_padded_five_point_formula(self, grid):
        state = build_oracle(grid)
        assert np.array_equal(state.wd1, _five_point_driving_term(state, state.s1.radial_values))
        assert np.array_equal(state.wd2, _five_point_driving_term(state, state.s2.radial_values))

    def test_sixth_order_tables_pass_every_gate(self, monkeypatch):
        # -(1/2) d^2/dy^2 = (490, -270, 27, -2) / (360 h^2) and
        # f' = (45 (f1 - f-1) - 9 (f2 - f-2) + (f3 - f-3)) / (60 h)
        monkeypatch.setattr(oracle, "_STENCIL", ((490.0, -270.0, 27.0, -2.0), 360.0))
        monkeypatch.setattr(oracle, "_KD", 3)
        monkeypatch.setattr(oracle, "_DERIVATIVE", ((45.0, -9.0, 1.0), 60.0))
        try:
            # built directly, so no sixth-order state enters build_oracle's cache
            state = OracleState(RadialGrid(3000))
            assert state.bands[1].shape == (4, 3000)
            assert oracle._full_banded(state.bands[1]).shape == (10, 3000)
            assert not np.array_equal(
                state.wd1, _five_point_driving_term(state, state.s1.radial_values))
            for x in (0.05, 3.0 / 16.0, 0.37):
                psi = green_solve(state, state.s1.energy + x, state._driving)
                q = state.integrate(state.w2 * state.r, psi[:, 0]) / 3.0
                p = state.integrate(state.wd2, psi[:, 1]) / 3.0
                assert math.isclose(q, q_length(x), rel_tol=TOL_ORACLE)
                assert math.isclose(p, p_velocity(x), rel_tol=TOL_ORACLE)
        finally:
            build_oracle.cache_clear()


def _rayleigh_quotient_iteration(state, n, l):
    """Energy of (n, l) by Rayleigh-quotient iteration with a new pivoted LU
    (solve_banded) at every step, stopping at a change below 1e-13 or after
    12 steps: the eigensolve the factor-once inverse iteration replaced."""
    ab, h, r = _upper(state.bands[l]), state.h, state.r
    poly = eval_genlaguerre(n - l - 1, 2 * l + 1, 2.0 * r / n)
    w = r ** (l + 1) * np.exp(-r / n) * poly * state.sqrt_r
    w /= np.sqrt(h * np.dot(w, w))
    energy = -0.5 / (n * n)
    for step in range(12):
        v = solve_banded((2, 2), _lu_bands(ab, energy), w)
        v /= np.sqrt(h * np.dot(v, v))
        updated = h * float(np.dot(v, _apply_bands_reference(ab, v)))
        done = step > 0 and abs(updated - energy) < 1e-13
        w, energy = v, updated
        if done:
            break
    return energy


def _apply_bands_reference(ab, w):
    """K w from the symmetric upper bands, written out term by term."""
    out = ab[2] * w
    out[..., 1:] += ab[1, 1:] * w[..., :-1]
    out[..., :-1] += ab[1, 1:] * w[..., 1:]
    out[..., 2:] += ab[0, 2:] * w[..., :-2]
    out[..., :-2] += ab[0, 2:] * w[..., 2:]
    return out


def _two_pass_backward_error(shifted, x, b):
    """The componentwise backward error from two band applications,
    |A x - b| and |A| |x| + |b|, each computed on its own."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(_apply_bands_reference(shifted, x) - b)
        scale = _apply_bands_reference(np.abs(shifted), np.abs(x)) + np.abs(b)
        ratio = np.divide(residual, scale, out=np.zeros_like(residual), where=scale > 0.0)
    return np.where(np.isfinite(scale).all(axis=-1), ratio.max(axis=-1), np.nan)


def _full_banded_reference(ab, shift):
    """K - shift in the 7-row column-major layout dgbtrf factors in place."""
    n = ab.shape[1]
    full = np.zeros((7, n), order="F")
    full[2:, :] = _lu_bands(ab, shift)
    return full


def _inverse_iteration_reference(state, n, l):
    """(energy, u) of (n, l) by the inverse iteration of oracle._solve_on_state,
    with K v applied by _apply_bands_reference and one factorization: for
    the nodeless 1S and 2P a banded Cholesky of the lower bands 1e-5
    Hartree below the hydrogen level, for 2S a pivoted LU built from the
    upper bands at the level itself."""
    ab, h, r = _upper(state.bands[l]), state.h, state.r
    poly = oracle._laguerre(n - l - 1, 2 * l + 1, 2.0 * r / n)
    w = (r ** (l + 1) * np.exp(-r / n) * poly) * state.sqrt_r
    w /= np.sqrt(h * np.dot(w, w))

    energy = -0.5 / (n * n)
    if n == l + 1:
        lower = np.array(state.bands[l])
        lower[0] -= energy - 1e-5
        factor, info = dpbtrf(lower, lower=1)

        def solve(rhs):
            return dpbtrs(factor, rhs, lower=1)[0]
    else:
        lu, piv, info = dgbtrf(_full_banded_reference(ab, energy), 2, 2, overwrite_ab=1)

        def solve(rhs):
            return dgbtrs(lu, 2, 2, rhs, piv)[0]
    assert info == 0
    for step in range(12):
        v = solve(w)
        v /= np.sqrt(h * np.dot(v, v))
        updated = h * float(np.dot(v, _apply_bands_reference(ab, v)))
        change = abs(updated - energy)
        w, energy = v, updated
        if step > 0 and change <= 1e-10 * max(1.0, abs(energy)):
            break
    u = w / state.sqrt_r
    lead = np.argmax(np.abs(u) > 1e-8 * np.max(np.abs(u)))
    return energy, (-u if u[lead] < 0.0 else u)


def _count_calls(monkeypatch, *names, when=lambda: True):
    """Counts of the calls made through the named LAPACK entry points of
    oracle while ``when()`` holds."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(oracle, name), _name=name, **kwargs):
            if when():
                calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(oracle, name, counted)
    return calls


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of the banded-LU and banded Cholesky factorizations and
    solves made through oracle."""
    return _count_calls(monkeypatch, "dgbtrf", "dgbtrs", "dpbtrf", "dpbtrs")


@pytest.fixture
def resolvent_calls(monkeypatch):
    """Counts of the banded Cholesky factorizations and solves made through
    oracle outside OracleState construction: the resolvent's, not those of
    the 1S and 2P eigensolves."""
    building = []
    real_init = OracleState.__init__

    def init(self, grid):
        building.append(grid)
        try:
            real_init(self, grid)
        finally:
            building.pop()

    monkeypatch.setattr(OracleState, "__init__", init)
    return _count_calls(monkeypatch, "dpbtrf", "dpbtrs", when=lambda: not building)


@pytest.fixture
def fresh_grid(small_grid):
    """small_grid with no cached state, so its amplitude memo starts empty."""
    build_oracle.cache_clear()
    return small_grid


# 2000 points across the domain's r_min and r_max, with test ids
_DOMAIN_CORNERS = {f"r_min-{r_min}-r_max-{r_max}": RadialGrid(2000, float(r_max), float(r_min))
                   for r_min in ("1e-12", "1e-6", "1e-3", "1e-2") for r_max in (60, 700)}


class TestInverseIteration:
    @pytest.mark.parametrize(
        "grid", [RadialGrid(), RadialGrid(24000), *_DOMAIN_CORNERS.values()],
        ids=["default", "24000", *_DOMAIN_CORNERS])
    def test_one_factorization_per_state(self, lapack_calls, grid):
        # the nodeless 1S and 2P by banded Cholesky, 2S by pivoted LU
        state = build_oracle(grid)
        for n, l, factor, solve in [(1, 0, "dpbtrf", "dpbtrs"), (2, 0, "dgbtrf", "dgbtrs"),
                                    (2, 1, "dpbtrf", "dpbtrs")]:
            lapack_calls.update(dict.fromkeys(lapack_calls, 0))
            oracle._solve_on_state(state, n, l)
            assert lapack_calls[factor] == 1
            assert 2 <= lapack_calls[solve] <= 3
            assert sum(lapack_calls.values()) == 1 + lapack_calls[solve]

    def test_grid_where_the_shift_on_the_level_stalled_builds(self, lapack_calls):
        # factored at the 1S hydrogen level by pivoted LU, the quotient on
        # this grid kept changing by ~2e-10 per step and the 1S eigensolve
        # stalled; 1e-5 Hartree below the level it converges in 3 solves
        state = OracleState(RadialGrid(200000, r_max=80.0, r_min=1e-3))
        assert lapack_calls["dpbtrf"] == 2 and lapack_calls["dgbtrf"] == 1
        assert lapack_calls["dpbtrs"] <= 6 and lapack_calls["dgbtrs"] <= 3
        for bound in (state.s1, state.s2, state.s2p):
            n, _ = bound.label
            assert abs(bound.energy + 0.5 / (n * n)) < 1e-6

    def test_r_min_cap_matches_rayleigh_iteration(self, lapack_calls):
        # r_min = 1e-2, the domain's cap, moves E_1S by -2e-6 off its
        # hydrogen level; one factorization per state still converges, to
        # the states and energies of the iteration that factors at every step
        state = OracleState(RadialGrid(6000, r_min=1e-2))
        assert lapack_calls["dgbtrf"] == 1 and lapack_calls["dpbtrf"] == 2
        for bound in (state.s1, state.s2, state.s2p):
            n, l = bound.label
            u = bound.radial_values
            live = u[np.abs(u) > 1e-7 * np.max(np.abs(u))]
            assert int(np.sum(live[1:] * live[:-1] < 0.0)) == n - l - 1
            assert abs(bound.energy - _rayleigh_quotient_iteration(state, n, l)) <= 1e-10

    def test_mode_vector_matches_two_solve_banded_steps(self, small_grid, lapack_calls):
        state = build_oracle(small_grid)
        lapack_calls.update(dict.fromkeys(lapack_calls, 0))
        ab = _upper(state.bands[1])
        vals = eig_banded(ab, lower=False, eigvals_only=True, select="i", select_range=(0, 2))
        for val in vals:
            v = np.ones(small_grid.n_points)
            for _ in range(2):
                v = solve_banded((2, 2), _lu_bands(ab, val), v)
                v /= np.sqrt(state.h * np.dot(v, v))
            mode = oracle._mode_vector(state, oracle._full_banded(state.bands[1]), float(val))
            assert np.max(np.abs(mode - v)) <= 1e-14 * np.max(np.abs(v))
        assert lapack_calls == {"dgbtrf": 3, "dgbtrs": 6, "dpbtrf": 0, "dpbtrs": 0}

    @pytest.mark.parametrize(
        "grid", [RadialGrid(), RadialGrid(6000, r_min=1e-9), RadialGrid(6000, r_min=1e-2)],
        ids=["default", "6000-r_min-1e-9", "r_min-1e-2"])
    def test_bound_states_match_a_per_shift_layout_bit_for_bit(self, grid):
        # the band layouts, shifted per factorization, and the reused K v
        # change no bit of any state
        state = build_oracle(grid)
        for bound in (state.s1, state.s2, state.s2p):
            energy, u = _inverse_iteration_reference(state, *bound.label)
            assert bound.energy == energy
            assert np.array_equal(bound.radial_values, u)

    @pytest.mark.parametrize("alpha", [1, 3])
    @pytest.mark.parametrize("degree", range(5))
    def test_laguerre_recurrence_matches_scipy(self, degree, alpha):
        # L(-x) sums the coefficient magnitudes, so it bounds the roundoff
        x = np.concatenate((np.geomspace(1e-12, 400.0, 2000), np.linspace(0.0, 40.0, 4001)))
        reference = eval_genlaguerre(degree, alpha, x)
        scale = eval_genlaguerre(degree, alpha, -x)
        error = np.abs(oracle._laguerre(degree, alpha, x) - reference)
        assert np.all(error <= 8.0 * np.finfo(float).eps * scale)


def _stub_outputs(monkeypatch, name, alter):
    """Rebind oracle.<name> to the real routine with its outputs passed through alter."""
    real = getattr(oracle, name)
    monkeypatch.setattr(oracle, name, lambda *args, **kwargs: alter(*real(*args, **kwargs)))


class TestEigensolveGates:
    """Negative controls: every gate of the bound-state eigensolve and of the
    resolvent fires.  States are built with OracleState, or the cache is
    cleared after the test, so no broken state stays in build_oracle's cache."""

    def test_wrong_node_count(self, small_grid, monkeypatch):
        # the (2,0) state factored at the 3S level, -1/18, converges onto 3S
        real = oracle._shifted_lu

        def at_3s(layout, shift, what):
            return real(layout, -1.0 / 18.0 if what == "(n,l)=(2,0)" else shift, what)

        monkeypatch.setattr(oracle, "_shifted_lu", at_3s)
        with pytest.raises(ConvergenceError,
                           match=r"state \(n,l\)=\(2,0\) shows 2 nodes, expected 1"):
            OracleState(small_grid)

    def test_singular_lu(self, small_grid, monkeypatch):
        # 2S is the one state factored by pivoted LU
        _stub_outputs(monkeypatch, "dgbtrf", lambda lu, piv, info: (lu, piv, 1))
        with pytest.raises(ConvergenceError, match=r"singular banded LU .* for \(n,l\)=\(2,0\)"):
            OracleState(small_grid)

    def test_non_finite_solve(self, small_grid, monkeypatch):
        # 2S is the one state solved by dgbtrs
        _stub_outputs(monkeypatch, "dgbtrs", lambda v, info: (np.full_like(v, np.nan), info))
        with pytest.raises(ConvergenceError, match="non-finite banded solve"):
            OracleState(small_grid)

    def test_non_finite_cholesky_solve(self, small_grid, monkeypatch):
        _stub_outputs(monkeypatch, "dpbtrs", lambda v, info: (np.full_like(v, np.nan), info))
        with pytest.raises(ConvergenceError, match=r"non-finite solve for \(n,l\)=\(1,0\)"):
            OracleState(small_grid)

    def test_shift_above_the_1s_level_is_not_positive_definite(self, small_grid, lapack_calls,
                                                               monkeypatch):
        # 1e-3 Hartree above the level K_0 - shift has one negative
        # eigenvalue: the factorization fails and names the state, and no
        # LU takes over
        monkeypatch.setattr(oracle, "_BELOW_LEVEL", -1e-3)
        with pytest.raises(ConvergenceError,
                           match=r"not positive definite for \(n,l\)=\(1,0\)"):
            OracleState(small_grid)
        assert lapack_calls["dpbtrf"] == 1
        assert lapack_calls["dgbtrf"] == lapack_calls["dpbtrs"] == 0

    def test_shift_above_the_2p_level_is_not_positive_definite(self, small_grid, lapack_calls,
                                                               monkeypatch):
        state = build_oracle(small_grid)
        monkeypatch.setattr(oracle, "_BELOW_LEVEL", -1e-3)
        lapack_calls.update(dict.fromkeys(lapack_calls, 0))
        with pytest.raises(ConvergenceError,
                           match=r"not positive definite for \(n,l\)=\(2,1\)"):
            oracle._solve_on_state(state, 2, 1)
        assert lapack_calls["dpbtrf"] == 1
        assert lapack_calls["dgbtrf"] == lapack_calls["dpbtrs"] == 0

    def test_backward_error(self, small_grid, monkeypatch):
        monkeypatch.setattr(oracle, "_RESIDUAL_TARGET", 0.0)
        with pytest.raises(ConvergenceError, match=r"eigensolve backward error .* above 0\.0"):
            OracleState(small_grid)

    def test_stall(self, small_grid, lapack_calls, monkeypatch):
        # a threshold of 0.0 would still stop: on 2000 points the 1S
        # quotient repeats exactly
        monkeypatch.setattr(oracle, "_STALL", -1.0)
        with pytest.raises(ConvergenceError, match=r"eigensolve stalled .* for \(n,l\)=\(1,0\)"):
            OracleState(small_grid)
        assert lapack_calls["dpbtrf"] == 1 and lapack_calls["dpbtrs"] == 12

    def test_resolvent_backward_error(self, fresh_grid, monkeypatch):
        # a solve perturbed to zero leaves the residual -b, so every row
        # with b_i != 0 has backward error |b_i| / |b_i| = 1 exactly; the
        # state is built first, since its 1S and 2P solves are dpbtrs too,
        # and fresh, so no memoized solve answers the read
        build_oracle(fresh_grid)
        _stub_outputs(monkeypatch, "dpbtrs", lambda sol, info: (np.zeros_like(sol), info))
        try:
            with pytest.raises(ConvergenceError,
                               match=r"componentwise backward error 1\.00e\+00 above 1e-12"):
                diagonal_elements(fresh_grid, 0.001)
        finally:
            build_oracle.cache_clear()


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
        solution = green_solve(state, energy, driving)
        resid = (_apply_bands(state.bands[1], solution)
                 - energy * solution - driving)
        rel = np.sqrt(np.dot(resid, resid) / np.dot(driving, driving))
        assert rel < 1e-8

    def test_overflowing_solve_is_an_error(self, small_grid):
        # A driving term that overflows next to the 2P level must raise,
        # not come back as a non-finite solution.  The energy sits 1e-9
        # below the grid's 2P level: exactly on it, whether the factorization
        # or the solve fails first depends on the last bits of E_2P.
        state = build_oracle(small_grid)
        driving = np.full(small_grid.n_points, 1e300)
        with pytest.raises(ConvergenceError, match="non-finite"):
            green_solve(state, state.s2p.energy - 1e-9, driving)

    def test_bra_ket_symmetry(self, default_grid):
        # <2S r|G|r 1S> = <1S r|G|r 2S> for the symmetric resolvent
        state = build_oracle(default_grid)
        energy = state.s1.energy + 0.1
        fwd = state.integrate(
            state.w2 * state.r,
            green_solve(state, energy, state.r * state.w1))
        rev = state.integrate(
            state.w1 * state.r,
            green_solve(state, energy, state.r * state.w2))
        assert math.isclose(fwd, rev, rel_tol=1e-10)

    @pytest.mark.parametrize("offset", [0.001, 0.1875, 0.37, -0.15])
    def test_cholesky_agrees_with_pivoted_lu(self, default_grid, offset):
        state = build_oracle(default_grid)
        energy = state.s1.energy + offset
        driving = np.column_stack((state.r * state.w1, state.wd1))
        solution = green_solve(state, energy, driving)
        assert solution.shape == driving.shape
        for k in range(driving.shape[1]):
            lu = solve_banded((2, 2), _lu_bands(_upper(state.bands[1]), energy), driving[:, k])
            assert np.max(np.abs(solution[:, k] - lu)) <= 1e-10 * np.max(np.abs(lu))

    def test_stacked_call_with_one_overflowing_column_is_an_error(self, small_grid):
        # one bad column fails the whole call rather than coming back partial
        state = build_oracle(small_grid)
        driving = np.column_stack((state.r * state.w1, np.full(small_grid.n_points, 1e300)))
        with pytest.raises(ConvergenceError, match="non-finite"):
            green_solve(state, state.s2p.energy - 1e-9, driving)

    def test_zero_driving_column_passes_the_gate(self, small_grid):
        # rows with |K - E| |x| + |b| = 0 carry no residual, not a 0/0
        state = build_oracle(small_grid)
        driving = np.column_stack((state.r * state.w1, np.zeros(small_grid.n_points)))
        solution = green_solve(state, state.s1.energy + 0.1, driving)
        assert not np.any(solution[:, 1])

    def test_stacked_solve_makes_one_factorization_and_one_solve(self, small_grid,
                                                                  resolvent_calls):
        state = build_oracle(small_grid)
        green_solve(state, state.s1.energy + 0.1, state._driving)
        assert resolvent_calls == {"dpbtrf": 1, "dpbtrs": 1}

    @pytest.mark.parametrize("case", ["solve-0.001", "solve-0.1875", "solve-0.37", "perturbed",
                                      "zero-column", "overflow", "one-dimensional"])
    def test_one_pass_gate_equals_two_passes_bit_for_bit(self, default_grid, case):
        state = build_oracle(default_grid)
        offset = float(case.split("-")[1]) if case.startswith("solve-") else 0.1
        energy = state.s1.energy + offset
        shifted = state.bands[1].copy()
        shifted[0] -= energy
        b = np.array(state._driving.T)
        if case == "zero-column":
            b[1] = 0.0
        x = green_solve(state, energy, b.T).T
        if case == "perturbed":
            x = x * (1.0 + 1e-9 * np.cos(np.arange(x.shape[-1])))
        elif case == "overflow":
            x[1] = b[1] = 1e300
        elif case == "one-dimensional":
            x, b = x[0], b[0]
        gate = oracle._componentwise_backward_error(shifted, x, b)
        assert np.array_equal(gate, _two_pass_backward_error(_upper(shifted), x, b),
                              equal_nan=True)
        if case == "overflow":
            assert gate[0] <= oracle._RESOLVENT_TARGET and np.isnan(gate[1])

    def test_energy_inside_the_l1_spectrum_is_rejected(self, default_grid):
        # Negative control for the Cholesky route: between 2P and 3P the
        # shifted operator is indefinite, so there is no solution to return.
        state = build_oracle(default_grid)
        with pytest.raises(ConvergenceError, match="not positive definite"):
            green_solve(state, state.s2p.energy + 0.01, state.r * state.w1)

    def test_backward_error_gate_sees_a_perturbed_solution(self, default_grid):
        # Negative control for the componentwise gate: the exact solve sits
        # at roundoff, a 1e-9 relative perturbation of it does not.
        from gauge_workbench.oracle import _RESOLVENT_TARGET, _componentwise_backward_error

        state = build_oracle(default_grid)
        energy = state.s1.energy + 0.1
        driving = state.r * state.w1
        shifted = state.bands[1].copy()
        shifted[0] -= energy
        solution = green_solve(state, energy, driving)
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
        # one single-column solve per gauge, outside the shared memoized path
        state = build_oracle(default_grid)
        energy = state.s1.energy + x
        q_ref = state.integrate(
            state.w2 * state.r, green_solve(state, energy, state.r * state.w1)) / 3.0
        p_ref = state.integrate(state.wd2, green_solve(state, energy, state.wd1)) / 3.0
        q, p = gauge_pair_oracle(default_grid, x)
        assert math.isclose(q, q_ref, rel_tol=1e-12)
        assert math.isclose(p, p_ref, rel_tol=1e-12)

    @pytest.mark.parametrize("grid", [RadialGrid(), RadialGrid(24000, r_min=1e-11)],
                             ids=["default", "24000-r_min-1e-11"])
    def test_gauge_pair_matches_upper_storage_cholesky(self, grid):
        state = build_oracle(grid)
        driving = np.column_stack((state.r * state.w1, state.wd1))
        for x in (0.001, 0.02, 0.05, 0.1, 0.15, 0.1875, 0.25, 0.3, 0.35, 0.37):
            shifted = state.bands[1].copy()
            shifted[0] -= state.s1.energy + x
            psi = solveh_banded(_upper(shifted), driving)
            q, p = gauge_pair_oracle(grid, x)
            assert math.isclose(q, state.integrate(state.w2 * state.r, psi[:, 0]) / 3.0,
                                rel_tol=1e-12)
            assert math.isclose(p, state.integrate(state.wd2, psi[:, 1]) / 3.0, rel_tol=1e-12)

    @pytest.mark.parametrize("x", [0.3749, 0.37499])
    def test_close_to_the_2p_pole_is_computed(self, default_grid, x):
        # The gap to 2P is 1e-4 / 1e-5 Hartree here.  The solves are
        # backward stable; the error left is the grid's level gap, which
        # scatters by ~2e-11 from one point count to the next, over the
        # distance to the pole, so it grows tenfold from 0.3749 to 0.37499.
        # Bounds are three times the worst relative error over 3239 to 3259
        # points: Q 1.89e-7 / 1.89e-6, P 6.70e-8 / 6.70e-7.
        q_bound, p_bound = {0.3749: (5.7e-7, 2.1e-7), 0.37499: (5.7e-6, 2.1e-6)}[x]
        assert _relative_error(q_oracle(default_grid, x), q_length(x)) < q_bound
        assert _relative_error(p_oracle(default_grid, x), p_velocity(x)) < p_bound

    def test_near_resonance_is_flagged(self, default_grid):
        x_close = 0.375 - 5e-7
        with pytest.raises(NearResonanceError):
            q_oracle(default_grid, x_close)
        with pytest.raises(NearResonanceError):
            p_oracle(default_grid, x_close)

    def test_guard_edge_is_flagged_for_every_amplitude(self, default_grid):
        # x = 0.3749995 leaves the grid's 2P level 5e-7 above E_1S + x,
        # plainly inside the 1e-6 guard: the grid's level shifts are ~1e-11
        for amplitude in (q_oracle, p_oracle, gauge_pair_oracle, diagonal_elements):
            with pytest.raises(NearResonanceError):
                amplitude(default_grid, 0.3749995)

    def test_window_is_enforced(self, default_grid):
        with pytest.raises(DomainError):
            q_oracle(default_grid, 0.4)


class TestAmplitudeMemo:
    def test_q_then_p_then_pair_make_one_solve(self, fresh_grid, resolvent_calls):
        q = q_oracle(fresh_grid, 0.1)
        p = p_oracle(fresh_grid, 0.1)
        assert gauge_pair_oracle(fresh_grid, 0.1) == (q, p)
        assert resolvent_calls["dpbtrf"] == 1

    def test_pair_then_1s_read_make_one_solve(self, fresh_grid, resolvent_calls):
        # the 2S and 1S elements at one x come from one solve; -x is its own
        gauge_pair_oracle(fresh_grid, 0.1)
        diagonal_elements(fresh_grid, 0.1)
        assert resolvent_calls["dpbtrf"] == 1
        diagonal_elements(fresh_grid, -0.1)
        assert resolvent_calls["dpbtrf"] == 2
        assert list(build_oracle(fresh_grid)._amplitudes) == [0.1, -0.1]

    def test_cold_oracle_report_solve_count(self, lapack_calls):
        # 1S and 2P by banded Cholesky and 2S by pivoted LU, then one
        # resolvent factorization per signed x: the 20 master points and the
        # 4 ac-Stark points at +-x, all 28 held in the memo at once
        build_oracle.cache_clear()
        identities.build_report("oracle")
        assert lapack_calls["dpbtrf"] == 30 and lapack_calls["dgbtrf"] == 1
        memo = build_oracle(RadialGrid())._amplitudes
        signed = [s for x in identities.AC_STARK_POINTS for s in (x, -x)]
        assert list(memo) == list(identities.MASTER_GRID) + signed
        for x in identities.MASTER_GRID:
            gauge_pair_oracle(RadialGrid(), x)
        assert lapack_calls["dpbtrf"] == 30

    def test_cache_clear_starts_the_count_over(self, fresh_grid, resolvent_calls):
        q_oracle(fresh_grid, 0.1)
        p_oracle(fresh_grid, 0.1)
        assert resolvent_calls["dpbtrf"] == 1
        build_oracle.cache_clear()
        p_oracle(fresh_grid, 0.1)
        q_oracle(fresh_grid, 0.1)
        assert resolvent_calls["dpbtrf"] == 2

    def test_memo_is_bounded(self, fresh_grid, resolvent_calls):
        size = oracle._AMPLITUDE_MEMO_SIZE
        xs = [0.001 + 0.005 * k for k in range(size + 8)]
        state = build_oracle(fresh_grid)
        for x in xs:
            gauge_pair_oracle(fresh_grid, x)
            assert len(state._amplitudes) <= size
        assert resolvent_calls["dpbtrf"] == len(xs)
        # the newest pairs are still held, the oldest were dropped
        for x in xs[-size:]:
            q_oracle(fresh_grid, x)
        assert resolvent_calls["dpbtrf"] == len(xs)
        q_oracle(fresh_grid, xs[0])
        assert resolvent_calls["dpbtrf"] == len(xs) + 1

    @pytest.mark.parametrize("x,error", [(0.4, DomainError), (0.3749995, NearResonanceError)],
                             ids=["out-of-window", "guard-edge"])
    def test_errors_repeat_and_are_never_stored(self, fresh_grid, resolvent_calls, x, error):
        for _ in range(2):
            for amplitude in (q_oracle, p_oracle, gauge_pair_oracle, diagonal_elements):
                with pytest.raises(error):
                    amplitude(fresh_grid, x)
        assert not build_oracle(fresh_grid)._amplitudes
        assert resolvent_calls["dpbtrf"] == 0

    @pytest.mark.parametrize("r_min,x", [(1e-2, 0.3749), (1e-3, 0.3749995)],
                             ids=["r_min-1e-2", "r_min-1e-3"])
    def test_energy_above_the_2p_level_is_near_resonance(self, resolvent_calls, monkeypatch,
                                                         r_min, x):
        # A 1S level lifted by 2 r_min^2 (2e-4 at 1e-2, 2e-6 at 1e-3; the
        # shift of a closure on the power law alone) lets x < 3/8 put
        # E_1S + x above the grid's 2P level, where K - E is indefinite: the
        # guard must reject it before any factorization, not only within
        # 1e-6 of the level.  The cusp-corrected closure leaves E_1S
        # 2 r_min^3 below -1/2 on every grid of the domain, so a stub lifts it.
        real = oracle._solve_on_state

        def lifted(state, n, l):
            bound = real(state, n, l)
            if (n, l) != (1, 0):
                return bound
            return dataclasses.replace(bound, energy=bound.energy + 2.0 * r_min * r_min)

        monkeypatch.setattr(oracle, "_solve_on_state", lifted)
        grid = RadialGrid(6000, r_min=r_min)
        state = OracleState(grid)
        monkeypatch.setattr(oracle, "build_oracle", lambda g: state)
        assert state.s1.energy + x - state.s2p.energy > oracle._NEAR_RESONANCE_GAP
        for _ in range(2):
            for amplitude in (q_oracle, p_oracle, gauge_pair_oracle, pseudostate_q):
                with pytest.raises(NearResonanceError):
                    amplitude(grid, x)
        assert not state._amplitudes
        assert resolvent_calls["dpbtrf"] == 0
        # negative control: just below the level the pair is computed
        q, p = gauge_pair_oracle(grid, state.s2p.energy - state.s1.energy - 1e-5)
        assert math.isfinite(q) and math.isfinite(p)
        assert resolvent_calls["dpbtrf"] == 1

    def test_failed_velocity_column_fails_q_and_is_not_stored(self, fresh_grid, monkeypatch):
        # both columns are solved together, so a bad velocity column fails
        # the length-gauge amplitude as well
        state = build_oracle(fresh_grid)
        bad = state._driving.copy(order="F")
        bad[100, 1] = np.nan
        monkeypatch.setattr(state, "_driving", bad)
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="non-finite"):
                q_oracle(fresh_grid, 0.1)
        assert not state._amplitudes
        monkeypatch.undo()
        assert math.isclose(q_oracle(fresh_grid, 0.1), q_length(0.1), rel_tol=1e-5)


class TestOnePhotonRatio:
    def test_commutator_lock(self, default_grid):
        # -m_vel / m_len must equal the grid's own level gap
        state = build_oracle(default_grid)
        m_len, m_vel, gap = one_photon_elements(default_grid)
        assert gap == state.s2p.energy - state.s1.energy
        assert abs(-m_vel / m_len - gap) < 1e-8

    def test_known_frequency_value(self, default_grid):
        m_len, m_vel, _ = one_photon_elements(default_grid)
        assert math.isclose(-m_vel / (0.2 * m_len), 1.875, rel_tol=1e-8)

    def test_oracle_report_residuals_are_pinned(self, default_grid):
        # bit for bit: the report forms -m_vel / (omega m_len) - gap / omega
        # from the grid state's own integrals
        state = build_oracle(default_grid)
        m_len = state.integrate(state.w2p, state.r * state.w1)
        m_vel = state.integrate(state.w2p, state.wd1)
        gap = state.s2p.energy - state.s1.energy
        expected = tuple(-m_vel / (omega * m_len) - gap / omega
                         for omega in identities.ONE_PHOTON_OMEGAS)
        check = identities.build_report("oracle", grid=default_grid).checks[5]
        assert check.name == "one_photon_ratio"
        assert check.residuals == expected

    def test_flipped_u_over_r_fails_at_every_frequency(self, default_grid):
        # negative control: the velocity element from u' + u/r in place of
        # u' - u/r; in the w representation the flip adds 2 w_1S / r
        state = build_oracle(default_grid)
        m_len, _, gap = one_photon_elements(default_grid)
        flipped = state.integrate(state.w2p, state.wd1 + 2.0 * state.w1 / state.r)
        check = identities.check_one_photon((m_len, flipped, gap), TOL_ONE_PHOTON)
        assert not check.passed
        assert min(abs(r) for r in check.residuals) > 1e3 * TOL_ONE_PHOTON


class TestAcStark:
    @pytest.mark.parametrize("x", [0.001, 0.05, 0.10, 0.15])
    def test_sides_agree(self, default_grid, x):
        check = identities.check_ac_stark(functools.partial(diagonal_elements, default_grid),
                                          norm_1s(default_grid), TOL_ORACLE)
        assert abs(check.residuals[check.x_values.index(x)]) < 1e-6

    def test_static_polarizability_limit(self, default_grid):
        # x -> 0: each sign contributes the radial static response 27/4,
        # which is 3/2 of the ground-state dipole polarizability 9/2
        (up, _), (down, _) = diagonal_elements(default_grid, 1e-3), diagonal_elements(
            default_grid, -1e-3)
        radial = (up + down) / 2.0
        assert math.isclose((2.0 / 3.0) * radial, 4.5, rel_tol=1e-3)

    def test_window_is_enforced(self, default_grid):
        # 0 < |x| < 3/8 for the signed read
        for x in (0.5, -0.5, 0.375, -0.375, 0.0, math.nan):
            with pytest.raises(DomainError):
                diagonal_elements(default_grid, x)

    def test_negative_x_reads_e_1s_minus_x(self, default_grid):
        # the 2S amplitudes keep the window (0, 3/8); the 1S read is signed
        with pytest.raises(DomainError):
            gauge_pair_oracle(default_grid, -0.1)
        state = build_oracle(default_grid)
        driving = state._driving
        psi = green_solve(state, state.s1.energy - 0.1, driving)
        assert diagonal_elements(default_grid, -0.1) == (
            state.integrate(driving[:, 0], psi[:, 0]), state.integrate(driving[:, 1], psi[:, 1]))

    def test_flipped_u_over_r_fails_at_every_point(self, default_grid, monkeypatch):
        # negative control: the velocity driving term from u' + u/r in place
        # of u' - u/r, through the grid resolvent; in the w representation
        # the flip adds 2 w_1S / r.  A state of its own keeps the cache clean.
        state = OracleState(default_grid)
        monkeypatch.setattr(oracle, "build_oracle", lambda grid: state)
        read = functools.partial(diagonal_elements, default_grid)
        assert identities.check_ac_stark(read, norm_1s(default_grid), TOL_ORACLE).passed
        state._amplitudes.clear()
        state._driving = np.asfortranarray(np.column_stack(
            (state.r * state.w1, state.wd1 + 2.0 * state.w1 / state.r)))
        check = identities.check_ac_stark(read, norm_1s(default_grid), TOL_ORACLE)
        assert not check.passed
        assert min(abs(r) for r in check.residuals) > 1e3 * TOL_ORACLE


def _relative_error(computed, exact):
    return abs(computed / exact - 1.0)


class TestDefaultGridAccuracy:
    """What the regular-origin closure buys on RadialGrid().  Each bound is
    three times the worst value over the grids of 4340 to 4360 points from
    r_min = 1e-6, a former default, whose scatter is the roundoff floor
    ~eps/h^2 in the energies.  The cusp-corrected closure keeps 3249 points
    from 1e-4, at the same spacing, under every bound: over 3239 to 3259
    points the worst value reads 0.2 to 0.4 of its bound.  With the
    u(r_min) = 0 closure at an older default (6000 points from 1e-9) every
    column but the two roundoff-level checks reads 13 to 29 times its bound."""

    def test_energy_and_matrix_elements(self, default_grid):
        state = build_oracle(default_grid)
        assert abs(state.s1.energy + 0.5) < 8e-11
        assert _relative_error(q_oracle(default_grid, 3.0 / 16.0), q_length(3.0 / 16.0)) < 7e-10
        assert _relative_error(q_oracle(default_grid, 0.37), q_length(0.37)) < 1.5e-8
        assert _relative_error(p_oracle(default_grid, 0.37), p_velocity(0.37)) < 6e-9
        assert _relative_error(r2_overlap(default_grid), R2_EXACT) < 4e-10
        assert _relative_error(q_oracle(default_grid, 0.3749), q_length(0.3749)) < 8e-7

    def test_grid_checks(self, default_grid):
        source = functools.partial(gauge_pair_oracle, default_grid)
        checks = (
            (identities.check_master_identity(source, r2_overlap(default_grid), TOL_ORACLE), 3e-9),
            (identities.check_ac_stark(functools.partial(diagonal_elements, default_grid),
                                       norm_1s(default_grid), TOL_ORACLE), 4e-10),
            (identities.check_one_photon(one_photon_elements(default_grid), TOL_ONE_PHOTON),
             9e-11),
        )
        for check, bound in checks:
            assert check.max_residual < bound, check.name

    def test_r_min_error_is_cubic(self):
        # E_1S + 1/2 = -2 r_min^3 with the cusp-corrected closure (-2e-6 and
        # -5.4e-8 here, a ratio of (10/3)^3 = 37)
        lifts = _closure_lifts()
        for r_min, lift in lifts.items():
            assert math.isclose(lift, -2.0 * r_min ** 3, rel_tol=0.02)
        assert 35.0 < lifts[1e-2] / lifts[3e-3] < 39.0

    def test_power_law_closure_error_is_quadratic(self, monkeypatch):
        # negative control: without the first-order factor the ghosts lie on
        # r^(l + 1/2) alone and E_1S + 1/2 = +2 r_min^2, less an r_min^3
        # term (0.968x and 0.989x here)
        monkeypatch.setattr(oracle, "_hamiltonian_bands", _power_law_bands)
        for r_min, lift in _closure_lifts().items():
            assert math.isclose(lift, 2.0 * r_min * r_min, rel_tol=0.05)

    def test_default_keeps_the_former_spacing(self, default_grid):
        # 3249 points from 1e-4 keep the h of 4350 points from 1e-6
        former = (math.log(80.0) - math.log(1e-6)) / 4349
        assert math.isclose(build_oracle(default_grid).h, former, rel_tol=2e-4)


def _closure_lifts():
    """E_1S + 1/2 on 6000 points from r_min = 1e-2 and 3e-3, where the
    r_min term dominates the stencil and roundoff errors."""
    return {r_min: OracleState(RadialGrid(6000, r_min=r_min)).s1.energy + 0.5
            for r_min in (1e-2, 3e-3)}


def _power_law_bands(l, h, r, _bands=oracle._hamiltonian_bands):
    """K_l with its ghost points on the power law D w ~ r^(l + 1/2) alone,
    k steps below row i at (D w)_i e^(-k (l + 1/2) h)."""
    ab = _bands(l, h, r)
    weights, denominator = oracle._STENCIL
    scale = denominator * h * h
    for i in range(oracle._KD):
        ghost = sum(weights[k] * math.exp(-k * (l + 0.5) * h)
                    for k in range(i + 1, oracle._KD + 1))
        ab[0, i] = ((weights[0] + ghost) / scale + 0.5 * l * (l + 1) + 0.125 - r[i]) / r[i] ** 2
    return ab


def _pseudostate_reference(grid, xs, count=30):
    """Partial sums from the full eig_banded eigenvector matrix, O(n^3).

    Unit-Euclidean columns, so each bra * ket product carries one net
    factor of h; one eigensolve serves every x."""
    state = build_oracle(grid)
    vals, vecs = eig_banded(_upper(state.bands[1]), lower=False, select="i",
                            select_range=(0, count - 1))
    bra = (state.w2 * state.r) @ vecs
    ket = (state.r * state.w1) @ vecs
    return [np.cumsum(state.h * bra * ket / (vals - state.s1.energy - x) / 3.0)
            for x in xs]


def _eig_banded_partial_sums(grid, x, count):
    """pseudostate_q with its eigenvalues from scipy's eig_banded on the
    state's lower bands, the call whose LAPACK routine it makes directly."""
    state = build_oracle(grid)
    vals = eig_banded(state.bands[1], lower=True, eigvals_only=True,
                      select="i", select_range=(0, count - 1))
    layout = oracle._full_banded(state.bands[1])
    vecs = np.column_stack([oracle._mode_vector(state, layout, float(val)) for val in vals])
    bra = state.h * ((state.w2 * state.r) @ vecs)
    ket = state.h * ((state.r * state.w1) @ vecs)
    return np.cumsum(bra * ket / (vals - (state.s1.energy + x)) / 3.0)


def _stub_eigensolver(monkeypatch, **override):
    """Replace oracle._flapack by one whose dsbevx returns its real
    (w, z, m, ifail, info) with the named fields overridden."""
    real = oracle._flapack
    fields = ("w", "z", "m", "ifail", "info")

    def dsbevx(*args, **kwargs):
        result = dict(zip(fields, real.dsbevx(*args, **kwargs)))
        result.update(override)
        return tuple(result[field] for field in fields)

    monkeypatch.setattr(oracle, "_flapack", types.SimpleNamespace(dsbevx=dsbevx,
                                                                  dlamch=real.dlamch))


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
            assert np.array_equal(partial, _eig_banded_partial_sums(small_grid, x, 30))

    def test_mode_between_two_eigenvalues_is_rejected(self, small_grid):
        # Negative control for the per-mode residual gate: a shift midway
        # between two eigenvalues converges to a mixture whose backward
        # error is of the order of the gap.
        from gauge_workbench.oracle import _mode_vector

        state = build_oracle(small_grid)
        vals = eig_banded(_upper(state.bands[1]), lower=False, eigvals_only=True,
                          select="i", select_range=(0, 1))
        layout = oracle._full_banded(state.bands[1])
        _mode_vector(state, layout, float(vals[0]))
        with pytest.raises(ConvergenceError, match="backward error"):
            _mode_vector(state, layout, float(0.5 * (vals[0] + vals[1])))

    def test_count_validation(self, small_grid):
        with pytest.raises(DomainError):
            pseudostate_q(small_grid, 0.1, count=0)

    def test_count_above_grid_size_is_a_domain_error(self, small_grid):
        with pytest.raises(DomainError):
            pseudostate_q(small_grid, 0.1, count=small_grid.n_points + 1)

    def test_count_above_the_mode_cap_starts_no_factorization(self, fresh_grid, lapack_calls):
        with pytest.raises(DomainError, match="count must lie in"):
            pseudostate_q(fresh_grid, 0.1, count=oracle._MAX_MODES + 1)
        assert not any(lapack_calls.values())

    def test_mode_cap_is_accepted(self, small_grid):
        partial = pseudostate_q(small_grid, 0.1, count=oracle._MAX_MODES)
        assert partial.shape == (oracle._MAX_MODES,)
        assert np.all(np.isfinite(partial))

    @pytest.mark.parametrize("override, message", [({"info": 1}, "info = 1"),
                                                   ({"m": 4}, "found 4 of the 5")],
                             ids=["failed", "short"])
    def test_failed_or_short_eigensolve_is_a_convergence_error(self, small_grid, monkeypatch,
                                                               override, message):
        _stub_eigensolver(monkeypatch, **override)
        with pytest.raises(ConvergenceError, match=message):
            pseudostate_q(small_grid, 0.1, count=5)

    @pytest.mark.parametrize("count", [2.5, 3.0, True])
    def test_non_integer_count_is_a_domain_error(self, small_grid, count):
        with pytest.raises(DomainError, match="must be an integer"):
            pseudostate_q(small_grid, 0.1, count=count)

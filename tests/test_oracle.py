"""Grid oracle tests: eigensolves, resolvent solves, and self-consistency.

The default grid is built once per session (construction is cached), so
these tests mostly cost one tridiagonal solve each.
"""

import dataclasses
import itertools
import math
import re
import types

import pytest

# needs the oracle extra; skipped at collection without it
pytest.importorskip("numpy")
pytest.importorskip("scipy")

import numpy as np
from scipy.linalg import lapack, solve_banded, solveh_banded
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.special import eval_genlaguerre

from gauge_workbench import identities, oracle
from gauge_workbench.closedform import p_velocity, q_length
from gauge_workbench.errors import (
    ConvergenceError,
    DomainError,
    NearResonanceError,
)
from gauge_workbench.identities import TOL_ONE_PHOTON, TOL_ORACLE, grid_source
from gauge_workbench.oracle import (
    OracleState,
    RadialGrid,
    build_oracle,
    diagonal_elements,
    gauge_pair_oracle,
    green_solve,
    one_photon_elements,
    p_oracle,
    pseudostate_q,
    q_oracle,
    r2_overlap,
)

R2_EXACT = -512.0 * math.sqrt(2.0) / 243.0


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
            # past the domain's edges: r^2 overflows at 1e300, and 1e-200
            # lies far under the r_min floor; the 1S tail underflows past
            # r ~ 708; the closure
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

    @pytest.mark.parametrize("n_points", [6000.5, 6000.0, True, "6000", None, np.array(3249)])
    def test_rejects_non_integer_point_counts(self, n_points):
        with pytest.raises(DomainError, match="must be an integer"):
            RadialGrid(n_points=n_points)

    @pytest.mark.parametrize("field", ["r_max", "r_min"])
    @pytest.mark.parametrize("value", ["80", None, 1e-4 + 0j, True],
                             ids=["str", "None", "complex", "bool"])
    def test_rejects_non_real_radii(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} = .* must be a real number$"):
            RadialGrid(**{field: value})

    def test_accepts_integer_and_numpy_radii(self):
        assert RadialGrid(r_max=80) == RadialGrid(r_max=np.float64(80.0)) == RadialGrid()
        assert RadialGrid(r_min=np.float32(1e-3)).r_min == np.float32(1e-3)

    def test_accepts_numpy_integer_point_counts(self):
        assert RadialGrid(n_points=np.int64(3249)) == RadialGrid()

    def test_refined_doubles_points(self):
        grid = RadialGrid()
        assert grid.refined().n_points == 6498

    @pytest.mark.parametrize("r_max", [60.0, 80.0, 700.0])
    def test_oracle_report_passes_at_the_point_ceiling(self, r_max):
        # 200000 points, where roundoff has grown past the stencil error, at
        # each r_max corner of the domain: master_identity reads 2.8e-7 /
        # 2.8e-7 / 2.1e-7 and one_photon_ratio 7.9e-9 / 9.0e-9 / 1.8e-9 at
        # r_max = 60 / 80 / 700, under 1e-6 and 1e-8
        try:
            assert identities.build_report("oracle", grid=RadialGrid(200000, r_max)).overall_pass
        finally:
            build_oracle.cache_clear()


def _states_by_label(state):
    """The oracle's bound states keyed by (n, l): 1S, 2S and 2P."""
    return {(1, 0): state.s1, (2, 0): state.s2, (2, 1): state.s2p}


def _bound_state(grid, n, l):
    """The (n, l) state of the grid's oracle: 1S, 2S or 2P."""
    return _states_by_label(build_oracle(grid))[n, l]


class TestBoundStates:
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (2, 1)])
    def test_energies_and_norms(self, default_grid, n, l):
        state = build_oracle(default_grid)
        bound = _bound_state(default_grid, n, l)
        w = state.sqrt_r * bound.radial_values
        assert abs(bound.energy + 0.5 / (n * n)) < 1e-8
        assert abs(state.integrate(w, w) - 1.0) < 1e-10

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


def _assert_shared_arrays_intact(state):
    """The state's Numerov rows and driving terms hold what they were
    built with."""
    for l in (0, 1):
        assert np.array_equal(state._numerov[l], oracle._channel_rows(l, state.h, state.r))
    assert np.array_equal(state._driving, np.column_stack((state.r * state.w1, state.wd1)))
    for energy in (0.0, 1.0):
        m, c, diagonal = oracle._numerov_rows(state._numerov[1], energy)
        reference = _numerov_by_hand(state, energy)
        assert m == reference[0]
        assert np.array_equal(c, reference[1]) and np.array_equal(diagonal, reference[2])
    h2 = state.h * state.h
    assert np.array_equal(state._source, 2.0 * h2 * state.r)
    assert np.array_equal(state._back, h2 / 6.0 * state.r)
    assert np.array_equal(state._off_diagonal, np.full(state.r.size - 1, -1.0))


def _numerov_by_hand(state, energy):
    """(m, c, diagonal) of green_solve's Numerov system at ``energy``,
    written out from F = 9/4 - 2r - 2E r^2: c = 1 - h^2 F / 12 and
    2 + 5 h^2 F / 6, each formed as a0 + E a1, and the diagonal
    (2 + 5 h^2 F / 6) / c, on the m rows before the first point with
    c <= 1/2."""
    h2, r = state.h * state.h, state.r
    f0 = 2.25 - 2.0 * r
    c = (1.0 - h2 / 12.0 * f0) + energy * (h2 / 6.0 * (r * r))
    numerator = (2.0 + 5.0 * h2 / 6.0 * f0) + energy * (-5.0 * h2 / 3.0 * (r * r))
    cut = np.flatnonzero(c <= 0.5)
    m = int(cut[0]) if cut.size else r.size
    return m, c[:m], numerator[:m] / c[:m]


class TestBandStorage:
    """The Numerov rows every solve reads, states, modes and resolvent
    alike, and the factorizations that read them."""

    def test_nothing_factors_the_shared_operator_in_place(self, small_grid):
        state = build_oracle(small_grid)
        green_solve(state, state.s1.energy + 0.1, state._driving)
        for n, l in [(1, 0), (2, 0), (2, 1)]:
            oracle._solve_on_state(state, n, l)
        pseudostate_q(small_grid, 0.1, count=5)
        assert build_oracle(small_grid) is state
        _assert_shared_arrays_intact(state)

    @pytest.mark.parametrize("case", ["cold-build", "resolvent", "not-positive-definite"])
    def test_factorizations_run_in_place_on_private_copies(self, fresh_grid, lapack_calls,
                                                           case):
        # every dgttrf factors a fresh diagonal in place, without an f2py
        # copy, one per state; a resolvent solve makes no such
        # factorization, only one dptsv; and none of them changes the
        # state's Numerov rows or driving terms
        state = build_oracle(fresh_grid)
        if case != "cold-build":
            lapack_calls.factored.clear()
            lapack_calls.update(dict.fromkeys(lapack_calls, 0))
        if case == "resolvent":
            green_solve(state, state.s1.energy + 0.1, state._driving)
        elif case == "not-positive-definite":
            with pytest.raises(ConvergenceError, match="not positive definite"):
                green_solve(state, state.s2p.energy + 0.01, state._driving)
        expected = 3 if case == "cold-build" else 0
        assert lapack_calls.factored == [("dgttrf", True, True)] * expected
        assert lapack_calls["dgttrs"] == (6 if case == "cold-build" else 0)
        assert lapack_calls["dptsv"] == (0 if case == "cold-build" else 1)
        _assert_shared_arrays_intact(state)


def _lapack_results(routines, state):
    """Every output of the three bound LAPACK routines on one system of
    the state each: the indefinite l = 0 Numerov system at the 2S level,
    factored by pivoted tridiagonal LU and solved for both driving
    columns, and the positive definite l = 1 system at E_1S + 0.1,
    factored and solved for both driving columns by dptsv."""
    m, c, diagonal = oracle._numerov_rows(state._numerov[0], -0.125)
    off = np.full(m - 1, -1.0)
    dl, d, du, du2, ipiv, info = routines.dgttrf(off, diagonal, off)
    sol, sinfo = routines.dgttrs(dl, d, du, du2, ipiv, state._driving[:m])
    m, c, diagonal = _numerov_by_hand(state, state.s1.energy + 0.1)
    pd, pe, psi, tinfo = routines.dptsv(diagonal, np.full(m - 1, -1.0),
                                        state._source[:, None] * state._driving / c[:, None])
    return dl, d, du, du2, ipiv, sol, pd, pe, psi, (info, sinfo, tinfo)


class TestLapackBinding:
    """The oracle loads scipy's private _flapack extension from its file;
    these pin what it binds to the public scipy.linalg.lapack routines."""

    def test_bound_routines_match_scipy_linalg_lapack_bit_for_bit(self, small_grid):
        state = build_oracle(small_grid)
        ours = _lapack_results(oracle, state)
        public = _lapack_results(lapack, state)
        assert ours[-1] == public[-1] == (0, 0, 0)
        for mine, theirs in zip(ours[:-1], public[:-1]):
            assert np.array_equal(mine, theirs)

    def test_missing_extension_is_an_import_error_naming_the_directory(self, tmp_path):
        # negative control: no fallback to another binding
        with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
            oracle._load_lapack(str(tmp_path))


def _five_point_driving_term(state, u):
    """u' - u/r in the w representation: the five-point first derivative
    (u[i-2] - 8 u[i-1] + 8 u[i+1] - u[i+2]) / (12 h) of u padded with two
    zeros at each end, then divided by r."""
    padded = np.concatenate((np.zeros(2), u, np.zeros(2)))
    du = (padded[:-4] - 8.0 * padded[1:-3] + 8.0 * padded[3:-1] - padded[4:]) / (12.0 * state.h)
    return state.sqrt_r * (du / state.r - u / state.r)


class TestStencilTables:
    """The velocity-gauge driving term's derivative is the five-point
    difference, applied with u = 0 past both ends of the grid."""

    @pytest.mark.parametrize("grid", [RadialGrid(), RadialGrid(2000)], ids=["default", "2000"])
    def test_driving_terms_equal_the_zero_padded_five_point_formula(self, grid):
        state = build_oracle(grid)
        assert np.array_equal(state.wd1, _five_point_driving_term(state, state.s1.radial_values))
        assert np.array_equal(state.wd2, _five_point_driving_term(state, state.s2.radial_values))


def _seed(state, n, l):
    """The start of the (n, l) eigensolve: r^(l+1) e^(-r/n) times the
    Laguerre factor L_(n-l-1)^(2l+1)(2r/n), in the w representation."""
    r = state.r
    poly = eval_genlaguerre(n - l - 1, 2 * l + 1, 2.0 * r / n)
    return r ** (l + 1) * np.exp(-r / n) * poly * state.sqrt_r


def _rayleigh_quotient_iteration(state, n, l):
    """Energy of (n, l) by Rayleigh-quotient iteration: channel l's
    Numerov system factored anew at every step, at the latest quotient, by
    a pivoted tridiagonal LU (solve_banded), the quotient
    E + v.w / v.v of the solve v = (H - E)^-1 w, and a stop at a change
    below 1e-13 or after 12 steps: the eigensolve the factor-once inverse
    iteration replaced."""
    h, r = state.h, state.r
    w = _seed(state, n, l)
    energy = -0.5 / (n * n)
    for step in range(12):
        m, c, diagonal = oracle._numerov_rows(state._numerov[l], energy)
        bands = np.vstack((np.full(m, -1.0), diagonal, np.full(m, -1.0)))
        psi = solve_banded((1, 1), bands, 2.0 * h * h * r[:m] * w[:m] / c)
        v = np.zeros_like(w)
        v[:m] = r[:m] * (psi - h * h / 6.0 * r[:m] * w[:m]) / c
        updated = energy + np.dot(v, w) / np.dot(v, v)
        done = step > 0 and abs(updated - energy) < 1e-13
        w, energy = v / np.sqrt(h * np.dot(v, v)), updated
        if done:
            break
    return energy


def _apply_tridiagonal_reference(diagonal, x, off=-1.0):
    """A x for the tridiagonal A with ``diagonal`` and ``off`` on both
    off-diagonals, summed term by term: the diagonal term, the left
    neighbour's, then the right neighbour's."""
    out = diagonal * x
    out[1:] += off * x[:-1]
    out[:-1] += off * x[1:]
    return out


def _two_pass_backward_error(diagonal, x, b):
    """The componentwise backward error of one column from two
    tridiagonal applications, |A x - b| and |A| |x| + |b|, each computed
    on its own."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(_apply_tridiagonal_reference(diagonal, x) - b)
        scale = _apply_tridiagonal_reference(np.abs(diagonal), np.abs(x), off=1.0) + np.abs(b)
        ratio = np.divide(residual, scale, out=np.zeros_like(residual), where=scale > 0.0)
    return float(ratio.max()) if np.all(np.isfinite(scale)) else math.nan


def _green_solve_reference(state, energy, driving):
    """The resolvent solve as green_solve states it: the Numerov system
    written out by _numerov_by_hand, solved by scipy.linalg.solveh_banded
    (LAPACK ptsv) on upper storage, whose row 0 holds the off-diagonal -1
    from column 1 on and row 1 the diagonal, then w = r (psi - (h^2 / 6)
    r b) / c on the kept rows and w = 0 past them."""
    m, c, diagonal = _numerov_by_hand(state, energy)
    h2, r = state.h * state.h, state.r[:m]
    rows = np.atleast_2d(np.asarray(driving).T)[:, :m]
    upper = np.vstack((np.full(m, -1.0), diagonal))
    rhs = (2.0 * h2 * r) * rows / c
    psi = solveh_banded(upper, rhs.T).T
    w = np.zeros((rows.shape[0], state.r.size))
    w[:, :m] = r * (psi - (h2 / 6.0 * r) * rows) / c
    return w.T if np.ndim(driving) == 2 else w[0]


def _numerov_psi(state, energy, driving):
    """(diagonal, psi, rhs) of the Numerov system at ``energy`` for the
    driving rows (k, n), written out by _numerov_by_hand and solved by
    solveh_banded."""
    m, c, diagonal = _numerov_by_hand(state, energy)
    rhs = (2.0 * state.h * state.h * state.r[:m]) * np.atleast_2d(driving)[:, :m] / c
    psi = solveh_banded(np.vstack((np.full(m, -1.0), diagonal)), rhs.T).T
    return diagonal, psi, rhs


def _numerov_recurrence_error(state, energy, w, b):
    """Largest componentwise relative residual of Numerov's recurrence

        c_(i+1) phi_(i+1) - 2 (1 + 5 h^2 F_i / 12) phi_i + c_(i-1) phi_(i-1)
            = (h^2 / 12) (g_(i+1) + 10 g_i + g_(i-1))

    for phi = w / r and g = -2 r b, with F = 9/4 - 2r - 2E r^2 and
    c = 1 - h^2 F / 12 formed directly, at every interior kept row: each
    row's sum over the sum of its six terms' magnitudes."""
    m = oracle._numerov_rows(state._numerov[1], energy)[0]
    r, h2 = state.r, state.h * state.h
    f = 2.25 - 2.0 * r - 2.0 * energy * r * r
    c, phi, g = 1.0 - h2 * f / 12.0, w / r, -2.0 * r * b
    i = np.arange(1, m - 1)
    terms = np.array([c[i + 1] * phi[i + 1], -2.0 * (1.0 + 5.0 * h2 * f[i] / 12.0) * phi[i],
                      c[i - 1] * phi[i - 1], -h2 / 12.0 * g[i + 1], -10.0 * h2 / 12.0 * g[i],
                      -h2 / 12.0 * g[i - 1]])
    scale = np.abs(terms).sum(axis=0)
    return float(np.max(np.abs(terms.sum(axis=0)) / np.where(scale > 0.0, scale, 1.0)))


def _inverse_iteration_reference(state, n, l):
    """(energy, u) of (n, l) by the inverse iteration of oracle._solve_on_state,
    written out: channel l's Numerov system at the hydrogen level from
    oracle._numerov_rows, factored once by scipy's dgttrf, then per step
    one dgttrs on (2 h^2 r / c) w, v = (r / c) (psi - (h^2 / 6) r w) on the
    kept rows, the quotient shift + v.w / v.v, the quadrature norm, and a
    stop at a change of at most 1e-10 max(1, |E|) after the second solve."""
    h, r = state.h, state.r
    w = _seed(state, n, l)
    shift = energy = -0.5 / (n * n)
    m, c, diagonal = oracle._numerov_rows(state._numerov[l], shift)
    off = np.full(m - 1, -1.0)
    dl, d, du, du2, ipiv, info = dgttrf(off, diagonal, off)
    assert info == 0
    for step in range(12):
        psi = dgttrs(dl, d, du, du2, ipiv, (2.0 * (h * h) * r[:m] / c) * w[:m])[0]
        v = np.zeros_like(w)
        v[:m] = (r[:m] / c) * (psi - (h * h / 6.0 * r[:m]) * w[:m])
        vv = float(np.dot(v, v))
        updated = shift + float(np.dot(v, w)) / vv
        change = abs(updated - energy)
        w, energy = v / math.sqrt(h * vv), updated
        if step > 0 and change <= 1e-10 * max(1.0, abs(energy)):
            break
    u = w / state.sqrt_r
    lead = np.argmax(np.abs(u) > 1e-8 * np.max(np.abs(u)))
    return energy, (-u if u[lead] < 0.0 else u)


class _Calls(dict):
    """Call counts by entry point name.  ``factored`` lists, for each
    dgttrf call, (name, whether the diagonal was a contiguous float64
    array, whether overwrite_d=1 was passed): with both, f2py factors the
    caller's diagonal itself; without either, it factors a hidden copy."""

    factored: list[tuple[str, bool, bool]]


def _count_calls(monkeypatch, *names, when=lambda: True):
    """Counts of the calls made through the named LAPACK entry points of
    oracle while ``when()`` holds, with the factorizations' diagonals
    recorded in ``factored``."""
    calls = _Calls.fromkeys(names, 0)
    calls.factored = []
    for name in names:
        def counted(*args, _real=getattr(oracle, name), _name=name, **kwargs):
            if when():
                calls[_name] += 1
                if _name == "dgttrf":
                    d = args[1]
                    calls.factored.append((_name, d.flags.c_contiguous and d.dtype == np.float64,
                                           kwargs.get("overwrite_d") == 1))
            return _real(*args, **kwargs)
        monkeypatch.setattr(oracle, name, counted)
    return calls


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of the pivoted tridiagonal factorizations and solves and of
    the dptsv calls made through oracle, and how each factorization was
    called."""
    return _count_calls(monkeypatch, "dgttrf", "dgttrs", "dptsv")


@pytest.fixture
def resolvent_calls(monkeypatch):
    """Counts of the pivoted tridiagonal factorizations and solves and of
    the dptsv calls made through oracle outside OracleState construction:
    the resolvent's dptsv and the pseudostate sum's factorization, not
    the bound states' eigensolves."""
    building = []
    real_init = OracleState.__init__

    def init(self, grid):
        building.append(grid)
        try:
            real_init(self, grid)
        finally:
            building.pop()

    monkeypatch.setattr(OracleState, "__init__", init)
    return _count_calls(monkeypatch, "dgttrf", "dgttrs", "dptsv", when=lambda: not building)


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
        # each state's Numerov system factored once at its hydrogen level,
        # then two solves: the first quotient and the one that confirms it
        state = build_oracle(grid)
        for n, l in [(1, 0), (2, 0), (2, 1)]:
            lapack_calls.update(dict.fromkeys(lapack_calls, 0))
            oracle._solve_on_state(state, n, l)
            assert lapack_calls == {"dgttrf": 1, "dgttrs": 2, "dptsv": 0}

    def test_grid_where_the_shift_on_the_level_stalled_builds(self, lapack_calls):
        # on this grid the five-band K factored at the 1S level stalled
        # (its quotient kept changing by ~2e-10 per step); the quotient
        # from the solve, shift + v.w / v.v, converges in two solves
        state = OracleState(RadialGrid(200000, r_max=80.0, r_min=1e-3))
        assert lapack_calls["dgttrf"] == 3 and lapack_calls["dgttrs"] == 6
        for (n, _), bound in _states_by_label(state).items():
            assert abs(bound.energy + 0.5 / (n * n)) < 1e-6

    def test_r_min_cap_matches_rayleigh_iteration(self, lapack_calls):
        # r_min = 1e-2, the domain's cap, moves E_1S by -2e-6 off its
        # hydrogen level; one factorization per state still converges, to
        # the states and energies of the iteration that factors at every step
        state = OracleState(RadialGrid(6000, r_min=1e-2))
        assert lapack_calls["dgttrf"] == 3
        for (n, l), bound in _states_by_label(state).items():
            u = bound.radial_values
            live = u[np.abs(u) > 1e-7 * np.max(np.abs(u))]
            assert int(np.sum(live[1:] * live[:-1] < 0.0)) == n - l - 1
            assert abs(bound.energy - _rayleigh_quotient_iteration(state, n, l)) <= 1e-10

    @pytest.mark.parametrize(
        "grid", [RadialGrid(), RadialGrid(6000, r_min=1e-9), RadialGrid(6000, r_min=1e-2)],
        ids=["default", "6000-r_min-1e-9", "r_min-1e-2"])
    def test_bound_states_match_a_per_shift_layout_bit_for_bit(self, grid):
        # the diagonal factored in place, the quotient read from the solve
        # and the gate change no bit of any state against the iteration
        # written out on scipy's own dgttrf and dgttrs
        state = build_oracle(grid)
        for (n, l), bound in _states_by_label(state).items():
            energy, u = _inverse_iteration_reference(state, n, l)
            assert bound.energy == energy
            assert np.array_equal(bound.radial_values, u)


def _stub_outputs(monkeypatch, name, alter):
    """Rebind oracle.<name> to the real routine with its outputs passed through alter."""
    real = getattr(oracle, name)
    monkeypatch.setattr(oracle, name, lambda *args, **kwargs: alter(*real(*args, **kwargs)))


def _l1_mode(state, shift, start):
    """(energy, w) of an l = 1 mode by oracle._inverse_iteration at
    ``shift``, from ``start``."""
    return oracle._inverse_iteration(state, 1, shift, start, f"l = 1 mode at {shift!r}")


def _two_lowest_l1_modes(state):
    """The grid's 2P and 3P modes, from all ones at their hydrogen levels."""
    ones = np.ones(state.r.size)
    return [_l1_mode(state, -0.5 / (n * n), ones) for n in (2, 3)]


class TestEigensolveGates:
    """Negative controls: every gate of the bound-state eigensolve and of the
    resolvent fires.  States are built with OracleState, or the cache is
    cleared after the test, so no broken state stays in build_oracle's cache."""

    def test_wrong_node_count(self, small_grid, monkeypatch):
        # the (2,0) state iterated at the 3S level, -1/18, converges onto 3S
        real = oracle._inverse_iteration

        def at_3s(state, l, shift, w, what):
            return real(state, l, -1.0 / 18.0 if what == "(n,l)=(2,0)" else shift, w, what)

        monkeypatch.setattr(oracle, "_inverse_iteration", at_3s)
        with pytest.raises(ConvergenceError,
                           match=r"state \(n,l\)=\(2,0\) shows 2 nodes, expected 1"):
            OracleState(small_grid)

    def test_singular_lu(self, small_grid, monkeypatch):
        # a zero pivot names the shift and the state, 1S the first built
        _stub_outputs(monkeypatch, "dgttrf", lambda *outputs: (*outputs[:-1], 1))
        with pytest.raises(ConvergenceError,
                           match=r"singular Numerov system at shift -0\.5 for \(n,l\)=\(1,0\)"):
            OracleState(small_grid)

    def test_non_finite_solve(self, small_grid, monkeypatch):
        _stub_outputs(monkeypatch, "dgttrs", lambda v, info: (np.full_like(v, np.nan), info))
        with pytest.raises(ConvergenceError,
                           match=r"non-finite solve at shift -0\.5 for \(n,l\)=\(1,0\)"):
            OracleState(small_grid)

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
        assert lapack_calls["dgttrf"] == 1 and lapack_calls["dgttrs"] == 12

    def test_mode_between_two_eigenvalues_is_rejected(self, small_grid):
        # Negative control for the gate: at a shift midway between two
        # eigenvalues, the sum of their modes maps to their difference and
        # back, so the quotient shift + v.w / v.v sits on the midpoint at
        # once and stalls there, on a mixture whose backward error (7.9e-5)
        # is of the order of the gap.
        state = build_oracle(small_grid)
        (low, low_mode), (high, high_mode) = _two_lowest_l1_modes(state)
        with pytest.raises(ConvergenceError, match="backward error"):
            _l1_mode(state, 0.5 * (low + high), low_mode + high_mode)

    def test_mode_between_two_eigenvalues_from_ones_stalls(self, small_grid):
        # Negative control for the stall stop: from all ones, the quotient
        # at the midpoint still changes by ~1e-7 per step after 12 solves.
        state = build_oracle(small_grid)
        (low, _), (high, _) = _two_lowest_l1_modes(state)
        with pytest.raises(ConvergenceError, match="stalled"):
            _l1_mode(state, 0.5 * (low + high), np.ones(small_grid.n_points))

    def test_resolvent_backward_error(self, fresh_grid, monkeypatch):
        # a Numerov solve perturbed to zero leaves the residual -b, so every
        # row with b_i != 0 has backward error |b_i| / |b_i| = 1 exactly; the
        # state is fresh, so no memoized solve answers the read
        build_oracle(fresh_grid)
        _stub_outputs(monkeypatch, "dptsv",
                      lambda d, e, psi, info: (d, e, np.zeros_like(psi), info))
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
        fine = r2_overlap(RadialGrid(n_points=6498))
        assert abs(fine - coarse) < 1e-8


# 2000 points from r_min = 1e-12 to r_max = 700, the corner of the domain
# where green_solve's Numerov system loses the most rows past r ~ 110
_CUT_CORNER = RadialGrid(2000, 700.0, 1e-12)


class TestGreenSolve:
    def test_solution_satisfies_the_linear_system(self):
        # the returned w satisfies Numerov's recurrence for phi = w / r,
        # written from F and c directly, at roundoff (4.6e-16 at most
        # here): this holds the psi system, its right-hand side and the
        # back-transform together, on the kept rows of the cut corner too
        try:
            for grid in (RadialGrid(), RadialGrid(24000), _CUT_CORNER):
                state = build_oracle(grid)
                for offset in (0.001, 0.1875, 0.37, -0.15, -0.37):
                    energy = state.s1.energy + offset
                    w = green_solve(state, energy, state._driving)
                    for k in range(2):
                        assert _numerov_recurrence_error(
                            state, energy, w[:, k], state._driving[:, k]) <= 2e-15
        finally:
            build_oracle.cache_clear()

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
        # dptsv's LDL^T factor against a pivoted tridiagonal LU (dgtsv,
        # through solve_banded) of the same psi system, column by column
        state = build_oracle(default_grid)
        energy = state.s1.energy + offset
        driving = np.column_stack((state.r * state.w1, state.wd1))
        solution = green_solve(state, energy, driving)
        assert solution.shape == driving.shape
        m, c, diagonal = _numerov_by_hand(state, energy)
        h2, r = state.h * state.h, state.r
        bands = np.vstack((np.full(m, -1.0), diagonal, np.full(m, -1.0)))
        for k in range(driving.shape[1]):
            psi = solve_banded((1, 1), bands, 2.0 * h2 * r * driving[:, k] / c)
            lu = r * (psi - h2 / 6.0 * r * driving[:, k]) / c
            assert np.max(np.abs(solution[:, k] - lu)) <= 1e-10 * np.max(np.abs(lu))

    def test_stacked_call_with_one_overflowing_column_is_an_error(self, small_grid):
        # one bad column fails the whole call rather than coming back partial
        state = build_oracle(small_grid)
        driving = np.column_stack((state.r * state.w1, np.full(small_grid.n_points, 1e300)))
        with pytest.raises(ConvergenceError, match="non-finite"):
            green_solve(state, state.s2p.energy - 1e-9, driving)

    def test_zero_driving_column_passes_the_gate(self, small_grid):
        # rows with |A| |psi| + |b| = 0 carry no residual, not a 0/0
        state = build_oracle(small_grid)
        driving = np.column_stack((state.r * state.w1, np.zeros(small_grid.n_points)))
        solution = green_solve(state, state.s1.energy + 0.1, driving)
        assert not np.any(solution[:, 1])

    @pytest.mark.parametrize("grid", [RadialGrid(), RadialGrid(24000)], ids=["default", "24000"])
    @pytest.mark.parametrize("offset", [0.001, 0.1875, 0.37, -0.15])
    def test_matches_a_shifted_copy_solved_by_scipy_bit_for_bit(self, grid, offset):
        # the Numerov system written out at the energy and solved by
        # solveh_banded, for the stacked columns and for each alone
        state = build_oracle(grid)
        energy = state.s1.energy + offset
        assert np.array_equal(green_solve(state, energy, state._driving),
                              _green_solve_reference(state, energy, state._driving))
        column = np.ascontiguousarray(state._driving[:, 1])
        assert np.array_equal(green_solve(state, energy, column),
                              _green_solve_reference(state, energy, column))

    def test_stacked_solve_makes_one_factorization_and_one_solve(self, small_grid,
                                                                  resolvent_calls):
        # one dptsv factors the psi system and solves both columns
        state = build_oracle(small_grid)
        green_solve(state, state.s1.energy + 0.1, state._driving)
        assert resolvent_calls == {"dgttrf": 0, "dgttrs": 0, "dptsv": 1}

    @pytest.mark.parametrize("case", ["solve-0.001", "solve-0.1875", "solve-0.37", "perturbed",
                                      "zero-column", "overflow", "one-dimensional"])
    def test_one_pass_gate_equals_two_passes_bit_for_bit(self, default_grid, case):
        # the gate's one pass over the three bands against |A psi - b| and
        # |A| |psi| + |b| from two tridiagonal applications, column by column
        state = build_oracle(default_grid)
        offset = float(case.split("-")[1]) if case.startswith("solve-") else 0.1
        b = np.array(state._driving.T)
        if case == "zero-column":
            b[1] = 0.0
        elif case == "one-dimensional":
            b = b[1:]
        diagonal, psi, rhs = _numerov_psi(state, state.s1.energy + offset, b)
        if case == "perturbed":
            psi = psi * (1.0 + 1e-9 * np.cos(np.arange(psi.shape[-1])))
        elif case == "overflow":
            psi[1] = rhs[1] = 1e308
        for x, column in zip(psi, rhs):
            before = (x.copy(), column.copy())
            gate = oracle._backward_error(diagonal, x, column)
            expected = _two_pass_backward_error(diagonal, x, column)
            assert gate == expected or (math.isnan(gate) and math.isnan(expected))
            # the gate reads its arguments and writes neither
            assert np.array_equal(x, before[0]) and np.array_equal(column, before[1])
        if case == "overflow":
            assert oracle._backward_error(diagonal, psi[0], rhs[0]) <= oracle._RESOLVENT_TARGET
            assert math.isnan(oracle._backward_error(diagonal, psi[1], rhs[1]))

    def test_energy_inside_the_l1_spectrum_is_rejected(self, default_grid):
        # Negative control for the dptsv route: between 2P and 3P the
        # shifted operator is indefinite, so there is no solution to return.
        state = build_oracle(default_grid)
        with pytest.raises(ConvergenceError, match="not positive definite"):
            green_solve(state, state.s2p.energy + 0.01, state.r * state.w1)

    def test_backward_error_gate_sees_a_perturbed_solution(self, default_grid):
        # Negative control for the componentwise gate: the exact solve of
        # the psi system sits at roundoff, a 1e-9 relative perturbation of
        # it does not.
        state = build_oracle(default_grid)
        diagonal, psi, rhs = _numerov_psi(state, state.s1.energy + 0.1, state.r * state.w1)
        perturbed = psi[0] * (1.0 + 1e-9 * np.cos(np.arange(psi.shape[-1])))
        assert oracle._backward_error(diagonal, psi[0], rhs[0]) <= 1e-15
        assert oracle._backward_error(diagonal, perturbed, rhs[0]) > oracle._RESOLVENT_TARGET


class TestNumerovRows:
    """The rows of green_solve's Numerov system, and the rule that keeps
    those before the first point where c = 1 - h^2 F / 12 <= 1/2."""

    @pytest.mark.parametrize("grid", [RadialGrid(), _CUT_CORNER], ids=["default", "cut-corner"])
    def test_rows_are_the_scheme_written_out(self, grid):
        # bit for bit against _numerov_by_hand's a0 + E a1, and within
        # roundoff of c and 2 + h^2 F / c formed from F directly
        state = build_oracle(grid)
        try:
            for offset in (-0.37, 0.001, 0.1875, 0.37):
                energy = state.s1.energy + offset
                m, c, diagonal = oracle._numerov_rows(state._numerov[1], energy)
                reference = _numerov_by_hand(state, energy)
                assert m == reference[0]
                assert np.array_equal(c, reference[1])
                assert np.array_equal(diagonal, reference[2])
                h2, r = state.h * state.h, state.r[:m]
                f = 2.25 - 2.0 * r - 2.0 * energy * r * r
                assert np.max(np.abs(c / (1.0 - h2 * f / 12.0) - 1.0)) <= 2e-15
                assert np.max(np.abs(diagonal / (2.0 + h2 * f / (1.0 - h2 * f / 12.0)) - 1.0)) <= 2e-15
        finally:
            build_oracle.cache_clear()

    @pytest.mark.parametrize("energy", [-0.5, -0.125, 0.0, 1.0])
    def test_s_channel_rows_carry_the_cusp_ghost(self, default_grid, energy):
        # within roundoff of c and 2 + h^2 F / c formed from
        # F = 1/4 - 2r - 2E r^2 directly, and on the first row the ghost
        # psi_-1 = (c_-1 / c_0) e^(-h/2) (1 - r_-1) / (1 - r_0) psi_0 at
        # r_-1 = r_0 e^-h taken off the diagonal, c_-1 formed at the same E
        state = build_oracle(default_grid)
        h, r = state.h, state.r
        m, c, diagonal = oracle._numerov_rows(state._numerov[0], energy)
        assert m == r.size
        f = 0.25 - 2.0 * r - 2.0 * energy * r * r
        assert np.max(np.abs(c / (1.0 - h * h * f / 12.0) - 1.0)) <= 2e-15
        plain = 2.0 + h * h * f / (1.0 - h * h * f / 12.0)
        assert np.max(np.abs(diagonal[1:] / plain[1:] - 1.0)) <= 2e-15
        below = r[0] * math.exp(-h)
        c_below = 1.0 - h * h * (0.25 - 2.0 * below - 2.0 * energy * below * below) / 12.0
        ghost = c_below / c[0] * math.exp(-0.5 * h) * (1.0 - below) / (1.0 - r[0])
        assert abs(diagonal[0] / (plain[0] - ghost) - 1.0) <= 2e-15

    def test_corner_grid_cuts_rows_and_its_report_passes(self):
        # at the domain's corner c falls to 1/2 past r ~ 110 at E_1S - 0.37
        # and past r ~ 290 at E_1S + 0.37: the rows from the first point
        # with c <= 1/2 on are cut, c <= 1/2 on every one of them (F is
        # convex in r for E < 0), w = 0 there, and the oracle report passes
        state = build_oracle(_CUT_CORNER)
        try:
            cut_at = {}
            for offset in (-0.37, 0.001, 0.37):
                energy = state.s1.energy + offset
                m = oracle._numerov_rows(state._numerov[1], energy)[0]
                f = 2.25 - 2.0 * state.r - 2.0 * energy * state.r * state.r
                c = 1.0 - state.h * state.h * f / 12.0
                assert np.all(c[:m] > 0.5) and np.all(c[m:] <= 0.5)
                w = green_solve(state, energy, state._driving)
                assert np.all(np.isfinite(w)) and not np.any(w[m:])
                cut_at[offset] = state.r[m]
            assert 100.0 < cut_at[-0.37] < cut_at[0.001] < cut_at[0.37] < 300.0
            report = identities.build_report("oracle", grid=_CUT_CORNER)
            assert report.overall_pass
        finally:
            build_oracle.cache_clear()

    def test_an_energy_that_keeps_no_row_is_a_convergence_error(self, small_grid):
        # on 2000 points c <= 1/2 holds at r_min from E ~ -6.5e12 on: at
        # -1e13 both solvers stop where the rows are formed, at -1e12 the
        # first 138 rows are kept and both solve
        state = build_oracle(small_grid)
        message = "^no Numerov row has c > 1/2 at energy -10000000000000.0$"
        with pytest.raises(ConvergenceError, match=message):
            green_solve(state, -1e13, state._driving)
        with pytest.raises(ConvergenceError, match=message):
            oracle._shifted_solve(state, 1, -1e13, "the l = 1 modes")
        assert oracle._numerov_rows(state._numerov[1], -1e12)[0] == 138
        w = green_solve(state, -1e12, state._driving)
        assert np.all(np.isfinite(w)) and np.any(w[:138]) and not np.any(w[138:])
        m, solve = oracle._shifted_solve(state, 1, -1e12, "the l = 1 modes")
        v = solve(state.w2p)
        assert m == 138 and np.any(v[:138]) and not np.any(v[138:])

    @pytest.mark.parametrize("grid,floor", [(RadialGrid(), 0.98),
                                            (RadialGrid(2000, 80.0, 1e-12), 0.76)],
                             ids=["default", "coarsest-r_max-80"])
    def test_no_row_is_cut_at_r_max_80(self, grid, floor):
        # c is lowest at the lowest resolvent energy, E_1S - 3/8, and at
        # r_max; the coarsest spacing with r_max = 80 (2000 points from
        # 1e-12) bounds every 80-Bohr grid of the domain
        state = build_oracle(grid)
        try:
            m, c, _ = oracle._numerov_rows(state._numerov[1], state.s1.energy - 0.375)
            assert m == grid.n_points
            assert c.min() > floor
        finally:
            if grid != RadialGrid():
                build_oracle.cache_clear()


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
        # each x's Numerov system written out and solved by solveh_banded on
        # upper storage (LAPACK ptsv, an LDL^T factor), one call per x
        state = build_oracle(grid)
        driving = np.column_stack((state.r * state.w1, state.wd1))
        for x in (0.001, 0.02, 0.05, 0.1, 0.15, 0.1875, 0.25, 0.3, 0.35, 0.37):
            w = _green_solve_reference(state, state.s1.energy + x, driving)
            q, p = gauge_pair_oracle(grid, x)
            assert math.isclose(q, state.integrate(state.w2 * state.r, w[:, 0]) / 3.0,
                                rel_tol=1e-12)
            assert math.isclose(p, state.integrate(state.wd2, w[:, 1]) / 3.0, rel_tol=1e-12)

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


def _lifted_1s_state(monkeypatch, r_min):
    """(grid, state) on 6000 points from r_min, with the state's 1S level
    lifted by 2 r_min^2 and the state bound as build_oracle's answer.

    The lift, 2e-4 at r_min = 1e-2 and 2e-6 at 1e-3, is the shift of a
    closure on the power law alone; it lets x < 3/8 put E_1S + x above the
    grid's 2P level, where the l = 1 system is indefinite.  The
    cusp-corrected closure leaves E_1S 2 r_min^3 below -1/2 on every grid
    of the domain, so a stub lifts it."""
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
    return grid, state


# E_1S + x above the 2P level of a _lifted_1s_state
_ABOVE_THE_2P_LEVEL = pytest.mark.parametrize(
    "r_min,x", [(1e-2, 0.3749), (1e-3, 0.3749995)], ids=["r_min-1e-2", "r_min-1e-3"])


class TestAmplitudeMemo:
    def test_q_then_p_then_pair_make_one_solve(self, fresh_grid, resolvent_calls):
        q = q_oracle(fresh_grid, 0.1)
        p = p_oracle(fresh_grid, 0.1)
        assert gauge_pair_oracle(fresh_grid, 0.1) == (q, p)
        assert resolvent_calls["dptsv"] == 1

    def test_pair_then_1s_read_make_one_solve(self, fresh_grid, resolvent_calls):
        # the 2S and 1S elements at one x come from one solve; -x is its own
        gauge_pair_oracle(fresh_grid, 0.1)
        diagonal_elements(fresh_grid, 0.1)
        assert resolvent_calls["dptsv"] == 1
        diagonal_elements(fresh_grid, -0.1)
        assert resolvent_calls["dptsv"] == 2
        assert list(build_oracle(fresh_grid)._amplitudes) == [0.1, -0.1]

    def test_cold_oracle_report_solve_count(self, lapack_calls):
        # one pivoted tridiagonal LU per state, then one positive definite
        # tridiagonal resolvent solve per signed x: the 20 master points and
        # the 4 ac-Stark points at +-x, all 28 held in the memo at once
        build_oracle.cache_clear()
        identities.build_report("oracle")
        assert lapack_calls["dgttrf"] == 3
        assert lapack_calls["dptsv"] == 28
        memo = build_oracle(RadialGrid())._amplitudes
        signed = [s for x in identities.AC_STARK_POINTS for s in (x, -x)]
        assert list(memo) == list(identities.MASTER_GRID) + signed
        for x in identities.MASTER_GRID:
            gauge_pair_oracle(RadialGrid(), x)
        assert lapack_calls["dgttrf"] == 3 and lapack_calls["dptsv"] == 28

    def test_cache_clear_starts_the_count_over(self, fresh_grid, resolvent_calls):
        q_oracle(fresh_grid, 0.1)
        p_oracle(fresh_grid, 0.1)
        assert resolvent_calls["dptsv"] == 1
        build_oracle.cache_clear()
        p_oracle(fresh_grid, 0.1)
        q_oracle(fresh_grid, 0.1)
        assert resolvent_calls["dptsv"] == 2

    def test_memo_is_bounded(self, fresh_grid, resolvent_calls):
        size = oracle._AMPLITUDE_MEMO_SIZE
        xs = [0.001 + 0.005 * k for k in range(size + 8)]
        state = build_oracle(fresh_grid)
        for x in xs:
            gauge_pair_oracle(fresh_grid, x)
            assert len(state._amplitudes) <= size
        assert resolvent_calls["dptsv"] == len(xs)
        # the newest pairs are still held, the oldest were dropped
        for x in xs[-size:]:
            q_oracle(fresh_grid, x)
        assert resolvent_calls["dptsv"] == len(xs)
        q_oracle(fresh_grid, xs[0])
        assert resolvent_calls["dptsv"] == len(xs) + 1

    @pytest.mark.parametrize("x,error", [(0.4, DomainError), (0.3749995, NearResonanceError)],
                             ids=["out-of-window", "guard-edge"])
    def test_errors_repeat_and_are_never_stored(self, fresh_grid, resolvent_calls, x, error):
        for _ in range(2):
            for amplitude in (q_oracle, p_oracle, gauge_pair_oracle, diagonal_elements):
                with pytest.raises(error):
                    amplitude(fresh_grid, x)
        assert not build_oracle(fresh_grid)._amplitudes
        assert resolvent_calls["dptsv"] == 0

    @_ABOVE_THE_2P_LEVEL
    def test_energy_above_the_2p_level_is_near_resonance(self, resolvent_calls, monkeypatch,
                                                         r_min, x):
        # the guard must reject such an x before any factorization, not
        # only within 1e-6 of the level
        grid, state = _lifted_1s_state(monkeypatch, r_min)
        assert state.s1.energy + x - state.s2p.energy > oracle._NEAR_RESONANCE_GAP
        for _ in range(2):
            for amplitude in (q_oracle, p_oracle, gauge_pair_oracle):
                with pytest.raises(NearResonanceError):
                    amplitude(grid, x)
        assert not state._amplitudes
        assert resolvent_calls["dptsv"] == 0
        # negative control: just below the level the pair is computed
        q, p = gauge_pair_oracle(grid, state.s2p.energy - state.s1.energy - 1e-5)
        assert math.isfinite(q) and math.isfinite(p)
        assert resolvent_calls["dptsv"] == 1

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
        check = identities.check_one_photon(dataclasses.replace(
            grid_source(default_grid), one_photon=lambda: (m_len, flipped, gap)))
        assert check.tolerance == TOL_ONE_PHOTON
        assert not check.passed
        assert min(abs(r) for r in check.residuals) > 1e3 * TOL_ONE_PHOTON


class TestAcStark:
    @pytest.mark.parametrize("x", [0.001, 0.05, 0.10, 0.15])
    def test_sides_agree(self, default_grid, x):
        check = identities.check_ac_stark(grid_source(default_grid))
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
        source = grid_source(default_grid)
        assert identities.check_ac_stark(source).passed
        state._amplitudes.clear()
        state._driving = np.asfortranarray(np.column_stack(
            (state.r * state.w1, state.wd1 + 2.0 * state.w1 / state.r)))
        check = identities.check_ac_stark(source)
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
    points the worst value reads 0.04 to 0.43 of its bound.  With the
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
        source = grid_source(default_grid)
        checks = (
            (identities.check_master_identity(source), 3e-9),
            (identities.check_ac_stark(source), 4e-10),
            (identities.check_one_photon(source), 9e-11),
        )
        for check, bound in checks:
            assert check.max_residual < bound, check.name

    @pytest.mark.parametrize("scheme", ["second-order", "source-sign"])
    def test_wrong_resolvent_scheme_fails(self, default_grid, monkeypatch, scheme):
        # Negative controls for the scheme's order, each on a state of its
        # own.  The second-order system (c = 1 without the h^2 F / 12
        # correction, psi = phi, diagonal 2 + h^2 F), in the rows that the
        # bound states and the resolvent share, moves E_1S by -4.6e-7;
        # Numerov with its source term's sign flipped (psi = c phi -
        # (h^2 / 6) r b) moves the resolvent alone.  Each leaves an O(h^2)
        # error, Q at 3/16 off by 4.0e-6 and 2.0e-5, and fails both tests
        # above at their first resolvent reading.  The default grid's own
        # state is cached first, so no patched state enters the cache.
        build_oracle(default_grid)
        if scheme == "second-order":
            monkeypatch.setattr(oracle, "_channel_rows", _second_order_rows)
        state = OracleState(default_grid)
        if scheme == "second-order":
            assert abs(state.s1.energy + 0.5) > 1e-7
            state._back = np.zeros_like(state.r)
        else:
            state._back = -state._back
        monkeypatch.setattr(oracle, "build_oracle", lambda grid: state)
        with pytest.raises(AssertionError, match="< 7e-10"):
            self.test_energy_and_matrix_elements(default_grid)
        with pytest.raises(AssertionError, match="^master_identity"):
            self.test_grid_checks(default_grid)
        assert _relative_error(q_oracle(default_grid, 3.0 / 16.0), q_length(3.0 / 16.0)) > 1e-7

    def test_r_min_error_is_cubic(self):
        # E_1S + 1/2 = -2 r_min^3 with the cusp-corrected closure (-2e-6 and
        # -5.4e-8 here, a ratio of (10/3)^3 = 37)
        lifts = _closure_lifts()
        for r_min, lift in lifts.items():
            assert math.isclose(lift, -2.0 * r_min ** 3, rel_tol=0.02)
        assert 35.0 < lifts[1e-2] / lifts[3e-3] < 39.0

    def test_power_law_closure_error_is_quadratic(self, monkeypatch):
        # negative control: without the first-order factor the ghost lies
        # on phi ~ r^(1/2) alone and E_1S + 1/2 = +2 r_min^2, less an
        # r_min^3 term (0.968x and 0.989x here)
        monkeypatch.setattr(oracle, "_channel_rows", _rows_with_ghost(
            lambda h, r0: math.exp(-0.5 * h)))
        for r_min, lift in _closure_lifts().items():
            assert math.isclose(lift, 2.0 * r_min * r_min, rel_tol=0.05)

    def test_no_ghost_closure_error_is_linear(self, monkeypatch):
        # negative control: with psi = 0 below r_min, as for l = 1,
        # E_1S + 1/2 is about +2 r_min (0.893x and 0.958x here)
        monkeypatch.setattr(oracle, "_channel_rows", _rows_with_ghost(None))
        for r_min, lift in _closure_lifts().items():
            assert 0.85 < lift / (2.0 * r_min) < 1.0

    def test_default_keeps_the_former_spacing(self, default_grid):
        # 3249 points from 1e-4 keep the h of 4350 points from 1e-6
        former = (math.log(80.0) - math.log(1e-6)) / 4349
        assert math.isclose(build_oracle(default_grid).h, former, rel_tol=2e-4)


def _closure_lifts():
    """E_1S + 1/2 on 6000 points from r_min = 1e-2 and 3e-3, where the
    r_min term dominates the stencil and roundoff errors."""
    return {r_min: OracleState(RadialGrid(6000, r_min=r_min)).s1.energy + 0.5
            for r_min in (1e-2, 3e-3)}


def _rows_with_ghost(ratio):
    """A stand-in for oracle._channel_rows whose l = 0 ghost is
    psi_-1 = (c_-1 / c_0) ratio(h, r_0) psi_0 at r_-1 = r_0 e^-h, written
    out from F = 1/4 - 2r - 2E r^2, or psi = 0 below r_min for a ratio of
    None; the l = 1 rows are the oracle's."""
    real = oracle._channel_rows

    def rows(l, h, r):
        out = real(l, h, r)
        if l == 0:
            h2, r0 = h * h, float(r[0])
            out[:, 1, 0] = (2.0 + 5.0 * h2 / 6.0 * (0.25 - 2.0 * r0), -5.0 * h2 / 3.0 * r0 * r0)
            if ratio is not None:
                below = r0 * math.exp(-h)
                out[:, 1, 0] -= ratio(h, r0) * np.array(
                    [1.0 - h2 / 12.0 * (0.25 - 2.0 * below), h2 / 6.0 * below * below])
        return out

    return rows


def _second_order_rows(l, h, r):
    """Channel l's rows of the second-order scheme, c = 1 and the diagonal
    2 + h^2 F, with the cusp ghost psi_-1 = e^(-h/2) (1 - r_-1) / (1 - r_0)
    psi_0 for l = 0."""
    h2 = h * h
    rows = np.array([[np.ones_like(r), 2.0 + h2 * ((l + 0.5) ** 2 - 2.0 * r)],
                     [np.zeros_like(r), -2.0 * h2 * r * r]])
    if l == 0:
        below = float(r[0]) * math.exp(-h)
        rows[0, 1, 0] -= math.exp(-0.5 * h) * (1.0 - below) / (1.0 - float(r[0]))
    return rows


def _pseudostate_reference(grid, xs, count=30):
    """Partial sums from the ``count`` lowest l = 1 modes found one at a
    time, each by inverse iteration (_l1_mode) from all ones at a shift
    on its eigenvalue, with the eigenvalue that iteration converges to.

    The shifts are the Ritz values of one Lanczos run at E_1S + 0.1; the
    k-th mode must show k - 1 nodes, so none is skipped or repeated.  A
    dense eigensolve of the grid operator, whose r^-2 weight spans 16
    orders of magnitude on the grid, missed these eigenvalues by up to
    5e-4.  Quadrature-normalized modes, so each projection is an
    h-weighted sum; one set of modes serves every x."""
    state = build_oracle(grid)
    ones = np.ones(grid.n_points)
    modes = [_l1_mode(state, float(val), ones) for val in _lanczos_modes(state, 0.1, count)[0]]
    assert [oracle._count_nodes(w) for _, w in modes] == list(range(count))
    vals = np.array([val for val, _ in modes])
    bra = state.h * np.array([np.dot(state.w2 * state.r, w) for _, w in modes])
    ket = state.h * np.array([np.dot(state.r * state.w1, w) for _, w in modes])
    return [np.cumsum(bra * ket / (vals - state.s1.energy - x) / 3.0) for x in xs]


def _stub_tridiagonal(monkeypatch, name, info):
    """Replace oracle._flapack by one that holds only the two tridiagonal
    eigensolvers Lanczos reads, dstev and dstein, with the info of ``name``
    set to ``info``."""
    real = oracle._flapack

    def stubbed(routine):
        def call(*args, **kwargs):
            result = getattr(real, routine)(*args, **kwargs)
            return (*result[:-1], info) if routine == name else result
        return call

    monkeypatch.setattr(oracle, "_flapack", types.SimpleNamespace(
        dstev=stubbed("dstev"), dstein=stubbed("dstein")))


def _check_schedule(count):
    """The Krylov dimensions at which _lanczos tests convergence."""
    m = min(2 * count, oracle._MAX_KRYLOV)
    while True:
        yield m
        if m >= oracle._MAX_KRYLOV:
            return
        m = min(math.ceil(oracle._CHECK_GROWTH * m), oracle._MAX_KRYLOV)


def _lanczos_modes(state, x, count=30):
    """(eigenvalues, quadrature-normalized rows) of the ``count`` lowest
    l = 1 modes as pseudostate_q takes them from _lanczos at E_1S + x."""
    energy = state.s1.energy + x
    solve = oracle._shifted_solve(state, 1, energy, "test")[1]
    theta, modes = oracle._lanczos(solve, state.grid.n_points, count, "test")
    modes /= np.sqrt(state.h * np.einsum("ij,ij->i", modes, modes))[:, None]
    return energy + 1.0 / theta, modes


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

    def test_modes_pass_the_gate_at_the_smallest_r_min(self):
        # Lanczos starts from the resolvent of the all-ones vector; from
        # the all-ones vector itself the basis kept roundoff at r_min,
        # which psi = c w / r reads amplified by 1 / r_min, and on this
        # grid every Ritz pair failed the gate (7.3e-5 at worst)
        grid = RadialGrid(2000, 80.0, 1e-12)
        try:
            _assert_partial_sums_close_on_resolvent(grid)
        finally:
            build_oracle.cache_clear()

    def test_matches_full_eigenvector_reference(self, small_grid):
        # against the modes found one at a time, to 2.6e-12 at x = 0.37
        xs = (0.02, 0.1, 0.1875, 0.3, 0.37)
        for x, reference in zip(xs, _pseudostate_reference(small_grid, xs)):
            partial = pseudostate_q(small_grid, x, count=30)
            assert np.max(np.abs(partial / reference - 1.0)) <= 1e-10

    def test_mode_eigenvalues_match_inverse_iteration_quotients(self, default_grid):
        # each mode's eigenvalue E + 1 / theta against the Rayleigh quotient
        # _inverse_iteration converges to from all ones at that shift
        state = build_oracle(default_grid)
        vals, _ = _lanczos_modes(state, 0.1)
        ones = np.ones(default_grid.n_points)
        for val in map(float, vals):
            assert abs(_l1_mode(state, val, ones)[0] - val) <= 1e-12

    def test_one_factorization_and_one_solve_per_lanczos_step(self, small_grid, lapack_calls):
        # one factorization of the l = 1 Numerov system at E; the solves
        # are the start vector's and the Lanczos steps, which end on a
        # convergence test
        build_oracle(small_grid)
        lapack_calls.update(dict.fromkeys(lapack_calls, 0))
        pseudostate_q(small_grid, 0.1, count=30)
        steps = lapack_calls["dgttrs"] - 1
        assert lapack_calls == {"dgttrf": 1, "dgttrs": steps + 1, "dptsv": 0}
        assert steps in itertools.takewhile(lambda m: m <= 100, _check_schedule(30))

    def test_krylov_cap_below_the_needed_dimension_is_a_convergence_error(
            self, small_grid, lapack_calls, monkeypatch):
        # 30 modes on this grid take 80 to 92 steps; a cap of 69 stops at
        # the schedule's second test and names m and the count; the solves
        # are the start vector's and one per step
        monkeypatch.setattr(oracle, "_MAX_KRYLOV", 69)
        with pytest.raises(ConvergenceError, match=r"the 30 lowest modes .* m = 69 Lanczos"):
            pseudostate_q(small_grid, 0.1, count=30)
        assert lapack_calls["dgttrs"] == 70

    def test_unconverged_ritz_pairs_fail_the_eigenpair_gate(self, small_grid, monkeypatch):
        # Negative control for the per-mode gate, the bound states' own: the
        # converged modes pass it; with every Ritz value accepted, Lanczos
        # stops at its first test, m = 60 for 30 modes, and the pairs of
        # that basis fail it, read directly and inside pseudostate_q
        state = build_oracle(small_grid)
        m = small_grid.n_points
        vals, modes = _lanczos_modes(state, 0.1)
        oracle._eigenpair_gate(state, 1, m, vals, modes, "test")
        monkeypatch.setattr(oracle, "_RITZ_TOL", math.inf)
        vals, modes = _lanczos_modes(state, 0.1)
        with pytest.raises(ConvergenceError, match="eigensolve backward error"):
            oracle._eigenpair_gate(state, 1, m, vals, modes, "test")
        with pytest.raises(ConvergenceError, match="eigensolve backward error"):
            pseudostate_q(small_grid, 0.1, count=30)

    @pytest.mark.parametrize("count", [30, 200])
    def test_dense_low_spectrum_converges(self, count):
        # r_max = 700 and r_min = 1e-2 crowd the low l = 1 spectrum, the
        # slowest corner of the domain: m = 288 and 460 at x = 0.001
        grid = RadialGrid(2000, r_max=700.0, r_min=1e-2)
        try:
            partial = pseudostate_q(grid, 0.001, count=count)
        finally:
            build_oracle.cache_clear()
        assert partial.shape == (count,) and np.all(np.isfinite(partial))

    def test_factorizations_run_in_place_on_private_copies(self, fresh_grid, lapack_calls):
        # each sum factors its own diagonal of the l = 1 system at E in
        # place, once, and leaves the shared state as it was built
        state = build_oracle(fresh_grid)
        lapack_calls.factored.clear()
        first = pseudostate_q(fresh_grid, 0.1, count=30)
        assert np.array_equal(pseudostate_q(fresh_grid, 0.1, count=30), first)
        assert lapack_calls.factored == [("dgttrf", True, True)] * 2
        assert build_oracle(fresh_grid) is state
        _assert_shared_arrays_intact(state)

    @_ABOVE_THE_2P_LEVEL
    def test_energy_above_the_2p_level_is_near_resonance(self, resolvent_calls, monkeypatch,
                                                         r_min, x):
        grid, state = _lifted_1s_state(monkeypatch, r_min)
        for _ in range(2):
            with pytest.raises(NearResonanceError):
                pseudostate_q(grid, x)
        assert resolvent_calls["dgttrf"] == 0

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

    def test_reads_no_lapack_routine_but_the_tridiagonal_ones(self, small_grid, monkeypatch):
        # _flapack reduced to dstev and dstein: the factorization and its
        # solves are the module's dgttrf and dgttrs bindings
        expected = pseudostate_q(small_grid, 0.1, count=5)
        real = oracle._flapack
        monkeypatch.setattr(oracle, "_flapack",
                            types.SimpleNamespace(dstev=real.dstev, dstein=real.dstein))
        assert np.array_equal(pseudostate_q(small_grid, 0.1, count=5), expected)

    # failed: dstev, the eigenvalues of T_m, reports an error; short: dstein
    # reports that info of the wanted eigenvectors did not converge
    @pytest.mark.parametrize("name", ["dstev", "dstein"], ids=["failed", "short"])
    def test_failed_or_short_eigensolve_is_a_convergence_error(self, small_grid, monkeypatch,
                                                               name):
        _stub_tridiagonal(monkeypatch, name, 1)
        with pytest.raises(ConvergenceError,
                           match=r"tridiagonal eigensolve failed \(info = 1\) at m = 10 .*"
                                 r"count = 5"):
            pseudostate_q(small_grid, 0.1, count=5)

    @pytest.mark.parametrize("count", [2.5, 3.0, True])
    def test_non_integer_count_is_a_domain_error(self, small_grid, count):
        with pytest.raises(DomainError, match="must be an integer"):
            pseudostate_q(small_grid, 0.1, count=count)

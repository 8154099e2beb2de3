"""Coulomb-Sturmian resolvent tests: the recurrences against an independent
quadrature assembly, the resolvent elements against the radial grid, and
negative controls that the exact Galerkin algebra must fail.

The quadrature, eigh and the grid need numpy and scipy, which the tests
that use them import inside and mark with the oracle_extra fixture; the
rest are stdlib, so this module also runs in the stdlib-floor CI job."""

import math

import pytest

from gauge_workbench import identities, sturmian
from gauge_workbench.errors import ConvergenceError, DomainError
from gauge_workbench.identities import (
    AC_STARK_POINTS,
    BASIS,
    TOL_CLOSED,
    build_report,
    check_ac_stark,
    check_one_photon,
)


def _quadrature(n, l, times_e_r=None):
    """Gauss-Laguerre assembly of channel l with n Sturmians, from their
    definition s^(l+1) e^(-s/2) L_k^(2l+1)(s), s = 2 LAMBDA r, and scipy's
    Laguerre values rather than the module's recurrences.

    Returns (H, S) dense, or, given times_e_r, the projections <phi_k | g>
    of g(r) = times_e_r(r) e^(-r) (LAMBDA = 1 only).  Every integrand is a
    polynomial times e^-s, so n + 12 nodes integrate it exactly."""
    import numpy as np
    from numpy.polynomial.laguerre import laggauss
    from scipy.special import eval_genlaguerre

    lam = sturmian.LAMBDA
    s, weights = laggauss(n + 12)
    alpha = 2 * l + 1
    lag = np.array([eval_genlaguerre(k, alpha, s) for k in range(n)])
    # L_k^(a)' = -L_(k-1)^(a+1)
    dlag = np.array([-eval_genlaguerre(k - 1, alpha + 1, s) if k else 0.0 * s
                     for k in range(n)])
    f = s ** (l + 1) * lag  # phi_k e^(s/2)
    if times_e_r is not None:
        assert lam == 1.0
        return (f * weights * times_e_r(s / 2.0)) @ np.ones_like(s) / 2.0
    df = ((l + 1) * s ** l - s ** (l + 1) / 2.0) * lag + s ** (l + 1) * dlag
    overlap = (f * weights) @ f.T / (2.0 * lam)
    kinetic = lam * (df * weights) @ df.T
    centrifugal = lam * l * (l + 1) * (f * weights / s ** 2) @ f.T
    coulomb = (f * weights / s) @ f.T
    return kinetic + centrifugal - coulomb, overlap


def _dense(diag, off):
    import numpy as np

    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


class TestPencil:
    # Three times the worst entry measured at N = 12, 20 and 30, scaled by
    # sqrt(S_jj S_kk): 6.3e-14 in S and 1.5e-14 in H, the roundoff of the
    # quadrature sums, not of the recurrences (entries are exact at LAMBDA = 1).
    @pytest.mark.usefixtures("oracle_extra")
    @pytest.mark.parametrize("n", [12, 20, 30])
    def test_entries_match_the_quadrature_assembly(self, n):
        import numpy as np

        h_diag, h_off, s_diag, s_off = sturmian._pencil(1, n)
        h, s = _quadrature(n, 1)
        scale = np.sqrt(np.outer(s_diag, s_diag))
        assert np.max(np.abs(_dense(s_diag, s_off) - s) / scale) <= 1.9e-13
        assert np.max(np.abs(_dense(h_diag, h_off) - h) / scale) <= 4.5e-14

    def test_1s_entries_are_exact(self):
        # the H and S entries of 2 r e^-r at LAMBDA = 1, on the stdlib alone
        assert (sturmian._E_1S, sturmian.NORM_1S) == (-0.5, 1.0)

    @pytest.mark.usefixtures("oracle_extra")
    def test_1s_is_the_exact_ground_state(self):
        # S_00 = 1, so the bounds above apply unscaled
        h, s = _quadrature(1, 0)
        assert abs(h[0, 0] + 0.5) <= 4.5e-14
        assert abs(s[0, 0] - 1.0) <= 1.9e-13

    @pytest.mark.usefixtures("oracle_extra")
    def test_driving_terms_match_the_quadrature(self):
        # r u_1S and u_1S' - u_1S/r for u_1S = 2 r e^-r, times e^r
        import numpy as np

        b_len, b_vel = sturmian._driving_terms()
        n = sturmian.BASIS_SIZE
        assert np.allclose(b_len, _quadrature(n, 1, lambda r: 2.0 * r * r),
                           rtol=0.0, atol=1e-12)
        assert np.allclose(b_vel, _quadrature(n, 1, lambda r: -2.0 * r),
                           rtol=0.0, atol=1e-12)

    @pytest.mark.usefixtures("oracle_extra")
    def test_2p_is_the_lowest_eigenpair(self):
        import numpy as np
        from scipy.linalg import eigh

        energy, c = sturmian._state_2p(sturmian._pencil(1, sturmian.BASIS_SIZE))
        h_diag, h_off, s_diag, s_off = sturmian._pencil(1, sturmian.BASIS_SIZE)
        h, s = _dense(h_diag, h_off), _dense(s_diag, s_off)
        assert abs(energy + 0.125) <= 1e-15
        assert abs(energy - eigh(h, s, eigvals_only=True)[0]) <= 1e-15
        c = np.array(c)
        assert abs(c @ s @ c - 1.0) <= 1e-15
        residual = h @ c - energy * (s @ c)
        assert np.max(np.abs(residual)) <= 1e-15 * np.max(np.abs(s @ c))

    def test_non_positive_pivot_is_a_convergence_error(self):
        # -0.1 lies above the 2P level, inside the l = 1 spectrum
        with pytest.raises(ConvergenceError, match="not positive definite"):
            sturmian._factor(sturmian._pencil(1, sturmian.BASIS_SIZE), -0.1)

    def test_stalled_inverse_iteration_is_a_convergence_error(self, monkeypatch):
        # on a cold cache, so that the iteration runs; a stall is not cached,
        # so the next call runs it and stalls again
        monkeypatch.setattr(sturmian, "_MAX_STEPS", 2)
        sturmian._state_2p.cache_clear()
        pencil = sturmian._pencil(1, sturmian.BASIS_SIZE)
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="stalled"):
                sturmian._state_2p(pencil)
        info = sturmian._state_2p.cache_info()
        assert (info.misses, info.currsize) == (2, 0)


class TestIdentities:
    def test_residuals_are_roundoff(self):
        # exact Galerkin algebra at LAMBDA = 1: what is left is roundoff
        assert check_ac_stark(BASIS).max_residual <= 1e-13
        assert check_one_photon(BASIS).max_residual <= 1e-13

    def test_ac_stark_residuals_are_pinned(self):
        # bit for bit, so that any change to the order of the identity's
        # float operations, or to the Sturmian reads, shows here
        assert check_ac_stark(BASIS).residuals == (
            4.666490853672337e-16, -4.2327252813834093e-16, -4.996003610813204e-16, 0.0)

    def test_elements_agree_with_the_grid(self, default_grid):
        from gauge_workbench.oracle import diagonal_elements, one_photon_elements

        # The difference is the grid's own error, which scatters from one
        # point count to the next.  Over the default grid's point count +-10
        # (3239 to 3259 from r_min = 1e-4) the worst difference at +-x of
        # the check points is 1.50e-10 in the velocity element and 1.78e-10
        # relative in the length element, about a third of the bounds;
        # 5.65e-11 relative in the element ratio m_vel / m_len and 5.02e-11
        # in the level gap.
        for x in AC_STARK_POINTS:
            for signed in (x, -x):
                (length, velocity), (grid_length, grid_velocity) = \
                    sturmian.diagonal_elements(signed), diagonal_elements(default_grid, signed)
                assert abs(velocity - grid_velocity) <= 5.2e-10, signed
                assert abs(length / grid_length - 1.0) <= 5.1e-10, signed
        (m_len, m_vel, gap), (grid_len, grid_vel, grid_gap) = \
            sturmian.one_photon_elements(), one_photon_elements(default_grid)
        assert abs((m_vel / m_len) / (grid_vel / grid_len) - 1.0) <= 1.7e-10
        assert abs(gap / grid_gap - 1.0) <= 1.6e-10

    def test_strict_report_builds_one_pencil_and_one_2p_state(self):
        # the pencils and the 2P pair are cached for the process, and the 1S
        # inputs are read at import, so two reports build the l = 1 pencil
        # once and solve 2P once
        sturmian._pencil.cache_clear()
        sturmian._state_2p.cache_clear()
        first = build_report("strict")
        second = build_report("strict")
        info = sturmian._pencil.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        info = sturmian._state_2p.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        # a cached entry cannot be changed in place
        pencil = sturmian._pencil(1, sturmian.BASIS_SIZE)
        assert all(isinstance(part, tuple) for part in pencil)
        assert isinstance(sturmian._state_2p(pencil)[1], tuple)
        assert first == second
        assert first.checks[2].residuals == check_ac_stark(BASIS).residuals
        assert first.checks[5].residuals == check_one_photon(BASIS).residuals

    def test_basis_size_is_converged(self, monkeypatch):
        # 10 more functions move no element by more than roundoff, also at
        # x = 0.37 next to the 2P pole, where the resolvent decays slowest
        points = [s for x in AC_STARK_POINTS + (0.3, 0.37) for s in (x, -x)]
        diagonal = [sturmian.diagonal_elements(x) for x in points]
        elements = sturmian.one_photon_elements()
        monkeypatch.setattr(sturmian, "BASIS_SIZE", sturmian.BASIS_SIZE + 10)
        for x, pair in zip(points, diagonal):
            for element, wider in zip(pair, sturmian.diagonal_elements(x)):
                assert math.isclose(element, wider, rel_tol=1e-14, abs_tol=1e-16), x
        assert elements == sturmian.one_photon_elements()

    def test_scaled_coulomb_entry_fails_ac_stark(self, monkeypatch):
        # negative control: the l = 1 Coulomb diagonal -<1/r> scaled by 1.001
        real = sturmian._pencil

        def scaled(l, n):
            h_diag, h_off, s_diag, s_off = real(l, n)
            if l == 1:
                h_diag = [h - 1e-3 * math.prod(range(k + 1, k + 4))
                          for k, h in enumerate(h_diag)]
            return h_diag, h_off, s_diag, s_off

        monkeypatch.setattr(sturmian, "_pencil", scaled)
        check = check_ac_stark(BASIS)
        assert not check.passed
        assert min(abs(r) for r in check.residuals) > 1e3 * TOL_CLOSED

    @pytest.mark.usefixtures("oracle_extra")
    def test_flipped_u_over_r_fails_both_checks(self, monkeypatch):
        # negative control: u_1S' + u_1S/r in place of u_1S' - u_1S/r,
        # projected by quadrature: (1, 4, 4, ...)
        b_len, _ = sturmian._driving_terms()
        flipped = list(_quadrature(sturmian.BASIS_SIZE, 1, lambda r: 4.0 - 2.0 * r))
        monkeypatch.setattr(sturmian, "_driving_terms", lambda: (b_len, flipped))
        for check in (check_ac_stark(BASIS), check_one_photon(BASIS)):
            assert not check.passed, check.name
            assert min(abs(r) for r in check.residuals) > 1e3 * TOL_CLOSED, check.name


class TestInputs:
    @pytest.mark.parametrize("x", [0.0, -0.0, 0.375, -0.375, 0.4, -0.4, math.nan])
    def test_window_is_enforced(self, x):
        with pytest.raises(DomainError):
            sturmian.diagonal_elements(x)

    def test_negative_x_reads_e_1s_minus_x(self):
        # a signed read: -0.1 is the E_1S - 0.1 term, not a window error
        b_len, b_vel = sturmian._driving_terms()
        factor = sturmian._factor(sturmian._pencil(1, sturmian.BASIS_SIZE), -0.5 - 0.1)
        assert sturmian.diagonal_elements(-0.1) == (
            sturmian._dot(b_len, sturmian._solve(factor, b_len)),
            sturmian._dot(b_vel, sturmian._solve(factor, b_vel)))

    def test_close_to_the_2p_pole_is_computed(self, monkeypatch):
        x = 0.3749999
        (up, _), (down, _) = sturmian.diagonal_elements(x), sturmian.diagonal_elements(-x)
        assert math.isfinite(up)
        monkeypatch.setattr(identities, "AC_STARK_POINTS", (x,))
        (residual,) = check_ac_stark(BASIS).residuals
        assert abs(residual) <= 1e-9 * x * x * (up + down)


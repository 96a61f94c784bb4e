"""Radial spherical-Bessel path, 3-D FFT path, and their agreement."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracloc.dynamics import evolve_free
from diracloc.quadrature import _leggauss, gauss_legendre
from diracloc.spinor import SPIN_DOWN, SPIN_UP, spinor_layout
from diracloc.states import gaussian_profile, make_state
from grid_oracles import sampled_psi
from radial_oracles import position_space_delta_x, two_panel_delta_x
from diracloc.transform import (
    CartesianGrid,
    GridError,
    RadialDensityTable,
    RadialGrid,
    angular_average,
    density_field,
    grid_for_state,
    grid_working_set,
    physical_memory,
    position_state_cartesian,
    radial_components,
    radial_delta_x,
    radial_density,
    radial_probability,
)


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        x, w = gauss_legendre(6, -1.0, 3.0)
        for k in range(12):
            exact = (3.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            assert np.sum(w * x**k) == pytest.approx(exact, rel=1e-13)

    def test_gaussian_integral(self):
        from scipy.special import erf

        x, w = gauss_legendre(64, 0.0, 5.0)
        assert np.sum(w * np.exp(-x * x)) == pytest.approx(
            np.sqrt(np.pi) / 2 * erf(5.0), rel=1e-14
        )

    @pytest.mark.parametrize("order", list(range(1, 41)) + [63, 64, 127, 255, 256, 511, 512])
    def test_newton_nodes_match_leggauss(self, order):
        x, w = _leggauss(order)
        x_ref, w_ref = np.polynomial.legendre.leggauss(order)
        assert np.abs(x - x_ref).max() <= 1e-15
        assert np.abs(w / w_ref - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("order", [2048, 4000])
    def test_monomial_exactness_at_high_order(self, order):
        # int_{-1}^{1} x^(2k) dx = 2/(2k+1) for every even degree the rule
        # integrates exactly; the top degrees live on the endpoint weights
        x, w = _leggauss(order)
        degrees = np.append(np.arange(0, 2 * order - 2, 14), [2 * order - 4, 2 * order - 2])
        got = np.array([np.sum(w * x**k) for k in degrees])
        assert np.abs(got * (degrees + 1) / 2.0 - 1.0).max() <= 1e-11
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)


class TestRadialComponents:
    def test_lower_component_vanishes_at_origin(self, plain_profile):
        g0, g1 = radial_components(plain_profile, 5, 0.0)
        assert g1 == 0.0
        assert g0.real > 0.0

    def test_heavy_mass_limit_reduces_to_scalar_transform(self, plain_profile):
        # with the spinor kernels replaced by their heavy-mass limits the
        # order-0 transform of the Gaussian envelope has a closed form
        from diracloc.transform import _radial_transform

        n = 3
        p_max = n * plain_profile.cutoff()
        p, w = gauss_legendre(2048, 0.0, p_max)
        envelope = n**-1.5 * plain_profile(p / n, 0.0, 0.0)
        r = np.linspace(0.0, 3.0, 31)
        got = _radial_transform(w, p, envelope, 0, r)
        expected = n**1.5 * np.pi**-0.75 * np.exp(-(n * r) ** 2 / 2.0)
        assert np.abs(got - expected).max() < 1e-12

    def test_node_doubling_convergence(self, plain_profile):
        r = np.linspace(0.0, 6.0, 61)
        g0a, g1a = radial_components(plain_profile, 7, r, n_nodes=2048)
        g0b, g1b = radial_components(plain_profile, 7, r, n_nodes=4096)
        assert np.abs(g0a - g0b).max() < 1e-8
        assert np.abs(g1a - g1b).max() < 1e-8

    def test_asymmetric_profile_rejected(self):
        from diracloc.states import boosted_gaussian_profile

        prof = boosted_gaussian_profile((0.0, 0.0, 0.3))
        with pytest.raises(ValueError):
            radial_components(prof, 2, 1.0)

    def test_negative_radius_rejected(self, plain_profile):
        with pytest.raises(ValueError):
            radial_components(plain_profile, 2, -0.5)


class TestRadialDeltaX:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_matches_position_space_quadrature(self, plain_profile, n):
        expected = position_space_delta_x(plain_profile, n)
        assert radial_delta_x(plain_profile, n) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n, sigma_p", [(32, 1.0), (46, 1.135)])
    def test_resolved_at_large_n(self, n, sigma_p):
        profile = gaussian_profile(sigma_p)
        expected = two_panel_delta_x(profile, n)
        assert radial_delta_x(profile, n) == pytest.approx(expected, rel=1e-11)

    def test_asymmetric_profile_rejected(self):
        from diracloc.states import boosted_gaussian_profile

        with pytest.raises(ValueError):
            radial_delta_x(boosted_gaussian_profile((0.0, 0.0, 0.3)), 2)


class TestRadialDensity:
    def test_unit_norm_all_n(self, plain_profile):
        for n in (5, 7, 10):
            total = radial_probability(plain_profile, n, 0.0, 20.0, n_nodes=2000)
            assert abs(total - 1.0) <= 1e-4

    def test_origin_density_increases_with_n(self, plain_profile):
        grid = RadialGrid.uniform(6.0, 121)
        rho0 = [radial_density(plain_profile, n, grid).value_at_origin() for n in (5, 7, 10)]
        assert rho0[0] < rho0[1] < rho0[2]

    def test_probability_inside_compton_radius_increases(self, plain_profile):
        inside = [radial_probability(plain_profile, n, 0.0, 1.0) for n in (5, 10)]
        assert inside[0] < inside[1]

    def test_tail_everywhere_positive(self, plain_profile):
        # no compact support: the density keeps a strictly positive tail
        grid = RadialGrid.uniform(10.0, 201)
        table = radial_density(plain_profile, 5, grid)
        assert np.all(table.rho > 0.0)

    def test_tail_log_slope_negative(self, plain_profile):
        grid = RadialGrid.uniform(8.0, 401)
        table = radial_density(plain_profile, 5, grid)
        slope = table.fitted_log_slope(3.0, 6.0)
        assert slope < 0.0

    def test_table_norm_with_tail_estimate(self, plain_profile):
        table = radial_density(plain_profile, 7, RadialGrid.uniform(6.0, 601))
        assert abs(table.total_probability() - 1.0) <= 1e-4

    def test_csv_round_trip(self, plain_profile, tmp_path):
        table = radial_density(plain_profile, 5, RadialGrid.uniform(4.0, 81))
        path = tmp_path / "rho.csv"
        table.to_csv(path)
        back = RadialDensityTable.from_csv(path, n=5)
        assert np.array_equal(back.grid.r, table.grid.r)
        assert np.array_equal(back.rho, table.rho)


class TestCartesianGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            CartesianGrid(48, 16.0)
        with pytest.raises(ValueError):
            CartesianGrid(4, 16.0)
        with pytest.raises(ValueError):
            CartesianGrid(64, -1.0)

    def test_nyquist(self):
        grid = CartesianGrid(64, 16.0)
        assert grid.nyquist == pytest.approx(np.pi * 64 / 16.0)

    def test_grid_for_state_covers_support(self):
        state = make_state(n=10)
        grid = grid_for_state(state)
        assert grid.nyquist >= state.momentum_support(1e-4)


class TestPositionState:
    def test_norm_unit_on_adequate_grid(self, ps5):
        assert abs(ps5.norm - 1.0) <= 1e-4

    def test_parseval(self, state5, ps5):
        assert abs(ps5.norm - state5.norm()) <= 1e-4

    def test_nyquist_violation_raises(self):
        with pytest.raises(GridError):
            position_state_cartesian(make_state(n=10), CartesianGrid(64, 16.0))

    def test_matches_numpy_ifftn(self):
        state = make_state(a=(0.5, -1.0, 0.25), v=(0.2, 0.0, -0.4), n=3)
        grid = CartesianGrid(64, 16.0)
        ref = sampled_psi(state, grid)
        psi = position_state_cartesian(state, grid).psi
        assert np.abs(psi - ref).max() <= 1e-14 * np.abs(ref).max()

    @settings(max_examples=30, deadline=None)
    @given(
        spin=st.sampled_from([SPIN_UP, SPIN_DOWN]),
        a=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda d: np.linalg.norm(d) > 0.1
        ),
        speed=st.floats(0.0, 0.9),
        n=st.integers(1, 3),
        t=st.floats(0.0, 2.0),
        points=st.sampled_from([16, 32]),
    )
    def test_separable_sampler_matches_oracle(self, spin, a, direction, speed, n, t, points):
        v = speed * np.asarray(direction) / np.linalg.norm(direction)
        state = evolve_free(make_state(a=a, v=v, spin=spin, n=n), t)
        # Nyquist 16.8 on both grids covers |v| <= 0.9 at n = 3 (support 13.8)
        grid = CartesianGrid(points, 3.0 * points / 16)
        ref = sampled_psi(state, grid)
        psi = position_state_cartesian(state, grid).psi
        assert np.abs(psi - ref).max() <= 1e-14 * np.abs(ref).max()
        assert not np.any(psi[spinor_layout(spin).zero])

    def test_memory_guard_refuses_before_allocating(self):
        grid = CartesianGrid(2048, 16.0)
        tracemalloc.start()
        try:
            with pytest.raises(GridError) as exc:
                position_state_cartesian(make_state(n=1), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        need = grid_working_set(grid)
        assert need > physical_memory()
        assert f"{need} bytes" in str(exc.value)
        assert f"{physical_memory()} bytes" in str(exc.value)

    def test_translation_is_circular_shift(self):
        grid = CartesianGrid(64, 16.0)
        rho0 = density_field(position_state_cartesian(make_state(n=2), grid))
        rho_a = density_field(position_state_cartesian(make_state(a=(2, 0, 0), n=2), grid))
        shift = int(round(2.0 / grid.dx))
        assert np.abs(np.roll(rho0, shift, axis=0) - rho_a).max() < 1e-12

    def test_tail_reaches_past_six_compton_lengths(self, ps5):
        # positive-energy states cannot be compactly supported
        rho = density_field(ps5)
        x = ps5.grid.axis()
        idx = int(np.argmin(np.abs(x - 5.9)))
        centre = ps5.grid.n_points // 2
        assert rho[idx, centre, centre] > 0.0


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [2, 5])
    def test_radial_matches_angular_average(self, plain_profile, n):
        state = make_state(n=n)
        ps = position_state_cartesian(state, CartesianGrid(128, 12.0))
        r = np.linspace(0.0, 4.0, 81)
        table = radial_density(plain_profile, n, RadialGrid(r))
        avg = angular_average(density_field(ps), ps.grid, r)
        rel = np.linalg.norm(avg - table.rho) / np.linalg.norm(table.rho)
        assert rel <= 1e-2

    def test_axis_profile_matches_radial(self, plain_profile, ps5):
        # density along a grid axis agrees with the radial table pointwise
        x = ps5.grid.axis()
        centre = ps5.grid.n_points // 2
        mask = (x >= 0.0) & (x <= 2.0)
        rho_axis = density_field(ps5)[mask, centre, centre]
        g0, g1 = radial_components(plain_profile, 5, x[mask])
        rho_radial = np.abs(g0) ** 2 + np.abs(g1) ** 2
        rel = np.abs(rho_axis - rho_radial).max() / rho_radial.max()
        assert rel <= 1e-2

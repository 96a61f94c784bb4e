"""Radial spherical-Bessel path, 3-D FFT path, and their agreement."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracloc.cli import FIGURE1_R_COUNT, FIGURE1_R_MAX
from diracloc.dynamics import evolve_free
from diracloc.observables import moments, momentum_moments
from diracloc.quadrature import BLOCK_POINTS, QuadratureError, _leggauss, gauss_legendre
from diracloc.spinor import SPIN_DOWN, SPIN_UP, spinor_layout
from diracloc.states import gaussian_profile, make_state
from grid_oracles import angular_average, sampled_psi
from harness import memory_probe
from radial_oracles import (
    gl_radial_density,
    momentum_space_delta_x,
    position_space_delta_x,
    scipy_spherical_j01,
    two_panel_delta_x,
    two_panel_probability,
)
from diracloc import transform
from diracloc.transform import (
    SLAB_BYTES_PER_POINT,
    CartesianGrid,
    GridError,
    _spherical_j01,
    density_field,
    grid_working_set,
    ifft_in_place,
    log_slope,
    physical_memory,
    position_state_cartesian,
    radial_components,
    radial_curve,
    slab_columns,
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
        g0, g1 = radial_components(plain_profile, 5, 0.0, 400, 0.1)
        assert g1 == 0.0
        assert g0.real > 0.0

    def test_heavy_mass_limit_reduces_to_scalar_transform(self, plain_profile):
        # with the spinor kernels replaced by their heavy-mass limits the
        # order-0 transform of the Gaussian envelope has a closed form
        n = 3
        p_max = n * plain_profile.cutoff()
        p, w = gauss_legendre(2048, 0.0, p_max)
        envelope = n**-1.5 * plain_profile(p / n, 0.0, 0.0)
        r = np.linspace(0.0, 3.0, 31)
        j0, _ = _spherical_j01(np.multiply.outer(r, p))
        got = np.sqrt(2.0 / np.pi) * (j0 @ (w * envelope * p * p))
        expected = n**1.5 * np.pi**-0.75 * np.exp(-(n * r) ** 2 / 2.0)
        assert np.abs(got - expected).max() < 1e-12

    @pytest.mark.parametrize("n, sigma_p", [(2, 0.5), (17, 1.3), (64, 2.0)])
    def test_shared_sin_cos_bessel_pair_is_spherical_jn(self, n, sigma_p):
        # figure1's 601 radii on [0, 6] against the default radial nodes,
        # x = 0 (the r = 0 row) and the x <= 1 corner included: the sin/cos
        # forms are scipy's to the bit, the j1 series at x <= 1 is within
        # 64 ulp of scipy (which is itself up to 44 ulp off the exact value
        # on these grids)
        from scipy.special import spherical_jn

        p, _ = gauss_legendre(2048, 0.0, n * gaussian_profile(sigma_p).cutoff())
        x = np.multiply.outer(np.linspace(0.0, 6.0, 601), p)
        j0, j1 = _spherical_j01(x)
        ref1 = spherical_jn(1, x)
        large = x > 1.0
        assert np.array_equal(j0.view(np.int64), spherical_jn(0, x).view(np.int64))
        assert np.array_equal(j1[large].view(np.int64), ref1[large].view(np.int64))
        assert np.all(np.abs(j1 - ref1)[~large] <= 64 * np.spacing(ref1[~large]))

    def test_j1_series_within_2_ulp_of_exact(self):
        # the exact oracle: the same series in Fraction at each float x, out
        # to a term below 2^-80 of the sum (the series alternates with
        # decreasing terms at x <= 1), rounded once
        def exact_j1(x):
            u = -Fraction(x) ** 2 / 2
            total, power, k = Fraction(0), Fraction(1), 0
            while True:
                term = power / (math.factorial(k) * math.prod(range(2 * k + 3, 0, -2)))
                total += term
                if abs(term) < total / 2**80:
                    return float(Fraction(x) * total)
                power *= u
                k += 1

        rng = np.random.default_rng(16)
        tiny = [5e-324, 1e-323, 2.0**-1022, np.nextafter(2.0**-1022, 1.0), 1e-300]
        x = np.concatenate([
            rng.uniform(0.0, 1.0, 2000), 10.0 ** rng.uniform(-320.0, 0.0, 1000),
            tiny, [np.nextafter(1.0, 0.0), 1.0],
        ])
        x = x[x > 0.0]
        _, j1 = _spherical_j01(x)
        ref = np.array([exact_j1(float(v)) for v in x])
        assert np.all(np.abs(j1 - ref) <= 2 * np.spacing(ref))

    @pytest.mark.parametrize("n, sigma_p", [(5, 1.0), (7, 1.0), (10, 1.0), (64, 2.0)])
    def test_density_matches_scipy_kernel(self, monkeypatch, n, sigma_p):
        # the j1 series moves figure1's curves at rounding level only
        profile = gaussian_profile(sigma_p)
        rho = radial_curve(profile, n, 6.0, 601).rho
        monkeypatch.setattr(transform, "_spherical_j01", scipy_spherical_j01)
        ref = radial_curve(profile, n, 6.0, 601).rho
        live = ref > 1e-300
        assert np.all(np.abs(rho - ref)[live] <= 1e-13 * ref[live])

    def test_step_halving_convergence(self, plain_profile):
        # the trapezoid rule converges geometrically: at h = 0.1 it is
        # already at rounding level, at h = 0.4 it is not
        r = np.linspace(0.0, 6.0, 61)
        g0a, g1a = radial_components(plain_profile, 7, r, 560, 0.1)
        g0b, g1b = radial_components(plain_profile, 7, r, 1120, 0.05)
        g0c, g1c = radial_components(plain_profile, 7, r, 140, 0.4)
        scale = g0b[0]
        assert np.abs(g0a - g0b).max() < 1e-14 * scale
        assert np.abs(g1a - g1b).max() < 1e-14 * scale
        assert np.abs(g0c - g0b).max() > 1e-10 * scale

    def test_even_nodes_are_the_doubled_step(self, plain_profile):
        # the coarse sums of the step-halving certificate are the rule of
        # step 2h itself, with no second kernel evaluation
        r = np.linspace(0.0, 0.05, 6)
        fine, coarse = transform._trapezoid_sums(plain_profile, 5, r, 1000, 0.04)
        assert np.allclose(fine, radial_components(plain_profile, 5, r, 1000, 0.04),
                           rtol=1e-15, atol=0.0)
        assert np.allclose(coarse, radial_components(plain_profile, 5, r, 500, 0.08),
                           rtol=1e-14, atol=0.0)

    def test_direct_sums_walk_bounded_blocks(self, plain_profile, monkeypatch):
        # more nodes than a block holds: the node runs split, the sums do not move
        r = np.linspace(0.0, 2.0, 9)
        whole = radial_components(plain_profile, 9, r, 3000, 0.03)
        seen = []
        kernel = transform._spherical_j01

        def spy(x):
            seen.append(x.size)
            return kernel(x)

        monkeypatch.setattr(transform, "BLOCK_POINTS", 1024)
        monkeypatch.setattr(transform, "_spherical_j01", spy)
        blocked = radial_components(plain_profile, 9, r, 3000, 0.03)
        assert max(seen) <= 1024 and len(seen) == 9 * 3
        assert np.abs(np.subtract(whole, blocked)).max() <= 1e-14 * whole[0][0]

    def test_asymmetric_profile_rejected(self):
        from diracloc.states import boosted_gaussian_profile

        prof = boosted_gaussian_profile((0.0, 0.0, 0.3))
        with pytest.raises(ValueError):
            radial_components(prof, 2, 1.0, 400, 0.1)

    def test_negative_radius_rejected(self, plain_profile):
        # a NaN radius would give a NaN row, an infinite one a NaN Bessel kernel
        for bad in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and >= 0"):
                radial_components(plain_profile, 2, [1.0, bad], 400, 0.1)


class TestMomentumMomentsDeltaX:
    """The spread of ``momentum_moments`` for the symmetric state against
    position-space quadratures of 4 pi r^4 rho on the radial path."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_matches_position_space_quadrature(self, plain_profile, n):
        expected = position_space_delta_x(plain_profile, n)
        assert momentum_moments(make_state(n=n)).delta_x == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n, sigma_p", [(32, 1.0), (46, 1.135)])
    def test_resolved_at_large_n(self, n, sigma_p):
        expected = two_panel_delta_x(gaussian_profile(sigma_p), n)
        delta_x = momentum_moments(make_state(n=n, sigma_p=sigma_p)).delta_x
        assert delta_x == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("n, sigma_p", [(200, 2.0), (500, 1.0)])
    def test_meets_momentum_space_and_figure1_references(self, n, sigma_p):
        # the 3-D product rule summed before read 1.2e-11 and 8.3e-11 off here
        delta_x = momentum_moments(make_state(n=n, sigma_p=sigma_p)).delta_x
        curve = radial_curve(gaussian_profile(sigma_p), n, FIGURE1_R_MAX, FIGURE1_R_COUNT, (1.0,))
        for expected in (momentum_space_delta_x(sigma_p, n), curve.delta_x):
            assert abs(delta_x / expected - 1.0) <= 1e-14


class TestRadialCurve:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 200),
        spread=st.floats(0.0, 1.0),
        r_max=st.floats(1.0, 20.0),
        r_count=st.integers(2, 201),
    )
    def test_table_matches_gauss_legendre_oracle(self, n, spread, r_max, r_count):
        # sigma_p on [0.5, 50] with n sigma_p <= 200, where 16384 Gauss-Legendre
        # nodes still resolve sin(p r) out to r = 20
        sigma_p = 0.5 * min(100.0, 400.0 / n) ** spread
        profile = gaussian_profile(sigma_p)
        curve = radial_curve(profile, n, r_max, r_count)
        ref = gl_radial_density(profile, n, np.linspace(0.0, r_max, r_count), 16384)
        assert np.abs(curve.rho - ref).max() <= 1e-13 * ref[0]
        assert abs(curve.norm - 1.0) <= 1e-13

    @pytest.mark.parametrize("n, sigma_p", [(5, 1.0), (64, 2.0), (100, 2.0), (5, 50.0)])
    def test_probability_matches_two_panel_oracle(self, n, sigma_p, monkeypatch):
        # certified with the step-halving bounds cut to 1e-14
        monkeypatch.setattr(transform, "TABLE_TOL", 1e-14)
        monkeypatch.setattr(transform, "PROBABILITY_TOL", 1e-14)
        profile = gaussian_profile(sigma_p)
        curve = radial_curve(profile, n, 6.0, 601, (1.0,))
        expected = two_panel_probability(profile, n, 1.0)
        assert curve.probabilities[0] == pytest.approx(expected, rel=1e-12)

    def test_halving_catches_an_aliased_rule(self, plain_profile, monkeypatch):
        # with no tail margin the rule's images reach back onto the table
        monkeypatch.setattr(transform, "TAIL_RADIUS", 0.0)
        monkeypatch.setattr(transform, "MIN_NODES", 1)
        with pytest.raises(QuadratureError,
                           match="^n = 5, sigma_p = 1: node-doubling disagreement"):
            radial_curve(plain_profile, 5, 6.0, 601)

    def test_oversized_rule_refused_before_allocating(self):
        # n sigma_p = 10^4 would need a 2^23-point transform
        with memory_probe() as mem, pytest.raises(QuadratureError, match="FFT of length"):
            radial_curve(gaussian_profile(50.0), 200, 6.0, 601)
        assert mem.peak < 1e6

    @pytest.mark.parametrize("r_max, radii", [
        (6.0, (-1.0,)), (6.0, (np.nan,)), (6.0, (1.0, np.inf)), (np.inf, ()),
    ])
    def test_bad_radius_refused_before_allocating(self, plain_profile, r_max, radii):
        # refused up front: past this point a negative radius reads as a halving
        # failure, a NaN one as a NaN probability, an infinite r_max overflows
        with memory_probe() as mem, pytest.raises(ValueError, match="finite and >= 0"):
            radial_curve(plain_profile, 5, r_max, 601, radii)
        assert mem.peak < 1e5

    def test_table_rows_match_direct_sums(self, plain_profile):
        # the FFT rows and the direct rows agree with direct sums at the same radii
        r = np.linspace(0.0, 6.0, 601)
        curve = radial_curve(plain_profile, 10, 6.0, 601)
        g0, g1 = radial_components(plain_profile, 10, r, 800, 0.1)  # nodes up to n cutoff
        assert np.abs(curve.rho - (g0 * g0 + g1 * g1)).max() <= 1e-13 * curve.rho[0]


class TestRadialCurveShape:
    """The shape of rho_n(r) from ``radial_curve``: norm, peak and tail."""

    def test_unit_norm_all_n(self, plain_profile):
        for n in (5, 7, 10):
            total = radial_curve(plain_profile, n, 20.0, 2, (20.0,)).probabilities[0]
            assert abs(total - 1.0) <= 1e-4

    def test_origin_density_increases_with_n(self, plain_profile):
        rho0 = [radial_curve(plain_profile, n, 6.0, 121).rho[0] for n in (5, 7, 10)]
        assert rho0[0] < rho0[1] < rho0[2]

    def test_probability_inside_compton_radius_increases(self, plain_profile):
        inside = [radial_curve(plain_profile, n, 1.0, 2, (1.0,)).probabilities[0] for n in (5, 10)]
        assert inside[0] < inside[1]

    def test_tail_everywhere_positive(self, plain_profile):
        # no compact support: the density keeps a strictly positive tail
        rho = radial_curve(plain_profile, 5, 10.0, 201).rho
        assert np.all(rho > 0.0)

    def test_tail_log_slope_negative(self, plain_profile):
        r = np.linspace(0.0, 8.0, 401)
        slope = log_slope(r, radial_curve(plain_profile, 5, 8.0, r.size).rho, 3.0, 6.0)
        assert slope < 0.0

    def test_table_norm_over_the_tail(self, plain_profile):
        # the norm's radius grid reaches 20/m past the table: no tail fit
        curve = radial_curve(plain_profile, 7, 6.0, 601, (6.0,))
        assert abs(curve.norm - 1.0) <= 1e-14
        assert 0.0 < 1.0 - curve.probabilities[0] < 1e-9


class TestCartesianGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            CartesianGrid(48, 16.0)
        with pytest.raises(ValueError):
            CartesianGrid(4, 16.0)
        with pytest.raises(ValueError):
            CartesianGrid(64, -1.0)
        # NaN passes "extent <= 0" and would give an all-NaN psi; inf overflows
        for extent in (np.nan, np.inf):
            with pytest.raises(ValueError, match="extent must be finite"):
                CartesianGrid(16, extent)

    def test_nyquist(self):
        grid = CartesianGrid(64, 16.0)
        assert grid.nyquist == pytest.approx(np.pi * 64 / 16.0)


def grid_norm(ps):
    """sqrt(sum rho dV) from the slab pass, as ``evolve_report`` takes it."""
    return np.sqrt(moments(ps).norm)


def nonzero_slots(psi, spin):
    """The three slots of a (4, ...) spinor of ``spin`` other than its zero one."""
    return np.delete(psi, spinor_layout(spin).zero, axis=0)


@pytest.mark.parametrize("n", [16, 64, 128])
def test_ifft_in_place_is_scipy_ifftn_to_the_bit(n):
    import scipy.fft  # the oracle only; the library loads no scipy.fft

    rng = np.random.default_rng(n)
    a = rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n))
    ref = scipy.fft.ifftn(a, axes=(1, 2, 3), norm="forward")
    ifft_in_place(a, (1, 2, 3))
    assert np.array_equal(a, ref)


class TestPositionState:
    def test_norm_unit_on_adequate_grid(self, ps5):
        assert abs(grid_norm(ps5) - 1.0) <= 1e-4

    def test_parseval(self, state5, ps5):
        assert abs(grid_norm(ps5) - state5.norm()) <= 1e-4

    def test_nyquist_violation_raises(self):
        with pytest.raises(GridError):
            position_state_cartesian(make_state(n=10), CartesianGrid(64, 16.0))

    def test_matches_numpy_ifftn(self):
        state = make_state(a=(0.5, -1.0, 0.25), v=(0.2, 0.0, -0.4), n=3)
        grid = CartesianGrid(64, 16.0)
        ref = sampled_psi(state, grid)
        psi = position_state_cartesian(state, grid).psi
        assert np.abs(psi - nonzero_slots(ref, SPIN_UP)).max() <= 1e-14 * np.abs(ref).max()

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
        assert not np.any(ref[spinor_layout(spin).zero])  # only a zero slot is dropped
        assert np.abs(psi - nonzero_slots(ref, spin)).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("spin", [SPIN_UP, SPIN_DOWN])
    def test_transform_holds_three_slots_and_one_slab(self, spin):
        # boosted, off-axis and evolved, so every scratch array of a slab is live
        grid = CartesianGrid(128, 12.0)
        state = evolve_free(make_state(a=(1.5, -1.0, 0.7), v=(0.3, -0.2, 0.5), spin=spin, n=3), 0.5)
        position_state_cartesian(state, grid)  # warm the caches outside the peak
        with memory_probe() as mem:
            ps = position_state_cartesian(state, grid)
        assert ps.psi.shape == (3, 128, 128, 128)
        assert mem.peak <= 48 * 128**3 + 256 * BLOCK_POINTS
        assert mem.peak <= grid_working_set(grid)

    def test_working_set_is_three_slots_plus_a_slab(self):
        # 256^3: one p2 column, 65536 cells, per slab; about 0.8 GB in all
        grid = CartesianGrid(256, 16.0)
        assert slab_columns(grid) == 1
        assert grid_working_set(grid) == 48 * 256**3 + SLAB_BYTES_PER_POINT * 256**2
        assert slab_columns(CartesianGrid(128)) * 128**2 == BLOCK_POINTS
        assert slab_columns(CartesianGrid(16)) == 16

    def test_memory_guard_refuses_before_allocating(self):
        grid = CartesianGrid(2048, 16.0)
        with memory_probe() as mem, pytest.raises(GridError) as exc:
            position_state_cartesian(make_state(n=1), grid)
        assert mem.peak < 2**20
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
        rho = radial_curve(plain_profile, n, 4.0, r.size).rho
        avg = angular_average(density_field(ps), ps.grid, r)
        rel = np.linalg.norm(avg - rho) / np.linalg.norm(rho)
        assert rel <= 1e-2

    def test_axis_profile_matches_radial(self, plain_profile, ps5):
        # density along a grid axis agrees with the radial table pointwise
        x = ps5.grid.axis()
        centre = ps5.grid.n_points // 2
        mask = (x >= 0.0) & (x <= 2.0)
        rho_axis = density_field(ps5)[mask, centre, centre]
        g0, g1 = radial_components(plain_profile, 5, x[mask], 400, 0.1)
        rho_radial = np.abs(g0) ** 2 + np.abs(g1) ** 2
        rel = np.abs(rho_axis - rho_radial).max() / rho_radial.max()
        assert rel <= 1e-2

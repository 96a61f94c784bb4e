"""Free evolution, causality over time, and the nonrelativistic suite."""

import numpy as np
import pytest

from diracloc.dynamics import (
    NRPacketParams,
    evolve_free,
    evolve_report,
    lightcone_leakage,
    nr_current,
    nr_density_analytic,
    nr_density_analytic_grid,
    nr_gaussian_grid,
    nr_gaussian_state,
    nr_green,
    nr_peak_density,
    nr_spectral_evolution,
    probability_outside,
)
from diracloc.observables import FourVectorDensity, mean_velocity_two_ways, moments
from diracloc.states import make_state
from diracloc.transform import CartesianGrid, density_field, position_state_cartesian


class TestEvolveFree:
    def test_zero_time_is_identity(self):
        state = make_state(n=3)
        assert evolve_free(state, 0.0) is state

    def test_norm_preserved_pointwise(self):
        state = make_state(n=3)
        later = evolve_free(state, 2.3)
        p = (0.7, -0.4, 1.9)
        assert np.abs(np.abs(later.spinor(*p)) - np.abs(state.spinor(*p))).max() < 1e-15

    def test_momentum_norm_machine_constant(self):
        state = make_state(n=5)
        norms = [evolve_free(state, t).norm() for t in (0.0, 0.5, 1.0)]
        assert max(abs(v - norms[0]) for v in norms) <= 1e-12

    def test_mean_velocity_constant_in_time(self):
        state = make_state(v=(0, 0, 0.3), n=4)
        values = [
            mean_velocity_two_ways(evolve_free(state, t))[1][2] for t in (0.0, 0.5, 1.0)
        ]
        assert max(abs(v - values[0]) for v in values) <= 1e-10

    def test_ehrenfest_drift(self):
        # <x>(t) - <x>(0) = t <xdot> on the grid
        state = make_state(v=(0, 0, 0.3), n=4)
        grid = CartesianGrid(128, 16.0)
        vel = mean_velocity_two_ways(state)[1]
        m0 = moments(position_state_cartesian(state, grid))
        for t in (0.5, 1.0):
            mt = moments(position_state_cartesian(evolve_free(state, t), grid))
            drift = mt.mean_x - m0.mean_x
            assert np.abs(drift - t * vel).max() <= 1e-4


class TestEvolutionReport:
    def test_report_fields(self):
        state = make_state(n=5)
        grid = CartesianGrid(64, 16.0)
        report, snaps = evolve_report(state, grid, (0.0, 0.5, 1.0), r0=3.0)
        assert report.times == [0.0, 0.5, 1.0]
        assert max(abs(v - 1.0) for v in report.momentum_norms) <= 1e-10
        spread = max(report.grid_norms) - min(report.grid_norms)
        assert spread <= 1e-10  # exact phase: grid norm constant in t
        assert max(report.causality_margins) <= 1e-10
        assert report.leakages[0] == 0.0
        assert max(report.leakages) <= 1e-3
        assert report.delta_x[0] < report.delta_x[1] < report.delta_x[2]
        assert len(snaps) == 3

    def test_one_field_pass_per_snapshot(self, monkeypatch):
        import diracloc.observables as observables

        calls = {"density_field": 0, "current": 0}

        def counted(name):
            func = getattr(observables, name)

            def wrapper(ps):
                calls[name] += 1
                return func(ps)

            return wrapper

        for name in calls:
            monkeypatch.setattr(observables, name, counted(name))
        times = (0.0, 0.5, 1.0)
        _, fields = evolve_report(make_state(n=2), CartesianGrid(32, 16.0), times)
        assert calls == {"density_field": len(times), "current": len(times)}
        assert [f.time for f in fields] == list(times)
        assert all(isinstance(f, FourVectorDensity) for f in fields)

    def test_leakage_cone_grows_from_first_time(self):
        state = make_state(v=(0, 0, 0.3), n=2)
        grid = CartesianGrid(32, 12.0)
        times, r0 = (0.5, 1.0), 3.0
        report, fields = evolve_report(state, grid, times, r0=r0)
        rho0, rho1 = (f.rho for f in fields)
        expected = probability_outside(rho1, grid, r0 + 0.5) - probability_outside(rho0, grid, r0)
        assert report.leakages[0] == 0.0
        assert report.leakages[1] == expected
        assert report.leakages[1] == lightcone_leakage(rho0, rho1, grid, r0, 0.5)

    def test_time_before_first_rejected(self):
        with pytest.raises(ValueError):
            evolve_report(make_state(n=2), CartesianGrid(16, 8.0), (1.0, 0.5))

    @pytest.mark.parametrize("times", [(0.0,), (0.0, 0.5, 1.0, 1.5)])
    def test_one_norm_and_no_full_grid_sampling(self, monkeypatch, times):
        import diracloc.spinor as spinor
        from diracloc.states import MomentumState

        grid = CartesianGrid(16, 8.0)
        norms, shapes = [], []
        norm, phi, components = (
            MomentumState.norm, MomentumState.spinor, spinor.eigenspinor_components
        )

        def counted_norm(self, *args, **kwargs):
            norms.append(self)
            return norm(self, *args, **kwargs)

        def shaped_phi(self, px, py, pz):
            shapes.append(np.broadcast(px, py, pz).shape)
            return phi(self, px, py, pz)

        def shaped_components(px, py, pz, spin=spinor.SPIN_UP):
            shapes.append(np.broadcast(px, py, pz).shape)
            return components(px, py, pz, spin)

        monkeypatch.setattr(MomentumState, "norm", counted_norm)
        monkeypatch.setattr(MomentumState, "spinor", shaped_phi)
        monkeypatch.setattr(spinor, "eigenspinor_components", shaped_components)
        report, _ = evolve_report(make_state(n=2), grid, times)
        assert len(norms) == 1
        assert report.momentum_norms == [norm(make_state(n=2))] * len(times)
        assert (grid.n_points,) * 3 not in shapes

    def test_report_serializes(self):
        import json

        state = make_state(n=2)
        report, _ = evolve_report(state, CartesianGrid(64, 16.0), (0.0,), r0=3.0)
        payload = json.dumps(report.as_dict())
        assert "momentum_norms" in payload


class TestLightcone:
    def test_zero_time_zero_leakage(self):
        grid = CartesianGrid(32, 8.0)
        rho = np.ones((32, 32, 32))
        assert lightcone_leakage(rho, rho, grid, 2.0, 0.0) == 0.0

    def test_negative_time_rejected(self):
        grid = CartesianGrid(32, 8.0)
        rho = np.ones((32, 32, 32))
        with pytest.raises(ValueError):
            lightcone_leakage(rho, rho, grid, 2.0, -0.1)

    def test_localized_state_within_grid_bound(self):
        state = make_state(n=5)
        grid = CartesianGrid(64, 16.0)
        rho0 = density_field(position_state_cartesian(state, grid))
        rho1 = density_field(position_state_cartesian(evolve_free(state, 1.0), grid))
        assert lightcone_leakage(rho0, rho1, grid, 3.0, 1.0) <= 1e-3

    def test_probability_outside_moves_between_lattice_shells(self, ps5):
        # |x|^2 is a multiple of dx^2 = 0.0088, so no cell centre has 3 < |x| <= 3.001
        rho = density_field(ps5)
        assert probability_outside(rho, ps5.grid, 3.001) < probability_outside(rho, ps5.grid, 3.0)

    def test_short_step_does_not_leak(self):
        # the cone grows by 0.0073, less than one lattice shell; a sharp cell
        # mask read this as leakage 2.3e-3
        state = make_state(a=(-1.700319, -0.167557, 1.115762), n=5)
        report, _ = evolve_report(state, CartesianGrid(64, 16.0), (0.9817, 0.989))
        assert report.leakages[1] <= 0.0

    def test_probability_outside_monotone_in_radius(self, ps5):
        rho = density_field(ps5)
        outs = [probability_outside(rho, ps5.grid, r) for r in (1.0, 2.0, 3.0)]
        assert outs[0] > outs[1] > outs[2] >= 0.0


class TestNRPackets:
    def test_normalized_on_grid(self):
        grid = CartesianGrid(128, 16.0)
        for n in (1, 3):
            params = NRPacketParams(n=n, sigma=1.0, v=(0, 0, 0.4))
            chi = nr_gaussian_grid(params, grid)
            assert np.sum(np.abs(chi) ** 2) * grid.cell_volume == pytest.approx(
                1.0, abs=1e-10
            )

    def test_grid_sampling_matches_pointwise(self):
        grid = CartesianGrid(16, 8.0)
        params = NRPacketParams(n=2, sigma=1.0, a=(0.5, 0, 0), v=(0.1, 0.2, 0.3))
        chi = nr_gaussian_grid(params, grid)
        x = grid.axis()
        pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1)
        assert np.abs(chi - nr_gaussian_state(params, pts)).max() < 1e-14

    def test_spread_narrows_with_n(self):
        q = np.zeros((51, 3))
        q[:, 2] = np.linspace(-3, 3, 51)
        d1 = np.abs(nr_gaussian_state(NRPacketParams(n=1), q)) ** 2
        d4 = np.abs(nr_gaussian_state(NRPacketParams(n=4), q)) ** 2
        # peak grows like n^3, width shrinks like sigma/n
        assert d4.max() == pytest.approx(64 * d1.max(), rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NRPacketParams(sigma=0.0)
        with pytest.raises(ValueError):
            NRPacketParams(n=0)


class TestNRCurrent:
    def test_real_wavefunction_has_no_current(self):
        grid = CartesianGrid(32, 8.0)
        chi = nr_gaussian_grid(NRPacketParams(n=1), grid)
        assert np.abs(nr_current(chi.real.astype(complex), grid.dx)).max() == 0.0

    def test_packet_current_is_v_times_density(self):
        grid = CartesianGrid(64, 12.0)
        params = NRPacketParams(n=1, v=(0, 0, 0.5))
        chi = nr_gaussian_grid(params, grid)
        j = nr_current(chi, grid.dx)
        target = np.zeros_like(j)
        target[2] = 0.5 * np.abs(chi) ** 2
        assert np.abs(j - target).max() <= 1e-2  # O(dq^2) stencil error

    def test_second_order_convergence(self):
        errs = []
        for pts in (64, 128):
            grid = CartesianGrid(pts, 12.0)
            chi = nr_gaussian_grid(NRPacketParams(n=1, v=(0, 0, 0.5)), grid)
            j = nr_current(chi, grid.dx)
            target = np.zeros_like(j)
            target[2] = 0.5 * np.abs(chi) ** 2
            errs.append(np.abs(j - target).max())
        assert np.log2(errs[0] / errs[1]) >= 1.8

    def test_plane_wave_current(self):
        # interior points: j = k |chi|^2 with O(dq^2) dispersion error
        grid = CartesianGrid(32, 6.0)
        x = grid.axis()
        k = 1.2
        chi = np.exp(1j * k * x)[None, None, :] * np.ones((32, 32, 32))
        j = nr_current(chi, grid.dx)
        interior = j[2][8:-8, 8:-8, 8:-8]
        expected = np.sin(k * grid.dx) / grid.dx  # centered-difference symbol
        assert np.abs(interior - expected).max() < 1e-12
        assert abs(expected - k) < k**3 * grid.dx**2 / 6 * 1.01


class TestNRAnalyticDensity:
    def test_reduces_to_initial_density(self):
        params = NRPacketParams(n=2, sigma=1.0, a=(0.3, 0, 0), v=(0, 0, 0.4))
        q = np.random.default_rng(5).normal(size=(40, 3))
        chi0 = nr_gaussian_state(params, q)
        assert np.abs(nr_density_analytic(params, q, 0.0) - np.abs(chi0) ** 2).max() < 1e-12

    def test_peak_value_and_location(self):
        params = NRPacketParams(n=2, sigma=1.0, a=(1.0, 0, 0), v=(0, 0, 0.5))
        t = 0.7
        centre = np.array([1.0, 0.0, 0.35])
        peak = nr_density_analytic(params, centre, t)
        assert peak == pytest.approx(nr_peak_density(params, t), rel=1e-12)
        assert nr_density_analytic(params, centre + [0.2, 0, 0], t) < peak

    def test_matches_spectral_evolution(self):
        grid = CartesianGrid(128, 20.0)
        params = NRPacketParams(n=1, sigma=1.0, a=(0.5, 0, 0), v=(0, 0, 0.3))
        chi0 = nr_gaussian_grid(params, grid)
        for t in (0.1, 1.0):
            chit = nr_spectral_evolution(chi0, grid, t)
            exact = nr_density_analytic_grid(params, grid, t)
            assert np.abs(np.abs(chit) ** 2 - exact).max() <= 1e-6

    def test_width_strictly_increasing(self):
        grid = CartesianGrid(64, 24.0)
        params = NRPacketParams(n=2, sigma=1.0)
        x = grid.axis()
        widths = []
        for t in (0.0, 0.5, 1.0, 2.0):
            rho = nr_density_analytic_grid(params, grid, t)
            total = rho.sum()
            x2 = (
                np.sum(rho * (x**2)[:, None, None])
                + np.sum(rho * (x**2)[None, :, None])
                + np.sum(rho * (x**2)[None, None, :])
            )
            widths.append(np.sqrt(x2 / total))
        assert widths[0] < widths[1] < widths[2] < widths[3]

    def test_packet_spread_constant(self):
        # Delta_q at t = 0 is sqrt(3) sigma / (n sqrt(2))
        params = NRPacketParams(n=4, sigma=1.0)
        grid = CartesianGrid(64, 8.0)
        rho = nr_density_analytic_grid(params, grid, 0.0)
        x = grid.axis()
        x2 = (
            np.sum(rho * (x**2)[:, None, None])
            + np.sum(rho * (x**2)[None, :, None])
            + np.sum(rho * (x**2)[None, None, :])
        ) / rho.sum()
        assert np.sqrt(x2) == pytest.approx(np.sqrt(3) / (4 * np.sqrt(2)), rel=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            nr_density_analytic(NRPacketParams(), np.zeros(3), -0.5)


class TestNRGreen:
    def test_constant_modulus(self):
        q = np.random.default_rng(3).normal(size=(30, 3))
        g = nr_green(q, (0.2, 0, 0), 0.8)
        assert np.abs(np.abs(g) ** 2 - (2 * np.pi * 0.8) ** -3).max() < 1e-16

    def test_short_time_divergence(self):
        g1 = np.abs(nr_green(np.zeros(3), (1, 0, 0), 0.1))
        g2 = np.abs(nr_green(np.zeros(3), (1, 0, 0), 0.4))
        assert g1 / g2 == pytest.approx(8.0, rel=1e-12)  # t^(-3/2) scaling

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            nr_green(np.zeros(3), np.zeros(3), 0.0)

    def test_kernel_propagates_packet(self):
        # direct Riemann convolution against the sampled packet reproduces
        # the spectral evolution at probe grid points
        grid = CartesianGrid(128, 14.0)
        params = NRPacketParams(n=1, sigma=1.0, a=(0.5, 0, 0), v=(0, 0, 0.3))
        chi0 = nr_gaussian_grid(params, grid)
        t = 1.0
        spec = nr_spectral_evolution(chi0, grid, t)
        x = grid.axis()
        centre = grid.n_points // 2
        X, Y, Z = x[:, None, None], x[None, :, None], x[None, None, :]
        worst = 0.0
        for i in range(24, 104, 8):
            pt = np.array([0.0, 0.0, x[i]])
            d2 = (pt[0] - X) ** 2 + (pt[1] - Y) ** 2 + (pt[2] - Z) ** 2
            kernel = (2 * np.pi * t) ** -1.5 * np.exp(-0.75j * np.pi) * np.exp(
                1j * d2 / (2 * t)
            )
            value = np.sum(kernel * chi0) * grid.cell_volume
            worst = max(worst, abs(value - spec[centre, centre, i]))
        assert worst <= 1e-4

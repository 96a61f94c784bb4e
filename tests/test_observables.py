"""Density, current, moments, velocity identity, overlaps and R_n."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracloc import observables, quadrature
from diracloc.dynamics import probability_outside
from diracloc.observables import (
    _margin,
    _rn_integral,
    convolution_Rn,
    current,
    mean_velocity_two_ways,
    moments,
    momentum_moments,
    overlap,
    overlap_quadrature,
    position_mean_from_momentum,
    snapshot_pass,
)
from diracloc.quadrature import BLOCK_POINTS, QuadratureError, spherical_rule
from diracloc.spinor import (
    ALPHA,
    I4,
    SPIN_DOWN,
    SPIN_UP,
    bilinear_density,
    eigenspinor_components,
    energy_xyz,
    packed_current,
    spin_eigenspinor,
    spinor_layout,
)
from diracloc.states import (
    MomentumProfile,
    MomentumState,
    ProfileError,
    boosted_gaussian_profile,
    check_profile_conditions,
    make_state,
)
from diracloc.transform import (
    MASS_TOL,
    CartesianGrid,
    PositionState,
    density_field,
    position_state_cartesian,
)
from grid_oracles import causality_margin, density_fourier, field_moments
from harness import memory_probe
from momentum_oracles import (
    a_n_limit,
    bilinear_current,
    bilinear_numerator,
    einsum_mean_velocity,
    finite_difference_moments,
    on_oracle_rule,
    pointwise_overlap,
    pointwise_rn_integral,
    spinor_norm,
    z_axis_rn,
)


def packed(spinor, spin):
    """PositionState slots of a (4, ...) spinor of ``spin``'s layout: the
    three slots other than the zero one, in slot order."""
    layout = spinor_layout(spin)
    assert not np.any(spinor[layout.zero])
    return np.delete(spinor, layout.zero, axis=0)


def tiny_state(spinor_value, spin=SPIN_UP, n_points=8, extent=4.0):
    """PositionState with one nonzero sample, a 4-spinor of ``spin``'s
    layout, at the grid centre."""
    grid = CartesianGrid(n_points, extent)
    psi = np.zeros((4, n_points, n_points, n_points), dtype=complex)
    c = n_points // 2
    psi[:, c, c, c] = spinor_value
    return PositionState(grid=grid, psi=packed(psi, spin), layout=spinor_layout(spin))


def einsum_current(ps):
    """Reference current: the full 4 x 4 contraction psi^dagger alpha_i psi
    of the whole spinor, its zero slot restored."""
    psi = np.insert(ps.psi, ps.layout.zero, 0.0, axis=0)
    return np.einsum("a...,iab,b...->i...", psi.conj(), ALPHA, psi).real


class TestDensityAndCurrent:
    def test_unit_sample_density(self):
        ps = tiny_state([1.0, 0.0, 0.0, 0.0])
        rho = density_field(ps)
        c = ps.grid.n_points // 2
        assert rho[c, c, c] == 1.0
        assert np.sum(rho) == 1.0

    def test_rest_spinor_carries_no_current(self):
        for rest, spin in (([1.0, 0.0, 0.0, 0.0], SPIN_UP), ([0.0, 1j, 0.0, 0.0], SPIN_DOWN)):
            assert np.abs(current(tiny_state(rest, spin))).max() == 0.0

    def test_closed_form_current_matches_einsum_on_random_psi(self):
        rng = np.random.default_rng(20240601)
        grid = CartesianGrid(16, 4.0)
        shape = (3, 16, 16, 16)
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for spin in (SPIN_UP, SPIN_DOWN):
            ps = PositionState(grid=grid, psi=psi, layout=spinor_layout(spin))
            scale = density_field(ps).max()
            assert np.abs(current(ps) - einsum_current(ps)).max() <= 1e-14 * scale

    @pytest.mark.parametrize("spin", [SPIN_UP, SPIN_DOWN])
    def test_packed_bilinears_equal_four_slot_forms(self, spin):
        # the zero slot adds nothing, to the bit, to either bilinear, and the
        # closed-form current reads the whole spinor and its slots alike
        rng = np.random.default_rng(7)
        shape = (3, 4, 32)
        slots = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        layout = spinor_layout(spin)
        spinor = np.insert(slots, layout.zero, 0.0, axis=0)
        assert np.array_equal(bilinear_density(slots), bilinear_density(spinor))
        assert np.array_equal(packed_current(spinor, layout), packed_current(slots, layout))
        assert np.array_equal(packed_current(spinor, layout), bilinear_current(spinor))

    def test_closed_form_current_matches_einsum_on_state(self, ps5):
        scale = density_field(ps5).max()
        assert np.abs(current(ps5) - einsum_current(ps5)).max() <= 1e-14 * scale

    def test_constant_eigenspinor_current_ratio(self):
        # a pointwise eigenspinor sample has j/rho = p/E, the group velocity
        p = np.array([0.6, -0.2, 1.1])
        ps = tiny_state(spin_eigenspinor(p))
        c = ps.grid.n_points // 2
        ratio = current(ps)[:, c, c, c] / density_field(ps)[c, c, c]
        from diracloc.spinor import energy

        assert np.abs(ratio - p / energy(p)).max() < 1e-14

    def test_density_integrates_to_one(self, ps5):
        assert np.sum(density_field(ps5)) * ps5.grid.cell_volume == pytest.approx(1.0, abs=1e-4)

    def test_cauchy_schwarz_pointwise(self, ps5):
        speed = np.sqrt(np.sum(current(ps5) ** 2, axis=0))
        assert np.all(speed <= density_field(ps5) + 1e-10)


class TestMoments:
    def test_symmetric_state_centred(self, ps5):
        m = moments(ps5)
        assert np.abs(m.mean_x).max() <= 1e-6
        assert np.abs(m.mean_velocity).max() <= 1e-6

    def test_precomputed_field_gives_same_moments(self, ps5):
        # the slab pass against whole-field sums over density_field and current
        norm, mean, spread, velocity = field_moments(ps5.grid, density_field(ps5), current(ps5))
        m = moments(ps5)
        assert m.norm == pytest.approx(norm, rel=1e-14)
        assert m.delta_x == pytest.approx(spread, rel=1e-14)
        assert np.abs(m.mean_x - mean).max() <= 1e-14 * spread
        assert np.abs(m.mean_velocity - velocity).max() <= 1e-14 * np.abs(velocity).max()

    def test_no_grid_sized_temporary(self, ps5):
        # 128^3: one real N^3 array is 16.8 MB; the pass keeps slab-sized ones
        with memory_probe() as mem:
            moments(ps5)
        assert mem.peak <= 128 * BLOCK_POINTS < 8 * ps5.grid.n_points**3

    def test_translation_covariance(self):
        grid = CartesianGrid(64, 16.0)
        m0 = moments(position_state_cartesian(make_state(n=2), grid))
        m1 = moments(position_state_cartesian(make_state(a=(1, 0, 0), n=2), grid))
        assert np.abs(m1.mean_x - [1.0, 0.0, 0.0]).max() <= 1e-6
        assert abs(m1.delta_x - m0.delta_x) <= 1e-6

    def test_translation_covariance_larger_n(self):
        # at n = 4 the default grid is Nyquist-marginal; the shift still
        # holds at the acceptance tolerance
        grid = CartesianGrid(64, 16.0)
        m1 = moments(position_state_cartesian(make_state(a=(1, 0, 0), n=4), grid))
        assert np.abs(m1.mean_x - [1.0, 0.0, 0.0]).max() <= 1e-4

    def test_spread_decreases_with_n(self):
        grid = CartesianGrid(64, 16.0)
        spreads = [
            moments(position_state_cartesian(make_state(n=n), grid)).delta_x
            for n in (2, 4)
        ]
        assert spreads[1] < spreads[0]

    def test_grid_spread_matches_momentum_form(self):
        state = make_state(n=4)
        grid_dx = moments(position_state_cartesian(state, CartesianGrid(64, 16.0))).delta_x
        assert grid_dx == pytest.approx(momentum_moments(state).delta_x, rel=1e-2)

    def test_mean_position_consistent_with_momentum_form(self):
        state = make_state(a=(1.0, 0.0, 0.0), n=4)
        ps = position_state_cartesian(state, CartesianGrid(64, 16.0))
        grid_mean = moments(ps).mean_x
        momentum_mean = position_mean_from_momentum(state)
        assert np.abs(grid_mean - momentum_mean).max() <= 1e-4

    def test_mean_position_of_fast_off_axis_state_matches_grid(self):
        state = replace(make_state(a=(0.5, -0.3, 1.0), v=(0.6, 0.6, 0.5), n=2), time=1.0)
        grid_mean = moments(position_state_cartesian(state, CartesianGrid(128, 16.0))).mean_x
        assert np.abs(grid_mean - position_mean_from_momentum(state)).max() <= 1e-8


class TestSnapshotPass:
    """One slab pass against oracles built on whole (rho, j) fields."""

    @pytest.mark.parametrize("n_points", [32, 64])
    @pytest.mark.parametrize("spin", [SPIN_UP, SPIN_DOWN])
    def test_matches_whole_fields(self, n_points, spin):
        state = make_state(a=(0.6, -0.9, 0.4), v=(0.35, -0.3, 0.45), spin=spin, n=2)
        ps = position_state_cartesian(replace(state, time=0.7), CartesianGrid(n_points, 12.0))
        rho, j = density_field(ps), current(ps)
        snap = snapshot_pass(ps, radius=2.5)

        norm, mean, spread, velocity = field_moments(ps.grid, rho, j)
        m = snap.moments
        assert m.norm == pytest.approx(norm, rel=1e-14)
        assert m.delta_x == pytest.approx(spread, rel=1e-14)
        assert np.abs(m.mean_x - mean).max() <= 1e-14 * np.abs(mean).max()
        assert np.abs(m.mean_velocity - velocity).max() <= 1e-14 * np.abs(velocity).max()
        assert snap.causality_margin == pytest.approx(causality_margin(rho, j), rel=1e-14)
        outside = probability_outside(rho, ps.grid, 2.5)
        assert snap.outside == pytest.approx(outside, rel=1e-14)
        c = n_points // 2
        expected = np.vstack([rho[:, c, c], j[:, :, c, c]])
        assert np.abs(snap.axis_slice - expected).max() <= 1e-14 * rho.max()

    def test_outside_needs_a_radius(self, ps5):
        # without a radius there is no sphere, so no probability outside it
        assert snapshot_pass(ps5).outside is None


class TestMeanVelocity:
    def test_symmetric_state_at_rest(self):
        sf, cf = mean_velocity_two_ways(make_state(n=4))
        assert np.abs(sf).max() <= 1e-10
        assert np.abs(cf).max() <= 1e-10

    @pytest.mark.parametrize(
        "v", [(0, 0, 0), (0, 0, 0.3), (0.2, 0, 0.1), (0, 0.45, 0), (0.1, 0.1, 0.1)]
    )
    def test_identity_between_forms(self, v):
        sf, cf = mean_velocity_two_ways(make_state(v=v, n=6))
        assert np.abs(sf - cf).max() <= 1e-8

    @pytest.mark.parametrize("spin", [SPIN_UP, SPIN_DOWN])
    def test_spinor_form_matches_alpha_contraction(self, spin):
        state = make_state(a=(0.6, -0.9, 0.4), v=(0.35, -0.3, 0.45), spin=spin, n=3)
        sf, _ = mean_velocity_two_ways(state)
        assert np.abs(sf - einsum_mean_velocity(state)).max() <= 1e-15

    def test_fast_state_along_x_is_the_rotated_state_along_z(self):
        # rotation carrying z onto x: the rule follows the envelope centre,
        # so both states are integrated on one rule about their own axis
        turn = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        along_x = mean_velocity_two_ways(make_state(v=(0.99, 0.0, 0.0)))
        along_z = mean_velocity_two_ways(make_state(v=(0.0, 0.0, 0.99)))
        for got, rotated in zip(along_x, along_z):
            assert np.abs(got - turn @ rotated).max() <= 1e-13

    def test_converges_to_target(self):
        sf, cf = mean_velocity_two_ways(make_state(v=(0, 0, 0.3), n=10))
        assert np.abs(sf - [0, 0, 0.3]).max() <= 0.02
        assert np.abs(cf - [0, 0, 0.3]).max() <= 0.02

    def test_grid_current_integral_approaches_target(self):
        # integral of j3 over space tends to the labelled velocity
        vals = []
        for n in (4, 8):
            state = make_state(v=(0, 0, 0.5), n=n)
            ps = position_state_cartesian(state, CartesianGrid(128, 12.0))
            vals.append(moments(ps).mean_velocity[2])
        assert abs(vals[1] - 0.5) < abs(vals[0] - 0.5)
        assert abs(vals[1] - 0.5) < 5e-3


class TestOverlap:
    def test_self_overlap_is_one(self):
        state = make_state(n=3)
        assert overlap(state, state) == pytest.approx(1.0, abs=1e-12)
        assert overlap_quadrature(state, state) == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        spins=st.lists(st.sampled_from((SPIN_UP, SPIN_DOWN)), min_size=2, max_size=2),
        ns=st.tuples(st.integers(1, 64), st.integers(1, 64)),
        sigma_ps=st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
        a2=st.tuples(*[st.floats(-5.0, 5.0) for _ in range(3)]),
    )
    def test_bounded_by_one_and_exactly_one_on_itself(self, spins, ns, sigma_ps, a2):
        # Cauchy-Schwarz for unit states: the width-ratio prefactor is
        # exactly 1 for equal widths and at most 1 for any
        s1 = make_state(spin=spins[0], n=ns[0], sigma_p=sigma_ps[0])
        s2 = make_state(a=a2, spin=spins[1], n=ns[1], sigma_p=sigma_ps[1])
        assert overlap(s1, s1) == 1.0
        assert abs(overlap(s1, s2)) <= 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma_p, refused", [
        (1e-200, True), (1e-110, True), (np.nextafter(2.0**-340, 0.0), True),
        (2.0**-340, False), (1e-100, False), (1e120, True), (1e200, True),
    ])
    def test_extreme_widths_are_finite_or_refused(self, sigma_p, refused):
        # a width sigma_p outside [2^-340, 2^255] is refused where the profile
        # is built, before the peak A^2 / n^3 of F^2 overflows; inside it the
        # closed form is finite where A1 A2 (2 pi W)^(3/2) would read inf * 0
        if refused:
            with pytest.raises(ProfileError, match="envelope width"):
                make_state(n=5, sigma_p=sigma_p)
        else:
            s1 = make_state(n=5, sigma_p=sigma_p)
            s2 = make_state(a=(2.0, 0.0, 0.0), n=5, sigma_p=sigma_p)
            assert overlap(s1, s1) == 1.0
            assert overlap(s1, s2) == 1.0  # W |a1 - a2|^2 / 2 underflows to 0

    def test_width_past_the_bound_at_large_n_is_refused(self):
        # sigma_p = 2^250 is a valid profile, but n sigma_p = 2^256 is not
        s = make_state(n=64, sigma_p=2.0**250)
        with pytest.raises(ProfileError, match="envelope width"):
            overlap(s, s)

    def test_opposite_spin_orthogonal(self):
        up = make_state(n=3)
        down = make_state(n=3, spin=SPIN_DOWN)
        assert abs(overlap_quadrature(up, down)) <= 1e-10

    def test_translation_phase(self):
        # center shift k != 0 contributes the phase exp(i n k . delta)
        s1 = make_state(v=(0, 0, 0.4), n=2)
        s2 = make_state(a=(0, 0, 1.0), v=(0, 0, 0.4), n=2)
        closed = overlap(s1, s2)
        brute = overlap_quadrature(s1, s2)
        assert abs(closed - brute) <= 1e-9
        assert abs(closed.imag) > 0.0

    def test_opposite_spin_auto_is_exact_zero(self):
        # u_up^dagger u_down = 0 pointwise: any profiles, points and times
        up = make_state(a=(0.3, 0, 0), v=(0.2, -0.1, 0.3), n=2, sigma_p=0.8)
        down = replace(make_state(a=(0, 1, 0), v=(0, 0.5, 0), spin=SPIN_DOWN, n=3), time=0.4)
        assert overlap(up, down) == 0j
        assert overlap(down, up) == 0j

    def test_different_profiles_match_quadrature(self):
        # n, sigma_p and centre all differ between the two states
        s1 = make_state(v=(0.3, 0.1, -0.2), n=2, sigma_p=0.8)
        s2 = make_state(a=(0.5, 1.0, -0.3), v=(-0.2, 0.4, 0.1), n=3, sigma_p=1.2)
        closed = overlap(s1, s2)
        assert abs(closed - overlap_quadrature(s1, s2)) <= 1e-12
        assert overlap(s2, s1) == pytest.approx(closed.conjugate(), abs=1e-16)

    @pytest.mark.parametrize("spin", [SPIN_UP, SPIN_DOWN])
    def test_quadrature_resolves_unequal_widths(self, spin):
        # widths n sigma_p of 4.17 and 0.79: the rule sits on the product
        # Gaussian, not on the union of the two states' boxes
        s1 = make_state(v=(0.38, 0.21, 0.63), spin=spin, n=3, sigma_p=1.389)
        s2 = make_state(v=(-0.13, -0.66, -0.33), spin=spin, n=1, sigma_p=0.794)
        assert abs(overlap_quadrature(s1, s2) - overlap(s1, s2)) <= 1e-12

    @pytest.mark.parametrize("spin", [SPIN_UP, SPIN_DOWN], ids=["up", "down"])
    def test_same_spin_at_different_times_is_refused(self, spin, monkeypatch):
        # only one instant is covered; the refusal comes before any node is built
        def refuse(*args):
            raise AssertionError("nodes built")

        monkeypatch.setattr(observables, "gauss_legendre", refuse)
        s1 = make_state(spin=spin, n=2)
        s2 = replace(make_state(a=(0.5, 0, 0), spin=spin, n=2), time=0.3)
        for reduce in (overlap, overlap_quadrature):
            with pytest.raises(ValueError, match=r"t1 = 0\.0, t2 = 0\.3"):
                reduce(s1, s2)

    def test_quadrature_refuses_opposite_spins_at_different_times(self):
        # overlap gives their exact 0 (test_opposite_spin_auto_is_exact_zero)
        up = make_state(n=2)
        down = replace(make_state(spin=SPIN_DOWN, n=2), time=0.4)
        with pytest.raises(ValueError, match=r"t1 = 0\.0, t2 = 0\.4"):
            overlap_quadrature(up, down)

    @pytest.mark.parametrize("time", [0.0, 0.7])
    @pytest.mark.parametrize("pair, expected", [
        ((dict(n=3), dict(n=3)), 1 + 0j),
        ((dict(v=(0, 0, 0.4), n=2), dict(a=(0, 0, 1.0), v=(0, 0, 0.4), n=2)),
         0.15657387159806593 - 0.3328962390436472j),
        ((dict(v=(0.3, 0.1, -0.2), n=2, sigma_p=0.8),
          dict(a=(0.5, 1.0, -0.3), v=(-0.2, 0.4, 0.1), n=3, sigma_p=1.2)),
         0.08294209065879299 - 0.08755758289821852j),
        ((dict(v=(0.38, 0.21, 0.63), n=3, sigma_p=1.389),
          dict(v=(-0.13, -0.66, -0.33), n=1, sigma_p=0.794)),
         0.06653886047865357 + 0j),
        ((dict(v=(0.38, 0.21, 0.63), spin=SPIN_DOWN, n=3, sigma_p=1.389),
          dict(v=(-0.13, -0.66, -0.33), spin=SPIN_DOWN, n=1, sigma_p=0.794)),
         0.06653886047865357 + 0j),
    ], ids=["self", "translation", "profiles", "widths-up", "widths-down"])
    def test_equal_times_keep_the_closed_form_values(self, pair, expected, time):
        # closed-form values to a few ulp (bit identity is the output-identity
        # tool's job); at equal times exp(-i E t) cancels
        s1, s2 = (replace(make_state(**kwargs), time=time) for kwargs in pair)
        assert overlap(s1, s2) == pytest.approx(expected, rel=1e-15, abs=1e-16)

    def test_quadrature_memory_is_block_sized(self):
        # orders 192/187/187: one run of the first axis is one node, 35 k points
        s1 = make_state(n=2)
        s2 = make_state(a=(10.5, 10, 10), n=2)
        assert [order for order, _, _ in observables._overlap_axes(s1, s2)] == [192, 187, 187]
        overlap_quadrature(s1, s2)  # Gauss-Legendre nodes cached outside the measurement
        with memory_probe() as mem:
            overlap_quadrature(s1, s2)
        assert mem.peak <= 8e6

    def test_quadrature_samples_no_spinor_or_envelope(self, monkeypatch):
        # the scalar parts ride on the axis weights; only u(p) and E(p) are per point
        def refuse(*args):
            raise AssertionError("per-point spinor or envelope")

        monkeypatch.setattr(MomentumState, "spinor", refuse)
        monkeypatch.setattr(MomentumState, "envelope", refuse)
        s1 = make_state(v=(0.2, 0, 0.3), n=2)
        s2 = make_state(a=(1, 0, 0), n=3, sigma_p=0.7)
        down = make_state(a=(1, 0, 0), spin=SPIN_DOWN, n=3, sigma_p=0.7)
        overlap_quadrature(s1, s2)
        overlap_quadrature(s1, down)
        overlap(s1, s2)


def off_axis_velocity(max_speed):
    """Velocities of speed <= max_speed in any direction."""
    return st.builds(
        lambda speed, theta, phi: (
            speed * np.sin(theta) * np.cos(phi),
            speed * np.sin(theta) * np.sin(phi),
            speed * np.cos(theta),
        ),
        st.floats(0.0, max_speed),
        st.floats(0.0, np.pi),
        st.floats(0.0, 2.0 * np.pi),
    )


SPINS = st.sampled_from((SPIN_UP, SPIN_DOWN))
POINTS = st.tuples(*[st.floats(-1.1, 1.1) for _ in range(3)])  # |a| <= 1.91


BOOSTED_STATE = replace(make_state(a=(0.4, -0.7, 1.2), v=(0.2, -0.1, 0.3), n=3), time=0.5)


@pytest.mark.parametrize("reduce", [
    lambda: check_profile_conditions(BOOSTED_STATE.profile),
    lambda: mean_velocity_two_ways(BOOSTED_STATE),
    lambda: position_mean_from_momentum(BOOSTED_STATE),
    lambda: momentum_moments(BOOSTED_STATE),
], ids=["check_profile_conditions", "mean_velocity_two_ways", "position_mean_from_momentum",
        "momentum_moments"])
def test_rule_reduction_peak_memory_is_block_sized(reduce):
    # each builds its rule whole, one BLOCK_POINTS block, so only those
    # points and their temporaries are live
    reduce()  # warm the node caches
    with memory_probe() as mem:
        reduce()
    assert mem.peak <= 320 * BLOCK_POINTS


@settings(max_examples=20, deadline=None)
@given(
    v=off_axis_velocity(0.99).filter(lambda v: np.linalg.norm(v) <= 0.99),
    n=st.integers(1, 20),
    sigma_p=st.floats(0.5, 2.0),
    t=st.floats(0.0, 2.0),
    a=POINTS,
    spin=SPINS,
)
def test_two_azimuth_nodes_match_the_32_node_rule(v, n, sigma_p, t, a, spin):
    # about the envelope centre every integrand is an axial function times
    # 1, cos phi or sin phi, which the 2-point trapezoid integrates exactly
    state = replace(make_state(a=a, v=v, spin=spin, n=n, sigma_p=sigma_p), time=t)

    def reductions():
        norm, mean = check_profile_conditions(state.profile)
        m = momentum_moments(state)
        return np.concatenate([
            [state.norm(), norm], mean, *mean_velocity_two_ways(state),
            [m.norm, m.delta_x], m.mean_x, m.mean_velocity,
        ])

    got = reductions()
    with on_oracle_rule():
        expected = reductions()
    assert np.abs(got - expected).max() <= 1e-14


class TestScalarReductions:
    """The eigenspinor-free forms against the spinor-stack references."""

    @settings(max_examples=10, deadline=None)
    @given(
        spins=st.tuples(SPINS, SPINS),
        ns=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        sigma_p=st.floats(0.6, 1.5),
        v1=off_axis_velocity(0.9),
        v2=off_axis_velocity(0.9),
        a2=POINTS,
    )
    def test_overlap_matches_quadrature(self, spins, ns, sigma_p, v1, v2, a2):
        s1 = make_state(v=v1, spin=spins[0], n=ns[0], sigma_p=sigma_p)
        s2 = make_state(a=a2, v=v2, spin=spins[1], n=ns[1], sigma_p=sigma_p)
        auto = overlap(s1, s2)
        brute = overlap_quadrature(s1, s2)
        if spins[0] == spins[1]:
            assert abs(auto - brute) <= 1e-12
        else:
            assert auto == 0j
            assert abs(brute) <= 1e-10

    @settings(max_examples=10, deadline=None)
    @given(
        spin=SPINS,
        n=st.integers(1, 3),
        sigma_p=st.floats(0.6, 1.5),
        v=off_axis_velocity(0.9),
        a=st.tuples(*[st.floats(-1.0, 1.0) for _ in range(3)]),
        t=st.floats(0.0, 2.0),
    )
    def test_position_mean_matches_finite_differences(self, spin, n, sigma_p, v, a, t):
        # <x> and Delta_x against derivatives of the sampled spinor: no closed-form spin terms
        state = replace(make_state(a=a, v=v, spin=spin, n=n, sigma_p=sigma_p), time=t)
        closed = momentum_moments(state)
        mean, spread = finite_difference_moments(state)
        assert np.abs(closed.mean_x - mean).max() <= 1e-9
        assert closed.delta_x == pytest.approx(spread, rel=1e-8)

    @settings(max_examples=10, deadline=None)
    @given(
        spin=SPINS,
        n=st.integers(1, 20),
        sigma_p=st.floats(0.5, 2.0),
        v=off_axis_velocity(0.9),
        t=st.floats(0.0, 3.0),
    )
    def test_norm_matches_spinor_form(self, spin, n, sigma_p, v, t):
        state = replace(make_state(a=(0.4, -0.7, 1.2), v=v, spin=spin, n=n, sigma_p=sigma_p), time=t)
        assert abs(state.norm() - spinor_norm(state)) <= 1e-13

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        spins=st.tuples(SPINS, SPINS),
        ns=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        sigma_p=st.floats(0.6, 1.5),
        v1=off_axis_velocity(0.9),
        v2=off_axis_velocity(0.9),
        a2=POINTS,
    )
    def test_overlap_quadrature_matches_pointwise_spinors(self, spins, ns, sigma_p, v1, v2, a2):
        # the axis-weight form against phi1^dagger phi2 summed on the same rule
        s1 = make_state(v=v1, spin=spins[0], n=ns[0], sigma_p=sigma_p)
        s2 = make_state(a=a2, v=v2, spin=spins[1], n=ns[1], sigma_p=sigma_p)
        assert abs(overlap_quadrature(s1, s2) - pointwise_overlap(s1, s2)) <= 1e-14

    def test_no_spinor_stack_is_built(self, monkeypatch):
        calls = []
        original = MomentumState.spinor

        def counting(self, *args):
            calls.append(self)
            return original(self, *args)

        monkeypatch.setattr(MomentumState, "spinor", counting)
        s1 = make_state(v=(0.2, 0, 0.3), n=2)
        s2 = make_state(a=(1, 0, 0), n=3, sigma_p=0.7)
        s3 = replace(make_state(a=(1, 0, 0), spin=SPIN_DOWN, n=3), time=0.5)
        overlap(s1, s2)
        overlap(s1, s3)
        momentum_moments(s1)
        momentum_moments(s3)
        s1.norm()
        s3.norm()
        assert calls == []
        mean_velocity_two_ways(s1)  # the counter does see the spinor path
        assert calls


class TestMomentumMoments:
    """The closed-form whole-space moments against their ingredients and
    against grids that converge onto them."""

    @pytest.mark.parametrize("spin", [SPIN_UP, SPIN_DOWN])
    def test_spin_term_is_the_squared_spinor_gradient(self, spin):
        # S = sum_k |d_k u_s|^2 = 1/(E(E + m)) + 1/(4E^4) at every p, by central differences
        p = np.random.default_rng(11).uniform(-3.0, 3.0, size=(50, 3))
        step = 1e-5
        total = np.zeros(len(p))
        for axis in np.eye(3) * step:
            du = (spin_eigenspinor(p + axis, spin) - spin_eigenspinor(p - axis, spin)) / (2.0 * step)
            total += np.sum(np.abs(du) ** 2, axis=1)
        e = energy_xyz(*p.T)
        assert np.abs(total - (1.0 / (e * (e + 1.0)) + 0.25 / e**4)).max() <= 1e-9

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        a=st.tuples(*[st.floats(-1.0, 1.0) for _ in range(3)]),
        v=off_axis_velocity(0.99).filter(lambda v: np.linalg.norm(v) <= 0.99),
        spin=SPINS,
        n=st.integers(1, 3),
        t=st.floats(0.0, 2.0),
    )
    def test_grid_moments_converge_onto_closed_form(self, a, v, spin, n, t):
        # L is the largest extent whose 64^3 grid holds all but MASS_TOL of the
        # momentum mass; a box that also holds <x> +- 3 Delta_x with 4.5
        # Compton lengths to spare leaves the 64^3 gap to its Nyquist
        # truncation, which the 128^3 grid on the same box removes
        state = replace(make_state(a=a, v=v, spin=spin, n=n), time=t)
        exact = momentum_moments(state)
        extent = math.floor(100.0 * math.pi * 64 / state.momentum_support(MASS_TOL)) / 100.0
        assume(extent / 2 - np.abs(exact.mean_x).max() - 3.0 * exact.delta_x >= 4.5)

        def gap(points):
            m = moments(position_state_cartesian(state, CartesianGrid(points, extent)))
            return max(np.abs(m.mean_x - exact.mean_x).max(),
                       np.abs(m.mean_velocity - exact.mean_velocity).max(),
                       abs(m.delta_x - exact.delta_x))

        assert gap(128) < 1e-2 * gap(64)


Q_MATRICES = {"identity": I4, "alpha1": ALPHA[0], "alpha2": ALPHA[1], "alpha3": ALPHA[2]}


def einsum_rn_integral(profile, n, p, q_operator, spin):
    """Reference R_n integrand: sampled spinors contracted with the 4 x 4 Q."""
    qmat = Q_MATRICES[q_operator]
    p = np.asarray(p, dtype=float)

    def evaluate(rule):
        s, weights = rule.points()
        q = s - p[:, None]
        ua = eigenspinor_components(*q, spin)
        ub = eigenspinor_components(*s, spin)
        bilinear = np.einsum("am,ab,bm->m", ua.conj(), qmat, ub)
        fa = profile(*(q / n))
        fb = profile(*(s / n))
        return complex(n**-3 * np.sum(weights * np.conj(fa) * fb * bilinear))

    return evaluate


ALL_Q_SPIN = [(q, spin) for q in Q_MATRICES for spin in (SPIN_UP, SPIN_DOWN)]
SHIFTED = MomentumProfile(sigma_p=1.3, center=(0.2, -0.4, 0.5))


class TestRnClosedForm:
    @pytest.mark.parametrize("q_operator, spin", ALL_Q_SPIN)
    def test_bilinear_matches_einsum_pointwise(self, rng, q_operator, spin):
        q = rng.uniform(-5.0, 5.0, size=(3, 500))
        s = rng.uniform(-5.0, 5.0, size=(3, 500))
        eq, es = energy_xyz(*q), energy_xyz(*s)
        real, imag = bilinear_numerator(q, s, eq + 1.0, es + 1.0, q_operator, spin * 2.0)
        cal = np.sqrt(4.0 * eq * (eq + 1.0) * es * (es + 1.0))
        ua = eigenspinor_components(*q, spin)
        ub = eigenspinor_components(*s, spin)
        ref = np.einsum("am,ab,bm->m", ua.conj(), Q_MATRICES[q_operator], ub)
        assert np.abs((real + 1j * imag) / cal - ref).max() <= 1e-14

    @pytest.mark.parametrize("n", [3, 64])
    @pytest.mark.parametrize("q_operator, spin", ALL_Q_SPIN)
    def test_rule_sum_matches_einsum(self, q_operator, spin, n):
        # the convolution_Rn base rule (several blocks), a shifted profile, p off-axis
        p = (0.7, -1.1, 0.4)
        p_norm = float(np.linalg.norm(p))
        rule = spherical_rule((0.0, 2.0 * p_norm + 4.0, n * SHIFTED.cutoff() + p_norm),
                              (64, 96), 48, 32)
        closed = _rn_integral(SHIFTED, n, p, q_operator, spin)(rule)
        oracle = einsum_rn_integral(SHIFTED, n, p, q_operator, spin)(rule)
        assert abs(closed - oracle) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.tuples(*[st.floats(-3.0, 3.0) for _ in range(3)]),
        n=st.integers(1, 8),
        q_spin=st.sampled_from(ALL_Q_SPIN),
        center=st.tuples(*[st.floats(-1.0, 1.0) for _ in range(3)]),
        sigma_p=st.floats(0.5, 2.0),
    )
    def test_small_rule_property(self, p, n, q_spin, center, sigma_p):
        profile = MomentumProfile(sigma_p=sigma_p, center=center)
        p_norm = float(np.linalg.norm(p))
        rule = spherical_rule((0.0, 2.0 * p_norm + 4.0, n * profile.cutoff() + p_norm),
                              (12, 16), 8, 8)
        closed = _rn_integral(profile, n, p, *q_spin)(rule)
        oracle = einsum_rn_integral(profile, n, p, *q_spin)(rule)
        assert abs(closed - oracle) <= 1e-13 * max(1.0, abs(oracle))

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(
        v_angles=st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi)),
        speed=st.floats(0.0, 0.99),
        p_angles=st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi)),
        p_norm=st.floats(0.0, 3.0),
        n=st.integers(1, 64),
        q_spin=st.sampled_from(ALL_Q_SPIN),
        n_phi=st.sampled_from((2, 32)),
        axis_angles=st.one_of(
            st.none(), st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))
        ),
    )
    def test_factored_kernel_matches_pointwise(
        self, v_angles, speed, p_angles, p_norm, n, q_spin, n_phi, axis_angles
    ):
        # convolution_Rn's base panels, about z or a turned axis, against the
        # world coordinates of every point of the same rule
        profile = boosted_gaussian_profile(speed * unit_vector(*v_angles))
        p = p_norm * unit_vector(*p_angles)
        axis = None if axis_angles is None else unit_vector(*axis_angles)
        rule = spherical_rule((0.0, 2.0 * p_norm + 4.0, n * profile.cutoff() + p_norm),
                              (64, 96), 48, n_phi, axis)
        factored = _rn_integral(profile, n, p, *q_spin)(rule)
        pointwise = pointwise_rn_integral(profile, n, p, *q_spin)(rule)
        assert abs(factored - pointwise) <= 1e-13 * max(1.0, abs(pointwise))

    def test_returns_python_complex(self, plain_profile):
        # the rn CSV writes repr() of the parts, which must stay plain floats
        assert type(convolution_Rn(plain_profile, 2, (1, 0, 0))) is complex

    def test_bad_spin_rejected(self, plain_profile):
        with pytest.raises(ValueError):
            convolution_Rn(plain_profile, 2, (0, 0, 0), spin=1.0)


class TestConvolutionRn:
    def test_identity_at_zero_momentum(self, plain_profile):
        for n in (1, 7):
            assert convolution_Rn(plain_profile, n, (0, 0, 0)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_alpha3_symmetric_profile_vanishes(self, plain_profile):
        value = convolution_Rn(plain_profile, 4, (0, 0, 0), "alpha3")
        assert abs(value) <= 1e-12

    def test_identity_errors_decrease(self, plain_profile):
        errs = [
            abs(convolution_Rn(plain_profile, n, (1, 0, 0)) - 1.0) for n in (2, 4, 8)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_doubling_detector(self, plain_profile, monkeypatch):
        # c = 0: the axial branch, 2 -> 4 azimuth nodes about p
        monkeypatch.setattr(observables, "RN_TOL", 1e-18)
        with pytest.raises(QuadratureError):
            convolution_Rn(plain_profile, 4, (1, 0, 0))

    def test_doubling_detector_off_axis(self, monkeypatch):
        monkeypatch.setattr(observables, "RN_TOL", 1e-18)
        with pytest.raises(QuadratureError):
            convolution_Rn(OFF_AXIS, 4, (0.5, 1.0, -0.3), "alpha2")

    def test_nan_momentum_is_not_certified(self, plain_profile):
        # a NaN doubling difference fails "diff > tol" but not "diff <= tol"
        with pytest.raises(QuadratureError, match="nan"):
            convolution_Rn(plain_profile, 2, (np.nan, 0.0, 0.0))

    def test_doubling_catches_a_misjudged_axial_branch(self, monkeypatch):
        # 2 azimuth nodes alias the second harmonic of a p off the axis c;
        # the 4 of the doubled rule resolve it, so the two disagree
        monkeypatch.setattr(observables, "PARALLEL_SINE", 1.0)
        with pytest.raises(QuadratureError):
            convolution_Rn(OFF_AXIS, 4, (0.5, 1.0, -0.3), "alpha2")

    def test_unknown_operator_rejected(self, plain_profile):
        with pytest.raises(ValueError):
            convolution_Rn(plain_profile, 4, (0, 0, 0), "alpha4")

    @pytest.mark.parametrize("n", [3, 64])
    def test_memory_peak_bounded(self, n):
        # the perfbench seed-1 rn-0 inputs, off the axis: 32 (64) azimuth nodes
        profile = boosted_gaussian_profile((0.143339, -0.360207, -0.364857))
        p = (1.486064, 0.661425, -0.015308)
        convolution_Rn(profile, n, p, "alpha1")  # node caches filled
        with memory_probe() as mem:
            convolution_Rn(profile, n, p, "alpha1")
        assert mem.peak < 4_000_000

    def test_matches_density_transform(self, plain_profile):
        # Fourier transform of the sampled density, divided by the point
        # phase, reproduces R_n at identity
        state = make_state(n=3)
        ps = position_state_cartesian(state, CartesianGrid(128, 12.0))
        p = np.array([1.0, 0.0, 0.0])
        lhs = density_fourier(ps, p) * (2 * np.pi) ** 1.5  # a = 0: unit phase
        rhs = convolution_Rn(plain_profile, 3, p)
        assert abs(lhs - rhs) <= 1e-3


OFF_AXIS = boosted_gaussian_profile((0.3, -0.2, 0.4))


def unit_vector(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


RELATIONS = ("zero", "parallel", "antiparallel", "near", "generic")


@st.composite
def rn_geometry(draw, relation):
    """(v, p): v is zero or of speed <= 0.9 along u, and p is zero, parallel,
    antiparallel, 1e-9 rad off or in a generic direction relative to u."""
    angles = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))
    u = unit_vector(*draw(angles))
    speed = draw(st.one_of(st.just(0.0), st.floats(0.1, 0.9)))
    size = draw(st.floats(0.2, 2.0))
    if relation == "zero":
        p = np.zeros(3)
    elif relation == "parallel":
        p = size * u
    elif relation == "antiparallel":
        p = -size * u
    elif relation == "near":
        w = np.cross(u, (1.0, 0.0, 0.0) if abs(u[0]) < 0.9 else (0.0, 1.0, 0.0))
        p = size * (np.cos(1e-9) * u + np.sin(1e-9) * w / np.linalg.norm(w))
    else:
        p = size * unit_vector(*draw(angles))
    return tuple(speed * u), tuple(p)


class TestAlignedRnRule:
    """R_n on the rule about the state's own axis against the z-axis oracle."""

    @pytest.mark.parametrize("relation", RELATIONS)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data(), q_spin=st.sampled_from(ALL_Q_SPIN), n=st.integers(1, 64))
    def test_matches_z_axis_oracle(self, relation, data, q_spin, n):
        v, p = data.draw(rn_geometry(relation))
        profile = boosted_gaussian_profile(v)
        value = convolution_Rn(profile, n, p, *q_spin)
        assert abs(value - z_axis_rn(profile, n, p, *q_spin)) <= 1e-13

    def test_unit_scale_p_across_the_axis(self):
        # n = 3, |p| = 1.63 at 91 degrees from c: E(|s - p|) carries azimuthal
        # harmonics about c that a 16 -> 32 node rule leaves at 2.7e-12
        profile = boosted_gaussian_profile((0.143339, -0.360207, -0.364857))
        p = (1.486064, 0.661425, -0.015308)
        value = convolution_Rn(profile, 3, p, "alpha1")
        oracle = z_axis_rn(profile, 3, p, "alpha1", resolution=(128, 192, 96, 128))
        assert abs(value - oracle) <= 1e-13

    def test_fast_state_off_the_z_axis_is_certified(self):
        # at |v| = 0.99 the envelope is about 0.14 rad wide around c: a rule
        # about z resolves it only to 4e-4 at 32 -> 64 azimuth nodes and
        # refuses the value, a rule about c has it axial
        profile = boosted_gaussian_profile(0.99 * np.array([0.48, -0.6, 0.64]))
        p = (0.5, 1.0, -0.3)
        value = convolution_Rn(profile, 8, p, "alpha1")
        oracle = z_axis_rn(profile, 8, p, "alpha1", resolution=(128, 192, 192, 256))
        assert abs(value - oracle) <= 1e-13

    @pytest.mark.parametrize("q_operator", ["identity", "alpha1"])
    def test_fast_state_at_large_n_off_the_z_axis(self, q_operator):
        # n = 64, |v| = 0.99: |mid| = 452 against a width of 64, where the
        # expansion r^2 - 2 r d.mid + |mid|^2 would cancel most
        profile = boosted_gaussian_profile(0.99 * np.array([0.48, -0.6, 0.64]))
        p = (0.5, 1.0, -0.3)
        value = convolution_Rn(profile, 64, p, q_operator)
        oracle = z_axis_rn(profile, 64, p, q_operator, resolution=(128, 192, 192, 256))
        assert abs(value - oracle) <= 1e-13

    @pytest.mark.parametrize("v, p, axis, n_phi", [
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), "p", 2),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), None, 2),
        ((0.3, -0.2, 0.4), (0.0, 0.0, 0.0), "c", 2),
        ((0.3, -0.2, 0.4), (0.6, -0.4, 0.8), "c", 2),
        ((0.3, -0.2, 0.4), (-0.3, 0.2, -0.4), "c", 2),
        ((0.3, -0.2, 0.4), (0.5, 1.0, -0.3), "c", 32),
    ])
    def test_azimuth_count_and_axis(self, monkeypatch, v, p, axis, n_phi):
        calls = []
        original = quadrature.spherical_rule

        def spy(radial_breaks, radial_orders, n_theta=48, n_phi=32, axis=None):
            calls.append((n_phi, axis))
            return original(radial_breaks, radial_orders, n_theta, n_phi, axis)

        monkeypatch.setattr(quadrature, "spherical_rule", spy)
        profile = boosted_gaussian_profile(v)
        convolution_Rn(profile, 4, p)
        assert [count for count, _ in calls] == [n_phi, 2 * n_phi]
        expected = {"p": p, "c": 4 * np.asarray(profile.center), None: None}[axis]
        for _, used in calls:
            assert used is None if expected is None else np.array_equal(used, expected)


class TestAnLimit:
    def test_symmetric_profile_gives_zero(self, plain_profile):
        for n in (1, 5):
            assert abs(a_n_limit(plain_profile, n, 2)) <= 1e-12

    def test_monotone_approach_to_target(self):
        prof = boosted_gaussian_profile((0, 0, 0.5))
        values = [a_n_limit(prof, n, 2) for n in (2, 4, 8, 16)]
        assert values[0] < values[1] < values[2] < values[3] < 0.5

    def test_large_n_limit_equals_profile_mean(self):
        prof = boosted_gaussian_profile((0, 0, 0.5))
        _, mean = check_profile_conditions(prof)
        assert a_n_limit(prof, 10**6, 2) == pytest.approx(mean[2], abs=1e-6)

    def test_agrees_with_rn_at_zero(self):
        prof = boosted_gaussian_profile((0, 0, 0.5))
        assert a_n_limit(prof, 4, 2) == pytest.approx(
            convolution_Rn(prof, 4, (0, 0, 0), "alpha3").real, abs=1e-9
        )

    def test_invalid_axis(self, plain_profile):
        with pytest.raises(ValueError):
            a_n_limit(plain_profile, 2, 3)


class TestCausalityMargin:
    def test_rest_field_margin_is_minus_peak(self):
        # uniform rest spinor: j = 0 everywhere, so the margin is -max(rho)
        psgrid = CartesianGrid(8, 4.0)
        psi = np.zeros((3, 8, 8, 8), dtype=complex)
        psi[0] = 1.0  # the mass slot of either layout
        ps = PositionState(grid=psgrid, psi=psi, layout=spinor_layout(SPIN_UP))
        assert snapshot_pass(ps).causality_margin == pytest.approx(-1.0)

    def test_localized_state_below_tolerance(self, ps5):
        assert snapshot_pass(ps5).causality_margin <= 1e-10

    def test_detector_flags_superluminal_field(self):
        # no spinor field has |j| > rho, so the pass's per-slab detector is fed one
        rho = np.ones((8, 8, 8))
        j = np.zeros((3, 8, 8, 8))
        j[0] = 2.0
        assert _margin(rho, j) == pytest.approx(1.0)


class TestLocalizingLimits:
    def test_spread_and_velocity_error_shrink(self):
        spreads = [momentum_moments(make_state(n=n)).delta_x for n in (2, 4, 8, 16)]
        assert all(b < a for a, b in zip(spreads, spreads[1:]))
        prof = boosted_gaussian_profile((0, 0, 0.5))
        verrs = [abs(a_n_limit(prof, n, 2) - 0.5) for n in (2, 4, 8, 16)]
        assert all(b < a for a, b in zip(verrs, verrs[1:]))

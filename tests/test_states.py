"""Profiles, localization labels and momentum-state construction."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import chdtri, erfc

from diracloc.dynamics import NRPacketParams
from diracloc.observables import convolution_Rn
from diracloc.quadrature import (
    BLOCK_POINTS, QuadratureError, _axis_frame, gauss_legendre, node_doubling, panel_rule,
    spherical_rule,
)
from diracloc.spinor import SPIN_DOWN, SPIN_UP, positive_projector, pryce_spin3
from diracloc.states import (
    MOMENT_NODES,
    LocalizationLabel,
    MAX_PROFILE_SPEED,
    MomentumProfile,
    MomentumState,
    ProfileError,
    SERIES_BELOW,
    _gaussian_tail_mass,
    _gaussian_tail_radius,
    boosted_gaussian_profile,
    check_profile_conditions,
    gaussian_profile,
    make_state,
    mean_flow,
    mean_flow_root,
    momentum_rule,
    radial_moment_rule,
    scaled_bessel_i01,
)
from diracloc.transform import radial_components, radial_curve
from harness import memory_probe


def quadrature_shift(speed, sigma_p, xtol=1e-13):
    """Reference kappa: root-find the quadrature mean flow along z."""

    def excess(kappa):
        prof = MomentumProfile(sigma_p=sigma_p, center=(0.0, 0.0, kappa))
        return check_profile_conditions(prof)[1][2] - speed

    hi = sigma_p
    while excess(hi) < 0.0:
        hi *= 2.0
    return brentq(excess, 0.0, hi, xtol=xtol)


def root_found_tail_radius(eps):
    """Reference q: root-find the mass of pi^(-3/2) e^(-x^2) outside |x| = q."""

    def outside(q):
        return erfc(q) + 2.0 * q * np.exp(-q * q) / np.sqrt(np.pi) - eps

    return brentq(outside, 0.0, 30.0, xtol=1e-15)


def outer_product_points(rule, n_theta, n_phi, axis):
    """(p (3, M), weights) of every point of ``rule`` in its order (radial
    node slowest, azimuth fastest), built by hand: the unit directions from
    the polar and azimuth rules, turned by the rule frame, then scaled by r."""
    ct, wct = gauss_legendre(n_theta, -1.0, 1.0)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))[:, None]
    x, y = st * np.cos(phi), st * np.sin(phi)
    z = np.broadcast_to(ct[:, None], x.shape)
    frame = None if axis is None else _axis_frame(axis)
    if frame is not None:
        e1, e2, e3 = frame
        x, y, z = (e1[i] * x + e2[i] * y + e3[i] * z for i in range(3))
    r = rule.r[:, None, None]
    w = rule.r2_weights[:, None, None] * (wct * (2.0 * np.pi / n_phi))[None, :, None]
    shape = (rule.r.size, n_theta, n_phi)
    return np.stack([(r * c).ravel() for c in (x, y, z)]), np.broadcast_to(w, shape).ravel()


class TestGaussianProfile:
    def test_unit_width_value_at_origin(self):
        prof = gaussian_profile(1.0)
        assert prof(0.0, 0.0, 0.0) == pytest.approx(np.pi**-0.75, rel=1e-15)

    def test_normalization(self):
        norm, mean = check_profile_conditions(gaussian_profile(1.0))
        assert abs(norm - 1.0) <= 1e-8
        assert np.linalg.norm(mean) <= 1e-8

    def test_normalization_other_width(self):
        norm, _ = check_profile_conditions(gaussian_profile(2.0))
        assert abs(norm - 1.0) <= 1e-8

    def test_tail_radius_matches_root_find(self):
        for eps in np.geomspace(1e-14, 0.5, 60):
            assert abs(_gaussian_tail_radius(eps) - root_found_tail_radius(eps)) <= 1e-13

    def test_tail_radius_matches_chdtri(self):
        # 2 q^2 is the chi-squared(3) quantile; chdtri's own error reaches
        # several ulp at other eps, so this bound holds on these 50 only
        for eps in np.geomspace(1e-15, 0.5, 50):
            ref = np.sqrt(0.5 * chdtri(3, eps))
            assert abs(_gaussian_tail_radius(eps) - ref) <= 4e-16 * ref

    def test_tail_radius_brackets_the_root(self):
        for eps in np.geomspace(1e-15, 0.5, 50):
            q = _gaussian_tail_radius(eps)
            assert _gaussian_tail_mass(q) <= eps < _gaussian_tail_mass(np.nextafter(q, 0.0))

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ProfileError):
            gaussian_profile(0.0)
        with pytest.raises(ProfileError):
            gaussian_profile(-1.5)

    @pytest.mark.parametrize("sigma_p", [
        np.nan, np.inf, np.nextafter(2.0**-340, 0.0), np.nextafter(2.0**255, np.inf),
    ])
    def test_nonfinite_width_rejected(self, sigma_p):
        # NaN passes a "<= 0" test, an infinite width has amplitude 0, and
        # envelope_gaussian's one bound holds the width at n = 1 too
        with pytest.raises(ProfileError, match=r"must be finite and in \[2\^-340, 2\^255\]"):
            MomentumProfile(sigma_p=sigma_p)

    @pytest.mark.parametrize("centre", [(np.nan, 0.0, 0.0), (0.0, 0.0, -np.inf)])
    def test_nonfinite_centre_rejected(self, centre):
        # a NaN centre would give a NaN cutoff, and every rule built on it NaN nodes
        with pytest.raises(ProfileError, match="centre must be finite"):
            MomentumProfile(sigma_p=1.0, center=centre)


class TestBoostedProfile:
    def test_zero_target_is_plain(self):
        prof = boosted_gaussian_profile((0.0, 0.0, 0.0))
        assert prof.center == (0.0, 0.0, 0.0)

    def test_half_speed_target(self):
        prof = boosted_gaussian_profile((0.0, 0.0, 0.5))
        norm, mean = check_profile_conditions(prof)
        assert abs(norm - 1.0) <= 1e-8
        assert np.abs(mean - [0.0, 0.0, 0.5]).max() <= 1e-6
        assert prof.center[2] > 0.0

    def test_mean_monotone_in_shift(self):
        means = []
        for kappa in (0.2, 0.6, 1.2):
            prof = MomentumProfile(sigma_p=1.0, center=(0.0, 0.0, kappa))
            means.append(check_profile_conditions(prof)[1][2])
        assert means[0] < means[1] < means[2]

    def test_off_axis_target(self):
        v = (0.3, -0.1, 0.2)
        _, mean = check_profile_conditions(boosted_gaussian_profile(v))
        assert np.abs(mean - np.asarray(v)).max() <= 1e-12

    @pytest.mark.parametrize("v", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.1, 0.2, np.nan)])
    def test_nonfinite_target_rejected(self, v):
        # a NaN speed fails both "== 0" and "> 0.99"
        with pytest.raises(ProfileError, match="velocity must be finite"):
            boosted_gaussian_profile(v)

    def test_near_lightspeed_rejected(self):
        for speed in (np.nextafter(MAX_PROFILE_SPEED, 1.0), 0.995, 1.0 - 1e-12):
            with pytest.raises(ProfileError, match="exceeds 0.99"):
                boosted_gaussian_profile((0.0, 0.0, speed))

    @pytest.mark.parametrize("sigma_p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("speed", [0.01, 0.5, 0.99])
    def test_closed_form_shift_matches_quadrature_root(self, sigma_p, speed):
        kappa = boosted_gaussian_profile((0.0, 0.0, speed), sigma_p).center[2]
        assert abs(kappa - quadrature_shift(speed, sigma_p)) <= 1e-11 * max(1.0, kappa)

    @pytest.mark.parametrize("sigma_p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("speed", [0.01, 0.1, 0.3, 0.7, 0.9, 0.99])
    def test_closed_form_shift_meets_quadrature_mean(self, sigma_p, speed):
        # on the rule's polar axis, where the quadrature resolves every shift
        _, mean = check_profile_conditions(boosted_gaussian_profile((0.0, 0.0, speed), sigma_p))
        assert np.abs(mean - [0.0, 0.0, speed]).max() <= 1e-12

    @pytest.mark.parametrize("v", [(0.3, -0.2, 0.4), (0.0, 0.7, 0.1), (-0.5, 0.0, 0.0)])
    def test_quadrature_is_the_hand_rotated_rule(self, v):
        # the rule frame: e3 the centre's direction, e1 = (e3_y, -e3_x, 0)
        # normalized and e2 = e3 x e1, applied per coordinate to the z-axis
        # rule's directions
        prof = boosted_gaussian_profile(v)
        cut = prof.cutoff()
        rule = spherical_rule((0.0, min(4.0, 0.5 * cut), cut), (128, 128), 64, 2)
        plain, weights = rule.directions, rule.points()[1]
        e3 = np.asarray(prof.center) / np.linalg.norm(prof.center)
        e1 = np.array([e3[1], -e3[0], 0.0]) / np.hypot(e3[0], e3[1])
        e2 = np.cross(e3, e1)
        # turn the directions, then scale them by r
        x, y, z = ((rule.r[:, None] * (e1[i] * plain[0] + e2[i] * plain[1] + e3[i] * plain[2]))
                   .ravel() for i in range(3))
        # the shared density, weights times A^2 exp(-|p - k|^2 / sigma_p^2), spelled by hand
        kx, ky, kz = prof.center
        q2 = (x - kx) ** 2 + (y - ky) ** 2 + (z - kz) ** 2
        density = weights * np.exp(q2 * (-1.0 / prof.sigma_p**2)) * prof.amplitude**2
        radius = np.sqrt(x**2 + y**2 + z**2)
        mean = [np.sum(density * c / radius) for c in (x, y, z)]
        norm, got = check_profile_conditions(prof)
        assert norm == float(np.sum(density))
        assert got.tolist() == [float(m) for m in mean]

    def test_off_axis_near_lightspeed(self):
        # the shift depends on |v| only; an origin-centred quadrature root
        # could not even bracket this one
        direction = np.array([0.48, -0.6, 0.64])
        kappa = boosted_gaussian_profile((0.0, 0.0, 0.99)).center[2]
        prof = boosted_gaussian_profile(0.99 * direction)
        assert np.abs(np.asarray(prof.center) - kappa * direction).max() <= 1e-14 * kappa

    @pytest.mark.parametrize("sigma_p", [0.5, 1.0, 2.0])
    def test_quadrature_mean_off_axis_near_lightspeed(self, sigma_p):
        # the rule's polar axis follows the centre, so a shift of 7 widths
        # off the z axis resolves as well as one along it
        v = 0.99 * np.array([0.48, -0.6, 0.64])
        _, mean = check_profile_conditions(boosted_gaussian_profile(v, sigma_p))
        assert np.abs(mean - v).max() <= 1e-12

    def test_root_brackets_speed_and_matches_brentq(self):
        switch = mean_flow(SERIES_BELOW)
        speeds = np.concatenate([
            np.geomspace(1e-12, MAX_PROFILE_SPEED, 194),
            [np.nextafter(switch, 0.0), switch, np.nextafter(switch, 1.0)],
            [0.5 * switch, 1.5 * switch, np.nextafter(MAX_PROFILE_SPEED, 0.0)],
        ])
        assert speeds.max() == MAX_PROFILE_SPEED
        for speed in speeds:
            m = mean_flow_root(speed)
            assert mean_flow(np.nextafter(m, 0.0)) < speed <= mean_flow(m)
            oracle = brentq(lambda x: mean_flow(x) - speed, 0.0, 64.0, xtol=1e-300, maxiter=200)
            assert abs(m / oracle - 1.0) <= 1e-13, speed

    def test_series_meets_closed_form_at_switch(self):
        below = mean_flow(np.nextafter(SERIES_BELOW, 0.0))
        assert abs(below / mean_flow(SERIES_BELOW) - 1.0) <= 1e-14

    def test_mean_flow_limits(self):
        m = np.concatenate([np.logspace(-8, -1, 30), np.linspace(0.11, 60.0, 300)])
        values = np.array([mean_flow(x) for x in m])
        assert np.all(np.diff(values) > 0.0)
        assert mean_flow(1e-8) == pytest.approx(np.sqrt(2.0 / np.pi) * 2.0 / 3.0 * 1e-8, rel=1e-15)
        # erf -> 1 and the Gaussian term vanishes: 1 - 1/m^2
        assert 1.0 - mean_flow(60.0) == pytest.approx(1.0 / 3600.0, rel=1e-10)


class TestLocalizationLabel:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocalizationLabel(v=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            LocalizationLabel(n=0)
        with pytest.raises(ValueError):
            LocalizationLabel(spin=0.25)

    @pytest.mark.parametrize("field, value", [
        ("a", (np.nan, 0.0, 0.0)), ("a", (0.0, np.inf, 0.0)),
        ("v", (np.nan, 0.0, 0.0)), ("v", (0.0, 0.0, -np.inf)),
    ])
    def test_nonfinite_point_or_velocity_rejected(self, field, value):
        # a NaN velocity passes a "|v| >= 1" test
        with pytest.raises(ValueError):
            LocalizationLabel(**{field: value})


class TestSequenceIndex:
    ENTRIES = {
        "label": lambda n: LocalizationLabel(n=n),
        "nr_packet": lambda n: NRPacketParams(n=n),
        "convolution_Rn": lambda n: convolution_Rn(gaussian_profile(), n, (1.0, 0.0, 0.0)),
        "radial_curve": lambda n: radial_curve(gaussian_profile(), n, 6.0, 601),
        "radial_components": lambda n: radial_components(gaussian_profile(), n, [1.0], 400, 0.1),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("n", [0, 0.5, -2, np.nan, np.inf])
    def test_refused_before_allocating(self, entry, n):
        # NaN passes an "n < 1" test; unchecked, n = 0 divides by zero and
        # n = 0.5 or -2 give values that pass node doubling
        with memory_probe() as mem, pytest.raises(ValueError, match="sequence index must be >= 1"):
            self.ENTRIES[entry](n)
        assert mem.peak < 1e5


class TestMomentumState:
    def test_origin_value(self):
        state = MomentumState(label=LocalizationLabel(n=1), profile=gaussian_profile(1.0))
        phi = state.spinor(0.0, 0.0, 0.0)
        assert np.abs(phi - np.array([np.pi**-0.75, 0, 0, 0])).max() < 1e-15

    def test_translation_phase(self):
        prof = gaussian_profile(1.0)
        p = (np.pi, 0.0, 0.0)
        phi0 = MomentumState(label=LocalizationLabel(n=1), profile=prof).spinor(*p)
        phi_a = MomentumState(label=LocalizationLabel(a=(1.0, 0, 0), n=1), profile=prof).spinor(*p)
        assert np.abs(phi_a - np.exp(-1j * np.pi) * phi0).max() < 1e-14
        assert np.abs(phi_a + phi0).max() < 1e-14

    def test_axis_factors_are_the_scalar_part(self):
        # their outer product is envelope(p) exp(-i a.p) on the grid p x p x p
        state = make_state(a=(0.4, -0.7, 1.2), v=(0.2, -0.1, 0.3), n=3, sigma_p=0.8)
        p = np.linspace(-6.0, 6.0, 41)
        fx, fy, fz = state.axis_factors(p)
        px, py, pz = np.meshgrid(p, p, p, indexing="ij")
        a = state.label.a
        expected = state.envelope(px, py, pz) * np.exp(-1j * (a[0] * px + a[1] * py + a[2] * pz))
        outer = fx[:, None, None] * fy[None, :, None] * fz[None, None, :]
        assert np.abs(outer - expected).max() <= 1e-15 * np.abs(expected).max()

    @pytest.mark.parametrize("v", [(0.0, 0.0, 0.0), (0.2, -0.1, 0.3)])
    def test_norm_is_the_doubled_radial_rule_sum(self, v):
        state = make_state(v=v, n=3)
        n, prof = state.label.n, state.profile
        r, w0, _ = radial_moment_rule(prof, n, 2)
        assert state.norm() == math.sqrt(float(np.sum(w0)))
        # the rule by hand: panels break at the octaves below p_max and at
        # kappa + 2 j sqrt(w), |j| <= 4; w0 is the panel weights times 4 pi
        # r^2 A^2 n^-3 e^(-(r - kappa)^2/w) times the mean of e^(-z (1 - cos
        # theta)) over the sphere, (1 - e^(-2z))/(2z)
        width, kappa = n * prof.sigma_p, n * np.linalg.norm(prof.center)
        p_max = n * prof.cutoff()
        breaks = sorted({0.0, p_max, *(2.0**j for j in range(8) if 2.0**j < p_max),
                         *(kappa + 2 * j * width for j in range(-4, 5)
                           if 0.0 < kappa + 2 * j * width < p_max)})
        nodes, weights = panel_rule(breaks, [2 * MOMENT_NODES] * (len(breaks) - 1))
        assert np.abs(r - nodes).max() <= 1e-15 * p_max
        z = 2.0 * r * kappa / width**2
        mean = np.where(z > 0.0, -np.expm1(-2.0 * z) / np.where(z > 0.0, 2.0 * z, 1.0), 1.0)
        by_hand = (weights * 4.0 * np.pi * r**2 * prof.amplitude**2 / n**3
                   * np.exp(-((r - kappa) ** 2) / width**2) * mean)
        assert np.abs(w0 - by_hand).max() <= 1e-15 * w0.max()

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.6, 0.6, 0.5)])
    def test_norm_of_fast_off_axis_state(self, direction, n):
        # the rule's polar axis follows the envelope centre in any direction
        v = 0.99 * np.asarray(direction) / np.linalg.norm(direction)
        assert abs(make_state(v=v, n=n).norm() - 1.0) <= 1e-13

    def test_norm_peak_memory_is_block_sized(self):
        # the radial rule, a few hundred nodes at either node count, and its
        # temporaries are all that is live
        state = make_state(v=(0.2, -0.1, 0.3), n=2)
        state.norm()  # warm the node caches
        with memory_probe() as mem:
            state.norm()
        assert mem.peak <= 128 * BLOCK_POINTS

    @pytest.mark.parametrize("v", [(0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.3, -0.2, 0.4)])
    @pytest.mark.parametrize("n", [1, 3, 20, 64])
    def test_momentum_rule_is_one_block(self, v, n):
        # the reductions build the whole rule at once, which is block-sized
        # only because it has BLOCK_POINTS points whatever the state
        p, weights = momentum_rule(boosted_gaussian_profile(v), n).points()
        assert p.shape == (3, BLOCK_POINTS) and weights.shape == (BLOCK_POINTS,)


class TestRuleAxis:
    BREAKS, ORDERS = (0.0, 4.0, 30.0), (24, 40)

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 2.5), (0.0, 0.0, -1.0), (5e-324, 5e-324, 1.0)])
    def test_z_axis_is_the_plain_rule(self, axis):
        # a subnormal transverse part has too few digits to turn a frame by
        plain = spherical_rule(self.BREAKS, self.ORDERS, 12, 8).points()
        turned = spherical_rule(self.BREAKS, self.ORDERS, 12, 8, axis).points()
        for got, expected in zip(turned, plain):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("axis", [
        (1.0, 0.0, 0.0), (0.3, -0.2, 0.4), (-1e-9, 0.0, -1.0),
        (1.3e-161, 0.0, 8.5e-162), (3e200, -2e200, 4e200),
    ])
    def test_turned_rule_is_the_plain_rule_about_the_axis(self, axis):
        # an axis whose squared length underflows or overflows turns the rule too
        plain, plain_weights = spherical_rule(self.BREAKS, self.ORDERS, 12, 8).points()
        points, weights = spherical_rule(self.BREAKS, self.ORDERS, 12, 8, axis).points()
        e3 = np.asarray(axis) / np.abs(axis).max()
        e3 /= np.linalg.norm(e3)
        radius = np.linalg.norm(plain, axis=0)
        assert np.array_equal(weights, plain_weights)
        assert np.abs(e3 @ points - plain[2]).max() <= 1e-14 * radius.max()
        assert np.abs(np.linalg.norm(points, axis=0) - radius).max() <= 1e-14 * radius.max()

    @pytest.mark.parametrize("breaks, orders, n_theta, n_phi, axis", [
        ((0.0, 4.0, 30.0), (96, 256), 48, 32, None),
        ((0.0, 4.0, 30.0), (96, 256), 48, 32, (0.3, -0.2, 0.4)),
        ((0.0, 4.0), (7,), 5, 3, None),
        ((0.0, 4.0), (3,), 200, 200, None),
    ], ids=["z-axis", "turned", "7x5x3", "200x200"])
    def test_points_are_the_outer_product(self, breaks, orders, n_theta, n_phi, axis):
        rule = spherical_rule(breaks, orders, n_theta, n_phi, axis)
        for got, expected in zip(rule.points(), outer_product_points(rule, n_theta, n_phi, axis)):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("axis", [None, (0.3, -0.2, 0.4)])
    def test_directions_are_the_rule_factored(self, axis):
        # the points are r d and the weights r2_weights times the angular ones
        rule = spherical_rule(self.BREAKS, self.ORDERS, 12, 8, axis)
        points, point_weights = rule.points()
        d, angular = rule.directions, rule.angular_weights
        assert d.shape == (3, 96) and angular.shape == (96,)
        assert np.abs(np.linalg.norm(d, axis=0) - 1.0).max() <= 4e-16
        for got, expected in zip(rule.r[:, None] * d[:, None, :], points):
            assert np.array_equal(got.ravel(), expected)
        assert np.array_equal((rule.r2_weights[:, None] * angular).ravel(), point_weights)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            spherical_rule(self.BREAKS, self.ORDERS, 12, 8, (0.0, 0.0, 0.0))



class TestScaledBessel:
    Z = np.concatenate([
        [0.0, 1e-8, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)],
        np.geomspace(1e-6, 700.0, 2000), np.linspace(0.0, 700.0, 7001)[1:],
    ])

    def test_matches_scipy(self):
        # i_k(z) = sqrt(pi/(2z)) I_(k+1/2)(z); scipy's ive there is itself off
        # the exact value by up to 2.6e-14 near z = 20
        from scipy.special import ive

        i0, i1 = scaled_bessel_i01(self.Z)
        assert i0[0] == 1.0 and i1[0] == 0.0
        z = self.Z[1:]
        for k, got in enumerate((i0[1:], i1[1:])):
            expected = np.sqrt(np.pi / (2.0 * z)) * ive(k + 0.5, z)
            assert np.abs(got / expected - 1.0).max() <= 5e-14

    def test_series_meets_closed_form_at_one(self):
        # e^-z i1 from the series just below z = 1 and the closed form at 1
        _, below = scaled_bessel_i01(np.array([np.nextafter(1.0, 0.0)]))
        _, at = scaled_bessel_i01(np.array([1.0]))
        assert abs(below[0] / at[0] - 1.0) <= 1e-15


class TestNodeDoubling:
    @staticmethod
    def sums(k):
        return np.array([1.0, 1.0 + 2.0**-43 * k])

    def test_value_is_evaluated_at_twice_the_nodes(self):
        calls = []

        def evaluate(k):
            calls.append(k)
            return self.sums(k)

        assert node_doubling(evaluate, 1e-12, "sums").tolist() == self.sums(2).tolist()
        assert calls == [1, 2]

    @pytest.mark.parametrize("tol", [1e-14, np.array([1.0, 1e-14]), lambda value: 1e-14 * value],
                             ids=["number", "array", "relative"])
    def test_difference_beyond_tol_raises(self, tol):
        with pytest.raises(QuadratureError,
                           match=r"^sums: node-doubling disagreement 1\.137e-13 exceeds 1\.0e-14$"):
            node_doubling(self.sums, tol, "sums")

    def test_nan_raises(self):
        with pytest.raises(QuadratureError, match="nan exceeds inf"):
            node_doubling(lambda k: np.array([1.0, np.nan]), np.inf, "sums")


class TestStatePointwiseStructure:
    def test_positive_energy_membership(self, rng):
        pts = rng.uniform(-20, 20, size=(1000, 3))
        state = make_state(a=(0.5, -0.3, 1.0), v=(0.0, 0.0, 0.4), n=3)
        phi = state.spinor(pts[:, 0], pts[:, 1], pts[:, 2])
        proj = positive_projector(pts)
        resid = np.abs(np.einsum("mab,bm->am", proj, phi) - phi)
        assert resid.max() <= 1e-10

    def test_spin_purity(self, rng):
        pts = rng.uniform(-10, 10, size=(200, 3))
        s3 = pryce_spin3(pts)
        for label in (SPIN_UP, SPIN_DOWN):
            state = make_state(spin=label, n=4)
            phi = state.spinor(pts[:, 0], pts[:, 1], pts[:, 2])
            resid = np.abs(np.einsum("mab,bm->am", s3, phi) - label * phi)
            assert resid.max() <= 1e-10

    def test_evolution_phase_preserves_magnitude(self):
        state = make_state(n=3)
        moved = MomentumState(label=state.label, profile=state.profile, time=1.7)
        p = (0.4, -1.1, 0.2)
        assert abs(np.abs(moved.spinor(*p)).max() - np.abs(state.spinor(*p)).max()) < 1e-15

    def test_momentum_support_scales_with_n(self):
        s2, s8 = make_state(n=2), make_state(n=8)
        assert s8.momentum_support() == pytest.approx(4 * s2.momentum_support())

"""Label transformations, boosts, and commutation with the density pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from diracloc.observables import current
from diracloc.spinor import SPIN_DOWN, SPIN_UP
from diracloc.states import LocalizationLabel, make_state
from diracloc.symmetry import (
    BoostParams,
    PointDensityLimit,
    boost_label,
    parity,
    rotate,
    time_reverse,
    translate,
    velocity_addition,
    verify_boost_against_field,
)
from diracloc.transform import CartesianGrid, density_field, position_state_cartesian
from grid_oracles import boosted_field_weights, rotation_about_z


class TestLabelOperations:
    def test_translate_cancels_point(self):
        lab = LocalizationLabel(a=(1.5, -2.0, 0.25), v=(0, 0, 0.5), n=3)
        moved = translate(lab, (-1.5, 2.0, -0.25))
        assert moved.a == (0.0, 0.0, 0.0)
        assert moved.v == lab.v and moved.n == lab.n and moved.spin == lab.spin

    def test_parity_is_involution(self):
        lab = LocalizationLabel(a=(1, 2, 3), v=(0.1, 0.2, 0.3))
        assert parity(parity(lab)) == lab
        assert parity(lab).a == (-1.0, -2.0, -3.0)
        assert parity(lab).v == (-0.1, -0.2, -0.3)

    def test_time_reversal_flips_velocity_only(self):
        lab = LocalizationLabel(a=(1, 0, 0), v=(0, 0, 0.5))
        rev = time_reverse(lab)
        assert rev.a == lab.a
        assert rev.v == (0.0, 0.0, -0.5)
        assert rev.spin == lab.spin  # spin transformation left open

    def test_quarter_turn_example(self):
        lab = LocalizationLabel(a=(1, 0, 0), v=(0, 0, 0.5))
        out = rotate(lab, rotation_about_z(np.pi / 2))
        assert np.abs(np.asarray(out.a) - [0, 1, 0]).max() < 1e-15
        assert np.abs(np.asarray(out.v) - [0, 0, 0.5]).max() < 1e-15

    def test_improper_rotation_rejected(self):
        with pytest.raises(ValueError):
            rotate(LocalizationLabel(), -np.eye(3))
        with pytest.raises(ValueError):
            rotate(LocalizationLabel(), 2.0 * np.eye(3))


class TestBoost:
    def test_zero_rapidity_is_identity(self):
        lim = PointDensityLimit(point=(1, 2, 3), velocity=(0.1, 0, 0.2), j_weight=(0.1, 0, 0.2))
        out = boost_label(lim, BoostParams(0.0))
        assert out == lim

    def test_rest_particle_gains_boost_velocity(self):
        lim = PointDensityLimit(point=(0, 0, 1.0), velocity=(0, 0, 0))
        out = boost_label(lim, BoostParams(0.7))
        assert out.velocity[2] == pytest.approx(np.tanh(0.7), abs=1e-15)
        assert out.point[2] == pytest.approx(np.cosh(0.7), abs=1e-15)

    def test_half_plus_half_is_point_eight(self):
        rapidity = np.arctanh(0.5)
        assert abs(velocity_addition(0.5, BoostParams(rapidity)) - 0.8) <= 1e-12

    def test_rapidity_composition(self):
        lim = PointDensityLimit(
            point=(0.3, -0.2, 1.7), velocity=(0.1, 0.2, 0.4), j_weight=(0.1, 0.2, 0.4)
        )
        two = boost_label(boost_label(lim, BoostParams(0.3)), BoostParams(0.9))
        one = boost_label(lim, BoostParams(1.2))
        assert np.abs(np.array(two.point) - np.array(one.point)).max() <= 1e-12
        assert np.abs(np.array(two.velocity) - np.array(one.velocity)).max() <= 1e-12
        assert abs(two.rho_weight - one.rho_weight) <= 1e-12

    def test_speed_stays_subluminal(self, rng):
        for _ in range(200):
            v = rng.uniform(-0.6, 0.6, size=3)
            if np.linalg.norm(v) >= 0.99:
                continue
            lim = PointDensityLimit(point=(0, 0, 0), velocity=tuple(v), j_weight=tuple(v))
            out = boost_label(lim, BoostParams(rng.uniform(-3, 3)))
            assert np.linalg.norm(out.velocity) < 1.0

    def test_limit_weights_follow_four_vector_law(self):
        v = (0.1, -0.2, 0.5)
        lim = PointDensityLimit(point=(0, 0, 2.0), velocity=v, j_weight=v)
        s = 0.8
        out = boost_label(lim, BoostParams(s))
        ch, sh = np.cosh(s), np.sinh(s)
        assert out.rho_weight == pytest.approx((ch + v[2] * sh) * ch, rel=1e-14)
        assert out.j_weight[0] == pytest.approx(v[0] * ch, rel=1e-14)
        assert out.j_weight[1] == pytest.approx(v[1] * ch, rel=1e-14)
        assert out.j_weight[2] == pytest.approx((sh + v[2] * ch) * ch, rel=1e-14)
        # consistency: velocity equals j-weight over rho-weight
        assert np.abs(np.array(out.j_weight) / out.rho_weight - out.velocity).max() <= 1e-14


class TestPipelineCommutation:
    GRID = CartesianGrid(32, 12.0)

    @staticmethod
    def _fields(label_kwargs):
        ps = position_state_cartesian(make_state(n=2, **label_kwargs), TestPipelineCommutation.GRID)
        return density_field(ps), current(ps)

    @staticmethod
    def _flip(arr, axes):
        out = arr
        for axis in axes:
            out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
        return out

    def test_parity_commutes(self):
        rho, j = self._fields(dict(a=(0.75, 0, 0), v=(0, 0, 0.2)))
        rho_p, j_p = self._fields(dict(a=(-0.75, 0, 0), v=(0, 0, -0.2)))
        assert np.abs(rho_p - self._flip(rho, (0, 1, 2))).max() <= 1e-3
        for axis in range(3):
            assert np.abs(j_p[axis] + self._flip(j[axis], (0, 1, 2))).max() <= 1e-3

    def test_quarter_rotation_commutes(self):
        # R_z(pi/2): (x, y, z) -> (-y, x, z) is an exact grid permutation;
        # rho'(x) = rho(R^T x) with R^T (x, y, z) = (y, -x, z)
        rho, j = self._fields(dict(a=(0.75, 0, 0), v=(0, 0, 0.2)))
        rho_r, _ = self._fields(dict(a=(0, 0.75, 0), v=(0, 0, 0.2)))
        rotated = self._flip(np.swapaxes(rho, 0, 1), (0,))
        assert np.abs(rho_r - rotated).max() <= 1e-3

    def test_time_reversal_commutes(self):
        # the density is invariant and the longitudinal current flips; the
        # transverse components carry the spin-circulation current, which an
        # unchanged spin label keeps (spin transformation deliberately open)
        rho, j = self._fields(dict(a=(0.75, 0, 0), v=(0, 0, 0.2)))
        rho_t, j_t = self._fields(dict(a=(0.75, 0, 0), v=(0, 0, -0.2)))
        assert np.abs(rho_t - rho).max() <= 1e-3
        assert np.abs(j_t[2] + j[2]).max() <= 1e-3

    def test_time_reversal_flips_mean_velocity(self):
        # the spin circulation integrates to zero, so the label-level
        # statement holds exactly: total current flips with v
        dv = self.GRID.cell_volume
        _, j = self._fields(dict(a=(0.75, 0, 0), v=(0, 0, 0.2)))
        _, j_t = self._fields(dict(a=(0.75, 0, 0), v=(0, 0, -0.2)))
        total = np.sum(j, axis=(1, 2, 3)) * dv
        total_t = np.sum(j_t, axis=(1, 2, 3)) * dv
        assert np.abs(total_t + total).max() <= 1e-6


class TestBoostAgainstField:
    """The closed-form weight ratio against rho' = rho cosh s + j3 sinh s
    formed point by point on grids (``boosted_field_weights``)."""

    def test_zero_rapidity_keeps_fields(self):
        state = make_state(v=(0, 0, 0.5), n=4)
        assert verify_boost_against_field(state, BoostParams(0.0)) == (1.0, 1.0)
        ps = position_state_cartesian(state, CartesianGrid(128, 12.0))
        ratio, moment = boosted_field_weights(ps.grid, density_field(ps), current(ps), 0.0)
        assert ratio == 1.0
        assert np.abs(moment - state.label.a).max() <= 1e-6

    def test_trends_toward_limit(self):
        # the weight ratio converges onto cosh(s) + v3 sinh(s); the first
        # moment is exact at every n for this profile family (the current
        # is even about the labelled point), so it is bounded, not trending
        boost = BoostParams(0.6)
        weight_errs = []
        for n in (4, 8):
            state = make_state(a=(0, 0, 1.0), v=(0, 0, 0.5), n=n)
            ratio, predicted = verify_boost_against_field(state, boost)
            weight_errs.append(abs(ratio - predicted))
            ps = position_state_cartesian(state, CartesianGrid(128, 12.0))
            field_ratio, moment = boosted_field_weights(
                ps.grid, density_field(ps), current(ps), boost.rapidity)
            assert ratio == pytest.approx(field_ratio, rel=1e-6)
            point = boost_label(PointDensityLimit.from_label(state.label), boost).point
            assert np.abs(moment - point).max() <= 1e-6
        assert weight_errs[1] < weight_errs[0]
        assert weight_errs[1] <= 5e-3

    @pytest.mark.parametrize("spin", [SPIN_UP, SPIN_DOWN])
    def test_sums_match_whole_field_transform(self, spin):
        # off-axis point and velocity, v3 != 0 and t != 0: the ratio of the
        # boosted field's whole-grid sums is int j3 / int rho = <xdot_3>
        state = make_state(a=(0.6, -0.9, 0.4), v=(0.35, -0.3, 0.45), spin=spin, n=2)
        ps = position_state_cartesian(replace(state, time=0.7), CartesianGrid(64, 12.0))
        rapidity = 0.6
        ratio, predicted = verify_boost_against_field(state, BoostParams(rapidity))
        field_ratio, _ = boosted_field_weights(ps.grid, density_field(ps), current(ps), rapidity)
        assert ratio == pytest.approx(field_ratio, rel=1e-7)  # the 64^3 grid is off by 1.6e-8
        assert predicted == np.cosh(rapidity) + 0.45 * np.sinh(rapidity)

"""Dirac matrix identities, projector, rotation matrix and eigenspinors."""

import numpy as np
import pytest

from diracloc.spinor import (
    ALPHA,
    BETA,
    SPIN3_BETA_BASIS,
    SPIN_DOWN,
    SPIN_UP,
    energy,
    eigenspinor_components,
    hamiltonian_matrix,
    positive_projector,
    pryce_spin3,
    pryce_u_matrix,
    spin_eigenspinor,
    spinor_derivative_bounds,
)

I4 = np.eye(4)


def random_momenta(count, radius, seed=11):
    return np.random.default_rng(seed).uniform(-radius, radius, size=(count, 3))


class TestMatrixAlgebra:
    def test_anticommutation_exact(self):
        # integer-valued matrices: the relations hold with zero error
        for i in range(3):
            for j in range(3):
                anti = ALPHA[i] @ ALPHA[j] + ALPHA[j] @ ALPHA[i]
                assert np.abs(anti - 2.0 * (i == j) * I4).max() == 0.0
            assert np.abs(ALPHA[i] @ BETA + BETA @ ALPHA[i]).max() == 0.0
        assert np.abs(BETA @ BETA - I4).max() == 0.0

    def test_hermiticity(self):
        for m in (*ALPHA, BETA):
            assert np.abs(m - m.conj().T).max() == 0.0

    def test_spin_matrix_identity(self):
        # -i/2 a1 a2 equals diag(1, -1, 1, -1)/2 in this representation
        assert np.abs(SPIN3_BETA_BASIS - np.diag([0.5, -0.5, 0.5, -0.5])).max() == 0.0


class TestEnergy:
    def test_rest(self):
        assert energy((0.0, 0.0, 0.0)) == 1.0

    def test_unit_momentum(self):
        assert energy((0.0, 0.0, 1.0)) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_pythagorean(self):
        assert energy((3.0, 0.0, 4.0)) == pytest.approx(np.sqrt(26.0), abs=1e-14)

    def test_at_least_rest_energy(self):
        pts = random_momenta(100, 10.0)
        assert np.all(energy(pts) >= 1.0)


class TestHamiltonian:
    def test_zero_momentum_is_beta(self):
        assert np.abs(hamiltonian_matrix((0, 0, 0)) - BETA).max() == 0.0

    def test_square_is_energy_squared(self):
        for p in random_momenta(20, 5.0):
            h = hamiltonian_matrix(p)
            assert np.abs(h @ h - energy(p) ** 2 * I4).max() < 1e-12

    def test_eigenvalues_doubly_degenerate(self):
        for p in random_momenta(10, 8.0):
            e = energy(p)
            vals = np.linalg.eigvalsh(hamiltonian_matrix(p))
            assert np.allclose(vals, [-e, -e, e, e], atol=1e-12)

    def test_eigenspinor_at_unit_pz(self):
        # direct matrix multiply against the closed-form spinor
        p = np.array([0.0, 0.0, 1.0])
        u = spin_eigenspinor(p, SPIN_UP)
        assert np.abs(hamiltonian_matrix(p) @ u - np.sqrt(2.0) * u).max() < 1e-14


class TestProjector:
    def test_rest_projector(self):
        assert np.allclose(positive_projector((0, 0, 0)), np.diag([1, 1, 0, 0]), atol=0)

    def test_idempotent_hermitian_trace(self):
        pts = random_momenta(1000, 50.0)
        proj = positive_projector(pts)
        assert np.abs(proj @ proj - proj).max() <= 1e-12
        assert np.abs(proj - np.conj(np.swapaxes(proj, -1, -2))).max() <= 1e-12
        assert np.abs(np.trace(proj, axis1=-2, axis2=-1) - 2.0).max() <= 1e-12

    def test_projects_onto_energy_eigenspace(self):
        pts = random_momenta(50, 10.0)
        proj = positive_projector(pts)
        ham = hamiltonian_matrix(pts)
        erg = energy(pts)[:, None, None]
        assert np.abs(proj @ ham - erg * proj).max() < 1e-12

    def test_fixes_eigenspinor(self):
        p = np.array([1.0, 1.0, 1.0])
        u = spin_eigenspinor(p, SPIN_UP)
        assert np.abs(positive_projector(p) @ u - u).max() < 1e-14


class TestPryceRotation:
    def test_identity_at_rest(self):
        assert np.abs(pryce_u_matrix((0, 0, 0)) - I4).max() == 0.0

    def test_unitary(self):
        pts = random_momenta(1000, 50.0)
        u = pryce_u_matrix(pts)
        assert np.abs(u @ np.conj(np.swapaxes(u, -1, -2)) - I4).max() <= 1e-12

    def test_intertwines_h_and_beta(self):
        pts = random_momenta(1000, 50.0)
        u = pryce_u_matrix(pts)
        ham = hamiltonian_matrix(pts)
        erg = energy(pts)[:, None, None]
        assert np.abs(ham @ u - erg * (u @ BETA)).max() <= 1e-10

    def test_first_column_at_unit_pz(self):
        cal = np.sqrt(2.0 * np.sqrt(2.0) * (np.sqrt(2.0) + 1.0))
        expected = np.array([np.sqrt(2.0) + 1.0, 0.0, 1.0, 0.0]) / cal
        got = pryce_u_matrix((0, 0, 1.0)) @ np.array([1.0, 0, 0, 0])
        assert np.abs(got - expected).max() < 1e-15


class TestEigenspinors:
    def test_rest_spin_up(self):
        assert np.allclose(spin_eigenspinor((0, 0, 0), SPIN_UP), [1, 0, 0, 0], atol=0)

    def test_unit_pz_components_and_norm(self):
        cal2 = 2.0 * np.sqrt(2.0) * (np.sqrt(2.0) + 1.0)
        assert (np.sqrt(2.0) + 1.0) ** 2 + 1.0 == pytest.approx(cal2, rel=1e-15)
        u = spin_eigenspinor((0, 0, 1.0), SPIN_UP)
        assert np.abs(u - np.array([np.sqrt(2) + 1, 0, 1, 0]) / np.sqrt(cal2)).max() < 1e-15

    def test_explicit_component_formula(self):
        # u^dagger = (E + 1, 0, p3, p1 - i p2)/calE for the +1/2 label
        for p in random_momenta(25, 6.0):
            e = energy(p)
            cal = np.sqrt(2 * e * (e + 1))
            expected_dagger = np.array([e + 1, 0.0, p[2], p[0] - 1j * p[1]]) / cal
            assert np.abs(spin_eigenspinor(p, SPIN_UP).conj() - expected_dagger).max() < 1e-14

    def test_normalized_and_orthogonal(self):
        p = np.array([1.0, 2.0, 0.5])
        up = spin_eigenspinor(p, SPIN_UP)
        down = spin_eigenspinor(p, SPIN_DOWN)
        assert abs(np.vdot(up, up) - 1.0) <= 1e-12
        assert abs(np.vdot(down, down) - 1.0) <= 1e-12
        assert abs(np.vdot(up, down)) <= 1e-12

    def test_residuals_over_random_momenta(self):
        pts = random_momenta(1000, 50.0)
        ham = hamiltonian_matrix(pts)
        erg = energy(pts)
        s3 = pryce_spin3(pts)
        for label in (SPIN_UP, SPIN_DOWN):
            u = spin_eigenspinor(pts, label)
            hu = np.einsum("mab,mb->ma", ham, u)
            assert np.abs(hu - erg[:, None] * u).max() <= 1e-10
            assert np.abs(np.sum(np.abs(u) ** 2, axis=1) - 1.0).max() <= 1e-12
            s3u = np.einsum("mab,mb->ma", s3, u)
            assert np.abs(s3u - label * u).max() <= 1e-10

    def test_spin_down_is_second_u_column(self):
        for p in random_momenta(10, 5.0):
            expected = pryce_u_matrix(p) @ np.array([0.0, 1.0, 0, 0])
            assert np.abs(spin_eigenspinor(p, SPIN_DOWN) - expected).max() < 1e-14

    def test_invalid_spin_label(self):
        with pytest.raises(ValueError):
            spin_eigenspinor((0, 0, 1.0), 0.3)


def bounds_hold(report):
    """|u_a| <= 1 and both derivative bounds, with verify's 1e-3 slack."""
    return max(report.max_component, report.worst_mass_ratio, report.worst_radial_ratio) <= 1 + 1e-3


class TestDerivativeBounds:
    def test_far_momentum_radial_bound(self):
        report = spinor_derivative_bounds([(0.0, 0.0, 10.0)])
        assert bounds_hold(report)
        assert report.worst_radial_ratio < 1.0 + 5e-3  # |du/dp| < 2/|p| + 1e-3 at |p| = 10

    def test_rest_components(self):
        report = spinor_derivative_bounds([(0.0, 0.0, 0.0)])
        assert report.max_component <= 1.0 + 1e-12
        assert bounds_hold(report)

    def test_random_sample_set(self, rng):
        pts = rng.uniform(-20, 20, size=(100, 3))
        for label in (SPIN_UP, SPIN_DOWN):
            report = spinor_derivative_bounds(pts, spin=label)
            assert bounds_hold(report), report

    def test_empty_sample_set_rejected(self):
        with pytest.raises(ValueError):
            spinor_derivative_bounds(np.empty((0, 3)))


class TestVectorizedComponents:
    def test_matches_single_point_evaluation(self):
        pts = random_momenta(40, 8.0)
        comps = eigenspinor_components(pts[:, 0], pts[:, 1], pts[:, 2], SPIN_UP)
        for m, p in enumerate(pts):
            assert np.abs(comps[:, m] - spin_eigenspinor(p, SPIN_UP)).max() == 0.0

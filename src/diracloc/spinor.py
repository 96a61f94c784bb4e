"""Dirac matrix algebra, relativistic kinematics and positive-energy spinors.

Standard (Dirac-Pauli) representation with beta diagonal:

    beta = diag(1, 1, -1, -1),   alpha_i = [[0, sigma_i], [sigma_i, 0]]

The free Hamiltonian is H(p) = alpha.p + m beta with m = 1 (natural
units, see :mod:`diracloc.units`), so H(p)^2 = E(p)^2 with
E(p) = sqrt(|p|^2 + 1).

The module provides the positive-energy projector

    P+(p) = (E(p) + H(p)) / (2 E(p)),

the unitary rotation

    U(p) = (E(p) I4 + H(p) beta) / calE(p),   calE = sqrt(2 E (E + m)),

which maps beta-eigenvectors onto H-eigenvectors (H U = E U beta), the
mean-spin operator S3(p) = U(p) (-i/2 alpha1 alpha2) U(p)^dagger, and
closed-form normalized eigenspinors carrying spin labels +1/2 and -1/2.
``spinor_layout`` is the one record of which slot of such a spinor
holds which entry; ``fill_eigenspinor`` writes it into a caller's array.

All other functions are pure and broadcast over trailing momentum axes,
so they are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .units import MASS

SPIN_UP = 0.5
SPIN_DOWN = -0.5

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

I4 = np.eye(4, dtype=complex)

BETA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

ALPHA = np.zeros((3, 4, 4), dtype=complex)
for _i in range(3):
    ALPHA[_i, :2, 2:] = PAULI[_i]
    ALPHA[_i, 2:, :2] = PAULI[_i]

# -i/2 alpha1 alpha2 = diag(1, -1, 1, -1)/2; kept as an explicit product so
# tests can confirm the identity rather than assume it.
SPIN3_BETA_BASIS = -0.5j * (ALPHA[0] @ ALPHA[1])


def _as_vec(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError(f"momentum must have 3 components, got shape {p.shape}")
    return p


def energy(p) -> np.ndarray | float:
    """Relativistic energy E(p) = sqrt(|p|^2 + 1) in units of m c^2."""
    p = _as_vec(p)
    out = np.sqrt(1.0 + np.sum(p * p, axis=-1))
    return float(out) if out.ndim == 0 else out


def energy_xyz(px, py, pz):
    """E(p) from component arrays (broadcasting form used by field kernels)."""
    return np.sqrt(1.0 + px * px + py * py + pz * pz)


def hamiltonian_matrix(p) -> np.ndarray:
    """Free Dirac Hamiltonian H(p) = alpha.p + beta as a (..., 4, 4) matrix."""
    p = _as_vec(p)
    return np.einsum("iab,...i->...ab", ALPHA, p) + MASS * BETA


def positive_projector(p) -> np.ndarray:
    """Positive-energy projector (E(p) + H(p)) / (2 E(p)).

    Hermitian, idempotent, trace 2, and satisfies P H = E P.
    """
    p = _as_vec(p)
    e = energy(p)
    return (np.multiply.outer(np.asarray(e), I4) + hamiltonian_matrix(p)) / (
        2.0 * np.asarray(e)[..., None, None]
    )


def pryce_u_matrix(p) -> np.ndarray:
    """Unitary U(p) = (E I4 + H beta)/calE with calE = sqrt(2E(E+1)).

    Columns are H-eigenvectors: H U = E U beta, so columns 1, 2 span the
    positive-energy subspace and columns 3, 4 the negative one.
    """
    p = _as_vec(p)
    e = np.asarray(energy(p))
    cal = np.sqrt(2.0 * e * (e + MASS))
    h = hamiltonian_matrix(p)
    return (np.multiply.outer(e, I4) + h @ BETA) / cal[..., None, None]


def pryce_spin3(p) -> np.ndarray:
    """Third component of the mean-spin operator, U (-i/2 a1 a2) U^dagger.

    Commutes with H(p) and has eigenvalues +-1/2 on each energy subspace.
    """
    u = pryce_u_matrix(p)
    return u @ SPIN3_BETA_BASIS @ np.conj(np.swapaxes(u, -1, -2))


class SpinorLayout(NamedTuple):
    """Slots of calE u_spin(p): ``mass`` holds E + m, ``longitudinal``
    sign * p3, ``transverse`` p1 + sign * i p2, and ``zero`` is exactly 0."""

    mass: int
    zero: int
    longitudinal: int
    transverse: int
    sign: float


# spin=+1/2: ((E+1), 0, p3, p1+i p2)/calE, column one of U;
# spin=-1/2: (0, (E+1), p1-i p2, -p3)/calE, column two of U.
_LAYOUTS = {
    SPIN_UP: SpinorLayout(mass=0, zero=1, longitudinal=2, transverse=3, sign=1.0),
    SPIN_DOWN: SpinorLayout(mass=1, zero=0, longitudinal=3, transverse=2, sign=-1.0),
}


def spinor_layout(spin) -> SpinorLayout:
    """Where each entry of the positive-energy eigenspinor of ``spin`` lives."""
    try:
        return _LAYOUTS[spin]
    except KeyError:
        raise ValueError(f"spin label must be +0.5 or -0.5, got {spin!r}") from None


def fill_eigenspinor(out, weight, e_plus_m, px, py, pz, spin):
    """Write weight * calE u_spin(p) into ``out``, a (4, ...) complex array.

    ``weight`` is the scalar factor already divided by calE; it may be
    the view ``out[spinor_layout(spin).zero, ...]``, which is zeroed last.
    ``e_plus_m`` is E(p) + m; every argument broadcasts to ``out[0]``.
    """
    layout = spinor_layout(spin)
    np.multiply(weight, e_plus_m, out=out[layout.mass, ...])
    np.multiply(weight, layout.sign * pz, out=out[layout.longitudinal, ...])
    np.multiply(weight, px + (layout.sign * 1j) * py, out=out[layout.transverse, ...])
    out[layout.zero, ...] = 0.0
    return out


def eigenspinor_components(px, py, pz, spin=SPIN_UP):
    """Positive-energy eigenspinor of H and S3 as a (4, ...) stack.

    The entries follow ``spinor_layout``.  Both spins are exactly
    unit-normalized: (E+1)^2 + |p|^2 = calE^2.
    """
    px, py, pz = np.broadcast_arrays(
        np.asarray(px, dtype=float), np.asarray(py, dtype=float), np.asarray(pz, dtype=float)
    )
    e = energy_xyz(px, py, pz)
    e_plus_m = e + MASS
    inv_cal = 1.0 / np.sqrt(2.0 * e * e_plus_m)
    out = np.empty((4,) + e.shape, dtype=complex)
    return fill_eigenspinor(out, inv_cal, e_plus_m, px, py, pz, spin)


def spin_eigenspinor(p, spin=SPIN_UP) -> np.ndarray:
    """Normalized positive-energy spinor u_spin(p), shape (..., 4).

    Satisfies H u = E u, u^dagger u = 1 and S3(p) u = spin * u.
    """
    p = _as_vec(p)
    comps = eigenspinor_components(p[..., 0], p[..., 1], p[..., 2], spin)
    return np.moveaxis(comps, 0, -1)


@dataclass
class DerivativeBoundReport:
    """Outcome of the finite-difference bound check on eigenspinor components."""

    max_component: float
    max_derivative: float
    worst_mass_ratio: float  # max |du_a/dp_k| / (2/m), must stay < 1 + slack
    worst_radial_ratio: float  # max |du_a/dp_k| * |p| / 2, must stay < 1 + slack
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def spinor_derivative_bounds(
    samples, spin=SPIN_UP, step: float = 1e-5, slack: float = 1e-3
) -> DerivativeBoundReport:
    """Check |u_a| <= 1 and the first-derivative bounds 2/m and 2/|p|.

    Derivatives are taken by central differences with the given step;
    the slack absorbs truncation error.  Samples at p = 0 are skipped
    for the 2/|p| bound, which is vacuous there.
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if pts.size == 0:
        raise ValueError("sample set must be nonempty")
    u0 = eigenspinor_components(pts[:, 0], pts[:, 1], pts[:, 2], spin)  # (4, M)
    deriv = np.empty((3, 4, pts.shape[0]), dtype=complex)
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = step
        up = eigenspinor_components(*(pts + dp).T, spin)
        um = eigenspinor_components(*(pts - dp).T, spin)
        deriv[k] = (up - um) / (2.0 * step)

    comp_mag = np.abs(u0).max(axis=0)  # per sample
    der_mag = np.abs(deriv).max(axis=(0, 1))
    radius = np.linalg.norm(pts, axis=1)

    mass_ratio = der_mag / (2.0 / MASS)
    with np.errstate(divide="ignore"):
        radial_ratio = np.where(radius > 0, der_mag * radius / 2.0, 0.0)

    violations = []
    for m in np.nonzero(comp_mag > 1.0 + slack)[0]:
        violations.append(("component", tuple(pts[m]), float(comp_mag[m])))
    for m in np.nonzero(mass_ratio > 1.0 + slack)[0]:
        violations.append(("derivative_mass", tuple(pts[m]), float(der_mag[m])))
    for m in np.nonzero(radial_ratio > 1.0 + slack)[0]:
        violations.append(("derivative_radial", tuple(pts[m]), float(der_mag[m])))

    return DerivativeBoundReport(
        max_component=float(comp_mag.max()),
        max_derivative=float(der_mag.max()),
        worst_mass_ratio=float(mass_ratio.max()),
        worst_radial_ratio=float(radial_ratio.max()),
        violations=violations,
    )

"""Dirac matrix algebra, relativistic kinematics and positive-energy spinors.

Standard (Dirac-Pauli) representation with beta diagonal:

    beta = diag(1, 1, -1, -1),   alpha_i = [[0, sigma_i], [sigma_i, 0]]

The free Hamiltonian is H(p) = alpha.p + m beta with m = ``MASS`` = 1
(natural units), so H(p)^2 = E(p)^2 with E(p) = sqrt(|p|^2 + 1).

The module provides the positive-energy projector

    P+(p) = (E(p) + H(p)) / (2 E(p)),

the unitary rotation

    U(p) = (E(p) I4 + H(p) beta) / calE(p),   calE = sqrt(2 E (E + m)),

which maps beta-eigenvectors onto H-eigenvectors (H U = E U beta), the
mean-spin operator S3(p) = U(p) (-i/2 alpha1 alpha2) U(p)^dagger, and
closed-form normalized eigenspinors carrying spin labels +1/2 and -1/2.
``spinor_layout`` is the one record of which slot of such a spinor
holds which entry; ``fill_eigenspinor`` writes it, whole or as its three
nonzero slots, into a caller's array.  ``bilinear_density`` and
``packed_current`` read such a spinor the same two ways and are the one
closed form of the pointwise pair (psi^dagger psi, psi^dagger alpha psi):
every grid field, every slab pass over a position-space spinor and the
momentum-space mean velocity use them.

All other functions are pure and broadcast over trailing momentum axes,
so they are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SPIN_UP = 0.5
SPIN_DOWN = -0.5
DERIVATIVE_STEP = 1e-5  # central-difference step of spinor_derivative_bounds

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


MASS = 1.0  # natural units hbar = c = m = 1: momenta in m c, energies in m c^2


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

    def indices(self, count: int) -> tuple[int, int, int]:
        """(mass, longitudinal, transverse) indices into a stack of ``count``
        slots: the whole spinor (4) or its three nonzero slots in slot order (3)."""
        whole = (self.mass, self.longitudinal, self.transverse)
        return whole if count == 4 else tuple(k - (k > self.zero) for k in whole)


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
    """Write weight * calE u_spin(p) into ``out``, a complex array.

    ``out`` is either the whole (4, ...) spinor or a (3, ...) stack of its
    nonzero slots in slot order (``SpinorLayout.indices``).  ``weight`` is
    the scalar factor already divided by calE; it may be the view
    ``out[spinor_layout(spin).zero, ...]`` of a whole spinor, which is
    zeroed last, or the transverse slot of a packed one, which is
    written last.  ``e_plus_m`` is E(p) + m; every argument broadcasts to
    ``out[0]``.
    """
    layout = spinor_layout(spin)
    mass, longitudinal, transverse = layout.indices(len(out))
    np.multiply(weight, e_plus_m, out=out[mass, ...])
    np.multiply(weight, layout.sign * pz, out=out[longitudinal, ...])
    np.multiply(weight, px + (layout.sign * 1j) * py, out=out[transverse, ...])
    if len(out) == 4:
        out[layout.zero, ...] = 0.0
    return out


def bilinear_density(psi, out=None):
    """rho = psi^dagger psi of a (k, ...) stack of spinor slots, summed in slot order.

    The zero slot of an eigenspinor adds exactly 0, so the whole spinor
    and its packed nonzero slots give the same bits.
    """
    rho = np.abs(psi[0], out=out)
    rho *= rho
    term = np.empty_like(rho)
    for component in psi[1:]:
        np.abs(component, out=term)
        term *= term
        rho += term
    return rho


def packed_current(slots, layout: SpinorLayout, out=None):
    """j = psi^dagger alpha psi (units of c) of an eigenspinor of ``layout``.

    ``slots`` is the whole (4, ...) spinor or a (3, ...) stack of its
    nonzero slots, read through ``SpinorLayout.indices``.  Writing psi
    as upper and lower two-spinors, j = 2 Re(upper^dagger sigma lower);
    one upper slot is 0, so only the products of the mass slot m
    survive: with l and t the longitudinal and transverse slots and s
    the layout's sign,

        j1 = 2 Re(m* t),   j2 = 2 s Im(m* t),   j3 = 2 s Re(m* l).
    """
    mass, longitudinal, transverse = layout.indices(len(slots))
    m = slots[mass]
    j = np.empty((3,) + m.shape) if out is None else out
    a = np.conj(m)
    a *= slots[transverse]
    np.multiply(a.real, 2.0, out=j[0])
    np.multiply(a.imag, 2.0 * layout.sign, out=j[1])
    np.conj(m, out=a)
    a *= slots[longitudinal]
    np.multiply(a.real, 2.0 * layout.sign, out=j[2])
    return j


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
    worst_mass_ratio: float  # max |du_a/dp_k| / (2/m)
    worst_radial_ratio: float  # max |du_a/dp_k| * |p| / 2


def spinor_derivative_bounds(samples, spin=SPIN_UP) -> DerivativeBoundReport:
    """The largest |u_a| and first derivatives against the bounds 2/m and 2/|p|.

    Derivatives are taken by central differences of step ``DERIVATIVE_STEP``.
    The bounds hold when every ratio is at most 1; the caller judges the
    truncation error it allows.  Samples at p = 0 are skipped for the
    2/|p| bound, which is vacuous there.
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if pts.size == 0:
        raise ValueError("sample set must be nonempty")
    u0 = eigenspinor_components(pts[:, 0], pts[:, 1], pts[:, 2], spin)  # (4, M)
    deriv = np.empty((3, 4, pts.shape[0]), dtype=complex)
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = DERIVATIVE_STEP
        up = eigenspinor_components(*(pts + dp).T, spin)
        um = eigenspinor_components(*(pts - dp).T, spin)
        deriv[k] = (up - um) / (2.0 * DERIVATIVE_STEP)

    comp_mag = np.abs(u0).max(axis=0)  # per sample
    der_mag = np.abs(deriv).max(axis=(0, 1))
    radius = np.linalg.norm(pts, axis=1)

    mass_ratio = der_mag / (2.0 / MASS)
    with np.errstate(divide="ignore"):
        radial_ratio = np.where(radius > 0, der_mag * radius / 2.0, 0.0)

    return DerivativeBoundReport(
        max_component=float(comp_mag.max()),
        worst_mass_ratio=float(mass_ratio.max()),
        worst_radial_ratio=float(radial_ratio.max()),
    )

"""Nonrelativistic references: the Schroedinger packet chi_n, its current,
spectral evolution and closed-form density as whole 3-D fields or at
points, the free-particle kernel G, and the peak density.

The library holds only the 1-D axis factors of these fields
(``dynamics.nr_packet_factor``, ``nr_evolve_factor`` and
``nr_density_factor``); the 3-D forms here are their oracles.  G is
centred on a but has constant modulus, so it is not normalizable and
cannot represent a localized initial state.
"""

import numpy as np

_SHAPES = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))


def nr_gaussian_state(params, q):
    """chi_n(q) at points q (shape (..., 3))."""
    q = np.asarray(q, dtype=float)
    a = np.asarray(params.a)
    v = np.asarray(params.v)
    n, sigma = params.n, params.sigma
    d2 = np.sum((q - a) ** 2, axis=-1)
    amp = (n / (sigma * np.sqrt(np.pi))) ** 1.5
    return amp * np.exp(-(n * n) * d2 / (2.0 * sigma * sigma)) * np.exp(1j * q @ v)


def nr_density_analytic(params, q, t):
    """Closed-form free-evolution density of chi_n at points q and time t >= 0.

    n^3 sigma^3 / [pi (sigma^4 + n^4 t^2)]^(3/2)
        * exp(-n^2 sigma^2 (q - a - v t)^2 / (sigma^4 + n^4 t^2))
    """
    if t < 0:
        raise ValueError("defined for t >= 0")
    q = np.asarray(q, dtype=float)
    n, sigma = params.n, params.sigma
    centre = np.asarray(params.a) + np.asarray(params.v) * t
    spread = sigma**4 + n**4 * t * t
    d2 = np.sum((q - centre) ** 2, axis=-1)
    prefactor = n**3 * sigma**3 / (np.pi * spread) ** 1.5
    return prefactor * np.exp(-(n * n) * sigma * sigma * d2 / spread)


def nr_peak_density(params, t):
    """Density at the packet's moving centre q = a + v t."""
    spread = params.sigma**4 + params.n**4 * t * t
    return float(params.n**3 * params.sigma**3 / (np.pi * spread) ** 1.5)


def nr_green(q, a, t):
    """Free-particle kernel (2 pi i t)^(-3/2) exp(i (q-a)^2 / 2t), t > 0."""
    if t <= 0:
        raise ValueError("kernel defined for t > 0")
    q = np.asarray(q, dtype=float)
    d2 = np.sum((q - np.asarray(a, dtype=float)) ** 2, axis=-1)
    prefactor = (2.0 * np.pi * t) ** -1.5 * np.exp(-0.75j * np.pi)
    return prefactor * np.exp(1j * d2 / (2.0 * t))


def nr_gaussian_grid(params, grid):
    """chi_n sampled on a Cartesian grid as one (N, N, N) field."""
    x = grid.axis()
    n, sigma = params.n, params.sigma
    out = (n / (sigma * np.sqrt(np.pi))) ** 1.5 + 0j
    for axis in range(3):
        d = x - params.a[axis]
        factor = np.exp(-(n * n) * d * d / (2.0 * sigma * sigma)) * np.exp(
            1j * params.v[axis] * x
        )
        out = out * factor.reshape(_SHAPES[axis])
    return out


def nr_density_analytic_grid(params, grid, t):
    """Closed-form density sampled on a Cartesian grid as one (N, N, N) field."""
    if t < 0:
        raise ValueError("defined for t >= 0")
    x = grid.axis()
    n, sigma = params.n, params.sigma
    spread = sigma**4 + n**4 * t * t
    out = np.asarray(n**3 * sigma**3 / (np.pi * spread) ** 1.5)
    for axis in range(3):
        d = x - params.a[axis] - params.v[axis] * t
        out = out * np.exp(-(n * n) * sigma * sigma * d * d / spread).reshape(_SHAPES[axis])
    return out


def nr_spectral_evolution(chi0, grid, t):
    """Evolve a sampled scalar field by the 3-D kinetic phase e^(-i p^2 t / 2)."""
    p = grid.p_axis()
    p2 = p[:, None, None] ** 2 + p[None, :, None] ** 2 + p[None, None, :] ** 2
    return np.fft.ifftn(np.fft.fftn(chi0) * np.exp(-0.5j * p2 * t))


def nr_current(chi, dq):
    """Current Im(chi* grad chi) by centred differences (one-sided at edges)."""
    j = np.empty((3,) + chi.shape)
    for k in range(3):
        grad = np.gradient(chi, dq, axis=k, edge_order=2)
        j[k] = np.imag(np.conj(chi) * grad)
    return j


def outer3(factors):
    """The (N, N, N) outer product of three axis factors."""
    a, b, c = factors
    return a[:, None, None] * b[None, :, None] * c[None, None, :]

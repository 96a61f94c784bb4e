"""References for the radial path: position-space spreads, and a Bessel
kernel that takes j1 at x <= 1 from scipy's ``spherical_jn``."""

import numpy as np

from diracloc.quadrature import gauss_legendre
from diracloc.transform import _spherical_j01, radial_components


def position_space_delta_x(profile, n, r_max=40.0):
    """Reference spread: 4000-node quadrature of 4 pi r^4 rho on [0, r_max].

    Resolves the state only while its width 1/(n sigma_p) spans many
    nodes, i.e. n <= 16 at sigma_p = 1.
    """
    r, w = gauss_legendre(4000, 0.0, r_max)
    g0, g1 = radial_components(profile, n, r)
    rho = np.abs(g0) ** 2 + np.abs(g1) ** 2
    return float(np.sqrt(np.sum(w * 4.0 * np.pi * r**4 * rho)))


def _two_panel_moment(profile, n, radius, power):
    """int_0^radius 4 pi r^power rho_n dr: Gauss-Legendre on [0, 10/(n sigma_p)]
    and beyond, with 8192 momentum nodes per radius."""
    core = min(radius, 10.0 / (n * profile.sigma_p))
    total = 0.0
    for a, b, order in ((0.0, core, 64), (core, radius, 256)):
        if a < b:
            r, w = gauss_legendre(order, a, b)
            g0, g1 = radial_components(profile, n, r, n_nodes=8192)
            total += np.sum(w * 4.0 * np.pi * r**power * (np.abs(g0) ** 2 + np.abs(g1) ** 2))
    return float(total)


def two_panel_delta_x(profile, n, r_max=12.0):
    """Reference spread sqrt(<x^2>) over [0, r_max]."""
    return float(np.sqrt(_two_panel_moment(profile, n, r_max, 4)))


def two_panel_probability(profile, n, radius):
    """Reference probability inside ``radius``."""
    return _two_panel_moment(profile, n, radius, 2)


def scipy_spherical_j01(x):
    """The library's (j0(x), j1(x)), with scipy's ``spherical_jn(1, x)`` for j1 at x <= 1."""
    from scipy.special import spherical_jn

    j0, j1 = _spherical_j01(x)
    small = x <= 1.0
    j1[small] = spherical_jn(1, x[small])
    return j0, j1

"""References for the radial path: the dense Gauss-Legendre Bessel transform,
the position-space spreads and probabilities built on it, the spread from
the state's 1-D momentum-space form, and a Bessel kernel that takes j1 at
x <= 1 from scipy's ``spherical_jn``."""

import math

import numpy as np

from diracloc.quadrature import gauss_legendre
from diracloc.spinor import MASS, energy_xyz
from diracloc.transform import _spherical_j01


def gl_radial_components(profile, n, r, n_nodes=2048):
    """(g0, g1) at the radii ``r``: ``n_nodes`` Gauss-Legendre nodes on
    [0, n cutoff], one dense (r x p) Bessel matrix per run of 64 radii."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    p, w = gauss_legendre(n_nodes, 0.0, n * profile.cutoff())
    envelope = n**-1.5 * profile(p / n, 0.0, 0.0)
    e = energy_xyz(p, 0.0, 0.0)
    cal = np.sqrt(2.0 * e * (e + MASS))
    scale = np.sqrt(2.0 / np.pi)
    w0 = scale * w * (envelope * (e + MASS) / cal) * p * p
    w1 = scale * w * (envelope * p / cal) * p * p
    g0, g1 = np.empty(r.size), np.empty(r.size)
    for lo in range(0, r.size, 64):
        rows = slice(lo, lo + 64)
        j0, j1 = _spherical_j01(np.multiply.outer(r[rows], p))
        g0[rows] = np.sum(j0 * w0, axis=1)
        g1[rows] = np.sum(j1 * w1, axis=1)
    return g0, g1


def gl_radial_density(profile, n, r, n_nodes=2048):
    g0, g1 = gl_radial_components(profile, n, r, n_nodes)
    return g0 * g0 + g1 * g1


def position_space_delta_x(profile, n, r_max=40.0):
    """Reference spread: 4000-node quadrature of 4 pi r^4 rho on [0, r_max].

    Resolves the state only while its width 1/(n sigma_p) spans many
    nodes, i.e. n <= 16 at sigma_p = 1.
    """
    r, w = gauss_legendre(4000, 0.0, r_max)
    rho = gl_radial_density(profile, n, r)
    return float(np.sqrt(np.sum(w * 4.0 * np.pi * r**4 * rho)))


def _two_panel_moment(profile, n, radius, power):
    """int_0^radius 4 pi r^power rho_n dr: Gauss-Legendre on [0, 10/(n sigma_p)]
    and beyond, with 8192 momentum nodes per radius."""
    core = min(radius, 10.0 / (n * profile.sigma_p))
    total = 0.0
    for a, b, order in ((0.0, core, 64), (core, radius, 256)):
        if a < b:
            r, w = gauss_legendre(order, a, b)
            rho = gl_radial_density(profile, n, r, n_nodes=8192)
            total += np.sum(w * 4.0 * np.pi * r**power * rho)
    return float(total)


def two_panel_delta_x(profile, n, r_max=12.0):
    """Reference spread sqrt(<x^2>) over [0, r_max]."""
    return float(np.sqrt(_two_panel_moment(profile, n, r_max, 4)))


def two_panel_probability(profile, n, radius):
    """Reference probability inside ``radius``."""
    return _two_panel_moment(profile, n, radius, 2)


def momentum_space_delta_x(sigma_p, n):
    """Reference spread of the symmetric state from its 1-D momentum-space form

        Delta_x^2 = 3/(2 w) + 4 pi int p^2 F^2 (1/(E(E + m)) + 1/(4 E^4)) dp,

    w = (n sigma_p)^2, F^2 = (pi w)^(-3/2) exp(-p^2/w): the envelope's
    |grad F|^2 term in closed form and the eigenspinor's by 64-node
    Gauss-Legendre on 60 geometric panels out to 40 n sigma_p."""
    width = n * sigma_p
    edges = np.concatenate([[0.0], np.geomspace(1e-3 * min(1.0, width), 40.0 * width, 60)])
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        p, w = gauss_legendre(64, a, b)
        e = energy_xyz(p, 0.0, 0.0)
        f2 = (math.pi * width * width) ** -1.5 * np.exp(-((p / width) ** 2))
        total += np.sum(w * 4.0 * math.pi * p * p * f2 * (1.0 / (e * (e + MASS)) + 0.25 / e**4))
    return math.sqrt(1.5 / (width * width) + total)


def scipy_spherical_j01(x):
    """The library's (j0(x), j1(x)), with scipy's ``spherical_jn(1, x)`` for j1 at x <= 1."""
    from scipy.special import spherical_jn

    j0, j1 = _spherical_j01(x)
    small = x <= 1.0
    j1[small] = spherical_jn(1, x[small])
    return j0, j1

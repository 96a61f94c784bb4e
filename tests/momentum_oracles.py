"""Spinor-stack references for the momentum-space reductions.

Each routine samples the full (4, M) spinor phi = state.spinor on the
points of a rule (``SphericalRule.points``) and contracts it; the
library forms use the eigenspinor identities u^dagger u = 1 and
i u^dagger grad u = s (p x z)/(2E(E + m)), or the eigenspinor's
closed-form current, instead.  ``bilinear_current``
is the general four-slot current j = 2 Re(upper^dagger sigma lower).
``a_n_limit`` is a second quadrature of R_n(0) for Q = alpha_k,
``pointwise_rn_integral`` is R_n on a rule from the world coordinates of
every point (the library walks the rule's radial and angular factors),
and ``z_axis_rn`` is it on a fine spherical rule about the z axis,
whatever the direction of p and of the envelope centre.
``finite_difference_moments`` differentiates the sampled phi instead of
using i u^dagger grad u and sum_k |d_k u|^2 in closed form.
``pointwise_overlap`` sums phi1^dagger phi2 from both full spinors on
the rule of ``overlap_quadrature``, which folds the scalar parts into
its axis weights instead.
``oracle_momentum_rule`` is ``momentum_rule`` with 32 azimuth nodes in
place of 2, and inside ``on_oracle_rule`` every library reduction
integrates on it.
"""

from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np

from diracloc import observables, states
from diracloc.quadrature import BLOCK_POINTS, gauss_legendre, spherical_rule, tensor_integrate
from diracloc.spinor import ALPHA, MASS, energy_xyz, spinor_layout
from diracloc.states import momentum_rule


def oracle_momentum_rule(profile, n):
    """``states.momentum_rule`` with 32 azimuth nodes: 2^19 points."""
    p_max = n * profile.cutoff()
    axis = None if profile.is_symmetric else profile.center
    return spherical_rule((0.0, min(4.0, 0.5 * p_max), p_max), (128, 128), 64, 32, axis)


@contextmanager
def on_oracle_rule():
    """The norm, the profile check, <xdot> and <x> integrate on
    ``oracle_momentum_rule`` while the context is open."""
    with mock.patch.object(states, "momentum_rule", oracle_momentum_rule), \
            mock.patch.object(observables, "momentum_rule", oracle_momentum_rule):
        yield


def bilinear_current(psi):
    """j = psi^dagger alpha psi (units of c) of any (4, ...) spinor array.

    Writing psi as upper and lower two-spinors, alpha_i = [[0, sigma_i],
    [sigma_i, 0]] gives j = 2 Re(upper^dagger sigma lower); with a = u0* l1,
    b = u1* l0, c = u0* l0, d = u1* l1,

        j1 = 2 Re(a + b),   j2 = 2 Im(a - b),   j3 = 2 Re(c - d).
    """
    u0, u1, l0, l1 = psi
    j = np.empty((3,) + u0.shape)
    a = np.conj(u0)
    a *= l1
    b = np.conj(u1)
    b *= l0
    np.add(a.real, b.real, out=j[0])
    np.subtract(a.imag, b.imag, out=j[1])
    np.conj(u0, out=a)
    a *= l0
    np.conj(u1, out=b)
    b *= l1
    np.subtract(a.real, b.real, out=j[2])
    j *= 2.0
    return j


def spinor_norm(state):
    """||phi|| from sum_a |phi_a|^2 on the rule of MomentumState.norm."""
    p, weights = momentum_rule(state.profile, state.label.n).points()
    dens = np.sum(np.abs(state.spinor(*p)) ** 2, axis=0)
    return float(np.sqrt(np.sum(weights * dens)))


def pointwise_overlap(s1, s2):
    """(phi1, phi2) = int phi1^dagger phi2 d^3p from the sampled spinors at
    every point of the tensor rule of ``overlap_quadrature``."""
    rules = [gauss_legendre(order, lo, hi) for order, lo, hi in observables._overlap_axes(s1, s2)]

    def integrand(px, py, pz):
        return np.sum(s1.spinor(px, py, pz).conj() * s2.spinor(px, py, pz), axis=0)

    return tensor_integrate(integrand, rules)


def finite_difference_moments(state, step=1e-5):
    """(<x>, Delta_x) from <x> = int phi^dagger (i d/dp) phi d^3p and
    <x^2> = int |grad_p phi|^2 d^3p with central differences of phi, each
    normalized by int |phi|^2."""
    p, weights = momentum_rule(state.profile, state.label.n).points()
    phi = state.spinor(*p)
    norm = np.sum(weights * np.sum(np.abs(phi) ** 2, axis=0))
    x2, mean = 0.0, np.empty(3)
    for axis in range(3):
        dp = np.zeros((3, 1))
        dp[axis] = step
        dphi = (state.spinor(*(p + dp)) - state.spinor(*(p - dp))) / (2.0 * step)
        x2 += np.sum(weights * np.sum(np.abs(dphi) ** 2, axis=0))
        mean[axis] = np.sum(weights * np.sum(phi.conj() * 1j * dphi, axis=0)).real
    mean /= norm
    return mean, float(np.sqrt(x2 / norm - mean @ mean))


def einsum_mean_velocity(state):
    """<xdot> = int phi^dagger alpha phi d^3p by the full 4 x 4 ALPHA contraction
    on the rule of ``mean_velocity_two_ways``.

    The contraction is taken per point and the weighted points summed by
    ``np.sum``, whose pairwise sum the library's own sums share; one
    einsum over the points would add them in a single running sum.
    """
    p, weights = momentum_rule(state.profile, state.label.n).points()
    phi = state.spinor(*p)
    current = np.einsum("am,iab,bm->im", phi.conj(), ALPHA, phi).real
    return np.sum(weights * current, axis=1)


def _graded_breaks(inner_scale, outer, factor=4.0):
    breaks = [0.0]
    edge = min(inner_scale, outer)
    while edge < outer and len(breaks) < 6:
        breaks.append(edge)
        edge *= factor
    breaks.append(outer)
    return tuple(breaks)


def a_n_limit(profile, n, axis):
    """A_n = int |f(r)|^2 r_axis / sqrt(|r|^2 + 1/n^2) d^3 r.

    This is R_n(0) for Q = alpha_axis; it converges monotonically onto
    the profile's mean flow component as n grows.
    """
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    cut = profile.cutoff()
    breaks = _graded_breaks(4.0 / n, cut)
    orders = tuple(64 for _ in breaks[:-2]) + (160,)
    p, weights = spherical_rule(breaks, orders, n_theta=64, n_phi=32).points()
    f2 = np.abs(profile(*p)) ** 2
    radius2 = p[0] ** 2 + p[1] ** 2 + p[2] ** 2
    kernel = p[axis] / np.sqrt(radius2 + (MASS / n) ** 2)
    return float(np.sum(weights * f2 * kernel))


def bilinear_numerator(q, s, eq_m, es_m, q_operator, sign):
    """calE(q) calE(s) u(q)^dagger Q u(s) as (real, imaginary) arrays.

    ``eq_m`` and ``es_m`` are E(q) + m and E(s) + m.  The eigenspinor is
    u = (E + m, sigma.p) chi / calE with chi the spin-up or spin-down
    Pauli spinor (``sign`` = +1 or -1), so sigma_i sigma_j = delta_ij +
    i eps_ijk sigma_k and chi^dagger sigma chi = (0, 0, sign) give

        identity: (E_q+m)(E_s+m) + q.s + sign i (q x s)_3
        alpha_i:  (E_q+m)(s_i + sign i eps_ij3 s_j)
                  + (E_s+m)(q_i + sign i eps_ji3 q_j)
    """
    if q_operator == "identity":
        real = eq_m * es_m + q[0] * s[0] + q[1] * s[1] + q[2] * s[2]
        return real, sign * (q[0] * s[1] - q[1] * s[0])
    i = int(q_operator[-1]) - 1
    real = eq_m * s[i] + es_m * q[i]
    if i == 0:
        return real, sign * (eq_m * s[1] - es_m * q[1])
    if i == 1:
        return real, sign * (es_m * q[0] - eq_m * s[0])
    return real, 0.0


def pointwise_rn_integral(profile, n, p, q_operator="identity", spin=0.5):
    """The map rule -> R_n(p) on that rule from every point's world coordinates.

    The rule is walked in slices of whole radial nodes, as many as fit in
    ``BLOCK_POINTS`` points, because the oracle rules hold millions of
    points.  Per slice: q = s - p, E(q) and E(s) from three components
    each, the Gaussian exponent from |s - mid|^2 summed over components,
    and ``bilinear_numerator`` over calE(q) calE(s); the slice sums are
    added in order.
    """
    sign = spinor_layout(spin).sign
    p = np.asarray(p, dtype=float)
    mid = n * np.asarray(profile.center, dtype=float) + 0.5 * p
    width2 = (n * profile.sigma_p) ** 2
    scale = abs(profile.amplitude) ** 2 / n**3 * np.exp(-0.25 * (p @ p) / width2)

    def evaluate(rule):
        real_sum = imag_sum = 0.0
        step = max(1, BLOCK_POINTS // (rule.cos_theta.size * rule.cos_phi.size))
        for lo in range(0, rule.r.size, step):
            part = replace(rule, r=rule.r[lo:lo + step], r2_weights=rule.r2_weights[lo:lo + step])
            s, weights = part.points()
            q = tuple(s[k] - p[k] for k in range(3))
            dist2 = (s[0] - mid[0]) ** 2 + (s[1] - mid[1]) ** 2 + (s[2] - mid[2]) ** 2
            eq, es = energy_xyz(*q), energy_xyz(*s)
            eq_m, es_m = eq + MASS, es + MASS
            weight = weights * np.exp(-dist2 / width2)
            weight /= np.sqrt(4.0 * eq * eq_m * es * es_m)
            real, imag = bilinear_numerator(q, s, eq_m, es_m, q_operator, sign)
            real_sum += float(np.sum(weight * real))
            imag_sum += float(np.sum(weight * imag))
        return complex(scale * real_sum, scale * imag_sum)

    return evaluate


def z_axis_rn(profile, n, p, q_operator="identity", spin=0.5, resolution=(128, 192, 96, 64)):
    """R_n(p) on the z-axis rule of ``convolution_Rn``'s panels at ``resolution``.

    The default is the doubled rule of ``convolution_Rn``'s base resolution
    with 64 azimuth nodes about z for every p and centre; it lies within
    2e-15 of the rule at (192, 288, 144, 128) for n <= 64, |v| <= 0.9.
    """
    p_norm = float(np.linalg.norm(p))
    rule = spherical_rule((0.0, 2.0 * p_norm + 4.0, n * profile.cutoff() + p_norm),
                          resolution[:2], *resolution[2:])
    return pointwise_rn_integral(profile, n, p, q_operator, spin)(rule)

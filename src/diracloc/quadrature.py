"""Gauss-Legendre quadrature helpers for smooth, Gaussian-damped integrands.

Two workhorses:

* plain 1-D Gauss-Legendre rules on [a, b] (nodes cached per order).
  Nodes come from Newton's method in theta (x = cos theta) on the
  three-term recurrence, started from Tricomi's asymptotic guesses, over
  the half of the nodes in (0, 1); the rest follow by symmetry (Hale &
  Townsend, SIAM J. Sci. Comput. 35 (2013) A652).  That is O(n^2) work
  against O(n^3) for the companion-matrix eigenvalues of numpy's
  ``leggauss``, and more accurate near the endpoints, where the
  weights are smallest;
* a spherical product rule (radial panels x Gauss-Legendre in cos(theta)
  x uniform phi) for 3-D integrands that combine a broad Gaussian
  envelope with O(1)-scale structure near the origin.  Graded radial
  panels keep the rule spectrally accurate on both scales.  The polar
  axis is z unless the caller turns it onto another direction: about an
  axis of symmetry of the integrand the azimuth carries only low
  harmonics, which a few trapezoid nodes integrate exactly.  A rule
  gives either every point's world coordinates at once
  (``SphericalRule.points``, for a rule of at most ``BLOCK_POINTS``
  points) or, for an integrand that depends on a point only through
  its radius and a few projections of its direction, its unit
  directions (``SphericalRule.directions``), which the caller walks
  against the radial nodes a block at a time.  Both come from one
  construction of the world coordinates at given radii.

Convergence of any rule can be certified by doubling every node count
and comparing (``node_doubling``), which raises :class:`QuadratureError`
when the doubled rule disagrees beyond the caller's tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


BLOCK_POINTS = 32768  # 256 kB per float64 temporary


class QuadratureError(RuntimeError):
    """Node-doubling disagreement exceeded the promised tolerance."""


def _legendre_pair(x, order: int):
    """(P_order(x), P_{order-1}(x)) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x.copy()
    for k in range(1, order):
        prev, cur = cur, ((2 * k + 1) / (k + 1)) * x * cur - (k / (k + 1)) * prev
    return cur, prev


@lru_cache(maxsize=64)
def _leggauss(order: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton runs in theta for the nodes x_k = cos(theta_k) in (0, 1).
    The recurrence is evaluated at x = fl(cos theta), which near x = 1
    differs from cos(theta) by a rounding error that the steep P_n
    there would amplify to ~1e-11 in the weights; that difference is
    known exactly from 1 - cos(theta) = 2 sin^2(theta/2), and P_n and
    P_n' are carried over it to first order (P_n'' from the Legendre
    equation).  The weight is 2 / ((1 - x^2) P_n'(x)^2).
    """
    n = order
    theta = (4.0 * np.arange(1, n // 2 + 1) - 1.0) * np.pi / (4.0 * n + 2.0)
    guess = 1.0 - (n - 1.0) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    theta = np.arccos(guess * np.cos(theta))
    for _ in range(10):
        x = np.cos(theta)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        pn, pm = _legendre_pair(x, n)
        dp = n * (pm - x * pn) / one_minus_x2
        d2p = (2.0 * x * dp - n * (n + 1) * pn) / one_minus_x2
        shift = 2.0 * np.sin(0.5 * theta) ** 2 - (1.0 - x)  # fl(cos theta) - cos theta
        pn -= dp * shift
        dp -= d2p * shift
        step = pn / (dp * np.sin(theta))  # d/dtheta P_n(cos theta) = -sin(theta) P_n'
        theta += step
        if not np.any(np.abs(step) > 1e-15):
            break
    x = np.cos(theta)
    w = 2.0 / (np.sin(theta) ** 2 * dp * dp)
    if n % 2:  # middle node x = 0, where P_n'(0) = n P_{n-1}(0)
        mid = n * _legendre_pair(np.zeros(1), n)[1]
        return np.concatenate([-x, [0.0], x[::-1]]), np.concatenate([w, 2.0 / mid**2, w[::-1]])
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


def gauss_legendre(order: int, a: float, b: float):
    """Nodes and weights integrating degree <= 2*order-1 exactly on [a, b]."""
    if order < 1:
        raise ValueError("quadrature order must be positive")
    x, w = _leggauss(order)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (b + a), half * w


def panel_rule(breaks, orders):
    """Concatenated Gauss-Legendre rule over consecutive panels.

    breaks: increasing sequence of panel edges, len(breaks) = len(orders)+1.
    """
    xs, ws = [], []
    for (a, b), order in zip(zip(breaks[:-1], breaks[1:]), orders):
        x, w = gauss_legendre(order, a, b)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


@dataclass(frozen=True)
class SphericalRule:
    """3-D product rule: sum(weights * f(x, y, z)) ~ integral.

    Holds the 1-D factor rules; ``points`` builds the flattened points
    (radial node slowest, azimuth fastest).  With a ``frame`` (rows e1,
    e2, e3, e3 the polar axis) each point of the z-axis rule is carried
    to x_i = e1_i x + e2_i y + e3_i z; the weights are unchanged.
    """

    r: np.ndarray
    r2_weights: np.ndarray  # radial weight times r^2
    cos_theta: np.ndarray
    sin_theta: np.ndarray
    theta_weights: np.ndarray
    cos_phi: np.ndarray
    sin_phi: np.ndarray
    phi_weight: float
    frame: np.ndarray | None = None

    def _world(self, radii) -> np.ndarray:
        """(3, radii.size * n_theta * n_phi): the rule's points at ``radii``
        in the world frame, radius slowest and azimuth fastest."""
        r = radii[:, None, None]
        r_sin = r * self.sin_theta[None, :, None]
        local = (r_sin * self.cos_phi, r_sin * self.sin_phi, r * self.cos_theta[None, :, None])
        if self.frame is not None:
            e1, e2, e3 = self.frame
            local = tuple(e1[i] * local[0] + e2[i] * local[1] + e3[i] * local[2] for i in range(3))
        return np.stack(np.broadcast_arrays(*local)).reshape(3, -1)

    def points(self):
        """(p, weights): every point of the rule, p (3, M) in the world frame."""
        w = (self.r2_weights[:, None] * self.theta_weights) * self.phi_weight
        return self._world(self.r), np.repeat(w.ravel(), self.cos_phi.size)

    def directions(self):
        """(d, weights): the angular factor of the rule.

        d is (3, n_theta * n_phi), the unit directions in the world frame
        (polar node slowest, azimuth fastest), and weights their polar
        times azimuth weights, so the rule is the radial nodes r (weights
        ``r2_weights``) times these directions: points r d.  An integrand
        that depends on s only through |s| and a few projections s.a
        can form each projection once per direction instead of once per
        point.
        """
        d = self._world(np.ones(1))
        return d, np.repeat(self.theta_weights * self.phi_weight, self.cos_phi.size)


def pairwise_sum(parts):
    """Sum by recursive halving: for 2^k equal blocks of a 2^m-element array this
    is the order in which numpy's pairwise summation adds the whole array."""
    if len(parts) == 1:
        return parts[0]
    half = len(parts) // 2
    return pairwise_sum(parts[:half]) + pairwise_sum(parts[half:])


def _axis_frame(axis) -> np.ndarray | None:
    """Rows (e1, e2, e3) of the rule frame with polar axis e3 along ``axis``.

    None for an axis along +-z, whose rule is the z-axis rule itself,
    and for one whose unit vector is off z by a subnormal |(e3_x, e3_y)|,
    which carries too few digits to divide by.  Otherwise e1 = (e3_y,
    -e3_x, 0) / |(e3_x, e3_y)| lies in the xy plane and e2 = e3 x e1.
    """
    e3 = np.asarray(axis, dtype=float)
    if not e3.any():
        raise ValueError("a rule axis must be a nonzero vector")
    if not (e3[0] or e3[1]):
        return None
    # a power-of-two scale to |e3|max in [0.5, 1) is exact, and keeps the
    # norm's squares from underflowing (or overflowing) for any axis length
    e3 = np.ldexp(e3, -math.frexp(float(np.abs(e3).max()))[1])
    e3 = e3 / np.linalg.norm(e3)
    transverse = math.hypot(e3[0], e3[1])
    if transverse < np.finfo(float).tiny:
        return None
    e1 = np.array([e3[1], -e3[0], 0.0]) / transverse
    return np.array([e1, np.cross(e3, e1), e3])


def spherical_rule(
    radial_breaks, radial_orders, n_theta: int, n_phi: int, axis=None
) -> SphericalRule:
    """Product rule in spherical coordinates centred at the origin.

    Radial panels follow ``radial_breaks``/``radial_orders``; the polar
    angle uses Gauss-Legendre in cos(theta); the azimuth uses the
    ``n_phi``-point trapezoid rule, spectrally accurate for periodic
    integrands and exact for harmonics below ``n_phi`` (odd ones at
    ``n_phi`` = 2 too).  The polar axis is z, or ``axis`` if given
    (``_axis_frame``); an axis along +-z gives the z-axis rule bit for bit.
    """
    rad, wrad = panel_rule(radial_breaks, radial_orders)
    ct, wct = gauss_legendre(n_theta, -1.0, 1.0)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    return SphericalRule(
        r=rad,
        r2_weights=wrad * rad * rad,
        cos_theta=ct,
        sin_theta=np.sqrt(np.clip(1.0 - ct * ct, 0.0, None)),
        theta_weights=wct,
        cos_phi=np.cos(phi),
        sin_phi=np.sin(phi),
        phi_weight=2.0 * np.pi / n_phi,
        frame=None if axis is None else _axis_frame(axis),
    )


def doubled(rule_args):
    """Double every resolution entry of a spherical_rule argument tuple.

    The tuple is (breaks, orders, n_theta, n_phi) with an optional fifth
    entry, the rule axis, which is carried through unchanged.
    """
    breaks, orders, n_theta, n_phi, *axis = rule_args
    return (breaks, tuple(2 * o for o in orders), 2 * n_theta, 2 * n_phi, *axis)


def node_doubling(evaluate, rule_args, tol: float, label: str):
    """The value at doubled resolution, certified against the base resolution.

    ``evaluate`` maps a SphericalRule to a scalar; ``rule_args`` are the
    base rule's ``spherical_rule`` arguments (``doubled``).  A difference
    between the two values beyond ``tol`` raises ``QuadratureError``,
    whose message starts with ``label``.
    """
    coarse = evaluate(spherical_rule(*rule_args))
    fine = evaluate(spherical_rule(*doubled(rule_args)))
    diff = abs(fine - coarse)
    if not diff <= tol:  # NaN fails too
        raise QuadratureError(
            f"{label}: node-doubling disagreement {diff:.3e} exceeds {tol:.1e}"
        )
    return fine


def tensor_integrate(func, axes_rules) -> complex:
    """Integrate func(px, py, pz) over a tensor-product Gauss-Legendre grid.

    axes_rules: three (nodes, weights) pairs.  The weights may be complex,
    so a factor of the integrand separable along an axis can ride on that
    axis's weights.  The first axis is walked in runs of
    max(1, ``BLOCK_POINTS`` // (n2 n3)) nodes, so ``func`` sees at most
    ``BLOCK_POINTS`` points per call whenever one plane of the other two
    axes fits, and the full 3-D grid is never materialized.
    """
    (x1, w1), (x2, w2), (x3, w3) = axes_rules
    step = max(1, BLOCK_POINTS // (x2.size * x3.size))
    total = 0.0 + 0.0j
    for lo in range(0, x1.size, step):
        px = x1[lo:lo + step, None, None]
        vals = func(px, x2[None, :, None], x3[None, None, :])
        total += np.einsum("i,j,k,ijk->", w1[lo:lo + step], w2, w3, vals)
    return complex(total)

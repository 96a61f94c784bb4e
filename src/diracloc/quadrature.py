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
  harmonics, which a few trapezoid nodes integrate exactly.  A rule is
  its radial nodes times its unit directions in the world frame
  (``SphericalRule``): ``points`` builds every point r d at once, for
  a rule of at most ``BLOCK_POINTS`` points, and an integrand that
  depends on a point only through its radius and a few projections of
  its direction walks the directions against the radial nodes a block
  at a time.

Every quadrature certificate of the library is one ``node_doubling``
call: the value on a rule with every node count doubled (or, for a
trapezoid rule, its step halved) against the value on the base rule,
refused with :class:`QuadratureError` beyond the caller's tolerance.
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

    The radial nodes ``r`` (weights ``r2_weights``, r^2 included) times
    the unit ``directions`` (3, n_theta * n_phi) in the world frame,
    polar node slowest and azimuth fastest (weights ``angular_weights``):
    the rule's points are r d.
    """

    r: np.ndarray
    r2_weights: np.ndarray  # radial weight times r^2
    directions: np.ndarray
    angular_weights: np.ndarray

    def points(self):
        """(p, weights): every point r d of the rule, p (3, M) in the world
        frame, radial node slowest and azimuth fastest."""
        p = self.r[:, None] * self.directions[:, None, :]
        return p.reshape(3, -1), np.outer(self.r2_weights, self.angular_weights).ravel()


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
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))[:, None]
    d = (st * np.cos(phi), st * np.sin(phi), ct[:, None])
    frame = None if axis is None else _axis_frame(axis)
    if frame is not None:
        e1, e2, e3 = frame
        d = tuple(e1[i] * d[0] + e2[i] * d[1] + e3[i] * d[2] for i in range(3))
    return SphericalRule(
        r=rad,
        r2_weights=wrad * rad * rad,
        directions=np.stack(np.broadcast_arrays(*d)).reshape(3, -1),
        angular_weights=np.repeat(wct * (2.0 * np.pi / n_phi), n_phi),
    )


def node_doubling(evaluate, tol, label: str):
    """evaluate(2), certified against evaluate(1).

    ``evaluate(k)`` is the value (a number or an array) on the rule with
    k times every node count.  ``tol`` bounds their difference entry by
    entry: a number, an array, or a function of evaluate(2) giving either.
    Beyond it, or at a NaN, ``QuadratureError`` starts with ``label``.
    """
    coarse, fine = evaluate(1), evaluate(2)
    diff = np.abs(fine - coarse)
    bound = np.broadcast_to(tol(fine) if callable(tol) else tol, np.shape(diff))
    failed = ~(diff <= bound)  # NaN fails too
    if failed.any():
        raise QuadratureError(f"{label}: node-doubling disagreement "
                              f"{np.asarray(diff)[failed][0]:.3e} exceeds {bound[failed][0]:.1e}")
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

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
  panels keep the rule spectrally accurate on both scales.

Convergence of any rule can be certified by doubling every node count
and comparing (``node_doubling``); callers that promise a tolerance
raise :class:`QuadratureError` when the doubled rule disagrees.
"""

from __future__ import annotations

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
    """Flattened 3-D product rule: sum(weights * f(x, y, z)) ~ integral."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    weights: np.ndarray

    def blocks(self):
        """Consecutive sub-rules of at most ``BLOCK_POINTS`` points.

        An integrand built from many elementwise temporaries runs about
        twice as fast block by block, with every temporary cache-sized,
        as over a multi-million-point rule at once.
        """
        for lo in range(0, self.weights.size, BLOCK_POINTS):
            part = slice(lo, lo + BLOCK_POINTS)
            yield SphericalRule(self.x[part], self.y[part], self.z[part], self.weights[part])


def pairwise_sum(parts):
    """Sum by recursive halving: for 2^k equal blocks of a 2^m-element array this
    is the order in which numpy's pairwise summation adds the whole array."""
    if len(parts) == 1:
        return parts[0]
    half = len(parts) // 2
    return pairwise_sum(parts[:half]) + pairwise_sum(parts[half:])


def spherical_rule(
    radial_breaks, radial_orders, n_theta: int = 48, n_phi: int = 32
) -> SphericalRule:
    """Product rule in spherical coordinates centred at the origin.

    Radial panels follow ``radial_breaks``/``radial_orders``; the polar
    angle uses Gauss-Legendre in cos(theta); the azimuth uses the
    ``n_phi``-point trapezoid rule, spectrally accurate for periodic
    integrands.
    """
    rad, wrad = panel_rule(radial_breaks, radial_orders)
    ct, wct = gauss_legendre(n_theta, -1.0, 1.0)
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi

    r = rad[:, None, None]
    cth = ct[None, :, None]
    sth = st[None, :, None]
    ph = phi[None, None, :]

    shape = (rad.size, ct.size, n_phi)
    x = (r * sth * np.cos(ph)).ravel()
    y = (r * sth * np.sin(ph)).ravel()
    z = np.broadcast_to(r * cth, shape).ravel()
    w = np.broadcast_to((wrad[:, None, None] * r * r) * wct[None, :, None] * wphi, shape).ravel()
    return SphericalRule(x, y, z, w)


def doubled(rule_args):
    """Double every resolution entry of a spherical_rule argument tuple."""
    breaks, orders, n_theta, n_phi = rule_args
    return breaks, tuple(2 * o for o in orders), 2 * n_theta, 2 * n_phi


def node_doubling(evaluate, rule_args, tol: float | None = None, label: str = "integral"):
    """Evaluate at base and doubled resolution; optionally enforce agreement.

    ``evaluate`` maps a SphericalRule to a scalar.  Returns (value, diff)
    where value comes from the doubled rule.
    """
    coarse = evaluate(spherical_rule(rule_args[0], rule_args[1], rule_args[2], rule_args[3]))
    b, o, nt, np_ = doubled(rule_args)
    fine = evaluate(spherical_rule(b, o, nt, np_))
    diff = abs(fine - coarse)
    if tol is not None and diff > tol:
        raise QuadratureError(
            f"{label}: node-doubling disagreement {diff:.3e} exceeds {tol:.1e}"
        )
    return fine, diff


def tensor_integrate(func, axes_rules, chunk: int = 8) -> complex:
    """Integrate func(px, py, pz) over a tensor-product Gauss-Legendre grid.

    axes_rules: three (nodes, weights) pairs.  The first axis is processed
    in chunks so the full 3-D grid never has to be materialized at once.
    """
    (x1, w1), (x2, w2), (x3, w3) = axes_rules
    total = 0.0 + 0.0j
    for lo in range(0, x1.size, chunk):
        hi = min(lo + chunk, x1.size)
        px = x1[lo:hi, None, None]
        vals = func(px, x2[None, :, None], x3[None, None, :])
        total += np.einsum("i,j,k,ijk->", w1[lo:hi], w2, w3, vals)
    return complex(total)

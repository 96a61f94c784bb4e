"""Free time evolution and the nonrelativistic comparison suite.

Relativistic evolution is exact in momentum space: a positive-energy
state evolves by the phase exp(-i E(p) t), so the norm is preserved
pointwise and no time-stepping error enters.  Position-space snapshots
are obtained by transforming the evolved state; causality is probed by
the pointwise bound |j| <= rho and by light-cone leakage, i.e. the
probability found outside a sphere expanding at the speed of light.
Each snapshot costs one transform and one slab pass
(``observables.snapshot_pass``), which reads psi slab by slab and returns
only the moments, the causality margin, the probability outside the
light cone and one axis slice; psi is freed before the next time is
transformed, so a report holds no (rho, j) field and its memory does not
grow with the number of times.  The momentum norm does not depend on t
(|exp(-i E t)| = 1), so a report computes it once; the light cone grows
from r0 at the first reported time, by the time elapsed since then, and
the probability outside it is weighted by each cell's share of a radial
slab so that it moves continuously with the cone's radius.

The nonrelativistic block mirrors the same story for a spinless
Schrodinger particle (m = hbar = 1): Gaussian packets

    chi_n(q) = (n / (sigma sqrt(pi)))^(3/2)
               exp(-n^2 (q-a)^2 / (2 sigma^2)) exp(i v.q)

localize onto the point a with current v |chi_n|^2 and evolve into the
closed-form spreading density with centre a + v t.  The packet, the
kinetic phase exp(-i p^2 t / 2) and the closed-form density are all
products of three 1-D factors, and the 3-D DFT of an outer product is
the outer product of 1-D DFTs, so the block holds only the factors:
``nr_packet_factor``, its evolution ``nr_evolve_factor`` and
``nr_density_factor``.  A 3-D field of the suite is the outer product
of three of them, and the ``verify`` checks reduce it without forming
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .observables import moments, snapshot_pass  # noqa: F401  (moments is re-exported)
from .states import MomentumState, check_sequence_index
from .transform import CartesianGrid, position_state_cartesian

# discretization allowance for the leakage on the 64^3, L = 16 grid of verify's causality check
LEAKAGE_GRID_BOUND = 1e-3


def evolve_free(state: MomentumState, t: float) -> MomentumState:
    """Evolve by the exact positive-energy phase: phi -> exp(-i E t) phi."""
    if t == 0.0:
        return state
    return replace(state, time=state.time + t)


def probability_outside(rho: np.ndarray, grid: CartesianGrid, radius: float) -> float:
    """Probability of a whole density field outside the sphere |x| = radius.

    Each cell counts with its ``CartesianGrid.outside_share``.
    """
    share = grid.outside_share(grid.radius(), radius)
    return float(np.sum(share * rho) * grid.cell_volume)


@dataclass
class EvolutionReport:
    """Per-time diagnostics of a freely evolving localized state."""

    r0: float
    times: list = field(default_factory=list)
    momentum_norms: list = field(default_factory=list)
    grid_norms: list = field(default_factory=list)
    mean_x: list = field(default_factory=list)
    delta_x: list = field(default_factory=list)
    mean_velocity: list = field(default_factory=list)
    causality_margins: list = field(default_factory=list)
    lightcone_leakages: list = field(default_factory=list)


def evolve_report(
    state: MomentumState, grid: CartesianGrid, times, r0: float
) -> tuple[EvolutionReport, list[np.ndarray]]:
    """Evolve, transform and collect diagnostics at each requested time.

    The first time is the light-cone baseline: at time t the cone has
    grown from r0 by t - times[0], so the first leakage is exactly 0.
    Each snapshot is reduced by one ``snapshot_pass`` and dropped before
    the next is transformed.  Returns the report and, per time, the
    (4, N) axis slice rho, j1, j2, j3 along x1 at x2 = x3 = 0.  A
    non-finite time, or one before the first, and a non-finite or
    negative r0 raise ``ValueError`` before any transform.
    """
    if not 0.0 <= r0 < math.inf:  # NaN fails too
        raise ValueError(f"r0 must be finite and >= 0, got {r0}")
    times = [float(t) for t in times]
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"times must be finite, got {t}")
        if t < times[0]:
            raise ValueError(f"time {t} precedes the first time {times[0]}")
    report = EvolutionReport(r0=r0)
    slices = []
    norm = state.norm()  # |exp(-i E t)| = 1, so one quadrature serves every time
    for t in times:
        ps = position_state_cartesian(evolve_free(state, t), grid)
        snap = snapshot_pass(ps, r0 + (t - times[0]))
        del ps  # free psi before the next transform allocates its own
        mom = snap.moments
        if not slices:
            outside0 = snap.outside
        report.times.append(t)
        report.momentum_norms.append(norm)
        report.grid_norms.append(math.sqrt(mom.norm))  # mom.norm = sum(rho) dV
        report.mean_x.append([float(c) for c in mom.mean_x])
        report.delta_x.append(mom.delta_x)
        report.mean_velocity.append([float(c) for c in mom.mean_velocity])
        report.causality_margins.append(snap.causality_margin)
        report.lightcone_leakages.append(snap.outside - outside0)
        slices.append(snap.axis_slice)
    return report, slices


# ---------------------------------------------------------------------------
# Nonrelativistic comparison suite (m = hbar = 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NRPacketParams:
    """Gaussian packet family: index n, width sigma, centre a, velocity v."""

    n: int = 1
    sigma: float = 1.0
    a: tuple[float, float, float] = (0.0, 0.0, 0.0)
    v: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("packet width must be positive")
        check_sequence_index(self.n)


def nr_packet_factor(params: NRPacketParams, axis: int, x: np.ndarray) -> np.ndarray:
    """Axis ``axis`` factor of chi_n at coordinates ``x``: chi_n(q) = prod_k c_k(q_k).

    c_k(x) = (n / (sigma sqrt(pi)))^(1/2) exp(-n^2 (x - a_k)^2 / (2 sigma^2)) exp(i v_k x)
    """
    n, sigma = params.n, params.sigma
    d = x - params.a[axis]
    amp = np.sqrt(n / (sigma * np.sqrt(np.pi)))
    envelope = np.exp(-(n * n) * d * d / (2.0 * sigma * sigma))
    return amp * envelope * np.exp(1j * params.v[axis] * x)


def nr_evolve_factor(factor: np.ndarray, grid: CartesianGrid, t: float) -> np.ndarray:
    """Evolve a packet factor sampled on ``grid.axis()`` by the kinetic phase e^(-i p^2 t / 2)."""
    return np.fft.ifft(np.fft.fft(factor) * np.exp(-0.5j * grid.p_axis() ** 2 * t))


def nr_density_factor(params: NRPacketParams, axis: int, x: np.ndarray, t: float) -> np.ndarray:
    """Axis ``axis`` factor of the closed-form density of chi_n at time t >= 0.

    n sigma / [pi (sigma^4 + n^4 t^2)]^(1/2)
        * exp(-n^2 sigma^2 (x - a_k - v_k t)^2 / (sigma^4 + n^4 t^2))

    The centre drifts at v while the width grows without bound.
    """
    if t < 0:
        raise ValueError("defined for t >= 0")
    n, sigma = params.n, params.sigma
    spread = sigma**4 + n**4 * t * t
    d = x - params.a[axis] - params.v[axis] * t
    prefactor = n * sigma / np.sqrt(np.pi * spread)
    return prefactor * np.exp(-(n * n) * sigma * sigma * d * d / spread)

"""Free time evolution and the nonrelativistic comparison suite.

Relativistic evolution is exact in momentum space: a positive-energy
state evolves by the phase exp(-i E(p) t), so the norm is preserved
pointwise and no time-stepping error enters.  Position-space snapshots
are obtained by transforming the evolved state; causality is probed by
the pointwise bound |j| <= rho and by light-cone leakage, i.e. the
probability found outside a sphere expanding at the speed of light.
Each snapshot costs one transform and one (rho, j) pass: the moments,
the causality margin and the leakage all read the same field, and only
that field, not the spinor samples, is kept per time.  The momentum
norm does not depend on t (|exp(-i E t)| = 1), so a report computes it
once; the light cone grows from r0 at the first reported time, by the
time elapsed since then, and the probability outside it is weighted by
each cell's share of a radial slab so that it moves continuously with
the cone's radius.

The nonrelativistic block mirrors the same story for a spinless
Schrodinger particle (m = hbar = 1): Gaussian packets

    chi_n(q) = (n / (sigma sqrt(pi)))^(3/2)
               exp(-n^2 (q-a)^2 / (2 sigma^2)) exp(i v.q)

localize onto the point a with current v |chi_n|^2, evolve into the
closed-form spreading density with centre a + v t, and contrast with
the free-particle kernel G, which is centred but not normalizable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .observables import FourVectorDensity, causality_margin, moments
from .states import MomentumState
from .transform import CartesianGrid, position_state_cartesian

LEAKAGE_GRID_BOUND = 1e-3  # discretization allowance at the default 64 x 16 grid


def evolve_free(state: MomentumState, t: float) -> MomentumState:
    """Evolve by the exact positive-energy phase: phi -> exp(-i E t) phi."""
    if t == 0.0:
        return state
    return replace(state, time=state.time + t)


def probability_outside(rho: np.ndarray, grid: CartesianGrid, radius: float) -> float:
    """Probability outside the sphere |x| = radius.

    A cell counts with the share of a radial slab of width dx, centred on
    it, that lies outside the sphere.  A sharp cell mask would move only
    when the radius crosses a lattice shell (|x|^2 is a multiple of
    dx^2), so a cone grown by less than about dx^2/(2 radius) would not
    grow at all on the grid.
    """
    share = grid.radius()
    share -= radius
    share /= grid.dx
    share += 0.5
    np.clip(share, 0.0, 1.0, out=share)
    return float(np.vdot(share, rho) * grid.cell_volume)


def lightcone_leakage(
    rho0: np.ndarray, rho_t: np.ndarray, grid: CartesianGrid, r0: float, t: float
) -> float:
    """Probability outside the light cone grown from the sphere r0.

    ``rho0`` is the density at some time t0 and ``rho_t`` the density a
    time ``t`` later.  Returns P(|x| > r0 + t at t0 + t) - P(|x| > r0 at
    t0); causal flow cannot make this positive beyond discretization
    error.
    """
    if t < 0:
        raise ValueError("leakage is defined for t >= 0")
    return probability_outside(rho_t, grid, r0 + t) - probability_outside(rho0, grid, r0)


@dataclass
class EvolutionReport:
    """Per-time diagnostics of a freely evolving localized state."""

    times: list = field(default_factory=list)
    momentum_norms: list = field(default_factory=list)
    grid_norms: list = field(default_factory=list)
    mean_x: list = field(default_factory=list)
    delta_x: list = field(default_factory=list)
    mean_velocity: list = field(default_factory=list)
    causality_margins: list = field(default_factory=list)
    leakages: list = field(default_factory=list)
    r0: float = 3.0

    def as_dict(self) -> dict:
        return {
            "r0": self.r0,
            "times": self.times,
            "momentum_norms": self.momentum_norms,
            "grid_norms": self.grid_norms,
            "mean_x": self.mean_x,
            "delta_x": self.delta_x,
            "mean_velocity": self.mean_velocity,
            "causality_margins": self.causality_margins,
            "lightcone_leakages": self.leakages,
        }


def evolve_report(
    state: MomentumState, grid: CartesianGrid, times, r0: float = 3.0
) -> tuple[EvolutionReport, list[FourVectorDensity]]:
    """Evolve, transform and collect diagnostics at each requested time.

    The first time is the light-cone baseline: at time t the cone has
    grown from r0 by t - times[0], so the first leakage is exactly 0.
    Returns the report and the (rho, j) field of every snapshot; the
    spinor samples are dropped once their field has been computed.
    """
    report = EvolutionReport(r0=r0)
    fields = []
    norm = state.norm()  # |exp(-i E t)| = 1, so one quadrature serves every time
    for t in times:
        t = float(t)
        elapsed = t - report.times[0] if report.times else 0.0
        if elapsed < 0:
            raise ValueError(f"time {t} precedes the first time {report.times[0]}")
        ps = position_state_cartesian(evolve_free(state, t), grid)
        fvd = FourVectorDensity.from_position_state(ps)
        mom = moments(ps, fvd)
        if not fields:
            outside0 = probability_outside(fvd.rho, grid, r0)
        report.times.append(t)
        report.momentum_norms.append(norm)
        report.grid_norms.append(ps.norm)
        report.mean_x.append([float(c) for c in mom.mean_x])
        report.delta_x.append(mom.delta_x)
        report.mean_velocity.append([float(c) for c in mom.mean_velocity])
        report.causality_margins.append(causality_margin(fvd))
        report.leakages.append(probability_outside(fvd.rho, grid, r0 + elapsed) - outside0)
        fields.append(fvd)
        del ps  # free psi before the next transform allocates its own
    return report, fields


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
        if self.n < 1:
            raise ValueError("sequence index must be >= 1")


def nr_gaussian_state(params: NRPacketParams, q) -> np.ndarray:
    """chi_n(q) at points q (shape (..., 3))."""
    q = np.asarray(q, dtype=float)
    a = np.asarray(params.a)
    v = np.asarray(params.v)
    n, sigma = params.n, params.sigma
    d2 = np.sum((q - a) ** 2, axis=-1)
    amp = (n / (sigma * np.sqrt(np.pi))) ** 1.5
    return amp * np.exp(-(n * n) * d2 / (2.0 * sigma * sigma)) * np.exp(1j * q @ v)


def nr_density_analytic(params: NRPacketParams, q, t: float) -> np.ndarray:
    """Closed-form free-evolution density of chi_n at time t >= 0.

    n^3 sigma^3 / [pi (sigma^4 + n^4 t^2)]^(3/2)
        * exp(-n^2 sigma^2 (q - a - v t)^2 / (sigma^4 + n^4 t^2))

    The centre drifts at v while the width grows without bound.
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


def nr_peak_density(params: NRPacketParams, t: float) -> float:
    """Density at the moving centre q = a + v t."""
    spread = params.sigma**4 + params.n**4 * t * t
    return float(params.n**3 * params.sigma**3 / (np.pi * spread) ** 1.5)


def nr_current(chi: np.ndarray, dq: float) -> np.ndarray:
    """Current Im(chi* grad chi) by centered differences (one-sided at edges)."""
    grads = np.gradient(chi, dq, edge_order=2)
    return np.stack([np.imag(np.conj(chi) * g) for g in grads])


def nr_green(q, a, t: float) -> np.ndarray:
    """Free-particle kernel (2 pi i t)^(-3/2) exp(i (q-a)^2 / 2t), t > 0.

    Constant modulus (2 pi t)^(-3/2): centred on a but not normalizable,
    so it cannot represent a localized initial state.
    """
    if t <= 0:
        raise ValueError("kernel defined for t > 0")
    q = np.asarray(q, dtype=float)
    d2 = np.sum((q - np.asarray(a, dtype=float)) ** 2, axis=-1)
    prefactor = (2.0 * np.pi * t) ** -1.5 * np.exp(-0.75j * np.pi)
    return prefactor * np.exp(1j * d2 / (2.0 * t))


def nr_gaussian_grid(params: NRPacketParams, grid: CartesianGrid) -> np.ndarray:
    """chi_n sampled on a Cartesian grid (separable broadcast, low memory)."""
    x = grid.axis()
    n, sigma = params.n, params.sigma
    out = (n / (sigma * np.sqrt(np.pi))) ** 1.5 + 0j
    shapes = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
    for axis in range(3):
        d = x - params.a[axis]
        factor = np.exp(-(n * n) * d * d / (2.0 * sigma * sigma)) * np.exp(
            1j * params.v[axis] * x
        )
        out = out * factor.reshape(shapes[axis])
    return out


def nr_density_analytic_grid(params: NRPacketParams, grid: CartesianGrid, t: float) -> np.ndarray:
    """Closed-form density sampled on a Cartesian grid."""
    if t < 0:
        raise ValueError("defined for t >= 0")
    x = grid.axis()
    n, sigma = params.n, params.sigma
    spread = sigma**4 + n**4 * t * t
    out = np.asarray(n**3 * sigma**3 / (np.pi * spread) ** 1.5)
    shapes = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
    for axis in range(3):
        d = x - params.a[axis] - params.v[axis] * t
        out = out * np.exp(-(n * n) * sigma * sigma * d * d / spread).reshape(shapes[axis])
    return out


def nr_spectral_evolution(chi0: np.ndarray, grid: CartesianGrid, t: float) -> np.ndarray:
    """Evolve a sampled scalar packet by the exact kinetic phase e^(-i p^2 t / 2)."""
    p = grid.p_axis()
    p2 = p[:, None, None] ** 2 + p[None, :, None] ** 2 + p[None, None, :] ** 2
    return np.fft.ifftn(np.fft.fftn(chi0) * np.exp(-0.5j * p2 * t))

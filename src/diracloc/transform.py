"""Momentum-space to position-space transforms.

Two routes:

* ``radial_components``/``radial_density``: for spherically symmetric
  profiles with a = 0, v = 0 the position spinor reduces to two radial
  amplitudes obtained from order-0 and order-1 spherical Bessel
  transforms,

      g0(r) = sqrt(2/pi) int F(p) (E+1)/calE j0(pr) p^2 dp
      g1(r) = sqrt(2/pi) int F(p)  p   /calE j1(pr) p^2 dp

  with F(p) = n^(-3/2) f(p/n); ``radial_density(profile, n, r)``
  returns the density |g0|^2 + |g1|^2 at the radii r as a plain array.
  This is the fast path used for the localized-density curves; a curve
  tabulated out to r_max is fitted by ``log_slope`` and its mass beyond
  r_max bounded by ``tail_estimate``, both functions of (r, rho).

* ``position_state_cartesian``: a componentwise 3-D inverse FFT of phi
  sampled on the reciprocal grid.  The envelope, the phase exp(-i a.p),
  the FFT sign and the continuum scale are separable, so they are built
  from three length-N vectors; only E(p), 1/calE and exp(-i E t) are
  computed per point.  One eigenspinor entry is exactly zero, so the
  result holds only the other three, (3, N, N, N) in slot order (48
  bytes per cell), with the spin layout that names them.  phi is
  sampled one slab of p2 columns at a time and transformed along p1
  into the result; the p2 and p3 axes are then transformed in place
  (``ifft_in_place``: ``numpy.fft``, the pocketfft scipy ships too).
  It serves as the independent oracle for the radial path and as the
  only path for states without radial symmetry.  A grid is refused
  before any N^3 allocation when it misses more than ``MASS_TOL`` of
  the momentum mass (the refusal names a grid that covers the state)
  or when its working set exceeds physical memory.

Radial integrals use Gauss-Legendre on [0, p_max] with p_max set by
the profile cutoff (Gaussian tail < 1e-14), 2048 nodes by default, and
j0 and j1 from one shared sin and cos of p r (``_spherical_j01``, bit
for bit scipy's ``spherical_jn``), except j1 at p r <= 1, where that
form cancels: there j1 is the series x sum_k (-x^2/2)^k / (k! (2k+3)!!),
within 2 ulp of the exact value.  Convergence is certified by node
doubling in the tests.  ``radial_probability`` integrates 4 pi r^2 rho_n on its own
Gauss-Legendre nodes, one panel over the core r < 10/(n sigma_p) and
one beyond, so it resolves the state whatever its width; a tabulated
curve would not once 1/(n sigma_p) nears the table spacing.

``radial_delta_x`` needs no transform at all: <x^2> = int |grad_p phi|^2
d^3p reduces to a 1-D momentum integral with a closed-form spinor term,
so the spread is exact over all space at any n.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .quadrature import BLOCK_POINTS, gauss_legendre, panel_rule
from .spinor import SpinorLayout, bilinear_density, energy_xyz, fill_eigenspinor, spinor_layout
from .states import MomentumProfile, MomentumState
from .units import MASS

RADIAL_NODES = 2048
# share of the momentum-space probability a grid may leave beyond its Nyquist momentum
MASS_TOL = 1e-2
# bytes per cell of position_state_cartesian's result: the three nonzero
# spinor slots, complex
GRID_BYTES_PER_CELL = 3 * 16
# bytes per point of the one slab it samples at a time besides: the slab's
# three slots, E(p), exp(-i E t) and calE's temporaries
SLAB_BYTES_PER_POINT = 160


class GridError(ValueError):
    """Grid cannot faithfully represent the requested state."""


@dataclass(frozen=True)
class CartesianGrid:
    """Cubic position grid: extent L per axis, N points per axis (power of 2)."""

    n_points: int = 64
    extent: float = 16.0

    def __post_init__(self):
        n = self.n_points
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"points per axis must be a power of two >= 8, got {n}")
        if self.extent <= 0:
            raise ValueError("grid extent must be positive")

    @property
    def dx(self) -> float:
        return self.extent / self.n_points

    @property
    def dp(self) -> float:
        return 2.0 * np.pi / self.extent

    @property
    def nyquist(self) -> float:
        return np.pi * self.n_points / self.extent

    @property
    def cell_volume(self) -> float:
        return self.dx**3

    def axis(self) -> np.ndarray:
        """Position samples (j - N/2) dx, j = 0..N-1."""
        return (np.arange(self.n_points) - self.n_points // 2) * self.dx

    def p_axis(self) -> np.ndarray:
        """Momentum samples in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    def radius(self, rows: slice = slice(None)) -> np.ndarray:
        """|x| on the full (N, N, N) grid, or on ``rows`` of its first axis."""
        x = self.axis()
        return np.sqrt(
            x[rows, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
        )

    def outside_share(self, r: np.ndarray, radius: float) -> np.ndarray:
        """Share outside the sphere |x| = radius of each cell at |x| = ``r``.

        A cell counts with the share of a radial slab of width dx, centred
        on it, that lies outside the sphere.  A sharp cell mask would move
        only when the radius crosses a lattice shell (|x|^2 is a multiple
        of dx^2), so a sphere grown by less than about dx^2/(2 radius)
        would not grow at all on the grid.
        """
        share = r - radius
        share /= self.dx
        share += 0.5
        return np.clip(share, 0.0, 1.0, out=share)


@dataclass
class PositionState:
    """The nonzero spinor slots of psi(x) on a Cartesian grid, plus label provenance.

    A positive-energy eigenspinor has one slot that is exactly 0
    (``layout.zero``); ``psi`` holds the other three in slot order, and
    ``layout.indices(3)`` says which of them is which.
    """

    grid: CartesianGrid
    psi: np.ndarray  # (3, N, N, N) complex
    layout: SpinorLayout
    label: object = None
    time: float = 0.0

    def slabs(self):
        """(rows, psi[:, rows]) over runs of the first grid axis, in order.

        Each run holds ``BLOCK_POINTS`` cells (the whole grid if it is
        smaller, one row if a row is larger), so a pass over the slabs
        keeps only cache-sized temporaries.  N is a power of two, so the
        runs split the grid where numpy's pairwise summation of a whole
        field splits it.
        """
        n, step = self.grid.n_points, slab_columns(self.grid)
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            yield rows, self.psi[:, rows]


def slab_columns(grid: CartesianGrid) -> int:
    """p2 columns per slab of ``position_state_cartesian``: ``BLOCK_POINTS``
    cells, one column if a column is larger, the whole grid if it is smaller."""
    n = grid.n_points
    return min(n, max(1, BLOCK_POINTS // (n * n)))


def grid_working_set(grid: CartesianGrid) -> int:
    """Bytes ``position_state_cartesian`` holds at once on this grid."""
    n = grid.n_points
    return GRID_BYTES_PER_CELL * n**3 + SLAB_BYTES_PER_POINT * n * n * slab_columns(grid)


def physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def ifft_in_place(a, axes):
    """Unscaled inverse FFT of ``a`` over ``axes``, in place.

    One ``numpy.fft`` pass per axis, in the order given.  In increasing
    order the result is scipy's ``ifftn`` over the same axes to the bit;
    another order differs in the last bits.
    """
    for axis in axes:
        np.fft.ifft(a, axis=axis, norm="forward", out=a)


def position_state_cartesian(state: MomentumState, grid: CartesianGrid) -> PositionState:
    """Inverse 3-D FFT of phi sampled on the reciprocal grid.

    The result carries the continuum scaling, so its discrete norm
    reproduces the momentum-space norm up to the mass the grid cannot
    represent.  A grid whose Nyquist momentum misses more than
    ``MASS_TOL`` of the state's momentum-space probability is rejected,
    and so is one whose working set exceeds physical memory, before
    anything of grid size is allocated.

    phi is sampled one slab of p2 columns at a time and transformed
    along p1 into the result, scaled there by 1/N^3 as ``ifftn`` scales
    its first axis (an exact power of two); the p2 and p3 axes are then
    transformed in place, axis 2 first, so the values are those of
    ``ifftn`` over all three axes to the bit.
    """
    support = state.momentum_support(MASS_TOL)
    if grid.nyquist < support:
        n, L = grid.n_points, grid.extent
        # Nyquist pi N / L >= support: the smallest such power-of-two N at this
        # L, or the largest L (rounded down to what the message prints) at this N
        n_need = max(8, 2 ** math.ceil(math.log2(support * L / math.pi)))
        l_max = math.floor(100.0 * math.pi * n / support) / 100.0
        raise GridError(
            f"grid Nyquist {grid.nyquist:.2f} < state momentum support {support:.2f} "
            f"(n = {state.label.n}); use N >= {n_need} at L = {L:g}, "
            f"or L <= {l_max:.2f} at N = {n}"
        )
    need, have = grid_working_set(grid), physical_memory()
    if need > have:
        raise GridError(
            f"a {grid.n_points}^3 grid needs {need} bytes, more than the {have} bytes "
            "of physical memory; lower N"
        )
    n, step = grid.n_points, slab_columns(grid)
    p = grid.p_axis()
    px, pz = p[:, None, None], p[None, None, :]
    # exp(i p_k x_0) with x_0 = -L/2 reduces to (-1)^(integer frequency)
    sign = np.where(np.rint(np.fft.fftfreq(n) * n).astype(int) % 2 == 0, 1.0, -1.0)
    fx, fy, fz = (f * sign for f in state.axis_factors(p))
    fx *= (n * grid.dp) ** 3 / (2.0 * np.pi) ** 1.5
    fxy = fx[:, None, None] * fy[None, :, None]
    layout = spinor_layout(state.label.spin)
    psi = np.empty((3, n, n, n), dtype=complex)
    for lo in range(0, n, step):
        cols = slice(lo, lo + step)
        py = p[None, cols, None]
        slab = np.empty((3, n, step, n), dtype=complex)
        # the transverse slot holds the scalar weight until fill_eigenspinor
        # writes it, last
        weight = slab[layout.indices(3)[2]]
        np.multiply(fxy[:, cols], fz, out=weight)
        e = energy_xyz(px, py, pz)
        weight /= np.sqrt(2.0 * e * (e + MASS))
        if state.time != 0.0:
            phase = e * (-1j * state.time)
            np.exp(phase, out=phase)  # in place: one complex scratch slab
            weight *= phase
        e += MASS
        fill_eigenspinor(slab, weight, e, px, py, pz, state.label.spin)
        ifft_in_place(slab, (1,))
        # real and imaginary parts times 1/N^3, as pocketfft scales
        np.multiply(slab.view(float), 1.0 / n**3, out=psi[:, :, cols].view(float))
    ifft_in_place(psi, (2, 3))
    return PositionState(grid=grid, psi=psi, layout=layout, label=state.label, time=state.time)


# 1/(k! (2k+3)!!), k = 0..11: the power series of j1(x)/x in -x^2/2.  At
# x <= 1 the first term left out (k = 12) is below 2^-86 of the sum.
_J1_SERIES = tuple(
    1.0 / (math.factorial(k) * math.prod(range(2 * k + 3, 0, -2))) for k in range(12)
)


def _spherical_j01(x):
    """(j0(x), j1(x)) for x >= 0 from one sin and one cos of x.

    j0 = sin x / x and, for x > 1, j1 = (j0 - cos x) / x: the forms
    scipy's ``spherical_jn`` itself takes there, so the values are the
    same to the bit; j0(0) = 1.  At x <= 1 that difference cancels, and
    j1 is the series x sum_k (-x^2/2)^k / (k! (2k+3)!!) by Horner in
    ``_J1_SERIES``, within 2 ulp of the exact value on (0, 1] (scipy's
    ``spherical_jn`` is off it by tens of ulp there, hundreds at tiny x).
    """
    with np.errstate(invalid="ignore"):  # 0/0 at x = 0, replaced below
        j0 = np.sin(x)
        j0 /= x
        j0[x == 0.0] = 1.0
        j1 = np.cos(x)
        np.subtract(j0, j1, out=j1)
        j1 /= x
    small = x <= 1.0
    xs = x[small]
    u = xs * xs
    u *= -0.5
    series = np.full_like(xs, _J1_SERIES[-1])
    for c in _J1_SERIES[-2::-1]:
        series *= u
        series += c
    series *= xs
    j1[small] = series
    return j0, j1


def radial_components(
    profile: MomentumProfile, n: int, r, n_nodes: int = RADIAL_NODES
):
    """Radial amplitudes (g0, g1) of the upper and lower spinor parts.

    Valid only for spherically symmetric profiles (a = 0, v = 0); the
    angular content of the lower components is carried analytically by
    the unit vector x/r, so only these two radial profiles are needed.
    """
    if not profile.is_symmetric:
        raise ValueError("radial reduction requires a spherically symmetric profile")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radii must be nonnegative")
    p_max = n * profile.cutoff()
    p, w = gauss_legendre(n_nodes, 0.0, p_max)
    envelope = n**-1.5 * profile(p / n, 0.0, 0.0)
    e = energy_xyz(p, 0.0, 0.0)
    cal = np.sqrt(2.0 * e * (e + MASS))
    # sqrt(2/pi) int kernel(p) j_l(p r) p^2 dp for the two kernels, each row
    # by numpy's pairwise sum, not BLAS: a threaded dgemv sums some rows in
    # another order, so the bits would depend on the BLAS thread count
    j0, j1 = _spherical_j01(np.multiply.outer(np.atleast_1d(r), p))
    scale = np.sqrt(2.0 / np.pi)
    j0 *= w * (envelope * (e + MASS) / cal) * p * p
    j1 *= w * (envelope * p / cal) * p * p
    g0 = (scale * np.sum(j0, axis=1)).astype(complex)
    g1 = (scale * np.sum(j1, axis=1)).astype(complex)
    if np.ndim(r) == 0:
        return complex(g0[0]), complex(g1[0])
    return g0, g1


def radial_density(profile: MomentumProfile, n: int, r) -> np.ndarray:
    """rho_n(r) = |g0|^2 + |g1|^2 at the radii ``r``."""
    g0, g1 = radial_components(profile, n, r)
    return np.abs(g0) ** 2 + np.abs(g1) ** 2


def log_slope(r: np.ndarray, rho: np.ndarray, r_lo: float, r_hi: float) -> float:
    """Slope of log rho on [r_lo, r_hi]; negative for decaying tails."""
    mask = (r >= r_lo) & (r <= r_hi) & (rho > 0)
    return float(np.polyfit(r[mask], np.log(rho[mask]), 1)[0])


def tail_estimate(r: np.ndarray, rho: np.ndarray) -> float:
    """Bound the probability beyond the last radius via an exponential fit.

    Fits log rho over the outermost 20 % of the radii; positive-energy
    densities decay exponentially, so the extrapolated integral
    4 pi r^2 rho(R) e^(lambda (r - R)) bounds the missing mass.
    """
    R = r[-1]
    if np.count_nonzero(rho[r >= 0.8 * R] > 0) < 2:
        return 0.0
    slope = log_slope(r, rho, 0.8 * R, R)
    if slope >= 0:  # no decay detected; refuse to certify
        return float("inf")
    lam = -slope
    dens = rho[-1]
    return float(4.0 * np.pi * dens * (R * R / lam + 2.0 * R / lam**2 + 2.0 / lam**3))


def radial_probability(profile: MomentumProfile, n: int, radius: float) -> float:
    """Probability inside ``radius``: Gauss-Legendre quadrature of 4 pi r^2 rho_n.

    The state has width ~1/(n sigma_p), so the rule does not depend on
    any table: 64 nodes over the core [0, min(radius, 10/(n sigma_p))]
    and 128 nodes beyond it.
    """
    core = min(radius, 10.0 / (n * profile.sigma_p))
    total = 0.0
    for lo, hi, order in ((0.0, core, 64), (core, radius, 128)):
        if lo < hi:
            r, w = gauss_legendre(order, lo, hi)
            rho = radial_density(profile, n, r)
            total += float(np.sum(w * 4.0 * np.pi * r * r * rho))
    return total


def radial_delta_x(profile: MomentumProfile, n: int) -> float:
    """Position spread sqrt(<x^2>) of the symmetric state, over all space.

    <x^2> = int |grad_p phi|^2 d^3p.  With phi = F(|p|) u(p) and a unit
    eigenspinor (Re u^dagger d_k u = 0) the cross term drops, and
    sum_k |d_k u|^2 = 1/(E (E + m)) + 1/(4 E^4) for either spin, so

        <x^2> = 4 pi int p^2 (F'(p)^2 + F(p)^2 (1/(E(E+m)) + 1/(4E^4))) dp

    with F'(p) = -p F(p) / (n sigma_p)^2 for the Gaussian.  The radial
    rule is graded, panels [0, 1], [1, 4], [4, 16], ... up to the
    envelope cutoff, so it resolves both the unit-scale spinor factor and
    the envelope of width n sigma_p, whatever n is.
    """
    if not profile.is_symmetric:
        raise ValueError("radial reduction requires a spherically symmetric profile")
    p_max = n * profile.cutoff()
    breaks, edge = [0.0], 1.0
    while edge < p_max:
        breaks.append(edge)
        edge *= 4.0
    breaks.append(p_max)
    p, w = panel_rule(breaks, [48] * (len(breaks) - 1))
    envelope2 = (n**-1.5 * profile(p / n, 0.0, 0.0)) ** 2
    e = energy_xyz(p, 0.0, 0.0)
    spin_term = 1.0 / (e * (e + MASS)) + 0.25 / e**4
    envelope_term = (p / (n * profile.sigma_p) ** 2) ** 2
    x2 = 4.0 * np.pi * np.sum(w * p * p * envelope2 * (envelope_term + spin_term))
    return float(np.sqrt(x2))


def density_field(ps: PositionState) -> np.ndarray:
    """rho(x) = psi^dagger psi on the whole grid, filled slab by slab."""
    rho = np.empty(ps.psi.shape[1:])
    for rows, block in ps.slabs():
        bilinear_density(block, out=rho[rows])
    return rho

"""Momentum-space to position-space transforms.

Two routes:

* ``radial_curve``/``radial_components``: for spherically symmetric
  profiles with a = 0, v = 0 the position spinor reduces to two radial
  amplitudes obtained from order-0 and order-1 spherical Bessel
  transforms,

      g0(r) = sqrt(2/pi) int F(p) (E+1)/calE j0(pr) p^2 dp
      g1(r) = sqrt(2/pi) int F(p)  p   /calE j1(pr) p^2 dp

  with F(p) = n^(-3/2) f(p/n).  Extended to negative p both integrands
  are even and analytic in the strip |Im p| < m, where E has its branch
  points, and decay like a Gaussian, so the trapezoid rule on p_k = k h
  converges geometrically (Trefethen & Weideman, SIAM Rev. 56 (2014)
  385).  ``radial_curve`` tabulates rho = g0^2 + g1^2 on a uniform
  table from rffts of that rule, takes the norm, the spread and
  P(|x| < R) from its radius grid and one more rfft, with no radial
  quadrature, and certifies all of it by halving h.
  ``radial_components`` is the same rule summed directly at any radii,
  in blocks, at a step the caller picks: the reference for the table
  and its rows near the origin.  ``log_slope`` fits a tabulated tail.

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

The radial rule's nodes stop at p_max = n cutoff (Gaussian tail
< 1e-14); j0 and j1 come from one shared sin and cos of p r
(``_spherical_j01``, bit for bit scipy's ``spherical_jn``), except j1
at p r <= 1, where that form cancels: there j1 is the series
x sum_k (-x^2/2)^k / (k! (2k+3)!!), within 2 ulp of the exact value.
The norm's radius grid reaches 20/m beyond r_max, and over 60 widths
1/(n sigma_p) of the state: by Paley-Wiener rho decays like e^(-2 m r),
since phi is analytic for |Im p| < m, and by Hegerfeldt (Phys. Rev. D
10 (1974) 3320) no faster than exponentially, so the mass it leaves out
is below e^(-40).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .quadrature import BLOCK_POINTS, QuadratureError
from .spinor import (
    MASS, SpinorLayout, bilinear_density, energy_xyz, fill_eigenspinor, spinor_layout,
)
from .states import MomentumProfile, MomentumState, check_sequence_index

# The trapezoid momentum rule of the radial path (``radial_curve``).  rho
# decays like e^(-2 m r), so the rule's images and the mass TAIL_RADIUS
# beyond the farthest radius asked are below e^(-40) of it.
TAIL_RADIUS = 20.0 / MASS
# at least this many nodes of step h on [0, n cutoff]: the rule stops at the
# cutoff, where the envelope is 1e-14 of its peak, and its end error of about
# h f(p_max) then stays near 1e-14 of rho(0) however narrow the envelope is;
# the radius grid, pi/h long, then spans over 60 widths 1/(n sigma_p)
MIN_NODES = 160
# pi/dr >= 2.2 p_max: the density's transform, which reaches 2 p_max, and
# every momentum node stay below the fold of the radius grid
RADIUS_STEPS_PER_MOMENTUM = 2.2
# rows nearer the origin than this, and than 5/(n sigma_p), are direct sums:
# there the FFT's g1 = S1/r^2 - C1/r cancels
DIRECT_RADIUS = 0.05
# step-halving bounds: the table relative to rho(0), the spread relative to
# itself, the norm and the probabilities absolute
TABLE_TOL = 1e-12
PROBABILITY_TOL = 1e-12
# the h/2 rule's transforms: 2^21 points, 16 MB per real array
MAX_FFT_LENGTH = 2**21
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
        if not math.isfinite(self.extent):
            raise ValueError(f"grid extent must be finite, got {self.extent}")
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
    """The nonzero spinor slots of psi(x) on a Cartesian grid.

    A positive-energy eigenspinor has one slot that is exactly 0
    (``layout.zero``); ``psi`` holds the other three in slot order, and
    ``layout.indices(3)`` says which of them is which.
    """

    grid: CartesianGrid
    psi: np.ndarray  # (3, N, N, N) complex
    layout: SpinorLayout

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
    return PositionState(grid=grid, psi=psi, layout=layout)


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


def _kernels(profile: MomentumProfile, n: int, p: np.ndarray):
    """sqrt(2/pi) F(p) (E+m)/calE and sqrt(2/pi) F(p) p/calE at the momenta ``p``."""
    e = energy_xyz(p, 0.0, 0.0)
    envelope = np.sqrt(2.0 / np.pi) * n**-1.5 * profile(p / n, 0.0, 0.0)
    envelope /= np.sqrt(2.0 * e * (e + MASS))
    return envelope * (e + MASS), envelope * p


def _trapezoid_sums(profile: MomentumProfile, n: int, r: np.ndarray, n_nodes: int, step: float):
    """(g0, g1) at the radii ``r`` by the trapezoid rule of step h = ``step``
    on p_k = k h, k = 1..n_nodes, and by the rule of step 2h on its even nodes.

    Returns two (2, r.size) arrays, rows g0 and g1.  The (r, p) kernel is
    walked in blocks of at most ``BLOCK_POINTS`` entries: rows of radii by
    runs of nodes, each run of even length whenever there is more than
    one, so the even nodes k are the odd columns of every block.  Each row
    is summed by numpy's pairwise sum, not BLAS, whose threads would add
    some rows in another order.
    """
    p = step * np.arange(1, n_nodes + 1)
    k0, k1 = _kernels(profile, n, p)
    weights = np.stack([k0, k1]) * (step * p * p)
    cols = min(n_nodes, BLOCK_POINTS)
    rows = max(1, BLOCK_POINTS // cols)
    sums = np.zeros((2, 2, r.size))  # [all nodes, even nodes] x [g0, g1] x radius
    for lo in range(0, r.size, rows):
        radii = slice(lo, lo + rows)
        for start in range(0, n_nodes, cols):
            nodes = slice(start, start + cols)
            for g, j in enumerate(_spherical_j01(np.multiply.outer(r[radii], p[nodes]))):
                j *= weights[g, nodes]
                sums[0, g, radii] += j.sum(axis=1)
                sums[1, g, radii] += j[:, 1::2].sum(axis=1)
    return sums[0], 2.0 * sums[1]


def radial_components(profile: MomentumProfile, n: int, r, n_nodes: int, step: float):
    """Radial amplitudes (g0, g1) of the upper and lower spinor parts at the radii ``r``.

    Valid only for spherically symmetric profiles (a = 0, v = 0); the
    angular content of the lower components is carried analytically by
    the unit vector x/r, so only these two radial profiles are needed.
    Direct trapezoid sums on the nodes p_k = k ``step``, k = 1..``n_nodes``.
    An n below 1 or not finite, or a negative or non-finite radius,
    raises ``ValueError``.
    """
    check_sequence_index(n)
    if not profile.is_symmetric:
        raise ValueError("radial reduction requires a spherically symmetric profile")
    r = np.asarray(r, dtype=float)
    if not np.all((r >= 0.0) & (r < math.inf)):  # NaN fails too
        raise ValueError(f"radii must be finite and >= 0, got {r}")
    (g0, g1), _ = _trapezoid_sums(profile, n, np.atleast_1d(r), n_nodes, step)
    if np.ndim(r) == 0:
        return float(g0[0]), float(g1[0])
    return g0, g1


def log_slope(r: np.ndarray, rho: np.ndarray, r_lo: float, r_hi: float) -> float:
    """Slope of log rho on [r_lo, r_hi]; negative for decaying tails."""
    mask = (r >= r_lo) & (r <= r_hi) & (rho > 0)
    return float(np.polyfit(r[mask], np.log(rho[mask]), 1)[0])


@dataclass(frozen=True)
class RadialCurve:
    """rho_n on a uniform table, its norm, spread and P(|x| < R) at chosen
    radii, with the differences between the trapezoid rules of step h and h/2.

    The values are those of the h/2 rule.  ``norm`` is 4 pi int r^2 rho
    over the whole radius grid, which reaches ``TAIL_RADIUS`` beyond r_max
    and pi ``MIN_NODES``/p_max = 20 pi/(n sigma_p), over 60 widths of the
    state, so it leaves out less than e^(-40) of the mass; ``delta_x`` is
    sqrt(4 pi int r^4 rho / norm) on it.  ``table_halving`` is the largest
    table difference relative to rho(0), ``probability_halving`` the largest
    difference of the norm, a probability, or delta_x relative to itself.
    """

    rho: np.ndarray
    norm: float
    delta_x: float
    probabilities: tuple
    table_halving: float
    probability_halving: float


def _fft_density(coeffs: np.ndarray, length: int, dr: float, direct: np.ndarray) -> np.ndarray:
    """rho at r_j = j dr, j = 0..length/2, from the trapezoid terms ``coeffs``.

    With h dr = 2 pi/length, p_k r_j = 2 pi k j/length, so the sine and
    cosine sums S0, S1 and C1 of the rows of ``coeffs`` (w F (E+m) p/calE,
    w F p/calE and w F p^2/calE, times sqrt(2/pi)) come from one rfft,
    and g0 = S0/r, g1 = S1/r^2 - C1/r.  The rows j < len(direct[0]),
    where g1's two terms cancel, are taken from ``direct`` instead.
    """
    s = np.fft.rfft(coeffs, n=length)[:, 1:]
    r = dr * np.arange(1, length // 2 + 1)
    g0 = -s[0].imag / r
    g1 = (-s[1].imag / r - s[2].real) / r
    rho = np.empty(length // 2 + 1)
    rho[1:] = g0 * g0 + g1 * g1
    rows = direct.shape[1]
    rho[:rows] = direct[0] ** 2 + direct[1] ** 2
    return rho


def _fft_probabilities(rho: np.ndarray, dr: float, radii) -> tuple:
    """(norm, Delta_x, [P(|x| < R) for R in ``radii``]) from rho at r_j = j dr, j = 0..M.

    The norm is the trapezoid sum of 4 pi r^2 rho over the whole grid,
    Delta_x^2 that of 4 pi r^4 rho over the norm.
    P(|x| < R) = (2R^2/pi) int q rho^(q) j1(qR) dq, where
    rho^(q) = (4 pi/q) int r rho(r) sin(qr) dr is the trapezoid sum over
    the r_j, taken by one rfft on q_m = m h with h dr = pi/M, and the q
    integral is the trapezoid sum on the same q_m.  Every integrand is
    even and analytic, so every sum converges geometrically; h dr = pi/M
    turns the double sum into 8 pi R^2/M sum_m T_m j1(q_m R), with
    T_m = sum_j r_j rho_j sin(q_m r_j).
    """
    m = rho.size - 1
    r = dr * np.arange(m + 1)
    x = r * rho
    t = -np.fft.rfft(x, n=2 * m).imag[1:]
    q = (math.pi / (m * dr)) * np.arange(1, m + 1)
    norm = 4.0 * math.pi * dr * float(np.sum(r * x))
    spread2 = 4.0 * math.pi * dr * float(np.sum(r**3 * x))
    return norm, math.sqrt(spread2 / norm), [
        8.0 * math.pi * R * R / m * float(np.sum(t * _spherical_j01(q * R)[1])) for R in radii
    ]


def radial_curve(
    profile: MomentumProfile, n: int, r_max: float, r_count: int, radii=()
) -> RadialCurve:
    """rho_n at r_i = i r_max/(r_count - 1), the norm, Delta_x and P(|x| < R) for R in ``radii``.

    One trapezoid rule in p, nodes p_k = k h/2 on [0, p_max], p_max =
    n cutoff, on the radius grid r_j = j dr, dr = the table spacing over
    k, where k is the least integer with pi/dr >= ``RADIUS_STEPS_PER_MOMENTUM``
    p_max: then every node sits below the fold of the transforms, and so
    does the density's transform, which reaches 2 p_max.  pi/h = M dr,
    with M the least power of two that puts pi/h ``TAIL_RADIUS`` beyond
    every radius asked and gives the rule of step h ``MIN_NODES`` nodes.
    The amplitudes and the density's transform come from rffts
    (``_fft_density``, ``_fft_probabilities``); the rows within
    min(5/(n sigma_p), ``DIRECT_RADIUS``) of the origin are direct sums.
    The table is every k-th row.  A negative or non-finite r_max or
    radius, or an n below 1 or not finite, raises ``ValueError``, and a
    rule whose transforms would exceed ``MAX_FFT_LENGTH`` points
    ``QuadratureError``, before anything is allocated.

    Certified by halving h: the rule of step h is the even nodes of the
    h/2 rule, so it costs no second kernel evaluation.  A table difference
    beyond ``TABLE_TOL`` rho(0), or a difference of the norm or a
    probability, or of Delta_x relative to Delta_x, beyond
    ``PROBABILITY_TOL``, raises ``QuadratureError``.
    """
    check_sequence_index(n)
    if not profile.is_symmetric:
        raise ValueError("radial reduction requires a spherically symmetric profile")
    if not (r_max > 0 and r_count >= 2):
        raise ValueError("a radial table needs r_max > 0 and r_count >= 2")
    if not all(0.0 <= R < math.inf for R in (r_max, *radii)):  # NaN fails too
        raise ValueError(f"r_max and radii must be finite and >= 0, got {r_max}, {tuple(radii)}")
    p_max = n * profile.cutoff()
    spacing = r_max / (r_count - 1)
    k = math.ceil(RADIUS_STEPS_PER_MOMENTUM * p_max * spacing / math.pi)
    dr = spacing / k
    r_far = max((r_max, *radii)) + TAIL_RADIUS
    m = 2 ** max(1, math.ceil(math.log2(max(r_far, math.pi * MIN_NODES / p_max) / dr)))
    if 4 * m > MAX_FFT_LENGTH:
        raise QuadratureError(
            f"n = {n}, sigma_p = {profile.sigma_p:g}: the radial rule needs an FFT of "
            f"length {4 * m} > {MAX_FFT_LENGTH}"
        )
    h = math.pi / (m * dr)
    nodes = 2 * math.ceil(p_max / h)
    p = 0.5 * h * np.arange(nodes + 1)
    k0, k1 = _kernels(profile, n, p)
    fine = np.stack([k0 * p, k1, k1 * p]) * (0.5 * h)
    rows = int(min(5.0 / (n * profile.sigma_p), DIRECT_RADIUS) / dr) + 1
    direct = _trapezoid_sums(profile, n, dr * np.arange(rows), nodes, 0.5 * h)
    rho_fine = _fft_density(fine, 4 * m, dr, direct[0])
    rho_coarse = _fft_density(2.0 * fine[:, ::2], 2 * m, dr, direct[1])
    table = k * np.arange(r_count)
    rho = rho_fine[table]
    norm, delta_x, probabilities = _fft_probabilities(rho_fine, dr, radii)
    norm_h, delta_x_h, probabilities_h = _fft_probabilities(rho_coarse, dr, radii)
    curve = RadialCurve(
        rho=rho,
        norm=norm,
        delta_x=delta_x,
        probabilities=tuple(probabilities),
        table_halving=float(np.max(np.abs(rho - rho_coarse[table])) / rho[0]),
        probability_halving=max(abs(norm - norm_h), abs(delta_x - delta_x_h) / delta_x,
                                *(abs(a - b) for a, b in zip(probabilities, probabilities_h))),
    )
    where = f"n = {n}, sigma_p = {profile.sigma_p:g}"
    if not curve.table_halving <= TABLE_TOL:
        raise QuadratureError(
            f"{where}: the table moves by {curve.table_halving:.3e} rho(0) when the "
            f"momentum step is halved, beyond {TABLE_TOL:g}"
        )
    if not curve.probability_halving <= PROBABILITY_TOL:
        raise QuadratureError(
            f"{where}: the norm, Delta_x or a probability moves by "
            f"{curve.probability_halving:.3e} when the momentum step is halved, beyond "
            f"{PROBABILITY_TOL:g}"
        )
    return curve


def density_field(ps: PositionState) -> np.ndarray:
    """rho(x) = psi^dagger psi on the whole grid, filled slab by slab."""
    rho = np.empty(ps.psi.shape[1:])
    for rows, block in ps.slabs():
        bilinear_density(block, out=rho[rows])
    return rho

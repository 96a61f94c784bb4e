"""Position-space references: the brute-force FFT sampler, whole-field
moments, causality margin, light-cone leakage and boosted weights, a
spherical average and a Fourier transform of sampled fields, and a
rotation matrix.

The whole-field forms take (rho, j) from ``density_field`` and
``current`` and are the oracles for the library's one slab pass."""

import numpy as np
from scipy.ndimage import map_coordinates

from diracloc.dynamics import probability_outside
from diracloc.transform import density_field


def sampled_psi(state, grid):
    """psi by brute force: phi = state.spinor on the full broadcast reciprocal
    grid, then a copying numpy inverse FFT of all four components."""
    n, p = grid.n_points, grid.p_axis()
    sign = np.where(np.rint(np.fft.fftfreq(n) * n).astype(int) % 2 == 0, 1.0, -1.0)
    phi = state.spinor(p[:, None, None], p[None, :, None], p[None, None, :])
    phi *= sign[:, None, None] * sign[None, :, None] * sign[None, None, :]
    psi = np.fft.ifftn(phi, axes=(1, 2, 3))
    return psi * (n * grid.dp) ** 3 / (2.0 * np.pi) ** 1.5


def field_moments(grid, rho, j):
    """(norm, mean_x, delta_x, mean_velocity) as whole-field sums, the form
    the slab pass replaced."""
    dv = grid.cell_volume
    total = float(np.sum(rho) * dv)
    x = grid.axis()
    mean = np.array(
        [
            np.sum(x[:, None, None] * rho),
            np.sum(x[None, :, None] * rho),
            np.sum(x[None, None, :] * rho),
        ]
    ) * dv / total
    x2 = float(np.sum(grid.radius() ** 2 * rho) * dv / total)
    spread = np.sqrt(max(x2 - float(mean @ mean), 0.0))
    return total, mean, spread, np.sum(j, axis=(1, 2, 3)) * dv / total


def causality_margin(rho, j):
    """max over grid points of |j| - rho; nonpositive for spinor fields."""
    return float(np.max(np.sqrt(np.sum(j**2, axis=0)) - rho))


def lightcone_leakage(rho0, rho_t, grid, r0, t):
    """P(|x| > r0 + t) of ``rho_t`` minus P(|x| > r0) of ``rho0``."""
    return probability_outside(rho_t, grid, r0 + t) - probability_outside(rho0, grid, r0)


def boosted_field_weights(grid, rho, j, rapidity):
    """(weight ratio, first moment) of rho' = rho cosh s + j3 sinh s, integrated
    point by point on the t = 0 grid, with x3 scaled by cosh s."""
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    rho_prime = rho * ch + j[2] * sh
    total_prime = np.sum(rho_prime)
    x = grid.axis()
    mapped = (x[:, None, None], x[None, :, None], x[None, None, :] * ch)
    moment = np.array([np.sum(m * rho_prime) for m in mapped]) / total_prime
    return float(total_prime / np.sum(rho)), moment


def angular_average(values, grid, radii, n_directions=512):
    """Spherical average of a grid field at the given radii.

    Uses cubic-spline interpolation sampled over a Fibonacci sphere; the
    direction count controls the angular averaging error.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    i = np.arange(n_directions)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    zdir = 1.0 - 2.0 * (i + 0.5) / n_directions
    rho_dir = np.sqrt(np.clip(1.0 - zdir * zdir, 0.0, None))
    theta = golden * i
    dirs = np.stack([rho_dir * np.cos(theta), rho_dir * np.sin(theta), zdir])  # (3, M)

    pts = radii[:, None, None] * dirs[None, :, :]  # (R, 3, M)
    idx = pts / grid.dx + grid.n_points // 2
    coords = idx.transpose(1, 0, 2).reshape(3, -1)
    samples = map_coordinates(values, coords, order=3, mode="nearest")
    return samples.reshape(radii.size, n_directions).mean(axis=1)


def density_fourier(ps, p):
    """(2 pi)^(-3/2) int rho(x) exp(-i x.p) d^3x from the sampled density."""
    p = np.asarray(p, dtype=float)
    x = ps.grid.axis()
    rho = density_field(ps)
    phases = [np.exp(-1j * x * p[axis]) for axis in range(3)]
    total = np.einsum("i,j,k,ijk->", phases[0], phases[1], phases[2], rho)
    return complex(total * ps.grid.cell_volume / (2.0 * np.pi) ** 1.5)


def rotation_about_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

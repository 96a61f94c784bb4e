"""Reference sampler for the separable FFT path of position_state_cartesian."""

import numpy as np


def sampled_psi(state, grid):
    """psi by brute force: phi = state.spinor on the full broadcast reciprocal
    grid, then a copying numpy inverse FFT of all four components."""
    n, p = grid.n_points, grid.p_axis()
    sign = np.where(np.rint(np.fft.fftfreq(n) * n).astype(int) % 2 == 0, 1.0, -1.0)
    phi = state.spinor(p[:, None, None], p[None, :, None], p[None, None, :])
    phi *= sign[:, None, None] * sign[None, :, None] * sign[None, None, :]
    psi = np.fft.ifftn(phi, axes=(1, 2, 3))
    return psi * (n * grid.dp) ** 3 / (2.0 * np.pi) ** 1.5

"""Momentum-space construction of localized positive-energy states.

A state in the localizing family is

    phi_n(p) = n^(-3/2) f(p/n) u_spin(p) exp(-i a.p) [exp(-i E(p) t)]

where f is a normalized Gaussian momentum profile, u_spin the
positive-energy eigenspinor of :mod:`diracloc.spinor`, ``a`` the target
point and ``n`` the sequence index.  The profile carries the target
mean velocity: a profile centred at the origin gives v = 0, and a
profile shifted along ``v`` by an amount kappa satisfies

    integral |f(p)|^2 p/|p| d^3p = v.

For the Gaussian that mean flow has the closed form

    mean_flow(m) = erf(m/sqrt 2)(1 - 1/m^2) + sqrt(2/pi) e^(-m^2/2)/m,
    m = sqrt(2) kappa/sigma_p,

(a power series below m = 0.25, where the two terms cancel), and kappa
is root-found on it.  ``check_profile_conditions`` evaluates both
defining integrals by quadrature, on a spherical rule whose polar axis
is turned onto the shift; it is the oracle for the closed form.

Profiles are restricted to Gaussians (plain and shifted); they satisfy
the smoothness and decay demands of the construction with analytic
control of truncation: the envelope falls below 1e-14 beyond 8 sigma,
which fixes the momentum cutoff used by every quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .quadrature import spherical_rule
from .spinor import SPIN_DOWN, SPIN_UP, energy_xyz, fill_eigenspinor, spinor_layout
from .units import MASS

PROFILE_CUTOFF_SIGMAS = 8.0  # Gaussian amplitude < 1e-14 past this radius
MAX_PROFILE_SPEED = 0.99  # mean-direction root-finding diverges beyond this


class ProfileError(ValueError):
    """Invalid profile parameters or failed profile construction."""


@dataclass(frozen=True)
class MomentumProfile:
    """Gaussian momentum-space weight f(p) = amplitude * exp(-(p-k)^2 / 2 sigma^2)."""

    sigma_p: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    amplitude: float | None = None

    def __post_init__(self):
        if self.sigma_p <= 0:
            raise ProfileError(f"profile width must be positive, got {self.sigma_p}")
        if self.amplitude is None:
            object.__setattr__(
                self, "amplitude", (self.sigma_p * np.sqrt(np.pi)) ** -1.5
            )

    @property
    def kind(self) -> str:
        return "gaussian" if not any(self.center) else "boosted_gaussian"

    @property
    def is_symmetric(self) -> bool:
        return not any(self.center)

    def __call__(self, px, py, pz):
        kx, ky, kz = self.center
        q2 = (px - kx) ** 2 + (py - ky) ** 2 + (pz - kz) ** 2
        return self.amplitude * np.exp(-q2 / (2.0 * self.sigma_p**2))

    def axis_factors(self, p):
        """f as three factors on the 1-D axis p: their outer product is f on p x p x p."""
        fx, fy, fz = (np.exp(-((p - k) ** 2) / (2.0 * self.sigma_p**2)) for k in self.center)
        return self.amplitude * fx, fy, fz

    def cutoff(self) -> float:
        """Radius beyond which |f| < 1e-14 * amplitude."""
        return float(np.linalg.norm(self.center) + PROFILE_CUTOFF_SIGMAS * self.sigma_p)

    def support_radius(self, mass_tol: float) -> float:
        """Radius containing all but ``mass_tol`` of the |f|^2 probability."""
        q = _gaussian_tail_radius(mass_tol)
        return float(np.linalg.norm(self.center) + q * self.sigma_p)


def _gaussian_tail_radius(eps: float) -> float:
    """q with integral_{|x|>q} pi^{-3/2} e^{-x^2} d^3x = eps (unit-width Gaussian)."""

    def outside(q):
        from scipy.special import erfc

        return erfc(q) + 2.0 * q * np.exp(-q * q) / np.sqrt(np.pi) - eps

    return brentq(outside, 0.0, 30.0, xtol=1e-12)


def _profile_rule(profile: MomentumProfile, n_radial=256, n_theta=64, n_phi=32):
    cut = profile.cutoff()
    return spherical_rule((0.0, cut), (n_radial,), n_theta, n_phi)


def check_profile_conditions(profile: MomentumProfile):
    """Return (norm, mean_direction): the two defining profile integrals.

    norm = integral |f|^2 d^3p and mean_direction =
    integral |f|^2 p/|p| d^3p, evaluated by the module quadrature.
    Callers assert norm ~ 1 and mean_direction ~ v.  The rule's polar
    axis is turned onto the profile centre, about which both integrands
    are axially symmetric; off that axis a shift of several widths is
    resolved only to ~1e-4.
    """
    rule = _profile_rule(profile)
    x, y, z = rule.x, rule.y, rule.z
    kx, ky, _ = profile.center
    if kx or ky:
        e3 = np.asarray(profile.center) / np.linalg.norm(profile.center)
        e1 = np.array([e3[1], -e3[0], 0.0]) / math.hypot(e3[0], e3[1])
        e2 = np.cross(e3, e1)
        x, y, z = (e1[i] * rule.x + e2[i] * rule.y + e3[i] * rule.z for i in range(3))
    f2 = np.abs(profile(x, y, z)) ** 2
    norm = float(np.sum(rule.weights * f2))
    radius = np.sqrt(x**2 + y**2 + z**2)
    safe = np.where(radius > 0, radius, 1.0)
    mean = np.array(
        [
            np.sum(rule.weights * f2 * x / safe),
            np.sum(rule.weights * f2 * y / safe),
            np.sum(rule.weights * f2 * z / safe),
        ]
    )
    return norm, mean


def gaussian_profile(sigma_p: float = 1.0) -> MomentumProfile:
    """Normalized spherically symmetric Gaussian profile (v = 0).

    For sigma_p = 1 this is f(p) = pi^(-3/4) exp(-p^2/2).
    """
    return MomentumProfile(sigma_p=float(sigma_p))


# mean_flow(m) = sqrt(2/pi) sum_k c_k m^(2k+1) with c_0 = 2/3 and
# c_k = -c_(k-1) (2k - 1) / (2k (2k + 3)); seven terms reach rounding
# level below SERIES_BELOW, where the closed form loses ~eps/m^2.
_MEAN_FLOW_SERIES = (2 / 3, -1 / 15, 1 / 140, -1 / 1512, 1 / 19008, -1 / 274560, 1 / 4492800)
SERIES_BELOW = 0.25


def mean_flow(m: float) -> float:
    """Mean of p.k/(|p| |k|) under |f|^2 for a Gaussian shifted by m = sqrt(2) |k|/sigma_p."""
    if m < SERIES_BELOW:
        m2 = m * m
        total = 0.0
        for c in reversed(_MEAN_FLOW_SERIES):
            total = total * m2 + c
        return math.sqrt(2.0 / math.pi) * m * total
    return math.erf(m / math.sqrt(2.0)) * (1.0 - 1.0 / (m * m)) + math.sqrt(
        2.0 / math.pi
    ) * math.exp(-0.5 * m * m) / m


def boosted_gaussian_profile(v_target, sigma_p: float = 1.0) -> MomentumProfile:
    """Gaussian shifted along v_target so the mean flow direction equals it.

    The shift kappa solves mean_flow(sqrt(2) kappa/sigma_p) = |v_target|;
    the mean flow rises monotonically from 0 to 1, so the root is unique.
    Speeds above 0.99 are rejected (kappa diverges as |v| -> 1).
    """
    v = np.asarray(v_target, dtype=float)
    speed = float(np.linalg.norm(v))
    if speed == 0.0:
        return gaussian_profile(sigma_p)
    if speed > MAX_PROFILE_SPEED:
        raise ProfileError(
            f"target speed {speed:.4f} exceeds {MAX_PROFILE_SPEED} (kappa diverges as |v| -> 1)"
        )
    # mean_flow(64) = 1 - 1/64^2 > MAX_PROFILE_SPEED brackets every allowed speed
    m = brentq(lambda x: mean_flow(x) - speed, 0.0, 64.0, xtol=1e-300, maxiter=200)
    kappa = m * sigma_p / math.sqrt(2.0)
    return MomentumProfile(sigma_p=sigma_p, center=tuple(kappa * (v / speed)))


@dataclass(frozen=True)
class LocalizationLabel:
    """(a, v, spin, n): one element of an (a, v)-localizing family."""

    a: tuple[float, float, float] = (0.0, 0.0, 0.0)
    v: tuple[float, float, float] = (0.0, 0.0, 0.0)
    spin: float = SPIN_UP
    n: int = 1

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(c) for c in self.a))
        object.__setattr__(self, "v", tuple(float(c) for c in self.v))
        if np.linalg.norm(self.v) >= 1.0:
            raise ValueError(f"|v| must be < 1 (units of c), got {self.v}")
        if self.spin not in (SPIN_UP, SPIN_DOWN):
            raise ValueError(f"spin label must be +0.5 or -0.5, got {self.spin}")
        if self.n < 1:
            raise ValueError(f"sequence index must be >= 1, got {self.n}")

    def with_n(self, n: int) -> "LocalizationLabel":
        return replace(self, n=int(n))


@dataclass(frozen=True)
class MomentumState:
    """Evaluator for phi_n(p); immutable, so concurrent evaluation is safe.

    ``time`` carries free evolution: a state at time t picks up the exact
    phase exp(-i E(p) t) relative to its t = 0 parent.
    """

    label: LocalizationLabel
    profile: MomentumProfile
    time: float = 0.0

    def envelope(self, px, py, pz):
        """Scalar part n^(-3/2) f(p/n), real for the Gaussian profile class."""
        n = self.label.n
        return n**-1.5 * self.profile(px / n, py / n, pz / n)

    def axis_factors(self, p):
        """n^(-3/2) f(p/n) exp(-i a.p) as three factors, one per axis, on the 1-D axis p.

        Their outer product is the time-independent scalar part of phi on
        the grid p x p x p; only the eigenspinor and exp(-i E t) are not
        separable.
        """
        n = self.label.n
        p = np.asarray(p, dtype=float)
        fx, fy, fz = self.profile.axis_factors(p / n)
        ax, ay, az = self.label.a
        return (
            n**-1.5 * fx * np.exp(-1j * ax * p),
            fy * np.exp(-1j * ay * p),
            fz * np.exp(-1j * az * p),
        )

    def spinor(self, px, py, pz) -> np.ndarray:
        """phi(p) as a (4, ...) complex array broadcast over the inputs."""
        px = np.asarray(px, dtype=float)
        py = np.asarray(py, dtype=float)
        pz = np.asarray(pz, dtype=float)
        e = energy_xyz(px, py, pz)
        ax, ay, az = self.label.a
        phase = ax * px + ay * py + az * pz
        if self.time != 0.0:
            phase = phase + e * self.time
        out = np.empty((4,) + np.shape(e), dtype=complex)
        weight = out[spinor_layout(self.label.spin).zero, ...]
        np.multiply(self.envelope(px, py, pz), np.exp(-1j * phase), out=weight)
        e_plus_m = e + MASS
        weight /= np.sqrt(2.0 * e * e_plus_m)
        return fill_eigenspinor(out, weight, e_plus_m, px, py, pz, self.label.spin)

    def momentum_cutoff(self) -> float:
        """Radius enclosing the envelope to the 1e-14 amplitude level."""
        return self.label.n * self.profile.cutoff()

    def momentum_support(self, mass_tol: float = 1e-2) -> float:
        """Radius containing all but ``mass_tol`` of the |phi|^2 mass."""
        return self.label.n * self.profile.support_radius(mass_tol)

    def norm(self, n_radial: int = 512, n_theta: int = 64, n_phi: int = 32) -> float:
        """Quadrature norm ||phi|| (should be 1: the eigenspinor is unit)."""
        rule = spherical_rule((0.0, self.momentum_cutoff()), (n_radial,), n_theta, n_phi)
        phi = self.spinor(rule.x, rule.y, rule.z)
        dens = np.sum(np.abs(phi) ** 2, axis=0)
        return float(np.sqrt(np.sum(rule.weights * dens)))


def make_state(
    a=(0.0, 0.0, 0.0), v=(0.0, 0.0, 0.0), spin=SPIN_UP, n: int = 1, sigma_p: float = 1.0
) -> MomentumState:
    """Convenience builder wiring a label to the profile realizing its v."""
    label = LocalizationLabel(a=tuple(a), v=tuple(v), spin=spin, n=n)
    profile = boosted_gaussian_profile(v, sigma_p) if any(label.v) else gaussian_profile(sigma_p)
    return MomentumState(label=label, profile=profile)

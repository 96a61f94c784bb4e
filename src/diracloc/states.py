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
is found on it by bisection down to adjacent doubles, in pure Python
(scipy's ``brentq`` on the same function is the oracle in the tests).
``check_profile_conditions`` evaluates both defining integrals by
quadrature; it is the oracle for the closed form.

Every momentum-space reduction of a state (its norm, and <xdot>, <x>
and Delta_x in :mod:`diracloc.observables`) sums over one certified
radial rule, ``radial_moment_rule``, its angles integrated in closed
form; u is unit, so ``MomentumState.norm`` sums F^2 alone.  The 3-D
``momentum_rule`` serves only the oracles that must not share it.

Profiles are restricted to Gaussians (plain and shifted); they satisfy
the smoothness and decay demands of the construction with analytic
control of truncation: the envelope falls below 1e-14 beyond 8 sigma,
which fixes the momentum cutoff used by every quadrature, and the
radius holding all but a given share of |f|^2 is a chi-squared quantile,
found by bisection on the closed-form chi-squared(3) survival function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import SphericalRule, node_doubling, panel_rule, spherical_rule
from .spinor import MASS, SPIN_DOWN, SPIN_UP, energy_xyz, fill_eigenspinor, spinor_layout

PROFILE_CUTOFF_SIGMAS = 8.0  # Gaussian amplitude < 1e-14 past this radius
MASS_TOL = 1e-2  # share of the envelope's mass a grid may leave beyond its Nyquist momentum
MOMENT_NODES = 24  # nodes per panel of ``radial_moment_rule``, certified at twice as many
MOMENT_TOL = 1e-12  # its node-doubling bound: absolute, the spread's sum relative to itself
MAX_PROFILE_SPEED = 0.99  # mean-direction root-finding diverges beyond this


class ProfileError(ValueError):
    """Invalid profile parameters or failed profile construction."""


@dataclass(frozen=True)
class MomentumProfile:
    """Gaussian momentum-space weight f(p) = amplitude * exp(-(p-k)^2 / 2 sigma^2)."""

    sigma_p: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        envelope_gaussian(self, 1)  # the width bound at n = 1
        if not np.isfinite(self.center).all():
            raise ProfileError(f"profile centre must be finite, got {self.center}")

    @property
    def amplitude(self) -> float:
        """(sigma_p sqrt(pi))^(-3/2): the f with integral |f|^2 d^3p = 1."""
        return (self.sigma_p * np.sqrt(np.pi)) ** -1.5

    @property
    def is_symmetric(self) -> bool:
        return not any(self.center)

    def __call__(self, px, py, pz):
        kx, ky, kz = self.center
        q2 = (px - kx) ** 2 + (py - ky) ** 2 + (pz - kz) ** 2
        return self.amplitude * np.exp(-q2 / (2.0 * self.sigma_p**2))

    def cutoff(self) -> float:
        """Radius beyond which |f| < 1e-14 * amplitude."""
        return float(np.linalg.norm(self.center) + PROFILE_CUTOFF_SIGMAS * self.sigma_p)


def _gaussian_tail_mass(q: float) -> float:
    """integral_{|x|>q} pi^{-3/2} e^{-x^2} d^3x: the chi-squared(3) survival at 2 q^2."""
    return math.erfc(q) + 2.0 / math.sqrt(math.pi) * q * math.exp(-q * q)


def _bisect(below, lo: float, hi: float) -> float:
    """The end hi of a bracket with below(lo) and not below(hi), once lo and
    hi are adjacent doubles; ``below`` must hold at lo and fail at hi."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if below(mid):
            lo = mid
        else:
            hi = mid


def _gaussian_tail_radius(eps: float) -> float:
    """The q with tail mass(q) <= eps < tail mass(prev double of q), 0 < eps < 1.

    2|x|^2 of the unit-width Gaussian pi^{-3/2} e^{-x^2} is chi-squared
    with three degrees of freedom, so q is sqrt(chdtri(3, eps) / 2)
    (scipy's ``chdtri`` is the oracle in the tests).  ``_bisect`` keeps
    the bracket until its ends are adjacent doubles; the mass underflows
    to 0 at q = 30.
    """
    return _bisect(lambda q: _gaussian_tail_mass(q) > eps, 0.0, 30.0)


def check_sequence_index(n) -> None:
    """Refuse a sequence index n that is not finite or is below 1 (NaN too)."""
    if not 1 <= n < math.inf:
        raise ValueError(f"sequence index must be >= 1, got {n}")


def momentum_rule(profile: MomentumProfile, n: int) -> SphericalRule:
    """The 3-D spherical rule of the momentum-space oracles at sequence index n.

    Radial panels [0, min(4, p_max/2)] and [min(4, p_max/2), p_max] with
    p_max = n * profile.cutoff(), 128 nodes each, resolve both the O(1)
    spinor scale and the envelope; 64 polar and 2 azimuth nodes.  The
    polar axis is the profile centre (z if none), about which the
    envelope is axially symmetric, so one rule serves every direction of
    v.  Every integrand of the oracles is, about that axis, an axial
    function times 1, cos phi or sin phi, which the 2-point trapezoid in
    phi integrates exactly.  The rule has 2^15 = ``BLOCK_POINTS``
    points, few enough to build whole, and is not certified.
    """
    p_max = n * profile.cutoff()
    axis = None if profile.is_symmetric else profile.center
    return spherical_rule((0.0, min(4.0, 0.5 * p_max), p_max), (128, 128), 64, 2, axis)


def envelope_gaussian(profile: MomentumProfile, n: int):
    """(w, c) of the envelope F = A n^(-3/2) exp(-|p - c|^2 / (2 w)): w = (n sigma_p)^2, c = n k.

    A width n sigma_p outside [2^-340, 2^255] (NaN too) raises
    ``ProfileError``: below, the peak (pi w)^(-3/2) of F^2 overflows;
    above, products of two variances do.
    """
    width = n * profile.sigma_p
    if not 2.0**-340 <= width <= 2.0**255:
        raise ProfileError(f"envelope width n sigma_p = {width:g} (n = {n}) must be finite "
                           "and in [2^-340, 2^255]")
    centre = n * np.asarray(profile.center, dtype=float)
    return width**2, centre


def check_profile_conditions(profile: MomentumProfile):
    """Return (norm, mean_direction): the two defining profile integrals.

    norm = integral |f|^2 d^3p and mean_direction =
    integral |f|^2 p/|p| d^3p, summed over ``momentum_rule(profile, 1)``.
    Callers assert norm ~ 1 and mean_direction ~ v.  The rule's polar
    axis is the profile centre, about which |f|^2 is axially symmetric
    and p/|p| a first harmonic in the azimuth.
    """
    width2, centre = envelope_gaussian(profile, 1)
    p, density = momentum_rule(profile, 1).points()
    q2 = (p[0] - centre[0]) ** 2 + (p[1] - centre[1]) ** 2 + (p[2] - centre[2]) ** 2
    density *= np.exp(q2 * (-1.0 / width2))
    density *= profile.amplitude**2
    radius = np.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)  # > 0: no node at the origin
    return float(np.sum(density)), np.sum(density * p / radius, axis=1)


# 1/(k! (2k+3)!!), k = 0..11: at |u| <= 1/2 the first term left out is below 2^-86 of the sum
_BESSEL1_SERIES = tuple(
    1.0 / (math.factorial(k) * math.prod(range(2 * k + 3, 0, -2))) for k in range(12)
)


def bessel1_series(u):
    """sum_k u^k / (k! (2k+3)!!) by Horner: j1(x)/x at u = -x^2/2, i1(z)/z at u = z^2/2."""
    total = np.full_like(u, _BESSEL1_SERIES[-1])
    for c in _BESSEL1_SERIES[-2::-1]:
        total *= u
        total += c
    return total


def scaled_bessel_i01(z):
    """(e^-z i0(z), e^-z i1(z)), z >= 0: -expm1(-2z)/(2z) (1 at 0) and
    ((z - 1) + (z + 1) e^(-2z))/(2z^2), below z = 1 from ``bessel1_series``."""
    z = np.asarray(z, dtype=float)
    with np.errstate(invalid="ignore"):  # 0/0 at z = 0, replaced below
        i0 = np.expm1(-2.0 * z) / (-2.0 * z)
        i1 = ((z - 1.0) + (z + 1.0) * np.exp(-2.0 * z)) / (2.0 * z * z)
    i0[z == 0.0] = 1.0
    zs = z[z < 1.0]
    i1[z < 1.0] = np.exp(-zs) * zs * bessel1_series(0.5 * zs * zs)
    return i0, i1


def radial_moment_rule(profile: MomentumProfile, n: int, k: int):
    """(r, w0, w1): int F^2 g(|p|) d^3p = sum w0 g(r), int F^2 p g(|p|) d^3p = c^ sum w1 r g(r).

    Gauss-Legendre, k ``MOMENT_NODES`` nodes per panel, on [0, n cutoff]
    broken at the octaves 1, 2, 4, ... (where E(p) changes scale) and at
    kappa + 2 j sqrt(w), |j| <= 4, for F^2 = A^2 n^-3 exp(-|p - c|^2/w),
    kappa = |c| (``envelope_gaussian``).  With z = 2 r kappa/w the angles
    integrate exactly: w0, w1 = 4 pi r^2 A^2 n^-3 e^(-(r - kappa)^2/w)
    (e^-z i0(z), e^-z i1(z)) times the panel weights, formed in u =
    r/sqrt(w), where they stay finite at every allowed width.
    """
    width2, centre = envelope_gaussian(profile, n)
    width, kappa = math.sqrt(width2), float(np.linalg.norm(centre))
    p_max = n * profile.cutoff()
    octaves = [2.0**j for j in range(max(0, math.ceil(math.log2(p_max))))]
    around = [kappa + 2.0 * j * width for j in range(-4, 5)]
    breaks = np.unique([0.0, p_max, *(b for b in octaves + around if 0.0 < b < p_max)])
    r, weights = panel_rule(breaks, [k * MOMENT_NODES] * (breaks.size - 1))
    u, u_c = r / width, kappa / width
    radial = (4.0 / math.sqrt(math.pi)) * (u * u) * (weights / width) * np.exp(-((u - u_c) ** 2))
    i0, i1 = scaled_bessel_i01(2.0 * u * u_c)
    return r, radial * i0, radial * i1


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


def mean_flow_root(speed: float) -> float:
    """The m in (0, 64] with mean_flow(prev double of m) < speed <= mean_flow(m).

    ``_bisect`` keeps that bracket until its ends are adjacent doubles;
    mean_flow(64) = 1 - 1/64^2 exceeds every allowed speed.
    """
    return _bisect(lambda m: mean_flow(m) < speed, 0.0, 64.0)


def boosted_gaussian_profile(v_target, sigma_p: float = 1.0) -> MomentumProfile:
    """Gaussian shifted along v_target so the mean flow direction equals it.

    The shift kappa solves mean_flow(sqrt(2) kappa/sigma_p) = |v_target|;
    the mean flow rises monotonically from 0 to 1, so the root is unique.
    Speeds above 0.99 are rejected (kappa diverges as |v| -> 1).
    """
    v = np.asarray(v_target, dtype=float)
    speed = float(np.linalg.norm(v))
    if not math.isfinite(speed):
        raise ProfileError(f"target velocity must be finite, got {v.tolist()}")
    if speed == 0.0:
        return gaussian_profile(sigma_p)
    if speed > MAX_PROFILE_SPEED:
        raise ProfileError(
            f"target speed {speed:.4f} exceeds {MAX_PROFILE_SPEED} (kappa diverges as |v| -> 1)"
        )
    kappa = mean_flow_root(speed) * sigma_p / math.sqrt(2.0)
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
        if not np.isfinite(self.a).all():
            raise ValueError(f"target point must be finite, got {self.a}")
        if not np.linalg.norm(self.v) < 1.0:  # NaN fails too
            raise ValueError(f"|v| must be < 1 (units of c), got {self.v}")
        if self.spin not in (SPIN_UP, SPIN_DOWN):
            raise ValueError(f"spin label must be +0.5 or -0.5, got {self.spin}")
        check_sequence_index(self.n)


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
        n, sigma = self.label.n, self.profile.sigma_p
        p = np.asarray(p, dtype=float)
        fx, fy, fz = (np.exp(-((p / n - k) ** 2) / (2.0 * sigma**2)) for k in self.profile.center)
        ax, ay, az = self.label.a
        return (
            n**-1.5 * (self.profile.amplitude * fx) * np.exp(-1j * ax * p),
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

    def momentum_support(self) -> float:
        """Radius containing all but ``MASS_TOL`` of the |phi|^2 mass."""
        q = _gaussian_tail_radius(MASS_TOL)
        return self.label.n * float(np.linalg.norm(self.profile.center) + q * self.profile.sigma_p)

    def norm(self) -> float:
        """||phi|| = sqrt(sum w0) on ``radial_moment_rule`` (u is unit), certified
        by node doubling within ``MOMENT_TOL`` or refused with ``QuadratureError``."""
        profile, n = self.profile, self.label.n
        return math.sqrt(node_doubling(lambda k: np.sum(radial_moment_rule(profile, n, k)[1]),
                                       MOMENT_TOL, f"norm(n={n}, sigma_p={profile.sigma_p:g})"))


def make_state(
    a=(0.0, 0.0, 0.0), v=(0.0, 0.0, 0.0), spin=SPIN_UP, n: int = 1, sigma_p: float = 1.0
) -> MomentumState:
    """Convenience builder wiring a label to the profile realizing its v."""
    label = LocalizationLabel(a=tuple(a), v=tuple(v), spin=spin, n=n)
    return MomentumState(label=label, profile=boosted_gaussian_profile(v, sigma_p))

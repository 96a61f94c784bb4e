"""Observable quantities of localized positive-energy states.

The observable content of a state lives in its density/current pair

    rho(x) = psi^dagger psi,      j(x) = psi^dagger alpha psi

(c = 1), in the moments <x>, Delta_x, <xdot>, and in the momentum-space
convolution

    R_n(p) = int conj(f(r - p/n)) f(r) u^dagger(n r - p) Q u(n r) d^3 r

whose large-n limit (1 for Q = identity, v_i for Q = alpha_i) certifies
that the density and current converge onto the labelled point.  Its
integrand is evaluated in closed form: the Gaussian factors fold into
one exponential and u^dagger(q) Q u(s) reduces, through the Pauli
algebra, to a few real products of E(q) + m, E(s) + m and the momentum
components, so no spinor stacks are built; node doubling still
certifies every value.  The integrand depends on s = r d only through
|s| and the projections of d on p and on the envelope's midpoint, so it
is walked on the rule's factors: per-direction and per-radial-node
terms, broadcast one block of (r, d) pairs at a time, never the world
coordinates of a point.  The spherical rule's polar axis is the
envelope centre c = n k, or p when c = 0 (``_rn_rule_axis``): where p is
zero or parallel to it the integrand is axially symmetric up to terms
linear in s, first harmonics in the azimuth, and 2 azimuth nodes
integrate it exactly; R_n's block sums are added with ``pairwise_sum``.
The mean velocity can be formed two ways, as the spinor bilinear of
alpha (``packed_current`` of the sampled spinor) or via the scalar
weight p/E(p) (``momentum_moments``, from the envelope alone); the two
coincide identically on positive-energy states, and both sum over
``states.momentum_rule``, turned onto the envelope centre.

Same-point bilinears need no spinor at all.  The unit eigenspinor
gives u_s^dagger u_s = 1, u_up^dagger u_down = 0,
i u_s^dagger grad_p u_s = s (p x z)/(2E(E + m)) and sum_k |d_k u_s|^2 =
1/(E(E + m)) + 1/(4E^4), so ``overlap`` is exactly 0 for opposite spins
and a closed-form Gaussian product for same spins at equal times, and
the whole-space moments of the density and current, norm, <x>, Delta_x
and <xdot> (``momentum_moments``), are one scalar quadrature of the
envelope: the closed forms the grid moments converge onto.

Pointwise, |j(x)| <= rho(x) holds because every direction projection of
alpha has spectrum {-1, +1}; the slab pass keeps the worst violation over
a sampled field, which must stay at rounding level.

Every (rho, j) reduction the library reports comes from one slab pass
over a grid snapshot (``snapshot_pass``): psi is read one slab of the
first, contiguous grid axis at a time (``PositionState.slabs``,
``BLOCK_POINTS`` cells each).  psi holds the three nonzero slots of the
eigenspinor layout, and the slab's (rho, j) comes from the closed forms
``spinor.bilinear_density`` and ``packed_current``.  The slab leaves
behind its cell sums, its largest |j| - rho, its share of the
probability outside a sphere and its rows of the x1-axis slice.
Temporaries are one slab in size, and the cell sums are added pairwise
across slabs, so they equal whole-field sums to the last bit.  The pass
returns values (``Snapshot``): the snapshot's ``MomentSet``, the
causality margin, the probability outside the sphere and the slice.
``density_field`` and ``current`` fill whole fields from the same
per-slab formulas; no pipeline path calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import (
    BLOCK_POINTS,
    SphericalRule,
    gauss_legendre,
    node_doubling,
    pairwise_sum,
    tensor_integrate,
)
from .spinor import (
    MASS,
    bilinear_density,
    energy_xyz,
    fill_eigenspinor,
    packed_current,
    spinor_layout,
)
from .states import (
    MomentumProfile,
    MomentumState,
    check_sequence_index,
    envelope_density,
    envelope_gaussian,
    momentum_rule,
)
from .transform import PositionState

# the R_n operators Q by name: None for the identity, else the axis i of alpha_i
Q_AXES = {"identity": None, "alpha1": 0, "alpha2": 1, "alpha3": 2}
RN_TOL = 1e-6  # node-doubling tolerance of every R_n value


@dataclass
class MomentSet:
    """Norm, mean position, position spread, and mean velocity of a state."""

    norm: float
    mean_x: np.ndarray
    delta_x: float
    mean_velocity: np.ndarray


def current(ps: PositionState) -> np.ndarray:
    """Probability current psi^dagger alpha psi (units of c) on the whole grid.

    Filled slab by slab with ``spinor.packed_current``, the closed form
    of j over the three nonzero slots.
    """
    j = np.empty((3,) + ps.psi.shape[1:])
    for rows, block in ps.slabs():
        packed_current(block, ps.layout, out=j[:, rows])
    return j


def _margin(rho: np.ndarray, j: np.ndarray) -> float:
    """max of |j| - rho over a field, or over one slab of it."""
    return float(np.max(np.sqrt(np.sum(j**2, axis=0)) - rho))


@dataclass(frozen=True)
class Snapshot:
    """What one slab pass keeps of a grid snapshot (see ``snapshot_pass``)."""

    moments: MomentSet
    causality_margin: float
    axis_slice: np.ndarray  # (4, N): rho, j1, j2, j3 along x1 at x2 = x3 = 0
    outside: float | None  # probability outside the pass's radius; None without one


def snapshot_pass(ps: PositionState, radius: float | None = None) -> Snapshot:
    """Reduce a snapshot to its moments, causality margin, leakage and slice.

    psi is read one slab of the first grid axis at a time (``slabs``); each
    slab's (rho, j) comes from ``spinor.bilinear_density`` and
    ``packed_current`` and is dropped once its cell sums of rho, x rho,
    |x|^2 rho and j, of rho weighted by its share outside ``radius`` (if
    given), its largest |j| - rho and its rows of the x1-axis slice are
    taken.  Temporaries are one slab in size.  The slab partials are
    added pairwise, so they match whole-field ``np.sum`` to the last bit
    and do not depend on the BLAS thread count.  The moments are the
    trapezoid sums normalized by the discrete norm.
    """
    grid = ps.grid
    x = grid.axis()
    centre = grid.n_points // 2
    axis_slice = np.empty((4, grid.n_points))
    partials, margin = [], -np.inf
    for rows, block in ps.slabs():
        rho = bilinear_density(block)
        j = packed_current(block, ps.layout)
        r = grid.radius(rows)
        partials.append(np.array([
            np.sum(rho),
            np.sum(x[rows, None, None] * rho),
            np.sum(x[None, :, None] * rho),
            np.sum(x[None, None, :] * rho),
            np.sum(r**2 * rho),
            *np.sum(j, axis=(1, 2, 3)),
            0.0 if radius is None else np.sum(grid.outside_share(r, radius) * rho),
        ]))
        margin = max(margin, _margin(rho, j))
        axis_slice[0, rows] = rho[:, centre, centre]
        axis_slice[1:, rows] = j[:, :, centre, centre]
    sums, dv = pairwise_sum(partials), grid.cell_volume
    total = float(sums[0] * dv)
    mean = sums[1:4] * dv / total
    spread2 = max(float(sums[4] * dv / total) - float(mean @ mean), 0.0)
    return Snapshot(
        MomentSet(total, mean, float(np.sqrt(spread2)), sums[5:8] * dv / total),
        margin,
        axis_slice,
        None if radius is None else float(sums[8] * dv),
    )


def moments(ps: PositionState) -> MomentSet:
    """Trapezoid-sum moments of the sampled density and current.

    The density decays exponentially, so plain cell sums are spectrally
    accurate; values are normalized by the discrete norm to remove the
    mass the grid truncates.  One ``snapshot_pass`` over ``ps``.
    """
    return snapshot_pass(ps).moments


def mean_velocity_two_ways(state: MomentumState):
    """(spinor form, scalar form) of <xdot>, unnormalized, by independent paths.

    spinor form: int phi^dagger alpha phi d^3p, the closed-form current
                 ``spinor.packed_current`` of ``MomentumState.spinor``
                 sampled on ``states.momentum_rule``
    scalar form: int (p/E(p)) F^2 d^3p, ``momentum_moments``' <xdot>
                 times its norm, from the envelope F alone
    """
    exact = momentum_moments(state)
    p, weights = momentum_rule(state.profile, state.label.n).points()
    phi = state.spinor(*p)
    current = np.sum(weights * packed_current(phi, spinor_layout(state.label.spin)), axis=1)
    return current, exact.mean_velocity * exact.norm


def overlap(s1: MomentumState, s2: MomentumState) -> complex:
    """Scalar product (phi1, phi2) = int phi1^dagger(p) phi2(p) d^3p.

    Two exact reductions of the eigenspinor factor give every value.
    Opposite spins give exactly 0 for any profiles and times, because
    u_up(p)^dagger u_down(p) = 0 at every p.  Same spins at equal times
    leave u^dagger u = 1 and the Gaussian Fourier integral

        int F1 F2 exp(i (a1 - a2).p) d^3p,   F_i = n_i^(-3/2) f_i(p/n_i),

    in closed form for any two Gaussian profiles (``_gaussian_overlap``),
    which stays meaningful far below the float64 cancellation floor of
    ``overlap_quadrature``, the oracle for both reductions.  Same spins
    at different times raise ``ValueError``.
    """
    if s1.label.spin != s2.label.spin:
        return 0j
    _check_one_instant(s1, s2)
    return _gaussian_overlap(s1, s2)


def _check_one_instant(s1: MomentumState, s2: MomentumState) -> None:
    """Refuse two states at different times: overlaps are taken at one instant."""
    if s1.time != s2.time:
        raise ValueError(f"overlap needs states at one time, got t1 = {s1.time}, t2 = {s2.time}")


def _gaussian_product(w1, c1, w2, c2):
    """(W, mu): F1 F2 is a Gaussian of variance W = w1 w2 / (w1 + w2) about
    mu = W (c1/w1 + c2/w2)."""
    wsum = w1 + w2
    return w1 * w2 / wsum, (w2 * c1 + w1 * c2) / wsum


def _gaussian_overlap(s1: MomentumState, s2: MomentumState) -> complex:
    """int F1 F2 exp(i delta.p) d^3p for Gaussian envelopes, delta = a1 - a2.

    With (w_i, c_i) from ``envelope_gaussian`` and (W, mu) from
    ``_gaussian_product`` the integral is

        (2 r / (1 + r^2))^(3/2)
        exp(-|c1 - c2|^2 / (2 (w1 + w2)) - W |delta|^2 / 2 + i delta.mu),

    where r = n1 sigma_1 / (n2 sigma_2) is the width ratio: the prefactor
    A1 A2 (n1 n2)^(-3/2) (2 pi W)^(3/2) in a form that is exactly 1 for
    equal widths, at most 1 for any, and finite at every width.
    """
    (w1, c1), (w2, c2) = (envelope_gaussian(s.profile, s.label.n) for s in (s1, s2))
    width, mu = _gaussian_product(w1, c1, w2, c2)
    delta = np.asarray(s1.label.a) - np.asarray(s2.label.a)
    r = (s1.label.n * s1.profile.sigma_p) / (s2.label.n * s2.profile.sigma_p)
    exponent = -((c1 - c2) @ (c1 - c2)) / (2.0 * (w1 + w2)) - width * (delta @ delta) / 2.0
    return complex(
        (2.0 * r / (1.0 + r * r)) ** 1.5 * np.exp(exponent) * np.exp(1j * (delta @ mu))
    )


def _overlap_axes(s1: MomentumState, s2: MomentumState):
    """(order, lo, hi) per axis: the tensor Gauss-Legendre rule of
    ``overlap_quadrature`` on the box where F1 F2 lives.

    The box is mu +- 8 sqrt(W) per axis (``_gaussian_product``), beyond
    which F1 F2 has fallen by e^-32, so it fits the narrower of two
    states whose widths n sigma_p differ several-fold.  Each axis adds
    nodes for the oscillation of exp(i (a1 - a2).p) across the box.
    """
    width, mu = _gaussian_product(*envelope_gaussian(s1.profile, s1.label.n),
                                  *envelope_gaussian(s2.profile, s2.label.n))
    half = 8.0 * np.sqrt(width)
    spread = np.abs(np.asarray(s1.label.a) - np.asarray(s2.label.a))
    return [
        (96 + int(np.ceil(0.8 * spread[axis] * half)), mu[axis] - half, mu[axis] + half)
        for axis in range(3)
    ]


def overlap_quadrature(s1: MomentumState, s2: MomentumState) -> complex:
    """(phi1, phi2) by tensor Gauss-Legendre on the rule of ``_overlap_axes``.

    The scalar part F exp(-i a.p) of each state is a product of axis
    factors (``MomentumState.axis_factors``), so axis k carries the
    weights w_k conj(f1_k) f2_k.  Only the non-separable part is
    evaluated per point: the eigenspinor slots c of calE u
    (``fill_eigenspinor``) from one E(p) shared by both states,

        sum conj(c1) c2 / (2E(E + m)).

    Same spins need one slot stack.  The spinor is still sampled
    pointwise, so the result checks rather than repeats the
    u^dagger u = 1 and u_up^dagger u_down = 0 identities ``overlap``
    rests on.  States at different times raise ``ValueError``, as in
    ``overlap``, before any node is built.
    """
    _check_one_instant(s1, s2)
    rules = []
    for axis, (order, lo, hi) in enumerate(_overlap_axes(s1, s2)):
        nodes, weights = gauss_legendre(order, lo, hi)
        f1, f2 = s1.axis_factors(nodes)[axis], s2.axis_factors(nodes)[axis]
        rules.append((nodes, weights * f1.conj() * f2))
    spin1, spin2 = s1.label.spin, s2.label.spin

    def integrand(px, py, pz):
        e = energy_xyz(px, py, pz)
        e_plus_m = e + MASS

        def slots(count, spin):
            out = np.empty((count,) + e.shape, dtype=complex)
            return fill_eigenspinor(out, 1.0, e_plus_m, px, py, pz, spin)

        if spin1 == spin2:
            g = bilinear_density(slots(3, spin1))
        else:
            c1 = slots(4, spin1)
            np.conjugate(c1, out=c1)
            c1 *= slots(4, spin2)
            g = np.sum(c1, axis=0)
        g /= 2.0 * e * e_plus_m
        return g

    return tensor_integrate(integrand, rules)


def _dot(a, d):
    """a.d for every column d of a (3, ...) array."""
    return a[0] * d[0] + a[1] * d[1] + a[2] * d[2]


def _cross2(a, d):
    """|d x a|^2 for every column d of a (3, ...) array."""
    return ((d[1] * a[2] - d[2] * a[1]) ** 2 + (d[2] * a[0] - d[0] * a[2]) ** 2
            + (d[0] * a[1] - d[1] * a[0]) ** 2)


def _rn_integral(profile: MomentumProfile, n: int, p, q_operator: str, spin):
    """The map rule -> R_n(p) on that rule, in closed form with real arithmetic.

    The Gaussian factors conj(f(q/n)) f(s/n), q = s - p, fold into one
    exponential.  The eigenspinor is u = (E + m, sigma.p) chi / calE,
    calE = sqrt(2E(E + m)), with chi the spin-up or spin-down Pauli
    spinor (sign = +1 or -1), so sigma_i sigma_j = delta_ij +
    i eps_ijk sigma_k and chi^dagger sigma chi = (0, 0, sign) give
    calE(q) calE(s) u(q)^dagger Q u(s) as

        identity: (E_q+m)(E_s+m) + q.s + sign i (q x s)_3
        alpha_i:  (E_q+m)(s_i + sign i eps_ij3 s_j)
                  + (E_s+m)(q_i + sign i eps_ji3 q_j)

    The rule is walked on its factors (``SphericalRule.directions``).
    With s = r d these are q.s = r (r - d.p), (q x s)_3 = r (p_1 d_0 -
    p_0 d_1), s_i = r d_i and q_i = s_i - p_i, and the two squared
    distances take the cancellation-free form |s - a|^2 = (r - d.a)^2 +
    |d x a|^2 for a = p and a = mid.  So d.p, d.mid, |d x p|^2,
    |d x mid|^2 and the cross term are formed once per direction and
    E(|s|) = sqrt(1 + r^2) once per radial node; no point of the rule
    is built.  A block of whole radial nodes (at most ``BLOCK_POINTS``
    (r, d) pairs) costs two square roots, one exponential and about a
    dozen other elementwise passes per pair, all in place on four
    buffers that every block reuses, and the block sums are added with
    ``pairwise_sum``.
    """
    if q_operator not in Q_AXES:
        raise ValueError(f"Q must be one of {sorted(Q_AXES)}, got {q_operator!r}")
    sign = spinor_layout(spin).sign
    p = np.asarray(p, dtype=float)
    # |q - c|^2 + |s - c|^2 = 2 |s - mid|^2 + |p|^2 / 2 with mid = c + p/2 and
    # c = n k: one squared distance per point, the constant folded into scale
    width2, centre = envelope_gaussian(profile, n)
    mid = centre + 0.5 * p
    scale = profile.amplitude**2 / n**3 * np.exp(-0.25 * (p @ p) / width2)
    i = Q_AXES[q_operator]
    # the imaginary part is twist times a sum: sign (q x s)_3 for the identity,
    # sign i eps_ij3 (E_q s_j - E_s q_j) = twist ((E_q - E_s) s_j + (E_s + m) p_j)
    # for alpha_1 and alpha_2 (j = 1 - i), nothing for alpha_3
    twist = -sign if i == 1 else sign

    def evaluate(rule: SphericalRule) -> complex:
        d, angular = rule.directions()
        d_p = _dot(p, d)
        q_perp = 1.0 + _cross2(p, d)  # 1 + |q|^2 = (r - d.p)^2 + q_perp
        # -|s - mid|^2 / width^2 = mid_perp - (r / width - d_mid)^2
        width = math.sqrt(width2)
        d_mid = _dot(mid / width, d)
        mid_perp = _cross2(mid, d) * (-1.0 / width2)
        cross = p[1] * d[0] - p[0] * d[1]  # (q x s)_3 / r
        es = np.sqrt(1.0 + rule.r * rule.r)
        es_m = es + MASS
        radial = rule.r2_weights / np.sqrt(4.0 * es * es_m)
        step = max(1, BLOCK_POINTS // angular.size)
        buffers = np.empty((4, step, angular.size))  # reused by every block
        real_parts, imag_parts = [], []
        for lo in range(0, rule.r.size, step):
            r = rule.r[lo:lo + step, None]
            e_s, e_sm = es[lo:lo + step, None], es_m[lo:lo + step, None]
            t, work, eq, weight = buffers[:, :r.shape[0]]
            np.subtract(r, d_p, out=t)
            np.multiply(t, t, out=work)
            work += q_perp
            np.sqrt(work, out=eq)
            work += eq  # E_q (E_q + m)
            np.sqrt(work, out=work)
            np.subtract(r / width, d_mid, out=weight)
            weight *= weight
            np.subtract(mid_perp, weight, out=weight)
            np.exp(weight, out=weight)
            weight /= work
            weight *= radial[lo:lo + step, None]
            weight *= angular
            if i is None:
                t *= r  # q.s = r (r - d.p)
                t += e_sm
                eq *= e_sm
                real = np.add(t, eq, out=t)
                imag = np.multiply(r, cross, out=work)
            else:
                real = np.add(eq, e_sm + MASS, out=t)
                real *= np.multiply(r, d[i], out=work)
                real -= e_sm * p[i]
                imag = None
                if i < 2:
                    imag = np.subtract(eq, e_s, out=eq)
                    imag *= np.multiply(r, d[1 - i], out=work)
                    imag += e_sm * p[1 - i]
            real *= weight
            real_parts.append(float(np.sum(real)))
            if imag is not None:
                imag *= weight
                imag_parts.append(float(np.sum(imag)))
        imag_sum = twist * pairwise_sum(imag_parts) if imag_parts else 0.0
        return complex(scale * pairwise_sum(real_parts), scale * imag_sum)

    return evaluate


PARALLEL_SINE = 1e-15  # p and c count as parallel below this sine of their angle


def _rn_rule_axis(p: np.ndarray, centre: np.ndarray):
    """(axis, axial): the polar axis of R_n's rule, and whether the
    integrand is axially symmetric about it.

    The integrand depends on s through |s|, s.p (in E(|s - p|)), s.c (in
    the Gaussian exponent, c = n k the envelope centre) and terms linear
    in s.  With c = 0 the axis is p (z if p = 0); otherwise it is c, and
    the integrand is axial when p = 0 or p is parallel to c.  None
    stands for z.
    """
    if not centre.any():
        return (p if p.any() else None), True
    if not p.any():
        return centre, True
    sine = np.linalg.norm(np.cross(p, centre)) / (np.linalg.norm(p) * np.linalg.norm(centre))
    return centre, bool(sine <= PARALLEL_SINE)


def convolution_Rn(
    profile: MomentumProfile,
    n: int,
    p,
    q_operator: str = "identity",
    spin=0.5,
) -> complex:
    """The momentum-space convolution R_n(p) for Q in {identity, alpha_i}.

    Evaluated in the rescaled variable s = n r, where the eigenspinor
    factors vary on the unit scale near the origin and the Gaussian
    envelope is broad: a graded spherical rule handles both.  The
    integrand is the closed-form spinor bilinear on the rule's radial
    and angular factors (see ``_rn_integral``), not a 4 x 4 contraction
    of sampled spinors.  The base rule has 64 inner and 96 outer radial
    nodes, 48 polar and 32 azimuth nodes, its polar axis
    ``_rn_rule_axis``'s.
    Where the integrand is axial about it, its only azimuthal terms are
    the first harmonics of the parts linear in s, which the 2-point
    trapezoid integrates exactly, so n_phi is 2 there and 32 only off
    the axis.  The result is certified by node doubling of every entry
    (which resolves the second harmonic that 2 azimuth nodes would
    alias); disagreement beyond ``RN_TOL`` raises :class:`QuadratureError`.
    An n below 1 or not finite raises ``ValueError`` first.
    Off the axis the two rules hold 2.2 M (r, d) pairs and one value
    takes about 30 ms on a 2 vCPU Xeon; on it they hold 0.14 M pairs and
    take 3 to 4 ms.
    """
    check_sequence_index(n)
    evaluate = _rn_integral(profile, n, p, q_operator, spin)
    p = np.asarray(p, dtype=float)
    p_norm = float(np.linalg.norm(p))
    inner = 2.0 * p_norm + 4.0
    s_max = n * profile.cutoff() + p_norm
    axis, axial = _rn_rule_axis(p, n * np.asarray(profile.center, dtype=float))
    return node_doubling(
        evaluate,
        ((0.0, inner, s_max), (64, 96), 48, 2 if axial else 32, axis),
        tol=RN_TOL,
        label=f"R_n(p={tuple(float(c) for c in p)}, Q={q_operator}, n={n})",
    )


def momentum_moments(state: MomentumState) -> MomentSet:
    """Norm, <x>, Delta_x and <xdot> over all space, in closed form from phi(p).

    With phi = F u_s exp(-i theta), theta = a.p + E t, real F and unit
    u_s, x = i grad_p gives

        norm            = int F^2 d^3p
        <xdot>          = int F^2 p/E d^3p / norm
        <x> - a         = int F^2 (t p/E + B) d^3p / norm
        <|x - a|^2>     = int F^2 (|grad F|^2/F^2 + t^2 |p|^2/E^2 + S) d^3p / norm

    with the spin term B = i u_s^dagger grad u_s = s (p x z)/(2E(E + m))
    (s = +1 or -1 by spin) that separates Dirac's position from
    Newton-Wigner's, and S = sum_k |d_k u_s|^2 = 1/(E(E + m)) + 1/(4E^4)
    for either spin.  The cross term 2 t (p/E).B of <|x - a|^2> is 0
    pointwise.  Delta_x^2 = <|x - a|^2> - |<x> - a|^2; taken about a, not
    the origin, a far point costs no digits.  For the Gaussian envelope
    grad F/F = -(p - c)/w (``envelope_gaussian``).  About the envelope
    centre every integrand is an axial function times 1, cos phi or
    sin phi, so the one pass over ``states.envelope_density`` integrates
    it exactly in the azimuth.
    """
    p, q2, density = envelope_density(state.profile, state.label.n)
    width2, _ = envelope_gaussian(state.profile, state.label.n)
    e = energy_xyz(*p)
    norm = float(np.sum(density))
    flow = density / e
    velocity = np.array([np.sum(flow * pk) for pk in p]) / norm
    spin = density * (spinor_layout(state.label.spin).sign / (2.0 * e * (e + MASS)))
    offset = state.time * velocity
    offset[0] += np.sum(spin * p[1]) / norm
    offset[1] -= np.sum(spin * p[0]) / norm
    term = q2 * (1.0 / width2**2) + 1.0 / (e * (e + MASS)) + 0.25 / e**4
    drift = state.time / e
    for pk in p:
        term += (drift * pk) ** 2
    spread2 = np.sum(density * term) / norm - offset @ offset
    return MomentSet(
        norm=norm,
        mean_x=np.asarray(state.label.a) + offset,
        delta_x=float(np.sqrt(spread2)),
        mean_velocity=velocity,
    )


def position_mean_from_momentum(state: MomentumState) -> np.ndarray:
    """<x> in closed form: the ``mean_x`` of ``momentum_moments``."""
    return momentum_moments(state).mean_x

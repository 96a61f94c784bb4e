"""Cross-module verification battery behind the ``verify`` CLI command.

Each check is one plain function in this module: its inputs are
arguments, and it returns a dict of named values.  Keys that name a
tolerance in ``DEFAULT_TOLERANCES`` are check values; any other key is a
supporting number (an error sequence, a fitted order) that callers may
report.  ``BATTERY`` binds every function to the inputs ``verify`` uses,
and ``run_checks`` evaluates it in order; the acceptance suite calls the
same functions with its own, larger inputs.

A check passes when value <= bound.  Bounds are the module tolerances
and can be overridden one by one (``--tol name=value``), which is also
how the battery's failure path is exercised.  Random momenta come from
one seeded stream, drawn in battery order, so runs are reproducible.
Nothing is built at import time: each entry's inputs are constructed
only when the battery runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import observables, spinor, states, symmetry
from .dynamics import (
    LEAKAGE_GRID_BOUND,
    NRPacketParams,
    evolve_free,
    evolve_report,
    nr_density_factor,
    nr_evolve_factor,
    nr_packet_factor,
)
from .transform import CartesianGrid, position_state_cartesian

SEED = 20130625

DEFAULT_TOLERANCES = {
    "dirac_anticommutation": 0.0,
    "projector_idempotence": 1e-12,
    "projector_hermiticity": 1e-12,
    "eigenspinor_residual": 1e-10,
    "eigenspinor_norm": 1e-12,
    "spin_eigenvalue": 1e-10,
    "rotation_intertwines": 1e-10,
    "derivative_bound_slack": 1e-3,
    "profile_norm": 1e-8,
    "profile_mean_v0": 1e-8,
    "profile_mean_boosted": 1e-6,
    "state_norms": 1e-6,
    "positive_energy_membership": 1e-10,
    "rn_at_zero": 1e-8,
    "rn_convergence_ratio": 1.0,
    "rn_alpha3_convergence_ratio": 1.0,
    "velocity_identity": 1e-8,
    "causality_margin": 1e-10,
    "lightcone_leakage": LEAKAGE_GRID_BOUND,
    "overlap_reduction": 1e-9,
    "opposite_spin_overlap": 1e-10,
    "overlap_decay_ratio": 1.0,
    "nr_oracle": 1e-6,
    "nr_current_order_defect": 0.2,
    "boost_velocity_addition": 1e-12,
    "boost_composition": 1e-12,
    "moment_consistency": 1e-4,
    "localization_trend_ratio": 1.0,
}


@dataclass
class Check:
    name: str
    value: float
    bound: float
    passed: bool


def monotone_ratio(values) -> float:
    """max ratio of consecutive magnitudes; < 1 means strictly decreasing."""
    values = np.asarray(values, dtype=float)
    return float(np.max(values[1:] / values[:-1]))


def dirac_anticommutation() -> dict:
    """{alpha_i, alpha_j} = 2 delta_ij, exactly."""
    anti = max(
        np.abs(
            spinor.ALPHA[i] @ spinor.ALPHA[j]
            + spinor.ALPHA[j] @ spinor.ALPHA[i]
            - 2.0 * (i == j) * np.eye(4)
        ).max()
        for i in range(3)
        for j in range(3)
    )
    return {"dirac_anticommutation": anti}


def spinor_identities(pts) -> dict:
    """Projector, Pryce rotation and eigenspinor identities at momenta ``pts`` (M, 3)."""
    proj = spinor.positive_projector(pts)
    ham = spinor.hamiltonian_matrix(pts)
    erg = spinor.energy(pts)
    umat = spinor.pryce_u_matrix(pts)
    rotated = erg[:, None, None] * (umat @ spinor.BETA)
    s3 = spinor.pryce_spin3(pts)
    worst_resid = worst_norm = worst_spin = 0.0
    for label in (spinor.SPIN_UP, spinor.SPIN_DOWN):
        u = spinor.spin_eigenspinor(pts, label)
        resid = np.abs(np.einsum("mab,mb->ma", ham, u) - erg[:, None] * u).max()
        worst_resid = max(worst_resid, resid)
        worst_norm = max(worst_norm, np.abs(np.sum(np.abs(u) ** 2, axis=1) - 1).max())
        worst_spin = max(worst_spin, np.abs(np.einsum("mab,mb->ma", s3, u) - label * u).max())
    return {
        "projector_idempotence": np.abs(proj @ proj - proj).max(),
        "projector_hermiticity": np.abs(proj - np.conj(np.swapaxes(proj, -1, -2))).max(),
        "rotation_intertwines": np.abs(ham @ umat - rotated).max(),
        "eigenspinor_residual": worst_resid,
        "eigenspinor_norm": worst_norm,
        "spin_eigenvalue": worst_spin,
    }


def derivative_bound_slack(samples) -> dict:
    """Largest excess over 1 of |u_a|, |du_a/dp| m/2 and |du_a/dp| |p|/2."""
    r = spinor.spinor_derivative_bounds(samples)
    slack = max(r.max_component - 1.0, r.worst_mass_ratio - 1.0, r.worst_radial_ratio - 1.0, 0.0)
    return {"derivative_bound_slack": slack}


def profile_conditions(velocities) -> dict:
    """Unit norm and zero mean flow of the plain profile; mean flow v when
    boosted, the worst over ``velocities``."""
    norm, mean = states.check_profile_conditions(states.gaussian_profile(1.0))
    boosted = (
        states.check_profile_conditions(states.boosted_gaussian_profile(v))[1]
        - np.asarray(v, dtype=float)
        for v in velocities
    )
    return {
        "profile_norm": abs(norm - 1.0),
        "profile_mean_v0": float(np.linalg.norm(mean)),
        "profile_mean_boosted": max(float(np.linalg.norm(d)) for d in boosted),
    }


def state_norms(momentum_states) -> dict:
    return {"state_norms": max(abs(s.norm() - 1.0) for s in momentum_states)}


def positive_energy_membership(state, samples) -> dict:
    """|Lambda_+ phi - phi| at the momenta ``samples`` (M, 3)."""
    phi = state.spinor(samples[:, 0], samples[:, 1], samples[:, 2])  # (4, M)
    proj = spinor.positive_projector(samples)
    resid = np.abs(np.einsum("mab,bm->am", proj, phi) - phi).max()
    return {"positive_energy_membership": resid}


def rn_convergence(v, n_values, zero_n_values, identity_points, alpha3_points) -> dict:
    """R_n(p) -> 1 for Q = identity and -> v_3 for Q = alpha3 as n grows.

    R_n(0) = 1 exactly for every n (checked at ``zero_n_values``).  The
    ratios are the worst over the points; supporting values
    ``identity_errors``/``alpha3_errors`` map each point to its errors
    over ``n_values``.
    """
    plain = states.gaussian_profile(1.0)
    boosted = states.boosted_gaussian_profile(v)
    zeros = [abs(observables.convolution_Rn(plain, n, (0, 0, 0)) - 1.0) for n in zero_n_values]
    identity = {
        p: [abs(observables.convolution_Rn(plain, n, p) - 1.0) for n in n_values]
        for p in identity_points
    }
    alpha3 = {
        p: [abs(observables.convolution_Rn(boosted, n, p, "alpha3") - v[2]) for n in n_values]
        for p in alpha3_points
    }
    return {
        "rn_at_zero": max(zeros),
        "rn_convergence_ratio": max(monotone_ratio(e) for e in identity.values()),
        "rn_alpha3_convergence_ratio": max(monotone_ratio(e) for e in alpha3.values()),
        "identity_errors": identity,
        "alpha3_errors": alpha3,
    }


def velocity_identity(velocities, n: int) -> dict:
    """Spinor bilinear against closed form of <xdot>, worst over states of ``velocities``."""
    worst = 0.0
    for v in velocities:
        spinor_form, scalar_form = observables.mean_velocity_two_ways(states.make_state(v=v, n=n))
        worst = max(worst, float(np.abs(spinor_form - scalar_form).max()))
    return {"velocity_identity": worst}


def causality(state, grid, times, r0: float) -> dict:
    """Worst |j| - rho and light-cone leakage over free evolution to ``times``."""
    report, _ = evolve_report(state, grid, times, r0=r0)
    return {
        "causality_margin": max(report.causality_margins),
        "lightcone_leakage": max(report.lightcone_leakages),
    }


def overlaps(a2, decay_n_values, reduction_n_values, opposite_a2, opposite_n_values) -> dict:
    """Overlaps of the state at the origin with one at ``a2``.

    ``overlap_reduction``: closed form against ``overlap_quadrature``,
    which samples the eigenspinors pointwise and carries the Gaussian
    envelopes and exp(-i a.p) on its axis weights; the supporting
    ``decay`` lists |overlap| over ``decay_n_values``; opposite spins at
    ``opposite_a2`` must be orthogonal (by the same quadrature).
    """

    def pair(n, a=a2, spin=spinor.SPIN_UP):
        return states.make_state(n=n), states.make_state(a=a, n=n, spin=spin)

    reduction = max(
        abs(observables.overlap(*pair(n)) - observables.overlap_quadrature(*pair(n)))
        for n in reduction_n_values
    )
    opposite = max(
        abs(observables.overlap_quadrature(*pair(n, opposite_a2, spinor.SPIN_DOWN)))
        for n in opposite_n_values
    )
    decay = [abs(observables.overlap(*pair(n))) for n in decay_n_values]
    return {
        "overlap_reduction": reduction,
        "opposite_spin_overlap": opposite,
        "overlap_decay_ratio": monotone_ratio(decay),
        "decay": decay,
    }


def nr_oracle(packets, grid, times) -> dict:
    """Spectral against closed-form Schroedinger density, worst over packets and times.

    Both densities are outer products of three axis factors; their
    difference is taken one N^2 slab of the first axis at a time, so no
    N^3 array is formed.
    """
    x = grid.axis()
    worst = 0.0
    for params in packets:
        chi0 = [nr_packet_factor(params, k, x) for k in range(3)]
        for t in times:
            a = [np.abs(nr_evolve_factor(c, grid, t)) ** 2 for c in chi0]
            b = [nr_density_factor(params, k, x, t) for k in range(3)]
            a12, b12 = np.outer(a[1], a[2]), np.outer(b[1], b[2])
            for ai, bi in zip(a[0], b[0]):
                worst = max(worst, float(np.abs(ai * a12 - bi * b12).max()))
    return {"nr_oracle": worst}


def nr_current_order(params, points_per_axis, extent: float) -> dict:
    """Convergence order of the finite-difference current v |chi|^2 between two grids.

    The centred difference along axis k touches only factor c_k, so
    j_k - v_k |chi|^2 is the outer product of Im(c_k* c_k') - v_k |c_k|^2
    with the other axes' |c_m|^2, and its max is the product of the
    factors' maxima.  The defect is how far the order falls short of 2;
    the supporting ``order`` is the order itself.
    """
    errs = []
    for pts in points_per_axis:
        g = CartesianGrid(pts, extent)
        chi = [nr_packet_factor(params, k, g.axis()) for k in range(3)]
        peaks = [float(np.max(np.abs(c) ** 2)) for c in chi]
        worst = 0.0
        for k, c in enumerate(chi):
            j = np.imag(np.conj(c) * np.gradient(c, g.dx, edge_order=2))
            defect = float(np.abs(j - params.v[k] * np.abs(c) ** 2).max())
            worst = max(worst, defect * float(np.prod(peaks[:k] + peaks[k + 1:])))
        errs.append(worst)
    order = float(np.log2(errs[0] / errs[1]))
    return {"nr_current_order_defect": max(2.0 - order, 0.0), "order": order}


def boost_laws(speed: float, limit, rapidities) -> dict:
    """Velocity addition speed (+) speed, and boosts composing by adding rapidities."""
    boost = symmetry.BoostParams(rapidity=float(np.arctanh(speed)))
    addition = abs(symmetry.velocity_addition(speed, boost) - 2 * speed / (1 + speed * speed))
    stepwise = limit
    for rapidity in rapidities:
        stepwise = symmetry.boost_label(stepwise, symmetry.BoostParams(rapidity))
    at_once = symmetry.boost_label(limit, symmetry.BoostParams(sum(rapidities)))
    composition = max(
        np.abs(np.array(stepwise.point) - np.array(at_once.point)).max(),
        np.abs(np.array(stepwise.velocity) - np.array(at_once.velocity)).max(),
        abs(stepwise.rho_weight - at_once.rho_weight),
    )
    return {"boost_velocity_addition": addition, "boost_composition": composition}


def moment_consistency(state, grid) -> dict:
    """Grid norm, <x>, <xdot> and Delta_x against their momentum-space closed forms.

    The grid's <x>, <xdot> and Delta_x are normalized by its discrete
    norm, so only the norm itself sees a wrongly scaled psi.
    """
    sampled = observables.moments(position_state_cartesian(state, grid))
    exact = observables.momentum_moments(state)
    worst = max(
        abs(sampled.norm - exact.norm),
        float(np.abs(sampled.mean_x - exact.mean_x).max()),
        float(np.abs(sampled.mean_velocity - exact.mean_velocity).max()),
        abs(sampled.delta_x - exact.delta_x),
    )
    return {"moment_consistency": worst}


def localization_trend(n_values) -> dict:
    spreads = [observables.momentum_moments(states.make_state(n=n)).delta_x for n in n_values]
    return {"localization_trend_ratio": monotone_ratio(spreads)}


# One entry per check function, in report order: ``entry(rng)`` builds the
# inputs ``verify`` uses (drawing momenta from the shared stream) and runs it.
BATTERY = (
    lambda rng: dirac_anticommutation(),
    lambda rng: spinor_identities(rng.uniform(-50.0, 50.0, size=(1000, 3))),
    lambda rng: derivative_bound_slack(rng.uniform(-20.0, 20.0, size=(100, 3))),
    # fast states off the z axis: the momentum rule must follow the envelope centre
    lambda rng: profile_conditions(
        ((0.0, 0.0, 0.5), 0.99 * np.array([0.6, 0.6, 0.5]) / np.linalg.norm([0.6, 0.6, 0.5]))
    ),
    lambda rng: state_norms(
        [states.make_state(n=n) for n in (2, 5, 10, 20)]
        + [states.make_state(v=(0.99, 0.0, 0.0), n=3)]
    ),
    lambda rng: positive_energy_membership(
        states.make_state(a=(0.5, -0.3, 1.0), v=(0.0, 0.0, 0.4), n=3),
        rng.uniform(-20.0, 20.0, size=(200, 3)),
    ),
    lambda rng: rn_convergence(
        (0.0, 0.0, 0.5), n_values=(2, 4, 8), zero_n_values=(7,),
        identity_points=((1, 0, 0),), alpha3_points=((0, 0, 0),),
    ),
    lambda rng: velocity_identity(((0.0, 0.0, 0.0), (0.0, 0.0, 0.3)), n=6),
    lambda rng: causality(
        states.make_state(n=5), CartesianGrid(64, 16.0), times=(0.0, 0.5, 1.0), r0=3.0
    ),
    lambda rng: overlaps(
        (2.0, 0.0, 0.0), decay_n_values=(2, 4, 8, 16), reduction_n_values=(2,),
        opposite_a2=(0.0, 0.0, 0.0), opposite_n_values=(2,),
    ),
    lambda rng: nr_oracle(
        [NRPacketParams(n=1, sigma=1.0, a=(0.5, 0.0, 0.0), v=(0.0, 0.0, 0.3))],
        CartesianGrid(64, 20.0), times=(1.0,),
    ),
    lambda rng: nr_current_order(NRPacketParams(n=1, v=(0.0, 0.0, 0.5)), (64, 128), extent=12.0),
    lambda rng: boost_laws(
        0.5,
        symmetry.PointDensityLimit((0.3, -0.2, 1.7), (0.1, 0.2, 0.4), j_weight=(0.1, 0.2, 0.4)),
        rapidities=(0.3, 0.9),
    ),
    # a moving state off every axis, at t != 0: its grid current is checked too
    lambda rng: moment_consistency(
        evolve_free(states.make_state(a=(1.0, 0.0, 0.0), v=(0.3, -0.2, 0.4), n=3), 0.5),
        CartesianGrid(64, 16.0),
    ),
    lambda rng: localization_trend((2, 4, 8)),
)


def run_checks(tolerances: dict | None = None) -> list[Check]:
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise KeyError(f"unknown tolerance names: {sorted(unknown)}")
        tol.update(tolerances)
    rng = np.random.default_rng(SEED)
    checks: list[Check] = []
    for entry in BATTERY:
        for name, value in entry(rng).items():
            if name in tol:  # other keys are supporting values
                value, bound = float(value), float(tol[name])
                checks.append(Check(name=name, value=value, bound=bound, passed=value <= bound))
    return checks

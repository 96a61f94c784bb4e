"""Acceptance criteria: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v``; every test prints a
PASS/FAIL line (visible regardless of capture) and enforces its stated
tolerances.  Criteria 1 and 2 also enforce their runtime budgets.
"""

import time

import numpy as np

import acceptance_log

from diracloc import verify
from diracloc.dynamics import NRPacketParams
from diracloc.observables import current, moments
from diracloc.states import gaussian_profile, make_state
from diracloc.symmetry import PointDensityLimit
from diracloc.transform import (
    CartesianGrid,
    density_field,
    position_state_cartesian,
    radial_curve,
)
from grid_oracles import angular_average


def report(line: str) -> None:
    # printed immediately (visible with -s) and again in the terminal summary
    print(line, flush=True)
    acceptance_log.LINES.append(line)


def inverse_n_fit(n_values, errors):
    """Least squares fit errors ~ C/n; returns (C, relative residual)."""
    n_values = np.asarray(n_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    coeff = np.sum(errors / n_values) / np.sum(1.0 / n_values**2)
    fit = coeff / n_values
    residual = np.linalg.norm(errors - fit) / np.linalg.norm(fit)
    return float(coeff), float(residual)


def test_criterion_1_figure_reproduction():
    start = time.perf_counter()
    profile = gaussian_profile(1.0)
    curves = {n: radial_curve(profile, n, 6.0, 601, (1.0,)) for n in (5, 7, 10)}

    norms = {n: curve.norm for n, curve in curves.items()}
    for n, norm in norms.items():
        assert abs(norm - 1.0) <= 1e-4, f"norm(n={n}) = {norm}"

    rho0 = [curves[n].rho[0] for n in (5, 7, 10)]
    assert rho0[0] < rho0[1] < rho0[2]

    inside = {n: curves[n].probabilities[0] for n in (5, 7, 10)}
    assert inside[5] < inside[7] < inside[10]
    assert inside[10] > 0.9

    # independent 3-D spectral check of the n = 10 confinement
    state = make_state(n=10)
    ps = position_state_cartesian(state, CartesianGrid(128, 12.0))
    rho = density_field(ps)
    mask = ps.grid.radius() < 1.0
    inside_3d = float(np.sum(rho[mask]) * ps.grid.cell_volume)
    assert inside_3d > 0.9
    assert abs(inside_3d - inside[10]) <= 5e-3

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        f"ACCEPTANCE 1 PASS: figure curves n=5,7,10; norms 1{max(abs(v - 1) for v in norms.values()):+.1e}; "
        f"rho(0) = {rho0[0]:.2f} < {rho0[1]:.2f} < {rho0[2]:.2f}; "
        f"P(r<1, n=10) = {inside[10]:.4f} (3-D oracle {inside_3d:.4f}); {elapsed:.1f}s"
    )


def test_criterion_2_radial_vs_3d_oracle():
    start = time.perf_counter()
    profile = gaussian_profile(1.0)
    state = make_state(n=5)
    ps = position_state_cartesian(state, CartesianGrid(128, 12.0))

    r = np.linspace(0.0, 4.0, 81)
    rho = radial_curve(profile, 5, 4.0, r.size).rho
    averaged = angular_average(density_field(ps), ps.grid, r)
    rel = float(np.linalg.norm(averaged - rho) / np.linalg.norm(rho))
    assert rel <= 1e-2

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        f"ACCEPTANCE 2 PASS: radial vs 3-D spectral path, relative L2 = {rel:.2e} "
        f"on r in [0, 4]; {elapsed:.1f}s"
    )


GRIDS_BY_N = {2: (64, 16.0), 4: (64, 16.0), 8: (128, 12.0), 16: (128, 8.0)}


def test_criterion_3_localizing_sequence_limits():
    n_values = (2, 4, 8, 16)
    spreads, centred_errors, shifted_errors = [], [], []
    for n in n_values:
        pts, extent = GRIDS_BY_N[n]
        grid = CartesianGrid(pts, extent)
        m0 = moments(position_state_cartesian(make_state(n=n), grid))
        m1 = moments(position_state_cartesian(make_state(a=(1, 0, 0), n=n), grid))
        spreads.append(m0.delta_x)
        centred_errors.append(float(np.abs(m0.mean_x).max()))
        shifted_errors.append(float(np.abs(m1.mean_x - [1.0, 0.0, 0.0]).max()))

    assert verify.monotone_ratio(spreads) < 1.0, spreads
    coeff, residual = inverse_n_fit(n_values, spreads)
    assert coeff > 0.0
    assert residual < 0.10
    assert max(centred_errors) <= 1e-4
    assert max(shifted_errors) <= 1e-4
    report(
        "ACCEPTANCE 3 PASS: Delta_x = "
        + " > ".join(f"{s:.4f}" for s in spreads)
        + f"; fit C/n with C = {coeff:.3f}, residual {residual:.1%}; "
        f"|<x> - a| <= {max(max(centred_errors), max(shifted_errors)):.1e}"
    )


def test_criterion_4_rn_convergence():
    values = verify.rn_convergence(
        v=(0.0, 0.0, 0.5),
        n_values=(2, 4, 8, 16),
        zero_n_values=(2, 4, 8, 16),
        identity_points=((1, 0, 0), (0, 0, 2)),
        alpha3_points=((0, 0, 0), (1, 0, 0), (0, 0, 2)),
    )
    # every error sequence strictly decreasing
    assert values["rn_convergence_ratio"] < 1.0, values["identity_errors"]
    assert values["rn_alpha3_convergence_ratio"] < 1.0, values["alpha3_errors"]
    # at p = 0 the identity convolution equals 1 exactly for every n
    assert values["rn_at_zero"] <= 1e-8

    details = [f"id@{p}: {e[0]:.2e}->{e[-1]:.2e}" for p, e in values["identity_errors"].items()]
    details += [f"a3@{p}: {e[0]:.2e}->{e[-1]:.2e}" for p, e in values["alpha3_errors"].items()]
    report("ACCEPTANCE 4 PASS: R_n convergence; " + "; ".join(details))


def test_criterion_5_velocity_identity():
    targets = [
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.3),
        (0.0, 0.0, 0.6),
        (0.2, 0.0, 0.1),
        (0.0, 0.45, 0.0),
    ]
    worst = verify.velocity_identity(targets, n=6)["velocity_identity"]
    assert worst <= 1e-8
    report(
        f"ACCEPTANCE 5 PASS: velocity identity on {len(targets)} states, "
        f"max |spinor - scalar| = {worst:.1e}"
    )


def test_criterion_6_causality():
    values = verify.causality(make_state(n=5), CartesianGrid(64, 16.0), (0.0, 0.5, 1.0), r0=3.0)
    worst_margin, worst_leak = values["causality_margin"], values["lightcone_leakage"]
    assert worst_margin <= 1e-10
    assert worst_leak <= 1e-3
    report(
        f"ACCEPTANCE 6 PASS: causality margin <= {worst_margin:.1e}, "
        f"light-cone leakage <= {worst_leak:.1e} (r0 = 3, t in 0, 0.5, 1)"
    )


def test_criterion_7_nonrelativistic_suite():
    packets = [
        NRPacketParams(n=n, sigma=1.0, a=(1.0, 0.0, 0.0), v=(0.0, 0.0, 0.5)) for n in (1, 4)
    ]
    worst = verify.nr_oracle(packets, CartesianGrid(256, 28.0), (0.1, 1.0))["nr_oracle"]
    assert worst <= 1e-6

    packet = NRPacketParams(n=1, v=(0.0, 0.0, 0.5))
    order = verify.nr_current_order(packet, (64, 128), extent=12.0)["order"]
    assert order >= 1.8
    report(
        f"ACCEPTANCE 7 PASS: spectral vs closed-form density max-abs {worst:.1e} "
        f"(n in 1,4; t in 0.1,1); current convergence order {order:.2f}"
    )


def test_criterion_8_orthogonality_decay():
    n_values = (2, 4, 8, 16)
    values = verify.overlaps(
        a2=(2.0, 0.0, 0.0),
        decay_n_values=n_values,
        # the closed form agrees with direct quadrature where the latter is
        # meaningful (above its cancellation floor)
        reduction_n_values=(2, 4),
        opposite_a2=(2.0, 0.0, 0.0),
        opposite_n_values=n_values,
    )
    same_spin = values["decay"]
    assert values["opposite_spin_overlap"] <= 1e-10
    assert values["overlap_decay_ratio"] < 1.0, same_spin
    assert same_spin[-1] < 0.05
    assert values["overlap_reduction"] <= 1e-9

    report(
        "ACCEPTANCE 8 PASS: |overlap| decay "
        + " > ".join(f"{v:.2e}" for v in same_spin)
        + "; opposite-spin overlaps 0"
    )


def test_criterion_9_symmetry_suite():
    lim = PointDensityLimit(
        point=(0.3, -0.2, 1.7), velocity=(0.1, 0.2, 0.4), j_weight=(0.1, 0.2, 0.4)
    )
    values = verify.boost_laws(0.5, lim, (0.3, 0.9))
    addition_err, comp_err = values["boost_velocity_addition"], values["boost_composition"]
    assert addition_err <= 1e-12
    assert comp_err <= 1e-12

    # discrete operations commute with the density pipeline on a coarse grid
    grid = CartesianGrid(32, 12.0)

    def fields(**kwargs):
        ps = position_state_cartesian(make_state(n=2, **kwargs), grid)
        return density_field(ps), current(ps)

    def flip(arr, axes):
        out = arr
        for axis in axes:
            out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
        return out

    rho, j = fields(a=(0.75, 0, 0), v=(0, 0, 0.2))
    rho_p, j_p = fields(a=(-0.75, 0, 0), v=(0, 0, -0.2))
    pipeline_err = float(np.abs(rho_p - flip(rho, (0, 1, 2))).max())
    pipeline_err = max(
        pipeline_err,
        max(float(np.abs(j_p[ax] + flip(j[ax], (0, 1, 2))).max()) for ax in range(3)),
    )
    rho_r, _ = fields(a=(0, 0.75, 0), v=(0, 0, 0.2))
    pipeline_err = max(
        pipeline_err, float(np.abs(rho_r - flip(np.swapaxes(rho, 0, 1), (0,))).max())
    )
    rho_t, j_t = fields(a=(0.75, 0, 0), v=(0, 0, -0.2))
    pipeline_err = max(pipeline_err, float(np.abs(rho_t - rho).max()))
    pipeline_err = max(pipeline_err, float(np.abs(j_t[2] + j[2]).max()))
    assert pipeline_err <= 1e-3

    report(
        f"ACCEPTANCE 9 PASS: velocity addition err {addition_err:.1e}; rapidity "
        f"composition err {comp_err:.1e}; pipeline commutation err {pipeline_err:.1e}"
    )


def test_criterion_10_spinor_identity_suite():
    rng = np.random.default_rng(424242)
    values = verify.spinor_identities(rng.uniform(-50, 50, size=(1000, 3)))
    idem = values["projector_idempotence"]
    resid, spin_resid = values["eigenspinor_residual"], values["spin_eigenvalue"]
    assert idem <= 1e-12
    assert resid <= 1e-10
    assert spin_resid <= 1e-10

    samples = rng.uniform(-20, 20, size=(1000, 3))
    assert verify.derivative_bound_slack(samples)["derivative_bound_slack"] <= 1e-3

    report(
        f"ACCEPTANCE 10 PASS: 10^3 random momenta; idempotence {idem:.1e}; "
        f"eigenspinor residual {resid:.1e}; spin eigenvalue residual {spin_resid:.1e}; "
        f"derivative bounds hold with 1e-3 slack"
    )

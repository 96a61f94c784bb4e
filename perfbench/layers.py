"""Per-layer metrics from the spans of a traced pass.

A span's self time is its duration minus the time its child spans
cover.  Work counts (points, cells, nodes, ...) are computed from call
arguments by the tracer, not measured; the three waste ratios below are
built from them.
"""

from __future__ import annotations

from collections import defaultdict

# span name -> stats reported for it, in BENCHMARK.json order
LAYER_STATS = {
    "quadrature.gauss_legendre": ("calls", "self_s", "nodes", "cold_nodes"),
    "quadrature.spherical_rule": ("calls", "self_s", "points"),
    "quadrature.node_doubling": ("calls", "self_s"),
    "quadrature.tensor_integrate": ("calls", "self_s", "points"),
    "spinor.eigenspinor_components": ("calls", "self_s", "points"),
    "states.boosted_gaussian_profile": ("calls", "self_s"),
    "states.check_profile_conditions": ("calls", "self_s"),
    "states.MomentumState.spinor": ("calls", "self_s", "points"),
    "states.MomentumState.norm": ("calls", "self_s"),
    "transform.position_state_cartesian": (
        "calls", "self_s", "cells", "bytes_computed", "rss_hwm_mb"
    ),
    "transform.radial_components": ("calls", "self_s", "kernel_entries", "rss_hwm_mb"),
    "transform.density_field": ("calls", "self_s"),
    "observables.current": ("calls", "self_s", "cells"),
    "observables.moments": ("calls", "self_s"),
    "observables.convolution_Rn": ("calls", "self_s"),
    "observables.overlap": ("calls", "self_s"),
    "observables.mean_velocity_two_ways": ("calls", "self_s"),
    "observables.position_mean_from_momentum": ("calls", "self_s"),
    "dynamics.evolve_report": ("calls", "self_s", "snapshots", "rss_hwm_mb"),
    "dynamics.probability_outside": ("calls", "self_s"),
    "symmetry.verify_boost_against_field": ("calls", "self_s"),
    "verify.run_checks": ("calls", "self_s"),
}
COMMANDS = ("figure1", "rn", "overlap", "moments", "evolve")
DERIVED = (
    ("states.root_evals_per_profile", "ratio"),
    ("states.profiles_per_distinct", "ratio"),
    ("observables.field_evals_per_snapshot", "ratio"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    *((f"cmd.{cmd}_s", "s") for cmd in COMMANDS),
    ("fail_frac", "ratio"),
)
UNITS = {"calls": "count", "self_s": "s", "bytes_computed": "bytes", "rss_hwm_mb": "MB"}


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {
        f"{name}.{stat}": UNITS.get(stat, "count")
        for name, stats in LAYER_STATS.items()
        for stat in stats
    }
    units.update(DERIVED)
    return units


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations."""
    child = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _, start, end, _, _ in spans]


def layer_metrics(jobs) -> dict:
    """Aggregate traced jobs into per-layer values.

    ``jobs`` holds one dict per job with keys ``cmd``, ``spans`` and
    ``post_setup_s`` (exit time minus set-up end).  Returns the values of
    every name in ``metric_units()`` except the ones the caller measures
    itself (cli.bytes_written, trace.overhead_s, cmd.*, fail_frac).
    """
    totals = defaultdict(float)
    rss = defaultdict(float)
    root_evals = boosted = distinct = field_evals = snapshots = 0
    unattributed = 0.0
    for job in jobs:
        spans = job["spans"]
        selfs = self_times(spans)
        names = {span[0]: span[1] for span in spans}
        keys = set()
        evals = 0
        for span, self_s in zip(spans, selfs):
            _, name, _, _, parent, counts = span
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += self_s
            for stat, value in counts.items():
                if stat == "rss_hwm_mb":
                    rss[name] = max(rss[name], value)
                elif stat == "boosted":
                    boosted += value
                elif stat != "key":
                    totals[f"{name}.{stat}"] += value
            if name == "states.boosted_gaussian_profile" and counts["boosted"]:
                keys.add(counts["key"])
            if name == "states.check_profile_conditions" and names.get(parent) == (
                "states.boosted_gaussian_profile"
            ):
                root_evals += 1
            if name in ("transform.density_field", "observables.current"):
                evals += 1
            if name == "dynamics.evolve_report" and job["cmd"] == "evolve":
                snapshots += counts["snapshots"]
        distinct += len(keys)
        if job["cmd"] == "evolve":
            field_evals += evals
        unattributed += job["post_setup_s"] - sum(selfs)

    values = {}
    for name, stats in LAYER_STATS.items():
        for stat in stats:
            key = f"{name}.{stat}"
            values[key] = rss[name] if stat == "rss_hwm_mb" else totals[key]
    values["states.root_evals_per_profile"] = root_evals / boosted if boosted else 0.0
    values["states.profiles_per_distinct"] = boosted / distinct if distinct else 0.0
    values["observables.field_evals_per_snapshot"] = (
        field_evals / snapshots if snapshots else 0.0
    )
    values["cli.self_s"] = totals["cli.self_s"]
    values["trace.unattributed_s"] = unattributed
    return values


def inclusive_times(jobs) -> dict:
    """Span name -> summed duration including children (for attribution checks)."""
    totals = defaultdict(float)
    for job in jobs:
        for _, name, start, end, _, _ in job["spans"]:
            totals[name] += end - start
    return dict(totals)

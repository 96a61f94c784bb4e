"""Output checks, one per CLI command, from the library's documented guarantees.

Each check reads the files a job wrote and returns a list of problems;
an empty list means the output is correct.  A job fails when it exits
nonzero or its check finds a problem.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

NORM_TOL = 1e-6  # figure1 table norm and evolve momentum norms
OPPOSITE_SPIN_TOL = 1e-10  # verify's opposite_spin_overlap bound
OVERLAP_REL_TOL = 1e-9  # closed-form overlap against exp(-(n sigma |da|)^2 / 4)
CAUSALITY_TOL = 1e-10  # verify's causality_margin bound
LEAKAGE_TOL = 1e-3  # dynamics.LEAKAGE_GRID_BOUND
MOMENTS_MIN_NORM = 0.99  # the grid may miss at most 1e-2 of the mass


def _read_json(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def check_figure1(out: Path, expect: dict) -> list:
    curves = _read_json(out / "figure1_summary.json")["curves"]
    problems = []
    for n in expect["n"]:
        entry = curves.get(str(n))
        if entry is None or not (out / entry["file"]).is_file():
            problems.append(f"n={n}: curve missing")
            continue
        norm = entry["norm"]
        if not (math.isfinite(norm) and abs(norm - 1.0) <= NORM_TOL):
            problems.append(f"n={n}: norm {norm!r} not within {NORM_TOL:g} of 1")
    return problems


def check_rn(out: Path, expect: dict) -> list:
    with open(out / "rn_table.csv", newline="") as handle:
        rows = sorted((int(r["n"]), float(r["abs_error"])) for r in csv.DictReader(handle))
    if [n for n, _ in rows] != sorted(expect["n"]):
        return [f"rows for n={[n for n, _ in rows]}, expected {sorted(expect['n'])}"]
    return [
        f"abs_error grows from n={n0} ({e0:.3e}) to n={n1} ({e1:.3e})"
        for (n0, e0), (n1, e1) in zip(rows, rows[1:])
        if not e1 < e0
    ]


def check_overlap(out: Path, expect: dict) -> list:
    overlaps = _read_json(out / "overlaps.json")["overlaps"]
    distance = math.sqrt(sum(d * d for d in expect["delta"]))
    problems = []
    for n in expect["n"]:
        entry = overlaps.get(str(n))
        if entry is None:
            problems.append(f"n={n}: overlap missing")
            continue
        value = abs(complex(entry["re"], entry["im"]))
        if expect["opposite"]:
            if not value <= OPPOSITE_SPIN_TOL:
                problems.append(
                    f"n={n}: opposite-spin |overlap| {value:.3e} > {OPPOSITE_SPIN_TOL:g}"
                )
            continue
        target = math.exp(-((n * expect["sigma_p"] * distance) ** 2) / 4.0)
        if not abs(value - target) <= OVERLAP_REL_TOL * target + 1e-300:
            problems.append(f"n={n}: |overlap| {value!r} != exp(-(n sigma |da|)^2/4) = {target!r}")
    return problems


def check_evolve(out: Path, expect: dict) -> list:
    report = _read_json(out / "evolution_report.json")
    problems = []
    if report["times"] != expect["times"]:
        problems.append(f"times {report['times']} != {expect['times']}")
    for t in expect["times"]:
        if not (out / f"slice_t{t:g}.csv").is_file():
            problems.append(f"slice for t={t:g} missing")
    for t, margin, leak, norm in zip(report["times"], report["causality_margins"],
                                     report["lightcone_leakages"], report["momentum_norms"]):
        if not margin <= CAUSALITY_TOL:
            problems.append(f"t={t}: causality margin {margin:.3e} > {CAUSALITY_TOL:g}")
        if not leak <= LEAKAGE_TOL:
            problems.append(f"t={t}: light-cone leakage {leak:.3e} > {LEAKAGE_TOL:g}")
        if not abs(norm - 1.0) <= NORM_TOL:
            problems.append(f"t={t}: momentum norm {norm!r} not within {NORM_TOL:g} of 1")
    return problems


def check_moments(out: Path, expect: dict) -> list:
    moments = _read_json(out / "moments.json")["moments"]
    problems = []
    for n in expect["n"]:
        entry = moments.get(str(n))
        if entry is None:
            problems.append(f"n={n}: moments missing")
            continue
        speed = math.sqrt(sum(c * c for c in entry["mean_velocity"]))
        if not entry["norm"] >= MOMENTS_MIN_NORM:
            problems.append(f"n={n}: grid norm {entry['norm']!r} < {MOMENTS_MIN_NORM}")
        if not speed < 1.0:
            problems.append(f"n={n}: |mean_velocity| {speed!r} >= 1")
    return problems


def check_verify(out: Path, expect: dict) -> list:
    report = _read_json(out / "verify_report.json")
    problems = [
        f"{c['name']}: value {c['value']!r} > bound {c['bound']!r}"
        for c in report["checks"]
        if not c["value"] <= c["bound"]
    ]
    if not report["checks"]:
        problems.append("no checks reported")
    return problems


CHECKS = {
    "figure1": check_figure1,
    "rn": check_rn,
    "overlap": check_overlap,
    "evolve": check_evolve,
    "moments": check_moments,
    "verify": check_verify,
}


def check_job(cmd: str, out: Path, expect: dict) -> list:
    """Problems found in the output of a job that exited 0."""
    try:
        return CHECKS[cmd](out, expect)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]

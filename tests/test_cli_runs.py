"""The suite's one table of end-to-end runs: every subcommand in a fresh
process at its defaults, on the README's example config, and on boosted,
off-axis and spin-down states.

Each row holds the argv, the config text, the exit code and the files the
run must leave.  Every run goes through ``harness.run_cli`` and must load
no scipy module, since scipy is a test-only dependency.
"""

import pytest

from harness import run_cli
from output_identity import BOOSTED, OFF_AXIS_RN, SPIN_DOWN, readme_config

EVOLVE_FILES = ("evolution_report.json", "slice_t0.csv", "slice_t0.5.csv", "slice_t1.csv")


def figure1_files(*n):
    return (*(f"rho_n{k}.csv" for k in n), "figure1_summary.json")


FILES = {
    "figure1": figure1_files(5, 7, 10),
    "verify": ("verify_report.json",),
    "evolve": EVOLVE_FILES,
    "rn": ("rn_table.csv",),
    "moments": ("moments.json",),
    "overlap": ("overlaps.json",),
}
README_FILES = dict(FILES, figure1=figure1_files(2, 4, 8))

RUNS = [
    *((f"default-{cmd}", [cmd], "", 0, files) for cmd, files in FILES.items()),
    *((f"readme-{cmd}", [cmd], readme_config(), 0, files) for cmd, files in README_FILES.items()),
    # a boosted profile runs the bisection root-find end to end, and the slab
    # pass (moments, leakage and slices) on a moving state
    *((f"boosted-{cmd}", [cmd], BOOSTED, 0, FILES[cmd]) for cmd in ("rn", "overlap", "evolve")),
    # spin2 = down: each overlap pairs a spin-up with a spin-down state
    ("boosted-overlap-spin2-down", ["overlap"], BOOSTED + "[overlap]\nspin2 = down\n", 0,
     FILES["overlap"]),
    # the default 128, 16 grid's Nyquist misses the boosted n = 10 momenta
    ("boosted-moments-grid-128-12", ["moments", "--grid", "128,12"], BOOSTED, 0,
     FILES["moments"]),
    # p not parallel to the envelope centre: R_n's rule about the centre takes
    # its off-axis azimuth count, not the 2 nodes of an axial integrand
    ("off-axis-rn", ["rn"], OFF_AXIS_RN, 0, FILES["rn"]),
    # spin down puts the zero slot first: the other slot layout on the grid path
    ("spin-down-evolve", ["evolve"], SPIN_DOWN, 0, EVOLVE_FILES),
    ("spin-down-moments-grid-128-12", ["moments", "--grid", "128,12"], SPIN_DOWN, 0,
     FILES["moments"]),
]


@pytest.mark.parametrize("argv, config, code, files", [row[1:] for row in RUNS],
                         ids=[row[0] for row in RUNS])
def test_run(tmp_path, argv, config, code, files):
    flags = []
    if config:
        (tmp_path / "config.ini").write_text(config)
        flags = ["--config", "config.ini"]
    run = run_cli([*argv, *flags, "--out", "out"], cwd=tmp_path)
    assert run.code == code, run.stderr
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(files)
    assert run.scipy == []

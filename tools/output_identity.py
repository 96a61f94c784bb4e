"""Byte-compare the CLI's outputs at another revision with this checkout's.

    python tools/output_identity.py --against <rev> [--allow FILE]

``<rev>`` is extracted with ``git archive`` into a temporary directory.
One fixed list of runs is made on both trees, each run a fresh
``python`` process with that tree's ``src`` first on ``PYTHONPATH``
(``launch``, also the Tier-1 suite's CLI launcher):

* the six commands at their defaults, with spin up and with spin down;
* every ``cli-radial`` and ``cli-grid`` job of perfbench seeds 1-3, from
  ``perfbench/jobs.py``'s ``make_jobs``;
* the six commands on the README's ``ini`` block;
* the boosted (``v_target = 0 0 0.5``) runs of CI: ``rn``, ``overlap``,
  ``evolve`` and ``moments --grid 128,12``;
* an ``rn`` run on a boosted state off every axis (v = 0.3 -0.2 0.4,
  p = 0.5 1 -0.3, Q = alpha2, spin down), whose p is not parallel to
  the envelope centre;
* CI's spin-down ``moments --grid 128,12``;
* an ``evolve --n 1 --grid 64,16`` run on a state moving at 0.99 along
  x, off the z axis of the default spherical rule;
* the five runs that must exit with an error and write nothing
  (``ERROR_RUNS``), whose exit codes ``tests/test_cli.py`` asserts; one
  sets figure1's step-halving tolerance to 0 before the command runs.

A run passes its config as ``config.ini`` and its output directory as
``out``, both relative to its own working directory, so the two trees'
runs see the same argv.  The exit code, stdout (whose last line lists
the ``scipy*`` modules loaded when ``main`` returned), stderr and every
file under ``out`` are compared byte for byte.  One line is printed per run
that differs and per allowed run that does not, then a summary.  The
exit status is 1 if a run differs that the ``--allow`` file does not
name (one run id per line; ``#`` starts a comment), or if a run it
names is byte-identical or does not exist, so no entry outlives the
change that needed it; else 0.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("figure1", "verify", "evolve", "rn", "moments", "overlap")
SEEDS = (1, 2, 3)
WORKLOADS = ("cli-radial", "cli-grid")
LAUNCH = """
import json, sys
from diracloc.cli import main
try:
    code = main(sys.argv[1:])
finally:
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
sys.exit(code)
"""
BOOSTED = "[profile]\nkind = boosted_gaussian\nv_target = 0 0 0.5\n"
OFF_AXIS_RN = (
    "[profile]\nkind = boosted_gaussian\nv_target = 0.3 -0.2 0.4\n"
    "[label]\nspin = down\n[rn]\np = 0.5 1 -0.3\nq = alpha2\n"
)

SPIN_DOWN = "[label]\nspin = down\n"
FAST_OFF_AXIS = "[profile]\nkind = boosted_gaussian\nv_target = 0.99 0 0\n"


@dataclass(frozen=True)
class Run:
    """One CLI process: ``diracloc <cmd> [--config config.ini] <flags> --out out``.

    ``setup`` is Python run in that process before the command, on either tree.
    """

    id: str
    cmd: str
    config: str = ""
    flags: tuple = ()
    setup: str = ""


ERROR_RUNS = (
    Run("error/moments-boosted-n-10", "moments", BOOSTED, ("--n", "10")),
    Run("error/figure1-halving-tol-0", "figure1", flags=("--n", "5,200"),
        setup="import diracloc.transform\ndiracloc.transform.TABLE_TOL = 0.0\n"),
    Run("error/evolve-unknown-key", "evolve", "[evolve]\ntime = 0 2\n"),
    Run("error/overlap-a-nan", "overlap", "[label]\na = nan 0 0\n"),
    Run("error/moments-grid-100-16", "moments", flags=("--grid", "100,16")),
)


@dataclass(frozen=True)
class Result:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict  # path under out -> bytes; empty when no out directory was left


def readme_config() -> str:
    """The README's ``ini`` block."""
    text = (ROOT / "README.md").read_text()
    start = text.index("```ini\n") + len("```ini\n")
    return text[start:text.index("```", start)]


def fixed_runs() -> list:
    """The run list: defaults with either spin, the perfbench jobs, the
    README block, CI's boosted and spin-down runs, the off-axis ``rn``, the
    fast off-axis ``evolve`` and the error exits."""
    runs = []
    for spin, config in (("up", ""), ("down", SPIN_DOWN)):
        runs += [Run(f"default-{spin}/{cmd}", cmd, config) for cmd in COMMANDS]
    sys.path.insert(0, str(ROOT / "perfbench"))
    from jobs import make_jobs

    for workload in WORKLOADS:
        for seed in SEEDS:
            runs += [
                Run(f"{workload}-{seed}/{job.id}", job.cmd, job.config_text(), tuple(job.flags))
                for job in make_jobs(workload, seed)
            ]
    runs += [Run(f"readme/{cmd}", cmd, readme_config()) for cmd in COMMANDS]
    runs += [Run(f"boosted/{cmd}", cmd, BOOSTED) for cmd in ("rn", "overlap", "evolve")]
    runs.append(Run("boosted/moments-grid-128-12", "moments", BOOSTED, ("--grid", "128,12")))
    runs.append(Run("off-axis/rn", "rn", OFF_AXIS_RN))
    runs.append(Run("spin-down/moments-grid-128-12", "moments", SPIN_DOWN, ("--grid", "128,12")))
    runs.append(Run("fast-off-axis/evolve", "evolve", FAST_OFF_AXIS,
                    ("--n", "1", "--grid", "64,16")))
    return runs + list(ERROR_RUNS)


def launch(src: Path, argv, cwd=None, setup="", **env) -> subprocess.CompletedProcess:
    """Run ``diracloc <argv>`` in a fresh ``python -c`` with ``src`` first on
    ``PYTHONPATH``, after the Python ``setup``, with ``env`` added to the
    environment.  The last stdout line is the JSON list of the ``scipy*``
    modules in ``sys.modules`` when ``main`` returned or raised."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", setup + LAUNCH, *argv], cwd=cwd, capture_output=True,
        env=dict(os.environ, **env, PYTHONPATH=path),
    )


def execute(src: Path, run: Run, work: Path) -> Result:
    """Make ``run`` with the package under ``src``, in the empty directory ``work``."""
    argv = [run.cmd]
    if run.config:
        (work / "config.ini").write_text(run.config)
        argv += ["--config", "config.ini"]
    argv += [*run.flags, "--out", "out"]
    done = launch(src, argv, work, run.setup)
    out = work / "out"
    files = {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*")) if path.is_file()
    }
    return Result(done.returncode, done.stdout, done.stderr, files)


def differences(a: Result, b: Result) -> list:
    """What differs between two results of one run, empty if nothing."""
    found = []
    if a.code != b.code:
        found.append(f"exit {a.code} -> {b.code}")
    found += [name for name in ("stdout", "stderr") if getattr(a, name) != getattr(b, name)]
    for path in sorted(a.files.keys() | b.files.keys()):
        if path not in b.files:
            found.append(f"{path} gone")
        elif path not in a.files:
            found.append(f"{path} new")
        elif a.files[path] != b.files[path]:
            found.append(path)
    return found


def compare(src_a: Path, src_b: Path, runs: list, work: Path) -> dict:
    """Run id -> differences, for every run made on both package trees.

    Two runs at a time: the largest job holds about 150 MB.
    """
    def both(item):
        index, run = item
        results = []
        for side, src in (("a", src_a), ("b", src_b)):
            cwd = work / side / str(index)
            cwd.mkdir(parents=True)
            results.append(execute(src, run, cwd))
        return run.id, differences(*results)

    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        return dict(pool.map(both, enumerate(runs)))


def read_allow(path) -> set:
    if path is None:
        return set()
    lines = (line.split("#", 1)[0].strip() for line in Path(path).read_text().splitlines())
    return {line for line in lines if line}


def judge(found: dict, allow: set) -> tuple:
    """(lines, summary, status) for ``compare``'s differences under ``allow``.

    One line per run that differs, tagged ``allowed`` or ``DIFFERS``; one
    per allowed run that is byte-identical, tagged ``STALE``; and one per
    allowed id that names no run, tagged ``UNKNOWN``.  The status is 1 if
    any line is ``DIFFERS``, ``STALE`` or ``UNKNOWN``, else 0.
    """
    differ = {run_id: what for run_id, what in found.items() if what}
    lines = [
        f"{'allowed' if run_id in allow else 'DIFFERS'} {run_id}: {'; '.join(what)}"
        for run_id, what in differ.items()
    ]
    refused = sorted(differ.keys() - allow)
    stale = sorted((allow & found.keys()) - differ.keys())
    unknown = sorted(allow - found.keys())
    lines += [f"STALE {run_id}: allowed, but byte-identical" for run_id in stale]
    lines += [f"UNKNOWN {run_id}: allowed, but no run has this id" for run_id in unknown]
    summary = (
        f"{len(found) - len(differ)} identical, {len(differ) - len(refused)} differ as "
        f"allowed, {len(refused)} differ and are not allowed, {len(stale)} allowed but "
        f"identical, {len(unknown)} allowed but unknown"
    )
    return lines, summary, 1 if refused or stale or unknown else 0


def extract(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--allow", default=None, help="file naming the runs that may differ")
    args = parser.parse_args(argv)
    allow = read_allow(args.allow)
    runs = fixed_runs()
    unknown = allow - {run.id for run in runs}
    if unknown:
        parser.error(f"--allow names runs not in the list: {', '.join(sorted(unknown))}")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="output-identity-") as tmp:
        tree = Path(tmp) / "tree"
        extract(args.against, tree)
        found = compare(tree / "src", ROOT / "src", runs, Path(tmp) / "runs")
    lines, summary, status = judge(found, allow)
    for line in lines:
        print(line)
    elapsed = time.perf_counter() - start
    print(f"{len(runs)} runs against {args.against} in {elapsed:.0f} s: {summary}")
    return status


if __name__ == "__main__":
    sys.exit(main())

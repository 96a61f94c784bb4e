"""Fresh-process benchmark of the diracloc command line.

Run from the repository root:

    python3 perfbench/run.py --workload cli-radial --seed 1 --seconds 30 --trace 0

Each job is one ``diracloc <cmd>`` process started cold, exactly as a
user runs it; jobs run one at a time (a closed loop with one client).
The seed generates the job list (``jobs.py``); every job's output is
checked (``checks.py``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the list once untraced and once under the
outside-in tracer (``tracer.py``) and reports the per-layer metrics
(``layers.py``).  ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A job fails when
it exits nonzero or its output check finds a problem.  ``correct`` is
false when a job could not be judged at all: it crashed (an exit code
the CLI does not document), ran past the time limit, or left no
timeline.  Without ``src/diracloc`` in the current directory the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_job
from jobs import WORKLOADS, Job, make_jobs
from layers import COMMANDS, inclusive_times, layer_metrics, metric_units

HERE = Path(__file__).resolve().parent
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CLI_EXIT_CODES = (0, 1, 2)  # success, verification failure, configuration error
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MIN_SETUP_SAMPLES = 5  # set-up probes top the jobs up to this many samples
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


@dataclass
class Outcome:
    """One finished job process."""

    job: Job
    code: int
    spawn: float
    exit: float
    maxrss_mb: float
    timeline: dict | None
    problems: list = field(default_factory=list)
    broken: str | None = None
    bytes_written: int = 0

    @property
    def wall(self) -> float:
        return self.exit - self.spawn

    @property
    def setup(self) -> float | None:
        if self.timeline is None or "ready" not in self.timeline:
            return None
        return self.timeline["ready"] - self.spawn

    @property
    def failed(self) -> bool:
        return self.broken is not None or self.code != 0 or bool(self.problems)


class Runner:
    """Starts job processes from one checkout and keeps them inside its work dir."""

    def __init__(self, root: Path, workload: str, deadline: float):
        self.root = root
        self.src = root / "src"
        self.work = root / ".perfbench_work" / workload
        self.deadline = deadline
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(self.src) + (os.pathsep + path if path else ""))

    def _argv(self, job: Job, where: Path, options: list) -> list:
        args = [job.cmd, "--out", str(where / "out"), *job.flags]
        if job.config:
            (where / "config.ini").write_text(job.config_text())
            args += ["--config", str(where / "config.ini")]
        return [sys.executable, str(HERE / "child.py"), str(where / "timeline.json"),
                *options, "--", *args]

    def run(self, job: Job, tag: str, options: list) -> Outcome:
        where = self.work / f"{tag}-{job.id}"
        where.mkdir()
        argv = self._argv(job, where, options)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError(f"no time left for job {tag}-{job.id}")
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        with open(where / "log.txt", "w") as log:
            spawn = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no job running behind us
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        try:
            timeline = json.loads((where / "timeline.json").read_text())
        except (OSError, ValueError):
            timeline = None
        outcome = Outcome(job, code, spawn, end, usage.ru_maxrss / 1024.0, timeline)
        if killed.is_set():
            outcome.broken = "killed at the run's time limit"
        elif code not in CLI_EXIT_CODES:
            outcome.broken = f"crashed with exit code {code}"
        elif timeline is None or "ready" not in timeline:
            outcome.broken = "left no timeline"
        else:
            origin = Path(timeline["diracloc_file"]).resolve()
            if self.src.resolve() not in origin.parents:
                raise HarnessError(f"job imported diracloc from {origin}, not from {self.src}")
        if "--setup-only" not in options and outcome.broken is None and code == 0:
            outcome.problems = check_job(job.cmd, where / "out", job.expect)
        out = where / "out"
        if out.is_dir():
            outcome.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return outcome

    def run_pass(self, jobs: list, tag: str, traced: bool) -> tuple:
        options = ["--trace"] if traced else []
        start = time.monotonic()
        outcomes = [self.run(job, tag, options) for job in jobs]
        return outcomes, time.monotonic() - start


def environment(workload: str, seed: int, jobs: list) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    per_cmd = {}
    for job in jobs:
        per_cmd[job.cmd] = per_cmd.get(job.cmd, 0) + 1
    return {
        "workload": workload,
        "seed": seed,
        "jobs": len(jobs),
        "jobs_per_command": per_cmd,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {name: os.environ.get(name, "unset") for name in THREAD_ENV},
    }


def command_seconds(outcomes: list) -> dict:
    return {
        f"cmd.{cmd}_s": sum((o.wall for o in outcomes if o.job.cmd == cmd), 0.0)
        for cmd in COMMANDS
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    runner = Runner(root, workload, start + RUN_LIMIT_S)
    jobs = make_jobs(workload, seed)
    runner.run(jobs[0], "warmup", ["--setup-only"])  # fills the file cache, compiles bytecode
    info = environment(workload, seed, jobs)
    plain, plain_wall = runner.run_pass(jobs, "pass0", traced=False)
    outcomes = list(plain)
    if trace:
        traced, traced_wall = runner.run_pass(jobs, "traced", traced=True)
        outcomes += traced
        spans = [
            {"cmd": o.job.cmd, "spans": o.timeline["spans"],
             "post_setup_s": o.exit - o.timeline["ready"]}
            for o in traced if o.broken is None
        ]
        metrics = layer_metrics(spans)
        (runner.work / "inclusive_s.json").write_text(json.dumps(inclusive_times(spans), indent=1))
        metrics["cli.bytes_written"] = float(sum(o.bytes_written for o in plain))
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        metrics.update(command_seconds(plain))
        metrics["fail_frac"] = sum(o.failed for o in plain) / len(plain)
        units = metric_units()
    else:
        walls = [plain_wall]
        while time.monotonic() - start + walls[-1] <= seconds:  # another pass fits
            more, wall = runner.run_pass(jobs, f"pass{len(walls)}", traced=False)
            outcomes += more
            walls.append(wall)
        setups = [o.setup for o in outcomes if o.setup is not None]
        while len(setups) < MIN_SETUP_SAMPLES:
            probe = runner.run(jobs[0], f"setup{len(setups)}", ["--setup-only"])
            if probe.setup is None:
                raise HarnessError(f"set-up probe failed: {probe.broken}")
            setups.append(probe.setup)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(o.maxrss_mb for o in outcomes),
        }
        units = END_TO_END
        info.update(passes=len(walls), setup_samples=len(setups),
                    fail_frac=sum(o.failed for o in outcomes) / len(outcomes),
                    **{k: round(v, 4) for k, v in command_seconds(plain).items()})
    (runner.work / "jobs.json").write_text(json.dumps([
        {"id": o.job.id, "cmd": o.job.cmd, "wall_s": o.wall, "setup_s": o.setup,
         "maxrss_mb": o.maxrss_mb, "exit": o.code, "failed": o.failed,
         "problems": o.problems, "broken": o.broken}
        for o in outcomes], indent=1))
    for o in outcomes:
        if o.failed:
            why = o.broken or "; ".join(o.problems) or f"exit code {o.code}"
            print(f"FAILED {workload} {o.job.id}: {why} [{o.job.describe()}]")
    print("environment " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    return {
        "correct": all(o.broken is None for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "diracloc" / "cli.py").is_file():
        print(f"perfbench: no diracloc sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            results = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace))
                       for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{name}": m for w, r in results.items()
                            for name, m in r["metrics"].items()},
            }
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

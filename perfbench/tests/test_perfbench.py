"""Tests of the benchmark harness itself (not of diracloc).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check_job  # noqa: E402
from jobs import WORKLOADS, make_jobs, max_grid_n, profile_shift  # noqa: E402
from layers import layer_metrics, metric_units, self_times  # noqa: E402


def _fingerprint(jobs):
    return [(j.id, j.cmd, j.flags, j.config_text(), j.expect) for j in jobs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_job_list(workload):
    assert _fingerprint(make_jobs(workload, 7)) == _fingerprint(make_jobs(workload, 7))


@pytest.mark.parametrize("workload", ["cli-radial", "cli-grid"])
def test_different_seed_gives_different_job_list(workload):
    assert _fingerprint(make_jobs(workload, 7)) != _fingerprint(make_jobs(workload, 8))


def test_job_lists_cover_the_stated_ranges():
    for seed in range(200):
        for job in make_jobs("cli-radial", seed):
            n = job.expect["n"]
            assert n == sorted(set(n))
            if job.cmd == "figure1":
                assert 2 <= min(n) and max(n) <= 64
                assert 0.5 <= job.expect["sigma_p"] <= 2.0
            if job.cmd == "overlap":
                assert 1 <= min(n) and max(n) <= 16
                assert sum(d * d for d in job.expect["delta"]) ** 0.5 <= 3.0 + 1e-5
        grid = make_jobs("cli-grid", seed)
        assert sum("0.0 0.0 0.0" in j.config["profile"]["v_target"] for j in grid) == 2


def test_profile_shift_matches_known_kappa():
    # kappa for |v| = 0.5, sigma_p = 1 from boosted_gaussian_profile's root-find
    assert profile_shift(0.5, 1.0) == pytest.approx(0.7360084600746, rel=1e-9)
    assert max_grid_n("64,16", 0.0) == 5
    assert max_grid_n("128,12", 0.9) >= 6


def _write(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))


def _figure1(out: Path, norms: dict) -> None:
    curves = {}
    for n, norm in norms.items():
        (out / f"rho_n{n}.csv").parent.mkdir(parents=True, exist_ok=True)
        (out / f"rho_n{n}.csv").write_text("r,rho\n")
        curves[str(n)] = {"file": f"rho_n{n}.csv", "norm": norm}
    _write(out / "figure1_summary.json", {"curves": curves})


def test_figure1_check_rejects_a_doctored_norm(tmp_path):
    _figure1(tmp_path / "good", {2: 1.0 + 1e-9, 5: 1.0 - 3e-7})
    _figure1(tmp_path / "bad", {2: 1.0, 5: 1.03})
    _figure1(tmp_path / "inf", {2: float("inf"), 5: 1.0})
    expect = {"n": [2, 5]}
    assert check_job("figure1", tmp_path / "good", expect) == []
    assert len(check_job("figure1", tmp_path / "bad", expect)) == 1
    assert len(check_job("figure1", tmp_path / "inf", expect)) == 1


def _rn(out: Path, errors: dict) -> None:
    out.mkdir(parents=True)
    rows = "".join(f"{n},1.0,0.0,{e!r}\n" for n, e in errors.items())
    (out / "rn_table.csv").write_text("n,re,im,abs_error\n" + rows)


def test_rn_check_rejects_an_error_that_grows_with_n(tmp_path):
    _rn(tmp_path / "good", {2: 0.1, 8: 0.03, 32: 0.007})
    _rn(tmp_path / "bad", {2: 0.1, 8: 0.3, 32: 0.007})
    expect = {"n": [2, 8, 32]}
    assert check_job("rn", tmp_path / "good", expect) == []
    assert len(check_job("rn", tmp_path / "bad", expect)) == 1


def test_overlap_check_uses_the_closed_form(tmp_path):
    value = 2.718281828459045 ** (-((2 * 1.0 * 1.5) ** 2) / 4.0)
    _write(tmp_path / "good" / "overlaps.json", {"overlaps": {"2": {"re": value, "im": 0.0}}})
    _write(tmp_path / "bad" / "overlaps.json", {"overlaps": {"2": {"re": 1.01 * value, "im": 0.0}}})
    expect = {"n": [2], "opposite": False, "sigma_p": 1.0, "delta": [1.5, 0.0, 0.0]}
    assert check_job("overlap", tmp_path / "good", expect) == []
    assert len(check_job("overlap", tmp_path / "bad", expect)) == 1
    _write(tmp_path / "spin" / "overlaps.json", {"overlaps": {"2": {"re": 1e-9, "im": 0.0}}})
    assert len(check_job("overlap", tmp_path / "spin", dict(expect, opposite=True))) == 1


def test_verify_check_rejects_a_value_over_its_bound(tmp_path):
    checks = [{"name": "a", "value": 1e-12, "bound": 1e-10},
              {"name": "b", "value": 2.0, "bound": 1.0}]
    _write(tmp_path / "verify_report.json", {"checks": checks})
    assert len(check_job("verify", tmp_path, {})) == 1


def test_unreadable_output_is_a_problem(tmp_path):
    assert check_job("moments", tmp_path, {"n": [1]})


def test_self_time_subtracts_children():
    spans = [
        [0, "cli", 0.0, 10.0, None, {}],
        [1, "observables.moments", 1.0, 4.0, 0, {}],
        [2, "transform.density_field", 1.5, 2.5, 1, {}],
        [3, "observables.current", 5.0, 6.0, 0, {}],
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    values = layer_metrics([{"cmd": "moments", "spans": spans, "post_setup_s": 10.5}])
    assert values["cli.self_s"] == pytest.approx(6.0)
    assert values["trace.unattributed_s"] == pytest.approx(0.5)
    assert values["observables.moments.calls"] == 1


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(WORKLOADS)
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer_units == metric_units()
    from run import END_TO_END

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END


def test_tracer_wraps_every_binding_and_covers_the_job(tmp_path):
    sidecar = tmp_path / "timeline.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(sidecar), "--trace", "--",
         "moments", "--out", str(tmp_path / "out"), "--n", "1", "--grid", "64,16"],
        check=True, env=env, cwd=tmp_path, timeout=120, capture_output=True,
    )
    timeline = json.loads(sidecar.read_text())
    bindings = timeline["bindings"]
    expected = {"diracloc.observables.moments", "diracloc.dynamics.moments", "diracloc.cli.moments"}
    assert expected <= set(bindings["observables.moments"])
    assert "diracloc.cli.position_state_cartesian" in bindings["transform.position_state_cartesian"]
    spans = timeline["spans"]
    names = [s[1] for s in spans]
    assert names[0] == "cli" and "observables.moments" in names
    assert all(s[4] is not None for s in spans[1:])  # every layer span nests under the command
    covered = sum(self_times(spans))
    assert covered == pytest.approx(spans[0][3] - spans[0][2])
    assert covered <= timeline["done"] - timeline["ready"]


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "cli-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

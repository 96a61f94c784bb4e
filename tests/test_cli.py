"""Command-line interface: outputs, determinism, round-trips, exit codes."""

import argparse
import configparser
import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

import diracloc.cli as cli
import diracloc.transform as transform
import diracloc.verify as verify
from diracloc.cli import main
from diracloc.dynamics import evolve_free
from diracloc.observables import current, momentum_moments
from diracloc.states import gaussian_profile, make_state
from diracloc.transform import (
    CartesianGrid,
    density_field,
    position_state_cartesian,
    radial_curve,
)
from harness import memory_probe, run_cli
from output_identity import readme_config
from radial_oracles import two_panel_delta_x, two_panel_probability


def run(args):
    return main(args)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def figure1_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig")
    assert run(["figure1", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("argv", [["figure1", "--grid", "64,16"], ["verify", "--n", "5"]])
def test_unused_flag_is_usage_error(tmp_path, argv):
    # each subcommand takes only the flags it reads; others are refused, not ignored
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2


def test_help_lists_every_command_with_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["-h"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, func in cli.COMMANDS.items():
        entries = [line.split() for line in lines if line.split()[:1] == [name]]
        assert len(entries) == 1, name
        summary = " ".join(entries[0][1:])
        assert summary and summary == func.__doc__.strip().splitlines()[0]


def test_readme_example_sets_every_declared_key(tmp_path):
    # the README's example config and RunConfig's declarations cannot drift
    block = readme_config()
    parser = configparser.ConfigParser()
    parser.read_string(block)
    assert {(s, k) for s in parser.sections() for k in parser[s]} == set(cli.INI_KEYS)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert cli.load_config(str(path), argparse.Namespace()).n_list == (2, 4, 8)


@pytest.mark.parametrize("line", ["[grid] point = 32", "[evolve] time = 0 2", "[lable] n = 2"])
def test_unknown_key_is_config_error(tmp_path, capsys, line):
    section, entry = line.split(" ", 1)
    cfg = tmp_path / "typo.ini"
    cfg.write_text(f"{section}\n{entry}\n")
    out = tmp_path / "out"
    assert run(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert line.split(" =")[0] in err and str(cfg) in err


@pytest.mark.parametrize("command, given", [
    ("overlap", "[label] a = nan 0 0"),
    ("evolve", "[evolve] times = 0 nan"),
    ("evolve", "[evolve] times ="),
    ("rn", "[profile] v_target = nan 0 0"),
    ("moments", "[grid] extent = inf"),
    ("verify", "[tolerances] state_norms = nan"),
    ("moments", "--grid 64,-inf"),
    ("verify", "--tol state_norms=nan"),
    ("moments", "--grid 100,16"),
    ("moments", "[grid] points = 100"),
    ("rn", "[rn] q = alpha9"),
])
def test_invalid_value_is_config_error_before_output(tmp_path, capsys, command, given):
    # non-finite numbers, an empty times list, a grid CartesianGrid refuses and
    # an unknown Q all stop in load_config, before the output directory exists
    cfg, out = tmp_path / "cfg.ini", tmp_path / "out"
    if given.startswith("--"):
        flags, named = given.split(), given.split()[0]
        cfg.write_text("")
    else:
        section, entry = given.split(" ", 1)
        flags, named = [], given.split(" =")[0]
        cfg.write_text(f"{section}\n{entry}\n")
    assert run([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
    assert not out.exists()
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["figure1", "verify"])
def test_huge_r_count_is_refused_before_allocating(tmp_path, capsys, command):
    # radial_curve refuses any r_count above MAX_FFT_LENGTH // 4; load_config
    # says so before it builds the figure1 table radii (8 GB at 10^9)
    cfg, out = tmp_path / "cfg.ini", tmp_path / "out"
    cfg.write_text("[grid]\nr_count = 1000000000\n")
    with memory_probe() as mem:
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert mem.peak < 1e6
    assert not out.exists()
    assert "r_count must be <= 524288" in capsys.readouterr().err


def test_write_outputs_reads_arrays_back_bit_for_bit(tmp_path):
    # a MomentSet holds ndarrays; JSON writes them as lists of reprs
    record = asdict(momentum_moments(make_state(a=(0.3, -0.1, 0.2), v=(0.2, 0.0, 0.1), n=2)))
    record["signed"] = np.array([-0.0, 1e-300, -2.0 / 3.0])
    cli.write_outputs(tmp_path, {"record.json": record})
    got = json.loads((tmp_path / "record.json").read_text())
    assert got.keys() == record.keys()
    for key, value in record.items():
        assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes()


class TestFigure1:
    @pytest.fixture
    def outputs(self, figure1_outputs):
        return figure1_outputs

    def test_emits_three_curves(self, outputs):
        for n in (5, 7, 10):
            assert (outputs / f"rho_n{n}.csv").exists()
        assert (outputs / "figure1_summary.json").exists()

    def test_norms_within_tolerance(self, outputs):
        summary = read_json(outputs / "figure1_summary.json")
        for entry in summary["curves"].values():
            assert abs(entry["norm"] - 1.0) <= 1e-4

    def test_origin_density_strictly_increasing(self, outputs):
        summary = read_json(outputs / "figure1_summary.json")
        rho0 = [summary["curves"][str(n)]["rho_at_origin"] for n in (5, 7, 10)]
        assert rho0[0] < rho0[1] < rho0[2]

    def test_summary_round_trips_from_csv(self, outputs):
        # the table-derived summary numbers re-derive from the emitted table;
        # the probability inside r < 1 is integrated on its own nodes
        summary = read_json(outputs / "figure1_summary.json")
        for n in (5, 7, 10):
            rows = np.loadtxt(outputs / f"rho_n{n}.csv", delimiter=",", skiprows=1)
            entry = summary["curves"][str(n)]
            assert entry["rho_at_origin"] == rows[0, 1]
            expected = two_panel_probability(gaussian_profile(1.0), n, 1.0)
            assert entry["prob_inside_r1"] == pytest.approx(expected, rel=1e-12)
            assert entry["tail_log_slope"] < 0.0

    def test_curve_csv_parses_back_bit_for_bit(self, outputs):
        # every double goes out by repr, so the table reads back exactly
        rows = np.loadtxt(outputs / "rho_n5.csv", delimiter=",", skiprows=1)
        r = np.linspace(0.0, 6.0, 601)
        assert np.array_equal(rows[:, 0], r)
        curve = radial_curve(gaussian_profile(1.0), 5, 6.0, 601, (1.0,))
        assert np.array_equal(rows[:, 1], curve.rho)

    def test_deterministic_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["figure1", "--out", str(out_a), "--n", "5"]) == 0
        assert run(["figure1", "--out", str(out_b), "--n", "5"]) == 0
        assert (out_a / "rho_n5.csv").read_bytes() == (out_b / "rho_n5.csv").read_bytes()
        assert (out_a / "figure1_summary.json").read_bytes() == (
            out_b / "figure1_summary.json"
        ).read_bytes()

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # a threaded BLAS matrix-vector product or dot product sums in
        # another order per thread count; neither figure1's radial transform
        # nor evolve's light-cone leakage may depend on the split
        for command, files in (("figure1", 4), ("evolve", 4)):
            outputs = []
            for threads in ("1", "2"):
                out = tmp_path / command / threads
                done = run_cli([command, "--out", str(out)], OPENBLAS_NUM_THREADS=threads)
                assert done.code == 0, done.stderr
                outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert len(outputs[0]) == files
            assert outputs[0] == outputs[1], command

    @pytest.mark.parametrize("n, sigma_p", [(46, 1.135), (64, 2.0), (44, 1.9772)])
    def test_norm_resolved_at_large_n_sigma(self, tmp_path, n, sigma_p):
        # the state's width 1/(n sigma_p) is far below the 0.01 table spacing
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[profile]\nsigma_p = {sigma_p}\n")
        assert run(["figure1", "--config", str(cfg), "--out", str(tmp_path), "--n", str(n)]) == 0
        entry = read_json(tmp_path / "figure1_summary.json")["curves"][str(n)]
        assert abs(entry["norm"] - 1.0) <= 1e-10
        # the full-space spread and the probability inside r < 1, not the table's
        profile = gaussian_profile(sigma_p)
        assert entry["delta_x"] == pytest.approx(two_panel_delta_x(profile, n), rel=1e-11)
        assert 0.0 <= entry["prob_inside_r1"] <= 1.0
        expected = two_panel_probability(profile, n, 1.0)
        assert entry["prob_inside_r1"] == pytest.approx(expected, rel=1e-12)

    def test_uncertified_curve_is_refused(self, tmp_path, capsys, monkeypatch):
        # a step-halving tolerance of 0 certifies no table: the command
        # exits 1 and writes no curve and no summary
        monkeypatch.setattr(transform, "TABLE_TOL", 0.0)
        out = tmp_path / "out"
        assert run(["figure1", "--out", str(out), "--n", "5,200"]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "figure1: n = 5, sigma_p = 1: the table moves by" in err
        assert "when the momentum step is halved, beyond 0" in err

    @pytest.mark.parametrize("sigma_p, n_list", [
        (0.5, "1"),  # a broad state: the old tail fit read norm 1.000169
        (0.2, "1"),  # broader still: the old fit read norm 1.338
        (2.0, "100"),  # the old fit read norm inf
        (50.0, "5"),  # the old fit read norm 20.24
        (1.0, "5,200"),
    ])
    def test_resolved_curves_are_certified(self, tmp_path, sigma_p, n_list):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[profile]\nsigma_p = {sigma_p}\n")
        out = tmp_path / "out"
        assert run(["figure1", "--config", str(cfg), "--out", str(out), "--n", n_list]) == 0
        curves = read_json(out / "figure1_summary.json")["curves"]
        assert sorted(curves) == sorted(n_list.split(","))
        for entry in curves.values():
            assert abs(entry["norm"] - 1.0) <= 1e-10

    @pytest.mark.parametrize("sigma_p, n", [(2.0, 64), (1.0, 200)])
    def test_memory_peak_bounded(self, sigma_p, n):
        # every direct sum walks BLOCK_POINTS blocks; the rffts hold a few
        # arrays of the rule's length
        with memory_probe() as mem:
            cli.cmd_figure1(cli.RunConfig(sigma_p=sigma_p, n_list=(n,)))
        assert mem.peak < 16e6

    @pytest.mark.parametrize("r_max, r_count", [(2.9, 291), (6.0, 2)])
    def test_short_slope_window_is_config_error(self, tmp_path, r_max, r_count):
        # tail_log_slope's fit window [3, min(6, r_max)] must hold two table radii
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[grid]\nr_max = {r_max}\nr_count = {r_count}\n")
        argv = ["figure1", "--config", str(cfg), "--out", str(tmp_path), "--n", "20"]
        assert run(argv) == 2
        assert not (tmp_path / "rho_n20.csv").exists()

    def test_empty_n_list_is_config_error(self, tmp_path):
        assert run(["figure1", "--out", str(tmp_path), "--n", ""]) == 2

    def test_asymmetric_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[label]\na = 1 0 0\n")
        assert run(["figure1", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestEvolve:
    def test_single_time_matches_static_moments(self, tmp_path):
        assert (
            run(
                [
                    "evolve",
                    "--out",
                    str(tmp_path),
                    "--n",
                    "5",
                    "--grid",
                    "64,16",
                    "--config",
                    str(self._times_config(tmp_path, "0")),
                ]
            )
            == 0
        )
        report = read_json(tmp_path / "evolution_report.json")
        assert report["times"] == [0.0]
        assert report["lightcone_leakages"] == [0.0]
        assert abs(report["momentum_norms"][0] - 1.0) <= 1e-10

    @staticmethod
    def _times_config(tmp_path, times):
        cfg = tmp_path / "evolve.ini"
        cfg.write_text(f"[evolve]\ntimes = {times}\nr0 = 3.0\n")
        return cfg

    def test_norms_constant_and_causal(self, tmp_path):
        cfg = self._times_config(tmp_path, "0 0.5 1")
        assert run(
            ["evolve", "--out", str(tmp_path), "--n", "5", "--grid", "64,16",
             "--config", str(cfg)]
        ) == 0
        report = read_json(tmp_path / "evolution_report.json")
        norms = report["grid_norms"]
        assert max(norms) - min(norms) <= 1e-10
        assert max(report["causality_margins"]) <= 1e-10
        for t in (0, 0.5, 1):
            assert (tmp_path / f"slice_t{t:g}.csv").exists()

    def test_fast_off_axis_momentum_norm(self, tmp_path):
        # the norm's rule is turned onto the envelope centre, so a state
        # moving at 0.99 along x is as well resolved as one along z
        cfg = tmp_path / "fast.ini"
        cfg.write_text("[profile]\nkind = boosted_gaussian\nv_target = 0.99 0 0\n")
        assert run(["evolve", "--config", str(cfg), "--n", "1", "--grid", "64,16",
                    "--out", str(tmp_path)]) == 0
        norms = read_json(tmp_path / "evolution_report.json")["momentum_norms"]
        assert max(abs(norm - 1.0) for norm in norms) <= 1e-12

    def test_slice_has_expected_columns(self, tmp_path):
        cfg = self._times_config(tmp_path, "0")
        run(["evolve", "--out", str(tmp_path), "--n", "2", "--grid", "64,16",
             "--config", str(cfg)])
        with open(tmp_path / "slice_t0.csv") as handle:
            header = next(csv.reader(handle))
        assert header == ["x1", "rho", "j1", "j2", "j3"]

    def test_slices_match_fresh_fields(self, tmp_path):
        cfg = self._times_config(tmp_path, "0 0.5")
        assert run(["evolve", "--out", str(tmp_path), "--n", "3", "--grid", "64,16",
                    "--config", str(cfg)]) == 0
        grid = CartesianGrid(64, 16.0)
        c = grid.n_points // 2
        for t in (0.0, 0.5):
            ps = position_state_cartesian(evolve_free(make_state(n=3), t), grid)
            rho, j = density_field(ps), current(ps)
            expected = np.column_stack([grid.axis(), rho[:, c, c], j[:, :, c, c].T])
            rows = np.loadtxt(tmp_path / f"slice_t{t:g}.csv", delimiter=",", skiprows=1)
            assert np.abs(rows - expected).max() <= 1e-14 * rho.max()

    def test_nyquist_violation_is_config_error(self, tmp_path):
        cfg = self._times_config(tmp_path, "0")
        assert run(
            ["evolve", "--out", str(tmp_path), "--n", "10", "--grid", "64,16",
             "--config", str(cfg)]
        ) == 2

    def test_names_the_n_it_ran_and_skipped(self, tmp_path, capsys):
        # evolve runs the first n of the list; the rest are named, not dropped silently
        cfg = self._times_config(tmp_path, "0")
        argv = ["evolve", "--out", str(tmp_path), "--grid", "64,16", "--config", str(cfg)]
        assert run(argv + ["--n", "2,4,8"]) == 0
        assert "evolve: ran n = 2 only, skipped n = 4, 8" in capsys.readouterr().err
        assert run(argv + ["--n", "2"]) == 0
        assert "skipped" not in capsys.readouterr().err

    def test_negative_r0_is_config_error(self, tmp_path):
        cfg = tmp_path / "evolve.ini"
        cfg.write_text("[evolve]\nr0 = -1\n")
        assert run(["evolve", "--out", str(tmp_path), "--config", str(cfg)]) == 2
        assert not (tmp_path / "evolution_report.json").exists()

    def test_time_before_first_is_config_error(self, tmp_path):
        # the first time is the light-cone baseline
        cfg = self._times_config(tmp_path, "1 0.5")
        assert run(["evolve", "--out", str(tmp_path), "--config", str(cfg)]) == 2


class TestRnCommand:
    def test_monotone_error_column(self, tmp_path):
        assert run(["rn", "--out", str(tmp_path), "--n", "2,4,8"]) == 0
        rows = np.loadtxt(tmp_path / "rn_table.csv", delimiter=",", skiprows=1)
        errors = rows[:, 3]
        assert errors[0] > errors[1] > errors[2]


class TestMomentsCommand:
    def test_defaults_resolve_every_n(self, tmp_path):
        # n = 5, 7, 10 on 128^3 at L = 16: Nyquist 25.1 covers n = 10
        assert run(["moments", "--out", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "moments.json")
        assert payload["grid"] == {"points": 128, "extent": 16.0}
        assert sorted(payload["moments"], key=int) == ["5", "7", "10"]

    def test_grid_error_names_a_working_grid(self, tmp_path, capsys):
        # the boosted n = 10 support (31.2) is beyond the default Nyquist (25.1);
        # the refusal comes after the command starts, and nothing is written
        cfg, out = tmp_path / "boosted.ini", tmp_path / "out"
        cfg.write_text("[profile]\nkind = boosted_gaussian\nv_target = 0 0 0.5\n")
        argv = ["moments", "--config", str(cfg), "--out", str(out), "--n", "10"]
        assert run(argv) == 2
        assert not out.exists()
        message = capsys.readouterr().err
        assert "use N >= 256 at L = 16, or L <= 12.89 at N = 128" in message
        extent = message.rsplit("L <= ", 1)[1].split()[0]
        assert run(argv + ["--grid", f"128,{extent}"]) == 0

    def test_delta_x_decreasing(self, tmp_path):
        assert run(
            ["moments", "--out", str(tmp_path), "--n", "2,4", "--grid", "64,16"]
        ) == 0
        payload = read_json(tmp_path / "moments.json")
        assert payload["moments"]["4"]["delta_x"] < payload["moments"]["2"]["delta_x"]


class TestOverlapCommand:
    def test_profile_built_once(self, tmp_path, monkeypatch):
        built = []
        real = cli.boosted_gaussian_profile

        def counted(v_target, sigma_p):
            built.append(v_target)
            return real(v_target, sigma_p)

        monkeypatch.setattr(cli, "boosted_gaussian_profile", counted)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[profile]\nkind = boosted_gaussian\nv_target = 0 0 0.4\n")
        assert run(
            ["overlap", "--out", str(tmp_path), "--n", "2,4", "--config", str(cfg)]
        ) == 0
        assert len(built) == 1

    def test_same_point_gives_ones(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[overlap]\na2 = 0 0 0\n")
        assert run(
            ["overlap", "--out", str(tmp_path), "--n", "2,4", "--config", str(cfg)]
        ) == 0
        payload = read_json(tmp_path / "overlaps.json")
        for entry in payload["overlaps"].values():
            assert entry["abs"] == pytest.approx(1.0, abs=1e-10)

    def test_separated_points_decay(self, tmp_path):
        assert run(["overlap", "--out", str(tmp_path), "--n", "2,4,8,16"]) == 0
        payload = read_json(tmp_path / "overlaps.json")
        values = [payload["overlaps"][str(n)]["abs"] for n in (2, 4, 8, 16)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.05


class TestVerifyCommand:
    def test_tolerance_injection_fails_cleanly(self, tmp_path, monkeypatch):
        # zeroing two tolerances must produce an itemized failure and exit 1;
        # the battery is cut to its two cheap spinor entries
        monkeypatch.setattr(verify, "BATTERY", verify.BATTERY[1:3])
        code = run(
            [
                "verify",
                "--out",
                str(tmp_path),
                "--tol",
                "projector_idempotence=0",
                "--tol",
                "eigenspinor_residual=0",
            ]
        )
        assert code == 1
        report = read_json(tmp_path / "verify_report.json")
        failed = [c for c in report["checks"] if not c["passed"]]
        assert {c["name"] for c in failed} == {
            "projector_idempotence",
            "eigenspinor_residual",
        }
        for c in report["checks"]:
            assert set(c) == {"name", "value", "bound", "passed"}

    def test_unknown_tolerance_is_config_error(self, tmp_path):
        assert run(["verify", "--out", str(tmp_path), "--tol", "bogus=1"]) == 2

    def test_bad_config_file_is_config_error(self, tmp_path):
        cfg = tmp_path / "broken.ini"
        cfg.write_text("[label]\nv_target = nonsense\n[profile]\nv_target = x y z\n")
        assert run(["figure1", "--config", str(cfg), "--out", str(tmp_path)]) == 2

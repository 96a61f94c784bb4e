"""Command-line interface: outputs, determinism, round-trips, exit codes."""

import csv
import json

import numpy as np
import pytest
from scipy.integrate import simpson

import diracloc.cli as cli
import diracloc.verify as verify
from diracloc.cli import main
from diracloc.dynamics import evolve_free
from diracloc.observables import current
from diracloc.states import gaussian_profile, make_state
from diracloc.transform import CartesianGrid, density_field, position_state_cartesian
from radial_oracles import two_panel_delta_x


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
        # the table-derived summary numbers re-derive from the emitted table
        summary = read_json(outputs / "figure1_summary.json")
        for n in (5, 7, 10):
            rows = np.loadtxt(outputs / f"rho_n{n}.csv", delimiter=",", skiprows=1)
            r, rho = rows[:, 0], rows[:, 1]
            entry = summary["curves"][str(n)]
            assert entry["rho_at_origin"] == rho[0]
            inside = simpson(4 * np.pi * r[r <= 1.0] ** 2 * rho[r <= 1.0], x=r[r <= 1.0])
            assert entry["prob_inside_r1"] == pytest.approx(inside, rel=1e-12)
            assert entry["tail_log_slope"] < 0.0

    def test_deterministic_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["figure1", "--out", str(out_a), "--n", "5"]) == 0
        assert run(["figure1", "--out", str(out_b), "--n", "5"]) == 0
        assert (out_a / "rho_n5.csv").read_bytes() == (out_b / "rho_n5.csv").read_bytes()
        assert (out_a / "figure1_summary.json").read_bytes() == (
            out_b / "figure1_summary.json"
        ).read_bytes()

    @pytest.mark.parametrize("n, sigma_p", [(46, 1.135), (64, 2.0)])
    def test_norm_resolved_at_large_n_sigma(self, tmp_path, n, sigma_p):
        # the state's width 1/(n sigma_p) is far below the 0.01 table spacing
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[profile]\nsigma_p = {sigma_p}\n")
        assert run(["figure1", "--config", str(cfg), "--out", str(tmp_path), "--n", str(n)]) == 0
        entry = read_json(tmp_path / "figure1_summary.json")["curves"][str(n)]
        assert abs(entry["norm"] - 1.0) <= 1e-10
        # the full-space spread, not the table's
        expected = two_panel_delta_x(gaussian_profile(sigma_p), n)
        assert entry["delta_x"] == pytest.approx(expected, rel=1e-11)

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

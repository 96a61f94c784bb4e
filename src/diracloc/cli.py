"""Command-line driver: build states, run verifications, emit plot data.

Subcommands
-----------
figure1   radial density curves rho_n(r) for the symmetric Gaussian
          family (CSV per n + summary JSON)
verify    run the cross-module check battery (JSON report, exit 1 on
          any failure)
evolve    free evolution diagnostics over configured times (JSON report
          + per-time axis-slice CSVs)
rn        tabulate the convolution R_n(p) over the configured n list
moments   grid moments per n (JSON)
overlap   overlaps against a second label per n (JSON)

Configuration is a single INI-style file with nested sections (see
README) plus flag overrides.  Every subcommand takes ``--config`` and
``--out``; ``verify`` adds ``--tol NAME=VAL``, the others ``--n LIST``,
and ``evolve`` and ``moments`` also ``--grid N,L``.  A flag a subcommand
does not use is a usage error.  Curves go to CSV, scalar reports to JSON;
runs are deterministic, so identical configs give identical bytes.
Exit codes: 0 success, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .dynamics import evolve_report
from .observables import convolution_Rn, moments, overlap
from .quadrature import QuadratureError
from .spinor import SPIN_DOWN, SPIN_UP
from .states import (
    LocalizationLabel,
    MomentumState,
    ProfileError,
    boosted_gaussian_profile,
    gaussian_profile,
)
from .transform import (
    CartesianGrid,
    GridError,
    RadialGrid,
    position_state_cartesian,
    radial_delta_x,
    radial_density,
    radial_probability,
)
from .verify import DEFAULT_TOLERANCES, run_checks


class ConfigError(ValueError):
    """Malformed configuration or flag values."""


@dataclass
class RunConfig:
    profile_kind: str = "gaussian"
    sigma_p: float = 1.0
    v_target: tuple = (0.0, 0.0, 0.0)
    a: tuple = (0.0, 0.0, 0.0)
    spin: float = SPIN_UP
    n_list: tuple = (5, 7, 10)
    grid_points: int = 64
    grid_extent: float = 16.0
    r_max: float = 6.0
    r_count: int = 601
    times: tuple = (0.0, 0.5, 1.0)
    r0: float = 3.0
    rn_p: tuple = (1.0, 0.0, 0.0)
    rn_q: str = "identity"
    overlap_a2: tuple = (2.0, 0.0, 0.0)
    overlap_spin2: float | None = None
    out_dir: str = "out"
    tolerances: dict = field(default_factory=dict)


def _parse_vector(text: str, name: str) -> tuple:
    try:
        parts = tuple(float(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse vector from {text!r}") from exc
    if len(parts) != 3:
        raise ConfigError(f"{name}: expected 3 components, got {len(parts)}")
    return parts


def _parse_spin(text: str) -> float:
    aliases = {"+0.5": SPIN_UP, "0.5": SPIN_UP, "up": SPIN_UP, "+": SPIN_UP,
               "-0.5": SPIN_DOWN, "down": SPIN_DOWN, "-": SPIN_DOWN}
    key = text.strip().lower()
    if key not in aliases:
        raise ConfigError(f"spin must be one of {sorted(aliases)}, got {text!r}")
    return aliases[key]


def load_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        try:
            _apply_file(cfg, parser)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad config {path}: {exc}") from exc
    _apply_flags(cfg, args)
    _validate(cfg)
    return cfg


def _apply_file(cfg: RunConfig, parser: configparser.ConfigParser) -> None:
    if parser.has_section("profile"):
        sec = parser["profile"]
        cfg.profile_kind = sec.get("kind", cfg.profile_kind).strip().lower()
        cfg.sigma_p = sec.getfloat("sigma_p", cfg.sigma_p)
        if "v_target" in sec:
            cfg.v_target = _parse_vector(sec["v_target"], "profile.v_target")
    if parser.has_section("label"):
        sec = parser["label"]
        if "a" in sec:
            cfg.a = _parse_vector(sec["a"], "label.a")
        if "spin" in sec:
            cfg.spin = _parse_spin(sec["spin"])
        if "n" in sec:
            cfg.n_list = tuple(int(t) for t in sec["n"].replace(",", " ").split())
    if parser.has_section("grid"):
        sec = parser["grid"]
        cfg.grid_points = sec.getint("points", cfg.grid_points)
        cfg.grid_extent = sec.getfloat("extent", cfg.grid_extent)
        cfg.r_max = sec.getfloat("r_max", cfg.r_max)
        cfg.r_count = sec.getint("r_count", cfg.r_count)
    if parser.has_section("evolve"):
        sec = parser["evolve"]
        if "times" in sec:
            cfg.times = tuple(float(t) for t in sec["times"].replace(",", " ").split())
        cfg.r0 = sec.getfloat("r0", cfg.r0)
    if parser.has_section("rn"):
        sec = parser["rn"]
        if "p" in sec:
            cfg.rn_p = _parse_vector(sec["p"], "rn.p")
        cfg.rn_q = sec.get("q", cfg.rn_q).strip().lower()
    if parser.has_section("overlap"):
        sec = parser["overlap"]
        if "a2" in sec:
            cfg.overlap_a2 = _parse_vector(sec["a2"], "overlap.a2")
        if "spin2" in sec:
            cfg.overlap_spin2 = _parse_spin(sec["spin2"])
    if parser.has_section("output"):
        cfg.out_dir = parser["output"].get("dir", cfg.out_dir)
    if parser.has_section("tolerances"):
        for key, value in parser["tolerances"].items():
            cfg.tolerances[key] = float(value)


def _apply_flags(cfg: RunConfig, args: argparse.Namespace) -> None:
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "n", None) is not None:
        try:
            cfg.n_list = tuple(int(t) for t in args.n.replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"--n: {exc}") from exc
    if getattr(args, "grid", None):
        try:
            pts, ext = args.grid.split(",")
            cfg.grid_points, cfg.grid_extent = int(pts), float(ext)
        except ValueError as exc:
            raise ConfigError(f"--grid expects N,L: {exc}") from exc
    for item in getattr(args, "tol", None) or []:
        if "=" not in item:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        try:
            cfg.tolerances[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--tol {item!r}: {exc}") from exc


def _validate(cfg: RunConfig) -> None:
    if not cfg.n_list:
        raise ConfigError("n list must be nonempty")
    if any(n < 1 for n in cfg.n_list):
        raise ConfigError("all sequence indices must be >= 1")
    if cfg.profile_kind not in ("gaussian", "boosted_gaussian", "boosted"):
        raise ConfigError(f"unknown profile kind {cfg.profile_kind!r}")
    if cfg.sigma_p <= 0:
        raise ConfigError("sigma_p must be positive")
    if cfg.r_count < 2 or cfg.r_max <= 0:
        raise ConfigError("radial grid needs r_max > 0 and r_count >= 2")
    if any(t < 0 for t in cfg.times):
        raise ConfigError("evolution times must be nonnegative")
    if cfg.times and min(cfg.times) < cfg.times[0]:
        raise ConfigError("no evolution time may precede the first, the light-cone baseline")
    for name, value in cfg.tolerances.items():
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r}")
        if value < 0:
            raise ConfigError(f"tolerance {name} must be >= 0")


def _profile(cfg: RunConfig):
    if cfg.profile_kind == "gaussian" and not any(cfg.v_target):
        return gaussian_profile(cfg.sigma_p)
    try:
        return boosted_gaussian_profile(cfg.v_target, cfg.sigma_p)
    except ProfileError as exc:
        raise ConfigError(str(exc)) from exc


def _state(cfg: RunConfig, profile, n: int, a=None, spin=None) -> MomentumState:
    label = LocalizationLabel(
        a=cfg.a if a is None else a,
        v=cfg.v_target,
        spin=cfg.spin if spin is None else spin,
        n=n,
    )
    return MomentumState(label=label, profile=profile)


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_figure1(cfg: RunConfig) -> int:
    """Emit rho_n(r) CSV curves plus a summary JSON.

    ``rho_at_origin``, ``prob_inside_r1`` and ``tail_log_slope`` come from
    the emitted table; ``norm`` and ``delta_x`` are integrated on their own
    nodes, since the table stops resolving the state once n sigma_p is large.
    """
    if any(cfg.a) or any(cfg.v_target) or cfg.profile_kind != "gaussian":
        raise ConfigError("figure1 requires the symmetric case: a = 0, v = 0, gaussian profile")
    out = _outdir(cfg)
    profile = gaussian_profile(cfg.sigma_p)
    grid = RadialGrid.uniform(cfg.r_max, cfg.r_count)
    summary = {"sigma_p": cfg.sigma_p, "r_max": cfg.r_max, "r_count": cfg.r_count, "curves": {}}
    for n in cfg.n_list:
        table = radial_density(profile, n, grid)
        name = f"rho_n{n}.csv"
        table.to_csv(out / name)
        summary["curves"][str(n)] = {
            "file": name,
            "norm": _radial_norm(profile, n, cfg.r_max, table),
            "rho_at_origin": table.value_at_origin(),
            "prob_inside_r1": table.probability_within(1.0),
            "delta_x": radial_delta_x(profile, n),
            "tail_log_slope": table.fitted_log_slope(3.0, min(6.0, cfg.r_max)),
        }
    _write_json(out / "figure1_summary.json", summary)
    print(f"figure1: wrote {len(cfg.n_list)} curves and summary to {out}")
    return 0


def _radial_norm(profile, n: int, r_max: float, table) -> float:
    """Probability on [0, r_max] by Gauss-Legendre, plus the table's tail bound.

    The state has width ~1/(n sigma_p), which the uniform output table
    stops resolving once n sigma_p is large, so the norm is integrated on
    its own nodes: a 64-node panel over the core and 128 nodes beyond it.
    """
    core = min(r_max, 10.0 / (n * profile.sigma_p))
    inside = radial_probability(profile, n, 0.0, core, n_nodes=64)
    if core < r_max:
        inside += radial_probability(profile, n, core, r_max, n_nodes=128)
    return inside + table.tail_estimate()


def cmd_verify(cfg: RunConfig) -> int:
    """Run the check battery; exit 1 on any failure."""
    checks = run_checks(cfg.tolerances)
    out = _outdir(cfg)
    payload = {
        "checks": [asdict(c) for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    _write_json(out / "verify_report.json", payload)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name:32s} value={c.value:.6e} bound={c.bound:.6e}")
    if not payload["all_passed"]:
        failed = [c.name for c in checks if not c.passed]
        print(f"verify: {len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"verify: all {len(checks)} checks passed; report in {out}")
    return 0


def cmd_evolve(cfg: RunConfig) -> int:
    """Free-evolution report plus per-time axis slices."""
    out = _outdir(cfg)
    state = _state(cfg, _profile(cfg), cfg.n_list[0])
    grid = CartesianGrid(cfg.grid_points, cfg.grid_extent)
    report, fields = evolve_report(state, grid, cfg.times, r0=cfg.r0)
    _write_json(out / "evolution_report.json", report.as_dict())
    axis = grid.axis()
    centre = grid.n_points // 2
    for t, snapshot in zip(report.times, fields):
        rho, j = snapshot.rho, snapshot.j
        name = f"slice_t{t:g}.csv"
        with open(out / name, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x1", "rho", "j1", "j2", "j3"])
            for i, x in enumerate(axis):
                writer.writerow(
                    [repr(float(x)), repr(float(rho[i, centre, centre]))]
                    + [repr(float(j[k, i, centre, centre])) for k in range(3)]
                )
    print(f"evolve: wrote report and {len(report.times)} slices to {out}")
    return 0


def cmd_rn(cfg: RunConfig) -> int:
    """Tabulate the convolution R_n(p) over the n list."""
    out = _outdir(cfg)
    profile = _profile(cfg)
    if cfg.rn_q == "identity":
        target = 1.0
    elif cfg.rn_q in ("alpha1", "alpha2", "alpha3"):
        target = cfg.v_target[int(cfg.rn_q[-1]) - 1]
    else:
        raise ConfigError(f"rn.q must be identity or alpha1..3, got {cfg.rn_q!r}")
    path = out / "rn_table.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "re", "im", "abs_error"])
        for n in cfg.n_list:
            try:
                value = convolution_Rn(profile, n, cfg.rn_p, cfg.rn_q, spin=cfg.spin)
            except QuadratureError as exc:
                print(f"rn: {exc}", file=sys.stderr)
                return 1
            writer.writerow(
                [n, repr(value.real), repr(value.imag), repr(abs(value - target))]
            )
    print(f"rn: wrote {path}")
    return 0


def cmd_moments(cfg: RunConfig) -> int:
    """Grid moments per n as JSON."""
    out = _outdir(cfg)
    grid = CartesianGrid(cfg.grid_points, cfg.grid_extent)
    payload = {"grid": {"points": cfg.grid_points, "extent": cfg.grid_extent}, "moments": {}}
    profile = _profile(cfg)
    for n in cfg.n_list:
        ps = position_state_cartesian(_state(cfg, profile, n), grid)
        payload["moments"][str(n)] = moments(ps).as_dict()
    _write_json(out / "moments.json", payload)
    print(f"moments: wrote {out / 'moments.json'}")
    return 0


def cmd_overlap(cfg: RunConfig) -> int:
    """Overlaps against a second label per n as JSON."""
    out = _outdir(cfg)
    spin2 = cfg.spin if cfg.overlap_spin2 is None else cfg.overlap_spin2
    payload = {"a": list(cfg.a), "a2": list(cfg.overlap_a2), "overlaps": {}}
    profile = _profile(cfg)
    for n in cfg.n_list:
        s1 = _state(cfg, profile, n)
        s2 = _state(cfg, profile, n, a=cfg.overlap_a2, spin=spin2)
        value = overlap(s1, s2)
        payload["overlaps"][str(n)] = {
            "re": value.real,
            "im": value.imag,
            "abs": abs(value),
        }
    _write_json(out / "overlaps.json", payload)
    print(f"overlap: wrote {out / 'overlaps.json'}")
    return 0


COMMANDS = {
    "figure1": cmd_figure1,
    "verify": cmd_verify,
    "evolve": cmd_evolve,
    "rn": cmd_rn,
    "moments": cmd_moments,
    "overlap": cmd_overlap,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracloc",
        description="Localized positive-energy Dirac states: curves, checks and reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__.strip().splitlines()[0])
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        if name == "verify":
            p.add_argument(
                "--tol",
                action="append",
                default=None,
                metavar="NAME=VAL",
                help="override a verification tolerance (repeatable)",
            )
        else:
            p.add_argument("--n", default=None, help="override the n list, e.g. 5,7,10")
        if name in ("evolve", "moments"):
            p.add_argument("--grid", default=None, help="override the grid as N,L")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        return COMMANDS[args.command](cfg)
    except (ConfigError, GridError, ProfileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

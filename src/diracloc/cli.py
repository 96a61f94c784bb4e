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

Configuration is a single INI file (see README) plus flag overrides;
``RunConfig`` declares each key's ``[section] key`` and parser once.  An
unknown section or key, or a number that is not finite, is a
configuration error.  Every subcommand takes ``--config`` and
``--out``; all but ``verify`` add ``--n LIST``, and ``evolve`` and
``moments`` also ``--grid N,L``.  A flag a subcommand does not use is a
usage error.  ``verify``'s bounds (``verify.TOLERANCES``), figure1's
table and slope window (``FIGURE1_*``) and evolve's light-cone radius
(``EVOLVE_R0``) are constants, not options.  Curves go to CSV, scalar
reports to JSON; runs are deterministic, so identical configs give
identical bytes.
Exit codes: 0 success, 1 verification failure (a failed check, or a
value refused with ``QuadratureError``), 2 configuration error, or a
grid refused with ``GridError``: ``moments`` and ``evolve`` refuse a
snapshot whose discrete norm is off 1 by more than ``MASS_TOL``.

Each ``cmd_*`` computes its results and returns ``(exit code, files)``,
``files`` mapping a file name to a JSON payload (a dict) or a CSV table
(a list of rows, header first).  ``main`` alone creates the output
directory and writes the files (``write_outputs``), after the command
has returned: a command stopped by an error leaves no directory and no
file, while ``verify`` returns exit code 1 together with its report.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .dynamics import evolve_report
from .observables import Q_AXES, convolution_Rn, moments, overlap
from .quadrature import QuadratureError
from .spinor import SPIN_DOWN, SPIN_UP
from .states import ProfileError, boosted_gaussian_profile, gaussian_profile, make_state
from .transform import (
    MASS_TOL,
    CartesianGrid,
    GridError,
    log_slope,
    position_state_cartesian,
    radial_curve,
)
from .verify import TOLERANCES, run_checks


class ConfigError(ValueError):
    """Malformed configuration or flag values."""


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _int_list(text: str) -> tuple:
    return tuple(int(t) for t in text.replace(",", " ").split())


def _float_list(text: str) -> tuple:
    return tuple(_number(t) for t in text.replace(",", " ").split())


def _parse_vector(text: str) -> tuple:
    parts = _float_list(text)
    if len(parts) != 3:
        raise ValueError(f"expected 3 components, got {len(parts)}")
    return parts


def _choice(values: dict):
    """A parser of one of the names in ``values``, mapped to its value."""

    def parse(text: str):
        name = text.strip().lower()
        if name not in values:
            raise ValueError(f"must be one of {', '.join(values)}, got {text!r}")
        return values[name]

    return parse


_parse_spin = _choice({"+0.5": SPIN_UP, "0.5": SPIN_UP, "up": SPIN_UP, "+": SPIN_UP,
                       "-0.5": SPIN_DOWN, "down": SPIN_DOWN, "-": SPIN_DOWN})
PROFILE_KINDS = ("gaussian", "boosted_gaussian")
FIGURE1_R_MAX = 6.0
FIGURE1_R_COUNT = 601
FIGURE1_SLOPE_WINDOW = (3.0, 6.0)  # the radii tail_log_slope is fitted on
EVOLVE_R0 = 3.0  # the light-cone radius at the first time


def _ini(section: str, key: str, parse, default):
    """A ``RunConfig`` field that ``[section] key`` sets, read by ``parse``."""
    return field(default=default, metadata={"ini": (section, key), "parse": parse})


@dataclass
class RunConfig:
    profile_kind: str = _ini("profile", "kind", _choice({k: k for k in PROFILE_KINDS}), "gaussian")
    sigma_p: float = _ini("profile", "sigma_p", _number, 1.0)
    v_target: tuple = _ini("profile", "v_target", _parse_vector, (0.0, 0.0, 0.0))
    a: tuple = _ini("label", "a", _parse_vector, (0.0, 0.0, 0.0))
    spin: float = _ini("label", "spin", _parse_spin, SPIN_UP)
    n_list: tuple = _ini("label", "n", _int_list, (5, 7, 10))
    grid_points: int = _ini("grid", "points", int, 128)
    grid_extent: float = _ini("grid", "extent", _number, 16.0)
    times: tuple = _ini("evolve", "times", _float_list, (0.0, 0.5, 1.0))
    rn_p: tuple = _ini("rn", "p", _parse_vector, (1.0, 0.0, 0.0))
    rn_q: str = _ini("rn", "q", _choice({q: q for q in Q_AXES}), "identity")
    overlap_a2: tuple = _ini("overlap", "a2", _parse_vector, (2.0, 0.0, 0.0))
    overlap_spin2: float | None = _ini("overlap", "spin2", _parse_spin, None)
    out_dir: str = _ini("output", "dir", str, "out")


INI_KEYS = {f.metadata["ini"]: f for f in fields(RunConfig)}


def load_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path):
                raise ConfigError(f"config file not found: {path}")
            for section in (parser.default_section, *parser.sections()):
                for key, text in parser[section].items():
                    _apply_entry(cfg, section, key, text, path)
        except configparser.Error as exc:
            raise ConfigError(f"bad config {path}: {exc}") from exc
    _apply_flags(cfg, args)
    _validate(cfg)
    return cfg


def _apply_entry(cfg: RunConfig, section: str, key: str, text: str, path: str) -> None:
    """Set what ``[section] key`` declares; an undeclared pair is an error."""
    try:
        if (section, key) not in INI_KEYS:
            raise ValueError("no such config key (the README lists every key)")
        entry = INI_KEYS[section, key]
        setattr(cfg, entry.name, entry.metadata["parse"](text))
    except ValueError as exc:
        raise ConfigError(f"bad config {path}: [{section}] {key}: {exc}") from exc


def _apply_flags(cfg: RunConfig, args: argparse.Namespace) -> None:
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    try:
        if getattr(args, "n", None) is not None:
            flag, text = "--n", args.n
            cfg.n_list = _int_list(text)
        if getattr(args, "grid", None):
            flag, text = "--grid N,L", args.grid
            points, extent = text.split(",")
            cfg.grid_points, cfg.grid_extent = int(points), _number(extent)
    except ValueError as exc:
        raise ConfigError(f"{flag}: bad value {text!r}: {exc}") from exc


def _validate(cfg: RunConfig) -> None:
    if not cfg.n_list:
        raise ConfigError("n list must be nonempty")
    if any(n < 1 for n in cfg.n_list):
        raise ConfigError("all sequence indices must be >= 1")
    try:
        gaussian_profile(cfg.sigma_p)
    except ProfileError as exc:
        raise ConfigError(f"[profile] sigma_p: {exc}") from exc
    try:
        CartesianGrid(cfg.grid_points, cfg.grid_extent)
    except ValueError as exc:
        raise ConfigError(f"[grid] points and extent, or --grid N,L: {exc}") from exc
    if not cfg.times:
        raise ConfigError("[evolve] times must list at least one time")
    if any(t < 0 for t in cfg.times):
        raise ConfigError("evolution times must be nonnegative")
    if min(cfg.times) < cfg.times[0]:
        raise ConfigError("no evolution time may precede the first, the light-cone baseline")


def _check_grid_norm(norm: float, grid: CartesianGrid, n: int) -> None:
    """Refuse a snapshot whose discrete norm sum(rho) dV is not finite or is
    off 1 by more than ``MASS_TOL``: the grid does not resolve the state."""
    if not abs(norm - 1.0) <= MASS_TOL:  # NaN fails too
        raise GridError(f"n = {n}: the discrete norm {norm:.6g} on the grid N = {grid.n_points}, "
                        f"L = {grid.extent:g} is off 1 by more than {MASS_TOL:g}")


def cmd_figure1(cfg: RunConfig) -> tuple[int, dict]:
    """Emit rho_n(r) CSV curves plus a summary JSON.

    Each curve comes from ``radial_curve``: the table, the norm,
    ``delta_x`` and ``prob_inside_r1`` from one trapezoid momentum rule
    and its rffts, certified by halving the rule's step, so they resolve
    the state whatever its width.  The table holds ``FIGURE1_R_COUNT``
    radii on [0, ``FIGURE1_R_MAX``].  The norm and the full-space spread
    ``delta_x`` are sums over the radius grid, out to 20/m beyond them
    and over 60 widths 1/(n sigma_p).  ``rho_at_origin`` and
    ``tail_log_slope`` come from the emitted table.
    A curve the step halving cannot certify (``QuadratureError``), or
    whose norm is not within the ``state_norms`` bound of 1, is refused,
    so no curve and no summary is written.
    """
    if any(cfg.a) or any(cfg.v_target) or cfg.profile_kind != "gaussian":
        raise ConfigError("figure1 requires the symmetric case: a = 0, v = 0, gaussian profile")
    profile = gaussian_profile(cfg.sigma_p)
    r = np.linspace(0.0, FIGURE1_R_MAX, FIGURE1_R_COUNT)
    bound = TOLERANCES["state_norms"]
    summary = {"sigma_p": cfg.sigma_p, "r_max": FIGURE1_R_MAX, "r_count": FIGURE1_R_COUNT,
               "curves": {}}
    files = {}
    for n in cfg.n_list:
        curve = radial_curve(profile, n, FIGURE1_R_MAX, FIGURE1_R_COUNT, (1.0,))
        if not abs(curve.norm - 1.0) <= bound:
            raise QuadratureError(
                f"n = {n}, sigma_p = {cfg.sigma_p:g}: norm {curve.norm!r} is not within "
                f"{bound:g} of 1"
            )
        rho = curve.rho
        name = f"rho_n{n}.csv"
        files[name] = [["r", "rho"], *zip(r.tolist(), rho.tolist())]
        summary["curves"][str(n)] = {
            "file": name,
            "norm": curve.norm,
            "rho_at_origin": float(rho[0]),
            "prob_inside_r1": curve.probabilities[0],
            "delta_x": curve.delta_x,
            "tail_log_slope": log_slope(r, rho, *FIGURE1_SLOPE_WINDOW),
        }
    files["figure1_summary.json"] = summary
    return 0, files


def cmd_verify(cfg: RunConfig) -> tuple[int, dict]:
    """Run the check battery; exit 1 on any failure."""
    checks = run_checks()
    passed = all(c.passed for c in checks)
    files = {"verify_report.json": {"checks": [asdict(c) for c in checks], "all_passed": passed}}
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name:32s} value={c.value:.6e} bound={c.bound:.6e}")
    if not passed:
        failed = [c.name for c in checks if not c.passed]
        print(f"verify: {len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1, files
    print(f"verify: all {len(checks)} checks passed")
    return 0, files


def cmd_evolve(cfg: RunConfig) -> tuple[int, dict]:
    """Free-evolution report plus per-time axis slices."""
    n, *skipped = cfg.n_list
    if skipped:
        print(f"evolve: ran n = {n} only, skipped n = {', '.join(map(str, skipped))}",
              file=sys.stderr)
    state = make_state(cfg.a, cfg.v_target, cfg.spin, n, cfg.sigma_p)
    grid = CartesianGrid(cfg.grid_points, cfg.grid_extent)
    report, slices = evolve_report(state, grid, cfg.times, r0=EVOLVE_R0)
    for grid_norm in report.grid_norms:
        _check_grid_norm(grid_norm * grid_norm, grid, n)
    files = {"evolution_report.json": asdict(report)}
    axis = grid.axis()
    for t, cut in zip(report.times, slices):
        rows = np.column_stack([axis, cut.T]).tolist()
        files[f"slice_t{t:g}.csv"] = [["x1", "rho", "j1", "j2", "j3"], *rows]
    return 0, files


def cmd_rn(cfg: RunConfig) -> tuple[int, dict]:
    """Tabulate the convolution R_n(p) over the n list."""
    profile = boosted_gaussian_profile(cfg.v_target, cfg.sigma_p)
    axis = Q_AXES[cfg.rn_q]
    target = 1.0 if axis is None else cfg.v_target[axis]
    rows = [["n", "re", "im", "abs_error"]]
    for n in cfg.n_list:
        value = convolution_Rn(profile, n, cfg.rn_p, cfg.rn_q, spin=cfg.spin)
        rows.append([n, value.real, value.imag, abs(value - target)])
    return 0, {"rn_table.csv": rows}


def cmd_moments(cfg: RunConfig) -> tuple[int, dict]:
    """Grid moments per n as JSON."""
    grid = CartesianGrid(cfg.grid_points, cfg.grid_extent)
    payload = {"grid": {"points": cfg.grid_points, "extent": cfg.grid_extent}, "moments": {}}
    for n in cfg.n_list:
        state = make_state(cfg.a, cfg.v_target, cfg.spin, n, cfg.sigma_p)
        found = moments(position_state_cartesian(state, grid))  # psi is freed here
        _check_grid_norm(found.norm, grid, n)
        payload["moments"][str(n)] = asdict(found)
    return 0, {"moments.json": payload}


def cmd_overlap(cfg: RunConfig) -> tuple[int, dict]:
    """Overlaps against a second label per n as JSON."""
    spin2 = cfg.spin if cfg.overlap_spin2 is None else cfg.overlap_spin2
    payload = {"a": list(cfg.a), "a2": list(cfg.overlap_a2), "overlaps": {}}
    for n in cfg.n_list:
        s1 = make_state(cfg.a, cfg.v_target, cfg.spin, n, cfg.sigma_p)
        s2 = make_state(cfg.overlap_a2, cfg.v_target, spin2, n, cfg.sigma_p)
        value = overlap(s1, s2)
        payload["overlaps"][str(n)] = {
            "re": value.real,
            "im": value.imag,
            "abs": abs(value),
        }
    return 0, {"overlaps.json": payload}


def write_outputs(out: Path, files: dict) -> None:
    """Create ``out`` and write each file of a command's result into it.

    A dict is written as sorted, indented JSON, an ``ndarray`` in it as a
    list (``tolist``); a list is a CSV table, rows of strings, ints and
    Python floats.  Both write a float by ``repr``, so every double reads
    back bit for bit.
    """
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        with open(out / name, "w", newline="") as handle:
            if isinstance(content, dict):
                json.dump(content, handle, indent=2, sort_keys=True, default=np.ndarray.tolist)
                handle.write("\n")
            else:
                csv.writer(handle).writerows(content)


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
        if name != "verify":
            p.add_argument("--n", default=None, help="override the n list, e.g. 5,7,10")
        if name in ("evolve", "moments"):
            p.add_argument("--grid", default=None, help="override the grid as N,L")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        code, files = COMMANDS[args.command](cfg)
    except (ConfigError, GridError, ProfileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    out = Path(cfg.out_dir)
    write_outputs(out, files)
    print(f"{args.command}: wrote {', '.join(files)} to {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())

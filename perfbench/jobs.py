"""Seeded job lists for the three benchmark workloads.

A job is one ``diracloc <cmd>`` process: a command, an INI config and
flags.  The seed picks every input; the program sees only the config
file and the flags.  Each workload has a fixed composition (how many
jobs of each command, how many n values, which grid), and the seed
draws the values inside it by Latin-hypercube strata, so every seed
covers the whole input range and the total work of a job list barely
moves from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("cli-radial", "cli-grid", "verify")
GRIDS = {"64,16": (64, 16.0), "128,12": (128, 12.0)}
MASS_TOL = 1e-2  # the momentum mass position_state_cartesian lets a grid miss


@dataclass
class Job:
    """One CLI process: ``diracloc <cmd> --config <file> <flags>``."""

    id: str
    cmd: str
    config: dict = field(default_factory=dict)  # INI section -> {key: value}
    flags: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)  # inputs the output checks need

    def config_text(self) -> str:
        lines = []
        for section, items in self.config.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in items.items())
        return "\n".join(lines) + "\n"

    def describe(self) -> str:
        return f"{self.cmd} {' '.join(self.flags)} {self.config}"


def strata(rng: random.Random, k: int) -> list:
    """k draws in [0, 1), one from each of k equal strata, in random order."""
    values = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(values)
    return values


def log_uniform_ints(rng: random.Random, lo: int, hi: int, k: int) -> list:
    """k integers log-uniform on [lo, hi], stratified, in random order."""
    span = math.log(hi / lo)
    return [min(hi, int(round(lo * math.exp(u * span)))) for u in strata(rng, k)]


def distinct_sorted(values) -> list:
    """Sorted values, each bumped up past its predecessor so all are distinct."""
    out = []
    for value in sorted(values):
        out.append(max(value, out[-1] + 1) if out else value)
    return out


def unit_vector(rng: random.Random) -> tuple:
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(1.0 - z * z)
    return (s * math.cos(phi), s * math.sin(phi), z)


def vec(values) -> str:
    return " ".join(repr(round(float(c), 6)) for c in values)


def scaled(direction, length: float) -> tuple:
    return tuple(round(length * c, 6) for c in direction)


def _mean_flow(m: float) -> float:
    """Mean of p/|p| for a unit Gaussian shifted by m/sqrt(2) widths."""
    return (
        math.erf(m / math.sqrt(2.0)) * (1.0 - 1.0 / (m * m))
        + math.sqrt(2.0 / math.pi) * math.exp(-m * m / 2.0) / m
    )


def profile_shift(speed: float, sigma_p: float) -> float:
    """Centre offset kappa of the boosted Gaussian whose mean flow is ``speed``."""
    if speed == 0.0:
        return 0.0
    lo, hi = 1e-6, 60.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _mean_flow(mid) < speed:
            lo = mid
        else:
            hi = mid
    return hi * sigma_p / math.sqrt(2.0)


def _tail_radius(eps: float) -> float:
    """q with erfc(q) + 2 q e^(-q^2)/sqrt(pi) = eps."""
    lo, hi = 0.0, 30.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid) + 2.0 * mid * math.exp(-mid * mid) / math.sqrt(math.pi) > eps:
            lo = mid
        else:
            hi = mid
    return hi


def max_grid_n(grid: str, speed: float, sigma_p: float = 1.0) -> int:
    """Largest n whose momentum support stays inside the grid's Nyquist momentum."""
    points, extent = GRIDS[grid]
    nyquist = math.pi * points / extent
    support = profile_shift(speed, sigma_p) + _tail_radius(MASS_TOL) * sigma_p
    return max(1, int(nyquist / (1.02 * support)))


def _radial_jobs(rng: random.Random) -> list:
    jobs = []
    # figure1: 3 jobs x 3 n values, n log-uniform on [2, 64], sigma_p on [0.5, 2]
    ns = log_uniform_ints(rng, 2, 64, 9)
    for i, u in enumerate(strata(rng, 3)):
        sigma = round(0.5 + 1.5 * u, 4)
        n_list = distinct_sorted(ns[3 * i: 3 * i + 3])
        jobs.append(Job(
            id=f"figure1-{i}", cmd="figure1",
            config={"profile": {"kind": "gaussian", "sigma_p": sigma}},
            flags=["--n", ",".join(map(str, n_list))],
            expect={"n": n_list, "sigma_p": sigma},
        ))
    # rn: 3 jobs x 2 n values up to 64, boosted with |v| <= 0.9, |p| <= 2
    ns = log_uniform_ints(rng, 2, 64, 6)
    for i, (u_speed, u_p) in enumerate(zip(strata(rng, 3), strata(rng, 3))):
        v = scaled(unit_vector(rng), 0.9 * u_speed)
        p = scaled(unit_vector(rng), 2.0 * u_p)
        n_list = distinct_sorted(ns[2 * i: 2 * i + 2])
        jobs.append(Job(
            id=f"rn-{i}", cmd="rn",
            config={
                "profile": {"kind": "boosted_gaussian", "v_target": vec(v)},
                "label": {"spin": rng.choice(("up", "down"))},
                "rn": {"p": vec(p), "q": rng.choice(("identity", "alpha1", "alpha2", "alpha3"))},
            },
            flags=["--n", ",".join(map(str, n_list))],
            expect={"n": n_list},
        ))
    # overlap: 4 jobs x 2 n values <= 16, |a2 - a| <= 3; half with opposite
    # spin (tensor quadrature), half with v != 0, crossed.  In each spin class
    # one job takes the two smaller n strata with a shift from [1.5, 3], the
    # other the two larger n strata with a shift from [0, 1.5], so the size of
    # the quadrature (each axis order grows with n |a2 - a|) stays in a narrow
    # band from seed to seed.
    for opposite in (False, True):
        ns = sorted(log_uniform_ints(rng, 1, 16, 4))
        moving = rng.choice(((True, False), (False, True)))
        pairs = ((ns[:2], 1.5 + 1.5 * rng.random()), (ns[2:], 1.5 * rng.random()))
        for (n_list, shift), moves in zip(pairs, moving):
            i = sum(job.cmd == "overlap" for job in jobs)
            spin = rng.choice(("up", "down"))
            spin2 = {"up": "down", "down": "up"}[spin] if opposite else spin
            a = tuple(round(rng.uniform(-2.0, 2.0), 6) for _ in range(3))
            a2 = tuple(round(x + d, 6) for x, d in zip(a, scaled(unit_vector(rng), shift)))
            v = scaled(unit_vector(rng), rng.uniform(0.1, 0.9)) if moves else (0.0, 0.0, 0.0)
            n_list = distinct_sorted(n_list)
            jobs.append(Job(
                id=f"overlap-{i}", cmd="overlap",
                config={
                    "profile": {"kind": "boosted_gaussian" if moves else "gaussian",
                                "v_target": vec(v)},
                    "label": {"a": vec(a), "spin": spin},
                    "overlap": {"a2": vec(a2), "spin2": spin2},
                },
                flags=["--n", ",".join(map(str, n_list))],
                expect={"n": n_list, "opposite": opposite, "sigma_p": 1.0,
                        "delta": [x2 - x1 for x1, x2 in zip(a, a2)]},
            ))
    return jobs


def _grid_jobs(rng: random.Random) -> list:
    # (command, grid, count, moving): count is evolve times or moments n
    # values.  Fixing which slots have v = 0 keeps the number of profile
    # root-finds, and so the cost of the list, the same for every seed.
    slots = [("evolve", "128,12", 3, True), ("evolve", "64,16", 6, False),
             ("moments", "128,12", 2, True), ("moments", "64,16", 3, True),
             ("moments", "64,16", 2, False)]
    speeds = iter(strata(rng, sum(moving for *_, moving in slots)))
    jobs = []
    for i, (cmd, grid, count, moving) in enumerate(slots):
        speed = round(0.9 * next(speeds), 6) if moving else 0.0
        v = scaled(unit_vector(rng), speed) if speed else (0.0, 0.0, 0.0)
        top = max_grid_n(grid, math.sqrt(sum(c * c for c in v)))
        config = {
            "profile": {"kind": "boosted_gaussian" if speed else "gaussian", "v_target": vec(v)},
            "label": {"a": vec(rng.uniform(-2.0, 2.0) for _ in range(3)),
                      "spin": rng.choice(("up", "down"))},
        }
        if cmd == "evolve":
            n_list = [rng.randint(1, top)]
            times = sorted(round(rng.uniform(0.0, 2.0), 4) for _ in range(count))
            config["evolve"] = {"times": " ".join(map(repr, times))}
            expect = {"n": n_list, "times": times}
        else:
            n_list = sorted(rng.sample(range(1, top + 1), min(count, top)))
            expect = {"n": n_list}
        jobs.append(Job(
            id=f"{cmd}-{i}", cmd=cmd, config=config,
            flags=["--n", ",".join(map(str, n_list)), "--grid", grid], expect=expect,
        ))
    return jobs


def make_jobs(workload: str, seed: int) -> list:
    """The job list of ``workload`` for ``seed``, in the order it runs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "verify":  # inputs are fixed inside the program
        return [Job(id="verify-0", cmd="verify")]
    rng = random.Random(f"{workload}/{seed}")
    jobs = _radial_jobs(rng) if workload == "cli-radial" else _grid_jobs(rng)
    rng.shuffle(jobs)
    return jobs

"""Seeded workload generators.

A workload is a fixed list of CLI calls, each with the check its outputs must
pass.  The seed draws the chiral phases, pair phases, mixing weights and
snapshot times; it never changes grid sizes, chain sizes or the number of
candidates, so every seed asks for the same amount of work.  Paths in the
argument lists are relative to the directory a pass runs in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SPOT_ROWS = 8

TABLE_SIZES = range(5, 34, 2)
TABLE_CANDIDATES = 16
TABLE_HORIZON = 500.0
TABLE_DT = 0.02

WERNER_N = 33
WERNER_GRID = (0.0, 20.0, 0.01)
SNAPSHOT_TIMES = 6

TRACE_N = 71
TRACE_GRID = (0.0, 2000.0, 0.01)


@dataclass(frozen=True)
class Call:
    """One CLI invocation (arguments after ``python -m chiralwalk``).

    ``check`` names the function in ``checks`` that verifies the call's
    outputs; ``params`` are its keyword arguments.
    """

    args: tuple[str, ...]
    check: str
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    subcommand: str  # the subcommand whose ``--help`` run times set-up
    calls: tuple[Call, ...]
    samples: int  # (trace, time point) pairs one pass produces


def grid_points(grid: tuple[float, float, float]) -> int:
    start, end, dt = grid
    return int(math.floor((end - start) / dt + 1e-9)) + 1


def _grid_flag(grid: tuple[float, float, float]) -> str:
    return ":".join(repr(x) for x in grid)


def _chiral_phase(rng: random.Random) -> float:
    # Away from 0 and pi, where the Werner PTS diagnostic vanishes identically.
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.1 * math.pi, 0.9 * math.pi)


def _spot_rows(rng: random.Random, count: int) -> tuple[int, ...]:
    return tuple(sorted({0, count - 1, *rng.sample(range(1, count - 1), SPOT_ROWS - 2)}))


def long_table(rng: random.Random, seed: int) -> Workload:
    thetas = tuple(rng.uniform(-math.pi, math.pi) for _ in range(TABLE_CANDIDATES))
    args = (
        "table", "--mode", "cqw", "--n", f"{TABLE_SIZES[0]}:{TABLE_SIZES[-1]}:2",
        "--horizon", repr(TABLE_HORIZON), "--dt", repr(TABLE_DT),
        "--theta-candidates=" + ",".join(repr(t) for t in thetas),
        "--out", "out", "--name", "long-table",
    )
    call = Call(args, "table", dict(
        name="long-table", sizes=tuple(TABLE_SIZES), thetas=thetas,
        horizon=TABLE_HORIZON,
    ))
    samples = len(TABLE_SIZES) * TABLE_CANDIDATES * grid_points((0.0, TABLE_HORIZON, TABLE_DT))
    return Workload("long-table", seed, "table", (call,), samples)


def werner_mixed(rng: random.Random, seed: int) -> Workload:
    points = grid_points(WERNER_GRID)
    calls = []
    for name, measure in (("wf1", "werner-fidelity"), ("wf2", "werner-fidelity"),
                          ("pb", "pts-bures")):
        theta, b = _chiral_phase(rng), rng.uniform(-0.9, 0.9)
        args = (
            "trace", "--graph", f"tri:{WERNER_N}", f"--theta={theta!r}",
            f"--state=werner:{b!r}", "--measure", measure,
            f"--t={_grid_flag(WERNER_GRID)}", "--out", "out", "--name", name,
        )
        calls.append(Call(args, "werner_trace", dict(
            name=name, measure=measure, n=WERNER_N, theta=theta, b=b,
            grid=WERNER_GRID, rows=_spot_rows(rng, points),
        )))
    theta, phi = _chiral_phase(rng), rng.uniform(0.0, 2.0 * math.pi)
    times = tuple(sorted(rng.uniform(0.5, WERNER_GRID[1]) for _ in range(SNAPSHOT_TIMES)))
    args = (
        "snapshots", "--graph", f"tri:{WERNER_N}", f"--theta={theta!r}",
        f"--state=pair:1,2:{phi!r}", "--times=" + ",".join(repr(t) for t in times),
        "--out", "out", "--name", "snap",
    )
    calls.append(Call(args, "snapshots", dict(
        name="snap", n=WERNER_N, theta=theta, phi=phi, times=times,
    )))
    return Workload("werner-mixed", seed, "trace", tuple(calls), 3 * points + SNAPSHOT_TIMES)


def long_trace(rng: random.Random, seed: int) -> Workload:
    theta, phi = _chiral_phase(rng), rng.uniform(0.0, 2.0 * math.pi)
    points = grid_points(TRACE_GRID)
    trace = (
        "trace", "--graph", f"tri:{TRACE_N}", f"--theta={theta!r}",
        f"--state=pair:1,2:{phi!r}", "--measure", "concurrence",
        f"--t={_grid_flag(TRACE_GRID)}", "--svg", "--out", "out", "--name", "long-trace",
    )
    rerun = ("rerun", "out/long-trace.manifest.json", "--out", "rerun")
    calls = (
        Call(trace, "pure_trace", dict(
            name="long-trace", n=TRACE_N, theta=theta, phi=phi,
            grid=TRACE_GRID, rows=_spot_rows(rng, points),
        )),
        Call(rerun, "same_bytes", dict(
            first="out", second="rerun",
            files=("long-trace.csv", "long-trace.svg"),
        )),
    )
    return Workload("long-trace", seed, "trace", calls, 2 * points)


_BUILDERS = {"long-table": long_table, "werner-mixed": werner_mixed, "long-trace": long_trace}
NAMES = tuple(_BUILDERS)


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; equal seeds give equal workloads."""
    # A string seed is hashed with SHA-512, so it does not depend on PYTHONHASHSEED.
    return _BUILDERS[name](random.Random(f"{name}/{seed}"), seed)

"""Benchmark of the chiralwalk CLI on three workloads from the paper.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload long-table --seed 1 --seconds 40 --trace 0

``--trace 0`` times fresh ``python -m chiralwalk`` processes, as users run
them, and reports the end-to-end metrics.  ``--trace 1`` runs the same calls
in this process through ``cli.main`` with layer spans (see layers.py) and
reports the per-layer metrics.  Either way every output is checked against an
independent reference, one line per metric is printed, and the last line of
standard output is one JSON object with the result.  README.md explains the
workloads and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKERS_ENV = "CHIRALWALK_WORKERS"
WORK_DIR = ".perfbench-out"

SETUP_REPS_PER_PASS = 3  # --help runs before each pass; setup_s is their median
IMPORT_REPS = 5  # import runs per traced run; cli.import_s is their median
MIN_PASSES = 3  # end-to-end passes per run, even when --seconds is short
CALL_TIMEOUT_S = 150

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "samples_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "ok_frac": ("ratio", "higher"),
}


@dataclass
class Usage:
    wall: float
    cpu: float
    rss_mb: float
    code: int


class Ops:
    """Operations attempted and failed; a failure's reason goes to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {reason}", file=sys.stderr)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop(WORKERS_ENV, None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv: list[str], cwd: Path, env: dict, log: Path) -> Usage:
    """Run one process to completion; wall time, CPU time and max RSS."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=out)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "chiralwalk", *args]


def log_tail(log: Path, lines: int = 5) -> str:
    try:
        return " | ".join(log.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def check_pass(wl: workloads.Workload, pass_dir: Path, codes: list[int], ops: Ops) -> None:
    import checks  # loads numpy, so not before __main__ has pinned the BLAS threads

    for call, code in zip(wl.calls, codes):
        what = f"{wl.name} {call.args[0]} {call.params.get('name', '')}".rstrip()
        if code != 0:
            ops.record(False, what, f"exit code {code}; {log_tail(pass_dir / 'log.txt')}")
            continue
        try:
            getattr(checks, call.check)(pass_dir, **call.params)
        except checks.CheckFailed as exc:
            ops.record(False, what, str(exc))
        else:
            ops.record(True, what)


def keep_going(done: int, started: float, seconds: float, minimum: int) -> bool:
    # Start another pass only if one more of the typical length still fits.
    if done < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def run_end_to_end(wl, root: Path, work: Path, seconds: float, ops: Ops) -> tuple[dict, dict]:
    env = child_env(root)
    setup_log = work / "setup-log.txt"
    help_argv = cli_argv([wl.subcommand, "--help"])
    run_child(help_argv, work, env, setup_log)  # byte-compiles the package; not timed

    setup: list[float] = []
    calls: list[list[Usage]] = [[] for _ in wl.calls]
    started = time.perf_counter()
    while keep_going(len(calls[0]), started, seconds, MIN_PASSES):
        # Set-up runs are spread over the run so that a slow spell of the
        # machine does not hit all of them.
        for _ in range(SETUP_REPS_PER_PASS):
            u = run_child(help_argv, work, env, setup_log)
            ops.record(u.code == 0, f"{wl.subcommand} --help", f"exit code {u.code}")
            setup.append(u.wall)
        pass_dir = work / f"pass{len(calls[0])}"
        pass_dir.mkdir()
        usages = [run_child(cli_argv(c.args), pass_dir, env, pass_dir / "log.txt")
                  for c in wl.calls]
        check_pass(wl, pass_dir, [u.code for u in usages], ops)
        shutil.rmtree(pass_dir)
        for per_call, u in zip(calls, usages):
            per_call.append(u)

    # Per-call medians, summed over the workload's calls: a slow spell of the
    # machine then spoils one sample of one call, not a whole pass.
    wall = sum(statistics.median(u.wall for u in c) for c in calls)
    metrics = {
        "wall_s": wall,
        "cpu_s": sum(statistics.median(u.cpu for u in c) for c in calls),
        "samples_per_s": wl.samples / wall,
        "peak_rss_mb": max(statistics.median(u.rss_mb for u in c) for c in calls),
        "setup_s": statistics.median(setup),
        "ok_frac": 1.0 - ops.failed / ops.attempted,
    }
    counts = {name: len(calls[0]) for name in metrics}
    counts["setup_s"] = len(setup)
    counts["ok_frac"] = ops.attempted
    passes = [sum(u.wall for u in pass_usages) for pass_usages in zip(*calls)]
    tail = tail_percentile(passes)
    if tail:
        print(f"wall_s p{tail[0]:g} = {tail[1]:.6g} s (n={len(passes)})")
    return metrics, counts


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with ten samples beyond it, once that is at least p50."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def run_in_process(cli, wl, pass_dir: Path, ops_codes: list[int]) -> float:
    """Run the workload's calls through cli.main; returns the pass wall time."""
    sink = io.StringIO()
    cwd = os.getcwd()
    os.chdir(pass_dir)
    try:
        start = time.perf_counter()
        for call in wl.calls:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(list(call.args))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a traceback is a failed operation, not a crash
                    traceback.print_exc(file=sink)
                    code = 1
            ops_codes.append(code)
        wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    (pass_dir / "log.txt").write_text(sink.getvalue())
    return wall


def run_traced(wl, root: Path, work: Path, seconds: float, ops: Ops, spans_path: Path):
    env = child_env(root)
    probe = "import time; t = time.perf_counter(); import chiralwalk.cli; " \
            "print(time.perf_counter() - t)"
    import_times = []
    for k in range(IMPORT_REPS + 1):
        log = work / f"import{k}.txt"
        u = run_child([sys.executable, "-c", probe], work, env, log)
        if k == 0:
            continue  # byte-compiles the package; not timed
        ops.record(u.code == 0, "import chiralwalk.cli", f"exit code {u.code}")
        if u.code == 0:
            import_times.append(float(log.read_text().split()[-1]))

    sys.path.insert(0, str(root / "src"))
    import chiralwalk.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise layers.GuardError(f"imported {cli.__file__}, not the checkout's source")
    layers.resolve()  # fail before any pass if a wrapped function is gone
    pass_numbers = itertools.count()

    def one_pass(tracer: layers.Tracer | None = None) -> float:
        pass_dir = work / f"pass{next(pass_numbers)}"
        pass_dir.mkdir()
        codes: list[int] = []
        if tracer:
            tracer.install()
        try:
            wall = run_in_process(cli, wl, pass_dir, codes)
        finally:
            if tracer:
                tracer.uninstall()
        check_pass(wl, pass_dir, codes, ops)
        shutil.rmtree(pass_dir)
        return wall

    untraced, traced, per_pass, uncovered = [], [], [], []
    started = time.perf_counter()
    one_pass()  # warm-up: pays this process's first-call costs; not timed
    while keep_going(len(traced), started, seconds, 1):
        untraced.append(one_pass())
        tracer = layers.Tracer()
        traced.append(one_pass(tracer))
        per_pass.append(tracer.metrics())
        uncovered.append((traced[-1] - tracer.root_time()) / traced[-1])
    tracer.check_expected(wl.name)
    with open(spans_path, "w") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
            fh.write("\n")

    metrics = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
    metrics["cli.import_s"] = statistics.median(import_times) if import_times else 0.0
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.uncovered_frac"] = statistics.median(uncovered)
    counts = {m: len(traced) for m in metrics}
    counts["cli.import_s"] = len(import_times)
    return metrics, counts


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True)
        commit = out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:  # no git installed
        commit = "none"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in PINNED_ENV},
        WORKERS_ENV: os.environ.get(WORKERS_ENV, "unset"),
        "git_commit": commit,
        "src_sha256": source_digest(root / "src"),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "chiralwalk" / "cli.py").is_file():
        print("perfbench: run from the root of a chiralwalk checkout "
              "(src/chiralwalk/cli.py not found)", file=sys.stderr)
        return 2
    # The program runs `git describe` (so does environment()); keep git, in
    # this process and its children, from searching above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    wl = workloads.make(args.workload, args.seed)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = root / WORK_DIR / f"{wl.name}-{os.getpid()}"
    work.mkdir()
    ops = Ops()
    try:
        if args.trace:
            spans = root / WORK_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
            metrics, counts = run_traced(wl, root, work, args.seconds, ops, spans)
            units = {m: layers.PER_LAYER[m][0] for m in layers.PER_LAYER}
        else:
            metrics, counts = run_end_to_end(wl, root, work, args.seconds, ops)
            units = {m: END_TO_END[m][0] for m in END_TO_END}
    except layers.GuardError as exc:
        print(f"perfbench: layer guard: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(root, args.seed)
    print(f"workload {wl.name}, seed {args.seed}, {wl.samples} samples per pass, "
          f"{ops.attempted} operations, failed_frac {ops.failed / ops.attempted:.6g}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name in units:
        line = f"{name} = {metrics[name]:.6g} {units[name]} (n={counts[name]})"
        if args.trace and units[name] == "s" and not name.startswith(("trace.", "cli.import")):
            line += f", {100.0 * metrics[name] / metrics['trace.wall_s']:.1f}% of traced wall"
        print(line)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    # Before numpy loads, in this process and so in every child.
    os.environ.update(PINNED_ENV)
    os.environ.pop(WORKERS_ENV, None)
    sys.exit(main())

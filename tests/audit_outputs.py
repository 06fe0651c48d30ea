"""Digest every output of a fixed set of CLI runs, to compare two source trees.

Usage: python tests/audit_outputs.py SRC_DIR OUT_DIR
       python tests/audit_outputs.py check SRC_DIR
       python tests/audit_outputs.py compare OUT_A OUT_B

Each command below runs as ``python -m chiralwalk`` in a fresh process with
``PYTHONPATH=SRC_DIR``, writing into ``OUT_DIR/<label>``; every manifest it
writes is then replayed with ``rerun`` into ``OUT_DIR/<label>.rerun``.  The
script prints a header line naming Python, numpy, the BLAS library and its
thread count, then, per run, its exit code and last stderr line and one
SHA-256 per output file.  Manifests are hashed without ``wall_time_s`` and
``version``, the two fields that differ between equal runs.  Run it on two
trees and diff the printouts: equal digests mean byte-identical outputs.
It exits 1 if a rerun does not reproduce its run byte for byte.
``tests/audit_digests.txt`` holds the printout for the tree it is committed
with, so ``git diff`` names every output a change moves.

``check`` is the one-command byte gate: it runs the audit of SRC_DIR into a
fresh temporary directory, prints every line of the printout that differs
from ``tests/audit_digests.txt`` (as a diff, ``-`` committed, ``+`` this run),
and exits 1 if any does, 0 if none.

``compare`` reads two such output directories.  It parses every CSV of both
and prints, per CSV whose bytes differ, the largest difference between its
numeric cells; other files are compared by digest.  It exits 1 if a file is
in one tree only, if text cells or other files differ, or if two numbers
differ by more than 1e-12 beyond their 12-significant-digit rounding.

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRI5 = ["--graph", "tri:5"]
# Sixteen irregular chiral phases, as in the benchmark's long-time table.
SIXTEEN_THETAS = ("-3.0712,-2.6518,-2.2457,-1.8013,-1.3862,-0.9514,-0.5371,-0.1126,"
                  "0.2893,0.7047,1.1175,1.5324,1.9631,2.4028,2.8114,3.1021")
PAIR = ["--state", "pair:1,2:pi"]
CONCURRENCE = ["--measure", "concurrence"]

# label -> arguments after ``python -m chiralwalk`` (without --out).  Every
# subcommand, measure, state kind and --svg, plus runs that must be rejected.
COMMANDS = {
    "trace-concurrence-svg": ["trace", *TRI5, "--theta", "0.5pi", *PAIR,
                              "--measure", "concurrence:4,5", "--t", "0:10:0.01", "--svg"],
    "trace-concurrence-default-pair": ["trace", *TRI5, "--theta", "0.3", "--state",
                                       "pair:1,2:0.5pi", *CONCURRENCE, "--t", "0:5:0.05"],
    "trace-concurrence-long-svg": ["trace", "--graph", "tri:9", "--theta", "0.5pi", *PAIR,
                                   *CONCURRENCE, "--t", "0:200:0.01", "--svg"],
    "trace-concurrence-negative-times": ["trace", *TRI5, "--theta", "-0.4pi", *PAIR,
                                         *CONCURRENCE, "--t", "-1:1:0.01"],
    "trace-concurrence-json-state": ["trace", *TRI5, "--theta", "0.25pi", "--state",
                                     '{"kind": "pair", "i": 1, "j": 3, "phi": "0.75pi"}',
                                     "--measure", "concurrence:1,3", "--t", "0:4:0.02"],
    "trace-concurrence-werner": ["trace", *TRI5, "--theta", "0.5pi", "--state", "werner:0.5",
                                 *CONCURRENCE, "--t", "0:3:0.1"],
    "trace-concurrence-cycle-svg": ["trace", "--graph", "cycle:6", "--theta", "0.5pi", *PAIR,
                                    "--measure", "concurrence:3,4", "--t", "0:6:0.02",
                                    "--svg"],
    "trace-concurrence-complete": ["trace", "--graph", "complete:4", "--theta", "0.2", *PAIR,
                                   *CONCURRENCE, "--t", "0:3:0.05"],
    "trace-pts-bures": ["trace", *TRI5, "--theta", "0.3pi", "--state", "pair:1,2:0",
                        "--measure", "pts-bures", "--t", "0:10:0.01"],
    "trace-pts-bures-werner": ["trace", *TRI5, "--theta", "0.4", "--state", "werner:-0.3",
                               "--measure", "pts-bures", "--t", "0:3:0.1"],
    "trace-occupation": ["trace", "--graph", "tri:7", "--theta", "0.3", "--state",
                         "localized:1", "--measure", "occupation:7", "--t", "0:5:0.01"],
    "trace-occupation-magnitude": ["trace", *TRI5, "--magnitude", "2", "--theta", "0.5pi",
                                   "--state", "werner:0.5", "--measure", "occupation:3",
                                   "--t", "0:2:0.05"],
    "trace-occupation-pentagram": ["trace", "--graph", "pentagram:5", "--theta", "0.2",
                                   "--state", "localized:2", "--measure", "occupation:5",
                                   "--t", "0:3:0.05"],
    "trace-werner-fidelity-svg": ["trace", *TRI5, "--theta", "0.5pi", "--state", "werner:0.5",
                                  "--measure", "werner-fidelity", "--t", "0:5:0.05", "--svg"],
    "trace-werner-fidelity-cycle": ["trace", "--graph", "cycle:5", "--theta", "0.3",
                                    "--state", "werner:-0.7", "--measure", "werner-fidelity",
                                    "--t", "0:3:0.25"],
    "trace-transfer-fidelity": ["trace", "--graph", "tri:6", "--theta", "0.5pi", "--state",
                                "pair:2,4", "--measure", "transfer-fidelity", "--t",
                                "0:5:0.05"],
    "trace-transfer-fidelity-phase": ["trace", *TRI5, "--theta", "0.5pi", "--state",
                                      "pair:1,2:0.5pi", "--measure",
                                      "transfer-fidelity:0.25pi", "--t", "0:5:0.05"],
    "trace-transfer-fidelity-werner": ["trace", *TRI5, "--theta", "0.5pi", "--state",
                                       "werner:0.5", "--measure", "transfer-fidelity",
                                       "--t", "0:2:0.25"],
    "table-cqw": ["table", "--mode", "cqw", "--n", "5:9:2", "--horizon", "30"],
    "table-cqw-grid": ["table", "--mode", "cqw", "--n", "5", "--horizon", "20",
                       "--theta-candidates", "grid:8"],
    "table-cqw-list": ["table", "--mode", "cqw", "--n", "6", "--phi", "0.5pi", "--horizon",
                       "20", "--theta-candidates=-0.25pi,0.25pi,pi"],
    "table-ctqw": ["table", "--mode", "ctqw", "--n", "4,5", "--horizon", "30"],
    "table-ctqw-dt": ["table", "--mode", "ctqw", "--n", "5", "--horizon", "50", "--dt",
                      "0.05", "--name", "flat"],
    # The row's maximum is the last grid point, not one of the interior peaks.
    "table-cqw-end-maximum": ["table", "--mode", "cqw", "--n", "5", "--horizon", "8.64"],
    # The paper's long-time tables at full size: the chiral one with the
    # benchmark's shape, and the plain walk.
    "table-cqw-long": ["table", "--mode", "cqw", "--n", "5:33:2", "--horizon", "500",
                       "--dt", "0.02", f"--theta-candidates={SIXTEEN_THETAS}"],
    "table-ctqw-long": ["table", "--mode", "ctqw", "--n", "5:33:2", "--horizon", "500",
                        "--dt", "0.02"],
    # 64 candidates, four stacks per size, holding theta / pi - theta pairs
    # that tie up to rounding.
    "table-cqw-grid64": ["table", "--mode", "cqw", "--n", "5:15:2", "--horizon", "200",
                         "--theta-candidates", "grid:64"],
    # An exact tie across two stacks: the 16th candidate is pi/2 - 2pi and the
    # 17th is pi/2, the winner at n = 5, whose refined peak must meet the best
    # carried over from the first stack to be kept.
    "table-cqw-tie-across-stacks": ["table", "--mode", "cqw", "--n", "5,9", "--horizon", "60",
                                    "--theta-candidates=" + SIXTEEN_THETAS.rsplit(",", 1)[0]
                                    + f",{math.pi / 2 - 2 * math.pi!r},0.5pi"],
    # On tri:9 with phi = 0 the two candidates have 48% and 60% of their
    # coarse intervals live.
    "table-cqw-half-live": ["table", "--mode", "cqw", "--n", "9", "--phi", "0", "--horizon",
                            "5.6", "--dt", "0.01", "--theta-candidates=-0.155,-2.852"],
    # At dt = 0.25 no stride above 1 keeps the curvature bound within
    # COARSE_SLACK, so the screen reads every grid point.
    "table-cqw-stride1": ["table", "--mode", "cqw", "--n", "5,9", "--horizon", "100", "--dt",
                          "0.25", "--theta-candidates", "grid:16"],
    # Near t = 844 the parabola through three samples peaks above 1.
    "table-cqw-above-one": ["table", "--mode", "cqw", "--n", "5", "--horizon", "2000", "--dt",
                            "0.25"],
    "scaling-svg": ["scaling", "--n", "5:9:2", "--t", "0:5:0.01", "--svg"],
    "scaling-state": ["scaling", "--theta", "-0.5pi", "--n", "5,7", "--state",
                      "pair:1,2:0.5pi", "--t", "0:8:0.02"],
    "scaling-one-size": ["scaling", "--n", "5", "--t", "0:5:0.01"],
    "scaling-default-grid": ["scaling", "--n", "5,7"],
    # One distinct size twice: no fit.
    "scaling-duplicate-sizes": ["scaling", "--n", "5,5"],
    "snapshots-svg": ["snapshots", "--times", "0,0.5,1", "--svg"],
    "snapshots-werner-cycle-svg": ["snapshots", "--graph", "cycle:6", "--theta", "0.25pi",
                                   "--state", "werner:0.4", "--times", "0.3,2", "--svg"],
    "snapshots-localized": ["snapshots", "--graph", "pentagram:5", "--state", "localized:2",
                            "--times", "-1,2"],
    "snapshots-pair": ["snapshots", "--graph", "tri:7", "--state", "pair:2,3:0", "--times",
                       "1.5"],
    # Snapshot sets of more than 3 times, so site_amplitudes' block rule applies:
    # a non-uniform unsorted set, a uniform one and an unsorted pair state.
    "snapshots-werner-unsorted": ["snapshots", "--graph", "tri:9", "--theta", "0.3", "--state",
                                  "werner:0.4", "--times", "0.3,1.1,2.5,4,7.75,0.05"],
    "snapshots-uniform": ["snapshots", "--graph", "tri:33", "--times", "0,1,2,3,4,5,6,7,8"],
    "snapshots-cycle-unsorted": ["snapshots", "--graph", "cycle:7", "--state", "pair:1,3:0.2",
                                 "--times", "3,1,2,0.5,9"],
    # A mixed state at t = 1e7, where the phases are resolved but carry float
    # error of about 1e-9 rad.
    "trace-werner-fidelity-late": ["trace", *TRI5, "--theta", "0.5pi", "--state", "werner:0.5",
                                   "--measure", "werner-fidelity", "--t",
                                   "9999990:10000000:1"],
    # Mixed states over several column groups of site_amplitudes: the
    # benchmark's Werner shape, a long tri:9 trace and a 9-time tri:33 set.
    "trace-werner-fidelity-33": ["trace", "--graph", "tri:33", "--theta", "0.45pi", "--state",
                                 "werner:0.4", "--measure", "werner-fidelity",
                                 "--t", "0:20:0.01"],
    "trace-pts-bures-werner-33": ["trace", "--graph", "tri:33", "--theta", "-0.35pi",
                                  "--state", "werner:-0.6", "--measure", "pts-bures",
                                  "--t", "0:20:0.01"],
    "trace-concurrence-werner-long": ["trace", "--graph", "tri:9", "--theta", "0.5pi",
                                      "--state", "werner:0.7", *CONCURRENCE,
                                      "--t", "0:100:0.01"],
    # The long-trace benchmark's shape at a fixed phase, and a trace with
    # exponent notation in both columns, negative times, and values below
    # 1e-11 at t = 0, which the CSV float kernel hands to '%.12g'.
    "trace-concurrence-tri71-long-svg": ["trace", "--graph", "tri:71", "--theta", "0.4pi",
                                         "--state", "pair:1,2:0.3pi", *CONCURRENCE,
                                         "--t", "0:2000:0.01", "--svg"],
    "trace-occupation-tiny-times": ["trace", *TRI5, "--theta", "0.5pi", *PAIR, "--measure",
                                    "occupation:3", "--t=-0.001:0.001:0.00001"],
    "snapshots-werner-uniform": ["snapshots", "--graph", "tri:33", "--theta", "0.5pi",
                                 "--state", "werner:0.4", "--times", "0,1,2,3,4,5,6,7,8"],
    "graph-export-tri": ["graph-export", "--graph", "tri:4", "--theta", "pi"],
    "graph-export-pentagram": ["graph-export", "--graph", "pentagram:5", "--theta", "0.5pi"],
    "graph-export-cycle": ["graph-export", "--graph", "cycle:6", "--theta", "0.3"],
    "graph-export-magnitude": ["graph-export", "--graph", "tri:5", "--magnitude", "2",
                               "--theta=-0.75pi"],
    "graph-export-complete": ["graph-export", "--graph", "complete:4", "--name", "k4"],
    # Each kind at its smallest size.
    "graph-export-tri-smallest": ["graph-export", "--graph", "tri:3", "--theta", "0.5pi"],
    "graph-export-cycle-smallest": ["graph-export", "--graph", "cycle:3", "--theta", "-0.3"],
    "graph-export-complete-smallest": ["graph-export", "--graph", "complete:2", "--theta",
                                       "0.25pi"],
    # rejected runs: exit 1 or 2, nothing written
    "reject-ctqw-candidates": ["table", "--mode", "ctqw", "--n", "5", "--horizon", "20",
                               "--theta-candidates", "grid:16"],
    "reject-phase-resolution": ["trace", *TRI5, "--state", "pair:1,2", *CONCURRENCE,
                                "--t", "0:1e20:1e17"],
    "reject-amplitudes-overflow": ["trace", *TRI5, "--state", "pair:1,2", *CONCURRENCE,
                                   "--t", "0:1e300:1e294"],
    "reject-spectrum-overflow": ["trace", *TRI5, "--magnitude", "1e308", "--state",
                                 "pair:1,2", *CONCURRENCE, "--t", "0:1:0.5"],
    "reject-pair-site": ["trace", *TRI5, "--state", "pair:1,9", *CONCURRENCE,
                         "--t", "0:1:0.5"],
    "reject-pair-equal": ["trace", *TRI5, "--state", "pair:2,2", *CONCURRENCE,
                          "--t", "0:1:0.5"],
    "reject-localized-site": ["trace", *TRI5, "--state", "localized:0", "--measure",
                              "occupation:1", "--t", "0:1:0.5"],
    "reject-concurrence-equal": ["trace", *TRI5, *PAIR, "--measure", "concurrence:5,5",
                                 "--t", "0:1:0.5"],
    "reject-concurrence-site": ["trace", *TRI5, *PAIR, "--measure", "concurrence:0,5",
                                "--t", "0:1:0.5"],
    "reject-graph-kind": ["graph-export", "--graph", "blob:3"],
    "reject-tri-size": ["graph-export", "--graph", "tri:2"],
    "reject-cycle-size": ["graph-export", "--graph", "cycle:2"],
    "reject-complete-size": ["graph-export", "--graph", "complete:1"],
    "reject-magnitude": ["graph-export", "--graph", "tri:5", "--magnitude", "0"],
    "reject-site-guard": ["graph-export", "--graph", "tri:4097"],
    "reject-occupation-site": ["trace", *TRI5, "--state", "localized:1", "--measure",
                               "occupation:7", "--t", "0:1:0.5"],
    "reject-werner-fidelity-pair": ["trace", *TRI5, *PAIR, "--measure", "werner-fidelity",
                                    "--t", "0:1:0.5"],
    "reject-table-2-points": ["table", "--mode", "cqw", "--n", "5", "--horizon", "0.02"],
    "reject-snapshots-nan": ["snapshots", "--times", "nan"],
    # Number text has one rule: int() and float() would read '1_1' as 11 and
    # a fullwidth digit as its ASCII one.
    "reject-graph-underscore": ["graph-export", "--graph", "tri:1_1"],
    "reject-graph-fullwidth": ["graph-export", "--graph", "tri:\uff15"],
    "reject-localized-fullwidth": ["trace", *TRI5, "--state", "localized:\uff11", "--measure",
                                   "occupation:1", "--t", "0:1:0.5"],
    "reject-n-underscore": ["table", "--mode", "cqw", "--n", "5,1_1", "--horizon", "20"],
    "reject-grid-underscore": ["trace", *TRI5, *PAIR, *CONCURRENCE, "--t", "0:1_0:5"],
    "reject-theta-underscore": ["trace", *TRI5, "--theta", "1_0", *PAIR, *CONCURRENCE,
                                "--t", "0:1:0.5"],
    "reject-json-phase-underscore": ["trace", *TRI5, "--state",
                                     '{"kind": "pair", "i": 1, "j": 2, "phi": "1_0"}',
                                     *CONCURRENCE, "--t", "0:1:0.5"],
    # A key that nothing reads: a pair state has no "b".
    "reject-json-state-unknown-key": ["trace", *TRI5, "--state",
                                      '{"kind": "pair", "i": 1, "j": 2, "phi": "pi", "b": 0.5}',
                                      *CONCURRENCE, "--t", "0:1:0.5"],
}
# Each run's BLAS threads, so that the digests do not depend on the machine's
# core count.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DIGESTS = Path(__file__).with_name("audit_digests.txt")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(data)
        manifest.pop("wall_time_s", None)
        manifest.pop("version", None)
        data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def run(args: list[str], out: Path, env: dict, root: Path) -> dict[str, str]:
    """Run one CLI call into ``out``; print its exit code and output digests."""
    proc = subprocess.run([sys.executable, "-m", "chiralwalk", *args, "--out", str(out)],
                          capture_output=True, text=True, env=env)
    lines = proc.stderr.strip().splitlines()
    last = lines[-1].replace(str(root), "OUT_DIR") if lines else ""
    print(f"{out.relative_to(root)} exit={proc.returncode} {last}".rstrip())
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    digests = {str(p.relative_to(out)): digest(p) for p in files}
    for name, sha in digests.items():
        print(f"  {sha}  {name}")
    return digests


def _cells(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(a: Path, b: Path) -> tuple[float, bool]:
    """Largest difference between the numeric cells of two CSVs, and whether
    they agree: same shape and text, numbers within 1e-12 beyond rounding."""
    rows_a, rows_b = _cells(a), _cells(b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf, False
    largest, agree = 0.0, True
    for cell_a, cell_b in zip((c for r in rows_a for c in r), (c for r in rows_b for c in r)):
        x, y = _number(cell_a), _number(cell_b)
        if x is None or y is None:
            agree &= cell_a == cell_b
            continue
        delta = abs(x - y)
        largest = max(largest, delta)
        top = max(abs(x), abs(y))
        # Each cell is rounded to 12 significant digits: one unit of the last
        # digit between the two is rounding, not a change.
        unit = 10.0 ** (math.floor(math.log10(top)) - 11) if top else 0.0
        agree &= delta <= 1e-12 + unit
    return largest, agree


def compare(root_a: Path, root_b: Path) -> int:
    """Print how the outputs under two audit directories differ; 1 if they disagree."""
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    failed = False
    for name in sorted(files_a ^ files_b):
        print(f"ONLY IN {'A' if name in files_a else 'B'} {name}")
        failed = True
    for name in sorted(files_a & files_b):
        a, b = root_a / name, root_b / name
        if a.read_bytes() == b.read_bytes():
            continue
        if name.suffix == ".csv":
            largest, agree = compare_csv(a, b)
            print(f"{name} max |diff| {largest:.3g}{'' if agree else ' DISAGREE'}")
            failed |= not agree
        elif digest(a) != digest(b):
            print(f"{name} DIFFERS")
            failed = True
    return 1 if failed else 0


def environment() -> str:
    """The header line: what the digests' bits depend on besides the source."""
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{k}={v}" for k, v in THREADS.items())
    return (f"# python {platform.python_version()} numpy {numpy.__version__} "
            f"blas {blas.get('name')} {blas.get('version')} threads {threads}")


def audit(src: Path, root: Path) -> int:
    """Run every command of ``src`` into ``root`` and print the printout; 1 if a
    rerun does not reproduce its run."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    print(environment())
    mismatches = []
    for label, args in COMMANDS.items():
        out = root / label
        first = run(args, out, env, root)
        for manifest in sorted(out.glob("*.manifest.json")) if out.is_dir() else []:
            again = run(["rerun", str(manifest)], root / f"{label}.rerun", env, root)
            if again != first:
                mismatches.append(label)
    for label in mismatches:
        print(f"RERUN MISMATCH {label}")
    return 1 if mismatches else 0


def check(src: Path) -> int:
    """Audit ``src`` in a temporary directory and print the lines of its printout
    that differ from DIGESTS; 1 if any do."""
    printout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(printout):
        audit(src, Path(tmp).resolve())
    committed = DIGESTS.read_text().splitlines()
    diff = list(difflib.unified_diff(committed, printout.getvalue().splitlines(),
                                     str(DIGESTS), "this run", n=0, lineterm=""))
    print("\n".join(diff) if diff else f"all {len(committed)} lines equal {DIGESTS}")
    return 1 if diff else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) == 2 and argv[0] == "check":
        return check(Path(argv[1]).resolve())
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src, root = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if root.exists() and any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    return audit(src, root)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

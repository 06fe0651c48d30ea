"""Lines of chiralwalk that none of the repo's CLI runs reaches.

Usage: python tests/traffic_lines.py SRC_DIR

In one process this imports ``chiralwalk`` from SRC_DIR under a line tracer
(``sys.settrace``) that records only frames whose code lies in the package.
Each call then goes through ``cli.main``, with its output captured and
``SystemExit`` caught:

- every command of ``tests/audit_outputs.COMMANDS``, and a ``rerun`` of each
  manifest it writes, as the audit runs them
- every call of the three benchmark workloads of ``perfbench/workloads.py``
  at seed 1, in a directory of their own, as a benchmark pass runs them

All outputs go to a temporary directory, which is removed at the end.  The
script prints, per module, each executable line (one that the compiled code
lists) that no run reached, as ``LINE: source``, and a total.  What it
reports is the surface that only unit tests or other inputs reach: input
checks, failure clean-up, entry points, and branches the audit's inputs do
not take.  It takes a few seconds.

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

import audit_outputs  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction of ``path``'s compiled code."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None and 0: no line
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def calls(root: Path) -> list[tuple[Path, list[str]]]:
    """Each run but the audit's reruns, which depend on the manifests its runs
    write, as (working directory, arguments)."""
    runs = [(root, [*args, "--out", str(root / label)])
            for label, args in audit_outputs.COMMANDS.items()]
    for name in workloads.NAMES:
        workload = workloads.make(name, SEED)
        runs += [(root / f"bench-{name}", list(call.args)) for call in workload.calls]
    return runs


def run(main, cwd: Path, argv: list[str]) -> None:
    cwd.mkdir(parents=True, exist_ok=True)
    os.chdir(cwd)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass


def trace(src: Path, root: Path) -> tuple[Path, dict[str, set[int]]]:
    """The package directory and, per file in it, the lines the runs reached."""
    package = (src / "chiralwalk").resolve()
    prefix = str(package) + os.sep
    reached = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(src))
    sys.settrace(tracer)
    try:
        from chiralwalk import cli

        if not cli.__file__.startswith(prefix):
            raise SystemExit(f"chiralwalk was imported from {cli.__file__}, not {package}")
        for cwd, argv in calls(root):
            run(cli.main, cwd, argv)
            out = Path(argv[argv.index("--out") + 1])
            if cwd == root:  # an audit command: replay its manifests as the audit does
                for manifest in sorted(out.glob("*.manifest.json")) if out.is_dir() else []:
                    run(cli.main, root, ["rerun", str(manifest),
                                         "--out", str(out.with_name(out.name + ".rerun"))])
    finally:
        sys.settrace(None)
    return package, reached


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for key, value in audit_outputs.THREADS.items():  # before numpy loads BLAS
        os.environ.setdefault(key, value)
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            package, reached = trace(Path(argv[0]).resolve(), Path(tmp).resolve())
        finally:
            os.chdir(start)
    total = 0
    for path in sorted(package.glob("*.py")):
        missed = sorted(executable_lines(path) - reached[str(path)])
        total += len(missed)
        source = path.read_text().splitlines()
        print(f"{path.name}: {len(missed)} lines not reached")
        for line in missed:
            print(f"  {line}: {source[line - 1].strip()}")
    print(f"total: {total} lines not reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

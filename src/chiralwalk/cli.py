"""Command-line interface: traces, tables, scaling sweeps, snapshots, exports.

Every run writes the requested CSV output plus a JSON manifest that captures
the resolved parameters; ``chiralwalk rerun MANIFEST`` replays a manifest and
reproduces the CSV byte for byte.  ``_resolve`` turns flags into the
manifest's parameters, through the text forms of ``specs``; flags and
manifests then pass the same load step (``load``), which reads them into
specs, and the library functions the runner calls check those values before
they compute.  This module holds the argument parser, the load step's
runners and the output names; every spec's text, manifest and comment forms
are in ``specs``.  Exit codes: 0 success, 1 numerical or runtime failure or
an unwritable output, 2 usage error, whether the load step or a library
function rejects the value.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments, graphs, io, svgplot
from .specs import (GraphSpec, StateSpec, TimeGrid, as_number, check_keys, parse_int_list,
                    parse_measure, parse_phase, parse_real, parse_theta_candidates)


# ---------------------------------------------------------------------------
# the load step: one function per subcommand parses its manifest parameters,
# refusing any it does not read, and returns its runner, run(out_dir, name) ->
# output file names


def check_name(name) -> str:
    """An output basename: non-empty, not '.' or '..', without path separators."""
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValueError(f"output name must be a plain file name without '/' or '\\', "
                         f"got {name!r}")
    return name


def _list(params: dict, key: str) -> list:
    values = params[key]
    if not isinstance(values, list):
        raise TypeError(f"{key} must be a list, got {values!r}")
    return values


def _svg(params: dict) -> bool:
    svg = params.get("svg", False)
    if not isinstance(svg, bool):
        raise TypeError(f"svg must be true or false, got {svg!r}")
    return svg


def _n_values(params: dict) -> list[int]:
    return [as_number(n, "n_values", int) for n in _list(params, "n_values")]


def _write(out_dir: Path, name: str, tables, plot=None) -> list[str]:
    """Write each (stem, comments, header, rows) of ``tables`` as STEM.csv, then
    the SVG text ``plot()`` as NAME.svg if ``plot`` is given; returns the file
    names in the order written."""
    outputs = []
    for stem, comments, header, rows in tables:
        outputs.append(f"{stem}.csv")
        io.write_csv(out_dir / outputs[-1], comments, header, rows)
    if plot is not None:
        outputs.append(f"{name}.svg")
        io.atomic_write_text(out_dir / outputs[-1], plot())
    return outputs


def _trace(params: dict):
    check_keys(params, ("name", "graph", "state", "measure", "grid", "svg"), "trace parameter")
    graph, state = GraphSpec.from_dict(params["graph"]), StateSpec.from_dict(params["state"])
    trace, trace_args, measure = parse_measure(params["measure"])
    # The canonical form goes into the outputs and, through params, the manifest.
    params["measure"] = measure
    grid = TimeGrid.from_dict(params["grid"])
    trace, svg = getattr(experiments, trace), _svg(params)

    def run(out_dir: Path, name: str) -> list[str]:
        series = trace(graph, state, grid, *trace_args)
        comments = ["chiralwalk trace", graph.comment(), state.comment(), f"measure: {measure}",
                    grid.comment()]
        rows = np.column_stack((series.times, series.values))
        plot = (lambda: svgplot.line_plot(
            [(series.label, series.times, series.values)],
            title=f"{graph.kind}:{graph.n}", xlabel="t", ylabel=series.label,
        )) if svg else None
        return _write(out_dir, name, [(name, comments, ["t", "value"], rows)], plot)

    return run


def _table(params: dict):
    check_keys(params, ("name", "mode", "n_values", "phi", "horizon", "dt", "theta_candidates"),
               "table parameter")
    mode = params["mode"]
    if mode not in ("cqw", "ctqw"):
        raise ValueError(f"table mode must be 'cqw' or 'ctqw', got {mode!r}")
    n_values = _n_values(params)
    horizon, dt = as_number(params["horizon"], "horizon"), as_number(params["dt"], "dt")
    candidates = [parse_phase(t) for t in _list(params, "theta_candidates")]
    # The plain walk runs at theta = 0 alone; other candidates would be recorded unused.
    if mode == "ctqw" and candidates != [0.0]:
        raise ValueError(f"ctqw mode takes theta candidates [0.0] only, got {candidates}")
    phi = parse_phase(params["phi"])

    def run(out_dir: Path, name: str) -> list[str]:
        rows = []
        for rec in experiments.sweep_table(n_values, phi, horizon, dt, candidates):
            # The row's maximum may be the last grid point, which is no interior peak.
            extra = [p for p in rec.top_peaks if (p.t_peak, p.value) != (rec.t, rec.concurrence)]
            row = [rec.n, rec.t, rec.concurrence, rec.theta]
            for peak in (extra + [None, None])[:2]:
                row += [peak.t_peak, peak.value] if peak else ["", ""]
            row.append("even-n" if rec.n % 2 == 0 else "")
            rows.append(row)
        comments = [
            f"chiralwalk table mode={mode}",
            f"phi={io.format_number(phi)} horizon={io.format_number(horizon)} "
            f"dt={io.format_number(dt)}",
            "theta candidates: " + ",".join(io.format_number(t) for t in candidates),
            "t2,c2,t3,c3 are the runner-up local maxima (near-tie audit)",
        ]
        header = ["n", "t", "concurrence", "theta", "t2", "c2", "t3", "c3", "note"]
        return _write(out_dir, name, [(name, comments, header, rows)])

    return run


def _scaling(params: dict):
    check_keys(params, ("name", "theta", "state", "n_values", "grid", "svg"), "scaling parameter")
    theta = parse_phase(params["theta"])
    state = StateSpec.from_dict(params["state"])
    n_values = _n_values(params)
    grid, svg = TimeGrid.from_dict(params["grid"]), _svg(params)

    def run(out_dir: Path, name: str) -> list[str]:
        result = experiments.scaling_sweep(n_values, theta, state, grid)
        comments = [
            "chiralwalk scaling",
            f"theta={io.format_number(theta)} {state.comment()}",
            grid.comment(),
            f"fit: slope={io.format_number(result.slope)} "
            f"intercept={io.format_number(result.intercept)} "
            f"r_squared={io.format_number(result.r_squared)}",
        ]
        ns = [e[0] for e in result.entries]
        plot = (lambda: svgplot.line_plot(
            [("t_peak", ns, [e[1] for e in result.entries]),
             ("concurrence", ns, [e[2] for e in result.entries])],
            title="first-peak transfer scaling", xlabel="chain size n", ylabel="value",
        )) if svg else None
        return _write(out_dir, name,
                      [(name, comments, ["n", "t_peak", "concurrence"], result.entries)], plot)

    return run


def _snapshots(params: dict):
    check_keys(params, ("name", "graph", "state", "times", "svg"), "snapshots parameter")
    graph, state = GraphSpec.from_dict(params["graph"]), StateSpec.from_dict(params["state"])
    times = [as_number(t, "times") for t in _list(params, "times")]
    svg = _svg(params)

    def run(out_dir: Path, name: str) -> list[str]:
        mats = experiments.concurrence_matrix_snapshots(graph, state, times)
        header = [f"c{j + 1}" for j in range(graph.n)]
        tables = [
            (f"{name}-t{k}", ["chiralwalk snapshots", graph.comment(), state.comment(),
                              f"t={io.format_number(t)}"], header, mat)
            for k, (t, mat) in enumerate(zip(times, mats))
        ]
        plot = (lambda: svgplot.heatmap_grid(
            [m.tolist() for m in mats],
            [f"t={io.format_number(t)}" for t in times],
            title=f"pairwise concurrence, {graph.kind}:{graph.n}",
        )) if svg else None
        return _write(out_dir, name, tables, plot)

    return run


def _graph_export(params: dict):
    check_keys(params, ("name", "graph"), "graph-export parameter")
    graph = GraphSpec.from_dict(params["graph"])

    def run(out_dir: Path, name: str) -> list[str]:
        g = graph.build()
        H = graphs.hamiltonian(g)
        io.write_json(out_dir / f"{name}.graph.json", graphs.graph_json_dict(g))
        n = g.n_vertices
        header = [f"{part}{j + 1}" for j in range(n) for part in ("re", "im")]
        rows = np.stack([H.real, H.imag], axis=-1).reshape(n, 2 * n)
        comments = ["chiralwalk graph-export", graph.comment(),
                    "columns interleave re,im per vertex"]
        return [f"{name}.graph.json"] + _write(
            out_dir, name, [(f"{name}.matrix", comments, header, rows)])

    return run


# Subcommand -> its load step, which returns the subcommand's runner.
COMMANDS = {
    "trace": _trace,
    "table": _table,
    "scaling": _scaling,
    "snapshots": _snapshots,
    "graph-export": _graph_export,
}


def load(command, params: dict):
    """Parse a subcommand's parameters, in their manifest form, into specs.

    Returns the runner bound to the parsed values, ``run(out_dir, name) ->
    output file names``, and the checked output name.  A parameter that does
    not parse, or that the step does not read, raises ValueError, IndexError,
    KeyError or TypeError (a usage error).  The library functions the runner
    calls check each value before they compute, and raise ValueError or
    IndexError for a bad one, which ``main`` reports as the same usage error.  A trace's measure is written
    back into ``params`` in its canonical form, which the manifest records.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown subcommand {command!r}")
    name = check_name(params["name"])
    return COMMANDS[command](params), name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralwalk",
        description="Quantum-walk entanglement transfer on triangular chains and rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, name):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--name", default=name, help="output basename")

    p = sub.add_parser("trace", help="sample a measure over a time grid")
    p.add_argument("--graph", required=True, help="KIND:N, e.g. tri:5")
    p.add_argument("--theta", default="0", help="chiral phase (radians or Npi)")
    p.add_argument("--magnitude", default="1")
    p.add_argument("--state", required=True, help="localized:I | pair:I,J[:PHI] | werner:B")
    p.add_argument("--measure", required=True,
                   help="concurrence[:I,J] | pts-bures | occupation:I | "
                        "werner-fidelity | transfer-fidelity[:PHI]")
    p.add_argument("--t", required=True, dest="grid", help="START:END:DT")
    p.add_argument("--svg", action="store_true")
    add_common(p, "trace")

    p = sub.add_parser("table", help="long-time optimum concurrence per chain size")
    p.add_argument("--mode", choices=("cqw", "ctqw"), required=True)
    p.add_argument("--n", required=True, dest="n_values", help="sizes, e.g. 5:33:2 or 5,7,9")
    p.add_argument("--phi", default="pi")
    p.add_argument("--horizon", default=experiments.LONG_TIME_HORIZON)
    p.add_argument("--dt", default=experiments.LONG_TIME_DT)
    p.add_argument("--theta-candidates",
                   help="comma list of phases, or grid:K for K points over (-pi, pi] "
                        "(cqw mode)")
    add_common(p, None)

    p = sub.add_parser("scaling", help="first-peak transfer time vs chain size")
    p.add_argument("--theta", default="0.5pi")
    p.add_argument("--n", default="5:71:2", dest="n_values")
    p.add_argument("--state")
    p.add_argument("--t", dest="grid")
    p.add_argument("--svg", action="store_true")
    add_common(p, "scaling")

    p = sub.add_parser("snapshots", help="pairwise concurrence matrices at fixed times")
    p.add_argument("--graph", default="tri:5")
    p.add_argument("--theta", default="0.5pi")
    p.add_argument("--state")
    p.add_argument("--times", required=True, help="comma list of times")
    p.add_argument("--svg", action="store_true")
    add_common(p, "snapshots")

    p = sub.add_parser("graph-export", help="write a graph and its matrix")
    p.add_argument("--graph", required=True)
    p.add_argument("--theta", default="0")
    p.add_argument("--magnitude", default="1")
    add_common(p, "graph")

    p = sub.add_parser("rerun", help="replay a run from its manifest")
    p.add_argument("manifest", help="path to a *.manifest.json file")
    p.add_argument("--out", default=".", help="output directory")

    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """The manifest parameters of the parsed flags, each flag read once through
    its text form in specs, whichever subcommand has it; load() checks them."""
    flags, params = vars(args), {"name": args.name}
    if "graph" in flags:  # the phase and magnitude flags are the graph's
        params["graph"] = GraphSpec.from_text(args.graph, args.theta,
                                              flags.get("magnitude", "1")).to_dict()
    elif "theta" in flags:
        params["theta"] = parse_phase(args.theta)
    if "state" in flags:
        params["state"] = (experiments.TRANSFER_STATE if args.state is None
                           else StateSpec.from_text(args.state)).to_dict()
    if "measure" in flags:
        params["measure"] = args.measure
    if "grid" in flags:
        params["grid"] = (experiments.SCALING_GRID if args.grid is None
                          else TimeGrid.from_text(args.grid)).to_dict()
    if "n_values" in flags:
        params["n_values"] = parse_int_list(args.n_values)
    if "times" in flags:
        params["times"] = [parse_real(t, "time") for t in args.times.split(",") if t != ""]
    if "svg" in flags:
        params["svg"] = args.svg
    if args.command == "table":
        params.update(
            mode=args.mode, phi=parse_phase(args.phi),
            horizon=parse_real(args.horizon, "horizon"), dt=parse_real(args.dt, "dt"),
            # An explicit list in ctqw mode goes to load(), which rejects it.
            theta_candidates=(parse_theta_candidates(args.theta_candidates)
                              if args.theta_candidates is not None
                              else [0.0] if args.mode == "ctqw"
                              else list(experiments.THETA_CANDIDATES)),
            name=f"table-{args.mode}" if args.name is None else args.name)
    return params


# A token with one of these starts is a negative value (-0.4pi, -1:1:0.5, -1,2).
NEGATIVE_VALUE_STARTS = tuple(f"-{c}" for c in "0123456789.") + ("-pi",)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write ``--flag -0.4pi`` as ``--flag=-0.4pi``.

    argparse reads a token that starts with '-' as an option unless it is a
    plain number, so a negative phase, grid or time list would lose its flag.
    """
    attached = []
    for arg in argv:
        flag = attached[-1] if attached else ""
        if arg.startswith(NEGATIVE_VALUE_STARTS) and flag[:2] == "--" and flag[2:] and "=" not in flag:
            attached[-1] = f"{flag}={arg}"
        else:
            attached.append(arg)
    return attached


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    out_dir = Path(args.out)
    rerun = args.command == "rerun"
    context = f"cannot load manifest {args.manifest!r}: " if rerun else ""

    try:
        if rerun:
            manifest = json.loads(Path(args.manifest).read_text())
            command, params = manifest["subcommand"], manifest["parameters"]
        else:
            command, params = args.command, _resolve(args)
        run, name = load(command, params)
    except KeyError as exc:
        parser.error(f"{context}missing key {exc}")
    except (OSError, TypeError, ValueError, IndexError) as exc:
        parser.error(f"{context}{exc}")

    started = time.perf_counter()
    try:
        # A non-finite result is an error of its own (ArithmeticError), so the
        # overflow and NaN warnings on the way to it are not printed.
        with np.errstate(over="ignore", invalid="ignore"):
            outputs = run(out_dir, name)
        io.write_json(out_dir / f"{name}.manifest.json", {
            "tool": "chiralwalk",
            "version": io.version_string(),
            "subcommand": command,
            "parameters": params,
            "outputs": outputs,
            "wall_time_s": round(time.perf_counter() - started, 6),
        })
    # LinAlgError is a ValueError, but a numerical failure: it must match first.
    except (OSError, ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"chiralwalk: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except (ValueError, IndexError) as exc:
        parser.error(f"{context}{exc}")
    for fname in outputs:
        print(out_dir / fname)
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

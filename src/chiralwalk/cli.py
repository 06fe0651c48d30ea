"""Command-line interface: traces, tables, scaling sweeps, snapshots, exports.

Every run writes the requested CSV output plus a JSON manifest that captures
the resolved parameters; ``chiralwalk rerun MANIFEST`` replays a manifest and
reproduces the CSV byte for byte.  Exit codes: 0 success, 1 numerical or
runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments, graphs, io, measures, svgplot
from .experiments import GraphSpec, StateSpec, TimeGrid

WORKERS_ENV = "CHIRALWALK_WORKERS"

GRAPH_KINDS = ("tri", "cycle", "pentagram", "complete")


# ---------------------------------------------------------------------------
# flag parsing


def parse_phase(text: str) -> float:
    """Parse an angle given in radians ('1.64') or as 'Npi' shorthand ('0.5pi')."""
    s = str(text).strip().lower().replace(" ", "")
    factor = 1.0
    if s.endswith("pi"):
        s = s[:-2]
        factor = math.pi
        if s in ("", "+"):
            s = "1"
        elif s == "-":
            s = "-1"
    try:
        value = float(s) * factor
    except ValueError:
        raise ValueError(f"cannot parse phase {text!r}; use radians or e.g. '0.75pi'")
    if not math.isfinite(value):
        raise ValueError(f"phase must be finite, got {text!r}")
    return value


def parse_graph(text: str, theta: float, magnitude: float) -> GraphSpec:
    parts = str(text).split(":")
    if len(parts) != 2 or parts[0] not in GRAPH_KINDS:
        raise ValueError(
            f"cannot parse graph {text!r}; expected KIND:N with KIND in {GRAPH_KINDS}"
        )
    kind = "pentagram" if parts[0] == "complete" else parts[0]
    return GraphSpec(kind, int(parts[1]), theta, magnitude)


def parse_state(text: str) -> StateSpec:
    s = str(text).strip()
    if s.startswith("{"):
        d = json.loads(s)
        kind = d.get("kind")
        if kind == "localized":
            return StateSpec("localized", site=int(d["site"]))
        if kind == "pair":
            phi = d.get("phi", "pi")
            phi = parse_phase(phi) if isinstance(phi, str) else float(phi)
            return StateSpec("pair", i=int(d.get("i", 1)), j=int(d.get("j", 2)), phi=phi)
        if kind == "werner":
            return StateSpec("werner", b=float(d["b"]))
        raise ValueError(f"unknown state kind {kind!r}")
    parts = s.split(":")
    if parts[0] == "localized" and len(parts) == 2:
        return StateSpec("localized", site=int(parts[1]))
    if parts[0] == "pair" and len(parts) in (2, 3):
        ij = parts[1].split(",")
        if len(ij) != 2:
            raise ValueError(f"pair state needs two sites, got {parts[1]!r}")
        phi = parse_phase(parts[2]) if len(parts) == 3 else math.pi
        return StateSpec("pair", i=int(ij[0]), j=int(ij[1]), phi=phi)
    if parts[0] == "werner" and len(parts) == 2:
        return StateSpec("werner", b=float(parts[1]))
    raise ValueError(
        f"cannot parse state {text!r}; expected localized:I, pair:I,J[:PHI], werner:B, or JSON"
    )


def validate_measure(text: str, n: int) -> str:
    """Check a measure spec, and its concurrence pair or occupation site against n."""
    kind, _, arg = str(text).partition(":")
    if kind == "concurrence":
        if arg:
            pair = arg.split(",")
            if len(pair) != 2 or not all(p.strip().lstrip("-").isdigit() for p in pair):
                raise ValueError(f"concurrence pair must be I,J, got {arg!r}")
            measures._site_pair_indices(n, int(pair[0]), int(pair[1]))
    elif kind == "occupation":
        if not arg.strip().lstrip("-").isdigit():
            raise ValueError(f"occupation needs a site index, got {arg!r}")
        if not 1 <= int(arg) <= n:
            raise IndexError(f"occupation site {int(arg)} out of range 1..{n}")
    elif kind == "transfer-fidelity":
        if arg:
            parse_phase(arg)
    elif kind in ("pts-bures", "werner-fidelity"):
        if arg:
            raise ValueError(f"measure {kind!r} takes no argument")
    else:
        raise ValueError(f"unknown measure {text!r}")
    return str(text)


def parse_grid(text: str) -> TimeGrid:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ValueError(f"cannot parse grid {text!r}; expected START:END:DT")
    return TimeGrid(float(parts[0]), float(parts[1]), float(parts[2]))


def parse_theta_candidates(text: str) -> list[float]:
    """Comma list of phases, or ``grid:K`` for K points evenly over (-pi, pi]."""
    s = str(text).strip()
    if s.startswith("grid:"):
        k = int(s[5:])
        if k < 1:
            raise ValueError(f"grid size must be positive, got {k}")
        return [-math.pi + 2 * math.pi * step / k for step in range(1, k + 1)]
    values = [parse_phase(t) for t in s.split(",") if t != ""]
    if not values:
        raise ValueError("need at least one theta candidate")
    return values


def parse_int_list(text: str) -> list[int]:
    s = str(text).strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) == 2:
            lo, hi, step = int(parts[0]), int(parts[1]), 2
        elif len(parts) == 3:
            lo, hi, step = int(parts[0]), int(parts[1]), int(parts[2])
        else:
            raise ValueError(f"cannot parse size list {text!r}")
        if step < 1 or hi < lo:
            raise ValueError(f"bad size range {text!r}")
        return list(range(lo, hi + 1, step))
    return [int(x) for x in s.split(",") if x != ""]


def parse_float_list(text: str) -> list[float]:
    vals = [float(x) for x in str(text).split(",") if x != ""]
    if not vals:
        raise ValueError("empty list")
    return vals


def check_name(name) -> str:
    """An output basename: non-empty, not '.' or '..', without path separators."""
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValueError(
            f"output name must be a plain file name without '/' or '\\', got {name!r}"
        )
    return name


def _name(args: argparse.Namespace, default: str) -> str:
    return check_name(default if args.name is None else args.name)


def _workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# serializable parameter dicts (stored in manifests)


def _graph_dict(g: GraphSpec) -> dict:
    return {"kind": g.kind, "n": g.n, "theta": g.theta, "magnitude": g.magnitude}


def _graph_from_dict(d: dict) -> GraphSpec:
    return GraphSpec(d["kind"], int(d["n"]), float(d["theta"]), float(d.get("magnitude", 1.0)))


def _state_dict(s: StateSpec) -> dict:
    if s.kind == "localized":
        return {"kind": "localized", "site": s.site}
    if s.kind == "pair":
        return {"kind": "pair", "i": s.i, "j": s.j, "phi": s.phi}
    return {"kind": "werner", "b": s.b}


def _state_from_dict(d: dict) -> StateSpec:
    if d["kind"] == "localized":
        return StateSpec("localized", site=int(d["site"]))
    if d["kind"] == "pair":
        return StateSpec("pair", i=int(d["i"]), j=int(d["j"]), phi=float(d["phi"]))
    return StateSpec("werner", b=float(d["b"]))


def _grid_dict(g: TimeGrid) -> dict:
    return {"t_start": g.t_start, "t_end": g.t_end, "dt": g.dt}


def _grid_from_dict(d: dict) -> TimeGrid:
    return TimeGrid(float(d["t_start"]), float(d["t_end"]), float(d["dt"]))


def _check_manifest_parameters(command: str, params: dict) -> None:
    # Build every spec a manifest holds, so that a bad value is caught while
    # loading (a usage error) rather than while running.
    check_name(params["name"])
    from_dict = {"graph": _graph_from_dict, "state": _state_from_dict, "grid": _grid_from_dict}
    specs = {key: build(params[key]) for key, build in from_dict.items() if key in params}
    if command == "trace":
        validate_measure(params["measure"], specs["graph"].n)


def _state_comment(s: StateSpec) -> str:
    d = _state_dict(s)
    return " ".join([d.pop("kind")] + [f"{k}={io.format_number(v)}" for k, v in d.items()])


def _write_manifest(out_dir: Path, name: str, subcommand: str, params: dict,
                    outputs: list[str], started: float) -> Path:
    manifest = {
        "tool": "chiralwalk",
        "version": io.version_string(),
        "subcommand": subcommand,
        "parameters": params,
        "outputs": outputs,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    path = out_dir / f"{name}.manifest.json"
    io.write_json(path, manifest)
    return path


# ---------------------------------------------------------------------------
# subcommand implementations (operate on resolved parameter dicts)


def run_trace(params: dict, out_dir: Path) -> list[str]:
    started = time.perf_counter()
    gspec = _graph_from_dict(params["graph"])
    sspec = _state_from_dict(params["state"])
    grid = _grid_from_dict(params["grid"])
    measure = params["measure"]
    name = params["name"]

    kind, _, arg = measure.partition(":")
    if kind == "concurrence":
        pair = tuple(int(x) for x in arg.split(",")) if arg else None
        series = experiments.concurrence_trace(gspec, sspec, grid, pair)
    elif kind == "pts-bures":
        series = experiments.bures_trace(gspec, sspec, grid)
    elif kind == "occupation":
        series = experiments.occupation_trace(gspec, sspec, grid, int(arg))
    elif kind == "werner-fidelity":
        if sspec.kind != "werner":
            raise ValueError("werner-fidelity needs a werner state")
        series = experiments.werner_trace(gspec.n, sspec.b, gspec.theta, grid)
    elif kind == "transfer-fidelity":
        phi = parse_phase(arg) if arg else None
        series = experiments.transfer_fidelity_trace(gspec, sspec, grid, phi)
    else:
        raise ValueError(f"unknown measure {measure!r}")

    comments = [
        "chiralwalk trace",
        f"graph: {gspec.kind}:{gspec.n} theta={io.format_number(gspec.theta)} "
        f"magnitude={io.format_number(gspec.magnitude)}",
        f"state: {_state_comment(sspec)}",
        f"measure: {measure}",
        f"grid: start={io.format_number(grid.t_start)} end={io.format_number(grid.t_end)} "
        f"dt={io.format_number(grid.dt)}",
    ]
    outputs = [f"{name}.csv"]
    io.write_csv(out_dir / outputs[0], comments, ["t", "value"],
                 zip(series.times, series.values))
    if params.get("svg"):
        svg = svgplot.line_plot(
            [(series.label, list(series.times), list(series.values))],
            title=f"{gspec.kind}:{gspec.n}", xlabel="t", ylabel=series.label,
        )
        outputs.append(f"{name}.svg")
        io.atomic_write_text(out_dir / outputs[-1], svg)
    _write_manifest(out_dir, name, "trace", params, outputs, started)
    return outputs


def run_table(params: dict, out_dir: Path, workers: int = 1) -> list[str]:
    started = time.perf_counter()
    mode = params["mode"]
    n_values = [int(n) for n in params["n_values"]]
    phi = float(params["phi"])
    horizon = float(params["horizon"])
    dt = float(params["dt"])
    candidates = tuple(float(t) for t in params["theta_candidates"])
    name = params["name"]

    records = experiments.sweep_table(mode, n_values, phi, horizon, dt, candidates, workers)
    rows = []
    for rec in records:
        extra = list(rec.top_peaks[1:3]) + [None, None]
        row = [rec.n, rec.t, rec.concurrence, rec.theta]
        for peak in extra[:2]:
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
    outputs = [f"{name}.csv"]
    io.write_csv(out_dir / outputs[0], comments,
                 ["n", "t", "concurrence", "theta", "t2", "c2", "t3", "c3", "note"], rows)
    _write_manifest(out_dir, name, "table", params, outputs, started)
    return outputs


def run_scaling(params: dict, out_dir: Path, workers: int = 1) -> list[str]:
    started = time.perf_counter()
    theta = float(params["theta"])
    n_values = [int(n) for n in params["n_values"]]
    sspec = _state_from_dict(params["state"])
    grid = _grid_from_dict(params["grid"])
    name = params["name"]

    result = experiments.scaling_sweep(n_values, theta, sspec, grid, workers)
    comments = [
        "chiralwalk scaling",
        f"theta={io.format_number(theta)} state: {_state_comment(sspec)}",
        f"grid: start={io.format_number(grid.t_start)} end={io.format_number(grid.t_end)} "
        f"dt={io.format_number(grid.dt)}",
        f"fit: slope={io.format_number(result.slope)} "
        f"intercept={io.format_number(result.intercept)} "
        f"r_squared={io.format_number(result.r_squared)}",
    ]
    outputs = [f"{name}.csv"]
    io.write_csv(out_dir / outputs[0], comments, ["n", "t_peak", "concurrence"],
                 result.entries)
    if params.get("svg"):
        ns = [e[0] for e in result.entries]
        svg = svgplot.line_plot(
            [("t_peak", ns, [e[1] for e in result.entries]),
             ("concurrence", ns, [e[2] for e in result.entries])],
            title="first-peak transfer scaling", xlabel="chain size n", ylabel="value",
        )
        outputs.append(f"{name}.svg")
        io.atomic_write_text(out_dir / outputs[-1], svg)
    _write_manifest(out_dir, name, "scaling", params, outputs, started)
    return outputs


def run_snapshots(params: dict, out_dir: Path) -> list[str]:
    started = time.perf_counter()
    gspec = _graph_from_dict(params["graph"])
    sspec = _state_from_dict(params["state"])
    times = [float(t) for t in params["times"]]
    name = params["name"]
    if not times:
        raise ValueError("need at least one snapshot time")

    mats = experiments.concurrence_matrix_snapshots(gspec, sspec, times)
    outputs = []
    for k, (t, mat) in enumerate(zip(times, mats)):
        comments = [
            "chiralwalk snapshots",
            f"graph: {gspec.kind}:{gspec.n} theta={io.format_number(gspec.theta)}",
            f"state: {_state_comment(sspec)}",
            f"t={io.format_number(t)}",
        ]
        fname = f"{name}-t{k}.csv"
        io.write_csv(out_dir / fname, comments,
                     [f"c{j + 1}" for j in range(gspec.n)], mat)
        outputs.append(fname)
    if params.get("svg"):
        svg = svgplot.heatmap_grid(
            [m.tolist() for m in mats],
            [f"t={io.format_number(t)}" for t in times],
            title=f"pairwise concurrence, {gspec.kind}:{gspec.n}",
        )
        outputs.append(f"{name}.svg")
        io.atomic_write_text(out_dir / outputs[-1], svg)
    _write_manifest(out_dir, name, "snapshots", params, outputs, started)
    return outputs


def run_graph_export(params: dict, out_dir: Path) -> list[str]:
    started = time.perf_counter()
    gspec = _graph_from_dict(params["graph"])
    name = params["name"]
    g = gspec.build()
    H = graphs.hamiltonian(g)

    outputs = [f"{name}.graph.json", f"{name}.matrix.csv"]
    io.write_json(out_dir / outputs[0], graphs.graph_json_dict(g))
    header = []
    for j in range(g.n_vertices):
        header += [f"re{j + 1}", f"im{j + 1}"]
    rows = []
    for r in range(g.n_vertices):
        row = []
        for c in range(g.n_vertices):
            row += [H[r, c].real, H[r, c].imag]
        rows.append(row)
    comments = [
        "chiralwalk graph-export",
        f"graph: {gspec.kind}:{gspec.n} theta={io.format_number(gspec.theta)} "
        f"magnitude={io.format_number(gspec.magnitude)}",
        "columns interleave re,im per vertex",
    ]
    io.write_csv(out_dir / outputs[1], comments, header, rows)
    _write_manifest(out_dir, name, "graph-export", params, outputs, started)
    return outputs


_RUNNERS = {
    "trace": lambda p, out, workers: run_trace(p, out),
    "table": run_table,
    "scaling": run_scaling,
    "snapshots": lambda p, out, workers: run_snapshots(p, out),
    "graph-export": lambda p, out, workers: run_graph_export(p, out),
}


# ---------------------------------------------------------------------------
# argument parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralwalk",
        description="Quantum-walk entanglement transfer on triangular chains and rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--name", default=None, help="output basename")

    p = sub.add_parser("trace", help="sample a measure over a time grid")
    p.add_argument("--graph", required=True, help="KIND:N, e.g. tri:5")
    p.add_argument("--theta", default="0", help="chiral phase (radians or Npi)")
    p.add_argument("--magnitude", type=float, default=1.0)
    p.add_argument("--state", required=True, help="localized:I | pair:I,J[:PHI] | werner:B")
    p.add_argument("--measure", required=True,
                   help="concurrence[:I,J] | pts-bures | occupation:I | "
                        "werner-fidelity | transfer-fidelity[:PHI]")
    p.add_argument("--t", required=True, dest="grid", help="START:END:DT")
    p.add_argument("--svg", action="store_true")
    add_common(p)

    p = sub.add_parser("table", help="long-time optimum concurrence per chain size")
    p.add_argument("--mode", choices=("cqw", "ctqw"), required=True)
    p.add_argument("--n", required=True, dest="n_values", help="sizes, e.g. 5:33:2 or 5,7,9")
    p.add_argument("--phi", default="pi")
    p.add_argument("--horizon", type=float, default=500.0)
    p.add_argument("--dt", type=float, default=experiments.LONG_TIME_DT)
    p.add_argument("--theta-candidates", default="-0.5pi,0.5pi",
                   help="comma list of phases, or grid:K for K points over (-pi, pi] "
                        "(cqw mode)")
    add_common(p)

    p = sub.add_parser("scaling", help="first-peak transfer time vs chain size")
    p.add_argument("--theta", default="0.5pi")
    p.add_argument("--n", default="5:71:2", dest="n_values")
    p.add_argument("--state", default="pair:1,2:pi")
    p.add_argument("--t", default="0:40:0.005", dest="grid")
    p.add_argument("--svg", action="store_true")
    add_common(p)

    p = sub.add_parser("snapshots", help="pairwise concurrence matrices at fixed times")
    p.add_argument("--graph", default="tri:5")
    p.add_argument("--theta", default="0.5pi")
    p.add_argument("--state", default="pair:1,2:pi")
    p.add_argument("--times", required=True, help="comma list of times")
    p.add_argument("--svg", action="store_true")
    add_common(p)

    p = sub.add_parser("graph-export", help="write a graph and its matrix")
    p.add_argument("--graph", required=True)
    p.add_argument("--theta", default="0")
    p.add_argument("--magnitude", type=float, default=1.0)
    add_common(p)

    p = sub.add_parser("rerun", help="replay a run from its manifest")
    p.add_argument("manifest", help="path to a *.manifest.json file")
    p.add_argument("--out", default=".", help="output directory")

    return parser


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    # Turn raw flags into the manifest parameter dict; bad flags exit 2.
    try:
        cmd = args.command
        if cmd == "trace":
            theta = parse_phase(args.theta)
            gspec = parse_graph(args.graph, theta, args.magnitude)
            sspec = parse_state(args.state)
            grid = parse_grid(args.grid)
            return {
                "graph": _graph_dict(gspec),
                "state": _state_dict(sspec),
                "measure": validate_measure(args.measure, gspec.n),
                "grid": _grid_dict(grid),
                "svg": bool(args.svg),
                "name": _name(args, "trace"),
            }
        if cmd == "table":
            return {
                "mode": args.mode,
                "n_values": parse_int_list(args.n_values),
                "phi": parse_phase(args.phi),
                "horizon": float(args.horizon),
                "dt": float(args.dt),
                "theta_candidates": (
                    [0.0] if args.mode == "ctqw"
                    else parse_theta_candidates(args.theta_candidates)
                ),
                "name": _name(args, f"table-{args.mode}"),
            }
        if cmd == "scaling":
            return {
                "theta": parse_phase(args.theta),
                "n_values": parse_int_list(args.n_values),
                "state": _state_dict(parse_state(args.state)),
                "grid": _grid_dict(parse_grid(args.grid)),
                "svg": bool(args.svg),
                "name": _name(args, "scaling"),
            }
        if cmd == "snapshots":
            theta = parse_phase(args.theta)
            return {
                "graph": _graph_dict(parse_graph(args.graph, theta, 1.0)),
                "state": _state_dict(parse_state(args.state)),
                "times": parse_float_list(args.times),
                "svg": bool(args.svg),
                "name": _name(args, "snapshots"),
            }
        if cmd == "graph-export":
            theta = parse_phase(args.theta)
            return {
                "graph": _graph_dict(parse_graph(args.graph, theta, args.magnitude)),
                "name": _name(args, "graph"),
            }
        raise AssertionError(cmd)
    except (ValueError, IndexError, KeyError) as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)

    if args.command == "rerun":
        try:
            manifest = json.loads(Path(args.manifest).read_text())
            command = manifest["subcommand"]
            params = manifest["parameters"]
            runner = _RUNNERS[command]
            _check_manifest_parameters(command, params)
        except KeyError as exc:
            parser.error(f"cannot load manifest {args.manifest!r}: missing key {exc}")
        except (OSError, json.JSONDecodeError, TypeError, ValueError, IndexError) as exc:
            parser.error(f"cannot load manifest {args.manifest!r}: {exc}")
    else:
        command = args.command
        params = _resolve(args, parser)
        runner = _RUNNERS[command]

    try:
        outputs = runner(params, out_dir, _workers())
    except (KeyError, TypeError) as exc:
        # Flags always resolve to complete, well-typed parameters; a manifest may not.
        if args.command != "rerun":
            raise
        problem = "lacks parameter" if isinstance(exc, KeyError) else "has a malformed parameter:"
        parser.error(f"manifest {args.manifest!r} {problem} {exc}")
    except (ValueError, IndexError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"chiralwalk: error: {exc}", file=sys.stderr)
        return 1
    for fname in outputs:
        print(out_dir / fname)
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

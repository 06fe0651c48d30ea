"""Layer tracing for the benchmark's in-process (``--trace 1``) runs.

``Tracer.install`` wraps public functions of each chiralwalk module, in every
module namespace that binds them (``experiments`` imports ``site_amplitudes``
by name, for instance), so each call records a span (name, start, end,
parent).  Spans stay in memory; ``metrics`` turns them into per-layer numbers.
A layer's time is the self time of its spans: span time minus the time of
their child spans, so the layer times of a pass add up to its traced time.

Nothing here changes what the program computes; counts are taken from the
arguments and results after a span has ended.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("cli", "graphs", "states", "dynamics", "measures", "experiments", "io", "svgplot")

# Wrapped function -> the layer metric its self time is charged to.
LAYER_OF = {
    "cli.main": "cli.self_s",
    "graphs.triangular_chain": "graphs.build_s",
    "graphs.cycle_graph": "graphs.build_s",
    "graphs.complete_graph": "graphs.build_s",
    "graphs.hamiltonian": "graphs.build_s",
    "states.localized": "states.build_s",
    "states.spatial_pair": "states.build_s",
    "states.density_from_pure": "states.build_s",
    "states.werner": "states.build_s",
    "states.target_pure": "states.build_s",
    "states.target_werner": "states.build_s",
    "dynamics.spectral_decompose": "dynamics.decompose_s",
    "dynamics.site_amplitudes": "dynamics.amplitudes_s",
    "dynamics.evolve_density": "dynamics.evolve_density_s",
    "measures.fidelity": "measures.fidelity_s",
    "measures.pts_bures": "measures.pts_bures_s",
    "measures.concurrence_pair_fast": "measures.concurrence_s",
    "measures.concurrence_matrix": "measures.concurrence_s",
    "experiments.global_max": "experiments.peaks_s",
    "experiments.top_peaks": "experiments.peaks_s",
    "experiments.first_peak": "experiments.peaks_s",
    "experiments.concurrence_trace": "experiments.trace_self_s",
    "experiments.occupation_trace": "experiments.trace_self_s",
    "experiments.transfer_fidelity_trace": "experiments.trace_self_s",
    "experiments.bures_trace": "experiments.trace_self_s",
    "experiments.werner_trace": "experiments.trace_self_s",
    "experiments.concurrence_matrix_snapshots": "experiments.trace_self_s",
    "experiments.optimize_theta": "experiments.trace_self_s",
    "experiments.ctqw_long_time": "experiments.trace_self_s",
    "experiments.sweep_table": "experiments.trace_self_s",
    "experiments.scaling_sweep": "experiments.trace_self_s",
    "io.write_csv": "io.csv_s",
    "io.write_json": "io.json_s",
    "io.version_string": "io.version_s",
    "svgplot.line_plot": "svgplot.s",
    "svgplot.heatmap_grid": "svgplot.s",
}

# Functions the interaction list in README.md says each workload calls.  A
# traced run with zero calls to one of them fails: a renamed or bypassed
# function must not read as a zero.
EXPECTED_CALLS = {
    "long-table": (
        "cli.main", "experiments.sweep_table", "experiments.optimize_theta",
        "experiments.concurrence_trace", "experiments.global_max", "experiments.top_peaks",
        "graphs.triangular_chain", "graphs.hamiltonian", "states.spatial_pair",
        "dynamics.spectral_decompose", "dynamics.site_amplitudes",
        "io.write_csv", "io.write_json", "io.version_string",
    ),
    "werner-mixed": (
        "cli.main", "experiments.werner_trace", "experiments.bures_trace",
        "experiments.concurrence_matrix_snapshots", "graphs.triangular_chain",
        "graphs.hamiltonian", "states.werner", "states.target_werner",
        "states.density_from_pure", "dynamics.spectral_decompose", "dynamics.evolve_density",
        "measures.fidelity", "measures.pts_bures", "measures.concurrence_matrix",
        "io.write_csv", "io.write_json", "io.version_string",
    ),
    "long-trace": (
        "cli.main", "experiments.concurrence_trace", "graphs.triangular_chain",
        "graphs.hamiltonian", "states.spatial_pair", "dynamics.spectral_decompose",
        "dynamics.site_amplitudes", "io.write_csv", "io.write_json", "io.version_string",
        "svgplot.line_plot",
    ),
}

# Per-layer metrics: name -> (unit, better).  cli.import_s and the trace.*
# entries are measured in run.py, the rest by Tracer.metrics.
PER_LAYER = {
    "dynamics.amplitudes_s": ("s", "lower"),
    "dynamics.amplitude_samples": ("count", "lower"),
    "dynamics.amplitude_bytes": ("bytes", "lower"),
    "dynamics.decompose_s": ("s", "lower"),
    "dynamics.decompose_calls": ("count", "lower"),
    "dynamics.evolve_density_s": ("s", "lower"),
    "dynamics.evolve_density_calls": ("count", "lower"),
    "experiments.peaks_s": ("s", "lower"),
    "experiments.peak_candidates": ("count", "lower"),
    "experiments.peak_useful_ratio": ("ratio", "higher"),
    "experiments.trace_self_s": ("s", "lower"),
    "measures.fidelity_s": ("s", "lower"),
    "measures.fidelity_calls": ("count", "lower"),
    "measures.pts_bures_s": ("s", "lower"),
    "measures.concurrence_s": ("s", "lower"),
    "io.csv_s": ("s", "lower"),
    "io.csv_bytes": ("bytes", "lower"),
    "io.json_s": ("s", "lower"),
    "io.version_s": ("s", "lower"),
    "svgplot.s": ("s", "lower"),
    "svgplot.bytes": ("bytes", "lower"),
    "graphs.build_s": ("s", "lower"),
    "states.build_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.uncovered_frac": ("ratio", "lower"),
}

SPAN_COUNTS = {
    "dynamics.decompose_calls": "dynamics.spectral_decompose",
    "dynamics.evolve_density_calls": "dynamics.evolve_density",
    "measures.fidelity_calls": "measures.fidelity",
}


class GuardError(RuntimeError):
    """A wrapped function is missing, or a predicted call never happened."""


def _count_amplitudes(counts, args, result) -> None:
    # The n x T phase matrix and the n x T amplitude matrix, complex128 each.
    counts["dynamics.amplitude_samples"] += result.size
    counts["dynamics.amplitude_bytes"] += 2 * result.nbytes


def _count_peaks(counts, args, result) -> None:
    # top_peaks refines every interior sample that is >= both neighbours.
    v = args[0].values
    mid = v[1:-1]
    counts["experiments.peak_candidates"] += int(((mid >= v[:-2]) & (mid >= v[2:])).sum())
    counts["experiments.peaks_kept"] += len(result)


def _count_csv(counts, args, result) -> None:
    counts["io.csv_bytes"] += Path(args[0]).stat().st_size


def _count_svg(counts, args, result) -> None:
    counts["svgplot.bytes"] += len(result.encode())


COUNTERS = {
    "dynamics.site_amplitudes": _count_amplitudes,
    "experiments.top_peaks": _count_peaks,
    "io.write_csv": _count_csv,
    "svgplot.line_plot": _count_svg,
    "svgplot.heatmap_grid": _count_svg,
}


def resolve() -> dict:
    """The functions to wrap, by qualified name; GuardError if one is gone."""
    found = {}
    for qualname in LAYER_OF:
        module_name, func_name = qualname.split(".")
        func = getattr(importlib.import_module(f"chiralwalk.{module_name}"), func_name, None)
        if not callable(func):
            raise GuardError(f"chiralwalk.{qualname} no longer exists")
        found[qualname] = func
    return found


class Tracer:
    """Spans and counts of one traced pass; install before, uninstall after."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module("chiralwalk")]
        modules += [importlib.import_module(f"chiralwalk.{m}") for m in MODULES]
        for qualname, original in resolve().items():
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, func):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else None))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if counter is not None:
                counter(counts, args, result)
            return result

        return wrapper

    def called(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def check_expected(self, workload: str) -> None:
        called = self.called()
        missing = [f for f in EXPECTED_CALLS[workload] if called[f] == 0]
        if missing:
            raise GuardError(f"{workload}: no calls to {', '.join(missing)}")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, without the trace.* entries."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(LAYER_OF.values(), 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[LAYER_OF[name]] += end - start - inner
        called = self.called()
        for metric, func in SPAN_COUNTS.items():
            out[metric] = float(called[func])
        for metric in ("dynamics.amplitude_samples", "dynamics.amplitude_bytes",
                       "experiments.peak_candidates", "io.csv_bytes", "svgplot.bytes"):
            out[metric] = float(self.counts[metric])
        candidates = self.counts["experiments.peak_candidates"]
        out["experiments.peak_useful_ratio"] = (
            self.counts["experiments.peaks_kept"] / candidates if candidates else 0.0
        )
        return out

    def root_time(self) -> float:
        """Time covered by spans with no parent (the cli.main calls)."""
        return sum(end - start for _, start, end, parent in self.spans if parent is None)

"""The functions the traced benchmark wraps must still exist, and be called.

``perfbench/layers.py`` wraps chiralwalk functions by name and its layer
guard fails a traced run when one is gone, or when a workload makes no call
to a function it is predicted to call.  Both checks run here on tiny
versions of each workload's CLI calls, so a rename, a deletion or a bypass
in the package shows up in the test suite, before the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

TRI5 = ["--graph", "tri:5", "--theta", "0.3"]
# Workload -> a tiny version of its CLI calls (arguments after ``chiralwalk``,
# without --out): the same subcommands, measures and state kinds.
WORKLOAD_CALLS = {
    "long-table": [["table", "--mode", "cqw", "--n", "5,7", "--horizon", "20",
                    "--theta-candidates", "0.5pi,-0.5pi,1.0"]],
    "werner-mixed": [
        ["trace", *TRI5, "--state", "werner:0.5", "--measure", measure, "--t", "0:2:0.1",
         "--name", measure] for measure in ("werner-fidelity", "pts-bures")
    ] + [["snapshots", *TRI5, "--state", "pair:1,2:0.5", "--times", "0.5,1.5"]],
    "long-trace": [["trace", *TRI5, "--state", "pair:1,2:0.5", "--measure", "concurrence",
                    "--t", "0:5:0.01", "--svg"]],
}


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(layers, out: Path, calls):
    """A tracer that has seen ``calls`` run through cli.main, each exiting 0."""
    from chiralwalk import cli

    tracer = layers.Tracer()
    tracer.install()
    try:
        for argv in calls:
            assert cli.main(argv + ["--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_every_wrapped_function_exists():
    layers = _layers()
    found = layers.resolve()
    assert set(found) == set(layers.LAYER_OF)
    expected = {name for names in layers.EXPECTED_CALLS.values() for name in names}
    assert expected <= set(found)
    assert set(WORKLOAD_CALLS) == set(layers.EXPECTED_CALLS)


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CALLS))
def test_each_workload_calls_what_its_guard_predicts(tmp_path, workload):
    layers = _layers()
    _traced(layers, tmp_path, WORKLOAD_CALLS[workload]).check_expected(workload)


def test_every_decomposed_hamiltonian_is_built_by_a_wrapped_function(tmp_path):
    """A traced table charges the build of each Hamiltonian it decomposes,
    the theta search's stacks included, to ``graphs.build_s``."""
    called = _traced(_layers(), tmp_path, WORKLOAD_CALLS["long-table"]).called()
    assert called["dynamics.spectral_decompose"] > 0
    assert called["graphs.hamiltonian"] >= called["dynamics.spectral_decompose"]

"""The functions the traced benchmark wraps must still exist.

``perfbench/layers.py`` wraps chiralwalk functions by name and its layer
guard fails a traced run when one is gone, so a rename or a deletion in the
package shows up here, in the test suite, before the benchmark runs.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    layers = _layers()
    found = layers.resolve()
    assert set(found) == set(layers.LAYER_OF)
    expected = {name for names in layers.EXPECTED_CALLS.values() for name in names}
    assert expected <= set(found)


def test_every_decomposed_hamiltonian_is_built_by_a_wrapped_function(tmp_path):
    """A traced table charges the build of each Hamiltonian it decomposes,
    the theta search's stacks included, to ``graphs.build_s``."""
    from chiralwalk import cli

    tracer = _layers().Tracer()
    tracer.install()
    try:
        code = cli.main(["table", "--mode", "cqw", "--n", "5,7", "--horizon", "20",
                         "--theta-candidates", "0.5pi,-0.5pi,1.0", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    called = tracer.called()
    assert called["dynamics.spectral_decompose"] > 0
    assert called["graphs.hamiltonian"] >= called["dynamics.spectral_decompose"]

"""Tests of the benchmark itself: seeded generation and metric naming.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEEDS = (0, 1, 2, 12345)


def _is_numeric_list(token: str) -> bool:
    # A seeded value: one float, or a comma/colon list of them after the flag.
    value = token.split("=", 1)[-1].split(":")[-1]
    try:
        [float(x) for x in value.split(",")]
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic(name):
    for seed in SEEDS:
        assert workloads.make(name, seed) == workloads.make(name, seed)
    assert workloads.make(name, 1) != workloads.make(name, 2)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_seed_does_the_same_work(name):
    base = workloads.make(name, SEEDS[0])
    for seed in SEEDS[1:]:
        other = workloads.make(name, seed)
        assert other.samples == base.samples
        assert other.subcommand == base.subcommand
        assert len(other.calls) == len(base.calls)
        for a, b in zip(base.calls, other.calls):
            assert len(a.args) == len(b.args)
            assert a.params.keys() == b.params.keys()
            for x, y in zip(a.args, b.args):
                if x != y:
                    # Only seeded numbers differ, and lists keep their length.
                    assert _is_numeric_list(x) and _is_numeric_list(y), (x, y)
                    assert x.count(",") == y.count(",") and x.count(":") == y.count(":")
                    assert x.split("=")[0] == y.split("=")[0]
            for key in ("grid", "n", "sizes", "horizon", "files"):
                assert a.params.get(key) == b.params.get(key)
            for key in ("thetas", "times", "rows"):
                assert len(a.params.get(key, ())) == len(b.params.get(key, ()))


def test_sample_counts_match_the_stated_sizes():
    assert workloads.make("long-table", 0).samples == 15 * 16 * 25001
    assert workloads.make("werner-mixed", 0).samples == 3 * 2001 + 6
    assert workloads.make("long-trace", 0).samples == 2 * 200001


def test_metric_names_and_units():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {"end_to_end": run.END_TO_END, "per_layer": layers.PER_LAYER}
    for section, metrics in declared.items():
        assert [m["name"] for m in spec[section]] == list(metrics)
        for m in spec[section]:
            assert NAME.fullmatch(m["name"]), m["name"]
            assert (m["unit"], m["better"]) == metrics[m["name"]]
    for w in spec["workloads"]:
        assert NAME.fullmatch(w["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_every_traced_function_feeds_a_declared_metric():
    assert set(layers.LAYER_OF.values()) <= set(layers.PER_LAYER)
    for expected in layers.EXPECTED_CALLS.values():
        assert set(expected) <= set(layers.LAYER_OF)
    assert set(layers.EXPECTED_CALLS) == set(workloads.NAMES)


@pytest.fixture
def chiralwalk_src(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH.parent / "src"))
    import chiralwalk

    return chiralwalk


def test_guard_rejects_a_missing_function(chiralwalk_src, monkeypatch):
    monkeypatch.delattr(chiralwalk_src.dynamics, "site_amplitudes")
    with pytest.raises(layers.GuardError, match="site_amplitudes"):
        layers.resolve()


def test_guard_rejects_a_predicted_call_that_never_happened():
    with pytest.raises(layers.GuardError, match="dynamics.site_amplitudes"):
        layers.Tracer().check_expected("long-table")


def test_tracer_wraps_every_binding_and_restores_them(chiralwalk_src):
    cw = chiralwalk_src
    original = cw.dynamics.site_amplitudes
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert cw.experiments.site_amplitudes is cw.dynamics.site_amplitudes is not original
        spec = cw.GraphSpec("tri", 5, 0.5)
        cw.concurrence_trace(spec, cw.StateSpec("pair"), cw.TimeGrid(0.0, 1.0, 0.1))
    finally:
        tracer.uninstall()
    assert cw.experiments.site_amplitudes is cw.dynamics.site_amplitudes is original
    called = tracer.called()
    assert called["dynamics.site_amplitudes"] == 1
    assert called["experiments.concurrence_trace"] == 1
    m = tracer.metrics()
    assert m["dynamics.amplitude_samples"] == 5 * 11
    assert m["dynamics.amplitude_bytes"] == 2 * 16 * 5 * 11
    # Self times partition the root span.
    layer_time = sum(v for k, v in m.items() if k.endswith("_s"))
    assert layer_time == pytest.approx(tracer.root_time())


def test_checks_accept_the_program_and_catch_a_changed_digit(chiralwalk_src, tmp_path, capsys):
    import checks
    from chiralwalk import cli

    grid, theta, phi = (0.0, 1.0, 0.1), 0.7, 2.0
    args = ["trace", "--graph", "tri:5", f"--theta={theta!r}", f"--state=pair:1,2:{phi!r}",
            "--measure", "concurrence", "--t=0.0:1.0:0.1", "--out", str(tmp_path / "out"),
            "--name", "t"]
    assert cli.main(args) == 0
    params = dict(name="t", n=5, theta=theta, phi=phi, grid=grid, rows=(0, 4, 10))
    checks.pure_trace(tmp_path, **params)

    path = tmp_path / "out" / "t.csv"
    lines = path.read_text().split("\n")
    row = next(k for k, line in enumerate(lines) if line.startswith("0.4,"))
    t, value = lines[row].split(",")
    lines[row] = f"{t},{float(value) + 1e-9:.12g}"
    path.write_text("\n".join(lines))
    with pytest.raises(checks.CheckFailed, match="t=0.4"):
        checks.pure_trace(tmp_path, **params)

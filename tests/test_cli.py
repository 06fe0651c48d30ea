import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import chiralwalk
from chiralwalk import cli, dynamics, experiments, graphs, measures, specs, states
from chiralwalk.dynamics import evolve_density
from chiralwalk.experiments import concurrence_trace
from chiralwalk.io import format_number, version_string
from chiralwalk.specs import GraphSpec, StateSpec, TimeGrid


class TestPhaseParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.5pi", math.pi / 2),
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("-0.75pi", -0.75 * math.pi),
            ("2pi", 2 * math.pi),
            ("1.64", 1.64),
            ("0", 0.0),
            (" 0.5 pi ", math.pi / 2),
        ],
    )
    def test_accepts(self, text, expected):
        assert specs.parse_phase(text) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("text", ["piip", "0.5tau", "", "pi0.5", "nan"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            specs.parse_phase(text)

    @pytest.mark.parametrize("text", [" 1", "1 ", "\t1", "1\n", " 1 "])
    def test_only_phases_allow_surrounding_whitespace(self, text):
        for parse in (specs.parse_int, specs.parse_real):
            with pytest.raises(ValueError, match="must be"):
                parse(text, "x")
        assert specs.parse_phase(text) == 1.0


class TestSpecParsing:
    def test_graph_kinds(self):
        g = specs.GraphSpec.from_text("tri:5", 0.1, 1.0)
        assert (g.kind, g.n, g.theta) == ("tri", 5, 0.1)
        assert specs.GraphSpec.from_text("complete:4", 0.0, 1.0).kind == "pentagram"
        with pytest.raises(ValueError):
            specs.GraphSpec.from_text("blob:5", 0.0, 1.0)
        with pytest.raises(ValueError):
            specs.GraphSpec.from_text("tri", 0.0, 1.0)

    def test_state_flag_forms(self):
        s = specs.StateSpec.from_text("pair:1,2:pi")
        assert (s.kind, s.i, s.j) == ("pair", 1, 2)
        assert s.phi == pytest.approx(math.pi)
        assert specs.StateSpec.from_text("localized:3").site == 3
        assert specs.StateSpec.from_text("werner:-0.25").b == -0.25
        assert specs.StateSpec.from_text("pair:2,4").phi == pytest.approx(math.pi)

    def test_state_json_forms(self):
        s = specs.StateSpec.from_text('{"kind": "pair", "i": 1, "j": 2, "phi": "0.75pi"}')
        assert s.phi == pytest.approx(0.75 * math.pi)
        assert specs.StateSpec.from_text('{"kind": "localized", "site": 2}').site == 2
        assert specs.StateSpec.from_text('{"kind": "werner", "b": 0.5}').b == 0.5
        with pytest.raises(ValueError):
            specs.StateSpec.from_text('{"kind": "ghz"}')

    def test_state_rejects_malformed(self):
        for text in ["pair:1", "pair:1,2,3:pi", "blob:1", "localized"]:
            with pytest.raises(ValueError):
                specs.StateSpec.from_text(text)

    def test_grid(self):
        g = specs.TimeGrid.from_text("0:10:0.005")
        assert (g.t_start, g.t_end, g.dt) == (0.0, 10.0, 0.005)
        with pytest.raises(ValueError):
            specs.TimeGrid.from_text("0:10")

    def test_int_list(self):
        assert specs.parse_int_list("5:9:2") == [5, 7, 9]
        assert specs.parse_int_list("5:9") == [5, 7, 9]
        assert specs.parse_int_list("4,8,6") == [4, 8, 6]
        with pytest.raises(ValueError):
            specs.parse_int_list("9:5")

    def test_theta_candidates(self):
        assert specs.parse_theta_candidates("-0.5pi,0.5pi") == [-math.pi / 2, math.pi / 2]
        grid = specs.parse_theta_candidates("grid:8")
        assert len(grid) == 8
        assert grid[-1] == pytest.approx(math.pi)
        assert all(-math.pi < t <= math.pi for t in grid)
        with pytest.raises(ValueError):
            specs.parse_theta_candidates("grid:0")
        with pytest.raises(ValueError):
            specs.parse_theta_candidates("")

    # Each list is refused before it is built: 1e8 Python numbers would not fit.
    @pytest.mark.parametrize("text, message", [
        ("5:100000000", "graph of 100000000 sites exceeds the site guard 4096"),
        ("-100000000:5", "triangular chain needs n >= 3, got -100000000"),
    ])
    def test_size_range_is_guarded_before_it_is_built(self, text, message):
        with pytest.raises(ValueError, match=message):
            specs.parse_int_list(text)

    def test_theta_grid_is_guarded_before_it_is_built(self):
        with pytest.raises(ValueError, match="candidate guard"):
            specs.parse_theta_candidates(f"grid:{specs.MAX_THETA_GRID + 1}")


class TestTraceCommand:
    def test_csv_matches_library(self, tmp_path):
        rc = cli.main([
            "trace", "--graph", "tri:5", "--theta", "0.5pi", "--state", "pair:1,2:pi",
            "--measure", "concurrence:4,5", "--t", "0:1:0.1", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = [l for l in (tmp_path / "trace.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "t,value"
        series = concurrence_trace(
            GraphSpec("tri", 5, math.pi / 2),
            StateSpec("pair", i=1, j=2, phi=math.pi),
            TimeGrid(0, 1, 0.1),
        )
        for row, t, v in zip(lines[1:], series.times, series.values):
            assert row == f"{format_number(t)},{format_number(v)}"

    def test_pts_bures_flat_phase_is_zero_column(self, tmp_path):
        rc = cli.main([
            "trace", "--graph", "tri:5", "--theta", "0", "--state", "pair:1,2:0",
            "--measure", "pts-bures", "--t", "0:2:0.1", "--out", str(tmp_path),
            "--name", "null",
        ])
        assert rc == 0
        values = [float(l.split(",")[1]) for l in (tmp_path / "null.csv").read_text().splitlines()
                  if l and not l.startswith("#") and not l.startswith("t,")]
        assert max(values) <= 1e-10

    def test_rerun_reproduces_csv_bytes(self, tmp_path):
        cli.main([
            "trace", "--graph", "tri:5", "--theta", "0.75pi", "--state", "pair:1,2:0.75pi",
            "--measure", "concurrence", "--t", "0:1.5:0.01", "--out", str(tmp_path), "--svg",
        ])
        first = (tmp_path / "trace.csv").read_bytes()
        rerun_dir = tmp_path / "again"
        rc = cli.main(["rerun", str(tmp_path / "trace.manifest.json"), "--out", str(rerun_dir)])
        assert rc == 0
        assert (rerun_dir / "trace.csv").read_bytes() == first
        assert (rerun_dir / "trace.svg").read_bytes() == (tmp_path / "trace.svg").read_bytes()

    def test_manifest_phase_round_trip(self, tmp_path):
        cli.main([
            "trace", "--graph", "tri:5", "--theta", "0.75pi", "--state", "pair:1,2:pi",
            "--measure", "concurrence", "--t", "0:1:0.5", "--out", str(tmp_path),
        ])
        manifest = json.loads((tmp_path / "trace.manifest.json").read_text())
        assert manifest["parameters"]["graph"]["theta"] == specs.parse_phase("0.75pi")
        assert manifest["subcommand"] == "trace"
        assert "version" in manifest and "wall_time_s" in manifest

    def test_version_needs_no_subprocess(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no subprocess may start")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        rc = cli.main([
            "trace", "--graph", "tri:5", "--state", "pair:1,2:pi", "--measure", "concurrence",
            "--t", "0:1:0.5", "--out", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "trace.manifest.json").read_text())
        assert manifest["version"] == version_string()

    def test_svg_is_valid_xml_with_polyline(self, tmp_path):
        cli.main([
            "trace", "--graph", "tri:5", "--theta", "0.5pi", "--state", "pair:1,2:pi",
            "--measure", "concurrence", "--t", "0:1:0.1", "--out", str(tmp_path), "--svg",
        ])
        root = ET.fromstring((tmp_path / "trace.svg").read_text())
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("polyline") for child in root.iter())

    def test_occupation_measure(self, tmp_path):
        rc = cli.main([
            "trace", "--graph", "tri:5", "--theta", "0", "--state", "localized:1",
            "--measure", "occupation:5", "--t", "0:1:0.5", "--out", str(tmp_path),
        ])
        assert rc == 0

    def test_werner_fidelity_measure(self, tmp_path):
        rc = cli.main([
            "trace", "--graph", "tri:5", "--theta", "0.5pi", "--state", "werner:0.5",
            "--measure", "werner-fidelity", "--t", "0:0.5:0.25", "--out", str(tmp_path),
        ])
        assert rc == 0

    def test_transfer_fidelity_measure(self, tmp_path):
        rc = cli.main([
            "trace", "--graph", "tri:5", "--theta", "0.5pi", "--state", "pair:1,2:pi",
            "--measure", "transfer-fidelity:pi", "--t", "0:1:0.5", "--out", str(tmp_path),
        ])
        assert rc == 0
        first_value = (tmp_path / "trace.csv").read_text().splitlines()[-3].split(",")[1]
        assert float(first_value) == pytest.approx(0.0, abs=1e-12)

    def test_transfer_fidelity_of_werner_state(self, tmp_path):
        assert cli.main([
            "trace", "--graph", "tri:5", "--theta", "0.5pi", "--state", "werner:0.5",
            "--measure", "transfer-fidelity", "--t", "0:2:0.25", "--out", str(tmp_path / "a"),
        ]) == 0
        assert cli.main(["rerun", str(tmp_path / "a" / "trace.manifest.json"),
                         "--out", str(tmp_path / "b")]) == 0
        csv = (tmp_path / "a" / "trace.csv").read_bytes()
        assert (tmp_path / "b" / "trace.csv").read_bytes() == csv
        # <t|rho(t)|t> with the psi+ target, the default for a Werner state.
        d = GraphSpec("tri", 5, math.pi / 2).decompose()
        rho0, target = states.werner(5, 0.5), states.target_pure(5, math.pi)
        times, values = np.loadtxt(tmp_path / "a" / "trace.csv", delimiter=",", comments="#",
                                   skiprows=6).T
        expected = [np.vdot(target, evolve_density(d, rho0, t) @ target).real for t in times]
        assert np.abs(values - expected).max() < 1e-11


class TestExitCodes:
    def test_usage_error_is_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "trace", "--graph", "tri:5", "--state", "pair:1,2:pi",
                "--measure", "concurrence", "--t", "0:0:0.1", "--out", str(tmp_path),
            ])
        assert err.value.code == 2

    def test_unknown_flag_is_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["trace", "--frobnicate"])
        assert err.value.code == 2

    def test_bad_measure_is_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "trace", "--graph", "tri:5", "--state", "pair:1,2:pi",
                "--measure", "entropy", "--t", "0:1:0.1", "--out", str(tmp_path),
            ])
        assert err.value.code == 2

    def test_bad_phase_is_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "trace", "--graph", "tri:5", "--theta", "oops", "--state", "pair:1,2:pi",
                "--measure", "concurrence", "--t", "0:1:0.1", "--out", str(tmp_path),
            ])
        assert err.value.code == 2

    def test_runtime_failure_is_1(self, tmp_path, capsys):
        # Three samples hold no transfer peak: a numerical failure, not bad usage.
        rc = cli.main(["scaling", "--n", "5", "--t", "0:0.01:0.005", "--out", str(tmp_path)])
        assert rc == 1
        assert "no transfer peak" in capsys.readouterr().err

    def test_out_of_range_site_is_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "trace", "--graph", "tri:5", "--theta", "0", "--state", "localized:1",
                "--measure", "occupation:7", "--t", "0:1:0.5", "--out", str(tmp_path),
            ])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("measure", ["concurrence:0,5", "concurrence:5,5",
                                         "concurrence:4,9"])
    def test_bad_concurrence_pair_is_2(self, tmp_path, measure, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "trace", "--graph", "tri:5", "--state", "pair:1,2:pi",
                "--measure", measure, "--t", "0:1:0.5", "--out", str(tmp_path),
            ])
        assert err.value.code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 2  # usage + message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("graph", ["cycle:5", "complete:5", "pentagram:5"])
    def test_magnitude_off_tri_is_2(self, tmp_path, graph):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "trace", "--graph", graph, "--magnitude", "2", "--state", "pair:1,2:pi",
                "--measure", "concurrence", "--t", "0:1:0.5", "--out", str(tmp_path),
            ])
        assert err.value.code == 2

    @pytest.mark.parametrize("name", ["../escape", "", ".", "..", "a/b", "a\\b"])
    def test_name_outside_out_is_2(self, tmp_path, name):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            cli.main([
                "trace", "--graph", "tri:5", "--state", "pair:1,2:pi", "--measure",
                "concurrence", "--t", "0:1:0.5", "--out", str(out), "--name", name,
            ])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def _manifest(self, tmp_path, **changes):
        cli.main([
            "trace", "--graph", "tri:5", "--state", "pair:1,2:pi", "--measure",
            "concurrence", "--t", "0:1:0.5", "--out", str(tmp_path / "first"),
        ])
        manifest = json.loads((tmp_path / "first" / "trace.manifest.json").read_text())
        manifest["parameters"].update(changes)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        return path

    def test_manifest_name_outside_out_is_2(self, tmp_path):
        path = self._manifest(tmp_path, name="../escape")
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as err:
            cli.main(["rerun", str(path), "--out", str(tmp_path / "out" / "inner")])
        assert err.value.code == 2
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("changes", [
        {"graph": {"kind": "tri"}}, {"grid": {"t_start": 0}}, {"graph": "tri:5"},
    ])
    def test_manifest_missing_parameter_is_2(self, tmp_path, capsys, changes):
        path = self._manifest(tmp_path, **changes)
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            cli.main(["rerun", str(path), "--out", str(tmp_path / "again")])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr and "manifest" in stderr.splitlines()[-1]

    @pytest.mark.parametrize("changes", [
        {"graph": {"kind": "tri", "n": "abc", "theta": 0.0, "magnitude": 1.0}},
        {"graph": {"kind": "cycle", "n": 5, "theta": 0.0, "magnitude": 3}},
        {"graph": {"kind": "cycle", "n": 5, "theta": 0.0, "magnitude": 1.0},
         "measure": "occupation:9"},
    ], ids=["n-not-int", "magnitude-off-tri", "site-out-of-range"])
    def test_manifest_bad_value_is_2(self, tmp_path, capsys, changes):
        path = self._manifest(tmp_path, **changes)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            cli.main(["rerun", str(path), "--out", str(tmp_path / "again")])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr and "manifest" in stderr.splitlines()[-1]
        assert sorted(tmp_path.rglob("*")) == before

    def test_failed_cross_check_is_1(self, tmp_path, monkeypatch, capsys):
        real = experiments.site_amplitudes
        monkeypatch.setattr(experiments, "site_amplitudes",
                            lambda d, psi, times, rows=None: real(d, psi, times, rows) * (1 + 1e-6))
        rc = cli.main([
            "trace", "--graph", "tri:5", "--theta", "0.5pi", "--state", "werner:0.5",
            "--measure", "werner-fidelity", "--t", "0:1:0.5", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "density-matrix value" in capsys.readouterr().err

    def test_missing_manifest_is_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["rerun", str(tmp_path / "missing.json")])
        assert err.value.code == 2

    def test_console_entry_subprocess(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "chiralwalk", "graph-export", "--graph", "tri:3",
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "graph.matrix.csv").exists()

    @pytest.mark.skipif(shutil.which("chiralwalk") is None,
                        reason="console script not on PATH")
    def test_installed_script(self):
        proc = subprocess.run(["chiralwalk", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "trace" in proc.stdout


class TestTableCommand:
    def test_rows_and_even_marker(self, tmp_path):
        rc = cli.main([
            "table", "--mode", "ctqw", "--n", "4,5", "--phi", "pi",
            "--horizon", "30", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = [l for l in (tmp_path / "table-ctqw.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0].startswith("n,t,concurrence,theta")
        assert lines[1].startswith("4,") and lines[1].endswith("even-n")
        assert lines[2].startswith("5,") and lines[2].endswith(",")

    def test_cqw_mode_uses_candidates(self, tmp_path):
        rc = cli.main([
            "table", "--mode", "cqw", "--n", "5", "--horizon", "20",
            "--theta-candidates=-0.5pi,0.5pi", "--out", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "table-cqw.manifest.json").read_text())
        assert manifest["parameters"]["theta_candidates"] == [
            -math.pi / 2, math.pi / 2
        ]

    @pytest.mark.parametrize("horizon,runner_ups", [(8.64, slice(0, 2)), (20.0, slice(1, 3))])
    def test_runner_ups_are_the_best_peaks_but_the_rows_own(self, tmp_path, horizon,
                                                            runner_ups):
        # At horizon 8.64 the row's maximum is the last grid point, which is no
        # interior peak; at 20 it is the highest interior peak.
        assert cli.main(["table", "--mode", "cqw", "--n", "5", "--horizon", str(horizon),
                         "--out", str(tmp_path)]) == 0
        row = (tmp_path / "table-cqw.csv").read_text().splitlines()[-1].split(",")
        rec = experiments.optimize_theta(5, math.pi, horizon=horizon)
        assert (rec.t == horizon) == (runner_ups.start == 0)
        assert row[4:8] == [format_number(x) for p in rec.top_peaks[runner_ups]
                            for x in (p.t_peak, p.value)]

    @pytest.mark.parametrize("flags", [
        # At n = 5 the largest grid sample refines to 0.990772 at t = 8.76,
        # below the refined peak 0.992504 at t = 92.28 of a lower sample.
        ["--n", "5,9", "--horizon", "100", "--theta-candidates", "grid:16"],
        ["--n", "5", "--horizon", "500"],
        # The parabola through three samples near t = 844 peaks above 1.
        ["--n", "5", "--horizon", "2000"],
    ])
    def test_no_row_below_its_runner_ups_or_above_one(self, tmp_path, flags):
        assert cli.main(["table", "--mode", "cqw", *flags, "--dt", "0.25",
                         "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "table-cqw.csv").read_text().splitlines()
        for row in csv.DictReader(line for line in lines if not line.startswith("#")):
            assert float(row["concurrence"]) <= 1
            assert float(row["c2"]) <= float(row["concurrence"])
            assert float(row["c3"]) <= float(row["concurrence"])

    def test_time_reversal_twins_read_the_smaller_phase(self, tmp_path):
        # 0.3 and pi - 0.3 trace the same values up to rounding (their peaks
        # differ by 3.3e-16): the row reads 0.3, and every other cell is the
        # lone 0.3 run's.
        rows = []
        for name, candidates in (("twins", "0.3,2.8415926535897933"), ("lone", "0.3")):
            assert cli.main(["table", "--mode", "cqw", "--n", "9", "--horizon", "100",
                             "--theta-candidates", candidates, "--out", str(tmp_path),
                             "--name", name]) == 0
            rows.append((tmp_path / f"{name}.csv").read_text().splitlines()[-1])
        assert rows[0].split(",")[3] == "0.3"
        assert rows[0] == rows[1]

    def test_table_rerun_reproduces_csv_bytes(self, tmp_path):
        cli.main(["table", "--mode", "ctqw", "--n", "5", "--horizon", "20",
                  "--out", str(tmp_path)])
        first = (tmp_path / "table-ctqw.csv").read_bytes()
        rc = cli.main(["rerun", str(tmp_path / "table-ctqw.manifest.json"),
                       "--out", str(tmp_path / "again")])
        assert rc == 0
        assert (tmp_path / "again" / "table-ctqw.csv").read_bytes() == first


class TestScalingCommand:
    def test_outputs_and_fit_comment(self, tmp_path):
        rc = cli.main([
            "scaling", "--theta", "0.5pi", "--n", "5:9:2", "--t", "0:5:0.01",
            "--out", str(tmp_path), "--svg",
        ])
        assert rc == 0
        text = (tmp_path / "scaling.csv").read_text()
        assert "slope=" in text and "r_squared=" in text
        ET.fromstring((tmp_path / "scaling.svg").read_text())


class TestSnapshotsCommand:
    def test_matrix_files_and_heatmap(self, tmp_path):
        rc = cli.main([
            "snapshots", "--times", "0,0.5,1", "--svg", "--out", str(tmp_path),
        ])
        assert rc == 0
        for k in range(3):
            assert (tmp_path / f"snapshots-t{k}.csv").exists()
        first = np.loadtxt(tmp_path / "snapshots-t0.csv", delimiter=",", comments="#",
                           skiprows=5)
        assert first.shape == (5, 5)
        assert first[0, 1] == pytest.approx(1.0, abs=1e-10)
        root = ET.fromstring((tmp_path / "snapshots.svg").read_text())
        assert sum(1 for el in root.iter() if el.tag.endswith("rect")) > 75

    def test_csv_names_the_magnitude(self, tmp_path):
        assert cli.main(["snapshots", "--times", "0.5", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "snapshots.manifest.json").read_text())
        manifest["parameters"]["graph"]["magnitude"] = 2.0
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        assert cli.main(["rerun", str(path), "--out", str(tmp_path / "again")]) == 0
        for out, magnitude in ((tmp_path, "1"), (tmp_path / "again", "2")):
            graph_line = (out / "snapshots-t0.csv").read_text().splitlines()[1]
            assert graph_line == f"# graph: tri:5 theta=1.57079632679 magnitude={magnitude}"

    def test_empty_times_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["snapshots", "--times", "", "--out", str(tmp_path)])
        assert err.value.code == 2


class TestGraphExportCommand:
    def test_matrix_csv_matches_hamiltonian(self, tmp_path):
        rc = cli.main([
            "graph-export", "--graph", "pentagram:5", "--theta", "0.5pi",
            "--out", str(tmp_path), "--name", "penta",
        ])
        assert rc == 0
        data = np.loadtxt(tmp_path / "penta.matrix.csv", delimiter=",", comments="#",
                          skiprows=4)
        H = data[:, 0::2] + 1j * data[:, 1::2]
        expected = graphs.hamiltonian(graphs.complete_graph(5, math.pi / 2))
        assert np.abs(H - expected).max() < 1e-11

    def test_graph_json_schema(self, tmp_path):
        cli.main(["graph-export", "--graph", "tri:4", "--theta", "pi",
                  "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "graph.graph.json").read_text())
        assert doc["n"] == 4
        assert len(doc["edges"]) == 5
        assert all(len(e) == 4 for e in doc["edges"])


# ---------------------------------------------------------------------------
# usage errors as flags and as rerun manifests, and a fuzz test of both

BASE_RUNS = {
    "trace": ["trace", "--graph", "tri:5", "--state", "pair:1,2:pi", "--measure",
              "concurrence", "--t", "0:1:0.5"],
    "table": ["table", "--mode", "cqw", "--n", "5", "--horizon", "4", "--dt", "0.5"],
    "scaling": ["scaling", "--n", "5", "--t", "0:2:0.05"],
    "snapshots": ["snapshots", "--times", "0.5"],
    "graph-export": ["graph-export", "--graph", "tri:3"],
}


@pytest.fixture(scope="module")
def base_manifests(tmp_path_factory):
    """A valid manifest of each subcommand, written by a run of BASE_RUNS."""
    out = tmp_path_factory.mktemp("base")
    manifests = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for command, argv in BASE_RUNS.items():
            assert cli.main(argv + ["--out", str(out), "--name", command]) == 0
            manifests[command] = json.loads((out / f"{command}.manifest.json").read_text())
    return manifests


# The manifest parameters each BASE_RUNS command writes (run with --name COMMAND),
# pinned: flag defaults and the load step must not move them.
PI = 3.141592653589793
HALF_PI = 1.5707963267948966
PAIR_1_2 = {"kind": "pair", "i": 1, "j": 2, "phi": PI}
BASE_PARAMETERS = {
    "trace": {
        "graph": {"kind": "tri", "n": 5, "theta": 0.0, "magnitude": 1.0},
        "state": PAIR_1_2,
        "measure": "concurrence",
        "grid": {"t_start": 0.0, "t_end": 1.0, "dt": 0.5},
        "svg": False,
        "name": "trace",
    },
    "table": {
        "mode": "cqw",
        "n_values": [5],
        "phi": PI,
        "horizon": 4.0,
        "dt": 0.5,
        "theta_candidates": [-HALF_PI, HALF_PI],
        "name": "table",
    },
    "scaling": {
        "theta": HALF_PI,
        "n_values": [5],
        "state": PAIR_1_2,
        "grid": {"t_start": 0.0, "t_end": 2.0, "dt": 0.05},
        "svg": False,
        "name": "scaling",
    },
    "snapshots": {
        "graph": {"kind": "tri", "n": 5, "theta": HALF_PI, "magnitude": 1.0},
        "state": PAIR_1_2,
        "times": [0.5],
        "svg": False,
        "name": "snapshots",
    },
    "graph-export": {
        "graph": {"kind": "tri", "n": 3, "theta": 0.0, "magnitude": 1.0},
        "name": "graph-export",
    },
}


@pytest.mark.parametrize("command", sorted(BASE_RUNS))
def test_base_run_parameters(base_manifests, command):
    assert base_manifests[command]["parameters"] == BASE_PARAMETERS[command]


# One run of each subcommand, with every output it can write.
RERUN_RUNS = {
    "trace": BASE_RUNS["trace"] + ["--svg"],
    "table": BASE_RUNS["table"],
    "scaling": BASE_RUNS["scaling"] + ["--svg"],
    "snapshots": ["snapshots", "--times", "0.5,1", "--svg"],
    "graph-export": BASE_RUNS["graph-export"],
}


def _without_run_facts(manifest_path: Path) -> dict:
    manifest = json.loads(manifest_path.read_text())
    del manifest["wall_time_s"], manifest["version"]
    return manifest


@pytest.mark.parametrize("command", sorted(RERUN_RUNS))
def test_rerun_reproduces_every_output(tmp_path, command):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli(RERUN_RUNS[command] + ["--out", str(first), "--name", "run"])[0] == 0
    assert run_cli(["rerun", str(first / "run.manifest.json"), "--out", str(again)])[0] == 0
    manifest = _without_run_facts(first / "run.manifest.json")
    assert _without_run_facts(again / "run.manifest.json") == manifest
    outputs = manifest["outputs"]
    assert {p.name for p in first.iterdir()} == {*outputs, "run.manifest.json"}
    assert len(outputs) == {"trace": 2, "table": 1, "scaling": 2, "snapshots": 3,
                            "graph-export": 2}[command]
    for name in outputs:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_flag_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    table = cli._resolve(parser.parse_args(["table", "--mode", "cqw", "--n", "5"]))
    assert (table["horizon"], table["dt"]) == (500.0, 0.02)
    assert (table["horizon"], table["dt"]) == (experiments.LONG_TIME_HORIZON,
                                               experiments.LONG_TIME_DT)
    assert table["theta_candidates"] == [-HALF_PI, HALF_PI]
    assert table["theta_candidates"] == list(experiments.THETA_CANDIDATES)
    scaling = cli._resolve(parser.parse_args(["scaling"]))
    assert scaling["grid"] == {"t_start": 0.0, "t_end": 40.0, "dt": 0.005}
    assert scaling["grid"] == experiments.SCALING_GRID.to_dict()
    snapshots = cli._resolve(parser.parse_args(["snapshots", "--times", "1"]))
    assert scaling["state"] == snapshots["state"] == PAIR_1_2
    assert PAIR_1_2 == experiments.TRANSFER_STATE.to_dict()


def test_complete_graph_manifest_reruns_as_pentagram(tmp_path):
    argv = ["trace", "--graph", "complete:4", "--state", "pair:1,2", "--measure",
            "concurrence", "--t", "0:1:0.25", "--name", "k4"]
    assert run_cli(argv + ["--out", str(tmp_path / "first")])[0] == 0
    manifest = json.loads((tmp_path / "first" / "k4.manifest.json").read_text())
    assert manifest["parameters"]["graph"]["kind"] == "pentagram"
    manifest["parameters"]["graph"]["kind"] = "complete"
    (tmp_path / "edited.json").write_text(json.dumps(manifest))
    assert run_cli(["rerun", str(tmp_path / "edited.json"),
                    "--out", str(tmp_path / "again")])[0] == 0
    csv = (tmp_path / "first" / "k4.csv").read_text()
    assert "# graph: pentagram:4 " in csv
    assert (tmp_path / "again" / "k4.csv").read_text() == csv


def run_cli(argv):
    """Exit code and stderr of cli.main; any other exception escapes as a failure."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def files_under(root: Path) -> set:
    return {p for p in root.rglob("*") if p.is_file()}


TRI2 = {"kind": "tri", "n": 2, "theta": 0.0, "magnitude": 1.0}
# 10^7 steps, within the point-count guard, but finer than floats near 1e10.
FINE_GRID = {"t_start": 1e10, "t_end": 10000000001.0, "dt": 1e-7}

# (subcommand, flags replacing or adding to BASE_RUNS, manifest parameter edits);
# None where a case has no flag form.
USAGE_ERRORS = {
    "pair-site-9": ("trace", ["--state", "pair:1,9"],
                    {"state": {"kind": "pair", "i": 1, "j": 9, "phi": math.pi}}),
    "localized-9": ("trace", ["--state", "localized:9"],
                    {"state": {"kind": "localized", "site": 9}}),
    "werner-b-5": ("trace", ["--state", "werner:5"], {"state": {"kind": "werner", "b": 5}}),
    "trace-tri-2": ("trace", ["--graph", "tri:2"], {"graph": TRI2}),
    "magnitude-inf": ("trace", ["--magnitude", "inf"],
                      {"graph": {**TRI2, "n": 5, "magnitude": math.inf}}),
    "werner-fidelity-of-pair": ("trace", ["--measure", "werner-fidelity"],
                                {"measure": "werner-fidelity"}),
    # The measure is echoed into the CSV comments, so it may not break a line.
    "measure-trailing-newline": ("trace", ["--measure", "occupation:3\n"],
                                 {"measure": "occupation:3\n"}),
    "measure-inner-space": ("trace", ["--measure", "concurrence: 1,2"],
                            {"measure": "concurrence: 1,2"}),
    # Digits of other scripts, which int() reads, are no site index.
    "occupation-fullwidth-digit": ("trace", ["--measure", "occupation:\uff13"],
                                   {"measure": "occupation:\uff13"}),
    "concurrence-arabic-indic-digits": ("trace", ["--measure", "concurrence:\u0664,\u0665"],
                                        {"measure": "concurrence:\u0664,\u0665"}),
    "trace-tri-300000": ("trace", ["--graph", "tri:300000"], {"graph": {**TRI2, "n": 300000}}),
    "table-n-1-2": ("table", ["--n", "1,2"], {"n_values": [1, 2]}),
    "table-n-300000": ("table", ["--n", "5,300000"], {"n_values": [5, 300000]}),
    "table-dt-negative": ("table", ["--dt=-1"], {"dt": -1.0}),
    "table-horizon-0": ("table", ["--horizon", "0"], {"horizon": 0.0}),
    "table-horizon-1e9": ("table", ["--horizon", "1e9"], {"horizon": 1e9}),
    "table-grid-2-points": ("table", ["--horizon", "0.5"], {"horizon": 0.5}),
    "table-horizon-text": ("table", ["--horizon", "abc"], {"horizon": "abc"}),
    "table-mode-xyz": ("table", ["--mode", "xyz"], {"mode": "xyz"}),
    "table-no-candidates": ("table", ["--theta-candidates="], {"theta_candidates": []}),
    "table-n-values-text": ("table", None, {"n_values": "57"}),
    "table-n-empty": ("table", ["--n", ","], {"n_values": []}),
    "table-ctqw-candidates": ("table", ["--mode", "ctqw", "--theta-candidates", "1"],
                              {"mode": "ctqw", "theta_candidates": [1.0]}),
    "scaling-n-empty": ("scaling", ["--n", ","], {"n_values": []}),
    "scaling-n-1-3": ("scaling", ["--n", "1,3"], {"n_values": [1, 3]}),
    "scaling-grid-2-points": ("scaling", ["--t", "0:0.05:0.05"],
                              {"grid": {"t_start": 0.0, "t_end": 0.05, "dt": 0.05}}),
    "trace-step-below-resolution": ("trace", ["--t", "1e10:10000000001:1e-7"],
                                    {"grid": FINE_GRID}),
    "scaling-step-below-resolution": ("scaling", ["--t", "1e10:10000000001:1e-7"],
                                      {"grid": FINE_GRID}),
    "snapshots-time-nan": ("snapshots", ["--times", "nan"], {"times": [math.nan]}),
    "snapshots-tri-2": ("snapshots", ["--graph", "tri:2"], {"graph": TRI2}),
    "graph-export-tri-2": ("graph-export", ["--graph", "tri:2"], {"graph": TRI2}),
    "graph-export-tri-300000": ("graph-export", ["--graph", "tri:300000"],
                                {"graph": {**TRI2, "n": 300000}}),
    # Number text has one rule: int() and float() would read '1_1' as 11 and
    # a fullwidth digit as its ASCII one.
    "graph-size-underscore": ("trace", ["--graph", "tri:1_1"], {"graph": {**TRI2, "n": "1_1"}}),
    "graph-size-fullwidth-digit": ("trace", ["--graph", "tri:\uff15"],
                                   {"graph": {**TRI2, "n": "\uff15"}}),
    "localized-fullwidth-digit": ("trace", ["--state", "localized:\uff11"],
                                  {"state": {"kind": "localized", "site": "\uff11"}}),
    "table-n-underscore": ("table", ["--n", "5,1_1"], {"n_values": [5, "1_1"]}),
    "trace-grid-underscore": ("trace", ["--t", "0:1_0:5"],
                              {"grid": {"t_start": 0.0, "t_end": "1_0", "dt": 5.0}}),
    "theta-underscore": ("trace", ["--theta", "1_0"],
                         {"graph": {**TRI2, "n": 5, "theta": "1_0"}}),
    "theta-inner-space": ("trace", ["--theta", "1 0"], {"graph": {**TRI2, "n": 5, "theta": "1 0"}}),
    "scaling-theta-underscore": ("scaling", ["--theta", "1_0"], {"theta": "1_0"}),
    "pair-phase-underscore": ("trace", ["--state", "pair:1,2:1_0"],
                              {"state": {"kind": "pair", "i": 1, "j": 2, "phi": "1_0"}}),
    "occupation-underscore": ("trace", ["--measure", "occupation:1_0"],
                              {"measure": "occupation:1_0"}),
    "magnitude-underscore": ("trace", ["--magnitude", "1_0"],
                             {"graph": {**TRI2, "n": 5, "magnitude": "1_0"}}),
    "table-horizon-underscore": ("table", ["--horizon", "1_0"], {"horizon": "1_0"}),
    "table-theta-grid-underscore": ("table", ["--theta-candidates", "grid:1_6"],
                                    {"theta_candidates": ["1_0"]}),
    "snapshots-time-underscore": ("snapshots", ["--times", "1_0"], {"times": ["1_0"]}),
    "graph-size-plus": ("graph-export", ["--graph", "tri:+5"], {"graph": {**TRI2, "n": "+5"}}),
    # Integers and reals alike refuse whitespace around the number.
    "table-n-inner-space": ("table", ["--n", "5, 7"], {"n_values": [5, " 7"]}),
    "pair-site-space": ("trace", ["--state", "pair:1, 2"],
                        {"state": {"kind": "pair", "i": 1, "j": " 2", "phi": math.pi}}),
    "werner-b-space": ("trace", ["--state", "werner: 0.5"],
                       {"state": {"kind": "werner", "b": " 0.5"}}),
    "snapshots-times-inner-space": ("snapshots", ["--times", "1, 2"], {"times": [1.0, " 2"]}),
    "trace-grid-space": ("trace", ["--t", "0: 1:0.5"],
                         {"grid": {"t_start": 0.0, "t_end": " 1", "dt": 0.5}}),
    "table-horizon-space": ("table", ["--horizon", " 4"], {"horizon": " 4"}),
    "table-dt-trailing-space": ("table", ["--dt", "0.5 "], {"dt": "0.5 "}),
    "magnitude-tab": ("trace", ["--magnitude", "\t2"],
                      {"graph": {**TRI2, "n": 5, "magnitude": "\t2"}}),
    # No flag is stripped as a whole.
    "table-n-padded": ("table", ["--n", " 5,7 "], {"n_values": " 5,7 "}),
    "state-padded": ("trace", ["--state", " werner:0.5 "], {"state": " werner:0.5 "}),
    "table-theta-grid-padded": ("table", ["--theta-candidates", " grid:8"],
                                {"theta_candidates": [" grid:8"]}),
    "trace-grid-padded": ("trace", ["--t", " 0:1:0.5"],
                          {"grid": {"t_start": " 0", "t_end": 1.0, "dt": 0.5}}),
    # A key that nothing reads is refused, not run at its default.
    "graph-key-typo": ("trace", None, {"graph": {**TRI2, "n": 5, "magnitud": 2}}),
    "svg-key-typo": ("trace", None, {"SVG": True}),
    "pair-state-b": ("trace", ["--state", '{"kind": "pair", "i": 1, "j": 2, "phi": 3, "b": 0.5}'],
                     {"state": {**PAIR_1_2, "b": 0.5}}),
    "grid-key-typo": ("trace", None, {"grid": {"t_start": 0.0, "t_end": 1.0, "dt": 0.5,
                                               "t_stop": 2.0}}),
    "table-key-typo": ("table", None, {"horizn": 8.0}),
    "scaling-magnitude-key": ("scaling", None, {"magnitude": 2.0}),
    "snapshots-theta-key": ("snapshots", None, {"theta": 0.3}),
    "graph-export-svg-key": ("graph-export", None, {"svg": True}),
    # Checks that no other deterministic test reaches; USAGE_MESSAGES pins their text.
    "grid-start-nan": ("trace", ["--t", "nan:1:0.1"],
                       {"grid": {"t_start": math.nan, "t_end": 1.0, "dt": 0.1}}),
    "concurrence-three-sites": ("trace", ["--measure", "concurrence:1,2,3"],
                                {"measure": "concurrence:1,2,3"}),
    "pts-bures-argument": ("trace", ["--measure", "pts-bures:1"], {"measure": "pts-bures:1"}),
    # A manifest holds sizes as a list, so the range as text is refused as no list.
    "table-n-four-parts": ("table", ["--n", "5:9:2:1"], {"n_values": "5:9:2:1"}),
}
# case -> the text its message ends with, in (flag, manifest) form.
USAGE_MESSAGES = {
    "grid-start-nan": ("grid endpoints must be finite",) * 2,
    "concurrence-three-sites": ("concurrence pair must be I,J, got '1,2,3'",) * 2,
    "pts-bures-argument": ("measure takes no argument, got '1'",) * 2,
    "table-n-four-parts": ("cannot parse size list '5:9:2:1'",
                           "n_values must be a list, got '5:9:2:1'"),
}


@pytest.mark.parametrize("case,form", [
    (case, form) for case, (_, flags, _) in USAGE_ERRORS.items()
    for form in (["flags"] if flags else []) + ["manifest"]
])
def test_usage_error_exits_2(case, form, tmp_path, base_manifests):
    command, flags, edits = USAGE_ERRORS[case]
    out = tmp_path / "out"
    if form == "flags":
        argv = BASE_RUNS[command] + flags + ["--out", str(out)]
    else:
        manifest = json.loads(json.dumps(base_manifests[command]))
        manifest["parameters"].update(edits)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        argv = ["rerun", str(path), "--out", str(out)]
    before = files_under(tmp_path)
    code, stderr = run_cli(argv)
    assert code == 2
    assert "Traceback" not in stderr
    *usage, message = stderr.splitlines()
    assert re.match(r"chiralwalk( [\w-]+)?: error: ", message)
    if case in USAGE_MESSAGES:
        assert message.endswith(USAGE_MESSAGES[case][form == "manifest"])
    assert all(line.startswith(("usage: ", " ")) for line in usage)
    assert files_under(tmp_path) == before


def test_manifest_keys_left_out_keep_their_defaults(tmp_path, base_manifests):
    # Manifests written before magnitudes existed have no "magnitude" key.
    manifest = json.loads(json.dumps(base_manifests["trace"]))
    del manifest["parameters"]["graph"]["magnitude"], manifest["parameters"]["svg"]
    (tmp_path / "old.json").write_text(json.dumps(manifest))
    assert run_cli(["rerun", str(tmp_path / "old.json"), "--out", str(tmp_path / "a")])[0] == 0
    assert run_cli(BASE_RUNS["trace"] + ["--out", str(tmp_path / "b")])[0] == 0
    csv_a, csv_b = (tmp_path / out / "trace.csv" for out in "ab")
    assert csv_a.read_bytes() == csv_b.read_bytes()


@pytest.mark.parametrize("argv,out", [
    (["graph-export", "--graph", "tri:5"], "file"),
    (BASE_RUNS["trace"], "file/sub"),
])
def test_unwritable_out_exits_1(tmp_path, argv, out):
    (tmp_path / "file").write_text("not a directory")
    code, stderr = run_cli(argv + ["--out", str(tmp_path / out)])
    assert code == 1
    assert "Traceback" not in stderr
    assert len(stderr.splitlines()) == 1 and stderr.startswith("chiralwalk: error: ")
    assert files_under(tmp_path) == {tmp_path / "file"}


@pytest.mark.parametrize("flags,message", [
    (["--magnitude", "1e308", "--t", "0:1:0.5"], "finite"),  # the spectrum overflows
    (["--magnitude", "1e307", "--t", "0:10:1"], "finite"),  # lambda t overflows
    # lambda t stays finite, so the phase-resolution rule rejects it before the
    # amplitudes overflow
    (["--t", "0:1e300:1e294"], "phase resolution"),
    (["--t", "0:1e20:1e17"], "phase resolution"),  # finite values that mean nothing
], ids=["spectrum", "phase", "amplitudes", "resolution"])
def test_non_finite_result_exits_1(tmp_path, flags, message):
    # In a fresh interpreter, so that stderr holds every warning numpy prints.
    src = Path(cli.__file__).resolve().parents[1]
    argv = ["trace", "--graph", "tri:5", "--state", "pair:1,2", "--measure", "concurrence"]
    proc = subprocess.run(
        [sys.executable, "-m", "chiralwalk", *argv, *flags, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("chiralwalk: error: ") and message in proc.stderr
    assert files_under(tmp_path) == set()


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 1.31 TiB"), MemoryError()])
@pytest.mark.parametrize("command", sorted(BASE_RUNS))
def test_out_of_memory_exits_1(tmp_path, monkeypatch, command, error):
    checked = cli.COMMANDS[command]

    def load_then_fail(params):
        checked(params)

        def run(out_dir, name):
            raise error

        return run

    monkeypatch.setitem(cli.COMMANDS, command, load_then_fail)
    code, stderr = run_cli(BASE_RUNS[command] + ["--out", str(tmp_path / "out")])
    assert code == 1
    assert "Traceback" not in stderr
    assert stderr == f"chiralwalk: error: {str(error) or 'MemoryError'}\n"
    assert files_under(tmp_path) == set()


@pytest.mark.parametrize("error,code", [
    (np.linalg.LinAlgError("Eigenvalues did not converge"), 1),
    (ValueError("site index 9 out of range 1..5"), 2),
    (IndexError("site index 9 out of range 1..5"), 2),
])
def test_runner_error_exit_codes(tmp_path, monkeypatch, base_manifests, error, code):
    # A ValueError or IndexError from a runner is a value a library function
    # rejected: a usage error, as from the load step.  LinAlgError is a
    # ValueError too, but a numerical failure.
    def fail(params):
        def run(out_dir, name):
            raise error

        return run

    monkeypatch.setitem(cli.COMMANDS, "trace", fail)
    manifest = tmp_path / "trace.json"
    manifest.write_text(json.dumps(base_manifests["trace"]))
    for argv, context in ((BASE_RUNS["trace"], ""),
                          (["rerun", str(manifest)], f"cannot load manifest {str(manifest)!r}: ")):
        got, stderr = run_cli(argv + ["--out", str(tmp_path / "out")])
        assert got == code
        *usage, message = stderr.splitlines()
        assert message == f"chiralwalk: error: {context if code == 2 else ''}{error}"
        assert bool(usage) == (code == 2)
        assert all(line.startswith(("usage: ", " ")) for line in usage)
    assert files_under(tmp_path) == {manifest}


def test_bad_state_is_rejected_before_the_eigensolve(tmp_path, monkeypatch):
    def refuse(H):
        raise AssertionError("decomposed before the state was checked")

    # GraphSpec.decompose calls it through dynamics, the table search through experiments.
    for module in (dynamics, experiments):
        monkeypatch.setattr(module, "spectral_decompose", refuse)
    code, stderr = run_cli(["trace", "--graph", "tri:512", "--state", "pair:1,600",
                            "--measure", "concurrence", "--t", "0:1:0.5",
                            "--out", str(tmp_path / "out")])
    assert code == 2
    assert stderr.splitlines()[-1] == "chiralwalk: error: sites (1, 600) out of range 1..512"
    assert files_under(tmp_path) == set()


def test_version_is_the_package_constant(tmp_path):
    # The version is written once, as chiralwalk.__version__, which
    # pyproject.toml reads too; a run does not import the package metadata.
    src = Path(cli.__file__).resolve().parents[1]
    argv = BASE_RUNS["trace"] + ["--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; from chiralwalk import cli; cli.main({argv!r}); "
                               "print('importlib.metadata' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.splitlines()[-1] == "False"
    manifest = json.loads((tmp_path / "trace.manifest.json").read_text())
    assert manifest["version"] == chiralwalk.__version__ == version_string()


@pytest.mark.parametrize("typed,canonical", [
    ("occupation:03", "occupation:3"), ("concurrence:04,005", "concurrence:4,5"),
])
def test_integer_measure_arguments_are_written_canonically(tmp_path, typed, canonical):
    argv = ["trace", "--graph", "tri:5", "--state", "pair:1,2", "--t", "0:1:0.25"]
    outputs = {}
    for measure in (typed, canonical):
        out = tmp_path / measure.replace(":", "-")
        assert run_cli(argv + ["--measure", measure, "--out", str(out)])[0] == 0
        manifest = json.loads((out / "trace.manifest.json").read_text())
        outputs[measure] = (out / "trace.csv").read_bytes(), manifest["parameters"]
    assert outputs[typed] == outputs[canonical]
    assert f"# measure: {canonical}\n".encode() in outputs[typed][0]
    assert outputs[typed][1]["measure"] == canonical
    # A manifest that holds the typed form replays to the canonical outputs.
    manifest = json.loads((tmp_path / canonical.replace(":", "-") / "trace.manifest.json")
                          .read_text())
    manifest["parameters"]["measure"] = typed
    (tmp_path / "typed.json").write_text(json.dumps(manifest))
    assert run_cli(["rerun", str(tmp_path / "typed.json"), "--out", str(tmp_path / "re")])[0] == 0
    again = json.loads((tmp_path / "re" / "trace.manifest.json").read_text())
    assert ((tmp_path / "re" / "trace.csv").read_bytes(), again["parameters"]) \
        == outputs[canonical]


@pytest.mark.parametrize("argv", [
    ["trace", "--graph", "tri:9", "--state", "pair:1,2", "--measure", "concurrence",
     "--t", "0:50:0.01", "--svg"],
    ["scaling", "--n", "5,5,7", "--t", "0:5:0.01", "--svg"],
])
def test_runs_do_not_load_numpy_ma(tmp_path, argv):
    # numpy.ma costs a cold process 12-19 ms; np.unique is one function that loads it.
    src = Path(cli.__file__).resolve().parents[1]
    argv = argv + ["--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; from chiralwalk import cli; cli.main({argv!r}); "
                               "print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.splitlines()[-1] == "False"


def _top_level_modules(statement: str) -> set:
    """Top-level names in sys.modules after ``statement`` runs in a fresh interpreter."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    return {name.partition(".")[0] for name in proc.stdout.split()}


def test_cli_start_imports_only_stdlib_beyond_numpy():
    # Every CLI start pays for its imports: nothing outside the standard
    # library and the package itself, and no process-pool machinery.
    loaded = _top_level_modules("import chiralwalk.cli")
    extra = loaded - _top_level_modules("import numpy")
    assert "chiralwalk" in extra
    assert {m for m in extra if m not in sys.stdlib_module_names} == {"chiralwalk"}
    assert not loaded & {"concurrent", "multiprocessing"}


def test_cli_start_builds_no_csv_kernel_tables():
    # The CSV float kernel builds its tables on the first float write.
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import chiralwalk.cli as cli; "
         "print(cli.io._kernel_tables.cache_info().currsize)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.split() == ["0"]


# argparse alone reads each of these values, given as its own argument, as an option.
NEGATIVE_VALUES = [
    ("trace", "--theta", "-0.4pi"),
    ("trace", "--t", "-1:1:0.5"),
    ("table", "--phi", "-0.5pi"),
    ("table", "--theta-candidates", "-0.5pi,0.5pi"),
    ("scaling", "--theta", "-0.5pi"),
    ("snapshots", "--theta", "-pi"),
    ("snapshots", "--times", "-1,2"),
    ("graph-export", "--theta", "-0.75pi"),
]


@pytest.mark.parametrize("command,flag,value", NEGATIVE_VALUES)
def test_negative_value_as_separate_argument(tmp_path, command, flag, value):
    params = []
    for form in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / str(len(form))
        code, stderr = run_cli(BASE_RUNS[command] + form + ["--out", str(out), "--name", "run"])
        assert code == 0, stderr
        params.append(json.loads((out / "run.manifest.json").read_text())["parameters"])
    assert params[0] == params[1]


@pytest.mark.parametrize("graph,magnitude", [("cycle:5", "1"), ("tri:5", "2")])
def test_werner_fidelity_uses_the_given_graph(tmp_path, graph, magnitude):
    # The trace runs on the graph it names, not on the magnitude-1 tri chain.
    def values(graph, magnitude):
        assert cli.main([
            "trace", "--graph", graph, "--magnitude", magnitude, "--theta", "0.3",
            "--state", "werner:0.5", "--measure", "werner-fidelity", "--t", "0:3:0.25",
            "--out", str(tmp_path), "--name", "w",
        ]) == 0
        return np.loadtxt(tmp_path / "w.csv", delimiter=",", comments="#", skiprows=6)[:, 1]

    gspec = specs.GraphSpec.from_text(graph, 0.3, magnitude)
    d = gspec.decompose()
    rho0, target = states.werner(5, 0.5), states.target_werner(5, 0.5)
    expected = [measures.fidelity(evolve_density(d, rho0, t), target)
                for t in TimeGrid(0.0, 3.0, 0.25).times()]
    got = values(graph, magnitude)
    assert np.abs(got - expected).max() < 1e-10
    assert np.abs(got - values("tri:5", "1")).max() > 1e-3


# Flag -> (values that parse, values that do not); a drawn run mixes both.
FUZZ_FLAGS = {
    "--graph": (["tri:5", "tri:9", "cycle:5", "complete:4", "pentagram:5", "tri:3"],
                ["tri:2", "tri:x", "blob:3", "tri", "tri:-1", "tri:300000"]),
    "--theta": (["0", "0.5pi", "-pi", "-0.4pi", "1.3"], ["x", "nan", "inf", "1e300"]),
    "--magnitude": (["1", "2", "1e307", "1e308"], ["0", "-1", "inf", "nan", "x", " 2"]),
    "--state": (["pair:1,2:pi", "pair:2,3", "localized:3", "werner:0.5", "werner:-1",
                 '{"kind": "werner", "b": 0.5}',
                 '{"kind": "pair", "i": 1, "j": 2, "phi": "0.5pi"}'],
                ["pair:1,9", "pair:2,2", "localized:0", "werner:5", "werner:nan",
                 '{"kind": "pair"}', '{"kind": "localized", "site": 2.5}', "{", "ghz",
                 "werner: 0.5", "pair:1, 2"]),
    "--measure": (["concurrence", "concurrence:1,3", "occupation:2", "pts-bures",
                   "werner-fidelity", "transfer-fidelity", "transfer-fidelity:0.5pi"],
                  ["concurrence:1,1", "concurrence:a,b", "occupation:9", "occupation",
                   "pts-bures:1", "transfer-fidelity:x", "entropy", ""]),
    "--t": (["0:2:0.05", "0:1:0.5", "-1:1:0.1", "0:1:5", "0:1e300:1e294"],
            ["0:0:0.1", "1:0:0.1", "0:1:-0.1", "0:1:0", "0:1e9:0.1", "nan:1:0.1", "0:2",
             "a:b:c", "0: 2:0.05"]),
    "--mode": (["cqw", "ctqw"], ["xyz"]),
    # 5:100000000 and grid:100000000 must be rejected before their lists are
    # built, which would hold about 5e7 and 1e8 Python numbers.
    "--n": (["5", "3,4", "5:9:2", "3:5"],
            ["1,2", "9:5", "", "x", "5:9:2:1", "5,300000", "5:100000000", "5, 7"]),
    "--phi": (["pi", "0", "-0.5pi", " 0.5 pi "], ["x"]),
    "--horizon": (["10", "2"], ["0", "-1", "1e9", "nan", "x", " 10"]),
    "--dt": (["0.5", "1"], ["0", "-1", "nan", "0.5 "]),
    "--theta-candidates": (["-0.5pi,0.5pi", "grid:4"],
                           ["grid:0", "", "x", "grid:x", "grid:100000000"]),
    "--times": (["0.5", "0,1", "-1"], ["nan", "", "x", "inf", "0, 1"]),
    "--name": (["run"], ["../x", "", ".", "a/b", "a\\b"]),
}
FUZZ_COMMANDS = {
    "trace": ["--graph", "--theta", "--magnitude", "--state", "--measure", "--t"],
    "table": ["--mode", "--n", "--phi", "--horizon", "--dt", "--theta-candidates"],
    "scaling": ["--theta", "--n", "--state", "--t"],
    "snapshots": ["--graph", "--theta", "--state", "--times"],
    "graph-export": ["--graph", "--theta", "--magnitude"],
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = [command]
    for flag in FUZZ_COMMANDS[command] + ["--name"]:
        valid, invalid = FUZZ_FLAGS[flag]
        pick = draw(st.integers(0, 19))  # 1 in 20 omitted, 3 in 20 invalid
        if pick:
            value = draw(st.sampled_from(invalid if pick < 4 else valid))
            argv += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
    if command in ("trace", "scaling", "snapshots") and draw(st.booleans()):
        argv.append("--svg")
    return argv


FUZZ_VALUES = [None, True, 0, 1, 3, 5, 9, -1, 0.5, -0.5, 1e9, math.nan, math.inf, "", "abc",
               "57", "0.5pi", "../x", [], [1, 2], [5], [0.5], ["a"], {}, {"kind": "tri"},
               "cqw", "ctqw", "werner-fidelity", "occupation:9", "concurrence:1,2"]


@st.composite
def fuzz_manifest(draw, base):
    """A valid manifest with a few keys, top-level or nested, replaced or deleted."""
    manifest = json.loads(json.dumps(base[draw(st.sampled_from(sorted(base)))]))
    for _ in range(draw(st.integers(1, 3))):
        target = manifest["parameters"]
        nested = [k for k, v in target.items() if isinstance(v, dict)]
        if nested and draw(st.booleans()):
            target = target[draw(st.sampled_from(nested))]
        elif draw(st.integers(0, 9)) == 0:
            target = manifest
        if not target:
            continue
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.integers(0, 5)) == 0:
            del target[key]
        else:
            # A copy: a shared dict or list value would nest into itself across draws.
            target[key] = json.loads(json.dumps(draw(st.sampled_from(FUZZ_VALUES))))
        if not isinstance(manifest.get("parameters"), dict):
            break
    return manifest


def csv_numbers(path: Path) -> list[float]:
    """Every cell of a CSV outside its comments that parses as a number."""
    numbers = []
    for line in path.read_text().splitlines():
        for cell in [] if line.startswith("#") else line.split(","):
            with contextlib.suppress(ValueError):
                numbers.append(float(cell))
    return numbers


def check_fuzz_run(root: Path, argv, allowed: set):
    code, stderr = run_cli(argv + ["--out", str(root / "out")])
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr
    outside = {p for p in files_under(root) if root / "out" not in p.parents}
    assert outside == allowed, argv
    if code == 0:
        for path in (root / "out").glob("*.csv"):
            assert all(map(math.isfinite, csv_numbers(path))), (argv, path.name)


FUZZ_SETTINGS = settings(max_examples=60, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


@FUZZ_SETTINGS
@given(fuzz_argv())
def test_fuzz_flags(argv):
    with tempfile.TemporaryDirectory() as tmp:
        check_fuzz_run(Path(tmp), argv, set())


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzz_manifests(base_manifests, data):
    manifest = data.draw(fuzz_manifest(base_manifests))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.json"
        path.write_text(json.dumps(manifest))
        check_fuzz_run(Path(tmp), ["rerun", str(path)], {path})

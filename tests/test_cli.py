import json
import math
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from chiralwalk import cli, experiments, graphs
from chiralwalk.experiments import GraphSpec, StateSpec, TimeGrid, concurrence_trace
from chiralwalk.io import format_number


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
        assert cli.parse_phase(text) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("text", ["piip", "0.5tau", "", "pi0.5", "nan"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            cli.parse_phase(text)


class TestSpecParsing:
    def test_graph_kinds(self):
        g = cli.parse_graph("tri:5", 0.1, 1.0)
        assert (g.kind, g.n, g.theta) == ("tri", 5, 0.1)
        assert cli.parse_graph("complete:4", 0.0, 1.0).kind == "pentagram"
        with pytest.raises(ValueError):
            cli.parse_graph("blob:5", 0.0, 1.0)
        with pytest.raises(ValueError):
            cli.parse_graph("tri", 0.0, 1.0)

    def test_state_flag_forms(self):
        s = cli.parse_state("pair:1,2:pi")
        assert (s.kind, s.i, s.j) == ("pair", 1, 2)
        assert s.phi == pytest.approx(math.pi)
        assert cli.parse_state("localized:3").site == 3
        assert cli.parse_state("werner:-0.25").b == -0.25
        assert cli.parse_state("pair:2,4").phi == pytest.approx(math.pi)

    def test_state_json_forms(self):
        s = cli.parse_state('{"kind": "pair", "i": 1, "j": 2, "phi": "0.75pi"}')
        assert s.phi == pytest.approx(0.75 * math.pi)
        assert cli.parse_state('{"kind": "localized", "site": 2}').site == 2
        assert cli.parse_state('{"kind": "werner", "b": 0.5}').b == 0.5
        with pytest.raises(ValueError):
            cli.parse_state('{"kind": "ghz"}')

    def test_state_rejects_malformed(self):
        for text in ["pair:1", "pair:1,2,3:pi", "blob:1", "localized"]:
            with pytest.raises(ValueError):
                cli.parse_state(text)

    def test_grid(self):
        g = cli.parse_grid("0:10:0.005")
        assert (g.t_start, g.t_end, g.dt) == (0.0, 10.0, 0.005)
        with pytest.raises(ValueError):
            cli.parse_grid("0:10")

    def test_int_list(self):
        assert cli.parse_int_list("5:9:2") == [5, 7, 9]
        assert cli.parse_int_list("5:9") == [5, 7, 9]
        assert cli.parse_int_list("4,8,6") == [4, 8, 6]
        with pytest.raises(ValueError):
            cli.parse_int_list("9:5")

    def test_theta_candidates(self):
        assert cli.parse_theta_candidates("-0.5pi,0.5pi") == [-math.pi / 2, math.pi / 2]
        grid = cli.parse_theta_candidates("grid:8")
        assert len(grid) == 8
        assert grid[-1] == pytest.approx(math.pi)
        assert all(-math.pi < t <= math.pi for t in grid)
        with pytest.raises(ValueError):
            cli.parse_theta_candidates("grid:0")
        with pytest.raises(ValueError):
            cli.parse_theta_candidates("")


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
        assert manifest["parameters"]["graph"]["theta"] == cli.parse_phase("0.75pi")
        assert manifest["subcommand"] == "trace"
        assert "version" in manifest and "wall_time_s" in manifest

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
        rc = cli.main([
            "trace", "--graph", "tri:5", "--theta", "0", "--state", "pair:1,2:pi",
            "--measure", "werner-fidelity", "--t", "0:1:0.5", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

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

    def test_table_rerun_reproduces_csv_bytes(self, tmp_path):
        cli.main(["table", "--mode", "ctqw", "--n", "5", "--horizon", "20",
                  "--out", str(tmp_path)])
        first = (tmp_path / "table-ctqw.csv").read_bytes()
        rc = cli.main(["rerun", str(tmp_path / "table-ctqw.manifest.json"),
                       "--out", str(tmp_path / "again")])
        assert rc == 0
        assert (tmp_path / "again" / "table-ctqw.csv").read_bytes() == first

    def test_worker_env_gives_identical_output(self, tmp_path, monkeypatch):
        cli.main(["table", "--mode", "ctqw", "--n", "5,7", "--horizon", "20",
                  "--out", str(tmp_path), "--name", "seq"])
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        cli.main(["table", "--mode", "ctqw", "--n", "5,7", "--horizon", "20",
                  "--out", str(tmp_path), "--name", "par"])
        seq = (tmp_path / "seq.csv").read_bytes()
        par = (tmp_path / "par.csv").read_bytes()
        assert seq == par


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

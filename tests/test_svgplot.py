import hashlib
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from chiralwalk import cli, svgplot

PLOT_WIDTH = 640  # pixel columns of the plot area at line_plot's default width


def _pixel_columns(xs: np.ndarray, width: int) -> np.ndarray:
    """The pixel column of each sample: its share of the x range, floored."""
    x0, x1 = xs.min(), xs.max()
    x1 = x1 if x1 > x0 else x0 + 1.0
    return np.clip(np.floor((xs - x0) / (x1 - x0) * width), 0, width - 1)


def _runs(columns: np.ndarray):
    """(start, stop) of each run of consecutive samples in one column."""
    cuts = np.flatnonzero(columns[1:] != columns[:-1]) + 1
    bounds = np.concatenate(([0], cuts, [columns.size]))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _polyline_points(svg: str) -> list[list[str]]:
    return [m.split(" ") if m else [] for m in re.findall(r'<polyline points="([^"]*)"', svg)]


@st.composite
def series(draw, max_size=300):
    size = draw(st.integers(0, max_size))
    if draw(st.booleans()):
        xs = np.arange(size, dtype=float) * draw(st.sampled_from([0.01, 1.0, 3.5]))
    else:
        # Non-uniform and non-decreasing, repeated x values included.
        steps = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.01, 0.2, 1.0, 7.0]),
                              min_size=size, max_size=size))
        xs = np.cumsum(np.array(steps, dtype=float))
    kind = draw(st.sampled_from(["constant", "monotone", "spiky", "random"]))
    if kind == "constant":
        ys = np.full(size, draw(st.floats(-1e3, 1e3)))
    elif kind == "monotone":
        ys = np.cumsum(np.array(draw(st.lists(st.floats(0, 10), min_size=size, max_size=size))))
    elif kind == "spiky":
        ys = np.zeros(size)
        for k in draw(st.lists(st.integers(0, max(size - 1, 0)), max_size=8)) if size else []:
            ys[k] = draw(st.floats(-100, 100))
    else:
        ys = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size)))
    return xs, ys.astype(float)


class TestM4:
    @given(series(), st.integers(1, 60))
    @example((np.arange(2.0), np.array([3.0, 1.0])), 1)
    @example((np.zeros(5), np.array([1.0, 5.0, -2.0, 5.0, 1.0])), 3)
    @settings(max_examples=150, deadline=None)
    def test_keeps_first_last_min_max_of_every_column(self, data, width):
        xs, ys = data
        columns = _pixel_columns(xs, width) if xs.size else xs
        keep = svgplot._m4_indices(columns, ys)
        # A subsequence of the input, in order.
        assert np.all(np.diff(keep) > 0)
        assert keep.size == 0 or (keep[0] >= 0 and keep[-1] < xs.size)
        kept = set(keep.tolist())
        runs = _runs(columns) if xs.size else []
        for start, stop in runs:
            assert start in kept and stop - 1 in kept
            inside = keep[(keep >= start) & (keep < stop)]
            assert ys[inside].min() == ys[start:stop].min()
            assert ys[inside].max() == ys[start:stop].max()
            assert inside.size <= 4
        # Non-decreasing x gives one run per column.
        assert keep.size <= 4 * width
        if all(stop - start <= 2 for start, stop in runs):
            assert np.array_equal(keep, np.arange(xs.size))

    @given(series(max_size=60), st.text("abc ", max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_sparse_series_plot_is_unchanged(self, data, label):
        # At most two samples in a pixel column: the plot draws every sample,
        # byte for byte as the unreduced plot does.
        xs, ys = data
        if xs.size == 0:
            return
        if any(stop - start > 2 for start, stop in _runs(_pixel_columns(xs, PLOT_WIDTH))):
            return
        plot = [(label, xs.tolist(), ys.tolist())]
        assert svgplot.line_plot(plot, title="t") == oracles.line_plot_every_point(plot, title="t")
        assert svgplot.line_plot([(label, xs, ys)], title="t") == svgplot.line_plot(plot, title="t")

    def test_long_trace_polyline_keeps_column_extremes(self):
        # 200 001 samples over 640 pixel columns, as in a 0:2000:0.01 trace.
        xs = 0.01 * np.arange(200_001)
        ys = np.abs(np.sin(0.37 * xs) * np.cos(3.1 * xs)) * np.exp(-xs / 900)
        full = _polyline_points(oracles.line_plot_every_point([("c", xs.tolist(), ys.tolist())]))[0]
        reduced = _polyline_points(svgplot.line_plot([("c", xs, ys)]))[0]
        assert len(reduced) <= 4 * PLOT_WIDTH
        # The reduced points are a subsequence of the full polyline ...
        it = iter(full)
        assert all(point in it for point in reduced)
        # ... holding the first, last, lowest and highest sample of each column.
        kept = set(reduced)
        for start, stop in _runs(_pixel_columns(xs, PLOT_WIDTH)):
            ends = {start, stop - 1}
            ends |= {start + int(np.argmin(ys[start:stop])), start + int(np.argmax(ys[start:stop]))}
            assert {full[k] for k in ends} <= kept

    def test_mismatched_or_empty_series_are_rejected(self):
        with pytest.raises(ValueError):
            svgplot.line_plot([("a", [0.0, 1.0], [1.0])])
        with pytest.raises(ValueError):
            svgplot.line_plot([("a", [], [])])


class TestSvgBytes:
    # SHA-256 of the SVGs of the same commands before line plots were reduced.
    @pytest.mark.parametrize("argv, name, digest", [
        (["scaling", "--theta", "0.5pi", "--n", "5:9:2", "--t", "0:5:0.01"], "scaling",
         "31966a357526e2eab89686bc8dcec714e9c41060b739614ddfd564f6dfd23d71"),
        (["snapshots", "--graph", "tri:7", "--state", "werner:0.5", "--times", "0,0.5,1"],
         "snapshots", "8182119c386b7631ff01133285f74ff40d568f6f4b30fa337396c309617569c7"),
        (["trace", "--graph", "tri:9", "--theta", "0.5pi", "--state", "pair:1,2:pi",
          "--measure", "concurrence", "--t", "0:20:0.05"], "trace",
         "fb3c404914a09086e65957a20fc27f6fba6c1a89ce85aa32f5ce51d39d6a354c"),
    ], ids=["scaling", "snapshots", "trace"])
    def test_sparse_plots_keep_their_bytes(self, tmp_path, argv, name, digest):
        assert cli.main(argv + ["--svg", "--out", str(tmp_path)]) == 0
        svg = (tmp_path / f"{name}.svg").read_bytes()
        ET.fromstring(svg)
        assert hashlib.sha256(svg).hexdigest() == digest


def test_empty_heatmap_grid_is_rejected():
    with pytest.raises(ValueError, match="^nothing to plot$"):
        svgplot.heatmap_grid([], [])

import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from chiralwalk import io

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e15, -1e15, 2.0**53,
           123456789012345678.0, 1e300, 0.1, 1 / 3, float("inf"), float("-inf")]


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Any finite double from its bit pattern, the special values above, and
# integer-valued floats at and above 1e15 (where %g switches to exponents).
floats = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits_to_float).filter(np.isfinite),
    st.sampled_from(SPECIAL),
    st.integers(10**15, 10**20).map(float),
    st.floats(allow_nan=False),
)
# Cells of a table row: ints, floats, empty cells and notes.
cells = st.one_of(st.integers(-10**20, 10**20), floats, st.just(""), st.sampled_from(["even-n", "a%sb"]))


def _written(tmp_path, rows, block):
    path = tmp_path / "out.csv"
    with mock.patch.object(io, "CSV_BLOCK_ROWS", block):
        io.write_csv(path, ["comment", "grid: x"], ["a", "b"], rows)
    return path.read_bytes().decode()


class TestWriteCsv:
    @given(st.lists(st.tuples(floats, floats), max_size=40), st.integers(1, 7))
    @example([(0.5, -0.0), (5e-324, 1e15)], 1)
    @settings(max_examples=100, deadline=None)
    def test_float_rows_match_per_cell_text(self, tmp_path_factory, rows, block):
        tmp_path = tmp_path_factory.mktemp("csv")
        expected = oracles.csv_text_per_cell(["comment", "grid: x"], ["a", "b"], rows)
        assert _written(tmp_path, iter(rows), block) == expected

    @given(st.lists(st.lists(floats, min_size=3, max_size=3), max_size=12), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_numpy_rows_match_per_cell_text(self, tmp_path_factory, rows, block):
        tmp_path = tmp_path_factory.mktemp("csv")
        matrix = np.array(rows, dtype=float).reshape(len(rows), 3)
        expected = oracles.csv_text_per_cell(["comment", "grid: x"], ["a", "b"], matrix)
        assert _written(tmp_path, matrix, block) == expected

    @given(st.lists(st.lists(cells, max_size=6), max_size=20), st.integers(1, 5))
    @example([[5, 193.85, 0.9984, "", "", "even-n"], [7, 1.5, 0.5, 2.0, 0.25, ""]], 2)
    @example([[True, np.int64(7), np.float64(0.1)], [False, 3, 2.5]], 2)
    @example([[1.0], [2.0, 3.0], []], 3)
    @settings(max_examples=100, deadline=None)
    def test_mixed_rows_match_per_cell_text(self, tmp_path_factory, rows, block):
        tmp_path = tmp_path_factory.mktemp("csv")
        expected = oracles.csv_text_per_cell(["comment", "grid: x"], ["a", "b"], rows)
        assert _written(tmp_path, rows, block) == expected

    @given(floats)
    @settings(max_examples=500)
    def test_format_number_is_twelve_significant_digits(self, x):
        assert io.format_number(x) == f"{x:.12g}"
        assert io.format_number(np.float64(x)) == f"{x:.12g}"

    def test_long_float_csv_is_written_in_small_pieces(self, tmp_path):
        # 200 001 rows make a 4.7 MB file; the writer holds one block at a time.
        times = (0.01 * np.arange(200_001)).tolist()
        values = np.abs(np.sin(0.37 * np.arange(200_001))).tolist()
        path = tmp_path / "long.csv"
        tracemalloc.start()
        try:
            io.write_csv(path, ["long"], ["t", "value"], zip(times, values))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 4e6
        assert peak < size / 10

    def test_failed_chunk_leaves_no_file(self, tmp_path):
        def chunks():
            yield "a,b\n"
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError):
            io.atomic_write_text(tmp_path / "x.csv", chunks())
        assert list(tmp_path.iterdir()) == []

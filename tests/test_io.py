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
    @example([[np.int64(1), np.int64(7), np.float64(0.1)], [0, 3, 2.5]], 2)
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

    def test_long_float_array_is_written_in_small_pieces(self, tmp_path):
        # The same 200 001 rows as one float64 array take the float kernel.
        rows = np.column_stack((0.01 * np.arange(200_001),
                                np.abs(np.sin(0.37 * np.arange(200_001)))))
        path = tmp_path / "long.csv"
        tracemalloc.start()
        try:
            io.write_csv(path, ["long"], ["t", "value"], rows)
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


# Values the float kernel must render as '%.12g' does: around each power of
# ten, where log10 may be off by one; at the switches between fixed and
# exponent notation (1e-5 and 1e12); halfway mantissas, exact and near; and
# mantissas that carry into the next power of ten.
POWERS = [np.nextafter(10.0**j, direction) for j in range(-12, 13)
          for direction in (-np.inf, np.inf)] + [10.0**j for j in range(-12, 13)]
SWITCHES = [1e-5, 9.99999999999e-6, 9.999999999995e-6, 1e-4, 9.99999999999e-5,
            999999999999.0, 999999999999.4, 1e12, 1000000000001.0]
HALFWAY = [12345678901.25, 100000000000.5, 100000000001.5, 1234567890.375, 999999999998.5,
           1234567.8901250001, 0.1234567890125, 1.0000000000005, 2.0000000000005,
           1.2345678901235e-7]
CARRIES = [9.9999999999995, 9.9999999999996, 0.99999999999996, 999999999999.75,
           99999.99999999996, 9.99999999999996e-5, 9.99999999999996e-12]
TARGETED = [*POWERS, *SWITCHES, *HALFWAY, *CARRIES]
# Any bit pattern, NaN included, with either sign.
kernel_floats = st.builds(
    lambda x, negate: -x if negate else x,
    st.one_of(floats, st.integers(0, 2**64 - 1).map(_bits_to_float),
              st.just(float("nan"))),
    st.booleans(),
)


class TestFloatKernel:
    @given(st.lists(kernel_floats, max_size=60), st.integers(1, 3), st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_array_matches_per_cell_text(self, tmp_path_factory, values, width, block):
        values = np.array(values + [0.5] * (-len(values) % width)).reshape(-1, width)
        expected = oracles.csv_text_per_cell(["comment", "grid: x"], ["a", "b"], values)
        assert _written(tmp_path_factory.mktemp("csv"), values, block) == expected

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_targeted_values_match_per_cell_text(self, tmp_path, sign):
        values = sign * np.array(TARGETED + SPECIAL + [np.nan]).reshape(-1, 1)
        for block in (1, 5, io.CSV_BLOCK_ROWS):
            expected = oracles.csv_text_per_cell(["comment", "grid: x"], ["a", "b"], values)
            assert _written(tmp_path, values, block) == expected

    def test_halfway_neighbours_match_per_cell_text(self, tmp_path):
        # Halfway between two 12-digit mantissas at every exponent, with the
        # neighbouring doubles, so the band check decides each rounding.
        rng = np.random.default_rng(5)
        mantissas = rng.integers(10**11, 10**12, 40) + 0.5
        halfway = np.concatenate([mantissas * 10.0**(e - 11) for e in range(-12, 13)])
        values = np.concatenate([halfway, np.nextafter(halfway, np.inf),
                                 np.nextafter(halfway, -np.inf)]).reshape(-1, 3)
        expected = oracles.csv_text_per_cell(["comment", "grid: x"], ["a", "b"], values)
        assert _written(tmp_path, values, io.CSV_BLOCK_ROWS) == expected

    def test_fast_path_takes_ordinary_values(self):
        # Only values outside [1e-11, 1e12), or within the band, fall back.
        times, values = 0.01 * np.arange(1, 20_001), np.abs(np.sin(0.37 * np.arange(20_000)))
        assert io._decimal(times)[0].all()
        assert io._decimal(values[values >= 1e-11])[0].mean() > 0.999
        assert not io._decimal(np.array([0.0, -0.0, 5e-324, np.inf, np.nan, 1e12, 9e-12,
                                         12345678901.25]))[0].any()

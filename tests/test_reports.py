"""File writers: the bytes of the chunked renderer and writers against one-line-at-a-time references, orjson's
float text against ``repr``'s, the fan chart's quantiles, the histogram's bins, the spread function's JSON, the
output directory each writer makes on first use, and every writer's signature."""

from __future__ import annotations

import csv
import inspect
import io
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protval import reports
from protval.loss import (
    draw_initial_ratios,
    lognormal_mu,
    lognormal_sigma,
    path_quantiles,
    reverting_paths,
    standard_normals,
)
from protval.reports import (
    FAN_LABELS,
    FAN_PROBS,
    HISTOGRAM_MAX_BINS,
    write_fan_chart_csv,
    write_histogram_csv,
    write_pvfp_samples_csv,
    write_scenarios_csv,
    write_spread_function,
)
from protval.risk import SpreadFunction

# Row counts around the writers' chunks of CHUNK lines.
CHUNK = reports._CHUNK_LINES
ROW_COUNTS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)
# Values whose shortest repr is unusual: a signed zero, the smallest subnormal and a huge float.
SPECIAL = (0.0, -0.0, 5e-324, 5e300)
# PVFP samples whose shortest repr is unusual: a signed zero, the smallest subnormal, the
# exponent forms of a small and a large float, and the most negative float.
SAMPLE_SPECIAL = (-0.0, 5e-324, 1e-5, 1e16, -1.7976931348623157e308)
# Values orjson writes as repr does: both zeros and the ends of [1e-4, 1e16).
IN_RANGE_SPECIAL = (0.0, -0.0, 1e-4, float(np.nextafter(1e16, 0)), -1e-4)
# Values it does not: just outside that range, the smallest subnormal, infinities and nan.
OUT_OF_RANGE = (float(np.nextafter(1e-4, 0)), 1e16, -1e16, 5e-324, -5e-324, 1e-5, float("inf"), float("-inf"), float("nan"))
# A chronicle whose year-2 gap floors every path from a year-1 ratio below 1.375 at nu = 0.8.
FLOORING_CHRONICLE = (1.5, 0.1, 0.9, 1.2)


def values(n: int, width: int) -> np.ndarray:
    """An (n, width) matrix of ratios with the special values spread through it."""
    data = np.random.default_rng(n).uniform(0.0, 3.0, (n, width))
    flat = data.reshape(-1)
    for offset, value in enumerate(SPECIAL):
        flat[offset::7] = value
    return data


def reference_rows(matrix: np.ndarray) -> str:
    """Row i of ``matrix`` as "\\n<i>," and its floats' ``repr`` joined by ",", one line at a time."""
    return "".join(f"\n{i}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(matrix))


def reference_scenarios_csv(path: Path, matrix: np.ndarray) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(["scenario"] + [f"year_{t}" for t in range(1, matrix.shape[1] + 1)]) + "\n")
        for i, row in enumerate(matrix):
            handle.write(f"{i}," + ",".join(repr(float(v)) for v in row) + "\n")


def rendered_rows(values: np.ndarray) -> str:
    """What ``reports._write_rows_of`` writes for ``values``, captured in memory and decoded."""
    handle = io.BytesIO()
    reports._write_rows_of(handle, values)
    return handle.getvalue().decode()


def reference_pvfp_samples_csv(path: Path, samples: np.ndarray) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write("scenario,pvfp\n")
        for i, value in enumerate(samples):
            handle.write(f"{i},{float(value)!r}\n")


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_rows_of_a_matrix_match_a_line_by_line_writer(n):
    matrix = values(n, 3)
    assert rendered_rows(matrix) == reference_rows(matrix)


@pytest.mark.parametrize("rows", [100, None], ids=["100_row_chunks", "one_chunk"])
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_chunks_of_other_sizes_match_a_line_by_line_writer(n, rows):
    """``_write_chunk`` of blocks that end inside a chunk of ``_write_rows_of``, and of the whole matrix at once."""
    matrix = values(n, 3)
    rows = rows or n
    starts = reports._row_starts(n)
    handle = io.BytesIO()
    for lo in range(0, n, rows):
        reports._write_chunk(handle, matrix[lo:lo + rows], starts[lo:lo + rows])
    assert handle.getvalue().decode() == reference_rows(matrix)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_scenarios_csv_matches_a_line_by_line_writer_of_the_reverting_paths(tmp_path, orjson_blocks, n):
    """Ratios that floor, and one 5e-324 that makes its chunk ``repr``'s; the count returned is the paths' own."""
    sp1 = np.random.default_rng(n).lognormal(0.2, 0.6, n)
    sp1[n // 2] = 5e-324
    paths, floored = reverting_paths(sp1, FLOORING_CHRONICLE, 0.8)
    assert floored > 0
    assert write_scenarios_csv(tmp_path / "chunked.csv", sp1, FLOORING_CHRONICLE, 0.8) == floored
    reference_scenarios_csv(tmp_path / "reference.csv", paths)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert len(orjson_blocks) == -(-n // CHUNK) - 1


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_pvfp_samples_csv_matches_a_line_by_line_writer(tmp_path, n):
    """n rows, n + 5, then n again: a row start cached for one count would show in the next file."""
    for count in (n, n + 5, n):
        samples = values(count, 1)[:, 0]
        samples[5::7] *= -1e5
        for offset, value in enumerate(SAMPLE_SPECIAL):
            samples[offset::11] = value
        write_pvfp_samples_csv(tmp_path / "chunked.csv", samples)
        reference_pvfp_samples_csv(tmp_path / "reference.csv", samples)
        data = (tmp_path / "chunked.csv").read_bytes()
        assert data == (tmp_path / "reference.csv").read_bytes()
        assert data.count(b"\n") == count + 1


@pytest.fixture
def orjson_blocks(monkeypatch):
    """The shapes of the blocks ``reports`` hands to orjson, in call order."""
    shapes = []

    def dumps(block, option):
        shapes.append(block.shape)
        return orjson.dumps(block, option=option)

    monkeypatch.setattr(reports, "orjson", SimpleNamespace(dumps=dumps, OPT_SERIALIZE_NUMPY=orjson.OPT_SERIALIZE_NUMPY))
    return shapes


def mixed_values(width: int, special: tuple[float, ...], step: int, low: float = 0.5, high: float = 3.0) -> np.ndarray:
    """A (2 * CHUNK + 1, width) matrix whose ``special`` values, every ``step``-th entry, sit only in the second chunk.

    The first chunk and the last row hold uniform draws in [low, high) and ``IN_RANGE_SPECIAL``, so the
    first and last chunks are orjson's and the middle one is ``repr``'s.
    """
    data = np.random.default_rng(width).uniform(low, high, (2 * CHUNK + 1, width))
    for offset, value in enumerate(special):
        data[CHUNK:2 * CHUNK].reshape(-1)[offset::step] = value
    for offset, value in enumerate(IN_RANGE_SPECIAL):
        data[:CHUNK].reshape(-1)[offset::13] = value
        data[2 * CHUNK, offset % width] = value
    return data


@pytest.mark.parametrize("width", [1, 3, 30])
def test_rows_of_a_matrix_where_orjson_and_repr_chunks_meet(orjson_blocks, width):
    matrix = mixed_values(width, SPECIAL, 7)
    assert rendered_rows(matrix) == reference_rows(matrix)
    assert orjson_blocks == [(CHUNK, width), (1, width)]


def test_pvfp_samples_csv_where_orjson_and_repr_chunks_meet(tmp_path, orjson_blocks):
    samples = mixed_values(1, SAMPLE_SPECIAL, 11, low=-3e5, high=3e5)[:, 0]
    write_pvfp_samples_csv(tmp_path / "chunked.csv", samples)
    reference_pvfp_samples_csv(tmp_path / "reference.csv", samples)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert orjson_blocks == [(CHUNK,), (1,)]


@pytest.mark.parametrize("matrix", [
    np.asfortranarray(np.linspace(0.5, 3.0, 3 * (2 * CHUNK + 1)).reshape(-1, 3)),
    np.linspace(0.5, 3.0, 6 * (2 * CHUNK + 1)).reshape(-1, 6)[:, ::2],
    np.linspace(0.5, 3.0, 3 * (2 * CHUNK + 1)).reshape(-1, 3).astype(">f8"),
    np.linspace(0.5, 3.0, 3 * (2 * CHUNK + 1)).reshape(-1, 3).astype(np.float32),
], ids=["fortran-order", "strided", "big-endian", "float32"])
def test_rows_of_an_array_orjson_cannot_take_as_it_is(matrix):
    """orjson refuses a non-contiguous array and would misread a big-endian one; float32 has other shortest digits.

    The chunks of its ``2 * CHUNK + 1`` rows are such arrays too, and start at row indices other than 0.
    """
    assert rendered_rows(matrix) == reference_rows(matrix)


def test_orjson_writes_repr_text_for_a_million_random_doubles_in_range(orjson_blocks):
    """Random bit patterns with exponents 2**-14..2**53, kept where the magnitude lies in [1e-4, 1e16).

    Pins the installed orjson's float formatter to ``repr``: a release that
    changed its digits or its switch to exponent notation would fail here.
    """
    rng = np.random.default_rng(2801)
    n = 1_030_000
    bits = (
        (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
        | (rng.integers(1023 - 14, 1023 + 53 + 1, n, dtype=np.uint64) << np.uint64(52))
        | rng.integers(0, 1 << 52, n, dtype=np.uint64)
    )
    doubles = bits.view(np.float64)
    magnitude = np.abs(doubles)
    doubles = doubles[(magnitude >= 1e-4) & (magnitude < 1e16)][:1_000_000]
    assert doubles.size == 1_000_000
    matrix = doubles.reshape(-1, 64)
    expected = "".join(f"\n{i}," + ",".join(map(repr, row)) for i, row in enumerate(matrix.tolist()))
    assert rendered_rows(matrix) == expected
    assert sum(rows for rows, _ in orjson_blocks) == len(matrix)


@pytest.mark.parametrize("value", IN_RANGE_SPECIAL)
def test_orjson_writes_repr_text_at_the_ends_of_its_range(orjson_blocks, value):
    assert rendered_rows(np.array([value])) == f"\n0,{value!r}"
    assert rendered_rows(np.array([1.5, value, 2.5])) == f"\n0,1.5\n1,{value!r}\n2,2.5"
    assert len(orjson_blocks) == 2


@pytest.mark.parametrize("value", OUT_OF_RANGE)
def test_a_chunk_with_a_value_outside_orjsons_range_is_rendered_by_repr(orjson_blocks, value):
    """The range test raises nothing under the errstate that ``value`` and ``simulate`` run in."""
    with np.errstate(all="raise"):
        assert rendered_rows(np.array([value])) == f"\n0,{value!r}"
        assert rendered_rows(np.array([[1.5, value], [2.5, 0.5]])) == f"\n0,1.5,{value!r}\n1,2.5,0.5"
    assert orjson_blocks == []


@pytest.mark.parametrize("years", [30, 1])
def test_fan_chart_writes_each_years_quantiles_with_their_bits(tmp_path, years):
    rng = np.random.default_rng(years)
    sp1 = rng.lognormal(-0.3, 0.4, 1000)
    chronicle = tuple(rng.uniform(0.5, 1.5, years))
    write_fan_chart_csv(tmp_path / "fan.csv", sp1, chronicle, 0.8)
    with (tmp_path / "fan.csv").open(newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    assert header == ["year", *FAN_LABELS]
    assert [row[0] for row in rows] == [str(t) for t in range(1, years + 1)]
    fan = path_quantiles(sp1, chronicle, 0.8, FAN_PROBS)
    assert np.array([[float(v) for v in row[1:]] for row in rows]).tobytes() == fan.tobytes()


def histogram_rows(directory: Path, year1: list[float] | np.ndarray) -> list[tuple[float, float, int]]:
    """The (bin_left, bin_right, count) rows that ``write_histogram_csv`` writes for ``year1``."""
    path = directory / "histogram.csv"
    write_histogram_csv(path, np.asarray(year1, dtype=float))
    with path.open(newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["bin_left", "bin_right", "count"]
    return [(float(left), float(right), int(count)) for left, right, count in rows]


class TestHistogram:
    def test_worked_example(self, tmp_path):
        write_histogram_csv(tmp_path / "h.csv", np.array([0.05, 0.15, 0.15]))
        assert (tmp_path / "h.csv").read_bytes() == b"bin_left,bin_right,count\n0.0,0.1,1\n0.1,0.2,2\n"

    def test_boundary_value_lands_in_its_own_bin(self, tmp_path):
        occupied = [left for left, _, count in histogram_rows(tmp_path, [0.3]) if count]
        assert occupied == [pytest.approx(0.3)]

    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_counts_are_conserved(self, values):
        with tempfile.TemporaryDirectory() as scratch:
            assert sum(count for _, _, count in histogram_rows(Path(scratch), values)) == len(values)

    def test_bins_start_at_zero_for_nonnegative_data(self, tmp_path):
        rows = histogram_rows(tmp_path, [0.55])
        assert rows[0][0] == 0.0
        assert len(rows) == 6

    def test_modal_bin_of_a_moderate_vol_draw(self, tmp_path):
        # mean 0.80, CV 0.2: the density mode sits near 0.75, so the
        # 10%-bin histogram of 10^4 draws peaks inside [0.6, 0.9)
        sigma = lognormal_sigma(0.2)
        values = draw_initial_ratios(lognormal_mu(0.80, sigma), sigma, standard_normals(10_000, seed=99))
        modal_left = max(histogram_rows(tmp_path, values), key=lambda row: row[2])[0]
        assert 0.6 <= modal_left < 0.9

    def test_a_ratio_in_the_last_allowed_bin_writes_every_bin(self, tmp_path):
        rows = histogram_rows(tmp_path, [0.05, 999.95])
        assert len(rows) == HISTOGRAM_MAX_BINS
        assert rows[-1][0] == pytest.approx(999.9) and rows[-1][2] == 1

    @pytest.mark.parametrize("ratio", [1000.0, 1e5])
    def test_a_ratio_needing_more_bins_than_the_bound_is_rejected_and_writes_no_file(self, tmp_path, ratio):
        with pytest.raises(ValueError) as raised:
            write_histogram_csv(tmp_path / "out" / "h.csv", np.array([0.5, ratio]))
        assert str(raised.value) == (
            f"largest year-1 ratio {ratio!r} needs more than the histogram's {HISTOGRAM_MAX_BINS} bins of width 0.1"
        )
        assert not (tmp_path / "out").exists()


def test_spread_function_json_is_written_into_a_directory_made_on_first_use(tmp_path):
    path = tmp_path / "new" / "deeper" / "spread_function.json"
    write_spread_function(path, SpreadFunction(0.020781, 16.18))
    assert path.read_bytes() == b'{\n  "a": 0.020781,\n  "b": 16.18,\n  "c": 1.0\n}\n'


def test_every_writer_takes_its_path_first_and_returns_no_path():
    """``bench/tracing.py`` sizes the file a ``write_*`` call leaves from the call's first argument unless it returns
    a path; each writer returns None but the scenario writer, which returns its floored count."""
    writers = {name: fn for name, fn in vars(reports).items() if name.startswith("write_")}
    assert writers
    for name, fn in writers.items():
        signature = inspect.signature(fn)
        assert next(iter(signature.parameters)) == "path", name
        assert signature.return_annotation == ("int" if name == "write_scenarios_csv" else "None"), name

"""CSV writers: the bytes of the chunked writers against one-line-at-a-time references."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from protval.reports import write_pvfp_samples_csv, write_scenarios_csv

# Row counts around the writers' 1,024-line chunks.
ROW_COUNTS = (1, 1023, 1024, 1025, 2049)
# Values whose shortest repr is unusual: a signed zero, the smallest subnormal and a huge float.
SPECIAL = (0.0, -0.0, 5e-324, 5e300)


def values(n: int, width: int) -> np.ndarray:
    """An (n, width) matrix of ratios with the special values spread through it."""
    data = np.random.default_rng(n).uniform(0.0, 3.0, (n, width))
    flat = data.reshape(-1)
    for offset, value in enumerate(SPECIAL):
        flat[offset::7] = value
    return data


def reference_scenarios_csv(path: Path, matrix: np.ndarray) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(["scenario"] + [f"year_{t}" for t in range(1, matrix.shape[1] + 1)]) + "\n")
        for i, row in enumerate(matrix):
            handle.write(f"{i}," + ",".join(repr(float(v)) for v in row) + "\n")


def reference_pvfp_samples_csv(path: Path, samples: np.ndarray) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write("scenario,pvfp\n")
        for i, value in enumerate(samples):
            handle.write(f"{i},{float(value)!r}\n")


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_scenarios_csv_matches_a_line_by_line_writer(tmp_path, n):
    matrix = values(n, 3)
    write_scenarios_csv(tmp_path / "chunked.csv", matrix)
    reference_scenarios_csv(tmp_path / "reference.csv", matrix)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_pvfp_samples_csv_matches_a_line_by_line_writer(tmp_path, n):
    samples = values(n, 1)[:, 0]
    samples[5::7] *= -1e5
    write_pvfp_samples_csv(tmp_path / "chunked.csv", samples)
    reference_pvfp_samples_csv(tmp_path / "reference.csv", samples)
    data = (tmp_path / "chunked.csv").read_bytes()
    assert data == (tmp_path / "reference.csv").read_bytes()
    assert data.count(b"\n") == n + 1

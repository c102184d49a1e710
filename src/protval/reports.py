"""CSV, JSON and manifest emission: every file a run leaves.

CSV files carry full-precision floats (shortest round-trip repr) so reruns
can be compared byte for byte; human-readable percent formatting is the
CLI's job. Line endings are pinned to "\\n" for the same reason. Every
file is opened for bytes by ``_open``, which makes the output directory on
first use: a run that stops before its first file leaves no directory
behind. The small files are built as text and encoded once as UTF-8.

The two bulk files, scenario paths and PVFP samples, are still ``repr``'s
text, handled as bytes from the renderer to the file. orjson renders a
chunk of their rows only when every value is 0 or of magnitude in
[1e-4, 1e16), where its shortest round-trip digits are ``repr``'s; ``repr``
renders any other chunk, and its text is encoded. The scenario and fan-chart
writers take the year-1 ratios: the scenario file's rows are built by
``loss.reverting_paths`` one chunk at a time, each written before the next is
built, so the path matrix is never whole, and the fan chart's quantiles come
from ``loss.path_quantiles``.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np
import orjson

from . import __version__
from .cap import CapStrip, CapValuation
from .config import RunConfig
from .loss import path_quantiles, reverting_paths
from .risk import PvfpStatistics, SpreadFunction

FAN_PROBS = (0.01, 0.25, 0.50, 0.75, 0.99)
FAN_LABELS = ("q01", "q25", "q50", "q75", "q99")
HISTOGRAM_BIN_WIDTH = 0.10
# Bins a histogram may have: year-1 ratios below 1,000 at the 0.10 width.
HISTOGRAM_MAX_BINS = 10_000

# Rows rendered and written at once by _write_chunk: one call per line costs
# more than rendering the line, while the text of a chunk of 256 lines (about
# 150 KB at 30 years) adds little to the peak memory of a run.
_CHUNK_LINES = 256
# Magnitudes other than 0 that orjson writes as repr does, in fixed notation; outside
# them repr writes 1e-05 and 1e+16 where orjson writes 0.00001 and 1e16.
_ORJSON_MIN, _ORJSON_MAX = 1e-4, 1e16


def _fmt(value: float) -> str:
    return repr(float(value))


def _open(path: Path) -> BinaryIO:
    """``path`` opened for writing bytes, its directory made if missing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("wb")


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, its "\\n" line ends as they are."""
    with _open(path) as handle:
        handle.write(text.encode())


def _write_rows(path: Path, rows: Iterable[Sequence[str]]) -> None:
    """Write ``rows`` to ``path`` as CSV, each line ended by "\\n"."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    _write_text(path, text.getvalue())


@functools.lru_cache(maxsize=1)
def _row_starts(n: int) -> tuple[bytes, ...]:
    """Row i's start, "\\n" then the "i," label, for rows 0..n-1; a run's portfolios share one row count."""
    return tuple(b"\n%d," % i for i in range(n))


def _orjson_writes_repr(block: np.ndarray) -> bool:
    """True when ``block`` is float64 and every value is 0 or of magnitude in [``_ORJSON_MIN``, ``_ORJSON_MAX``)."""
    magnitude = np.abs(block)
    return block.dtype == np.float64 and bool(
        np.all((magnitude < _ORJSON_MAX) & ((magnitude >= _ORJSON_MIN) | (magnitude == 0)))
    )


def _write_chunk(handle: BinaryIO, block: np.ndarray, starts: Sequence[bytes]) -> None:
    """Write row i of ``block``, a vector's entry or a matrix's row, as ``starts[i]`` and its floats joined by ",".

    A row's start is the newline that ends the line before it and the row's
    "<index>," label, cached for the whole file by ``_row_starts``. The block
    is one orjson call, split at the row separators, when
    ``_orjson_writes_repr`` holds for it; any other block is ``repr`` per
    value, encoded. The starts and texts are interleaved in one list and
    joined once, so no row is copied before the join, and the block reaches
    ``handle`` as one bytes object that no text layer encodes again.
    """
    if _orjson_writes_repr(block):
        # One chain, so that no copy of the text outlives the split.
        cells = orjson.dumps(
            np.ascontiguousarray(block), option=orjson.OPT_SERIALIZE_NUMPY
        )[block.ndim:-block.ndim].split(b"],[" if block.ndim == 2 else b",")
    elif block.ndim == 2:
        cells = [",".join(map(repr, row)).encode() for row in block.tolist()]
    else:
        cells = [repr(value).encode() for value in block.tolist()]
    parts = [b""] * (2 * len(block))
    parts[0::2] = starts
    parts[1::2] = cells
    handle.write(b"".join(parts))


def _write_rows_of(handle: BinaryIO, values: np.ndarray) -> None:
    """Write row i of ``values`` as "\\n<i>," and its floats, ``_CHUNK_LINES`` rows per ``_write_chunk``."""
    starts = _row_starts(len(values))
    for lo in range(0, len(values), _CHUNK_LINES):
        _write_chunk(handle, values[lo:lo + _CHUNK_LINES], starts[lo:lo + _CHUNK_LINES])


def _write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` to ``path`` as JSON indented by 2 spaces, ended by "\\n"; floats render as ``repr``."""
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def write_manifest(path: Path, command: str, config: RunConfig) -> None:
    """Record what produced this output directory, enabling exact reruns."""
    _write_json(path, {
        "command": command,
        "config_path": str(config.config_path),
        "config_sha256": config.config_sha256,
        "seed": config.seed,
        "scenarios": config.scenarios,
        "horizon": config.horizon,
        "engine_version": __version__,
    })


def write_spread_function(path: Path, spread_fn: SpreadFunction) -> None:
    """The fitted spread function a * ln(b * vol + c) as JSON, with c = 1."""
    _write_json(path, {"a": spread_fn.a, "b": spread_fn.b, "c": 1.0})


def write_cap_report(path: Path, strip: CapStrip, valuation: CapValuation) -> None:
    """Cap valuation as a metric-per-row table over period indices 0..n.

    The input rows print ``strip``, the table the caplets were priced from.
    ``valuation`` is cost-signed (insurer costs negative), matching how
    remuneration reports are presented.
    """
    _write_rows(path, [
        ["metric"] + [str(j) for j in range(len(strip.notionals))],
        ["notional"] + [_fmt(n) for n in strip.notionals],
        ["discount_factor"] + [_fmt(df) for df in strip.discount_factors],
        ["forward_rate"] + [_fmt(f) for f in strip.forwards],
        ["strike"] + [_fmt(k) for k in strip.strikes],
        ["volatility"] + [_fmt(v) for v in strip.vols],
        ["caplet_cost"] + [_fmt(v) for v in valuation.caplet_values],
        *([name, _fmt(getattr(valuation, name))] for name in CapValuation.AGGREGATES),
    ])


def write_scenarios_csv(path: Path, sp1: np.ndarray, chronicle: Sequence[float], nu: float) -> int:
    """One (scenario index, year_1..year_H) row per path of ``reverting_paths(sp1, chronicle, nu)``; its floored count.

    The paths are built ``_CHUNK_LINES`` ratios at a time, and each chunk is
    written before the next is built, so the path matrix is never whole.
    Numbers need no quoting, so no ``csv.writer``.
    """
    starts = _row_starts(len(sp1))
    floored = 0
    with _open(path) as handle:
        handle.write(",".join(["scenario"] + [f"year_{t}" for t in range(1, len(chronicle) + 1)]).encode())
        for lo in range(0, len(sp1), _CHUNK_LINES):
            paths, count = reverting_paths(sp1[lo:lo + _CHUNK_LINES], chronicle, nu)
            _write_chunk(handle, paths, starts[lo:lo + _CHUNK_LINES])
            floored += count
        handle.write(b"\n")
    return floored


def write_fan_chart_csv(path: Path, sp1: np.ndarray, chronicle: Sequence[float], nu: float) -> None:
    """The ``FAN_PROBS`` quantiles of each year of the paths from ``sp1``, one row per year, by ``path_quantiles``."""
    fan = path_quantiles(sp1, chronicle, nu, FAN_PROBS)
    _write_rows(path, [
        ["year"] + list(FAN_LABELS),
        *([str(t)] + [_fmt(q) for q in quantiles] for t, quantiles in enumerate(fan, start=1)),
    ])


def write_histogram_csv(path: Path, year1: np.ndarray) -> None:
    """Counts of the year-1 loss ratios per bin [i*w, (i+1)*w) of width ``HISTOGRAM_BIN_WIDTH``.

    The ratios are >= 0, so the bins run from 0 up to the highest occupied one;
    a ratio that needs more than ``HISTOGRAM_MAX_BINS`` bins raises a ValueError.
    The small epsilon keeps values like 0.3 in the bin whose edge they
    mathematically sit on despite binary rounding of v / w.
    """
    bins = np.floor(year1 / HISTOGRAM_BIN_WIDTH + 1e-9).astype(int)
    if bins.max(initial=0) >= HISTOGRAM_MAX_BINS:
        raise ValueError(
            f"largest year-1 ratio {float(year1.max())!r} needs more than the histogram's "
            f"{HISTOGRAM_MAX_BINS} bins of width {HISTOGRAM_BIN_WIDTH}"
        )
    counts = np.bincount(bins)
    lefts = [i * HISTOGRAM_BIN_WIDTH for i in range(len(counts))]
    _write_rows(path, [
        ["bin_left", "bin_right", "count"],
        *([_fmt(left), _fmt(left + HISTOGRAM_BIN_WIDTH), str(count)] for left, count in zip(lefts, counts.tolist())),
    ])


def write_pvfp_samples_csv(path: Path, samples: np.ndarray) -> None:
    """One (scenario index, PVFP) row per entry of the PVFP vector."""
    with _open(path) as handle:
        handle.write(b"scenario,pvfp")
        _write_rows_of(handle, samples)
        handle.write(b"\n")


def write_params_echo_csv(path: Path, rows: Sequence[tuple[str, float, float, float]]) -> None:
    """Lognormal parameter echo: (portfolio, retained ratio, mu, sigma) rows."""
    _write_rows(path, [
        ["portfolio", "mean_sp", "mu", "sigma"],
        *([name, _fmt(mean_sp), _fmt(mu), _fmt(sigma)] for name, mean_sp, mu, sigma in rows),
    ])


def write_risk_report_csv(
    path: Path,
    rows: Sequence[tuple[str, PvfpStatistics]],
    totals: tuple[float, float],
) -> None:
    _write_rows(path, [
        ["portfolio", "mean_pvfp", "vol_pvfp", "spread", "pvfp_tsr_spread", "pvfp_tsr", "cur"],
        *(
            [
                name,
                _fmt(stats.mean),
                _fmt(stats.vol),
                _fmt(stats.spread),
                _fmt(stats.pvfp_spread),
                _fmt(stats.pvfp_tsr),
                _fmt(stats.cur),
            ]
            for name, stats in rows
        ),
        ["TOTAL", "", "", "", "", _fmt(totals[0]), _fmt(totals[1])],
    ])

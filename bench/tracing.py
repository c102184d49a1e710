"""Outside-in layer tracing of the protval engine.

``Tracer.install`` wraps every public function and public method defined in
the layer modules and rebinds each wrapper in every ``protval`` module
namespace that holds the original, because ``cli`` imports by name and
``projection`` calls ``pvfp`` through its own global. The engine's code is
not changed.

A span is (id, layer function, start, end, parent, job). Spans are kept in
compact per-thread arrays and written out when the run ends. A span opened
on a pool thread with no open span of its own is parented to the innermost
open span of the main thread, which is the call that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import sys
import threading
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

LAYERS = ("config", "curves", "cap", "loss", "projection", "risk", "reports")

# Every metric a traced run reports, with its unit.
UNITS = {
    "setup.numpy_import_s": "s",
    "setup.protval_import_s": "s",
    "config.self_s": "s",
    "config.calls": "count",
    "curves.self_s": "s",
    "curves.calls": "count",
    "cap.self_s": "s",
    "cap.caplets": "count",
    "loss.draw_s": "s",
    "loss.draws": "count",
    "loss.draw_us_per_scenario": "us",
    "loss.path_s": "s",
    "loss.scenario_years": "count",
    "loss.fan_s": "s",
    "projection.pvfp_s": "s",
    "projection.pvfp_calls": "count",
    "projection.rows": "count",
    "projection.us_per_row": "us",
    "risk.self_s": "s",
    "risk.calls": "count",
    "reports.write_s": "s",
    "reports.scenarios_csv_s": "s",
    "reports.files": "count",
    "reports.bytes": "bytes",
    "reports.mib_per_s": "MiB/s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "1",
    "fail_ratio": "1",
}


def _file_size(args: tuple, result: Any) -> int:
    return os.path.getsize(result if isinstance(result, (str, os.PathLike)) else args[0])


# Work counted at a layer boundary from a call's arguments and result.
_COUNTERS: dict[str, tuple[str, Callable[[tuple, Any], int]]] = {
    "draw_initial_ratios": ("loss.draws", lambda args, result: int(np.size(result))),
    "generate_scenarios": ("loss.scenario_years", lambda args, result: int(np.size(result.scenarios))),
    "pvfp_batch": ("projection.batch_rows", lambda args, result: len(result)),
}


class _Buffer:
    """Spans recorded by one thread, in order of completion."""

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.sid = array("q")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job = array("i")

    def __len__(self) -> int:
        return len(self.sid)


class Tracer:
    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # (layer, qualified name)
        self.recording = False
        self.job = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._main = self._buffer()
        self._marks: list[int] = []

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        with self._buffers_lock:
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def _wrap(self, layer: str, qualname: str, fn: Callable) -> Callable:
        index = len(self.names)
        self.names.append((layer, qualname))
        counter = _COUNTERS.get(qualname)
        if counter is None and qualname.startswith("write_"):
            counter = ("reports.bytes", _file_size)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            buf = getattr(tracer._local, "buf", None)
            if buf is None:
                buf = tracer._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            elif buf is not tracer._main and tracer._main.stack:
                parent = tracer._main.stack[-1]
            else:
                parent = -1
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                buf.sid.append(sid)
                buf.name.append(index)
                buf.start.append(start)
                buf.end.append(end)
                buf.parent.append(parent)
                buf.job.append(tracer.job)
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    def install(self) -> int:
        """Wrap the layer modules' public callables; returns how many were wrapped."""
        modules = [m for n, m in list(sys.modules.items()) if n == "protval" or n.startswith("protval.")]
        for layer in LAYERS:
            module = sys.modules[f"protval.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(layer, obj)
                elif callable(obj):
                    wrapper = self._wrap(layer, attr, obj)
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is obj:
                                setattr(mod, name, wrapper)
        return len(self.names)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(layer, qualname, raw.__func__)))
            elif callable(raw) and not isinstance(raw, type):
                setattr(cls, attr, self._wrap(layer, qualname, raw))

    def begin_pass(self) -> None:
        self.counts.clear()
        self._marks = [len(b) for b in self._buffers]
        self.recording = True

    def end_pass(self, pass_ns: int) -> dict[str, float]:
        """Stop recording and compute the layer metrics of the pass just run."""
        self.recording = False
        spans = []
        marks = self._marks + [0] * (len(self._buffers) - len(self._marks))
        for buf, mark in zip(self._buffers, marks):
            for i in range(mark, len(buf)):
                spans.append((buf.sid[i], buf.name[i], buf.start[i], buf.end[i], buf.parent[i]))
        return layer_metrics(spans, self.names, dict(self.counts), pass_ns)

    def write(self, path: Path) -> int:
        """Write every span recorded in the run as CSV; returns the span count."""
        rows = 0
        with path.open("w", encoding="utf-8") as handle:
            handle.write("id,layer,name,start_ns,end_ns,parent,job\n")
            for buf in self._buffers:
                for i in range(len(buf)):
                    layer, name = self.names[buf.name[i]]
                    handle.write(
                        f"{buf.sid[i]},{layer},{name},{buf.start[i]},{buf.end[i]},"
                        f"{buf.parent[i]},{buf.job[i]}\n"
                    )
                    rows += 1
        return rows


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of intervals (children on several threads may overlap)."""
    total = 0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(
    spans: list[tuple[int, int, int, int, int]],
    names: list[tuple[str, str]],
    counts: dict[str, int],
    pass_ns: int,
) -> dict[str, float]:
    """Per-layer self time and work counts of one pass, in seconds and counts.

    Self time is a span's duration minus the part of it its children cover.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    by_id = {}
    for sid, name, start, end, parent in spans:
        by_id[sid] = (name, parent)
        children[parent].append((start, end))

    self_ns: dict[str, int] = defaultdict(int)  # per layer
    calls: dict[str, int] = defaultdict(int)
    fn_self: dict[str, int] = defaultdict(int)  # per function
    fn_incl: dict[str, int] = defaultdict(int)
    fn_calls: dict[str, int] = defaultdict(int)
    outer_projection_ns = 0
    loose_pvfp = 0
    for sid, name, start, end, parent in spans:
        layer, qualname = names[name]
        own = (end - start) - _covered(children.get(sid, []))
        self_ns[layer] += own
        calls[layer] += 1
        fn_self[qualname] += own
        fn_incl[qualname] += end - start
        fn_calls[qualname] += 1
        parent_name = names[by_id[parent][0]][1] if parent in by_id else None
        parent_layer = names[by_id[parent][0]][0] if parent in by_id else None
        if layer == "projection" and parent_layer != "projection":
            outer_projection_ns += end - start
        if qualname == "pvfp" and parent_name != "pvfp_batch":
            loose_pvfp += 1

    root_ns = _covered(children.get(-1, []))
    draws = counts.get("loss.draws", 0)
    rows = counts.get("projection.batch_rows", 0) + loose_pvfp
    write_ns = sum(v for k, v in fn_self.items() if k.startswith("write_"))
    written = counts.get("reports.bytes", 0)
    return {
        "config.self_s": self_ns["config"] * 1e-9,
        "config.calls": calls["config"],
        "curves.self_s": self_ns["curves"] * 1e-9,
        "curves.calls": calls["curves"],
        "cap.self_s": self_ns["cap"] * 1e-9,
        "cap.caplets": fn_calls["caplet_price"],
        "loss.draw_s": fn_incl["draw_initial_ratios"] * 1e-9,
        "loss.draws": draws,
        "loss.draw_us_per_scenario": fn_incl["draw_initial_ratios"] * 1e-3 / draws if draws else 0.0,
        "loss.path_s": fn_self["generate_scenarios"] * 1e-9,
        "loss.scenario_years": counts.get("loss.scenario_years", 0),
        "loss.fan_s": (fn_incl["LossScenarioSet.quantile_fan"] + fn_incl["histogram"]) * 1e-9,
        "projection.pvfp_s": outer_projection_ns * 1e-9,
        "projection.pvfp_calls": fn_calls["pvfp"],
        "projection.rows": rows,
        "projection.us_per_row": outer_projection_ns * 1e-3 / rows if rows else 0.0,
        "risk.self_s": self_ns["risk"] * 1e-9,
        "risk.calls": calls["risk"],
        "reports.write_s": write_ns * 1e-9,
        "reports.scenarios_csv_s": fn_self["write_scenarios_csv"] * 1e-9,
        "reports.files": sum(v for k, v in fn_calls.items() if k.startswith("write_")),
        "reports.bytes": written,
        "reports.mib_per_s": written / 2**20 / (write_ns * 1e-9) if write_ns else 0.0,
        "cli.self_s": (pass_ns - root_ns) * 1e-9,
        "trace.coverage": root_ns / pass_ns,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

"""Span tracing from outside the program: wrappers around the public
functions of each layer, kept in memory and written when the run ends.

:func:`install` patches every function where its callers look it up: a
method on its class, a module-level function in every ``repro`` module
that imported it by name, and a binary-server op in the server's
``_OPS`` dispatch table.  Each span records its name, layer, start, end,
parent span, thread, operation id and an optional value (bytes, counts).

Times come from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, one
clock for every process on the host), so spans recorded by the router and
shard processes are attributed to the client's operations by time: the
client is a single closed loop that settles after every operation, so
operation *k*'s work, background work included, lies inside its interval.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

# (kind, module, attribute path, layer); kind is one of "method",
# "generator", "function", "op" (binary-server dispatch entry).
TARGETS = [
    ("method", "repro.core.engine", "VSSEngine.read", "core.engine"),
    ("method", "repro.core.engine", "VSSEngine.read_stream", "core.engine"),
    ("method", "repro.core.engine", "VSSEngine.write", "core.engine"),
    ("method", "repro.core.engine", "VSSEngine._admit", "core.engine"),
    ("method", "repro.core.engine", "HookedStream.append", "core.engine"),
    ("method", "repro.core.engine", "HookedStream.close", "core.engine"),
    ("function", "repro.core.read_planner", "plan_read", "core.read_planner"),
    ("method", "repro.core.rwlock", "RWLock.acquire_shared", "core.rwlock"),
    ("method", "repro.core.rwlock", "RWLock.acquire_exclusive", "core.rwlock"),
    ("method", "repro.core.reader", "Reader.execute", "core.reader"),
    ("generator", "repro.core.reader", "Reader.iter_output", "core.reader"),
    ("method", "repro.core.decode_cache", "DecodeCache.get", "core.decode_cache"),
    ("method", "repro.core.decode_cache", "DecodeCache.put", "core.decode_cache"),
    ("method", "repro.core.decode_cache", "DecodeCache.peek", "core.decode_cache"),
    (
        "method",
        "repro.video.codec.blockcodec",
        "BlockCodec.decode_gop_frames",
        "video.codec",
    ),
    ("method", "repro.video.codec.blockcodec", "BlockCodec.encode_gop", "video.codec"),
    ("function", "repro.video.resample", "resize_segment", "video.resample"),
    ("function", "repro.video.resample", "crop_roi", "video.resample"),
    ("function", "repro.video.resample", "resample_fps", "video.resample"),
    ("method", "repro.core.layout", "Layout.write_gop", "core.layout"),
    ("method", "repro.core.layout", "Layout.read_gop", "core.layout"),
    ("method", "repro.core.writer", "StreamWriter.append", "core.writer"),
    ("method", "repro.core.writer", "StreamWriter.append_gops", "core.writer"),
    ("method", "repro.core.writer", "Writer.open_stream", "core.writer"),
    ("method", "repro.core.cache", "CacheManager.enforce_budget", "core.cache"),
    (
        "method",
        "repro.core.deferred",
        "DeferredCompressionManager.compress_one",
        "core.deferred",
    ),
    ("method", "repro.core.compaction", "Compactor.compact", "core.compaction"),
    ("method", "repro.tiles.tiler", "Tiler.retile", "tiles"),
    ("function", "repro.search.extract", "extract_physical", "search"),
    ("function", "repro.core.wire", "encode_frame", "core.wire"),
    ("function", "repro.core.wire", "parse_frame", "core.wire"),
    ("function", "repro.core.wire", "segment_from_payload", "core.wire"),
    ("function", "repro.core.wire", "read_stats_to_dict", "core.wire"),
    ("function", "repro.core.wire", "read_stats_from_dict", "core.wire"),
    ("function", "repro.video.codec.container", "encode_container", "core.wire"),
    ("function", "repro.video.codec.container", "decode_container", "core.wire"),
    ("method", "repro.client", "VSSBinaryClient._rpc", "client"),
    ("method", "repro.client", "VSSBinaryClient._open_read_stream", "client"),
    ("method", "repro.client", "BinaryReadStream.__next__", "client"),
    ("method", "repro.client", "_BinaryConnection.read_frame", "client"),
    ("op", "repro.server.binary", "read", "server.binary"),
    ("op", "repro.server.binary", "write", "server.binary"),
    ("op", "repro.server.binary", "metrics", "server.binary"),
    ("op", "repro.server.binary", "video_stats", "server.binary"),
    ("method", "repro.cluster.router", "ClusterEngine.read_stream", "cluster.router"),
    ("method", "repro.cluster.router", "ClusterEngine.write", "cluster.router"),
    ("method", "repro.cluster.router", "_RoutedStream.__next__", "cluster.router"),
]

# Public Catalog methods are wrapped wholesale (layer core.catalog).
CATALOG = ("repro.core.catalog", "Catalog")


def _span_value(qualname: str, args, result):
    """The number a span carries, for the spans whose metric needs one."""
    if qualname == "BlockCodec.encode_gop":
        return int(args[1].nbytes)  # raw bytes in
    if qualname == "Layout.write_gop":
        return int(result[1])  # bytes written
    if qualname == "CacheManager.enforce_budget":
        return int(result.bytes_freed)
    if qualname == "DeferredCompressionManager.compress_one":
        return 0 if result is None else 1
    if qualname in ("Compactor.compact", "extract_physical"):
        return int(result)
    if qualname == "_BinaryConnection.read_frame":
        return len(result[2])  # payload bytes
    return None


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, process: str):
        self.process = process
        # [span id, parent id, name, layer, start ns, end ns, thread id,
        #  value, op id]
        self.spans: list[list] = []
        self.op: int | None = None
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchor: list | None = None  # the client thread's stack
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind_client(self) -> None:
        """Parent spans opened on worker threads to the innermost span
        open on this (the client's) thread."""
        self._anchor = self._stack()

    def begin(self, name: str, layer: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif self._anchor:
            parent = self._anchor[-1][0]
        else:
            parent = None
        record = [
            next(self._ids), parent, name, layer, time.perf_counter_ns(), 0,
            threading.get_ident(), None, self.op,
        ]
        stack.append(record)
        return record

    def end(self, record: list, value=None) -> None:
        record[5] = time.perf_counter_ns()
        record[7] = value
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        self.spans.append(record)

    def record_async(self, name: str, layer: str, start: int, end: int) -> None:
        """A span of a coroutine (no thread-local nesting across awaits)."""
        self.spans.append(
            [next(self._ids), None, name, layer, start, end,
             threading.get_ident(), None, self.op]
        )

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap_call(self, fn, name: str, layer: str, qualname: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            record = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(record)
                raise
            tracer.end(record, _span_value(qualname, args, result))
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    if tracer.paused:
                        item = next(inner, _DONE)
                    else:
                        record = tracer.begin(name, layer)
                        try:
                            item = next(inner, _DONE)
                        finally:
                            tracer.end(record)
                    if item is _DONE:
                        return
                    yield item
            finally:
                inner.close()

        return wrapper

    def _wrap_async(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.record_async(name, layer, start, time.perf_counter_ns())

        return wrapper

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every target (idempotent per tracer)."""
        if self._patches:
            return
        for kind, module_name, path, layer in TARGETS:
            module = importlib.import_module(module_name)
            short = layer.split(".")[-1]
            if kind == "op":
                table = module.VSSBinaryServer._OPS
                original = table[path]
                self._patches.append((table, path, original))
                table[path] = self._wrap_async(
                    original, f"{short}.op_{path}", layer
                )
                continue
            if kind == "function":
                original = getattr(module, path)
                wrapped = self._wrap_call(
                    original, f"{short}.{path}", layer, path
                )
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "") or ""
                    if not name.startswith("repro"):
                        continue
                    if other.__dict__.get(path) is original:
                        self._patches.append((other, path, original))
                        setattr(other, path, wrapped)
                continue
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            span_name = f"{short}.{class_name}.{attr}"
            if kind == "generator":
                wrapped = self._wrap_generator(original, span_name, layer)
            else:
                wrapped = self._wrap_call(original, span_name, layer, path)
            self._patch(owner, attr, wrapped)
        catalog_class = getattr(
            importlib.import_module(CATALOG[0]), CATALOG[1]
        )
        for attr, value in list(vars(catalog_class).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            self._patch(
                catalog_class,
                attr,
                self._wrap_call(value, f"catalog.{attr}", "core.catalog", attr),
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        Path(path).write_text(
            json.dumps(
                {"process": self.process, "pid": os.getpid(), "spans": self.spans}
            )
        )


_DONE = object()


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def union(intervals) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def covered(intervals, lo: int, hi: int) -> int:
    """Nanoseconds of [lo, hi) covered by the union of ``intervals``."""
    total = 0
    for start, end in union(intervals):
        start, end = max(start, lo), min(end, hi)
        if end > start:
            total += end - start
    return total


class SpanIndex:
    """Spans of every process, each attributed to a client operation."""

    def __init__(self, ops: list, processes: dict[str, list[list]]):
        self.ops = ops  # objects with id, kind, t0, t2
        self.starts = [op.t0 for op in ops]
        self.by_op: dict[int, list[tuple[str, list]]] = {op.id: [] for op in ops}
        self.processes = processes
        for process, spans in processes.items():
            for span in spans:
                op = self.op_of(span[4])
                span[8] = op
                if op is not None:
                    self.by_op[op].append((process, span))

    def op_of(self, t: int) -> int | None:
        index = bisect.bisect_right(self.starts, t) - 1
        if index >= 0 and t < self.ops[index].t2:
            return self.ops[index].id
        return None

    def spans(self, op: int, process: str | None = None, layer=None, name=None):
        for proc, span in self.by_op[op]:
            if process is not None and proc != process:
                continue
            if layer is not None and span[3] not in layer:
                continue
            if name is not None and not span[2].startswith(name):
                continue
            yield span


def chrome_trace(process: str, spans: list[list], origin: int, pid: int) -> dict:
    """Chrome trace-event JSON (complete events) for one process."""
    events = []
    for sid, parent, name, layer, start, end, tid, value, op in spans:
        args = {"span": sid, "parent": parent, "op": op}
        if value is not None:
            args["value"] = value
        events.append(
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    events.append(
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": process}}
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}

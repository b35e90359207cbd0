"""Per-layer metrics of a traced run (see README.md for the map from each
one to the end-to-end metric it should move).

Rates are per operation (``/op``), per read or per write of the measured
phase, so runs of different lengths compare directly.  A layer the
workload does not reach reports 0.
"""

from __future__ import annotations

import statistics

from spans import SpanIndex, covered, union

PER_LAYER_UNITS = {
    "transport.read_overhead_ms": "ms",
    "router.forward_ms": "ms",
    "wire.bytes_per_read": "B/read",
    "engine.lock_wait_ms": "ms/op",
    "engine.plan_cache_hit_ratio": "ratio",
    "engine.settle_ms": "ms/op",
    "engine.admissions": "count/op",
    "engine.admissions_dropped": "count/op",
    "read_planner.plan_ms": "ms",
    "read_planner.plans": "count/op",
    "catalog.ms_per_op": "ms/op",
    "catalog.calls_per_op": "count/op",
    "reader.self_ms": "ms/read",
    "reader.direct_serve_ratio": "ratio",
    "reader.frames_decoded_per_read": "count/read",
    "reader.lookback_frames_per_read": "count/read",
    "decode_cache.hit_ratio": "ratio",
    "decode_cache.evictions": "count/op",
    "codec.decode_ms": "ms/read",
    "codec.entropy_ms": "ms/read",
    "codec.transform_ms": "ms/read",
    "codec.compensate_ms": "ms/read",
    "codec.decode_mb_per_s": "MB/s",
    "codec.encode_ms": "ms/op",
    "codec.encode_mb_per_s": "MB/s",
    "resample.ms_per_read": "ms/read",
    "layout.page_write_ms": "ms/op",
    "layout.pages_written": "count/op",
    "layout.bytes_written_per_input_byte": "ratio",
    "layout.page_read_ms": "ms/read",
    "layout.pages_read": "count/read",
    "writer.append_self_ms": "ms/write",
    "cache.enforce_budget_ms": "ms/op",
    "cache.bytes_evicted": "B/op",
    "cache.fragments_admitted": "count/op",
    "deferred.compress_ms": "ms/op",
    "deferred.pages_compressed": "count/op",
    "compaction.ms": "ms/op",
    "compaction.merges": "count/op",
    "tiles.retile_ms": "ms/op",
    "tiles.decoded_ratio": "ratio",
    "search.extract_ms_per_gop": "ms",
    "executor.tasks_per_op": "count/op",
    "process.cpu_per_wall": "ratio",
    "trace.unattributed_ms": "ms/op",
    "trace.overhead_pct": "%",
}

#: Layers whose spans are the reader's (and the writer's) children.
READER_CHILDREN = ("video.codec", "video.resample", "core.layout", "core.decode_cache")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _ms(ns: float) -> float:
    return ns / 1e6


def _dur(span) -> int:
    return span[5] - span[4]


def _self_ns(index: SpanIndex, op: int, process: str, span, child_layers) -> int:
    children = [
        (s[4], s[5])
        for s in index.spans(op, process=process, layer=child_layers)
    ]
    return _dur(span) - covered(children, span[4], span[5])


def per_layer(run, index: SpanIndex, overhead_pct: float) -> dict:
    ledger = run.ledger
    ops = ledger.ops
    reads = [op for op in ops if op.kind == "read"]
    writes = [op for op in ops if op.kind == "write"]
    n_ops, n_reads, n_writes = len(ops), len(reads), len(writes)
    delta = {
        key: run.after[key] - run.before[key]
        for key in run.after
        if isinstance(run.after[key], (int, float)) and key in run.before
    }

    def total(ops_, name=None, layer=None, process=None, value=False) -> float:
        out = 0
        for op in ops_:
            for span in index.spans(op.id, process=process, layer=layer, name=name):
                out += (span[7] or 0) if value else _dur(span)
        return out

    def count(ops_, name=None, layer=None, process=None) -> int:
        return sum(
            1
            for op in ops_
            for _ in index.spans(op.id, process=process, layer=layer, name=name)
        )

    m: dict[str, float] = {}
    stats = run.workload.read_stats
    transport = getattr(run.workload, "transport_ms", [])
    m["transport.read_overhead_ms"] = statistics.median(transport) if transport else 0.0

    forward = []
    if "router" in index.processes:
        for op in reads:
            own = [s for s in index.spans(op.id, process="router", name="binary.op_read")]
            waits = [
                (s[4], s[5])
                for s in index.spans(op.id, process="router", layer=("client",))
            ]
            for span in own:
                forward.append(_dur(span) - covered(waits, span[4], span[5]))
    m["router.forward_ms"] = _ms(statistics.median(forward)) if forward else 0.0
    m["wire.bytes_per_read"] = _ratio(
        total(reads, name="client._BinaryConnection.read_frame",
              process="client", value=True),
        n_reads,
    )

    m["engine.lock_wait_ms"] = _ms(_ratio(total(ops, layer=("core.rwlock",)), n_ops))
    m["engine.plan_cache_hit_ratio"] = _ratio(
        delta["plan_cache_hits"],
        delta["plan_cache_hits"] + delta["plan_cache_misses"],
    )
    m["engine.settle_ms"] = _ratio(sum(op.settle_s for op in ops) * 1e3, n_ops)
    m["engine.admissions"] = _ratio(delta["admissions_completed"], n_ops)
    m["engine.admissions_dropped"] = _ratio(delta["admissions_dropped"], n_ops)

    plans = [
        _dur(s) for op in ops for s in index.spans(op.id, name="read_planner.")
    ]
    m["read_planner.plan_ms"] = _ms(statistics.median(plans)) if plans else 0.0
    m["read_planner.plans"] = _ratio(len(plans), n_ops)

    catalog_ns = 0
    catalog_calls = 0
    for op in ops:
        for process in index.processes:
            spans = list(index.spans(op.id, process=process, layer=("core.catalog",)))
            catalog_calls += len(spans)
            catalog_ns += sum(e - s for s, e in _outer(spans))
    m["catalog.ms_per_op"] = _ms(_ratio(catalog_ns, n_ops))
    m["catalog.calls_per_op"] = _ratio(catalog_calls, n_ops)

    reader_self = 0
    for op in reads:
        for process in index.processes:
            for span in index.spans(op.id, process=process, layer=("core.reader",)):
                reader_self += _self_ns(index, op.id, process, span, READER_CHILDREN)
    m["reader.self_ms"] = _ms(_ratio(reader_self, n_reads))
    m["reader.direct_serve_ratio"] = _ratio(
        sum(1 for s in stats if s.direct_serve), len(stats)
    )
    m["reader.frames_decoded_per_read"] = _ratio(
        sum(s.frames_decoded for s in stats), len(stats)
    )
    m["reader.lookback_frames_per_read"] = _ratio(
        sum(s.lookback_frames for s in stats), len(stats)
    )
    m["decode_cache.hit_ratio"] = _ratio(
        delta["decode_cache_hits"],
        delta["decode_cache_hits"] + delta["decode_cache_misses"],
    )
    m["decode_cache.evictions"] = _ratio(delta["decode_cache_evictions"], n_ops)

    m["codec.decode_ms"] = _ms(_ratio(
        total(reads, name="codec.BlockCodec.decode_gop_frames"), n_reads
    ))
    entropy = sum(s.codec_entropy_seconds for s in stats)
    transform = sum(s.codec_transform_seconds for s in stats)
    compensate = sum(s.codec_compensate_seconds for s in stats)
    m["codec.entropy_ms"] = _ratio(entropy * 1e3, len(stats))
    m["codec.transform_ms"] = _ratio(transform * 1e3, len(stats))
    m["codec.compensate_ms"] = _ratio(compensate * 1e3, len(stats))
    m["codec.decode_mb_per_s"] = _ratio(
        sum(s.codec_decoded_bytes for s in stats) / 1e6,
        entropy + transform + compensate,
    )
    encode_ns = total(ops, name="codec.BlockCodec.encode_gop")
    m["codec.encode_ms"] = _ms(_ratio(encode_ns, n_ops))
    m["codec.encode_mb_per_s"] = _ratio(
        total(ops, name="codec.BlockCodec.encode_gop", value=True) / 1e6,
        encode_ns / 1e9,
    )

    resample_ns = 0
    for op in reads:
        for process in index.processes:
            spans = index.spans(op.id, process=process, layer=("video.resample",))
            resample_ns += sum(e - s for s, e in _outer(list(spans)))
    m["resample.ms_per_read"] = _ms(_ratio(resample_ns, n_reads))

    m["layout.page_write_ms"] = _ms(_ratio(
        total(ops, name="layout.Layout.write_gop"), n_ops
    ))
    m["layout.pages_written"] = _ratio(count(ops, name="layout.Layout.write_gop"), n_ops)
    m["layout.bytes_written_per_input_byte"] = _ratio(
        total(ops, name="layout.Layout.write_gop", value=True),
        ledger.raw_bytes_measured,
    )
    m["layout.page_read_ms"] = _ms(_ratio(
        total(reads, name="layout.Layout.read_gop"), n_reads
    ))
    m["layout.pages_read"] = _ratio(count(reads, name="layout.Layout.read_gop"), n_reads)

    append_self = 0
    for op in writes:
        for process in index.processes:
            for span in index.spans(op.id, process=process, name="writer.StreamWriter.append"):
                append_self += _self_ns(
                    index, op.id, process, span, ("video.codec", "core.layout")
                )
    m["writer.append_self_ms"] = _ms(_ratio(append_self, n_writes))

    m["cache.enforce_budget_ms"] = _ms(_ratio(
        total(ops, name="cache.CacheManager.enforce_budget"), n_ops
    ))
    m["cache.bytes_evicted"] = _ratio(
        total(ops, name="cache.CacheManager.enforce_budget", value=True), n_ops
    )
    m["cache.fragments_admitted"] = _ratio(_admitted(index, ops), n_ops)
    m["deferred.compress_ms"] = _ms(_ratio(total(ops, layer=("core.deferred",)), n_ops))
    m["deferred.pages_compressed"] = _ratio(
        total(ops, layer=("core.deferred",), value=True), n_ops
    )
    m["compaction.ms"] = _ms(_ratio(total(ops, layer=("core.compaction",)), n_ops))
    m["compaction.merges"] = _ratio(
        total(ops, layer=("core.compaction",), value=True), n_ops
    )
    m["tiles.retile_ms"] = _ms(_ratio(total(ops, layer=("tiles",)), n_ops))
    m["tiles.decoded_ratio"] = _ratio(delta["tiles_decoded"], delta["tiles_total"])
    m["search.extract_ms_per_gop"] = _ms(_ratio(
        total(ops, layer=("search",)), total(ops, layer=("search",), value=True)
    ))
    m["executor.tasks_per_op"] = _ratio(delta["executor_tasks"], n_ops)
    m["process.cpu_per_wall"] = _ratio(run.cpu_s, ledger.busy_s)

    unattributed = 0
    for op in ops:
        intervals = [(s[4], s[5]) for s in index.spans(op.id)]
        unattributed += (op.t2 - op.t0) - covered(intervals, op.t0, op.t2)
    m["trace.unattributed_ms"] = _ms(_ratio(unattributed, n_ops))
    m["trace.overhead_pct"] = overhead_pct
    return m


def _outer(spans) -> list[tuple[int, int]]:
    """The union of span intervals (nested calls counted once)."""
    return union((s[4], s[5]) for s in spans)


def _admitted(index: SpanIndex, ops) -> int:
    """Physicals written by cache admission: ``Writer.open_stream`` spans
    with an ``engine.VSSEngine._admit`` ancestor."""
    admitted = 0
    for process, spans in index.processes.items():
        by_id = {s[0]: s for s in spans}
        for span in spans:
            if span[2] != "writer.Writer.open_stream" or span[8] is None:
                continue
            parent = by_id.get(span[1])
            while parent is not None:
                if parent[2] == "engine.VSSEngine._admit":
                    admitted += 1
                    break
                parent = by_id.get(parent[1])
    return admitted

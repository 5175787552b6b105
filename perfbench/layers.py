"""Per-layer metrics, computed from the spans, samples and counters that the
workloads record under fixed names.

Span names are ``<module>.<what>``; a metric a workload does not exercise
reads 0 (for example ``mutation.*`` outside ``edit``).  Every time is in
reference milliseconds: raw span durations times the traced rounds' median
reference-speed factor.
"""

from __future__ import annotations

from typing import Dict

from tracing import SpanSummary, median_or_zero, rate

from repro.session import ENGINE_CLASSES

ENGINES = tuple(ENGINE_CLASSES)


def per_layer_metrics(spans, samples, counters, scale: float) -> Dict[str, float]:
    summary = SpanSummary(spans, scale)

    def median_sample_ms(name: str) -> float:
        return median_or_zero(samples.get(name)) * scale * 1000.0

    def mb_per_s(byte_counter: str, span: str) -> float:
        return rate(counters.get(byte_counter, 0.0) / 1e6, summary.total_s(span))

    hits = counters.get("plan.hits", 0.0)
    misses = counters.get("plan.misses", 0.0)
    requests = counters.get("session.requests", 0.0)
    metrics = {
        # Every parse lexes its whole text, so the lexer's bytes are the
        # parser's bytes.
        "xmlmodel.lex_mb_s": mb_per_s("xmlmodel.parse_bytes", "xmlmodel.lex"),
        "xmlmodel.parse_mb_s": mb_per_s("xmlmodel.parse_bytes", "xmlmodel.parse"),
        "xmlmodel.build_self_ms": summary.median_self_ms("xmlmodel.parse"),
        "xmlmodel.index_ms": summary.median_ms("xmlmodel.index"),
        "xmlmodel.columns_ms": summary.median_ms("xmlmodel.columns"),
        "streaming.scan_mb_s": mb_per_s("streaming.bytes", "streaming.scan"),
        "store.write_ms": summary.median_ms("store.write"),
        "store.bytes_per_node": rate(
            counters.get("store.bytes", 0.0), counters.get("store.nodes", 0.0)
        ),
        "store.open_ms": summary.median_ms("store.open"),
        "store.materialize_ms": summary.median_ms("store.materialize"),
        "plan.compile_ms": summary.median_ms("plan.compile"),
        "plan.cache_hit_ratio": rate(hits, hits + misses),
        "plan.cache_evictions": counters.get("plan.cache_evictions", 0.0),
        "plan.compilable_on_tree_engine": rate(
            counters.get("plan.compilable_on_tree_engine", 0.0), requests
        ),
        "session.materialize_ms": summary.median_ms("session.materialize"),
        "session.run_self_ms": summary.median_self_ms("session.run"),
        "server.eval_ms": median_sample_ms("server.eval"),
        "server.service_ms": median_sample_ms("server.service"),
        "server.transport_ms": median_sample_ms("server.transport"),
        "server.response_bytes": median_or_zero(samples.get("server.response_bytes")),
        "server.batch_ms": median_sample_ms("server.batch"),
        "mutation.edit_ms": summary.median_ms("mutation.edit"),
        "mutation.requery_ms": summary.median_ms("mutation.requery"),
        "mutation.snapshot_ms": summary.median_ms("mutation.snapshot"),
        "mutation.repairs": counters.get("mutation.repairs", 0.0),
        "mutation.rebuilds": counters.get("mutation.rebuilds", 0.0),
        "mutation.cow_copies": counters.get("mutation.cow_copies", 0.0),
    }
    for engine in ENGINES:
        span = f"engines.{engine}.eval"
        # In-process workloads time the engine call as a span; the served
        # workload reads the server's own evaluation time per response.
        if summary.count(span):
            metrics[f"engines.{engine}.eval_ms"] = summary.median_ms(span)
            metrics[f"engines.{engine}.requests"] = float(summary.count(span))
        else:
            metrics[f"engines.{engine}.eval_ms"] = median_sample_ms(span)
            metrics[f"engines.{engine}.requests"] = float(len(samples.get(span, ())))
    return metrics

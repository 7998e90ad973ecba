"""Per-layer metrics derived from a traced run's spans.

Phases come from the traced process's marks: ``setup`` (data, fit, table
build, tier up), ``verify`` (the fixed, seed-determined verification
requests), ``reference`` (in-process answers to check them against,
ignored here) and ``timed`` (the closed loop).  Counts that must repeat
exactly for one seed are taken over ``verify``; times over ``timed``.
A cluster shard's spans are phased by the same marks: ``perf_counter`` is
one monotonic clock for every process on the host.

Per-layer times are self times -- a span's duration minus the time its
child spans cover -- except the whole-call figures whose definitions name
the call: ``core.fit_s``, ``core.table_build_ms``,
``core.forward_ms_per_req`` (the fused forward, with its pooled-hidden and
kernel-regression sub-stages) and ``streaming.step_ms``.  Shares divide
inclusive durations.

A metric whose wrapped function no longer exists is absent (``None``); a
metric of a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from measure import median
from tracer import Span, Tracer

#: metric -> span names it needs (absent when any is missing)
NEEDS: Dict[str, Sequence[str]] = {
    "core.fit_s": ("core.fit",),
    "core.fit_epochs": ("core.train",),
    "core.train_sample_share": ("core.fit", "core.sample_batch"),
    "nn.backward_share": ("core.fit", "nn.backward"),
    "core.table_build_ms": ("core.build_tables",),
    "core.context_us_per_req": ("core.context",),
    "core.forward_ms_per_req": ("core.predict",),
    "core.pooled_hidden_share": ("core.predict", "core.pooled_hidden"),
    "core.kernel_regression_share": ("core.predict",
                                     "core.kernel_regression"),
    "core.forward_cells_per_req": ("core.build_batch",),
    "core.cells_per_window": ("core.build_batch",),
    "core.table_lookup_us_per_req": ("core.lookup", "core.match_windows"),
    "core.fast_path_hit_rate": ("core.lookup", "core.try_fast_path"),
    "api.submit_us_per_req": ("api.submit", "gateway.submit",
                              "cluster.submit"),
    "api.serve_batch_ms": ("api.serve_batch",),
    "api.fallback_batches": ("api.serve_batch",),
    "gateway.queue_wait_ms": ("gateway.next_batch",),
    "gateway.batch_size": ("gateway.next_batch",),
    "gateway.fast_lane_share": ("gateway.next_batch", "core.try_fast_path"),
    "gateway.wasted_probe_share": ("core.try_fast_path",),
    "streaming.step_ms": ("streaming.step",),
    "streaming.overhead_share": ("streaming.step", "api.gather"),
    "cluster.rpc_ms_per_req": ("cluster.rpc",),
    "cluster.shard_serve_share": ("cluster.rpc", "api.serve_batch"),
    "cluster.journal_ms_per_req": ("cluster.journal_request",
                                   "cluster.commit_result"),
    "cluster.wire_bytes_per_req": ("cluster.rpc",),
    "cluster.journal_records_per_req": ("cluster.journal_request",
                                        "cluster.commit_result"),
    "cluster.ledger_hit_rate": ("cluster.get_result",),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class SpanIndex:
    """Spans grouped by phase and name, with self times."""

    def __init__(self, tracer: Tracer) -> None:
        marks = sorted(tracer.phase_marks)
        self._mark_times = [time for time, _ in marks]
        self._mark_names = [name for _, name in marks]
        self.by_sid: Dict[int, Span] = {}
        self.child_time: Dict[int, float] = defaultdict(float)
        self.groups: Dict[tuple, List[Span]] = defaultdict(list)
        for span in tracer.spans:
            self.by_sid[span.sid] = span
            if span.parent:
                self.child_time[span.parent] += span.duration
            self.groups[(self.phase_of(span), span.name)].append(span)

    def phase_of(self, span: Span) -> str:
        index = bisect.bisect_right(self._mark_times, span.start) - 1
        return self._mark_names[index] if index >= 0 else "before"

    def spans(self, phase: str, *names: str) -> List[Span]:
        found: List[Span] = []
        for name in names:
            found.extend(self.groups.get((phase, name), ()))
        return found

    def parent(self, span: Span) -> Optional[Span]:
        return self.by_sid.get(span.parent)

    def self_time(self, span: Span) -> float:
        return span.duration - self.child_time.get(span.sid, 0.0)

    def total(self, phase: str, *names: str) -> float:
        return sum(span.duration for span in self.spans(phase, *names))

    def self_total(self, phase: str, *names: str) -> float:
        return sum(self.self_time(span) for span in self.spans(phase, *names))


def per_layer(tracer: Tracer, facts: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric (``None`` when absent) from one traced run.

    ``facts`` carries what the workload counted itself: ``verify_requests``
    (requests submitted in the verification phase), ``verify_missing``
    (the missing cells of the distinct ones), ``verify_resends``,
    ``timed_completed``, the traced loop's ``timed_wall`` and
    ``timed_cpu``, ``store_bytes`` (growth of the cluster store over the
    timed phase), and ``span_cost_s``, the measured cost of one wrapped
    call.
    """
    index = SpanIndex(tracer)
    T, V, S = "timed", "verify", "setup"
    done = facts["timed_completed"]
    asked = facts["verify_requests"]
    metrics: Dict[str, Optional[float]] = {}

    fits = index.spans(S, "core.fit")
    fit_time = sum(span.duration for span in fits)
    metrics["core.fit_s"] = _ratio(fit_time, len(fits))
    trains = index.spans(S, "core.train")
    metrics["core.fit_epochs"] = _ratio(sum(s.info for s in trains),
                                        len(trains))
    metrics["core.train_sample_share"] = _ratio(
        index.total(S, "core.sample_batch"), fit_time)
    metrics["nn.backward_share"] = _ratio(index.total(S, "nn.backward"),
                                          fit_time)
    builds = index.spans(S, "core.build_tables")
    metrics["core.table_build_ms"] = 1e3 * _ratio(
        sum(span.duration for span in builds), len(builds))

    metrics["core.context_us_per_req"] = 1e6 * _ratio(
        index.self_total(T, "core.context"), done)
    forward = index.total(T, "core.predict")
    metrics["core.forward_ms_per_req"] = 1e3 * _ratio(forward, done)
    metrics["core.pooled_hidden_share"] = _ratio(
        index.total(T, "core.pooled_hidden"), forward)
    metrics["core.kernel_regression_share"] = _ratio(
        index.total(T, "core.kernel_regression"), forward)

    cells = 0
    windows: Dict[tuple, set] = defaultdict(set)
    for span in index.spans(V, "core.build_batch"):
        context_id, count, pairs = span.info
        cells += count
        windows[(span.parent, context_id)].update(pairs)
    metrics["core.forward_cells_per_req"] = _ratio(cells, asked)
    metrics["core.cells_per_window"] = _ratio(
        cells, sum(len(pairs) for pairs in windows.values()))
    metrics["core.table_lookup_us_per_req"] = 1e6 * _ratio(
        index.self_total(T, "core.lookup", "core.match_windows"), done)
    hits = 0
    for span in index.spans(V, "core.lookup"):
        owner = index.parent(span)
        # a fast-lane probe that missed is retried on the locked path
        if owner is not None and owner.name == "core.try_fast_path" \
                and not owner.info:
            continue
        hits += span.info
    metrics["core.fast_path_hit_rate"] = _ratio(hits, facts["verify_missing"])

    metrics["api.submit_us_per_req"] = 1e6 * _ratio(index.self_total(
        T, "api.submit", "gateway.submit", "cluster.submit"), done)
    batches = index.spans(T, "api.serve_batch")
    metrics["api.serve_batch_ms"] = 1e3 * _ratio(
        sum(index.self_time(span) for span in batches), len(batches))
    metrics["api.fallback_batches"] = float(sum(
        span.info["fallback"] for span in index.spans(V, "api.serve_batch")))

    dispatches = [span for span in index.spans(T, "gateway.next_batch")
                  if span.info]
    waits = [wait for span in dispatches for wait in span.info]
    metrics["gateway.queue_wait_ms"] = 1e3 * median(waits) if waits else 0.0
    metrics["gateway.batch_size"] = _ratio(
        sum(len(span.info) for span in dispatches), len(dispatches))
    probes = index.spans(T, "core.try_fast_path")
    lane_hits = sum(1 for span in probes if span.info)
    metrics["gateway.fast_lane_share"] = _ratio(lane_hits, len(dispatches))
    metrics["gateway.wasted_probe_share"] = _ratio(len(probes) - lane_hits,
                                                   len(probes))

    steps = index.spans(T, "streaming.step")
    step_time = sum(span.duration for span in steps)
    metrics["streaming.step_ms"] = 1e3 * _ratio(step_time, len(steps))
    gathers = [span for span in index.spans(T, "api.gather")
               if (parent := index.parent(span)) is not None
               and parent.name == "streaming.step"]
    metrics["streaming.overhead_share"] = _ratio(
        step_time - sum(span.duration for span in gathers), step_time)

    rpc = index.total(T, "cluster.rpc")
    metrics["cluster.rpc_ms_per_req"] = 1e3 * _ratio(rpc, done)
    metrics["cluster.shard_serve_share"] = _ratio(
        index.total(T, "api.serve_batch"), rpc)
    metrics["cluster.journal_ms_per_req"] = 1e3 * _ratio(index.total(
        T, "cluster.journal_request", "cluster.commit_result"), done)
    metrics["cluster.wire_bytes_per_req"] = _ratio(
        sum(span.info for span in index.spans(V, "cluster.rpc")), asked)
    metrics["cluster.store_bytes_per_req"] = _ratio(
        facts.get("store_bytes", 0), done)
    records = len(index.spans(V, "cluster.journal_request")) + sum(
        1 for span in index.spans(V, "cluster.commit_result") if span.info)
    metrics["cluster.journal_records_per_req"] = _ratio(records, asked)
    metrics["cluster.ledger_hit_rate"] = _ratio(
        sum(1 for span in index.spans(V, "cluster.get_result") if span.info),
        facts.get("verify_resends", 0))

    spans_timed = sum(len(spans) for (phase, _), spans in index.groups.items()
                      if phase == T)
    metrics["trace.spans_per_req"] = _ratio(spans_timed, done)
    metrics["trace.throughput_rps"] = _ratio(done, facts["timed_wall"])
    metrics["trace.cpu_ms_per_req"] = 1e3 * _ratio(facts["timed_cpu"], done)
    overhead = metrics["trace.spans_per_req"] * facts["span_cost_s"] * 1e3
    metrics["trace.overhead_ms_per_req"] = overhead
    metrics["trace.overhead_share"] = _ratio(
        overhead, metrics["trace.cpu_ms_per_req"])

    for metric, names in NEEDS.items():
        if any(name in tracer.missing for name in names):
            metrics[metric] = None
    return metrics

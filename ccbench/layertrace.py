"""Traced in-process loop over a workload's stage, and the span store.

Spans are recorded from the benchmark's side, around the calls a stage
makes into each layer: the stage module's imported layer functions (and the
engine's ``detect`` method) are swapped for recording wrappers for the
length of the traced loop and restored afterwards. A span is
``(name, start_ns, end_ns, parent, page)``; spans stay in memory and are
written once, at the end. A span's self time is its duration minus the
time its child spans cover.

Each batch also runs untraced; the wall-time difference between the traced
and untraced runs of the same batches is reported as the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import pyarrow as pa


class Spans:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, page]
        self._open: list[int] = []
        self.page = -1
        self.counts: dict[str, list[int]] = {}

    @contextmanager
    def span(self, name: str, new_page: bool = False):
        if new_page:
            self.page += 1
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.page])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def wrap(self, name: str, fn, new_page: bool = False, count=None):
        def traced(*args, **kwargs):
            with self.span(name, new_page):
                out = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(out).items():
                    self.counts.setdefault(key, []).append(value)
            return out

        return traced

    def self_ns(self) -> list[int]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "page"], "spans": self.spans},
                f,
            )


@contextmanager
def patched(module, names: dict):
    old = {n: getattr(module, n) for n in names}
    for n, fn in names.items():
        setattr(module, n, fn)
    try:
        yield
    finally:
        for n, fn in old.items():
            setattr(module, n, fn)


def _batches(table: pa.Table, size: int) -> list[pa.Table]:
    return [table.slice(i, size) for i in range(0, table.num_rows, size)]


def _det_counts(det) -> dict:
    return {"words": len(det.words), "tables": len(det.tables)}


def _median_ms(values_ns) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def _quantile_ms(values_ns, q: int) -> float:
    if len(values_ns) < 2:
        return _median_ms(values_ns)
    return statistics.quantiles(values_ns, n=100, method="inclusive")[q - 1] / 1e6


# Layer spans each stage records, and how they group into per-layer metrics.
FUSED_LAYERS = {
    "dom.decode_ms": ["decode_html"],
    "detect.detect_ms": ["detect"],
    "analyze.aggregate_ms": ["aggregate_document"],
    "render.render_ms": ["render_document"],
}
SEMANTIC_LAYERS = {
    "dom.decode_ms": ["decode_html"],
    "detect.detect_ms": ["detect"],
    "semantic.parse_ms": ["semantic_from_detections"],
    "export.json_ms": ["fast_semantic_dump_json", "fast_views_json"],
    "extractor.rules_ms": ["run_rule_extraction", "fast_canonical_json"],
}


def trace_stage(kind: str, table: pa.Table, stage_kwargs: dict, batch_size: int, spans_path: str) -> dict:
    """Run ``kind`` ("fused" or "semantic") over ``table`` in-process: a
    cold batch (constructor included), then every batch untraced and traced.
    Returns per-layer metrics (ms per page are medians over pages) and
    writes the spans."""
    if kind == "fused":
        from yomitoku_ray.stages import fused_stage as module

        cls, layers, prefix = module.FusedExtractStage, FUSED_LAYERS, "fused_stage"
    else:
        from yomitoku_ray.stages import semantic_stage as module

        cls, layers, prefix = module.SemanticExtractStage, SEMANTIC_LAYERS, "semantic_stage"

    batches = _batches(table, batch_size)
    t0 = time.perf_counter_ns()
    stage = cls(**stage_kwargs)
    stage(batches[0])
    cold_ns = time.perf_counter_ns() - t0

    spans = Spans()
    wrappers = {
        n: spans.wrap(n, getattr(module, n), new_page=(n == "decode_html"))
        for names in layers.values()
        for n in names
        if n != "detect"
    }
    traced_detect = spans.wrap("detect", stage.engine.detect, count=_det_counts)
    call_name = f"{prefix}.__call__"

    def traced(b):
        stage.engine.detect = traced_detect
        try:
            with patched(module, wrappers), spans.span(call_name):
                stage(b)
        finally:
            del stage.engine.detect  # back to the class's method

    # Every batch runs once untraced and once traced, in alternating order,
    # so cache warmth does not favour either side of the overhead figure.
    untraced_ns = traced_ns = 0
    for i, b in enumerate(batches):
        for run_traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter_ns()
            if run_traced:
                traced(b)
                traced_ns += time.perf_counter_ns() - t0
            else:
                stage(b)
                untraced_ns += time.perf_counter_ns() - t0
    spans.write(spans_path)

    n_pages = table.num_rows
    own = spans.self_ns()
    per_page: dict[str, dict[int, int]] = {m: {} for m in layers}
    page_total = [0] * n_pages
    boundary = [0] * n_pages
    name_to_metric = {n: m for m, names in layers.items() for n in names}
    calls = []
    for (name, start, end, parent, page), self_t in zip(spans.spans, own):
        if name == call_name:
            calls.append((start, end, self_t))
            continue
        metric = name_to_metric[name]
        per_page[metric][page] = per_page[metric].get(page, 0) + (end - start)
        page_total[page] += end - start
    # the boundary (stage self time) is shared evenly by the pages of a batch
    first = 0
    for (_, _, self_t), b in zip(calls, batches):
        share = self_t / b.num_rows
        for p in range(first, first + b.num_rows):
            boundary[p] = share
            page_total[p] += share
        first += b.num_rows

    out = {m: _median_ms(list(v.values())) for m, v in per_page.items()}
    out[f"{prefix}.boundary_ms"] = _median_ms(boundary)
    if kind == "fused":
        out["fused_stage.page_ms_p50"] = _median_ms(page_total)
        out["fused_stage.page_ms_p99"] = _quantile_ms(page_total, 99)
        out["fused_stage.cold_batch_ms"] = cold_ns / 1e6
    counts = spans.counts
    out["detect.words_per_page"] = statistics.fmean(counts["words"]) if counts.get("words") else 0.0
    out["detect.tables_per_page"] = statistics.fmean(counts["tables"]) if counts.get("tables") else 0.0
    out["trace.overhead_pct"] = 100.0 * (traced_ns - untraced_ns) / untraced_ns
    out["_stage_ms_per_page"] = untraced_ns / 1e6 / n_pages
    return out

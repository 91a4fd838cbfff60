"""Sharded streaming dedup index: exactly-one-survivor semantics across
blocks and concurrency, bloom-mode no-false-negative guarantee."""

import numpy as np
import pyarrow as pa
import ray
import ray.data

from yomitoku_ray.state.dedup_index import (
    StreamingDedupFilter,
    create_dedup_index,
)


def _dup_ds(n_distinct=200, copies=3, blocks=16):
    rows = [
        {"doc_id": i, "text": f"text number {i % n_distinct}"}
        for i in range(n_distinct * copies)
    ]
    return ray.data.from_items(rows).repartition(blocks)


def test_streaming_dedup_exact_one_survivor(ray_session):
    idx = create_dedup_index(n_shards=4)
    out = (
        _dup_ds()
        .map_batches(StreamingDedupFilter(idx), batch_format="pyarrow", concurrency=3)
        .to_pandas()
    )
    assert len(out) == 200
    assert out["text"].is_unique
    n = sum(ray.get([s.n_keys.remote() for s in idx]))
    assert n == 200


def test_streaming_dedup_state_persists_across_runs(ray_session):
    # the index outlives a Dataset execution: a second ingest of the
    # same corpus drops EVERYTHING (incremental-crawl semantics)
    idx = create_dedup_index(n_shards=2)
    kw = dict(batch_format="pyarrow", concurrency=2)
    first = _dup_ds(50, 1, 4).map_batches(StreamingDedupFilter(idx), **kw).count()
    second = _dup_ds(50, 1, 4).map_batches(StreamingDedupFilter(idx), **kw).count()
    assert first == 50
    assert second == 0


def test_streaming_dedup_bloom_no_false_negatives(ray_session):
    idx = create_dedup_index(n_shards=2, mode="bloom", bloom_bits=1 << 20)
    out = (
        _dup_ds(300, 2, 8)
        .map_batches(StreamingDedupFilter(idx), batch_format="pyarrow", concurrency=2)
        .to_pandas()
    )
    # duplicates NEVER survive (no false negatives); a few uniques may be
    # lost to false positives at this load factor, none expected at 1M bits
    assert out["text"].is_unique
    assert len(out) >= 295

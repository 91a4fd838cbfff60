"""Sharded streaming dedup index — the one shape that genuinely needs
raw Ray actors.

``Dataset.groupby`` expresses batch dedup (see
``functions/dedup.exact_dedup``) but needs the whole key column in the
exchange; a STREAMING ingest — drop a row the moment its content digest
has been seen anywhere earlier in the stream, keep state across blocks
and across pipeline runs — is cross-block mutable state the Dataset API
cannot express. Per the brief's escape hatch (c), this is a shared
mutable index built from ``@ray.remote`` actors:

- the key space is hash-sharded over N actors, so per-key operations
  are LINEARIZABLE (each key routes to exactly one actor) while
  different shards proceed in parallel;
- each ``check_and_add`` call ships one compact uint64 array per shard,
  not rows — the payload never visits the index;
- actors are ``num_cpus=0``: they hold no CPU, so the filter's tasks
  and every other stage keep the whole cluster, and an index that
  outlives a Dataset (or a failed one) holds nothing.

Which of N duplicate rows survives depends on arrival order (first
wins); the SURVIVOR SET SIZE and the dropped count are deterministic,
which is what the driver query pins.

``mode="exact"`` holds a per-shard uint64 set (64 bits/key: ~80 GB of
actor state per 10^10 distinct keys, spread over the cluster — viable
and exact). ``mode="bloom"`` holds a fixed bitarray per shard: zero
false negatives (a duplicate is always dropped) but false positives
drop unique rows at the documented rate; use it when the key set
outgrows memory and a bounded unique-loss rate is acceptable.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray


@ray.remote(num_cpus=0)
class _DedupShard:
    """One shard of the index: first-occurrence test over uint64 keys."""

    def __init__(self, mode: str = "exact", bloom_bits: int = 1 << 24):
        self.mode = mode
        if mode == "exact":
            self.seen: set[int] = set()
        elif mode == "bloom":
            self.bits = np.zeros(bloom_bits // 8 + 1, dtype=np.uint8)
            self.nbits = bloom_bits
        else:
            raise ValueError(mode)

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        """uint64 keys -> bool mask (True = first occurrence, claimed)."""
        if self.mode == "exact":
            out = np.empty(len(keys), dtype=bool)
            seen = self.seen
            for i, k in enumerate(keys.tolist()):
                if k in seen:
                    out[i] = False
                else:
                    seen.add(k)
                    out[i] = True
            return out
        # bloom: two derived probes per key (double hashing)
        h1 = keys % np.uint64(self.nbits)
        h2 = (keys >> np.uint64(32) | keys << np.uint64(32)) % np.uint64(self.nbits)
        out = np.empty(len(keys), dtype=bool)
        bits = self.bits
        for i in range(len(keys)):
            a, b = int(h1[i]), int(h2[i])
            hit = (bits[a >> 3] >> (a & 7)) & 1 and (bits[b >> 3] >> (b & 7)) & 1
            out[i] = not hit
            bits[a >> 3] |= 1 << (a & 7)
            bits[b >> 3] |= 1 << (b & 7)
        return out

    def n_keys(self) -> int:
        return len(self.seen) if self.mode == "exact" else -1


def create_dedup_index(n_shards: int = 8, mode: str = "exact", bloom_bits: int = 1 << 24):
    """N shard actors that outlive any one Dataset; pass the list to
    :class:`StreamingDedupFilter`."""
    return [_DedupShard.remote(mode=mode, bloom_bits=bloom_bits) for _ in range(n_shards)]


def _digest_u64(texts: list[str]) -> np.ndarray:
    return np.array(
        [
            int.from_bytes(hashlib.md5(t.encode("utf-8")).digest()[:8], "big")
            for t in texts
        ],
        dtype=np.uint64,
    )


class StreamingDedupFilter:
    """``map_batches`` callable, passed as an instance so each batch runs
    as a plain task: drops every row whose ``column`` digest was already
    claimed anywhere earlier in the stream.

    Safe at any ``concurrency``: a key is claimed by exactly one shard
    actor call, so across racing batches exactly ONE copy of each
    distinct value survives (which copy is arrival-order-dependent).
    """

    def __init__(self, index_handles, column: str = "text"):
        self.shards = list(index_handles)
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.column).to_pylist()
        keys = _digest_u64([v or "" for v in col])
        n_shards = len(self.shards)
        shard_of = (keys % np.uint64(n_shards)).astype(np.int64)
        keep = np.zeros(len(keys), dtype=bool)
        futures, idxs = [], []
        for s in range(n_shards):
            sel = np.nonzero(shard_of == s)[0]
            if len(sel):
                futures.append(self.shards[s].check_and_add.remote(keys[sel]))
                idxs.append(sel)
        for sel, mask in zip(idxs, ray.get(futures)):
            keep[sel] = mask
        return batch.filter(pa.array(keep))


def streaming_dedup_count(sf_dir: str) -> "pd.DataFrame":
    """Driver-query rollup: ingest the documents table through the
    sharded streaming index and report survivor counts (deterministic
    even though WHICH copy survives is arrival-order-dependent)."""
    import pandas as pd
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    n_total = ds.count()
    n_unique = ds.map_batches(
        StreamingDedupFilter(create_dedup_index()), batch_format="pyarrow"
    ).count()
    return pd.DataFrame(
        {
            "n_unique": pd.Series([n_unique], dtype="int64"),
            "n_total": pd.Series([n_total], dtype="int64"),
            "n_dropped": pd.Series([n_total - n_unique], dtype="int64"),
        }
    )

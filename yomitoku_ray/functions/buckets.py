"""The one hash-keyed exchange behind the wide operators.

Every hash-keyed exchange in ``functions/`` (minhash banding, simhash
chunks, dup-component propagation, window/segment/bigram explodes, the
relational per-entity kernels, url dedup, the page merges, and the
per-batch partial reductions of the sketches and count models) groups rows
by ``hash(key) & mask`` and hands each WHOLE bucket to one pandas call:
:func:`bucket_exchange` is that one composition. A per-key groupby would
pay Ray's per-group overhead (~90 us per ``map_groups`` group, measured in
round 2) once per key; a coarse bucket pays it once per bucket and the
operator resolves its keys vectorized inside the frame.

What goes through it and what stays a plain Ray ``groupby``:

- a key whose distinct count grows with the corpus (url, domain, digest,
  doc id, pair key, a partial's value-space key) goes through
  :func:`bucket_exchange`;
- a dimension-sized key (query id, k-means label, source, nation, one
  global group) stays a plain ``groupby``: its group count is already
  coarse;
- buckets that carry meaning stay a plain ``groupby`` because the
  function reads the bucket id: ordered doc-id ranges (``shuffle_rank``,
  ``pack_sequences``);
- a native ``.aggregate(Sum/Min/...)`` stays: it never calls Python per
  group.

No operator joins with ``Dataset.join``: its hash-shuffle aggregators are
actors that hold CPUs and memory a small cluster does not have.

A bucket is held in one task's heap, so the bucket count sets peak
per-task memory: it must scale with the input, not sit at a constant.
Sizing rule (worked out on the driver, never passed in):

    n_buckets = next_pow2(shuffled_bytes / bytes_per_bucket)
                clamped to [1024, 2**22]

- ``shuffled_bytes`` is estimated as input FILE bytes (local paths or any
  ``pyarrow.fs`` URI) times a per-operator ``expansion`` factor: ~1 for
  row-shaped exchanges (pair graphs, per-entity event rows), ~16 for
  token-window explodes where one compressed input byte becomes an
  occurrence row (window text + ids, measured ~10-20x at the test scales).
- ``bytes_per_bucket`` targets what one map_groups task should hold in its
  heap; 64 MiB of estimated exchange bytes leaves an order of magnitude of
  headroom against pandas overhead inside a multi-GiB worker heap.
- The floor (1024) amortizes the per-group overhead and is what an
  exchange without input files (``size_from=None``) gets: the per-batch
  partial reductions, whose rows are bounded by a value space (sketch
  registers, model buckets, histogram values), not by the corpus. The cap
  (4M buckets) bounds the shuffle's metadata at any input size.

Result invariance: the bucket only co-locates work — every operator
computes exact within-bucket results and the union over buckets is the
answer, so output does not depend on the bucket count (pinned by
``tests/test_bucket_invariance.py`` at floors 64 and 4096). At 100 TB a
token explode (~10**14 shuffled bytes) resolves to the 2**22 cap: ~25 MB
per bucket, still one comfortable task.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pandas as pd
import pyarrow.fs as pafs

BYTES_PER_BUCKET = 64 * 2**20
MIN_BUCKETS = 1024
MAX_BUCKETS = 1 << 22

_BUCKET = "_bucket"


def input_bytes(paths: str | list[str] | tuple[str, ...]) -> int:
    """Total file bytes under the given files, directories or URIs
    (``file://``, ``s3://``, ... through ``pyarrow.fs``). A path that
    cannot be stat'ed counts 0, which falls the sizing back to the floor."""
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    total = 0
    for p in map(os.fspath, paths):
        try:
            fs, path = pafs.FileSystem.from_uri(p if "://" in p else os.path.abspath(p))
            info = fs.get_file_info(path)
            if info.type == pafs.FileType.Directory:
                infos = fs.get_file_info(pafs.FileSelector(path, recursive=True))
            else:
                infos = [info]
        except (OSError, ValueError):  # ArrowInvalid is a ValueError
            continue
        total += sum(i.size for i in infos if i.type == pafs.FileType.File)
    return total


def n_buckets_for(
    paths: str | list[str] | tuple[str, ...],
    *,
    expansion: float = 1.0,
    bytes_per_bucket: int = BYTES_PER_BUCKET,
) -> int:
    est = input_bytes(paths) * expansion
    n = MIN_BUCKETS
    while n < MAX_BUCKETS and n * bytes_per_bucket < est:
        n <<= 1
    return n


def resolve_mask(
    n_buckets: int | None = None,
    *,
    paths: str | list[str] | tuple[str, ...] | None = None,
    expansion: float = 1.0,
) -> int:
    """The ``& mask`` for a coarse shuffle: explicit ``n_buckets``
    (validated power of two) wins; else the sizing rule over ``paths``;
    else the floor."""
    if n_buckets is not None:
        if n_buckets < 1 or (n_buckets & (n_buckets - 1)) != 0:
            raise ValueError(f"n_buckets must be a positive power of two, got {n_buckets}")
        return n_buckets - 1
    if paths is not None:
        return n_buckets_for(paths, expansion=expansion) - 1
    return MIN_BUCKETS - 1


def bucket_exchange(inputs, key: str, fn, *, size_from=None, expansion: float = 1.0):
    """Group ``inputs`` by ``hash(key) & mask`` and return ``fn`` applied to
    each bucket's pandas frame (``fn`` never sees the bucket column).

    ``inputs`` is one Dataset, or a list of Datasets that share the ``key``
    column: a union exchange, so equal keys from every input meet in one
    frame. Each input is tagged before the union, where the tag fuses into
    that input's last map (Ray does not fuse across a union). Tagging emits
    pandas blocks, so inputs that make Arrow and pandas blocks meet as one
    block type in the exchange's sort; pandas, because not every pandas
    column converts to Arrow (an object column of object arrays does not).

    The mask is sized once, here on the driver, from the files or URIs in
    ``size_from`` times ``expansion`` (the floor when ``size_from`` is
    None)."""
    mask = resolve_mask(paths=size_from, expansion=expansion)

    def _tag_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        bucket = pd.util.hash_array(batch[key].to_numpy()).astype(np.int64) & mask
        return batch.assign(**{_BUCKET: bucket})

    @functools.wraps(fn)
    def _run(group: pd.DataFrame):
        return fn(group.drop(columns=[_BUCKET]))

    if isinstance(inputs, list):
        first, *rest = (ds.map_batches(_tag_bucket, batch_format="pandas") for ds in inputs)
        tagged = first.union(*rest)
    else:
        tagged = inputs.map_batches(_tag_bucket, batch_format="pandas")
    return tagged.groupby(_BUCKET).map_groups(_run, batch_format="pandas")

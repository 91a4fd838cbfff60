"""Coarse-bucket invariance: results must not depend on the bucket count.

The bucket key in the wide shuffles only co-locates work — every operator
computes exact within-bucket results whose union is the answer, so output is
invariant to the bucket count. The count is worked out on the driver by
``buckets.resolve_mask`` (floor ``MIN_BUCKETS`` at these input sizes), so
each case runs its operator with the floor patched to 64 and then to 4096.
"""

import importlib

import numpy as np
import pandas as pd
import pytest

from yomitoku_ray.functions import buckets

SF = "/root/testdata/sf0.001"


def _frame(out) -> pd.DataFrame:
    if not isinstance(out, pd.DataFrame):
        out = out.to_pandas()
    return out.sort_values(list(out.columns)).reset_index(drop=True)


def test_resolve_mask_rules(tmp_path):
    # explicit override wins and must be a power of two
    assert buckets.resolve_mask(2048) == 2047
    with pytest.raises(ValueError):
        buckets.resolve_mask(1000)
    with pytest.raises(ValueError):
        buckets.resolve_mask(0)
    # no info -> floor
    assert buckets.resolve_mask() == buckets.MIN_BUCKETS - 1
    # sizing: floor for small inputs, grows with bytes, capped
    small = tmp_path / "small.bin"
    small.write_bytes(b"x" * 1024)
    assert buckets.n_buckets_for(str(small)) == buckets.MIN_BUCKETS
    assert (
        buckets.n_buckets_for(str(small), expansion=2**40, bytes_per_bucket=1)
        == buckets.MAX_BUCKETS
    )
    # the rule: next power of two covering est/bytes_per_bucket
    # (1 KiB file, 1 byte/bucket, x8 expansion -> 8192 buckets)
    assert buckets.n_buckets_for(str(small), expansion=8.0, bytes_per_bucket=1) == 8192
    # directories sum their files, nested ones included
    (tmp_path / "d" / "sub").mkdir(parents=True)
    (tmp_path / "d" / "a").write_bytes(b"x" * 10)
    (tmp_path / "d" / "sub" / "b").write_bytes(b"x" * 10)
    assert buckets.input_bytes(str(tmp_path / "d")) == 20
    # URIs stat through pyarrow.fs, so a non-local path sizes by the rule too
    assert buckets.input_bytes(f"file://{tmp_path / 'd'}") == 20
    assert buckets.input_bytes([f"file://{small}", str(small)]) == 2048
    assert (
        buckets.n_buckets_for(f"file://{small}", expansion=8.0, bytes_per_bucket=1) == 8192
    )
    # missing paths degrade to the floor, never raise
    assert buckets.resolve_mask(paths="/nonexistent/nope") == buckets.MIN_BUCKETS - 1
    assert buckets.input_bytes("file:///nonexistent/nope") == 0


def test_union_exchange_mixes_block_types(ray_session):
    """A union whose inputs make Arrow and pandas blocks meets in one
    exchange: every key sees its rows from both inputs."""
    import ray.data

    arrow = ray.data.from_items([{"k": i % 7, "v": i} for i in range(40)])
    pandas_mapped = arrow.map_batches(
        lambda df: df.assign(v=df["v"] + 100), batch_format="pandas"
    )

    def _count(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False).agg(n=("v", "size"), v=("v", "sum"))

    got = _frame(buckets.bucket_exchange([arrow, pandas_mapped], "k", _count))
    i = np.arange(40)
    want = _frame(_count(pd.DataFrame({"k": np.r_[i, i] % 7, "v": np.r_[i, i + 100]})))
    pd.testing.assert_frame_equal(got, want)


def _hamming_pairs(sf_dir):
    """hamming_pairs_u64 over 400 ids whose hashes repeat (exact cliques)
    and differ by single bits (near pairs)."""
    import ray.data

    from yomitoku_ray.functions.dedup import hamming_pairs_u64

    rng = np.random.RandomState(3)
    base = rng.randint(0, 2**62, size=40, dtype=np.int64).astype(np.uint64)
    flips = np.uint64(1) << rng.randint(0, 64, size=400).astype(np.uint64)
    flips[rng.rand(400) < 0.5] = 0
    h = (base[rng.randint(0, 40, size=400)] ^ flips).view(np.int64)
    ds = ray.data.from_pandas(pd.DataFrame({"id": np.arange(400), "h": h}))
    return hamming_pairs_u64(ds, "id", "h")


def _pages(columns):
    import ray.data

    from yomitoku_ray.synth.pages import ensure_pages_parquet

    return ray.data.read_parquet(ensure_pages_parquet(SF), columns=columns)


def _url_dedup_first(sf_dir):
    """url_dedup_first over the pages, a later and an earlier recrawl, and
    a same-timestamp copy with other text (the tie rule)."""
    import ray.data

    from yomitoku_ray.functions.merge import url_dedup_first

    df = _pages(["url", "warc_ts", "text"]).to_pandas()
    copies = [(2, " later"), (-2, " earlier"), (0, " tie")]
    both = pd.concat(
        [df]
        + [
            df.assign(warc_ts=df["warc_ts"] + pd.Timedelta(hours=h), text=df["text"] + s)
            for h, s in copies
        ]
    )
    return url_dedup_first(ray.data.from_pandas([both.iloc[i::8] for i in range(8)]))


def _merge_pages_by_domain(sf_dir):
    from yomitoku_ray.functions.merge import merge_pages_by_domain

    return merge_pages_by_domain(_pages(["url", "text"]), text_column="text", max_pages_per_domain=20)


def _merge_pages_by_domain_salted(sf_dir):
    from yomitoku_ray.functions.merge import merge_pages_by_domain_salted

    return merge_pages_by_domain_salted(_pages(["url", "text"]), text_column="text")


def _merge_exploded_pages(sf_dir):
    """Three pages per document, recovered from the ``url#page=N`` form."""
    from yomitoku_ray.functions.merge import merge_exploded_pages

    def _explode(df):
        return pd.concat(
            [
                pd.DataFrame({"url": df["url"] + f"#page={k}", "extracted_text": df["text"] + str(k)})
                for k in (2, 0, 1)
            ]
        )

    return merge_exploded_pages(_pages(["url", "text"]).map_batches(_explode, batch_format="pandas"))


CASES = {
    "minhash_lsh_pairs": ("dedup", {"max_bucket": 4096}),
    "dup_ngram_spans": ("dedup", {}),
    "simhash_dup_pairs": ("dedup", {}),
    "dup_components": ("dedup", {}),
    "cross_corpus_near_dup": ("dedup", {}),
    "shuffle_rank": ("dedup", {}),
    "hamming_pairs_u64": (_hamming_pairs, {}),
    "segment_dedup": ("clean", {}),
    "dedup_corpus": ("clean", {}),
    "substring_dedup_rollup": ("clean", {}),
    "bigram_coverage": ("text_stats", {}),
    "tfidf_top_terms": ("text_stats", {}),
    "distinctive_terms": ("text_stats", {}),
    "top_terms": ("text_stats", {}),
    "events_asof_orders": ("relational", {}),
    "event_pagerank": ("relational", {}),
    "customers_without_orders": ("relational", {"since": "2001-01-01"}),
    "user_sessions": ("relational", {}),
    "events_close_pairs": ("relational", {}),
    "top_supplier_per_nation": ("relational", {}),
    "events_funnel": ("relational", {}),
    "events_retention": ("relational", {}),
    "url_dedup_first": (_url_dedup_first, {}),
    "merge_pages_by_domain": (_merge_pages_by_domain, {}),
    "merge_pages_by_domain_salted": (_merge_pages_by_domain_salted, {}),
    "merge_exploded_pages": (_merge_exploded_pages, {}),
    "soft_dedup_weights": ("dedup", {}),
    "corpus_prep": ("text_stats", {}),
    "term_cooccurrence": ("text_stats", {}),
    "source_length_percentiles": ("text_stats", {}),
    "ccnet_perplexity": ("text_stats", {}),
    "nb_classifier": ("text_stats", {}),
    "hll_distinct_tokens": ("sketch", {}),
    "cms_top_term_counts": ("sketch", {}),
}


@pytest.mark.parametrize("name", list(CASES))
def test_bucket_count_invariance(ray_session, monkeypatch, name):
    where, kwargs = CASES[name]
    if callable(where):
        op = where
    else:
        op = getattr(importlib.import_module(f"yomitoku_ray.functions.{where}"), name)
    frames = []
    for floor in (64, 4096):
        monkeypatch.setattr(buckets, "MIN_BUCKETS", floor)
        assert buckets.resolve_mask(paths=f"{SF}/documents.parquet") == floor - 1
        frames.append(_frame(op(SF, **kwargs)))
    lo, hi = frames
    pd.testing.assert_frame_equal(lo, hi)
    assert len(lo) > 0  # a trivially-empty comparison proves nothing

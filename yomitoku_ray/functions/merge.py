"""Cross-document merge, url dedup and the hot-domain skew probe.

The reference's one cross-page aggregate is the ``--combine`` multi-page
merge (``/root/reference/src/yomitoku/cli/main.py:24-59``: json -> list
append, md/html -> "\\n" join, ordered by page). Here the grouping key is
the url's host domain; pages within a group merge in deterministic url
order.

Skew posture (north rule: "salted groupby ... host-domain skew"): the merge
itself cannot be salted (ordered concat needs the whole group), so skew is
defused by (a) the probe below, which counts pages per domain with partial
pre-aggregation and reports hot keys, and (b) a hard per-group cap — a
domain beyond ``max_pages_per_domain`` merges its first N pages (url order)
and is flagged, bounding any single reducer's work. At 10^12-doc scale the
probe's hot-key list feeds the cap (or a per-domain sub-split key) before
the shuffle runs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import ray.data
from ray.data.aggregate import Sum

from .buckets import bucket_exchange

# Host extraction as a single vectorized regex (pandas .str.extract on the
# hot path); the same pattern is used verbatim in the DuckDB oracles
# (regexp_extract) so domain keys hash identically.
DOMAIN_REGEX = r"^[a-zA-Z][a-zA-Z0-9+.-]*://([^/]+)"


def _domain_series(urls: pd.Series) -> pd.Series:
    return urls.str.extract(DOMAIN_REGEX, expand=False).fillna("unknown")


def _domain_of(url: str) -> str:
    return _domain_series(pd.Series([url])).iloc[0]


def _ordered_join(g: pd.DataFrame, key: str, text_column: str) -> pd.DataFrame:
    """One row per ``key`` of ``g``, which is sorted by ``key`` and then in
    merge order: the page count, and the length and sha256 of the texts
    joined with "\\n" in frame order."""
    merged = g[text_column].fillna("").groupby(g[key], sort=False).agg("\n".join)
    return pd.DataFrame(
        {
            key: merged.index.to_numpy(),
            "n_pages": g.groupby(key, sort=False).size().to_numpy().astype("int64"),
            "total_chars": merged.str.len().to_numpy().astype("int64"),
            "merged_sha256": [hashlib.sha256(m.encode("utf-8")).hexdigest() for m in merged],
        }
    )


def add_domain_column(ds: ray.data.Dataset) -> ray.data.Dataset:
    def _add(df: pd.DataFrame) -> pd.DataFrame:
        df["domain"] = _domain_series(df["url"])
        return df

    return ds.map_batches(_add, batch_format="pandas")


def domain_skew_probe(ds: ray.data.Dataset, top_n: int = 20) -> pd.DataFrame:
    """Pages-per-domain histogram (partial pre-agg -> tiny groupby).

    Columns: domain, n_pages. Sorted hot-first; feeds the merge cap/salt map.
    """

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        work = pd.DataFrame(
            {
                "domain": _domain_series(df["url"]),
                "n_pages": np.ones(len(df), dtype="int64"),
            }
        )
        return work.groupby("domain", as_index=False).sum()

    agg = (
        ds.map_batches(_partial, batch_format="pandas")
        # plain groupby: a native aggregate calls no Python per group
        .groupby("domain")
        .aggregate(Sum("n_pages", alias_name="n_pages"))
    )
    out = agg.to_pandas().sort_values(["n_pages", "domain"], ascending=[False, True])
    return out.head(top_n).reset_index(drop=True)


def merge_pages_by_domain(
    result_ds: ray.data.Dataset,
    text_column: str = "extracted_text",
    max_pages_per_domain: int = 1000,
) -> ray.data.Dataset:
    """Domain-keyed exchange -> ordered "\\n" join of per-page text (G4
    analogue).

    Output: domain, n_pages, merged_sha256, total_chars, merge_truncated.
    The sha256 stands in for shipping the (potentially huge) merged blob
    out of the reducer in test/bench contexts.
    """

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["domain", "url"])
        n_all = g.groupby("domain").size()
        g = g[g.groupby("domain").cumcount() < max_pages_per_domain]
        out = _ordered_join(g, "domain", text_column)
        out["merge_truncated"] = n_all.to_numpy() > max_pages_per_domain
        return out

    return bucket_exchange(add_domain_column(result_ds), "domain", _merge)


def merge_pages_by_domain_salted(
    result_ds: ray.data.Dataset,
    text_column: str = "extracted_text",
    prefix_len: int = 28,
) -> ray.data.Dataset:
    """Skew-defused ordered merge: two-phase groupby with an order-preserving
    salt.

    The salt is a fixed-length **url prefix** — prefix groups are contiguous
    in sorted-url order, so phase 1 merges each (domain, prefix) span
    independently (hot domains split across many reducers) and phase 2
    concatenates the per-span results in prefix order, reproducing exactly
    the single-reducer ordered join. This is the north rule's "salted
    groupby" in a form that keeps ordered-concat semantics (a hash salt
    could not — hash buckets interleave arbitrarily in url order).

    Output schema matches ``merge_pages_by_domain`` minus merge_truncated.
    """

    def _merge_spans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["domain", "url_prefix", "url"]).fillna({text_column: ""})
        spans = g.groupby(["domain", "url_prefix"], sort=False, dropna=False)
        out = spans.size().rename("n_pages").reset_index()
        out["span_text"] = spans[text_column].agg("\n".join).to_numpy()
        return out

    def _merge_domains(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["domain", "url_prefix"])
        n_pages = g.groupby("domain", sort=False)["n_pages"].sum()
        out = _ordered_join(g, "domain", "span_text")
        out["n_pages"] = n_pages.to_numpy().astype("int64")
        return out

    def _add_prefix(df: pd.DataFrame) -> pd.DataFrame:
        df["url_prefix"] = df["url"].str[:prefix_len]
        return df

    # Phase 1 keys on the prefix alone: a (domain, prefix) span lives in one
    # bucket, and a hot domain's spans spread over many.
    ds = add_domain_column(result_ds).map_batches(_add_prefix, batch_format="pandas")
    spans = bucket_exchange(ds, "url_prefix", _merge_spans)
    return bucket_exchange(spans, "domain", _merge_domains)


def merge_exploded_pages(
    result_ds: ray.data.Dataset, text_column: str = "extracted_text"
) -> ray.data.Dataset:
    """Merge per-page extraction rows back into documents (the ``--combine``
    analogue for the S2 paged source: reference ``cli/main.py:24-59`` joins
    per-page md/html with "\\n" in page order).

    Rows carry ``doc_url``/``page_idx`` from
    ``sources.paged.explode_paged_docs``, or — after the extraction stage,
    which emits only its result schema — both are recovered from the
    ``url#page=N`` convention with one vectorized regex. A doc_url-keyed
    :func:`~.buckets.bucket_exchange` is the shuffle; page order inside a
    document comes from page_idx, matching the reference's page iteration
    order. Output: doc_url, n_pages, n_ok_pages, total_chars, merged_sha256.
    """

    if "doc_url" not in (result_ds.schema().names or []):

        def _add_keys(df: pd.DataFrame) -> pd.DataFrame:
            ext = df["url"].str.extract(r"^(.*)#page=(\d+)$")
            df["doc_url"] = ext[0].fillna(df["url"])
            df["page_idx"] = ext[1].fillna("0").astype("int64")
            return df

        result_ds = result_ds.map_batches(_add_keys, batch_format="pandas")

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_url", "page_idx"])
        ok = g["error"].isna() if "error" in g.columns else pd.Series(True, index=g.index)
        out = _ordered_join(g, "doc_url", text_column)
        n_ok = ok.groupby(g["doc_url"], sort=False).sum().to_numpy().astype("int64")
        out.insert(2, "n_ok_pages", n_ok)
        return out

    return bucket_exchange(result_ds, "doc_url", _merge)


def url_dedup_first(pages_ds: ray.data.Dataset) -> ray.data.Dataset:
    """Exact url dedup: one row per url, the one with the minimum warc_ts.

    Ties on (url, warc_ts) keep the row with the smallest content hash
    (``pd.util.hash_pandas_object`` over all its columns), so the kept row
    does not depend on the order in which rows reach the bucket.

    Parity target: the engine-level dedup SURVEY §2.7 calls for (absent in
    the reference). One url-keyed :func:`~.buckets.bucket_exchange`; each
    bucket resolves its urls with one sort, vectorized.
    """

    def _first(g: pd.DataFrame) -> pd.DataFrame:
        keys = pd.DataFrame(
            {
                "url": g["url"].to_numpy(),
                "warc_ts": g["warc_ts"].to_numpy(),
                "tie": pd.util.hash_pandas_object(g, index=False).to_numpy(),
            }
        )
        return g.iloc[keys.sort_values(list(keys.columns)).index].drop_duplicates("url")

    return bucket_exchange(pages_ds, "url", _first)


# Public RefinedWeb/UT1-style URL blocklist tokens (fixed, shared verbatim
# with the SQL oracle). Deliberately tiny: the mechanism, not the list, is
# the operator.
URL_BLOCKLIST = ("casino", "viagra", "porn", "xxx", "gambling")


def url_quality(pages_ds) -> "ray.data.Dataset":
    """RefinedWeb-style URL filtering features + keep flag per page.

    Every feature is an exact integer computed by vectorized string ops
    (no float seam at all): URL length, digit count, query-param count,
    subdomain dots in the host, and non-overlapping blocklist-token hits
    (``str.count`` == the SQL replace-length formula). ``keep`` is the
    RefinedWeb-shaped gate: no blocklist hit AND digits are less than
    half the URL (integer cross-multiplication, no division).

    Shuffle-free: one ``map_batches`` pass; ``pipelines/corpus.py`` mounts
    the same keep rule (``url_keep_mask``) in front of the extraction
    pipeline as the cheapest possible early gate (URL-only — dropped rows
    never pay an html decode).
    """

    def _feats(df: pd.DataFrame) -> pd.DataFrame:
        return _url_features(df["url"])

    return pages_ds.map_batches(_feats, batch_format="pandas")


def _url_features(urls: pd.Series) -> pd.DataFrame:
    import numpy as np

    url = urls.fillna("").astype(str)
    lower = url.str.lower()
    host = _domain_series(url)
    url_len = url.str.len().astype("int64")
    n_digits = url.str.count(r"[0-9]").astype("int64")
    n_params = (
        url.str.count("&") + (url.str.contains(r"\?", regex=True)).astype(int)
    ).astype("int64")
    host_dots = host.str.count(r"\.").astype("int64")
    hits = np.zeros(len(url), dtype=np.int64)
    for w in URL_BLOCKLIST:
        hits += lower.str.count(w, flags=0).to_numpy("int64")
    keep = ((hits == 0) & (2 * n_digits < url_len)).astype("int64")
    return pd.DataFrame(
        {
            "url": url,
            "host": host,
            "url_len": url_len,
            "n_digits": n_digits,
            "n_params": n_params,
            "host_dots": host_dots,
            "blocklist_hits": hits,
            "keep": keep,
        }
    )


def url_keep_mask(urls: pd.Series):
    """Boolean keep mask of :func:`url_quality`'s gate — for mounting the
    URL filter inside other pipelines without materializing features."""
    return _url_features(urls)["keep"].to_numpy() == 1

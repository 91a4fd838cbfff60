"""Host-level web link graph — the canonical consumer of the WAT surface.

Common Crawl's published webgraph is exactly this reduction: per page,
harvest outgoing links (A@/href, IMG@/src, LINK@/href — the same triple
:mod:`yomitoku_ray.export.wat` emits), resolve each against the page url,
collapse to registered-host granularity, and count edges. Downstream
PageRank / harmonic-centrality / spam-detection jobs run on the edge list.
The reference has no web surface at all; this is original work from the
public cc-webgraph shape.

Scale posture (100 TB): link harvesting is embarrassingly parallel
per-page work in ``map_batches``; each batch pre-aggregates its
(src_host, dst_host) pair counts (combiner) so the only shuffle is a
groupby over the pair space — hosts², bounded by the web's host count
(~10^8), NOT by pages (10^12). Host-domain skew (a hot host's pages
spread over many batches) is absorbed by the combiner: every batch emits
each pair at most once.
"""

from __future__ import annotations

from urllib.parse import urljoin, urlsplit

import pandas as pd
import ray.data

from ..export.wat import all_links, html_metadata


def _host_of(url: str) -> str:
    try:
        return urlsplit(url).netloc.lower()
    except ValueError:
        return ""


def page_out_edges(url: str, html: bytes | None) -> dict[str, int]:
    """dst_host -> link count for one page (undecodable html = no links)."""
    if not html:
        return {}
    counts: dict[str, int] = {}
    for link in all_links(html_metadata(bytes(html))):
        try:
            dst = _host_of(urljoin(url, link["url"]))
        except ValueError:
            continue
        if dst:
            counts[dst] = counts.get(dst, 0) + 1
    return counts


def _edges_partial(df: pd.DataFrame) -> pd.DataFrame:
    """Per-batch combiner: every (src_host, dst_host) pair at most once."""
    counts: dict[tuple[str, str], int] = {}
    for url, html in zip(df["url"], df["html"]):
        src = _host_of(url)
        if not src:
            continue
        for dst, n in page_out_edges(url, html).items():
            counts[(src, dst)] = counts.get((src, dst), 0) + n
    if not counts:
        return pd.DataFrame(
            {
                "src_host": pd.Series([], dtype="str"),
                "dst_host": pd.Series([], dtype="str"),
                "n_links": pd.Series([], dtype="int64"),
            }
        )
    keys = list(counts)
    return pd.DataFrame(
        {
            "src_host": [k[0] for k in keys],
            "dst_host": [k[1] for k in keys],
            "n_links": pd.Series([counts[k] for k in keys], dtype="int64"),
        }
    )


def host_link_graph(ds: ray.data.Dataset) -> ray.data.Dataset:
    """(src_host, dst_host, n_links) edge list from a (url, html) Dataset.

    Partial pair counts per batch -> one groupby over the host-pair space
    (the :func:`~yomitoku_ray.functions.merge.domain_skew_probe` shape).
    Returns a lazy Dataset with one row per host pair, in no fixed order;
    the caller sinks it (``write_parquet``) or collects it.
    """

    def _rename(df: pd.DataFrame) -> pd.DataFrame:
        # ray groupby.sum names the column "sum(n_links)"
        return df.rename(columns={"sum(n_links)": "n_links"})

    return (
        ds.map_batches(_edges_partial, batch_format="pandas")
        # plain groupby: a native aggregate calls no Python per group
        .groupby(["src_host", "dst_host"])
        .sum("n_links")
        .map_batches(_rename, batch_format="pandas")
    )

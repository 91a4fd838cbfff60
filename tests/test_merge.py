"""Domain merge operators: ordered concat, salted equivalence, dedup, probe."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from yomitoku_ray.functions.merge import (
    domain_skew_probe,
    merge_pages_by_domain,
    merge_pages_by_domain_salted,
    url_dedup_first,
)


@pytest.fixture(scope="module")
def result_ds_rows():
    rows = []
    # hot domain with 40 pages, two small domains
    for i in range(40):
        rows.append(
            {"url": f"https://hot.example.jp/p/{i:04d}", "extracted_text": f"hot-{i}"}
        )
    for i in range(3):
        rows.append(
            {"url": f"https://small-a.example.jp/x/{i}", "extracted_text": f"a-{i}"}
        )
    rows.append({"url": "https://small-b.example.jp/only", "extracted_text": "b-0"})
    return rows


def test_merge_ordered_and_capped(ray_session, result_ds_rows):
    ds = ray.data.from_pandas(pd.DataFrame(result_ds_rows))
    out = merge_pages_by_domain(ds).to_pandas().set_index("domain")
    assert out.loc["hot.example.jp", "n_pages"] == 40
    assert out.loc["small-b.example.jp", "n_pages"] == 1
    capped = merge_pages_by_domain(ds, max_pages_per_domain=10).to_pandas().set_index("domain")
    assert capped.loc["hot.example.jp", "n_pages"] == 10
    assert bool(capped.loc["hot.example.jp", "merge_truncated"])


def test_salted_merge_equals_unsalted(ray_session, result_ds_rows):
    ds = ray.data.from_pandas(pd.DataFrame(result_ds_rows))
    plain = (
        merge_pages_by_domain(ds)
        .to_pandas()[["domain", "n_pages", "total_chars", "merged_sha256"]]
        .sort_values("domain")
        .reset_index(drop=True)
    )
    salted = (
        merge_pages_by_domain_salted(ds, prefix_len=28)
        .to_pandas()[["domain", "n_pages", "total_chars", "merged_sha256"]]
        .sort_values("domain")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(plain, salted)
    # the salt really splits the hot domain into multiple spans
    from yomitoku_ray.functions.merge import add_domain_column

    spans = (
        add_domain_column(ds)
        .map_batches(
            lambda df: df.assign(url_prefix=df["url"].str[:28]), batch_format="pandas"
        )
        .to_pandas()
    )
    assert spans[spans.domain == "hot.example.jp"]["url_prefix"].nunique() > 1


def test_url_dedup_first(ray_session, tmp_path):
    rows = [
        {"url": "u1", "warc_ts": 5, "x": "late"},
        {"url": "u1", "warc_ts": 1, "x": "early"},
        {"url": "u2", "warc_ts": 9, "x": "only"},
    ]
    t = pa.Table.from_pylist(rows)
    path = str(tmp_path / "d.parquet")
    pq.write_table(t, path)
    ds = ray.data.read_parquet(path)
    out = url_dedup_first(ds).to_pandas().sort_values("url").reset_index(drop=True)
    assert len(out) == 2
    assert out[out.url == "u1"].iloc[0]["x"] == "early"


def test_domain_skew_probe(ray_session, result_ds_rows):
    ds = ray.data.from_pandas(pd.DataFrame(result_ds_rows)[["url"]])
    probe = domain_skew_probe(ds, top_n=2)
    assert probe.iloc[0]["domain"] == "hot.example.jp"
    assert probe.iloc[0]["n_pages"] == 40


def test_url_dedup_first_matches_pandas_on_recrawls(ray_session, tmp_path):
    """url_dedup_first keeps the min-warc_ts row per url on a synthetic
    recrawl with later and EARLIER recrawls, equal to a pandas expectation."""
    rows = []
    for i in range(200):
        rows.append({"url": f"https://x/{i:04d}", "warc_ts": 1000 + i, "lang": "ja", "text": f"v1-{i}"})
        if i % 3 == 0:  # recrawl later
            rows.append({"url": f"https://x/{i:04d}", "warc_ts": 5000 + i, "lang": "ja", "text": f"v2-{i}"})
        if i % 7 == 0:  # recrawl EARLIER than the base row
            rows.append({"url": f"https://x/{i:04d}", "warc_ts": 10 + i, "lang": "ja", "text": f"v0-{i}"})
    pq.write_table(pa.Table.from_pylist(rows), str(tmp_path / "pages.parquet"))
    ds = ray.data.read_parquet(str(tmp_path / "pages.parquet"))
    cols = ["url", "warc_ts", "lang", "text"]
    got = url_dedup_first(ds).to_pandas()[cols].sort_values("url").reset_index(drop=True)
    want = (
        pd.DataFrame(rows)
        .sort_values(["url", "warc_ts"])
        .drop_duplicates("url")[cols]
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    assert (got[got["url"] == "https://x/0000"]["text"] == "v0-0").all()
    assert (got[got["url"] == "https://x/0003"]["text"] == "v1-3").all()


def test_url_dedup_first_tie_rule(ray_session, tmp_path):
    """Rows that tie on (url, warc_ts) resolve by content, not by arrival
    order: the same rows written in either order keep the same row."""
    rows = [{"url": "u", "warc_ts": 1, "text": f"t{i}"} for i in range(8)]
    kept = []
    for name, order in (("a", rows), ("b", rows[::-1])):
        path = str(tmp_path / f"{name}.parquet")
        pq.write_table(pa.Table.from_pylist(order), path, row_group_size=1)
        out = url_dedup_first(ray.data.read_parquet(path)).to_pandas()
        assert len(out) == 1
        kept.append(out.iloc[0]["text"])
    assert kept[0] == kept[1]


def test_url_quality_features_and_gate(ray_session, tmp_path):
    """RefinedWeb-style URL gate: exact integer features; blocklisted and
    digit-heavy URLs dropped; realistic URLs (the synth pages table is
    uniform, so this pins the interesting behavior)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from yomitoku_ray.functions.merge import url_quality

    urls = [
        "https://news.example.com/articles/today?id=7&ref=rss",  # keep
        "https://best-casino-bonus.example.com/win",  # blocklisted
        "https://a.b.c.example.org/x",  # 4 host dots, keep
        "http://spam.example.net/0123456789012345678901234567890",  # digit-heavy
        "not-a-url-at-all",  # host -> unknown
        "https://ok.example.jp/p?q=1",  # keep
    ]
    t = pa.table({"url": urls})
    p = tmp_path / "pages.parquet"
    pq.write_table(t, str(p))
    got = (
        url_quality(ray.data.read_parquet(str(p)))
        .to_pandas()
        .set_index("url")
    )
    assert got.loc[urls[0], "keep"] == 1
    assert got.loc[urls[0], "n_params"] == 2
    assert got.loc[urls[1], "blocklist_hits"] == 1
    assert got.loc[urls[1], "keep"] == 0
    assert got.loc[urls[2], "host_dots"] == 4
    assert got.loc[urls[3], "keep"] == 0  # 31 digits in a 49-char url
    assert got.loc[urls[4], "host"] == "unknown"
    assert got.loc[urls[5], "keep"] == 1


def test_url_quality_matches_oracle_formula(ray_session, tmp_path):
    """Cross-engine fuzz: the driver's SQL formula (re-pointed at a fuzz
    table) must agree exactly, including overlap-free blocklist counting
    and the unknown-host fallback."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    import __ray_entry__ as entry
    from yomitoku_ray.functions.merge import url_quality

    rng = np.random.RandomState(2)
    parts = ["casino", "xxxx", "news", "a1b2", "??", "&&x=1", "q.r.s", "123456"]
    urls = []
    for i in range(200):
        n = rng.randint(1, 6)
        body = "".join(rng.choice(parts, n))
        scheme = rng.choice(["https://", "http://", ""])
        urls.append(f"{scheme}host{i % 7}.example.com/{body}")
    t = pa.table({"url": urls})
    d = tmp_path / "pages"
    d.mkdir()
    pq.write_table(t, str(d / "p.parquet"))
    got = (
        url_quality(ray.data.read_parquet(str(d / "p.parquet")))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    sql = entry.oracle_sql()["url_quality"]
    import re as _re

    sql = _re.sub(r"read_parquet\('[^']*'\)", f"read_parquet('{d}/p.parquet')", sql)
    want = (
        duckdb.connect()
        .execute(sql)
        .df()
        .sort_values("url")
        .reset_index(drop=True)
    )
    for c in ("url_len", "n_digits", "n_params", "host_dots", "blocklist_hits", "keep"):
        want[c] = want[c].astype("int64")
    import pandas as pd

    pd.testing.assert_frame_equal(got[want.columns.tolist()], want)

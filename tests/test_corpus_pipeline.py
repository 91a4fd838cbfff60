"""End-to-end corpus_build composition: extract -> clean/quality ->
digest dedup -> shards, streaming with one shuffle."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from yomitoku_ray.pipelines.corpus import (
    CorpusConfig,
    build_corpus,
    corpus_build_summary,
)
from yomitoku_ray.synth.pages import generate_pages_table


def _pages_with_dups(tmp_path, n=60):
    t = generate_pages_table(n).to_pylist()
    # recrawl: same html under a different url + later ts -> same
    # extracted text -> one survivor per digest
    dups = []
    for r in t[:10]:
        d = dict(r)
        d["url"] = r["url"] + "?recrawl=1"
        dups.append(d)
    full = pa.Table.from_pylist(t + dups)
    p = str(tmp_path / "pages.parquet")
    pq.write_table(full, p)
    return p


def test_corpus_build_dedups_recrawls(ray_session, tmp_path):
    p = _pages_with_dups(tmp_path)
    df = build_corpus(p).to_pandas()
    # every digest unique after dedup; recrawled pages fold into n_copies
    assert df["digest"].is_unique
    # every surviving recrawl pair contributes one extra source doc
    n_dup_pairs = int((df["n_copies"] > 1).sum())
    assert int(df["n_copies"].sum()) == len(df) + n_dup_pairs
    assert n_dup_pairs > 0  # the crafted recrawls actually collided
    dup_rows = df[df["n_copies"] > 1]
    assert (dup_rows["n_copies"] == 2).all()
    # first url wins: kept url is the lexicographic min (original, since
    # '?recrawl=1' sorts after)
    assert not dup_rows["url"].str.contains("recrawl").any()


def test_corpus_build_quality_gates(ray_session, tmp_path):
    rows = [
        {
            "url": "http://a.example/ok",
            "warc_ts": 1_700_000_000_000_000,
            "html": "<html><body><p>"
            + " ".join(f"w{i}" for i in range(30))
            + "</p></body></html>",
            "text": "",
            "lang": "en",
        },
        {  # too short: fewer than min_words
            "url": "http://a.example/short",
            "warc_ts": 1_700_000_000_000_000,
            "html": "<html><body><p>tiny page</p></body></html>",
            "text": "",
            "lang": "en",
        },
        {  # degenerate repetition: one word repeated
            "url": "http://a.example/rep",
            "warc_ts": 1_700_000_000_000_000,
            "html": "<html><body><p>" + "spam " * 40 + "</p></body></html>",
            "text": "",
            "lang": "en",
        },
    ]
    t = pa.Table.from_pylist(rows)
    t = t.set_column(
        t.schema.get_field_index("warc_ts"),
        pa.field("warc_ts", pa.timestamp("us")),
        t["warc_ts"].cast(pa.timestamp("us")),
    )
    t = t.set_column(
        t.schema.get_field_index("html"),
        pa.field("html", pa.binary()),
        t["html"].cast(pa.string()).cast(pa.binary()),
    )
    p = str(tmp_path / "pages.parquet")
    pq.write_table(t, p)
    df = build_corpus(p).to_pandas()
    assert df["url"].tolist() == ["http://a.example/ok"]
    summary = corpus_build_summary(p)
    assert summary.loc[0, "n_docs"] == 1
    assert summary.loc[0, "n_source_docs"] == 1
    assert summary.loc[0, "n_langs"] == 1


def test_corpus_build_writes_shards(ray_session, tmp_path, monkeypatch):
    from yomitoku_ray.functions import buckets

    # few digest buckets: the mask is sized on the driver from the floor
    monkeypatch.setattr(buckets, "MIN_BUCKETS", 64)
    p = _pages_with_dups(tmp_path, n=40)
    out = str(tmp_path / "shards")
    build_corpus(p).write_parquet(out)
    back = pq.read_table(out)
    assert back.num_rows > 0
    assert set(back.schema.names) == {
        "digest", "url", "warc_ts", "lang", "text", "n_words", "n_copies",
    }


def test_corpus_build_streaming_mode_matches_counts(ray_session, tmp_path):
    p = _pages_with_dups(tmp_path, n=50)
    shuffle_df = build_corpus(p).to_pandas()
    stream_df = build_corpus(
        p, CorpusConfig(streaming_dedup=True)
    ).to_pandas()
    # survivor SET of digests is identical; which url survives may differ
    assert set(stream_df["digest"]) == set(shuffle_df["digest"])
    assert "n_copies" not in stream_df.columns


def test_corpus_cli_end_to_end(tmp_path):
    import json
    import subprocess
    import sys

    p = _pages_with_dups(tmp_path, n=30)
    out = str(tmp_path / "shards")
    r = subprocess.run(
        [sys.executable, "-m", "yomitoku_ray", "corpus", p, out, "--num-cpus", "4"],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["n_docs"] > 0 and summary["n_words"] > 0

    # --format jsonl: same survivor set, Dolma-layout shards
    out2 = str(tmp_path / "shards_jsonl")
    r2 = subprocess.run(
        [sys.executable, "-m", "yomitoku_ray", "corpus", p, out2,
         "--num-cpus", "4", "--format", "jsonl"],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        timeout=300,
    )
    assert r2.returncode == 0, r2.stderr[-2000:]
    summary2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert summary2 == summary
    import glob

    import pyarrow.parquet as pq2

    from yomitoku_ray.export.jsonl import read_jsonl

    assert glob.glob(out2 + "/*.jsonl.gz")
    jd = read_jsonl(out2).to_pandas()
    pd_digests = set(pq2.read_table(out, columns=["digest"])["digest"].to_pylist())
    assert set(jd["digest"]) == pd_digests


def test_corpus_build_lang_pushdown(ray_session, tmp_path):
    """langs filter is applied at the parquet read (row filter), so only
    allowed languages reach extraction."""
    p = _pages_with_dups(tmp_path, n=40)
    import pyarrow.parquet as pq2

    langs = set(pq2.read_table(p, columns=["lang"])["lang"].to_pylist())
    assert len(langs) > 1  # synth mixes languages
    pick = sorted(langs)[0]
    df = build_corpus(p, CorpusConfig(langs=(pick,))).to_pandas()
    assert set(df["lang"]) == {pick}
    full = build_corpus(p).to_pandas()
    assert len(df) == (full["lang"] == pick).sum()


def test_corpus_build_gated_read_honours_read_num_blocks(ray_session, tmp_path, monkeypatch):
    """The langs/url_filter build reads through the same read_pages as the
    plain one: read_num_blocks reaches the read, next to the lang filter."""
    import ray.data

    from yomitoku_ray.pipelines.extract import ExtractConfig

    seen = []
    real = ray.data.read_parquet

    def _spy(path, **kwargs):
        seen.append(kwargs)
        return real(path, **kwargs)

    monkeypatch.setattr(ray.data, "read_parquet", _spy)
    p = _pages_with_dups(tmp_path, n=10)
    cfg = CorpusConfig(extract=ExtractConfig(read_num_blocks=3), langs=("ja",), url_filter=True)
    build_corpus(p, cfg)  # lazy: builds the plan, runs nothing
    assert len(seen) == 1
    assert seen[0]["override_num_blocks"] == 3
    assert seen[0]["filter"] is not None


def test_corpus_output_feeds_packing(ray_session, tmp_path):
    """The full LLM-data chain composes: pages -> corpus_build ->
    pack_sequences over the cleaned corpus."""
    from yomitoku_ray.functions.clean import pack_sequences

    p = _pages_with_dups(tmp_path, n=40)
    corpus = build_corpus(p).to_pandas().sort_values("url").reset_index(drop=True)
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(corpus)), pa.int64()),
            "text": pa.array(corpus["text"], pa.string()),
        }
    )
    docs_dir = tmp_path / "packdir"
    docs_dir.mkdir()
    pq.write_table(docs, str(docs_dir / "documents.parquet"))
    packed = pack_sequences(str(docs_dir))
    if hasattr(packed, "to_pandas"):
        packed = packed.to_pandas()
    packed = packed.sort_values("doc_id").reset_index(drop=True)
    assert len(packed) == len(corpus)
    # offsets are a dense prefix sum of token counts
    n_tok = corpus["text"].str.split().str.len().to_numpy()
    import numpy as np

    expect = np.concatenate([[0], np.cumsum(n_tok)[:-1]])
    assert (packed["tok_offset"].to_numpy() == expect).all()


@pytest.mark.parametrize(
    "argv, want",
    [
        (["--num-cpus", "2", "corpus", "in", "out"], 2),
        (["corpus", "in", "out", "--num-cpus", "4"], 4),
        (["--num-cpus", "2", "corpus", "in", "out", "--num-cpus", "4"], 4),
        (["corpus", "in", "out"], 8),
        (["--num-cpus", "2", "extract", "in", "out"], 2),
    ],
)
def test_cli_num_cpus_reaches_ray_init(monkeypatch, argv, want):
    """The global --num-cpus is not reset by the corpus subcommand's own
    --num-cpus default."""
    from yomitoku_ray import __main__ as cli

    class _Stop(Exception):
        pass

    seen = []

    def _init_ray(num_cpus):
        seen.append(num_cpus)
        raise _Stop

    monkeypatch.setattr(cli, "_init_ray", _init_ray)
    with pytest.raises(_Stop):
        cli.main(argv)
    assert seen == [want]


def test_corpus_cli_streaming_flag(tmp_path):
    import json
    import subprocess
    import sys

    p = _pages_with_dups(tmp_path, n=30)
    out = str(tmp_path / "shards_stream")
    r = subprocess.run(
        [sys.executable, "-m", "yomitoku_ray", "corpus", p, out,
         "--num-cpus", "4", "--streaming"],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["n_docs"] > 0
    back = pq.read_table(out)
    assert "n_copies" not in back.schema.names  # streaming mode marker


def test_corpus_output_feeds_ccnet_and_nb(ray_session, tmp_path):
    """The CCNet-recipe chain composes end to end: pages -> corpus_build
    -> ccnet_perplexity head/middle/tail buckets -> nb_classifier over
    the EXTRACTED corpus (not the synth documents table)."""
    from yomitoku_ray.functions.text_stats import ccnet_perplexity, nb_classifier

    p = _pages_with_dups(tmp_path, n=50)
    corpus = build_corpus(p).to_pandas().sort_values("url").reset_index(drop=True)
    assert len(corpus) > 0
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(corpus)), pa.int64()),
            "text": pa.array(corpus["text"], pa.string()),
            "lang": pa.array(corpus["lang"], pa.string()),
            # alternate sources so a reference slice exists
            "source": pa.array(
                ["src0" if i % 3 == 0 else "src1" for i in range(len(corpus))],
                pa.string(),
            ),
        }
    )
    docs_dir = tmp_path / "ccdir"
    docs_dir.mkdir()
    pq.write_table(docs, str(docs_dir / "documents.parquet"))

    ppl = ccnet_perplexity(str(docs_dir)).to_pandas()
    assert set(ppl["ppl_bucket"].unique()) <= {0, 1, 2}
    assert len(ppl) > 0  # extracted text has >= 2 tokens per page
    # CCNet's filter: keep head+middle
    kept = ppl[ppl["ppl_bucket"] <= 1]
    assert 0 < len(kept) <= len(ppl)

    nb = nb_classifier(str(docs_dir)).to_pandas()
    assert len(nb) == len(ppl)  # same scorable-doc set (>= 1 token each)
    assert set(nb.columns) == {"doc_id", "n_tokens", "pred", "actual", "correct"}


def test_corpus_url_filter_gate(ray_session, tmp_path):
    """cfg.url_filter drops blocklisted URLs at the SOURCE (before any
    html decode); default config keeps them."""
    t = generate_pages_table(20).to_pylist()
    t[3]["url"] = "https://free-casino-spins.example.com/win"
    p = str(tmp_path / "pages.parquet")
    pq.write_table(pa.Table.from_pylist(t), p)

    plain = build_corpus(p).to_pandas()
    gated = build_corpus(p, CorpusConfig(url_filter=True)).to_pandas()
    assert "https://free-casino-spins.example.com/win" in set(plain["url"])
    assert "https://free-casino-spins.example.com/win" not in set(gated["url"])
    # nothing else is dropped by the gate on the synthetic URLs
    assert len(plain) - len(gated) == 1

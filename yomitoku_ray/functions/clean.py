"""Corpus-cleaning operators for the training-data pipeline family.

Three operators a 100 TB text-corpus run needs between extraction and
training:

- :class:`PatternScrubStage` — vectorized regex redaction (the PII-scrub
  plumbing: emails, phones, IPv4 out of the box), a ``map_batches``
  callable that compiles its patterns once, when it is built.
- :func:`gopher_repetition` — per-document repetition-quality signals in
  the spirit of the Gopher/MassiveText filters (top-word fraction,
  duplicate-bigram fraction) as exact integers, plus a keep flag.
- :func:`dedup_corpus` — the resolution step AFTER near-dup detection:
  drop every non-representative member of each duplicate component and
  roll the surviving corpus up per source, via the large-large anti-join
  shape (tag/union/coarse-bucket) — the drop set is never broadcast.

All outputs are integer-exact (no floats) so the driver's value-hash
comparison against the DuckDB oracles is bit-stable.

Reference parity: the reference engine has no corpus-cleaning layer (it
is a per-document extractor); these follow the published C4/Gopher/
MassiveText recipes re-expressed as Ray Data batch transforms.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data
from ray.data.aggregate import Sum

from ..kernels.md5_vec import md5_u64_of_ints
from .buckets import bucket_exchange
from .dedup import dup_components, shingle_hashes

# RE2-compatible patterns (no lookaround, no backreferences) so the exact
# same strings run under DuckDB's regexp_replace / regexp_extract_all for
# oracle-side verification.
PII_PATTERNS: dict[str, tuple[str, str]] = {
    "email": (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    "phone": (r"\+?[0-9][0-9()\-\s]{6,}[0-9]", "<PHONE>"),
    "ipv4": (r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b", "<IP>"),
}


class PatternScrubStage:
    """``map_batches`` callable: sequential vectorized regex redaction over
    one string column. Pass an instance, so each batch runs as a plain task.

    Patterns are compiled once in ``__init__``; ``__call__``
    applies them in insertion order to each batch with pandas ``str``
    kernels (no Python loop over rows). For every pattern ``name`` the
    batch gains an int64 ``n_<name>`` column counting the matches that
    were redacted (counted against the text as it stood when that
    pattern ran — the standard sequential-scrubber contract).

    Usage::

        ds.map_batches(PatternScrubStage(column="text"), batch_format="pandas")
    """

    def __init__(
        self,
        column: str = "text",
        patterns: dict[str, tuple[str, str]] | None = None,
        out_column: str | None = None,
    ) -> None:
        self.column = column
        self.out_column = out_column or column
        items = (patterns or PII_PATTERNS).items()
        self.compiled = [(name, re.compile(rx), repl) for name, (rx, repl) in items]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[self.column].astype(str)
        for name, rx, repl in self.compiled:
            batch[f"n_{name}"] = s.str.count(rx).astype("int64")
            s = s.str.replace(rx, repl, regex=True)
        batch[self.out_column] = s
        return batch


def props_scrub(sf_dir: str) -> pd.DataFrame:
    """Scrub integers out of ``events.props`` and roll up per event type —
    the driver-facing exercise of :class:`PatternScrubStage` (same stage,
    PII patterns swapped for one that actually matches this corpus).

    Pins BOTH scrub semantics against the SQL oracle: ``n_matches`` checks
    the match-count path (``regexp_extract_all``) and ``redacted_chars``
    checks the replacement path (length of the post-``regexp_replace``
    string). Columns: event_type, n_events, n_matches, redacted_chars.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )
    scrubbed = ds.map_batches(
        PatternScrubStage(column="props", patterns={"num": (r"[0-9]+", "<NUM>")}),
        batch_format="pandas",
    )

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        work = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "n_events": np.ones(len(df), dtype="int64"),
                "n_matches": df["n_num"].astype("int64"),
                "redacted_chars": df["props"].str.len().astype("int64"),
            }
        )
        return work.groupby("event_type", as_index=False).sum()

    out = (
        scrubbed.map_batches(_partial, batch_format="pandas")
        # plain groupby: a native aggregate calls no Python per group
        .groupby("event_type")
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("n_matches", alias_name="n_matches"),
            Sum("redacted_chars", alias_name="redacted_chars"),
        )
    )
    return out.to_pandas().sort_values("event_type").reset_index(drop=True)


def gopher_repetition(
    sf_dir: str, top_word_pct: int = 10, dup_bigram_pct: int = 50
) -> ray.data.Dataset:
    """Per-document repetition signals (Gopher/MassiveText-style quality
    filter), exact integers only.

    Per doc: n_words, n_distinct (distinct words), top_word_n (count of
    the most frequent word), n_2grams / n_distinct_2grams (consecutive
    word bigrams), and ``keep`` = 1 iff the top word is <= top_word_pct%
    of all words AND duplicate bigrams are <= dup_bigram_pct% of all
    bigrams. Tokenization matches the module convention elsewhere in this
    repo: split on runs of whitespace after trim (empty docs dropped).

    Fully vectorized: one explode per batch, pandas groupby counts —
    embarrassingly parallel per batch, no shuffle (doc stats never cross
    batch boundaries because a doc lives in one row).
    """

    def _stats(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "n_words": pd.Series([], dtype="int64"),
                "n_distinct": pd.Series([], dtype="int64"),
                "top_word_n": pd.Series([], dtype="int64"),
                "n_2grams": pd.Series([], dtype="int64"),
                "n_distinct_2grams": pd.Series([], dtype="int64"),
                "keep": pd.Series([], dtype="int64"),
            }
        )
        texts = df["text"].astype(str).str.strip()
        mask = texts.str.len() > 0
        if not mask.any():
            return empty
        texts = texts[mask]
        ids = df.loc[mask, "doc_id"].astype("int64").to_numpy()
        toks = texts.str.split()
        lens = toks.str.len().to_numpy()
        words = np.concatenate(toks.to_numpy())
        di = np.repeat(np.arange(len(ids)), lens)

        wc = (
            pd.DataFrame({"i": di, "w": words})
            .groupby(["i", "w"], sort=False)
            .size()
        )
        grp = wc.groupby(level=0)
        n_words = grp.sum()
        n_distinct = grp.size()
        top_n = grp.max()

        # consecutive bigrams: adjacent exploded positions in the same doc
        same = di[1:] == di[:-1]
        if same.any():
            left = pd.Series(words[:-1][same], dtype=str)
            right = pd.Series(words[1:][same], dtype=str)
            bg = pd.DataFrame(
                {"i": di[:-1][same], "g": left.str.cat(right, sep=" ")}
            ).groupby("i")["g"]
            n_bg = bg.size()
            n_bg_d = bg.nunique()
        else:
            n_bg = pd.Series([], dtype="int64")
            n_bg_d = pd.Series([], dtype="int64")
        idx = pd.RangeIndex(len(ids))
        n_bg = n_bg.reindex(idx, fill_value=0).to_numpy("int64")
        n_bg_d = n_bg_d.reindex(idx, fill_value=0).to_numpy("int64")

        n_words = n_words.reindex(idx, fill_value=0).to_numpy("int64")
        n_distinct = n_distinct.reindex(idx, fill_value=0).to_numpy("int64")
        top_n = top_n.reindex(idx, fill_value=0).to_numpy("int64")
        keep = (100 * top_n <= top_word_pct * n_words) & (
            100 * (n_bg - n_bg_d) <= dup_bigram_pct * n_bg
        )
        return pd.DataFrame(
            {
                "doc_id": ids,
                "n_words": n_words,
                "n_distinct": n_distinct,
                "top_word_n": top_n,
                "n_2grams": n_bg,
                "n_distinct_2grams": n_bg_d,
                "keep": keep.astype("int64"),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    # Returned as a streaming Dataset (doc_stats convention): one output row
    # per document, never collected on the driver.
    return ds.map_batches(_stats, batch_format="pandas")


_STOPWORDS = r"\b(the|a|an|and|or|of|to|in|is|it)\b"
_TOKEN_SPLIT = re.compile(r"\s+")


def contamination_check(
    sf_dir: str, sample_mod: int = 20, min_shared: int = 1
) -> ray.data.Dataset:
    """Train/eval contamination scan: which training documents share word
    3-gram shingles with the held-out eval set, and how many.

    The eval side here is the deterministic hash sample (md5(doc_id) %
    ``sample_mod`` == 0, the :func:`dedup.corpus_sample` predicate); in
    production it is a benchmark suite. Either way the eval shingle union
    is benchmark-sized, not corpus-sized, so the scale shape is a
    BROADCAST scan, not a shuffle join: one streaming pass unions the
    eval shingle ids (u64 polynomial hashes, distinct-per-batch before
    collection), the sorted array ships once via ``ray.put``, and the
    full-corpus pass counts per-doc membership with ``searchsorted`` —
    no all-to-all anywhere. Columns: doc_id, n_shared (int64), one row
    per train doc with ``n_shared >= min_shared``.
    """

    def _is_eval(ids: np.ndarray) -> np.ndarray:
        return md5_u64_of_ints(ids) % np.uint64(sample_mod) == 0

    path = f"{sf_dir}/documents.parquet"

    def _eval_shingles(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64").to_numpy()
        texts = df["text"].fillna("").to_numpy()
        keep = _is_eval(ids)
        chunks = [
            shingle_hashes(t)
            for t in texts[keep]
            if t.strip()
        ]
        sh = (
            np.unique(np.concatenate(chunks))
            if chunks
            else np.zeros(0, dtype=np.uint64)
        )
        return pd.DataFrame({"shingle": sh})

    eval_parts = (
        ray.data.read_parquet(path, columns=["doc_id", "text"])
        .map_batches(_eval_shingles, batch_format="pandas")
        .to_pandas()  # eval-shingle-union-sized (benchmark-sized), small
    )
    eval_sh = np.unique(eval_parts["shingle"].to_numpy("uint64"))
    eval_ref = ray.put(eval_sh)

    def _scan(df: pd.DataFrame) -> pd.DataFrame:
        ev = ray.get(eval_ref)
        ids = df["doc_id"].astype("int64").to_numpy()
        texts = df["text"].fillna("").to_numpy()
        train = ~_is_eval(ids)
        out_id, out_n = [], []
        for i, t in zip(ids[train], texts[train]):
            if not t.strip():
                continue
            sh = shingle_hashes(t)
            pos = np.searchsorted(ev, sh)
            pos[pos == len(ev)] = 0
            n = int((ev[pos] == sh).sum()) if len(ev) else 0
            if n >= min_shared:
                out_id.append(i)
                out_n.append(n)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(out_id, dtype="int64"),
                "n_shared": pd.Series(out_n, dtype="int64"),
            }
        )

    # Streaming Dataset out (doc_stats convention); only the benchmark-sized
    # eval shingle union above ever touches the driver.
    return ray.data.read_parquet(path, columns=["doc_id", "text"]).map_batches(
        _scan, batch_format="pandas"
    )


def pack_sequences(
    sf_dir: str, seq_len: int = 1024, bucket_shift: int = 12
) -> ray.data.Dataset:
    """GPT-style sequence packing: concatenate the corpus in doc_id order
    and chunk it into fixed ``seq_len``-token training sequences; per doc,
    report its global token offset, the sequence it starts in, and whether
    it straddles a sequence boundary.

    The global offset is a distributed PREFIX SCAN, done in the only shape
    that stays flat at 10^10 docs: (1) one streaming pass reduces each
    coarse doc_id bucket (``doc_id >> bucket_shift``) to its token sum —
    the collected state is bucket-space-sized, never corpus-sized; (2) the
    driver computes the exclusive prefix over the sorted bucket sums (a
    tiny cumsum) and broadcasts it once via ``ray.put``; (3) a second pass
    shuffles on the bucket key and resolves exact offsets with a
    vectorized within-bucket cumsum. No stage ever holds more than one
    bucket of rows. Tokenization matches :func:`text_stats.doc_stats`
    (split on whitespace runs after trim; empty text counts 1 like the
    SQL ``string_split_regex``). Columns (all int64): doc_id, n_tokens,
    tok_offset, seq_id, spans_boundary.
    """

    def _tok(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64").to_numpy()
        n = (
            df["text"]
            .fillna("")
            .str.strip()
            .str.split(_TOKEN_SPLIT)
            .map(len)
            .astype("int64")
            .to_numpy()
        )
        return pd.DataFrame(
            {"bucket": ids >> bucket_shift, "doc_id": ids, "n_tokens": n}
        )

    path = f"{sf_dir}/documents.parquet"
    bucket_sums = (
        ray.data.read_parquet(path, columns=["doc_id", "text"])
        .map_batches(_tok, batch_format="pandas")
        .map_batches(
            lambda df: df.groupby("bucket", as_index=False)["n_tokens"].sum(),
            batch_format="pandas",
        )
        # plain groupby: a native aggregate calls no Python per group
        .groupby("bucket")
        .aggregate(Sum("n_tokens", alias_name="n_tokens"))
        .to_pandas()  # bucket-space-sized
        .sort_values("bucket")
    )
    sums = bucket_sums["n_tokens"].to_numpy("int64")
    # Broadcast as two aligned numpy arrays, not a dict: plasma shares
    # numpy buffers zero-copy, so the per-group ray.get is O(1) instead
    # of re-deserializing a bucket-count-sized dict per group.
    buckets_ref = ray.put(np.ascontiguousarray(bucket_sums["bucket"].to_numpy("int64")))
    bases_ref = ray.put(np.concatenate(([0], np.cumsum(sums)[:-1])).astype("int64"))

    def _assign(g: pd.DataFrame) -> pd.DataFrame:
        buckets, bases = ray.get(buckets_ref), ray.get(bases_ref)
        base = bases[np.searchsorted(buckets, int(g["bucket"].iloc[0]))]
        g = g.sort_values("doc_id")
        n = g["n_tokens"].to_numpy("int64")
        off = base + np.concatenate(([0], np.cumsum(n)[:-1]))
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy("int64"),
                "n_tokens": n,
                "tok_offset": off,
                "seq_id": off // seq_len,
                "spans_boundary": (
                    (off + n - 1) // seq_len != off // seq_len
                ).astype("int64"),
            }
        )

    # Streaming Dataset out (doc_stats convention): the only driver-side
    # state in this op is the bucket-space-sized prefix table above. Its
    # own groupby, not bucket_exchange: _assign reads the bucket id, because
    # these buckets are ordered doc_id ranges.
    return (
        ray.data.read_parquet(path, columns=["doc_id", "text"])
        .map_batches(_tok, batch_format="pandas")
        .groupby("bucket")
        .map_groups(_assign, batch_format="pandas")
    )


def quality_topk(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Per-source stratified corpus selection: the k docs per source with
    the most natural-prose signal (stopword hits), rank attached.

    This is the distributed window-rank shape (``row_number() OVER
    (PARTITION BY source ORDER BY ...)``): a per-batch COMBINER keeps only
    each source's batch-local top-k — any global top-k doc is necessarily
    in its own batch's top-k, so the reduction is lossless — and the final
    per-source rank runs over at most k×n_batches rows per group. The
    shuffle moves k rows per (source, batch), never the corpus. Ties break
    by doc_id ascending (replicated in the SQL oracle). Columns: source,
    doc_id, n_stop, rk.
    """
    stop_rx = re.compile(_STOPWORDS)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        work = pd.DataFrame(
            {
                "source": df["source"].astype(str),
                "doc_id": df["doc_id"].astype("int64"),
                "n_stop": df["text"]
                .fillna("")
                .str.lower()
                .str.count(stop_rx)
                .astype("int64"),
            }
        )
        return (
            work.sort_values(["n_stop", "doc_id"], ascending=[False, True])
            .groupby("source", sort=False)
            .head(k)
        )

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_stop", "doc_id"], ascending=[False, True]).head(k)
        return pd.DataFrame(
            {
                "source": g["source"].astype(str).values,
                "doc_id": g["doc_id"].astype("int64").values,
                "n_stop": g["n_stop"].astype("int64").values,
                "rk": np.arange(1, len(g) + 1, dtype="int64"),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
    )
    out = (
        ds.map_batches(_partial, batch_format="pandas")
        # plain groupby: source is dimension-sized
        .groupby("source")
        .map_groups(_final, batch_format="pandas")
    )
    return (
        out.to_pandas()
        .sort_values(["source", "rk"])
        .reset_index(drop=True)
    )


def dedup_corpus(
    sf_dir: str,
    threshold: float = 0.5,
    max_bucket: int = 4096,
) -> pd.DataFrame:
    """The corpus AFTER near-dup resolution: MinHash pairs -> connected
    components -> drop every non-representative member (component id =
    min doc id = the keeper) -> per-source rollup of what survives.

    The filter is the large-large ANTI-join shape (tag both sides, union,
    one coarse hash shuffle, vectorized isin inside each bucket) — the
    drop set is pair-graph-sized but grows with corpus duplication, so it
    is shipped as a dataset through the shuffle, never broadcast to every
    task. Columns: source, n_docs, n_kept, kept_chars (all int64).
    """
    path = f"{sf_dir}/documents.parquet"
    comp = dup_components(sf_dir, threshold=threshold, max_bucket=max_bucket)
    # Non-representative members, filtered as a batch transform on the
    # streaming component Dataset — the drop set never touches the driver.
    drop_ds = comp.map_batches(
        lambda df: df.loc[df["doc_id"] != df["component"], ["doc_id"]].astype(
            "int64"
        ),
        batch_format="pandas",
    )
    docs = ray.data.read_parquet(path, columns=["doc_id", "source", "n_chars"])

    def _tag_docs(df: pd.DataFrame) -> pd.DataFrame:
        key = df["doc_id"].astype("int64").to_numpy()
        return pd.DataFrame(
            {
                "key": key,
                "side": np.zeros(len(df), dtype="int8"),
                "source": df["source"].astype(str),
                "n_chars": df["n_chars"].astype("int64"),
            }
        )

    def _tag_drop(df: pd.DataFrame) -> pd.DataFrame:
        key = df["doc_id"].astype("int64").to_numpy()
        return pd.DataFrame(
            {
                "key": key,
                "side": np.ones(len(df), dtype="int8"),
                "source": np.full(len(df), "", dtype=object),
                "n_chars": np.zeros(len(df), dtype="int64"),
            }
        )

    def _anti(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy()
        docs_g = g[side == 0]
        dropped = g.loc[side == 1, "key"].unique()
        kept = ~docs_g["key"].isin(dropped).to_numpy()
        if len(docs_g) == 0:
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype=str),
                    "n_docs": pd.Series([], dtype="int64"),
                    "n_kept": pd.Series([], dtype="int64"),
                    "kept_chars": pd.Series([], dtype="int64"),
                }
            )
        work = pd.DataFrame(
            {
                "source": docs_g["source"].astype(str),
                "n_docs": np.ones(len(docs_g), dtype="int64"),
                "n_kept": kept.astype("int64"),
                "kept_chars": np.where(kept, docs_g["n_chars"].to_numpy(), 0),
            }
        )
        return work.groupby("source", as_index=False).sum()

    both = [
        docs.map_batches(_tag_docs, batch_format="pandas"),
        drop_ds.map_batches(_tag_drop, batch_format="pandas"),
    ]
    out = (
        bucket_exchange(both, "key", _anti, size_from=path)
        # plain groupby: a native aggregate calls no Python per group
        .groupby("source")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_kept", alias_name="n_kept"),
            Sum("kept_chars", alias_name="kept_chars"),
        )
    )
    return out.to_pandas().sort_values("source").reset_index(drop=True)


def source_mix_weights(sf_dir: str) -> pd.DataFrame:
    """Temperature-scaled source sampling weights (the data-mixing step of
    LLM corpus assembly, t = 0.5 as in multilingual/CC mixes): per source,
    weight proportional to sqrt(total token count), reported as exact
    integer parts-per-million so the hash gate is bit-stable.

    Scale shape: a per-batch COMBINER shrinks each batch to one row per
    source present (sum of token counts + doc counts), one small groupby
    reduces those, and the normalization runs over the source table —
    which is dimension-sized (thousands of domains, not corpus-sized) and
    is the only thing the driver ever holds. The integer square root is
    floor(sqrt(double)): correctly-rounded IEEE sqrt on both engines, so
    Ray == DuckDB exactly.

    Columns: source, n_docs, n_tokens, weight_ppm (all int64 but source).
    """
    import ray.data
    from ray.data.aggregate import Sum

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.strip().str.split(_TOKEN_SPLIT)
        n_tokens = toks.map(lambda t: len(t) if t != [""] else 0)
        g = pd.DataFrame({"source": df["source"].astype(str), "n_tokens": n_tokens})
        agg = g.groupby("source", as_index=False).agg(
            n_docs=("n_tokens", "size"), n_tokens=("n_tokens", "sum")
        )
        agg["n_docs"] = agg["n_docs"].astype("int64")
        agg["n_tokens"] = agg["n_tokens"].astype("int64")
        return agg

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])
    out = (
        ds.map_batches(_partial, batch_format="pandas")
        # plain groupby: a native aggregate calls no Python per group
        .groupby("source")
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("n_tokens", alias_name="n_tokens"))
        .to_pandas()  # dimension-sized (one row per source)
    )
    isq = np.floor(np.sqrt(out["n_tokens"].to_numpy("int64").astype("float64"))).astype(
        "int64"
    )
    total = int(isq.sum())
    out["weight_ppm"] = pd.Series(
        [(1_000_000 * int(v)) // total if total else 0 for v in isq], dtype="int64"
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_tokens"] = out["n_tokens"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def substring_dedup_rollup(sf_dir: str, w: int = 5) -> pd.DataFrame:
    """Resolution rollup for exact substring-window dedup: per source, how
    many token positions the Lee-et-al excision pass would remove and what
    survives — the number a corpus curator actually acts on.

    Scale shape: composes the streaming :func:`dedup.dup_ngram_spans`
    Dataset with the documents' (source, token-count) side through ONE
    coarse doc-bucket exchange (tag/union/map_groups — the same large-large
    join idiom as dedup_corpus), then reduces per-bucket per-source
    partials in a dimension-sized groupby. Nothing corpus-sized ever
    reaches the driver. Columns: source, n_docs, n_tokens, n_dup_tokens,
    kept_tokens (int64).
    """
    import ray.data
    from ray.data.aggregate import Sum

    from .dedup import dup_ngram_spans

    path = f"{sf_dir}/documents.parquet"
    spans = dup_ngram_spans(sf_dir, w=w)

    def _doc_side(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        toks = df["text"].fillna("").str.strip().str.split(_TOKEN_SPLIT)
        n_tokens = toks.map(lambda t: len(t) if t != [""] else 0)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "source": df["source"].astype(str),
                "n_tokens": n_tokens.astype("int64"),
                "n_dup": np.full(len(df), -1, dtype="int64"),  # -1 = doc row
            }
        )

    def _span_side(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        return pd.DataFrame(
            {
                "doc_id": ids,
                "source": pd.Series([""] * len(df), dtype=str),
                "n_tokens": np.zeros(len(df), dtype="int64"),
                "n_dup": df["n_dup_positions"].astype("int64"),
            }
        )

    def _merge(grp: pd.DataFrame) -> pd.DataFrame:
        docs = grp[grp["n_dup"] < 0]
        dup = (
            grp[grp["n_dup"] >= 0]
            .groupby("doc_id")["n_dup"]
            .sum()
            .reindex(docs["doc_id"])
            .fillna(0)
            .to_numpy("int64")
        )
        per = pd.DataFrame(
            {
                "source": docs["source"].astype(str),
                "n_docs": np.ones(len(docs), dtype="int64"),
                "n_tokens": docs["n_tokens"].astype("int64"),
                "n_dup_tokens": dup,
            }
        )
        return per.groupby("source", as_index=False).sum()

    docs_tagged = ray.data.read_parquet(
        path, columns=["doc_id", "source", "text"]
    ).map_batches(_doc_side, batch_format="pandas")
    both = [docs_tagged, spans.map_batches(_span_side, batch_format="pandas")]
    # This join ships one row per doc — expansion ~1 over file bytes.
    out = (
        bucket_exchange(both, "doc_id", _merge, size_from=path)
        # plain groupby: a native aggregate calls no Python per group
        .groupby("source")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_tokens", alias_name="n_tokens"),
            Sum("n_dup_tokens", alias_name="n_dup_tokens"),
        )
        .to_pandas()  # dimension-sized (one row per source)
    )
    for c in ("n_docs", "n_tokens", "n_dup_tokens"):
        out[c] = out[c].astype("int64")
    out["kept_tokens"] = (out["n_tokens"] - out["n_dup_tokens"]).astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def segment_dedup(sf_dir: str, seg_words: int = 10) -> ray.data.Dataset:
    """C4-style cross-document segment dedup: split each document into
    non-overlapping ``seg_words``-word segments and drop EVERY occurrence
    of any segment whose exact text appears in more than one distinct
    document (within-document repeats alone don't disqualify a segment).
    Rebuilds the cleaned text per document.

    Scale shape (two coarse-bucketed shuffles, no broadcast — the
    segment-count table is corpus-sized):

    1. a per-batch explode splits docs into (doc_id, seg, seg_text) rows;
    2. a ``seg_text`` bucket exchange counts distinct docs per segment
       text and keeps singles;
    3. a ``doc_id`` bucket exchange meets the kept segments with one
       marker row per document (it carries the segment total and keeps
       empty docs alive) and rebuilds the text in segment order.

    Columns: doc_id, clean_text, n_kept, n_dropped (int64).
    """
    path = f"{sf_dir}/documents.parquet"
    # Segment rows ~= text bytes shuffled once — expansion ~4 over
    # compressed file bytes.
    expansion = 4.0

    def _words(df: pd.DataFrame) -> pd.Series:
        # Drop empty split tokens (leading/trailing/consecutive spaces)
        # rather than gating on ws[0]: a doc starting with a space is not
        # an empty doc, and its segments must still participate.
        return df["text"].fillna("").str.split(" ").map(lambda raw: [w for w in raw if w])

    def _segments(df: pd.DataFrame) -> pd.DataFrame:
        seg_lists = _words(df).map(
            lambda ws: [" ".join(ws[k : k + seg_words]) for k in range(0, len(ws), seg_words)]
        )
        segs = pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"), "seg_text": seg_lists}
        ).explode("seg_text")
        segs = segs[segs["seg_text"].notna()]
        return pd.DataFrame(
            {
                "side": np.zeros(len(segs), dtype="int8"),
                "doc_id": segs["doc_id"].to_numpy("int64"),
                "seg": segs.groupby("doc_id").cumcount().to_numpy("int64"),
                "seg_text": segs["seg_text"].astype(str),
            }
        )

    def _markers(df: pd.DataFrame) -> pd.DataFrame:
        n_words = _words(df).str.len().to_numpy("int64")
        return pd.DataFrame(
            {
                "side": np.ones(len(df), dtype="int8"),
                "doc_id": df["doc_id"].to_numpy("int64"),
                "seg": -(-n_words // seg_words),  # the marker carries the total
                "seg_text": np.full(len(df), "", dtype=object),
            }
        )

    def _keep_singles(segs: pd.DataFrame) -> pd.DataFrame:
        nd = segs.groupby("seg_text")["doc_id"].nunique()
        return segs[nd.reindex(segs["seg_text"]).to_numpy() == 1]

    def _rebuild(grp: pd.DataFrame) -> pd.DataFrame:
        side = grp["side"].to_numpy()
        markers = grp[side == 1]
        kept = grp[side == 0].sort_values(["doc_id", "seg"])
        joined = kept.groupby("doc_id")["seg_text"].agg(" ".join)
        n_kept = kept.groupby("doc_id").size()
        doc_ids = markers["doc_id"].to_numpy("int64")
        totals = markers.set_index("doc_id")["seg"]
        return pd.DataFrame(
            {
                "doc_id": doc_ids,
                "clean_text": joined.reindex(doc_ids).fillna("").to_numpy(dtype=object),
                "n_kept": n_kept.reindex(doc_ids).fillna(0).to_numpy("int64"),
                "n_dropped": (
                    totals.reindex(doc_ids).to_numpy("int64")
                    - n_kept.reindex(doc_ids).fillna(0).to_numpy("int64")
                ),
            }
        )

    def _read() -> ray.data.Dataset:
        return ray.data.read_parquet(path, columns=["doc_id", "text"])

    segs = _read().map_batches(_segments, batch_format="pandas")
    kept = bucket_exchange(segs, "seg_text", _keep_singles, size_from=path, expansion=expansion)
    markers = _read().map_batches(_markers, batch_format="pandas")
    return bucket_exchange(
        [kept, markers], "doc_id", _rebuild, size_from=path, expansion=expansion
    )


def corpus_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic stratified train/val/test split rollup: each doc is
    assigned by md5(doc_id) residue mod 100 (<10 test, <20 val, else
    train — reproducible across engines via the same md5-residue
    predicate as :func:`yomitoku_ray.functions.dedup.corpus_sample`),
    counted per (source, split). No shuffle of documents: per-batch
    vectorized assignment + combiner, one dimension-sized groupby.

    Columns: source, split, n_docs, n_chars (int64).
    """

    def _assign(df: pd.DataFrame) -> pd.DataFrame:
        res = md5_u64_of_ints(df["doc_id"].to_numpy("int64")) % np.uint64(100)
        split = np.where(res < 10, "test", np.where(res < 20, "val", "train"))
        work = pd.DataFrame(
            {
                "source": df["source"].astype(str),
                "split": split,
                "n_docs": np.ones(len(df), dtype="int64"),
                "n_chars": df["text"].fillna("").str.len().to_numpy("int64"),
            }
        )
        return work.groupby(["source", "split"], as_index=False).sum()

    out = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
        )
        .map_batches(_assign, batch_format="pandas")
        # plain groupby: a native aggregate calls no Python per group
        .groupby(["source", "split"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_chars", alias_name="n_chars"),
        )
        .to_pandas()  # dimension-sized: |source| x 3
    )
    for c in ("n_docs", "n_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["source", "split"]).reset_index(drop=True)

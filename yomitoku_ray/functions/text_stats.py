"""Text-analysis operators over the ``documents`` table.

Each operator is a vectorized ``map_batches`` stage; the formulas are chosen
to be expressible 1:1 in ANSI SQL (DuckDB) so the driver's oracle can
hash-verify values. All ratios use exact formulas replicated verbatim in
``__ray_entry__.oracle_sql``; counts are ints, divisions happen once at the
end in both engines (identical IEEE doubles).
"""

from __future__ import annotations

import hashlib
import re

import pandas as pd
import ray.data

from .buckets import bucket_exchange

# Marker stopwords per language for the n-gram/marker lang-id heuristic.
# Deterministic and SQL-replicable via regexp_extract_all counts.
LANG_MARKERS = {
    "en": r"\b(the|and|of|to|in)\b",
    "es": r"\b(el|la|de|que|y)\b",
    "fr": r"\b(le|la|de|et|les)\b",
    "de": r"\b(der|die|und|das|ist)\b",
}

_STOPWORDS = r"\b(the|a|an|and|or|of|to|in|is|it)\b"
_PUNCT = r"[.,;:!?]"
_TOKEN_SPLIT = re.compile(r"\s+")


def _doc_stats_batch(df: pd.DataFrame) -> pd.DataFrame:
    text = df["text"].fillna("")
    toks = text.str.strip().str.split(_TOKEN_SPLIT)
    n_tokens = toks.map(len)
    no_space = text.str.replace(" ", "", regex=False)
    out = pd.DataFrame(
        {
            "doc_id": df["doc_id"],
            "n_tokens": n_tokens.astype("int64"),
            "n_chars_nospace": no_space.str.len().astype("int64"),
            "fingerprint": [
                hashlib.md5(t.encode("utf-8")).hexdigest() for t in text
            ],
        }
    )
    return out


def doc_stats(sf_dir: str) -> ray.data.Dataset:
    """Token counts + md5 fingerprint per document.

    The fingerprint doubles as the exact-dedup key (D-ops) and as the
    SURVEY §2 'document fingerprinting' function.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(_doc_stats_batch, batch_format="pandas")


def _quality_batch(df: pd.DataFrame) -> pd.DataFrame:
    text = df["text"].fillna("")
    lower = text.str.lower()
    n_tokens = text.str.strip().str.split(_TOKEN_SPLIT).map(len).astype("int64")
    n_chars = text.str.len().astype("int64")
    n_stop = lower.str.count(_STOPWORDS).astype("int64")
    n_punct = text.str.count(_PUNCT).astype("int64")
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"],
            "n_tokens": n_tokens,
            "n_stop": n_stop,
            "n_punct": n_punct,
            # single final divisions: identical IEEE doubles in DuckDB
            "stop_ratio": n_stop / n_tokens,
            "punct_per_char": n_punct / n_chars,
        }
    )


def quality_score(sf_dir: str) -> ray.data.Dataset:
    """Length/punct/stopword quality features per document."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(_quality_batch, batch_format="pandas")


def _lang_id_batch(df: pd.DataFrame) -> pd.DataFrame:
    lower = df["text"].fillna("").str.lower()
    scores = {
        lang: lower.str.count(pat).astype("int64")
        for lang, pat in LANG_MARKERS.items()
    }
    langs = list(LANG_MARKERS)
    score_df = pd.DataFrame(scores)
    # argmax with deterministic tiebreak: first language (dict order) wins;
    # all-zero -> 'und'.
    best = score_df[langs].idxmax(axis=1)
    allzero = score_df[langs].max(axis=1) == 0
    best[allzero] = "und"
    return pd.DataFrame({"doc_id": df["doc_id"], "pred_lang": best.values})


def lang_id(sf_dir: str) -> ray.data.Dataset:
    """Marker-word language-ID heuristic (SURVEY: text analysis ops)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(_lang_id_batch, batch_format="pandas")


def corpus_prep(
    sf_dir: str, min_tokens: int = 40, max_tokens: int = 120
) -> ray.data.Dataset:
    """Composed training-data prep: quality gate -> lang-id -> exact dedup.

    The flagship composition over ``documents``: one streaming pass computes
    tokens/fingerprint/lang (all vectorized), a length gate filters, then a
    fingerprint-keyed :func:`~.buckets.bucket_exchange` keeps the first (min
    doc_id) copy per content fingerprint. Columns: fingerprint, keep_doc_id,
    pred_lang, n_tokens.
    """
    import hashlib

    path = f"{sf_dir}/documents.parquet"
    ds = ray.data.read_parquet(path, columns=["doc_id", "text"])

    def _features(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].fillna("")
        n_tokens = text.str.strip().str.split(_TOKEN_SPLIT).map(len).astype("int64")
        keep = (n_tokens >= min_tokens) & (n_tokens <= max_tokens)
        df = df[keep]
        text = text[keep]
        n_tokens = n_tokens[keep]
        lang = _lang_id_batch(df)["pred_lang"].values
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].values,
                "fingerprint": [
                    hashlib.md5(t.encode("utf-8")).hexdigest() for t in text
                ],
                "pred_lang": lang,
                "n_tokens": n_tokens.values,
            }
        )

    feats = ds.map_batches(_features, batch_format="pandas")

    def _first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["fingerprint", "doc_id"]).drop_duplicates("fingerprint")
        return pd.DataFrame(
            {
                "fingerprint": g["fingerprint"].values,
                "keep_doc_id": g["doc_id"].astype("int64").values,
                "pred_lang": g["pred_lang"].values,
                "n_tokens": g["n_tokens"].astype("int64").values,
            }
        )

    return bucket_exchange(feats, "fingerprint", _first, size_from=path)


# ---------------------------------------------------------------------------
# BPE-ish subtoken counting + winnowing fingerprints
# ---------------------------------------------------------------------------

# BPE-style pre-tokenization classes (letter runs / digit runs / punctuation
# runs — the GPT-2 pre-tokenizer's shape restricted to classes both Python
# re and DuckDB's RE2 express identically; alternatives match disjoint
# character sets, so leftmost-first vs leftmost-longest cannot diverge).
BPE_TOKEN_REGEX = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+"
_BPE_RE = re.compile(BPE_TOKEN_REGEX)


def token_count_bpe(sf_dir: str) -> ray.data.Dataset:
    """Subword token counts per doc: whitespace tokens, BPE pre-token runs,
    and GENUINE post-merge BPE subtokens (the shipped 80-merge table from
    :mod:`.bpe`, reference merge loop cached per unique word). All three
    counts are SQL-replicated by the oracle — the merge table is a
    pretrained constant replayed by a recursive lowest-rank-first CTE."""

    def _batch(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        from .bpe import _BPE_RE, bpe_token_counts

        text = df["text"].fillna("")
        toks = text.map(_BPE_RE.findall)
        lens = toks.map(len).to_numpy("int64")
        n_sub = np.zeros(len(df), dtype=np.int64)
        if lens.sum():
            words = np.concatenate([np.asarray(t, dtype=object) for t in toks if t])
            di = np.repeat(np.arange(len(df)), lens)
            uniq, inv = np.unique(words.astype(str), return_inverse=True)
            per_word = bpe_token_counts(pd.Series(uniq))
            np.add.at(n_sub, di, per_word[inv])
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_ws_tokens": text.str.strip().str.split(_TOKEN_SPLIT).map(
                    lambda t: len(t) if t != [""] else 0
                ).astype("int64"),
                "n_bpe_tokens": lens,
                "n_bpe_subtokens": n_sub,
            }
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(_batch, batch_format="pandas")


_WINNOW_MOD = (1 << 61) - 1


def winnow_fingerprints(sf_dir: str, w: int = 4) -> ray.data.Dataset:
    """Winnowing document fingerprints (rolling window-minimum over stable
    token hashes — the MOSS scheme's selection rule).

    Token hashes are md5_number_upper-compatible, so DuckDB recomputes the
    identical fingerprint set; output per doc is (n_fp, fp_checksum) with
    the checksum an exact integer (sum of distinct minima mod 2^61-1).
    Docs shorter than the window collapse to one whole-doc window.
    """
    import numpy as np

    from .dedup import _batch_token_codes

    def _batch(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].fillna("").tolist()
        uh, codes, counts = _batch_token_codes(texts)
        H = uh[codes] if len(codes) else np.zeros(0, dtype=np.uint64)
        ends = np.cumsum(counts)
        starts = ends - counts
        doc_ids, n_fps, checks = [], [], []
        for i in range(len(texts)):
            h = H[starts[i] : ends[i]]
            if len(h) == 0:
                continue  # empty docs have no fingerprint row (SQL WHERE)
            if len(h) < w:
                mins = np.array([h.min()], dtype=np.uint64)
            else:
                stack = np.stack([h[j : len(h) - w + 1 + j] for j in range(w)])
                mins = stack.min(axis=0)
            fps = np.unique(mins)
            doc_ids.append(int(df["doc_id"].iloc[i]))
            n_fps.append(len(fps))
            checks.append(int(sum(int(v) for v in fps) % _WINNOW_MOD))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(doc_ids, dtype="int64"),
                "n_fp": pd.Series(n_fps, dtype="int64"),
                "fp_checksum": pd.Series(checks, dtype="int64"),
            }
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(_batch, batch_format="pandas")


# ---------------------------------------------------------------------------
# Corpus-level rollups: heavy hitters + exact distributed percentiles
# ---------------------------------------------------------------------------


def top_terms(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Top-k most frequent whitespace tokens over the corpus.

    The scale shape for heavy hitters: a vectorized per-batch value_counts
    COMBINER shrinks each batch to its distinct terms before the only
    shuffle — a coarse-bucket reduce (a fine-key term groupby pays Ray's
    ~200 fixed reduce partitions: 43.8 -> 7.4 s on the 200k-doc probe);
    the final top-k sort runs on the aggregated (vocabulary-sized) table.
    Ties break by term ascending — replicated exactly in the SQL oracle.
    """
    import ray.data

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.strip().str.split(_TOKEN_SPLIT).explode()
        toks = toks[toks != ""]
        vc = toks.value_counts()
        return pd.DataFrame(
            {"term": vc.index.astype(str), "n": vc.values.astype("int64")}
        )

    def _reduce(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("term", as_index=False)["n"].sum()

    path = f"{sf_dir}/documents.parquet"
    ds = ray.data.read_parquet(path, columns=["text"])
    out = bucket_exchange(
        ds.map_batches(_partial, batch_format="pandas"), "term", _reduce, size_from=path
    ).to_pandas()  # vocabulary-sized
    if len(out) == 0:  # empty corpus: column-less frame
        out = pd.DataFrame(columns=["term", "n"])
    out["n"] = out["n"].astype("int64")
    return (
        out.sort_values(["n", "term"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def doc_length_percentiles(sf_dir: str) -> pd.DataFrame:
    """Exact corpus percentiles of doc token counts via a pre-aggregated
    value histogram.

    Scale shape: token counts are small integers, so each batch combines to
    (n_tokens, count) rows; one tiny groupby sums the histogram and the
    exact cumulation runs over the value space (bounded), never the corpus.
    Percentile definition (replicated verbatim in SQL): smallest value v
    whose cumulative count >= ceil(p/100 * n_total) — classic type-1.
    Output: (pct, n_tokens).
    """
    import numpy as np
    import ray.data
    from ray.data.aggregate import Sum

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].fillna("")
        n_tokens = text.str.strip().str.split(_TOKEN_SPLIT).map(
            lambda t: len(t) if t != [""] else 0
        )
        vc = n_tokens.value_counts()
        return pd.DataFrame(
            {"n_tokens": vc.index.astype("int64"), "cnt": vc.values.astype("int64")}
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    hist = (
        ds.map_batches(_partial, batch_format="pandas")
        # plain groupby: a native aggregate calls no Python per group
        .groupby("n_tokens")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # value-space-sized, not corpus-sized
        .sort_values("n_tokens")
        .reset_index(drop=True)
    )
    total = int(hist["cnt"].sum())
    cum = hist["cnt"].cumsum().to_numpy()
    values = hist["n_tokens"].to_numpy()
    pcts = [10, 25, 50, 75, 90, 99]
    out_v = []
    for p in pcts:
        rank = -(-p * total // 100)  # ceil(p*n/100) in int arithmetic
        out_v.append(int(values[int(np.searchsorted(cum, rank))]))
    return pd.DataFrame(
        {"pct": pd.Series(pcts, dtype="int64"), "n_tokens": pd.Series(out_v, dtype="int64")}
    )


def distinctive_terms(sf_dir: str, top_k: int = 5) -> pd.DataFrame:
    """Per-source most-distinctive terms: rank each source's vocabulary by
    how few OTHER sources use the term (document frequency ascending, then
    count descending, then term) and keep the top-k.

    The group-wise-top-k composition at corpus scale, in three bounded
    steps: (1) a per-batch (source, term) value_counts combiner shrinks the
    explode before any shuffle; (2) a term bucket exchange co-locates
    each term's rows, summing counts and attaching the term's source-df
    vectorized inside the bucket; (3) a source bucket exchange runs the
    per-source top-k on the (vocabulary x source)-sized candidate table —
    the driver only ever sees k rows per source. Integer-exact ordering so
    DuckDB hashes identically. Columns: source, term, cnt, df, rank.
    """
    import ray.data

    # Pre-aggregated (source, term) rows: ~vocab-sized per batch.
    path = f"{sf_dir}/documents.parquet"

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        work = pd.DataFrame(
            {
                "source": df["source"],
                "term": df["text"].fillna("").str.strip().str.split(_TOKEN_SPLIT),
            }
        ).explode("term")
        work = work[work["term"].notna() & (work["term"] != "")]
        out = work.groupby(["source", "term"], as_index=False).size()
        return pd.DataFrame(
            {
                "source": out["source"].astype(str),
                "term": out["term"].astype(str),
                "cnt": out["size"].astype("int64"),
            }
        )

    def _attach_df(g: pd.DataFrame) -> pd.DataFrame:
        """Per term bucket: final (source, term) counts + each term's df."""
        agg = g.groupby(["source", "term"], as_index=False).agg(cnt=("cnt", "sum"))
        df_per_term = agg.groupby("term")["source"].nunique()
        return pd.DataFrame(
            {
                "source": agg["source"].astype(str),
                "term": agg["term"].astype(str),
                "cnt": agg["cnt"].astype("int64"),
                "df": agg["term"].map(df_per_term).astype("int64"),
            }
        )

    def _topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["source", "df", "cnt", "term"], ascending=[True, True, False, True]
        ).copy()
        g["rank"] = g.groupby("source").cumcount() + 1
        out = g[g["rank"] <= top_k]
        return pd.DataFrame(
            {
                "source": out["source"].astype(str),
                "term": out["term"].astype(str),
                "cnt": out["cnt"].astype("int64"),
                "df": out["df"].astype("int64"),
                "rank": out["rank"].astype("int64"),
            }
        )

    ds = ray.data.read_parquet(path, columns=["source", "text"])
    per_term = bucket_exchange(
        ds.map_batches(_partial, batch_format="pandas"), "term", _attach_df, size_from=path
    )
    out = bucket_exchange(per_term, "source", _topk, size_from=path).to_pandas()
    if len(out) == 0:
        return pd.DataFrame(
            {"source": [], "term": [], "cnt": [], "df": [], "rank": []}
        ).astype({"source": str, "term": str, "cnt": "int64", "df": "int64", "rank": "int64"})
    return out.sort_values(["source", "rank"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Bigram-LM coverage (CCNet-style quality filtering, integer-exact)
# ---------------------------------------------------------------------------


def bigram_coverage(sf_dir: str, min_count: int = 5) -> ray.data.Dataset:
    """Per-document common-bigram coverage against a corpus bigram table —
    the integer-exact core of CCNet/KenLM-style perplexity filtering
    (documents whose word bigrams rarely occur in the corpus LM are noise).

    Scale shape (no broadcast anywhere — the bigram table is CORPUS-sized,
    so the doc side joins it through a SHUFFLE, not a ray.put):

    1. one pass builds partial bigram counts per batch; a groupby over a
       coarse hash of the bigram reduces them (bigram-space is zipfian
       and pre-aggregated per batch, so the shuffle moves far fewer rows
       than the corpus has tokens);
    2. each document's bigrams (distinct-per-doc, with multiplicity kept
       as n_bigrams) tag/union with the count table on the same coarse
       key; one vectorized merge per bucket attaches corpus counts;
    3. a per-doc groupby sums the flags.

    Columns: doc_id, n_bigrams (token bigrams incl. repeats), n_common
    (bigram occurrences whose corpus count >= ``min_count``), all int64.
    Empty/one-word docs report zeros.
    """
    import numpy as np

    path = f"{sf_dir}/documents.parquet"
    # Bigram occurrence rows ~ one per token — expansion ~16 over file bytes.
    expansion = 16.0

    def _doc_bigrams(df: pd.DataFrame):
        """Vectorized (doc_index, bigram) explode: one concatenate + one
        adjacency mask per batch (the gopher_repetition shape)."""
        toks = df["text"].fillna("").str.strip().str.split()
        lens = toks.map(len).to_numpy("int64")
        if lens.sum() == 0:
            return np.zeros(0, dtype="int64"), pd.Series([], dtype=str)
        words = np.concatenate([np.asarray(t, dtype=object) for t in toks if t])
        di = np.repeat(np.arange(len(df)), lens)
        same = di[1:] == di[:-1]
        left = pd.Series(words[:-1][same], dtype=str)
        right = pd.Series(words[1:][same], dtype=str)
        return di[:-1][same], left.str.cat(right, sep=" ")

    def _count_partial(df: pd.DataFrame) -> pd.DataFrame:
        """Per-batch partial bigram counts, exchanged on the same ``g`` key
        as the doc rows — the count REDUCTION happens inside the join's
        bucket (one wide op, not two)."""
        _, g = _doc_bigrams(df)
        vc = g.value_counts()
        return pd.DataFrame(
            {
                "side": np.ones(len(vc), dtype="int8"),
                "g": vc.index.astype(str),
                "doc_id": np.zeros(len(vc), dtype="int64"),
                "mult": vc.to_numpy(dtype="int64"),  # partial corpus count
            }
        )

    def _tag_docs(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64").to_numpy()
        di, g = _doc_bigrams(df)
        per = (
            pd.DataFrame({"doc_id": ids[di], "g": g.to_numpy()})
            .groupby(["doc_id", "g"], sort=False)
            .size()
            .reset_index(name="mult")
        )
        return pd.DataFrame(
            {
                "side": np.zeros(len(per), dtype="int8"),
                "g": per["g"].astype(str),
                "doc_id": per["doc_id"].astype("int64"),
                "mult": per["mult"].astype("int64"),  # per-doc multiplicity
            }
        )

    def _join(grp: pd.DataFrame) -> pd.DataFrame:
        side = grp["side"].to_numpy()
        table = (
            grp[side == 1][["g", "mult"]]
            .groupby("g", as_index=False)
            .sum()  # reduce the per-batch count partials for this bucket
            .rename(columns={"mult": "cnt"})
        )
        docs = grp[side == 0]
        if len(docs) == 0:
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "n_bigrams": pd.Series([], dtype="int64"),
                 "n_common": pd.Series([], dtype="int64")}
            )
        m = docs.merge(table, on="g", how="left")
        m["cnt"] = m["cnt"].fillna(0)
        common = np.where(m["cnt"].to_numpy() >= min_count, m["mult"].to_numpy(), 0)
        work = pd.DataFrame(
            {
                "doc_id": m["doc_id"].astype("int64"),
                "n_bigrams": m["mult"].astype("int64"),
                "n_common": pd.Series(common, dtype="int64"),
            }
        )
        return work.groupby("doc_id", as_index=False).sum()

    docs_tagged = ray.data.read_parquet(path, columns=["doc_id", "text"]).map_batches(
        _tag_docs, batch_format="pandas"
    )
    count_partials = ray.data.read_parquet(path, columns=["text"]).map_batches(
        _count_partial, batch_format="pandas"
    )
    joined = bucket_exchange(
        [count_partials, docs_tagged], "g", _join, size_from=path, expansion=expansion
    )

    # Per-doc rollup: zero rows for ALL docs (so empty/one-word documents
    # report zeros) union'ed with the per-bucket partials, reduced in a
    # second bucket exchange — two wide ops total.
    def _zero_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_bigrams": np.zeros(len(df), dtype="int64"),
                "n_common": np.zeros(len(df), dtype="int64"),
            }
        )

    all_docs = ray.data.read_parquet(path, columns=["doc_id"]).map_batches(
        _zero_rows, batch_format="pandas"
    )
    return bucket_exchange(
        [all_docs, joined],
        "doc_id",
        lambda g: g.groupby("doc_id", as_index=False)[["n_bigrams", "n_common"]].sum(),
        size_from=path,
        expansion=expansion,
    )


def term_cooccurrence(sf_dir: str, window: int = 5, k: int = 20) -> pd.DataFrame:
    """Top-k co-occurring term pairs: unordered token pairs at distance
    1..``window``-1 within a document, counted corpus-wide (the raw-count
    core of PMI / word-vector co-occurrence builds, integers only so the
    hash gate is bit-stable).

    Scale shape: the pair explode is vectorized per batch (one shifted
    compare per distance, no Python row loop) and immediately COMBINED to
    per-batch pair counts, so the single shuffle moves vocabulary²-bounded
    rows, not token-count rows. The reduce is a pair-keyed
    :func:`~.buckets.bucket_exchange` rather than a fine-key native
    aggregate — Ray's aggregate pays ~200 fixed reduce partitions (the
    bigram_coverage diagnosis); a pair lives in exactly one bucket, so
    per-bucket top-k composes losslessly into the global top-k over a
    k×buckets-bounded driver table (the floor bucket count: the exchange
    is sized from no files). Ties break (count desc,
    wa asc, wb asc), replicated in the SQL oracle via least()/greatest()
    + the same ORDER BY.
    """
    import numpy as np
    import ray.data

    sep = "\x1f"

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.strip().str.split()
        lens = toks.map(len).to_numpy("int64")
        total = int(lens.sum())
        if total < 2:
            return pd.DataFrame(
                {"pair": pd.Series([], dtype=str), "n": pd.Series([], dtype="int64")}
            )
        words = np.concatenate([np.asarray(t, dtype=object) for t in toks if t])
        di = np.repeat(np.arange(len(df)), lens)
        parts = []
        for d in range(1, window):
            if d >= total:
                break
            same = di[:-d] == di[d:]
            a = words[:-d][same]
            b = words[d:][same]
            if len(a) == 0:
                continue
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            parts.append(
                pd.Series(lo, dtype=str).str.cat(pd.Series(hi, dtype=str), sep=sep)
            )
        if not parts:
            return pd.DataFrame(
                {"pair": pd.Series([], dtype=str), "n": pd.Series([], dtype="int64")}
            )
        vc = pd.concat(parts, ignore_index=True).value_counts()
        return pd.DataFrame({"pair": vc.index.astype(str), "n": vc.to_numpy(dtype="int64")})

    def _bucket_topk(grp: pd.DataFrame) -> pd.DataFrame:
        agg = grp.groupby("pair", as_index=False)["n"].sum()
        split = agg["pair"].str.split(sep, n=1, expand=True)
        agg["wa"] = split[0].astype(str)
        agg["wb"] = split[1].astype(str)
        agg["n"] = agg["n"].astype("int64")
        return (
            agg.sort_values(["n", "wa", "wb"], ascending=[False, True, True])
            .head(k)[["wa", "wb", "n"]]
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    per_bucket = bucket_exchange(
        ds.map_batches(_partial, batch_format="pandas"), "pair", _bucket_topk
    ).to_pandas()  # k × n_buckets rows, driver-safe by construction
    return (
        per_bucket.sort_values(["n", "wa", "wb"], ascending=[False, True, True])
        .head(k)
        .reset_index(drop=True)
    )


def source_length_percentiles(sf_dir: str) -> pd.DataFrame:
    """Per-SOURCE exact token-length percentiles — the grouped-percentile
    shape of :func:`doc_length_percentiles` (same type-1 definition:
    smallest value whose cumulative count >= ceil(p/100 * n), replicated
    verbatim in SQL).

    Scale shape: token counts are small integers, so each batch combines
    to (source, n_tokens, count) histogram rows; ONE small source-keyed
    :func:`~.buckets.bucket_exchange` reduces the histograms, and the
    exact cumulation runs over each source's value space (bounded), never
    its documents. The driver sees |sources| x |percentiles| rows.
    Columns: source, pct, n_tokens (int64).
    """
    import numpy as np
    import ray.data

    pcts = [10, 25, 50, 75, 90, 99]

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].fillna("")
        n_tokens = text.str.strip().str.split(_TOKEN_SPLIT).map(
            lambda t: len(t) if t != [""] else 0
        )
        out = (
            pd.DataFrame({"source": df["source"].astype(str), "n_tokens": n_tokens})
            .groupby(["source", "n_tokens"], as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
        )
        out["n_tokens"] = out["n_tokens"].astype("int64")
        out["cnt"] = out["cnt"].astype("int64")
        return out

    def _pcts(grp: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for source, sub in grp.groupby("source", sort=False):
            hist = (
                sub.groupby("n_tokens", as_index=False)["cnt"].sum().sort_values("n_tokens")
            )
            total = int(hist["cnt"].sum())
            cum = hist["cnt"].cumsum().to_numpy()
            values = hist["n_tokens"].to_numpy()
            for p in pcts:
                rank = -(-p * total // 100)  # ceil(p*n/100)
                rows.append(
                    (str(source), p, int(values[int(np.searchsorted(cum, rank))]))
                )
        return pd.DataFrame(rows, columns=["source", "pct", "n_tokens"]).astype(
            {"pct": "int64", "n_tokens": "int64"}
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])
    out = bucket_exchange(
        ds.map_batches(_partial, batch_format="pandas"), "source", _pcts
    ).to_pandas()  # |sources| x |pcts| rows
    return out.sort_values(["source", "pct"]).reset_index(drop=True)


def tfidf_top_terms(sf_dir: str) -> ray.data.Dataset:
    """Per-document keyword extraction: the term maximizing tf/df (term
    frequency over corpus document frequency — tf-idf's ordering without
    the log, so both engines compare identical IEEE doubles; ties break by
    term ascending).

    Scale shape (two coarse-bucketed shuffles, mirroring
    :func:`bigram_coverage` — the df table is CORPUS-VOCABULARY-sized so
    it joins through a shuffle, never a broadcast):

    1. per-batch combiner emits per-(doc, term) tf rows plus per-batch
       partial dfs (distinct docs per term in the batch);
    2. a term bucket exchange sums the dfs and attaches them to the
       tf rows with one vectorized merge;
    3. a doc_id bucket exchange takes each doc's argmax by
       (tf/df desc, term asc).

    Columns: doc_id, term, tf, df (int64 counts). Empty docs emit no row.
    """
    import numpy as np
    import ray.data

    # Per-(doc, term) tf rows ~ token-count-bounded — expansion ~8.
    path = f"{sf_dir}/documents.parquet"
    expansion = 8.0

    def _tag(df: pd.DataFrame) -> pd.DataFrame:
        work = pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "term": df["text"].fillna("").str.strip().str.split(_TOKEN_SPLIT),
            }
        ).explode("term")
        work = work[work["term"].notna() & (work["term"] != "")]
        tf = work.groupby(["doc_id", "term"], as_index=False).size()
        tf_rows = pd.DataFrame(
            {
                "side": np.zeros(len(tf), dtype="int8"),
                "term": tf["term"].astype(str),
                "doc_id": tf["doc_id"].astype("int64"),
                "n": tf["size"].astype("int64"),  # tf
            }
        )
        pdf = tf.groupby("term", as_index=False).size()  # distinct docs per term
        df_rows = pd.DataFrame(
            {
                "side": np.ones(len(pdf), dtype="int8"),
                "term": pdf["term"].astype(str),
                "doc_id": np.zeros(len(pdf), dtype="int64"),
                "n": pdf["size"].astype("int64"),  # partial df
            }
        )
        return pd.concat([tf_rows, df_rows], ignore_index=True)

    def _attach_df(grp: pd.DataFrame) -> pd.DataFrame:
        side = grp["side"].to_numpy()
        dfs = grp[side == 1].groupby("term")["n"].sum()
        tf = grp[side == 0]
        if len(tf) == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "term": pd.Series([], dtype=str),
                    "tf": pd.Series([], dtype="int64"),
                    "df": pd.Series([], dtype="int64"),
                }
            )
        attached = dfs.reindex(tf["term"]).to_numpy("int64")
        return pd.DataFrame(
            {
                "doc_id": tf["doc_id"].astype("int64"),
                "term": tf["term"].astype(str),
                "tf": tf["n"].astype("int64"),
                "df": pd.Series(attached, index=tf.index, dtype="int64"),
            }
        )

    def _argmax(grp: pd.DataFrame) -> pd.DataFrame:
        g = grp.copy()
        g["score"] = g["tf"].to_numpy("float64") / g["df"].to_numpy("float64")
        g = g.sort_values(["doc_id", "score", "term"], ascending=[True, False, True])
        best = g.groupby("doc_id", as_index=False).head(1)
        return best[["doc_id", "term", "tf", "df"]].reset_index(drop=True)

    ds = ray.data.read_parquet(path, columns=["doc_id", "text"])
    attached = bucket_exchange(
        ds.map_batches(_tag, batch_format="pandas"),
        "term",
        _attach_df,
        size_from=path,
        expansion=expansion,
    )
    return bucket_exchange(attached, "doc_id", _argmax, size_from=path, expansion=expansion)


# ---------------------------------------------------------------------------
# DSIR: Data Selection via Importance Resampling (Xie et al. 2023)
# ---------------------------------------------------------------------------


def _dsir_feature_occ(texts: list, bigrams: bool):
    """Hashed feature occurrences per document: unigrams, plus word
    bigrams (``left + ' ' + right``, the shingle idiom) when ``bigrams``.

    Returns (occ_hash u64[F], feat_doc_idx int64[F], n_tokens int64[D],
    n_feats int64[D]). Hashes are md5_number_upper-parity; each unique
    feature in the batch hashes once.
    """
    import itertools

    import numpy as np

    from .dedup import _md5_u64

    toks_per_doc = [(t or "").split() for t in texts]
    counts = np.fromiter(
        (len(t) for t in toks_per_doc), dtype=np.int64, count=len(texts)
    )
    words = np.array(
        list(itertools.chain.from_iterable(toks_per_doc)), dtype=object
    )
    if len(words) == 0:
        z = np.zeros(0, dtype=np.int64)
        return np.zeros(0, dtype=np.uint64), z, counts, counts.copy()
    di = np.repeat(np.arange(len(texts)), counts)
    feats, fdi = words, di
    if bigrams:
        same = di[1:] == di[:-1]
        big = (
            pd.Series(words[:-1][same], dtype=object)
            .str.cat(pd.Series(words[1:][same], dtype=object), sep=" ")
            .to_numpy(dtype=object)
        )
        feats = np.concatenate([words, big])
        fdi = np.concatenate([di, di[:-1][same]])
    codes, uniq = pd.factorize(feats)
    uh = np.fromiter((_md5_u64(u) for u in uniq), dtype=np.uint64, count=len(uniq))
    n_feats = np.bincount(fdi, minlength=len(texts)).astype(np.int64)
    return uh[codes], fdi.astype(np.int64), counts, n_feats


def dsir_weights(
    sf_dir: str,
    n_buckets: int = 1024,
    target_lang: str = "en",
    scale: int = 1_000_000,
    bigrams: bool = False,
) -> ray.data.Dataset:
    """DSIR importance weights over hashed n-gram bag-of-words models
    (unigrams by default; ``bigrams=True`` adds word bigrams — the
    paper's hashed uni+bigram feature set).

    The target distribution is the ``target_lang`` slice of the corpus (the
    stand-in for a high-quality reference set); the raw distribution is the
    whole corpus. Each token hashes into one of ``n_buckets`` buckets
    (md5_number_upper parity, the :func:`winnow_fingerprints` idiom); both
    models are add-one-smoothed bucket unigram distributions, and a
    document's importance weight is sum_b c_b * (ln p_b - ln q_b).

    Scale shape (two streaming passes, no corpus-sized driver state):

    1. per-batch partial (bucket, target_cnt, raw_cnt) rows — pre-aggregated
       per batch, so the reduce shuffle moves O(batches x nonzero buckets)
       rows, never tokens — reduced through a bucket-key groupby to exactly
       ``n_buckets`` rows of driver state;
    2. the per-bucket log-ratios are frozen to INTEGER fixed-point
       ``s_b = floor(scale * (ln p_b - ln q_b))`` (the pagerank posture:
       only B floats ever cross the float seam, each verified far from its
       floor boundary; document sums are then order-independent integer
       arithmetic, bit-identical to any SQL evaluation order) and broadcast
       via ``ray.put``;
    3. a second pass scores each document vectorized (int64 scatter-add
       over occurrence buckets).

    Columns: doc_id, n_tokens (unigram mode) or n_feats (bigram mode),
    weight_scaled (all int64). Documents whose trimmed text is empty emit
    no row (SQL WHERE parity).
    """
    import numpy as np

    path = f"{sf_dir}/documents.parquet"
    B = int(n_buckets)
    n_col = "n_feats" if bigrams else "n_tokens"

    def _partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        occ_h, fdi, _counts, _ = _dsir_feature_occ(
            df["text"].fillna("").tolist(), bigrams
        )
        if len(occ_h) == 0:
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "t_cnt": pd.Series([], dtype="int64"),
                    "r_cnt": pd.Series([], dtype="int64"),
                }
            )
        occ_b = (occ_h % np.uint64(B)).astype(np.int64)
        is_target = (df["lang"].fillna("") == target_lang).to_numpy()[fdi]
        r = np.bincount(occ_b, minlength=B)
        t = np.bincount(occ_b[is_target], minlength=B)
        nz = np.nonzero(r)[0]
        return pd.DataFrame(
            {
                "bucket": nz.astype(np.int64),
                "t_cnt": t[nz].astype(np.int64),
                "r_cnt": r[nz].astype(np.int64),
            }
        )

    from ray.data.aggregate import Sum

    cnt = (
        ray.data.read_parquet(path, columns=["text", "lang"])
        .map_batches(_partial_counts, batch_format="pandas")
        # plain groupby: a native aggregate calls no Python per group
        .groupby("bucket")
        .aggregate(Sum("t_cnt", alias_name="t"), Sum("r_cnt", alias_name="r"))
        .to_pandas()  # <= n_buckets rows — the ONLY driver-side state
    )
    t_cnt = np.zeros(B, dtype=np.int64)
    r_cnt = np.zeros(B, dtype=np.int64)
    if len(cnt):  # an all-empty corpus aggregates to a column-less frame
        t_cnt[cnt["bucket"].to_numpy("int64")] = cnt["t"].to_numpy("int64")
        r_cnt[cnt["bucket"].to_numpy("int64")] = cnt["r"].to_numpy("int64")
    T = int(t_cnt.sum())
    R = int(r_cnt.sum())
    # Integer fixed-point per-bucket scores: the only float -> int seam.
    s = np.floor(
        scale * (np.log((t_cnt + 1.0) / (T + B)) - np.log((r_cnt + 1.0) / (R + B)))
    ).astype(np.int64)
    ref = ray.put(s)

    def _score(df: pd.DataFrame) -> pd.DataFrame:
        s = ray.get(ref)
        occ_h, fdi, counts, n_feats = _dsir_feature_occ(
            df["text"].fillna("").tolist(), bigrams
        )
        keep = counts > 0
        if len(occ_h) == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    n_col: pd.Series([], dtype="int64"),
                    "weight_scaled": pd.Series([], dtype="int64"),
                }
            )
        occ_b = (occ_h % np.uint64(B)).astype(np.int64)
        # int64 accumulation end-to-end: exact at any token count (a
        # float-weighted bincount is only integer-exact below 2^53)
        w = np.zeros(len(df), dtype=np.int64)
        np.add.at(w, fdi, s[occ_b])
        n_out = n_feats if bigrams else counts
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy("int64")[keep],
                n_col: n_out[keep].astype(np.int64),
                "weight_scaled": w[keep],
            }
        )

    return ray.data.read_parquet(
        path, columns=["doc_id", "text", "lang"]
    ).map_batches(_score, batch_format="pandas")


def dsir_select(
    sf_dir: str,
    k: int = 100,
    n_buckets: int = 1024,
    target_lang: str = "en",
) -> ray.data.Dataset:
    """DSIR selection: the top-``k`` documents by importance weight.

    Deterministic stand-in for the paper's Gumbel-top-k resample (the
    noise-free limit): rank by ``weight_scaled`` DESC with doc_id ASC
    tie-break. Entirely integer arithmetic on top of
    :func:`dsir_weights`, so no float seam at all.

    Scale shape: per-batch partial top-k (each batch forwards at most k
    rows) -> one single-group reduce over <= k x n_batches rows. Columns:
    rank (1-based), doc_id, n_tokens, weight_scaled (all int64).
    """
    import numpy as np

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["weight_scaled", "doc_id"], ascending=[False, True]
        ).head(k)
        out = df.copy()
        out["g"] = np.zeros(len(df), dtype="int64")
        return out

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["weight_scaled", "doc_id"], ascending=[False, True]
        ).head(k)
        return pd.DataFrame(
            {
                "rank": np.arange(1, len(g) + 1, dtype="int64"),
                "doc_id": g["doc_id"].to_numpy("int64"),
                "n_tokens": g["n_tokens"].to_numpy("int64"),
                "weight_scaled": g["weight_scaled"].to_numpy("int64"),
            }
        )

    return (
        dsir_weights(sf_dir, n_buckets=n_buckets, target_lang=target_lang)
        .map_batches(_partial, batch_format="pandas")
        # plain groupby: "g" (one global group) is dimension-sized
        .groupby("g")
        .map_groups(_final, batch_format="pandas")
    )


def _ccnet_transitions(df: pd.DataFrame, B: int):
    """Hashed-bucket bigram transitions of a batch: per consecutive token
    pair inside one document, (doc index, b1*B+b2, lang). Reuses the
    ordered token-hash stream of :func:`_dsir_feature_occ` (unigram mode
    preserves token order)."""
    import numpy as np

    occ_h, di, _counts, _ = _dsir_feature_occ(df["text"].fillna("").tolist(), False)
    if len(occ_h) == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, np.zeros(0, dtype=object)
    b = (occ_h % np.uint64(B)).astype(np.int64)
    same = di[1:] == di[:-1]
    t_di = di[:-1][same]
    key = b[:-1][same] * B + b[1:][same]
    lang_tr = df["lang"].fillna("").to_numpy(dtype=object)[t_di]
    return t_di, key, lang_tr


def ccnet_perplexity(
    sf_dir: str,
    n_buckets: int = 256,
    scale: int = 1_000_000,
    q: int = 1000,
    train_source: str = "src0",
) -> ray.data.Dataset:
    """CCNet-style LM perplexity bucketing (Wenzek et al. 2020): score
    every document under a per-language LM trained on a small reference
    slice, then split each language into head / middle / tail terciles by
    perplexity — the CCNet quality signal (their KenLM-5 over Wikipedia
    becomes an add-one-smoothed bigram LM over hashed token buckets here;
    ``train_source`` is the reference-slice stand-in).

    Determinism posture (the :func:`dsir_weights` fixed-point idiom): the
    per-(lang, b1, b2) log-probs are frozen ONCE to integer fixed-point
    ``s = floor(scale * ln((c+1)/(ctx+B)))`` — the only float seam, each
    value verified far from its floor boundary — so document NLLs are
    order-independent int64 sums and the tercile cut is exact integer
    arithmetic on ``ppl_q = nll // (n_trans * q)`` (type-1: smallest value
    whose per-lang cumulative count >= ceil(n/3) resp. ceil(2n/3)).

    Scale shape (three streaming passes, bounded driver state):

    1. TRAIN: bigram-bucket partial counts over the ``train_source`` slice
       (filter pushed into the parquet scan) reduced through
       ``bucket_exchange`` + vectorized within-bucket pandas groupby (the
       bigram_coverage idiom — a fine-key native aggregate pays Ray's
       ~200 fixed reduce partitions; 23x measured on the 200k probe) —
       <= |langs| x B^2 rows of driver state; frozen
       to dense int64 score tables and broadcast via ``ray.put``. A
       language absent from the slice falls back to the uniform model
       ``floor(scale * ln(1/B))`` (ctx = 0).
    2. HISTOGRAM: per-batch (lang, ppl_q, cnt) partials reduced through a
       (lang, ppl_q) groupby — value-space-sized (ppl_q <= scale*ln(B^2)/q
       ~ 11k values at the defaults), never corpus-sized; exact per-lang
       tercile thresholds broadcast as |langs| pairs.
    3. ASSIGN: rescore + compare against the broadcast thresholds.

    Scoring runs twice (passes 2 and 3) — the price of never
    materializing a corpus-sized intermediate; both runs are
    deterministic and identical. Documents with fewer than two tokens
    emit no row (no transitions — SQL WHERE parity).

    Columns: doc_id, lang, n_trans, nll_scaled, ppl_bucket (0 = head,
    1 = middle, 2 = tail; all int64 except lang).
    """
    import numpy as np
    import pyarrow.compute as pc

    path = f"{sf_dir}/documents.parquet"
    B = int(n_buckets)
    # Fine-key groupby().aggregate() pays Ray's ~200 fixed reduce
    # partitions (the bigram_coverage lesson); both reduces here go
    # through bucket_exchange + a vectorized within-bucket pandas groupby
    # instead (23x measured on the 200k-doc probe).

    def _partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        _t_di, key, lang_tr = _ccnet_transitions(df, B)
        if len(key) == 0:
            return pd.DataFrame(
                {
                    "lang": pd.Series([], dtype=object),
                    "key": pd.Series([], dtype="int64"),
                    "cnt": pd.Series([], dtype="int64"),
                }
            )
        out = (
            pd.DataFrame({"lang": lang_tr, "key": key})
            .groupby(["lang", "key"], as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
        )
        out["key"] = out["key"].astype("int64")
        out["cnt"] = out["cnt"].astype("int64")
        return out

    def _reduce_counts(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["lang", "key"], as_index=False)["cnt"].sum()

    train = ray.data.read_parquet(
        path, columns=["lang", "text"], filter=pc.field("source") == train_source
    ).map_batches(_partial_counts, batch_format="pandas")
    # <= |langs| x B^2 rows — bounded driver state
    cnt = bucket_exchange(train, "key", _reduce_counts).to_pandas()
    uniform_s = int(np.floor(scale * np.log(1.0 / B)))
    s_map: dict[str, np.ndarray] = {}
    if len(cnt) == 0:  # no train-slice docs: column-less frame; all langs
        cnt = pd.DataFrame(columns=["lang", "key", "cnt"])  # -> uniform model
    for lang, sub in cnt.groupby("lang", sort=False):
        c = np.zeros(B * B, dtype=np.int64)
        c[sub["key"].to_numpy("int64")] = sub["cnt"].to_numpy("int64")
        c2 = c.reshape(B, B)
        ctx = c2.sum(axis=1)
        # The ONLY float -> int seam (verified far from floor boundaries).
        s_map[str(lang)] = (
            np.floor(scale * np.log((c2 + 1.0) / (ctx[:, None] + float(B))))
            .astype(np.int64)
            .ravel()
        )
    ref = ray.put((s_map, uniform_s))

    def _doc_scores(df: pd.DataFrame):
        s_map, uniform_s = ray.get(ref)
        t_di, key, lang_tr = _ccnet_transitions(df, B)
        nll = np.zeros(len(df), dtype=np.int64)
        if len(key):
            s_tr = np.full(len(key), uniform_s, dtype=np.int64)
            for lang in pd.unique(lang_tr):
                tbl = s_map.get(str(lang))
                if tbl is not None:
                    m = lang_tr == lang
                    s_tr[m] = tbl[key[m]]
            np.add.at(nll, t_di, -s_tr)  # int64 end-to-end, order-free
        n_trans = (
            np.bincount(t_di, minlength=len(df)).astype(np.int64)
            if len(key)
            else np.zeros(len(df), dtype=np.int64)
        )
        keep = n_trans > 0
        ppl_q = np.zeros(len(df), dtype=np.int64)
        ppl_q[keep] = nll[keep] // (n_trans[keep] * q)
        return keep, n_trans, nll, ppl_q

    def _partial_hist(df: pd.DataFrame) -> pd.DataFrame:
        keep, _n, _nll, ppl_q = _doc_scores(df)
        out = (
            pd.DataFrame(
                {
                    "lang": df["lang"].fillna("").to_numpy(dtype=object)[keep],
                    "ppl_q": ppl_q[keep],
                }
            )
            .groupby(["lang", "ppl_q"], as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
        )
        out["ppl_q"] = out["ppl_q"].astype("int64")
        out["cnt"] = out["cnt"].astype("int64")
        return out

    def _reduce_hist(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["lang", "ppl_q"], as_index=False)["cnt"].sum()

    read = lambda cols: ray.data.read_parquet(path, columns=cols)  # noqa: E731
    hist = bucket_exchange(
        read(["doc_id", "lang", "text"]).map_batches(_partial_hist, batch_format="pandas"),
        "ppl_q",
        _reduce_hist,
    ).to_pandas()  # |langs| x value-space rows, never corpus-sized
    thr: dict[str, tuple[int, int]] = {}
    if len(hist) == 0:  # no scorable docs: column-less frame
        hist = pd.DataFrame(columns=["lang", "ppl_q", "cnt"])
    for lang, sub in hist.groupby("lang", sort=False):
        sub = sub.sort_values("ppl_q")
        cum = sub["cnt"].cumsum().to_numpy()
        vals = sub["ppl_q"].to_numpy("int64")
        n = int(cum[-1])
        t1 = int(vals[int(np.searchsorted(cum, (n + 2) // 3))])
        t2 = int(vals[int(np.searchsorted(cum, (2 * n + 2) // 3))])
        thr[str(lang)] = (t1, t2)
    thr_ref = ray.put(thr)

    def _assign(df: pd.DataFrame) -> pd.DataFrame:
        thr = ray.get(thr_ref)
        keep, n_trans, nll, ppl_q = _doc_scores(df)
        langs = df["lang"].fillna("").to_numpy(dtype=object)[keep]
        pq_k = ppl_q[keep]
        t1 = np.fromiter(
            (thr[str(l)][0] for l in langs), dtype=np.int64, count=len(langs)
        )
        t2 = np.fromiter(
            (thr[str(l)][1] for l in langs), dtype=np.int64, count=len(langs)
        )
        bucket = np.where(pq_k <= t1, 0, np.where(pq_k <= t2, 1, 2)).astype(
            np.int64
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy("int64")[keep],
                "lang": pd.Series(langs, dtype=object).astype(str),
                "n_trans": n_trans[keep],
                "nll_scaled": nll[keep],
                "ppl_bucket": bucket,
            }
        )

    return read(["doc_id", "lang", "text"]).map_batches(
        _assign, batch_format="pandas"
    )


def nb_classifier(
    sf_dir: str,
    n_buckets: int = 1024,
    scale: int = 1_000_000,
    label_col: str = "lang",
    train_source: str = "src0",
) -> ray.data.Dataset:
    """Trained text classifier over hashed unigram buckets — the
    fastText-style model-based filtering family (GPT-3's quality
    classifier, CCNet/fastText lang-id): multinomial Naive Bayes trained
    on the ``train_source`` reference slice, predicting ``label_col``
    for every document.

    The linear form (class prior + sum of per-bucket log-likelihoods) is
    exactly fastText's unigram classifier shape; multinomial NB makes the
    training a pure count aggregation, so the whole model fits the
    :func:`dsir_weights` integer fixed-point posture: per-(class, bucket)
    scores freeze ONCE to ``floor(scale * ln((c+1)/(tot_c+B)))`` and
    class priors to ``floor(scale * ln(n_c/n))`` — the only float seams —
    making per-document class scores order-free int64 sums and the argmax
    (tie-break: lexicographically smallest class) exact integer
    arithmetic, bit-identical to any SQL evaluation order.

    Scale shape (two streaming passes, bounded driver state):

    1. TRAIN: per-batch (class, bucket, cnt) partials over the pushed-down
       source filter, reduced through a bucket_id-keyed bucket exchange to
       <= |classes| x B rows + |classes| doc counts of driver state,
       frozen dense and broadcast via ``ray.put``;
    2. SCORE: vectorized per-batch scoring — per class one int64
       scatter-add over the batch's token-bucket occurrences, then an
       integer argmax across the |classes| columns.

    Documents with no tokens emit no row (SQL WHERE parity); if the
    reference slice is empty the result is empty. Columns: doc_id,
    n_tokens, pred, actual, correct (int64 / str / str / int64).
    """
    import numpy as np
    import pyarrow.compute as pc

    path = f"{sf_dir}/documents.parquet"
    B = int(n_buckets)

    def _partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        occ_h, fdi, counts, _ = _dsir_feature_occ(
            df["text"].fillna("").tolist(), False
        )
        cls = df[label_col].fillna("").to_numpy(dtype=object)
        frames = []
        if len(occ_h):
            occ_b = (occ_h % np.uint64(B)).astype(np.int64)
            tok = (
                pd.DataFrame({"cls": cls[fdi], "bucket_id": occ_b})
                .groupby(["cls", "bucket_id"], as_index=False)
                .size()
                .rename(columns={"size": "cnt"})
            )
            tok["kind"] = 0
            frames.append(tok)
        # per-class document counts ride the same reduce (kind=1 rows)
        dc = (
            pd.DataFrame({"cls": cls})
            .groupby("cls", as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
        )
        dc["bucket_id"] = -1
        dc["kind"] = 1
        frames.append(dc)
        out = pd.concat(frames, ignore_index=True)
        out["bucket_id"] = out["bucket_id"].astype("int64")
        out["cnt"] = out["cnt"].astype("int64")
        out["kind"] = out["kind"].astype("int64")
        return out

    def _reduce_counts(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["cls", "bucket_id", "kind"], as_index=False)["cnt"].sum()

    train = ray.data.read_parquet(
        path, columns=[label_col, "text"], filter=pc.field("source") == train_source
    ).map_batches(_partial_counts, batch_format="pandas")
    # <= |classes| x (B + 1) rows — bounded driver state
    cnt = bucket_exchange(train, "bucket_id", _reduce_counts).to_pandas()
    if len(cnt) == 0:  # no train-slice docs: column-less frame -> K = 0
        cnt = pd.DataFrame(columns=["cls", "bucket_id", "kind", "cnt"])
    doc_cnt = cnt[cnt["kind"] == 1]
    classes = sorted(str(c) for c in doc_cnt["cls"].unique())
    K = len(classes)
    cls_idx = {c: i for i, c in enumerate(classes)}
    n_docs_c = np.zeros(K, dtype=np.int64)
    for _, row in doc_cnt.iterrows():
        n_docs_c[cls_idx[str(row["cls"])]] = int(row["cnt"])
    tok_cnt = cnt[cnt["kind"] == 0]
    c_kb = np.zeros((K, B), dtype=np.int64)
    if len(tok_cnt):
        ki = np.fromiter(
            (cls_idx[str(c)] for c in tok_cnt["cls"]),
            dtype=np.int64,
            count=len(tok_cnt),
        )
        c_kb[ki, tok_cnt["bucket_id"].to_numpy("int64")] = tok_cnt[
            "cnt"
        ].to_numpy("int64")
    n_total = int(n_docs_c.sum())
    if K == 0:
        s_kb = np.zeros((0, B), dtype=np.int64)
        prior = np.zeros(0, dtype=np.int64)
    else:
        tot_c = c_kb.sum(axis=1)
        # The ONLY float -> int seams (margins verified in tests).
        s_kb = np.floor(
            scale * np.log((c_kb + 1.0) / (tot_c[:, None] + float(B)))
        ).astype(np.int64)
        prior = np.floor(scale * np.log(n_docs_c / float(n_total))).astype(
            np.int64
        )
    ref = ray.put((classes, s_kb, prior))

    def _score(df: pd.DataFrame) -> pd.DataFrame:
        classes, s_kb, prior = ray.get(ref)
        K = len(classes)
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "n_tokens": pd.Series([], dtype="int64"),
                "pred": pd.Series([], dtype=object),
                "actual": pd.Series([], dtype=object),
                "correct": pd.Series([], dtype="int64"),
            }
        )
        if K == 0:
            return empty
        occ_h, fdi, counts, _ = _dsir_feature_occ(
            df["text"].fillna("").tolist(), False
        )
        if len(occ_h) == 0:
            return empty
        occ_b = (occ_h % np.uint64(B)).astype(np.int64)
        n = len(df)
        scores = np.empty((n, K), dtype=np.int64)
        for k in range(K):
            w = np.full(n, prior[k], dtype=np.int64)
            np.add.at(w, fdi, s_kb[k][occ_b])  # int64 end-to-end
            scores[:, k] = w
        # first max = lexicographically smallest class on ties
        pred_i = np.argmax(scores, axis=1)
        keep = counts > 0
        actual = df[label_col].fillna("").to_numpy(dtype=object)[keep]
        pred = np.array(classes, dtype=object)[pred_i[keep]]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy("int64")[keep],
                "n_tokens": counts[keep].astype("int64"),
                "pred": pd.Series(pred, dtype=object).astype(str),
                "actual": pd.Series(actual, dtype=object).astype(str),
                "correct": (pred == actual).astype(np.int64),
            }
        )

    return ray.data.read_parquet(
        path, columns=["doc_id", label_col, "text"]
    ).map_batches(_score, batch_format="pandas")


def token_entropy(sf_dir: str, scale: int = 1_000_000) -> ray.data.Dataset:
    """Lexical-diversity quality signal: token-distribution entropy per
    document (the gibberish/boilerplate filter family — a doc repeating
    one token has entropy 0; maximally diverse text approaches ln(n)).

    Integer fixed-point formulation (hash-stable across engines): with
    token counts c_1..c_k summing to n, emit

        ent_scaled = n * floor(scale*ln(n)) - sum_i c_i * floor(scale*ln(c_i))

    — order-free int64 arithmetic whose value is scale*n*H(doc) up to the
    floor truncations (true entropy H = ln n - (1/n) sum c ln c). The
    float seam is the value space of ln over counts 1..n: c = 1 gives
    exactly 0.0 in IEEE, and the worst floor margin over c in 2..10^6 is
    6.0e-7 at c = 632754 — about 200 ulps at that magnitude, two orders
    above the observed 1-ulp numpy-vs-DuckDB ln disagreement
    (margin-checked over the whole space in tests).

    Scale shape: a single vectorized ``map_batches`` pass — no shuffle at
    all. Columns: doc_id, n_tokens, n_distinct, ent_scaled (int64);
    empty docs emit no row (SQL WHERE parity).
    """
    import numpy as np

    from .dedup import _batch_token_codes

    path = f"{sf_dir}/documents.parquet"

    def _ent(df: pd.DataFrame) -> pd.DataFrame:
        _uh, codes, counts = _batch_token_codes(df["text"].fillna("").tolist())
        di = np.repeat(np.arange(len(df)), counts)
        if len(codes):
            pairs = (
                pd.DataFrame({"di": di, "code": codes})
                .groupby(["di", "code"], sort=False, as_index=False)
                .size()
            )
            c = pairs["size"].to_numpy("int64")
            s_c = np.floor(scale * np.log(c.astype(np.float64))).astype(np.int64)
            cross = np.zeros(len(df), dtype=np.int64)
            np.add.at(cross, pairs["di"].to_numpy("int64"), c * s_c)
            nd = np.zeros(len(df), dtype=np.int64)
            np.add.at(nd, pairs["di"].to_numpy("int64"), 1)
        else:
            cross = np.zeros(len(df), dtype=np.int64)
            nd = np.zeros(len(df), dtype=np.int64)
        keep = counts > 0
        n = counts[keep]
        s_n = np.floor(scale * np.log(n.astype(np.float64))).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy("int64")[keep],
                "n_tokens": n,
                "n_distinct": nd[keep],
                "ent_scaled": n * s_n - cross[keep],
            }
        )

    return ray.data.read_parquet(path, columns=["doc_id", "text"]).map_batches(
        _ent, batch_format="pandas"
    )

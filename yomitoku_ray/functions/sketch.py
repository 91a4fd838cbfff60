"""Distributed mergeable sketches over the ``documents`` table.

HyperLogLog (Flajolet et al. 2007) is the canonical example of a sketch
that fits Ray Data's combiner-first shape perfectly: per-batch partial
register tables merge by ``max`` — commutative, associative, idempotent —
so the reduce is order-free and the result is bit-deterministic no matter
how the streaming executor schedules or re-batches the input.

Determinism/oracle posture: the register table is pure integer (md5-hash
bucket + leading-zero rank), the bias constant ``alpha_m`` is FROZEN as an
integer-ppm literal (no float seam at all on the raw path — both engines
evaluate one HUGEINT/arbitrary-precision expression), and the only ln()
seam (the small-range linear-counting branch) is verifiable over its
ENTIRE input space (V in 1..m), which the tests do exhaustively.
"""

from __future__ import annotations

import pandas as pd
import ray.data

from .buckets import bucket_exchange

# HLL parameters, shared verbatim with the SQL oracle.
HLL_P = 10
HLL_M = 1 << HLL_P  # 1024 registers
HLL_W_BITS = 64 - HLL_P  # 54-bit remainder
HLL_RHO_MAX = HLL_W_BITS + 1  # rho when the remainder is all zeros
# alpha_m = 0.7213 / (1 + 1.079/m) for m = 1024, frozen to ppm so the
# estimate is a single exact integer expression in both engines.
HLL_ALPHA_PPM = 720541
HLL_LC_SCALE = 1_000_000  # fixed-point scale of the linear-counting ln()


def _bit_length_u64(w):
    """Vectorized integer bit_length for uint64 arrays — no float log2
    (floor(log2(w)) via float64 is wrong for w in [2^53, 2^54) when w
    rounds up to the next power of two)."""
    import numpy as np

    w = w.astype(np.uint64, copy=True)
    bl = np.zeros(len(w), dtype=np.int64)
    while True:
        nz = w > 0
        if not nz.any():
            break
        bl[nz] += 1
        w >>= np.uint64(1)
    return bl


def _rho_of(w):
    """HLL rank: position of the leftmost 1-bit in the 54-bit remainder
    (1-based), HLL_RHO_MAX when the remainder is zero."""
    return HLL_W_BITS + 1 - _bit_length_u64(w)


def hll_estimate(sum_pow: int, v_zeros: int) -> int:
    """The HLL estimator over merged registers, in exact integer
    arithmetic. ``sum_pow`` = sum over all m registers of
    2^(HLL_RHO_MAX - rho_j) (missing registers count rho = 0);
    ``v_zeros`` = number of zero registers.

    Raw path: floor(alpha * m^2 / sum 2^-rho) with alpha frozen to ppm —
    one arbitrary-precision integer expression, no float anywhere.
    Small-range path (raw <= 5m/2 and zeros exist): linear counting
    m * ln(m/V), with the ln frozen to fixed point; V = m degenerates to
    exactly 0 in both engines (ln 1.0 == 0.0 is exact in IEEE).
    """
    import math

    e_raw = (HLL_ALPHA_PPM * HLL_M * HLL_M * (1 << HLL_RHO_MAX)) // (
        sum_pow * 1_000_000
    )
    if e_raw <= (5 * HLL_M) // 2 and v_zeros > 0:
        lc = int(math.floor(HLL_LC_SCALE * math.log(HLL_M / v_zeros)))
        return (HLL_M * lc) // HLL_LC_SCALE
    return e_raw


def hll_distinct_tokens(sf_dir: str) -> pd.DataFrame:
    """Approximate distinct-token count per language via a distributed
    HyperLogLog (p = 10, 1024 registers, md5 hashes).

    Scale shape: each batch dedups its (lang, hash) pairs and emits an
    already-max-merged partial register table (<= |langs| x m rows per
    batch, independent of batch size); ONE register-keyed
    :func:`~.buckets.bucket_exchange` merges partials with a vectorized
    within-bucket max; the driver sees only
    the |langs| x m final registers and runs the integer estimator.
    This is the sketch counterpart of exact ``unique``: the exact path
    shuffles every distinct token once, the sketch ships 1024 ints per
    lang per batch — at 100 TB the difference is the whole corpus vs
    kilobytes.

    Columns: lang (str), v_zeros, est_distinct (int64). Standard HLL
    accuracy ~1.04/sqrt(m) ~ 3.3% relative error at p = 10.
    """
    import numpy as np

    from .dedup import _md5_u64

    path = f"{sf_dir}/documents.parquet"

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].fillna("").tolist()
        langs = df["lang"].fillna("").to_numpy(dtype=object)
        toks_per_doc = [t.split() for t in texts]
        counts = np.fromiter(
            (len(t) for t in toks_per_doc), dtype=np.int64, count=len(texts)
        )
        empty = pd.DataFrame(
            {
                "lang": pd.Series([], dtype=object),
                "idx": pd.Series([], dtype="int64"),
                "rho": pd.Series([], dtype="int64"),
            }
        )
        if counts.sum() == 0:
            return empty
        import itertools

        words = np.array(
            list(itertools.chain.from_iterable(toks_per_doc)), dtype=object
        )
        di = np.repeat(np.arange(len(texts)), counts)
        codes, uniq = pd.factorize(words)
        uh = np.fromiter(
            (_md5_u64(u) for u in uniq), dtype=np.uint64, count=len(uniq)
        )
        h = uh[codes]
        frame = pd.DataFrame({"lang": langs[di], "h": h}).drop_duplicates()
        hv = frame["h"].to_numpy()
        idx = (hv % np.uint64(HLL_M)).astype(np.int64)
        w = hv // np.uint64(HLL_M)
        rho = _rho_of(w)
        out = (
            pd.DataFrame({"lang": frame["lang"].to_numpy(), "idx": idx, "rho": rho})
            .groupby(["lang", "idx"], as_index=False)["rho"]
            .max()
        )
        out["idx"] = out["idx"].astype("int64")
        out["rho"] = out["rho"].astype("int64")
        return out

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["lang", "idx"], as_index=False)["rho"].max()

    partials = ray.data.read_parquet(path, columns=["lang", "text"]).map_batches(
        _partial, batch_format="pandas"
    )
    reg = bucket_exchange(partials, "idx", _merge).to_pandas()  # <= |langs| x m rows
    rows = []
    if len(reg) == 0:  # empty corpus: column-less frame
        reg = pd.DataFrame(columns=["lang", "idx", "rho"])
    for lang, sub in sorted(reg.groupby("lang", sort=False), key=lambda t: str(t[0])):
        r = np.zeros(HLL_M, dtype=np.int64)
        r[sub["idx"].to_numpy("int64")] = sub["rho"].to_numpy("int64")
        # Python-int sum: 1024 x 2^55 overflows int64 (sum can reach 2^65)
        sum_pow = sum(1 << (HLL_RHO_MAX - int(x)) for x in r)
        v = int((r == 0).sum())
        rows.append((str(lang), v, hll_estimate(sum_pow, v)))
    return pd.DataFrame(rows, columns=["lang", "v_zeros", "est_distinct"]).astype(
        {"v_zeros": "int64", "est_distinct": "int64"}
    )


# Count-Min sketch parameters, shared verbatim with the SQL oracle.
CMS_D = 4  # hash rows
CMS_W = 16384  # counters per row


def cms_top_term_counts(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Count-Min sketch (Cormode & Muthukrishnan 2005) point-count
    estimates for the corpus's top-``k`` terms, beside their exact counts.

    The second mergeable sketch: per-batch partial (row, col, cnt) cells
    merge by SUM — commutative/associative, so the reduce is order-free —
    and the whole sketch is d x w = 64k integers of driver state no matter
    the corpus size. There is NO float seam anywhere: counters, hashing
    and the min-over-rows estimate are all integer, so the oracle match is
    exact by construction. The defining CMS guarantee — estimates can only
    OVERCOUNT (one-sided error) — is an output invariant the driver can
    hash-check: est >= exact for every term, always.

    Candidate terms come from the exact :func:`~.text_stats.top_terms`
    heavy-hitter pass (deterministic), making the output a self-validating
    (term, exact, estimate) table. Columns: term (str), n_exact, n_cms
    (int64), ordered by (n_exact DESC, term ASC).

    The d row hashes derive from ONE md5 per unique token via
    Kirsch-Mitzenmacher double hashing: ``col_j = (h1 + j*h2) % w`` with
    ``h1 = h & (2^32-1)`` and ``h2 = (h >> 32) | 1`` — 4x less hashing
    than d independent digests (3.2x measured end-to-end on the 200k
    probe) and a single exact UBIGINT expression in SQL. Mixed
    Python-int/np.uint64 arithmetic is avoided throughout (it routes
    through float64 and garbles low bits).
    """
    import numpy as np

    from .dedup import _batch_token_codes, _md5_u64
    from .text_stats import top_terms

    path = f"{sf_dir}/documents.parquet"
    _LOW32 = np.uint64(0xFFFFFFFF)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        uh, codes, _counts = _batch_token_codes(df["text"].fillna("").tolist())
        if len(uh) == 0:
            return pd.DataFrame(
                {
                    "row": pd.Series([], dtype="int64"),
                    "col": pd.Series([], dtype="int64"),
                    "cnt": pd.Series([], dtype="int64"),
                }
            )
        cnts = np.bincount(codes, minlength=len(uh)).astype(np.int64)
        h1 = uh & _LOW32
        h2 = (uh >> np.uint64(32)) | np.uint64(1)
        frames = []
        for j in range(CMS_D):
            cols = ((h1 + np.uint64(j) * h2) % np.uint64(CMS_W)).astype(np.int64)
            sub = (
                pd.DataFrame({"col": cols, "cnt": cnts})
                .groupby("col", as_index=False)["cnt"]
                .sum()
            )
            sub["row"] = np.int64(j)
            frames.append(sub)
        return pd.concat(frames, ignore_index=True)[["row", "col", "cnt"]]

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["row", "col"], as_index=False)["cnt"].sum()

    partials = ray.data.read_parquet(path, columns=["text"]).map_batches(
        _partial, batch_format="pandas"
    )
    cells = bucket_exchange(partials, "col", _merge).to_pandas()  # <= d x w rows
    cms = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    if len(cells):  # empty corpus aggregates to a column-less frame
        cms[cells["row"].to_numpy("int64"), cells["col"].to_numpy("int64")] = (
            cells["cnt"].to_numpy("int64")
        )

    exact = top_terms(sf_dir, k=k)
    ests = []
    for t in exact["term"]:
        h = _md5_u64(t)  # Python ints end to end — exact
        h1, h2 = h & 0xFFFFFFFF, (h >> 32) | 1
        ests.append(
            min(int(cms[j, (h1 + j * h2) % CMS_W]) for j in range(CMS_D))
        )
    return pd.DataFrame(
        {
            "term": exact["term"].astype(str),
            "n_exact": exact["n"].astype("int64"),
            "n_cms": pd.Series(ests, dtype="int64"),
        }
    )

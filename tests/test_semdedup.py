"""SemDeDup: kmeans-cluster-scoped embedding near-dup (similarity.semdedup).

Covers: blob-level semantics on a constructed fixture, full agreement with a
single-process numpy recompute over the synthetic sf0.001 table, the greedy
min-id survivor invariant, chunking invariance, and the giant-cluster
representative-star guard.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from yomitoku_ray.functions.similarity import semdedup

SF001 = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def blob_dir(tmp_path_factory):
    """Two well-separated direction blobs, seeds 0 and 1 one in each
    (the kmeans_assign two-blob fixture shape, but cosine-tight)."""
    d = tmp_path_factory.mktemp("semdedup_blobs")
    rng = np.random.RandomState(7)
    a = rng.normal(0, 0.01, (30, 8)) + np.array([5.0] + [0] * 7)
    b = rng.normal(0, 0.01, (30, 8)) - np.array([5.0] + [0] * 7)
    vecs = np.concatenate([a[:1], b[:1], a[1:], b[1:]]).astype(np.float32)
    rows = [
        {"vec_id": i, "embedding": v.tolist(), "label": 0}
        for i, v in enumerate(vecs)
    ]
    pq.write_table(pa.Table.from_pylist(rows), str(d / "embeddings.parquet"))
    return str(d)


def test_semdedup_two_blobs(ray_session, blob_dir):
    df = (
        semdedup(blob_dir, n_clusters=2, threshold=0.99)
        .to_pandas()
        .sort_values("vec_id")
        .set_index("vec_id")
    )
    assert len(df) == 60
    blob_a = [0] + list(range(2, 31))
    blob_b = [1] + list(range(31, 60))
    # clusters follow the blobs (seeds 0 and 1 land one in each)
    assert set(df.loc[blob_a, "cluster"]) == {0}
    assert set(df.loc[blob_b, "cluster"]) == {1}
    # within a tight blob everything over 0.99 cosine: min id survives,
    # everything else is a duplicate
    assert df.loc[0, "is_dup"] == 0 and df.loc[1, "is_dup"] == 0
    assert (df.loc[blob_a[1:], "is_dup"] == 1).all()
    assert (df.loc[blob_b[1:], "is_dup"] == 1).all()


def _local_semdedup(path, k=8, threshold=0.3):
    """Single-process recompute of the full operator (train + assign + dup)."""
    t = pq.read_table(path).to_pandas().sort_values("vec_id").reset_index(drop=True)
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in t["embedding"]])
    mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    cents = mn[:k].copy()
    labels = np.arange(k)
    # one Lloyd update (iterations=2)
    d = ((mn[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    a = np.argmin(d, axis=1)
    live = [c for c in range(k) if (a == c).any()]
    cents = np.stack([mn[a == c].sum(axis=0) / (a == c).sum() for c in live])
    labels = np.array(live)
    d = ((mn[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    a = labels[np.argmin(d, axis=1)]
    is_dup = np.zeros(len(mn), dtype=np.int64)
    for c in labels:
        idx = np.where(a == c)[0]
        s = mn[idx] @ mn[idx].T
        for j in range(1, len(idx)):
            if (s[:j, j] >= threshold).any():
                is_dup[idx[j]] = 1
    return pd.DataFrame(
        {"vec_id": t["vec_id"].to_numpy("int64"), "cluster": a, "is_dup": is_dup}
    )


def test_semdedup_matches_local_recompute(ray_session):
    got = (
        semdedup(SF001)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    want = _local_semdedup(f"{SF001}/embeddings.parquet")
    pd.testing.assert_frame_equal(got, want.astype("int64"))
    # the synthetic table actually has semantic dups to find
    assert 0 < got["is_dup"].sum() < len(got)


def test_semdedup_min_id_survives_per_cluster(ray_session):
    df = semdedup(SF001).to_pandas()
    firsts = df.sort_values("vec_id").groupby("cluster").first()
    assert (firsts["is_dup"] == 0).all()


def test_semdedup_chunking_invariance(ray_session):
    a = semdedup(SF001, chunk_rows=7).to_pandas().sort_values("vec_id")
    b = semdedup(SF001, chunk_rows=1024).to_pandas().sort_values("vec_id")
    pd.testing.assert_frame_equal(a.reset_index(drop=True), b.reset_index(drop=True))


def test_semdedup_giant_cluster_rep_star(ray_session, blob_dir):
    """Over max_block a cluster degrades to min-id-rep comparison only:
    same answer on a tight blob (everything matches the rep)."""
    full = semdedup(blob_dir, n_clusters=2, threshold=0.99).to_pandas()
    star = semdedup(
        blob_dir, n_clusters=2, threshold=0.99, max_block=10
    ).to_pandas()
    pd.testing.assert_frame_equal(
        full.sort_values("vec_id").reset_index(drop=True),
        star.sort_values("vec_id").reset_index(drop=True),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_semdedup_cross_engine_fuzz(ray_session, tmp_path, seed):
    """Random embeddings tables: Ray vs the DuckDB full-Lloyd oracle must
    agree exactly (generalizes the gate beyond the fixed synth tables)."""
    import duckdb

    import __ray_entry__ as entry

    rng = np.random.RandomState(seed)
    n, dim = 90, 12
    base = rng.randn(6, dim)
    vecs = base[rng.randint(0, 6, n)] + 0.7 * rng.randn(n, dim)
    rows = [
        {"vec_id": i, "embedding": vecs[i].astype(np.float64).tolist(), "label": 0}
        for i in range(n)
    ]
    d = tmp_path / "fuzz"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "embeddings.parquet"))
    got = (
        semdedup(str(d))
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{d}/embeddings.parquet')"
    )
    want = (
        con.execute(entry.oracle_sql()["semdedup"])
        .df()
        .sort_values("vec_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)]
    )


def test_semdedup_driver_state_is_centroid_sized(ray_session, monkeypatch):
    """semdedup's driver state is the k-means training reduction only:
    the k-seed init frame and one k-row combiner result per Lloyd round —
    never a vector-table-sized collect."""
    import ray.data as rd

    real_to_pandas = rd.Dataset.to_pandas
    sizes = []

    def _spy(self, *a, **k):
        df = real_to_pandas(self, *a, **k)
        sizes.append(len(df))
        return df

    def _boom(*a, **k):
        raise AssertionError("from_pandas on the driver in semdedup chain")

    monkeypatch.setattr(rd, "from_pandas", _boom)
    monkeypatch.setattr(rd.Dataset, "to_pandas", _spy)
    ds = semdedup(SF001, n_clusters=8)
    monkeypatch.undo()
    assert sizes and max(sizes) <= 8
    assert ds.count() == 500


def test_semdedup_rejects_unknown_keep_rule():
    with pytest.raises(ValueError, match="keep"):
        semdedup(SF001, keep="centriod")


def test_semdedup_centroid_keep_rule(ray_session, tmp_path):
    """keep='centroid': the survivor of a tight similarity group is the
    member closest to its cluster centroid, not the minimum id."""
    rng = np.random.RandomState(3)
    # one tight blob; vec 0 is pushed furthest from the blob mean so the
    # min-id and closest-to-centroid survivors differ
    center = np.array([4.0] + [0.0] * 7)
    pts = center + rng.normal(0, 0.002, (12, 8))
    pts[0] = center * 1.0 + 0.05  # still >0.99 cosine, but off-center
    # a second far blob so k=2 training is non-degenerate (seed 1 in it)
    far = -center + rng.normal(0, 0.002, (12, 8))
    vecs = np.concatenate([pts[:1], far[:1], pts[1:], far[1:]])
    rows = [
        {"vec_id": i, "embedding": vecs[i].tolist(), "label": 0}
        for i in range(len(vecs))
    ]
    pq.write_table(pa.Table.from_pylist(rows), str(tmp_path / "embeddings.parquet"))
    by_id = (
        semdedup(str(tmp_path), n_clusters=2, threshold=0.99)
        .to_pandas()
        .set_index("vec_id")
    )
    by_cent = (
        semdedup(str(tmp_path), n_clusters=2, threshold=0.99, keep="centroid")
        .to_pandas()
        .set_index("vec_id")
    )
    # min-id rule keeps vec 0; centroid rule keeps some interior member
    blob = [0] + list(range(2, 13))
    assert by_id.loc[0, "is_dup"] == 0
    assert by_id.loc[blob, "is_dup"].sum() == len(blob) - 1
    assert by_cent.loc[blob, "is_dup"].sum() == len(blob) - 1
    survivor = by_cent.loc[blob][by_cent.loc[blob, "is_dup"] == 0].index[0]
    assert survivor != 0
    # exactly one survivor per similarity group under both rules
    assert by_cent.loc[0, "is_dup"] == 1


def test_semdedup_centroid_matches_local(ray_session):
    """keep='centroid' against a single-process recompute at sf0.001."""
    got = (
        semdedup(SF001, keep="centroid")
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    t = (
        pq.read_table(f"{SF001}/embeddings.parquet")
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in t["embedding"]])
    mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    k = 8
    cents = mn[:k].copy()
    d = ((mn[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    a = np.argmin(d, axis=1)
    live = [c for c in range(k) if (a == c).any()]
    cents = np.stack([mn[a == c].sum(axis=0) / (a == c).sum() for c in live])
    labels = np.array(live)
    d = ((mn[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    ai = np.argmin(d, axis=1)
    a2 = labels[ai]
    dist = d[np.arange(len(mn)), ai]
    ids = t["vec_id"].to_numpy("int64")
    is_dup = np.zeros(len(mn), dtype=np.int64)
    for c in labels:
        idx = np.where(a2 == c)[0]
        idx = idx[np.lexsort((ids[idx], dist[idx]))]
        s = mn[idx] @ mn[idx].T
        for j in range(1, len(idx)):
            if (s[:j, j] >= 0.3).any():
                is_dup[idx[j]] = 1
    want = pd.DataFrame({"vec_id": ids, "cluster": a2, "is_dup": is_dup}).astype(
        "int64"
    )
    pd.testing.assert_frame_equal(got, want)


# ---------------------------------------------------------------------------
# pq_codes (product quantization)
# ---------------------------------------------------------------------------


def test_pq_codes_matches_local_recompute(ray_session):
    """m=2,k=8 PQ against a single-process sliced-Lloyd recompute."""
    from yomitoku_ray.functions.similarity import pq_codes

    got = (
        pq_codes(SF001)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    t = (
        pq.read_table(f"{SF001}/embeddings.parquet")
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in t["embedding"]])
    ids = t["vec_id"].to_numpy("int64")
    codes = {}
    for j, (lo, hi) in enumerate([(0, 32), (32, 64)]):
        sub = mat[:, lo:hi]
        cents = sub[:8].copy()
        d = ((sub[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        a = np.argmin(d, axis=1)
        live = [c for c in range(8) if (a == c).any()]
        cents = np.stack([sub[a == c].mean(axis=0) for c in live])
        labels = np.array(live)
        d = ((sub[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        codes[f"code_{j}"] = labels[np.argmin(d, axis=1)]
    want = pd.DataFrame({"vec_id": ids, **codes}).astype("int64")
    pd.testing.assert_frame_equal(got, want)


def test_pq_codes_quantize_planted_clusters(ray_session, tmp_path):
    """Vectors from the same planted blob share codes in BOTH subspaces;
    blobs differing only in the second half differ only in code_1."""
    rng = np.random.RandomState(5)
    a_lo, a_hi = np.ones(32), np.ones(32)
    b_hi = -np.ones(32)
    rows = []
    vid = 0
    for _ in range(10):  # blob A: (1s, 1s)
        v = np.concatenate([a_lo, a_hi]) + rng.normal(0, 0.01, 64)
        rows.append({"vec_id": vid, "embedding": v.tolist(), "label": 0}); vid += 1
    for _ in range(10):  # blob B: (1s, -1s) — same first half
        v = np.concatenate([a_lo, b_hi]) + rng.normal(0, 0.01, 64)
        rows.append({"vec_id": vid, "embedding": v.tolist(), "label": 0}); vid += 1
    d = tmp_path / "t"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "embeddings.parquet"))
    from yomitoku_ray.functions.similarity import pq_codes

    got = pq_codes(str(d), m=2, k=4).to_pandas().sort_values("vec_id")
    a = got.iloc[:10]
    b = got.iloc[10:]
    # Subspace 1 separates the blobs (their second halves sit at +-1):
    # no centroid can capture points from both, so the code sets are
    # disjoint. (Within-blob code UNIQUENESS is not guaranteed — the k
    # seeds are the first k vectors, all inside blob A, so a tight blob
    # legitimately splits across near-identical centroids.)
    assert set(a["code_1"]) & set(b["code_1"]) == set()


def test_pq_codes_rejects_indivisible_dim(ray_session):
    from yomitoku_ray.functions.similarity import pq_codes

    with pytest.raises(ValueError, match="not divisible"):
        pq_codes(SF001, m=7)


def test_ann_pq_multi_shard_invariance(ray_session, tmp_path):
    """Block boundaries must not change ADC results: the tie-aware
    (dist, nid) partial top-k is a correct mergeable combiner even with
    heavy quantized-distance ties."""
    from yomitoku_ray.functions.similarity import ann_pq

    src = pq.read_table(f"{SF001}/embeddings.parquet")
    one = tmp_path / "one"
    many = tmp_path / "many"
    one.mkdir(); many.mkdir()
    pq.write_table(src, str(one / "embeddings.parquet"))
    (many / "embeddings.parquet").mkdir()
    rows = src.num_rows
    step = rows // 8
    for j in range(8):
        end = rows if j == 7 else (j + 1) * step
        pq.write_table(
            src.slice(j * step, end - j * step),
            str(many / "embeddings.parquet" / f"p{j}.parquet"),
        )
    a = ann_pq(str(one))
    b = ann_pq(str(many))
    pd.testing.assert_frame_equal(a, b)


def test_ann_pq_neighbors_respect_planted_blobs(ray_session, tmp_path):
    """On WELL-SEPARATED blobs, quantization preserves blob membership:
    every ADC neighbor comes from the query's own blob. (The synth
    `label` column is a random blocking key, NOT proximity — exact
    cosine KNN itself only agrees with it 4% — so blob structure must
    be planted.)"""
    from yomitoku_ray.functions.similarity import ann_pq

    rng = np.random.RandomState(11)
    centers = rng.randn(4, 64) * 10
    rows = []
    vid = 0
    for b in range(4):
        for _ in range(25):
            v = centers[b] + rng.normal(0, 0.1, 64)
            rows.append(
                {"vec_id": vid, "embedding": v.tolist(), "label": b}
            )
            vid += 1
    d = tmp_path / "t"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "embeddings.parquet"))
    got = ann_pq(str(d), n_queries=8)
    blob_of = lambda i: i // 25  # noqa: E731
    assert all(
        blob_of(n) == blob_of(q)
        for q, n in zip(got["query_id"], got["neighbor_id"])
    )


def test_ann_ivfpq_probe_all_equals_ann_pq(ray_session):
    """The composition contract: probe-all IVFPQ (no-residual) must
    reproduce the exhaustive ADC ranking EXACTLY — routing changes only
    scan scope, never the ADC order."""
    from yomitoku_ray.functions.similarity import ann_ivfpq, ann_pq

    pd.testing.assert_frame_equal(ann_ivfpq(SF001, probe_all=True), ann_pq(SF001))


def test_ann_ivfpq_shard_invariance(ray_session, tmp_path):
    """Block boundaries change neither routing (broadcast coarse cents)
    nor the tie-aware ADC partial top-k."""
    from yomitoku_ray.functions.similarity import ann_ivfpq

    src = pq.read_table(f"{SF001}/embeddings.parquet")
    one = tmp_path / "one"
    many = tmp_path / "many"
    one.mkdir(); many.mkdir()
    pq.write_table(src, str(one / "embeddings.parquet"))
    (many / "embeddings.parquet").mkdir()
    rows = src.num_rows
    step = rows // 8
    for j in range(8):
        end = rows if j == 7 else (j + 1) * step
        pq.write_table(
            src.slice(j * step, end - j * step),
            str(many / "embeddings.parquet" / f"p{j}.parquet"),
        )
    pd.testing.assert_frame_equal(ann_ivfpq(str(one)), ann_ivfpq(str(many)))


def test_ann_ivfpq_nprobe1_respects_planted_blobs(ray_session, tmp_path):
    """On well-separated blobs with one coarse cluster per blob, nprobe=1
    routing scans ONLY the query's own blob — every neighbor must come
    from it, and per query exactly k neighbors must still surface (the
    blob has 25 > k members)."""
    from yomitoku_ray.functions.similarity import ann_ivfpq

    rng = np.random.RandomState(13)
    centers = rng.randn(4, 64) * 10
    rows = []
    vid = 0
    for b in range(4):
        for _ in range(25):
            v = centers[b] + rng.normal(0, 0.1, 64)
            rows.append({"vec_id": vid, "embedding": v.tolist(), "label": b})
            vid += 1
    d = tmp_path / "t"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "embeddings.parquet"))
    got = ann_ivfpq(str(d), n_queries=8, nprobe=1, n_clusters=4)
    blob_of = lambda i: i // 25  # noqa: E731
    assert all(
        blob_of(n) == blob_of(q)
        for q, n in zip(got["query_id"], got["neighbor_id"])
    )
    assert got.groupby("query_id").size().eq(5).all()

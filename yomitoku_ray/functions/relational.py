"""Relational aggregate pipelines over the TPC-H-ish tables.

The engine's generic groupby/join/sort layer (SURVEY §2.5 G4/G7 analogues),
written the way the 100 TB posture demands:

- pre-aggregation: partial sums per batch inside ``map_batches`` (one row
  per key per batch), then a small groupby over partials;
- broadcast joins: the dimension side goes through ``ray.put`` once and is
  looked up per batch — never a shuffle join for a small side;
- exact integer arithmetic: money flows as ``floor(x*100 + 0.5)`` cents so
  sums are order-independent int64 — a distributed float sum is
  nondeterministic in the last ulp and would break value-hash comparison
  against the SQL oracle (the oracle uses the identical floor expression).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Sum

from .buckets import bucket_exchange


def _cents(x: pd.Series) -> pd.Series:
    return np.floor(x * 100 + 0.5).astype("int64")


# Coarse shuffle groups for per-entity operators (sessionize, as-of,
# range join): groupby on the raw entity key costs ~90 us of map_groups
# overhead PER GROUP (measured round 2) — hours of pure overhead at 1e8
# users. ``buckets.bucket_exchange`` instead pays that overhead once per
# input-sized bucket of ``hash(key)``, with the exact per-entity grouping
# done vectorized (pandas groupby / merge_asof / segment searchsorted)
# inside each bucket.


def pricing_summary(sf_dir: str, cutoff: str = "1998-09-01") -> pd.DataFrame:
    """TPC-H Q1-shaped pricing summary with partial pre-aggregation.

    Columns: l_returnflag, l_linestatus, sum_qty, sum_base_cents,
    sum_disc_cents_e4, n_rows (all int64).
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )
    cutoff_ts = pd.Timestamp(cutoff)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] < cutoff_ts]
        if len(df) == 0:
            return pd.DataFrame(
                columns=[
                    "l_returnflag",
                    "l_linestatus",
                    "sum_qty",
                    "sum_base_cents",
                    "sum_disc_cents_e4",
                    "n_rows",
                ]
            )
        base_cents = _cents(df["l_extendedprice"])
        disc_pct = _cents(df["l_discount"])  # discount in basis-ish units (x100)
        work = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": df["l_quantity"].astype("int64"),
                "sum_base_cents": base_cents,
                "sum_disc_cents_e4": base_cents * (100 - disc_pct),
                "n_rows": np.ones(len(df), dtype="int64"),
            }
        )
        return work.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()

    partials = ds.map_batches(_partial, batch_format="pandas")
    # plain groupby: a native aggregate calls no Python per group
    out = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_base_cents", alias_name="sum_base_cents"),
        Sum("sum_disc_cents_e4", alias_name="sum_disc_cents_e4"),
        Sum("n_rows", alias_name="n_rows"),
    )
    return (
        out.to_pandas()
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )


def revenue_by_segment(sf_dir: str) -> pd.DataFrame:
    """Broadcast join: customer (dimension) -> orders (fact), grouped revenue.

    Columns: c_mktsegment, revenue_cents, n_orders.
    """
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    seg_map_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_mktsegment"])))

    def _lookup(df: pd.DataFrame) -> pd.DataFrame:
        seg_map = ray.get(seg_map_ref)
        seg = df["o_custkey"].map(seg_map).fillna("UNKNOWN")
        work = pd.DataFrame(
            {
                "c_mktsegment": seg,
                "revenue_cents": _cents(df["o_totalprice"]),
                "n_orders": np.ones(len(df), dtype="int64"),
            }
        )
        return work.groupby("c_mktsegment", as_index=False).sum()

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    out = (
        orders.map_batches(_lookup, batch_format="pandas")
        # plain groupby: a native aggregate calls no Python per group
        .groupby("c_mktsegment")
        .aggregate(
            Sum("revenue_cents", alias_name="revenue_cents"),
            Sum("n_orders", alias_name="n_orders"),
        )
    )
    return out.to_pandas().sort_values("c_mktsegment").reset_index(drop=True)


def top_parts_by_revenue(sf_dir: str, top_n: int = 10) -> pd.DataFrame:
    """Grouped revenue per part -> global top-N (sort + limit).

    Columns: l_partkey, revenue_cents.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        base = _cents(df["l_extendedprice"])
        disc = _cents(df["l_discount"])
        work = pd.DataFrame(
            {"l_partkey": df["l_partkey"], "revenue_cents": base * (100 - disc)}
        )
        return work.groupby("l_partkey", as_index=False).sum()

    agg = (
        ds.map_batches(_partial, batch_format="pandas")
        # plain groupby: a native aggregate calls no Python per group
        .groupby("l_partkey")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )
    top = agg.sort(["revenue_cents", "l_partkey"], descending=[True, False]).limit(top_n)
    return top.to_pandas().reset_index(drop=True)


def suppliers_per_region(sf_dir: str) -> pd.DataFrame:
    """Two-hop broadcast join: region -> nation -> supplier rollup.

    Both dimension tables ship once via ``ray.put``; the fact scan does a
    vectorized two-step map lookup. Columns: r_name, n_suppliers,
    acctbal_cents.
    """
    nation = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    ).to_pandas()
    region = ray.data.read_parquet(f"{sf_dir}/region.parquet").to_pandas()
    nation_to_region = dict(zip(nation["n_nationkey"], nation["n_regionkey"]))
    region_name = dict(zip(region["r_regionkey"], region["r_name"]))
    maps_ref = ray.put((nation_to_region, region_name))

    def _lookup(df: pd.DataFrame) -> pd.DataFrame:
        n2r, rname = ray.get(maps_ref)
        rkey = df["s_nationkey"].map(n2r)
        work = pd.DataFrame(
            {
                "r_name": rkey.map(rname).fillna("UNKNOWN"),
                "n_suppliers": np.ones(len(df), dtype="int64"),
                "acctbal_cents": _cents(df["s_acctbal"]),
            }
        )
        return work.groupby("r_name", as_index=False).sum()

    ds = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"]
    )
    # plain groupby: a native aggregate calls no Python per group
    out = ds.map_batches(_lookup, batch_format="pandas").groupby("r_name").aggregate(
        Sum("n_suppliers", alias_name="n_suppliers"),
        Sum("acctbal_cents", alias_name="acctbal_cents"),
    )
    return out.to_pandas().sort_values("r_name").reset_index(drop=True)


def orders_priority_monthly(sf_dir: str) -> pd.DataFrame:
    """Order counts + revenue by (priority, month) — calendar bucketing.

    Columns: o_orderpriority, month_start, n_orders, revenue_cents.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_orderdate", "o_totalprice"],
    )

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        work = pd.DataFrame(
            {
                "o_orderpriority": df["o_orderpriority"],
                "month_start": df["o_orderdate"].values.astype("datetime64[M]").astype("datetime64[us]"),
                "n_orders": np.ones(len(df), dtype="int64"),
                "revenue_cents": _cents(df["o_totalprice"]),
            }
        )
        return work.groupby(["o_orderpriority", "month_start"], as_index=False).sum()

    # plain groupby: a native aggregate calls no Python per group
    out = ds.map_batches(_partial, batch_format="pandas").groupby(
        ["o_orderpriority", "month_start"]
    ).aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("revenue_cents", alias_name="revenue_cents"),
    )
    return (
        out.to_pandas()
        .sort_values(["o_orderpriority", "month_start"])
        .reset_index(drop=True)
    )


def part_type_stats(sf_dir: str) -> pd.DataFrame:
    """Per-type part stats: count, size extremes, retail price sum (ints).

    Columns: p_type, n_parts, min_size, max_size, retail_cents.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_type", "p_size", "p_retailprice"]
    )

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        work = pd.DataFrame(
            {
                "p_type": df["p_type"],
                "n_parts": np.ones(len(df), dtype="int64"),
                "min_size": df["p_size"].astype("int64"),
                "max_size": df["p_size"].astype("int64"),
                "retail_cents": _cents(df["p_retailprice"]),
            }
        )
        return work.groupby("p_type", as_index=False).agg(
            n_parts=("n_parts", "sum"),
            min_size=("min_size", "min"),
            max_size=("max_size", "max"),
            retail_cents=("retail_cents", "sum"),
        )

    from ray.data.aggregate import Max, Min

    # plain groupby: a native aggregate calls no Python per group
    out = ds.map_batches(_partial, batch_format="pandas").groupby("p_type").aggregate(
        Sum("n_parts", alias_name="n_parts"),
        Min("min_size", alias_name="min_size"),
        Max("max_size", alias_name="max_size"),
        Sum("retail_cents", alias_name="retail_cents"),
    )
    return out.to_pandas().sort_values("p_type").reset_index(drop=True)


def customers_without_orders(sf_dir: str, since: str = "1998-01-01") -> pd.DataFrame:
    """Distributed ANTI-join: customers with no order since ``since``,
    rolled up per market segment.

    The shape for a large-large anti-join (neither side broadcastable at
    corpus scale): tag both sides, union, one coarse hash shuffle on the
    key (~1k buckets), then a vectorized isin() anti-filter inside each
    bucket followed by a per-bucket partial rollup; the final groupby runs
    over ~1k tiny partials. The date predicate is pushed onto the orders
    read (row-group pruning). Columns: c_mktsegment, n_customers.
    """
    import pyarrow.dataset as pads

    since_ts = pd.Timestamp(since)
    paths = [f"{sf_dir}/customer.parquet", f"{sf_dir}/orders.parquet"]

    def _tag_cust(df: pd.DataFrame) -> pd.DataFrame:
        key = df["c_custkey"].astype("int64")
        return pd.DataFrame(
            {
                "key": key,
                "side": np.zeros(len(df), dtype="int8"),
                "seg": df["c_mktsegment"].astype(str),
            }
        )

    def _tag_orders(df: pd.DataFrame) -> pd.DataFrame:
        key = df["o_custkey"].astype("int64")
        return pd.DataFrame(
            {
                "key": key,
                "side": np.ones(len(df), dtype="int8"),
                "seg": np.full(len(df), "", dtype=object),
            }
        )

    def _anti(g: pd.DataFrame) -> pa.Table:
        side = g["side"].to_numpy()
        cust = g[side == 0]
        have = g.loc[side == 1, "key"].unique()
        out = cust[~cust["key"].isin(have)].groupby("seg", as_index=False).size()
        # Arrow, typed even when empty: Ray cannot size the column of an
        # empty pandas str frame and logs an error for each such block.
        return pa.table(
            {
                "c_mktsegment": pa.array(out["seg"].astype(str), pa.string()),
                "n_customers": pa.array(out["size"].to_numpy("int64"), pa.int64()),
            }
        )

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=pads.field("o_orderdate") >= pads.scalar(since_ts),
    )
    both = [
        cust.map_batches(_tag_cust, batch_format="pandas"),
        orders.map_batches(_tag_orders, batch_format="pandas"),
    ]
    partials = bucket_exchange(both, "key", _anti, size_from=paths)
    # plain groupby: a native aggregate calls no Python per group
    out = partials.groupby("c_mktsegment").aggregate(
        Sum("n_customers", alias_name="n_customers")
    ).to_pandas()
    if "c_mktsegment" not in out.columns:  # no orderless customers at all
        out = pd.DataFrame(
            {"c_mktsegment": pd.Series([], dtype=str),
             "n_customers": pd.Series([], dtype="int64")}
        )
    return out.sort_values("c_mktsegment").reset_index(drop=True)


def user_sessions(sf_dir: str, gap_minutes: int = 30) -> pd.DataFrame:
    """Session windows per user (gap-based sessionization).

    Streaming-shaped op per the ray guide: partition by key, order by ts
    within the group, split on inactivity gaps > ``gap_minutes``. The
    shuffle key is COARSE (``hash(user_id) & mask``, input-sized buckets) —
    the exact per-user sessionization runs as one vectorized pandas groupby
    inside each bucket, so Ray's per-group overhead is paid ~1k times, not
    once per user. Columns: user_id, session_id, n_events, session_start,
    session_end.
    """
    gap = pd.Timedelta(minutes=gap_minutes)
    path = f"{sf_dir}/events.parquet"

    def _sessionize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        # session break: inactivity gap within the SAME user (per-user diff)
        brk = (g.groupby("user_id")["ts"].diff() > gap).astype("int64")
        g["session_id"] = brk.groupby(g["user_id"].to_numpy()).cumsum()
        out = g.groupby(["user_id", "session_id"], as_index=False).agg(
            n_events=("ts", "size"),
            session_start=("ts", "min"),
            session_end=("ts", "max"),
        )
        out["n_events"] = out["n_events"].astype("int64")
        out["user_id"] = out["user_id"].astype("int64")
        out["session_id"] = out["session_id"].astype("int64")
        return out[["user_id", "session_id", "n_events", "session_start", "session_end"]]

    ds = ray.data.read_parquet(path, columns=["event_id", "ts", "user_id"])
    out = bucket_exchange(ds, "user_id", _sessionize_bucket, size_from=path)
    return (
        out.to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )


def events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-hour window per event_type (streaming-shaped aggregate).

    Columns: event_type, window_start (timestamp[us]), n_events,
    sum_value_cents.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        work = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "window_start": df["ts"].dt.floor("h"),
                "n_events": np.ones(len(df), dtype="int64"),
                "sum_value_cents": _cents(df["value"]),
            }
        )
        return work.groupby(["event_type", "window_start"], as_index=False).sum()

    # plain groupby: a native aggregate calls no Python per group
    out = ds.map_batches(_partial, batch_format="pandas").groupby(
        ["event_type", "window_start"]
    ).aggregate(
        Sum("n_events", alias_name="n_events"),
        Sum("sum_value_cents", alias_name="sum_value_cents"),
    )
    return (
        out.to_pandas()
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )


def events_sliding(
    sf_dir: str, window_minutes: int = 60, slide_minutes: int = 15
) -> pd.DataFrame:
    """Sliding-window aggregate per event_type (window 60 min, slide 15 min).

    The streaming windowed-aggregate shape Ray Data lacks natively: each
    event is assigned to its window/slide overlapping windows VECTORIZED
    inside ``map_batches`` (np.repeat over the fixed per-event window
    count), pre-aggregated per batch, then one small groupby over partials
    — the explode factor is window/slide (4 here), constant and bounded,
    never a shuffle of raw events per window. Columns: event_type,
    window_start, n_events, sum_value_cents.
    """
    n_win = window_minutes // slide_minutes
    slide_us = slide_minutes * 60 * 1_000_000

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        t_us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        # last slide boundary <= ts, then the n_win windows covering ts
        base = (t_us // slide_us) * slide_us
        starts = base[:, None] - np.arange(n_win)[None, :] * slide_us
        work = pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].to_numpy(), n_win),
                "window_start": starts.reshape(-1),
                "n_events": np.ones(len(df) * n_win, dtype="int64"),
                "sum_value_cents": np.repeat(_cents(df["value"]).to_numpy(), n_win),
            }
        )
        return work.groupby(["event_type", "window_start"], as_index=False).sum()

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )
    out = (
        ds.map_batches(_partial, batch_format="pandas")
        # plain groupby: a native aggregate calls no Python per group
        .groupby(["event_type", "window_start"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value_cents", alias_name="sum_value_cents"),
        )
        .to_pandas()
    )
    out["window_start"] = pd.to_datetime(out["window_start"], unit="us")
    return out.sort_values(["event_type", "window_start"]).reset_index(drop=True)


def events_asof_orders(sf_dir: str) -> ray.data.Dataset:
    """Distributed AS-OF join: each event matched to the most recent order
    (by the same key) at or before the event time.

    The custom-operator pattern Ray Data lacks natively: tag both sides,
    union, hash-shuffle once on a COARSE key (``hash(key) & mask``,
    input-sized buckets — per-entity map_groups overhead would be hours at 1e8
    users), then resolve every key of a bucket at once with one
    ``pd.merge_asof(by='key')`` — no per-row loops, no broadcast of the
    large side. Output is tie-safe
    (the matched ORDER TIME, unique by the max-<= definition, never an
    arbitrary row id) and integer-exact (lag in whole hours from
    microsecond arithmetic), so DuckDB's native ASOF JOIN hash-verifies it.
    """
    paths = [f"{sf_dir}/events.parquet", f"{sf_dir}/orders.parquet"]
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    )

    def _tag_events(df: pd.DataFrame) -> pd.DataFrame:
        key = df["user_id"].astype("int64")
        return pd.DataFrame(
            {
                "key": key,
                "side": np.zeros(len(df), dtype="int8"),
                "event_id": df["event_id"].astype("int64"),
                "t_us": df["ts"].astype("datetime64[us]").astype("int64"),
            }
        )

    def _tag_orders(df: pd.DataFrame) -> pd.DataFrame:
        key = df["o_custkey"].astype("int64")
        return pd.DataFrame(
            {
                "key": key,
                "side": np.ones(len(df), dtype="int8"),
                "event_id": np.full(len(df), -1, dtype="int64"),
                "t_us": df["o_orderdate"].astype("datetime64[us]").astype("int64"),
            }
        )

    both = [
        events.map_batches(_tag_events, batch_format="pandas"),
        orders.map_batches(_tag_orders, batch_format="pandas"),
    ]

    def _resolve_bucket(g: pd.DataFrame) -> pd.DataFrame:
        """All keys of one coarse bucket at once: pd.merge_asof with
        ``by='key'`` is the vectorized per-key backward as-of."""
        side = g["side"].to_numpy()
        ev = g.loc[side == 0, ["key", "event_id", "t_us"]]
        od = g.loc[side == 1, ["key", "t_us"]]
        empty = pd.DataFrame(
            {
                "event_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
                "order_t_us": pd.Series([], dtype="int64"),
                "lag_hours": pd.Series([], dtype="int64"),
            }
        )
        if len(ev) == 0 or len(od) == 0:
            return empty
        ev = ev.sort_values("t_us", kind="mergesort").reset_index(drop=True)
        od = (
            od.rename(columns={"t_us": "order_t_us"})
            .sort_values("order_t_us", kind="mergesort")
            .reset_index(drop=True)
        )
        m = pd.merge_asof(
            ev,
            od,
            left_on="t_us",
            right_on="order_t_us",
            by="key",
            direction="backward",
        )
        m = m[m["order_t_us"].notna()]
        if len(m) == 0:
            return empty
        # unmatched rows introduce NaN -> float64; epoch-us values are far
        # below 2^53 so the round-trip back to int64 is exact
        matched = m["order_t_us"].to_numpy().astype("int64")
        ev_t = m["t_us"].to_numpy()
        return pd.DataFrame(
            {
                "event_id": m["event_id"].to_numpy(),
                "user_id": m["key"].to_numpy(),
                "order_t_us": matched,
                "lag_hours": (ev_t - matched) // 3_600_000_000,
            }
        )

    return bucket_exchange(both, "key", _resolve_bucket, size_from=paths)


def events_close_pairs(sf_dir: str, max_gap_minutes: int = 5) -> ray.data.Dataset:
    """Range self-join: ordered pairs of same-user events within a time
    band (0 <= gap <= max_gap; later-by-(time, id) side is event_b).

    The range-join pattern over one COARSE hash shuffle
    (``hash(user_id) & mask``): each bucket co-locates a slice of the
    users; inside a bucket, rows are lexsorted by (user, time, id), each
    user's segment gets its in-band window via one ``searchsorted``, and
    pairs are emitted with vectorized ragged-range arithmetic (np.repeat +
    flat-index construction) — no per-row Python loop, never the O(n^2)
    cross product. Ties and self-pairs excluded by (time, event_id)
    ordering; integer-second gaps keep the SQL oracle hash-exact.
    """
    gap_us = max_gap_minutes * 60 * 1_000_000
    path = f"{sf_dir}/events.parquet"
    events = ray.data.read_parquet(path, columns=["event_id", "user_id", "ts"])

    def _pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "user_id": pd.Series([], dtype="int64"),
                "event_a": pd.Series([], dtype="int64"),
                "event_b": pd.Series([], dtype="int64"),
                "gap_seconds": pd.Series([], dtype="int64"),
            }
        )
        if len(g) == 0:
            return empty
        uid = g["user_id"].astype("int64").to_numpy()
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        eid = g["event_id"].astype("int64").to_numpy()
        order = np.lexsort((eid, t, uid))
        uid, t, eid = uid[order], t[order], eid[order]
        # user segment boundaries within the sorted bucket
        seg_starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        seg_ends = np.r_[seg_starts[1:], len(uid)]

        out_u, out_a, out_b, out_gap = [], [], [], []
        for s, e in zip(seg_starts, seg_ends):
            ts_, eid_ = t[s:e], eid[s:e]
            n = e - s
            if n < 2:
                continue
            hi = np.searchsorted(ts_, ts_ + gap_us, side="right")
            idx = np.arange(n)
            counts = hi - (idx + 1)
            np.clip(counts, 0, None, out=counts)
            total = int(counts.sum())
            if total == 0:
                continue
            # flat indices of each i's partners: range(i+1, hi[i]) for all i
            cum = np.cumsum(counts)
            offs = np.repeat(cum - counts, counts)
            flat = np.arange(total) - offs + np.repeat(idx + 1, counts)
            out_u.append(np.full(total, uid[s], dtype=np.int64))
            out_a.append(np.repeat(eid_, counts))
            out_b.append(eid_[flat])
            out_gap.append((ts_[flat] - np.repeat(ts_, counts)) // 1_000_000)
        if not out_a:
            return empty
        return pd.DataFrame(
            {
                "user_id": np.concatenate(out_u),
                "event_a": np.concatenate(out_a).astype("int64"),
                "event_b": np.concatenate(out_b).astype("int64"),
                "gap_seconds": np.concatenate(out_gap).astype("int64"),
            }
        )

    return bucket_exchange(events, "user_id", _pairs_bucket, size_from=path)


def top_supplier_per_nation(sf_dir: str) -> pd.DataFrame:
    """Arg-max per group over a three-table join: for each nation, the
    supplier with the highest lineitem revenue.

    Scale shape: combiner pre-agg per batch (supplier partial revenues),
    ONE groupby(l_suppkey) Sum over lineitem — the only wide shuffle; the
    dimension side (supplier -> nation, names) is small by TPC-H
    construction and broadcasts once via ``ray.put`` into a vectorized
    lookup; the final per-nation arg-max runs as a groupby over the
    supplier-count-sized revenue table, never on the driver. Ties break on
    the lowest supplier key. Columns: n_name, s_name, revenue_cents.
    """
    lineitem = f"{sf_dir}/lineitem.parquet"
    supplier = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name", "s_nationkey"]
    ).to_pandas()
    nation = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    n_name = dict(zip(nation["n_nationkey"], nation["n_name"]))
    sup_ref = ray.put(
        (
            dict(zip(supplier["s_suppkey"], supplier["s_name"])),
            dict(zip(supplier["s_suppkey"], supplier["s_nationkey"])),
        )
    )

    ds = ray.data.read_parquet(
        lineitem, columns=["l_suppkey", "l_extendedprice", "l_discount"]
    )

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        base = _cents(df["l_extendedprice"])
        disc = _cents(df["l_discount"])
        work = pd.DataFrame(
            {"l_suppkey": df["l_suppkey"], "revenue_cents": base * (100 - disc)}
        )
        return work.groupby("l_suppkey", as_index=False).sum()

    # Coarse-bucketed reduce (vectorized per-bucket groupby) instead of the
    # native aggregate: Ray's sort-aggregate pays ~200 reduce partitions of
    # fixed overhead regardless of data size. Shuffled rows are per-batch
    # supplier PARTIALS (pre-aggregated), far smaller than lineitem itself.
    per_supplier = bucket_exchange(
        ds.map_batches(_partial, batch_format="pandas"),
        "l_suppkey",
        lambda g: g.groupby("l_suppkey", as_index=False)[["revenue_cents"]].sum(),
        size_from=lineitem,
        expansion=0.25,
    )

    def _attach(df: pd.DataFrame) -> pd.DataFrame:
        sname, snation = ray.get(sup_ref)
        keys = df["l_suppkey"]
        return pd.DataFrame(
            {
                "n_name": keys.map(snation).map(n_name).astype(str),
                "s_suppkey": keys.astype("int64"),
                "s_name": keys.map(sname).astype(str),
                "revenue_cents": df["revenue_cents"].astype("int64"),
            }
        )

    def _argmax(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["revenue_cents", "s_suppkey"], ascending=[False, True])
        top = g.head(1)
        return pd.DataFrame(
            {
                "n_name": top["n_name"].astype(str).values,
                "s_name": top["s_name"].astype(str).values,
                "revenue_cents": top["revenue_cents"].astype("int64").values,
            }
        )

    out = (
        per_supplier.map_batches(_attach, batch_format="pandas")
        # plain groupby: n_name is dimension-sized
        .groupby("n_name")
        .map_groups(_argmax, batch_format="pandas")
        .to_pandas()  # one row per nation
    )
    return out.sort_values("n_name").reset_index(drop=True)


def events_funnel(sf_dir: str, window_minutes: int = 60) -> pd.DataFrame:
    """Funnel conversion: per user, the first ``view`` event and whether a
    ``purchase`` follows within ``window_minutes`` — the sequential-pattern
    shape (first-touch attribution) the windowed relational family
    otherwise lacks.

    Scale shape: same coarse-bucket idiom as :func:`user_sessions` /
    :func:`events_asof_orders` — shuffle once on ``hash(user_id) & mask``
    (~1k buckets), then one vectorized ``merge_asof(by=user_id,
    direction=forward, tolerance=window)`` per bucket pairs each user's
    first view with their earliest following purchase. Columns: user_id,
    view_ts, converted (0/1), secs_to_convert (-1 when unconverted).
    """
    tol = pd.Timedelta(minutes=window_minutes)
    path = f"{sf_dir}/events.parquet"

    def _funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        views = (
            g[g["event_type"] == "view"]
            .groupby("user_id", as_index=False)["ts"]
            .min()
            .rename(columns={"ts": "view_ts"})
            .sort_values("view_ts")
        )
        if len(views) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "view_ts": pd.Series([], dtype="datetime64[us]"),
                    "converted": pd.Series([], dtype="int64"),
                    "secs_to_convert": pd.Series([], dtype="int64"),
                }
            )
        purchases = (
            g[g["event_type"] == "purchase"][["user_id", "ts"]]
            .rename(columns={"ts": "conv_ts"})
            .sort_values("conv_ts")
        )
        m = pd.merge_asof(
            views,
            purchases,
            left_on="view_ts",
            right_on="conv_ts",
            by="user_id",
            direction="forward",
            tolerance=tol,
            allow_exact_matches=True,
        )
        converted = m["conv_ts"].notna()
        # exact µs diff floored to seconds (SQL: date_diff('microsecond')
        # // 1e6 — date_diff('second') counts BOUNDARY CROSSINGS, not the
        # floored difference, and disagrees on sub-second offsets)
        dus = (m["conv_ts"] - m["view_ts"]).dt.total_seconds() * 1_000_000
        secs = pd.Series(
            np.where(converted, dus.fillna(0).round().astype("int64") // 1_000_000, -1),
            dtype="int64",
        )
        return pd.DataFrame(
            {
                "user_id": m["user_id"].astype("int64"),
                "view_ts": m["view_ts"],
                "converted": converted.astype("int64"),
                "secs_to_convert": secs,
            }
        )

    ds = ray.data.read_parquet(path, columns=["ts", "user_id", "event_type"])
    out = bucket_exchange(ds, "user_id", _funnel_bucket, size_from=path)
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


def events_retention(sf_dir: str, max_offset_days: int = 7) -> pd.DataFrame:
    """Cohort retention: users grouped by the day of their FIRST event
    (cohort_day), counted as retained on each later day they were active
    (day_offset 0..``max_offset_days``). The classic product-analytics
    matrix, integer-exact.

    Scale shape: ONE shuffle on ``hash(user_id) & mask`` — a user's
    whole history lands in one bucket, so first-day and per-day activity
    resolve vectorized inside the bucket; buckets emit (cohort_day,
    day_offset, partial n_users) and a final dimension-sized groupby sums
    the matrix (days x offsets rows — never user-sized on the driver).
    """
    path = f"{sf_dir}/events.parquet"

    def _retention_bucket(g: pd.DataFrame) -> pd.DataFrame:
        days = g["ts"].dt.floor("D")
        act = pd.DataFrame({"user_id": g["user_id"].astype("int64"), "day": days})
        act = act.drop_duplicates()  # one row per (user, active day)
        first = act.groupby("user_id", as_index=False)["day"].min().rename(
            columns={"day": "cohort_day"}
        )
        m = act.merge(first, on="user_id")
        off = ((m["day"] - m["cohort_day"]).dt.days).astype("int64")
        m = m[(off >= 0) & (off <= max_offset_days)]
        off = off[(off >= 0) & (off <= max_offset_days)]
        out = (
            pd.DataFrame(
                {"cohort_day": m["cohort_day"], "day_offset": off.to_numpy()}
            )
            .groupby(["cohort_day", "day_offset"], as_index=False)
            .size()
            .rename(columns={"size": "n_users"})
        )
        out["n_users"] = out["n_users"].astype("int64")
        out["day_offset"] = out["day_offset"].astype("int64")
        return out

    ds = ray.data.read_parquet(path, columns=["ts", "user_id"])
    parts = bucket_exchange(
        ds, "user_id", _retention_bucket, size_from=path
    ).to_pandas()  # (buckets x days x offsets)-bounded
    out = parts.groupby(["cohort_day", "day_offset"], as_index=False)["n_users"].sum()
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)


def event_pagerank(sf_dir: str, iterations: int = 3) -> pd.DataFrame:
    """PageRank over the event-type transition graph (damping 0.85,
    ``iterations`` fixed-point steps in INTEGER arithmetic so both engines
    produce bit-identical values — each edge contribution is
    ``(85 * r * w) // (100 * W_out)``, a single exact integer division,
    and integer sums are order-independent).

    Scale shape: the heavy step is edge extraction — consecutive-event
    pairs per user over the whole events table — done with ONE coarse
    user-bucket shuffle (``hash(user_id) & mask``) and vectorized
    shift-compare inside each bucket, pre-aggregated to (src, dst) partial
    counts per bucket. The aggregated edge table is
    |event_type|^2-sized (dimension-sized), so the power iteration runs
    driver-side on exact ints — the right split for a 10^12-event corpus.

    Columns: event_type, pr3 (int64, scaled by 1e9), out_w, in_w.
    """
    path = f"{sf_dir}/events.parquet"
    ds = ray.data.read_parquet(path, columns=["user_id", "ts", "event_id", "event_type"])

    def _edges(grp: pd.DataFrame) -> pd.DataFrame:
        g = grp.sort_values(["user_id", "ts", "event_id"])
        users = g["user_id"].to_numpy("int64")
        types = g["event_type"].to_numpy(dtype=object)
        same = users[1:] == users[:-1]
        pairs = pd.DataFrame(
            {
                "src": types[:-1][same],
                "dst": types[1:][same],
                "w": np.ones(int(same.sum()), dtype="int64"),
            }
        )
        return pairs.groupby(["src", "dst"], as_index=False).sum()

    edges = (
        bucket_exchange(ds, "user_id", _edges, size_from=path)
        .to_pandas()  # dimension-sized: |event_type|^2 * n_buckets partials
        .groupby(["src", "dst"], as_index=False)["w"]
        .sum()
    )
    nodes = sorted(
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type"]
        ).unique("event_type")
    )

    scale = 1_000_000_000
    out_w = {n: 0 for n in nodes}
    in_w = {n: 0 for n in nodes}
    for row in edges.itertuples(index=False):
        out_w[row.src] += int(row.w)
        in_w[row.dst] += int(row.w)
    r = {n: scale for n in nodes}
    for _ in range(iterations):
        nxt = {n: (15 * scale) // 100 for n in nodes}
        for row in edges.itertuples(index=False):
            nxt[row.dst] += (85 * r[row.src] * int(row.w)) // (100 * out_w[row.src])
        r = nxt
    return pd.DataFrame(
        {
            "event_type": nodes,
            "pr3": pd.Series([r[n] for n in nodes], dtype="int64"),
            "out_w": pd.Series([out_w[n] for n in nodes], dtype="int64"),
            "in_w": pd.Series([in_w[n] for n in nodes], dtype="int64"),
        }
    )


def events_spike_days(sf_dir: str) -> pd.DataFrame:
    """Data-quality monitoring: flag days where an event type's daily
    count exceeds its own mean + 2 sigma — with the test done ENTIRELY in
    integer arithmetic so both engines agree bit-for-bit:
    ``x > mu + 2*sigma  <=>  (x*D - T) > 0 and (x*D - T)^2 > 4*(D*SQ - T^2)``
    where D = days, T = sum of counts, SQ = sum of squared counts.

    Scale shape: daily counts via per-batch combiner + one
    dimension-sized groupby (|event_type| x |days| rows); the per-type
    moments are driver-side sums over that table.

    Columns: event_type, day (timestamp), n_events, is_spike (int64).
    """
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        work = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "day": df["ts"].dt.floor("D"),
                "n_events": np.ones(len(df), dtype="int64"),
            }
        )
        return work.groupby(["event_type", "day"], as_index=False).sum()

    daily = (
        ds.map_batches(_partial, batch_format="pandas")
        # plain groupby: a native aggregate calls no Python per group
        .groupby(["event_type", "day"])
        .aggregate(Sum("n_events", alias_name="n_events"))
        .to_pandas()  # dimension-sized: |event_type| x |days|
    )
    daily["n_events"] = daily["n_events"].astype("int64")
    st = daily.groupby("event_type")["n_events"].agg(
        d="size", t="sum", sq=lambda s: int((s.astype("int64") ** 2).sum())
    )
    d = st["d"].reindex(daily["event_type"]).to_numpy("int64")
    t = st["t"].reindex(daily["event_type"]).to_numpy("int64")
    sq = st["sq"].reindex(daily["event_type"]).to_numpy("int64")
    x = daily["n_events"].to_numpy("int64")
    dev = x * d - t
    daily["is_spike"] = ((dev > 0) & (dev * dev > 4 * (d * sq - t * t))).astype("int64")
    return daily.sort_values(["event_type", "day"]).reset_index(drop=True)

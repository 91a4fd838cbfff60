"""Host link graph: per-page harvest, batch combiner, distributed edge list,
and the encoding-invariant byte-pattern ground truth over synth pages."""

import pandas as pd
import pyarrow as pa

from yomitoku_ray.functions.linkgraph import (
    _edges_partial,
    host_link_graph,
    page_out_edges,
)
from yomitoku_ray.synth.pages import generate_pages_table

_PAD = b"<html><head><title>x</title></head><body>%s</body></html>"


def _collect(ds):
    return ds.to_pandas().sort_values(["src_host", "dst_host"]).reset_index(drop=True)


def test_page_out_edges_resolves_and_counts():
    html = _PAD % (
        b"<a href='/rel'>r</a><a href='https://other.example/x'>o</a>"
        b"<a href='https://other.example/y'>o2</a><img src='//cdn.example/i.png'>"
        b"<a href=''>skip</a>"
    )
    edges = page_out_edges("https://src.example/p/1", html)
    assert edges == {"src.example": 1, "other.example": 2, "cdn.example": 1}


def test_page_out_edges_garbage_and_empty():
    assert page_out_edges("https://s.example/p", b"") == {}
    assert page_out_edges("https://s.example/p", None) == {}
    assert page_out_edges("https://s.example/p", b"\xff\xfe garbage \x80" * 4) == {}


def test_edges_partial_combines_within_batch():
    html = _PAD % b"<a href='/a'>1</a><a href='/b'>2</a>"
    df = pd.DataFrame(
        {
            "url": [f"https://h.example/p/{i}" for i in range(5)],
            "html": [html] * 5,
        }
    )
    out = _edges_partial(df)
    assert len(out) == 1  # one row per (src, dst) pair, not per page
    assert out.loc[0, "src_host"] == "h.example"
    assert out.loc[0, "dst_host"] == "h.example"
    assert out.loc[0, "n_links"] == 10


def test_host_link_graph_cross_host(ray_session):
    import ray.data

    rows = []
    for i in range(6):
        rows.append(
            {
                "url": f"https://a.example/p/{i}",
                "html": _PAD % b"<a href='https://b.example/t'>x</a><a href='/own'>y</a>",
            }
        )
    for i in range(3):
        rows.append(
            {
                "url": f"https://b.example/p/{i}",
                "html": _PAD % b"<a href='https://a.example/t'>z</a>",
            }
        )
    t = pa.table(
        {
            "url": pa.array([r["url"] for r in rows]),
            "html": pa.array([r["html"] for r in rows], pa.binary()),
        }
    )
    got = _collect(host_link_graph(ray.data.from_arrow(t)))
    want = pd.DataFrame(
        {
            "src_host": ["a.example", "a.example", "b.example"],
            "dst_host": ["a.example", "b.example", "a.example"],
            "n_links": pd.Series([6, 6, 3], dtype="int64"),
        }
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_synth_pages_totals_match_byte_pattern(ray_session):
    """Independent exact ground truth: the synth corpus' links are all
    double-quoted A@/href in ASCII-transparent encodings, so a byte count
    of b'<a href=\"' is an oracle the DOM parser cannot share code with."""
    import ray.data

    from yomitoku_ray.functions.merge import _domain_of

    table = generate_pages_table(300)
    got = _collect(host_link_graph(ray.data.from_arrow(table)))
    assert (got["src_host"] == got["dst_host"]).all()  # relative links only

    want: dict[str, int] = {}
    for r in table.to_pylist():
        h = _domain_of(r["url"]).lower()
        want[h] = want.get(h, 0) + bytes(r["html"]).count(b'<a href="')
    got_map = dict(zip(got["src_host"], got["n_links"]))
    assert got_map == {h: n for h, n in want.items() if n}


def test_host_link_graph_returns_dataset(ray_session):
    """The edge list is hosts²-bounded, so it stays a Dataset for the
    caller to sink; nothing is collected on the driver."""
    import ray.data

    ds = host_link_graph(ray.data.from_arrow(generate_pages_table(20)))
    assert isinstance(ds, ray.data.Dataset)
    assert ds.columns() == ["src_host", "dst_host", "n_links"]

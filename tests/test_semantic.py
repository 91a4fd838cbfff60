"""Semantic table parser tests (grid/kv clustering, ids, views)."""

import json

from yomitoku_ray.oracle import parse_semantic_html_bytes


def parse(html: str):
    doc, err = parse_semantic_html_bytes(html.encode("utf-8"))
    assert err is None, err
    return doc


def test_grid_table():
    doc = parse(
        "<html><body><table>"
        "<tr><th>name</th><th>qty</th><th>price</th></tr>"
        "<tr><td>apple</td><td>3</td><td>120</td></tr>"
        "<tr><td>banana</td><td>5</td><td>80</td></tr>"
        "</table></body></html>"
    )
    assert len(doc.tables) == 1
    t = doc.tables[0]
    assert t.id == "t0"
    assert len(t.grids) == 1 and len(t.kv_items) == 0
    g = t.grids[0]
    assert g.id == "g0"
    assert (g.n_row, g.n_col) == (3, 3)
    rows = t.grids_to_dict()[0]["rows"]
    assert rows == [
        {"name": "apple", "qty": "3", "price": "120"},
        {"name": "banana", "qty": "5", "price": "80"},
    ]
    # header row excluded from data records; ids are c0.. in sorted order
    assert g.col_headers == [["c0"], ["c1"], ["c2"]]


def test_kv_table_with_key_paths():
    doc = parse(
        "<html><body><table>"
        "<tr><th>name</th><td>Taro</td></tr>"
        "<tr><th>address</th><td>Tokyo</td></tr>"
        "</table></body></html>"
    )
    t = doc.tables[0]
    assert len(t.kv_items) == 2 and len(t.grids) == 0
    kv = t.kv_items_to_dict()
    assert kv == {"name": "Taro", "address": "Tokyo"}
    # kv ids assigned by value-cell y order
    assert [item.id for item in t.kv_items] == ["kv0", "kv1"]


def test_nested_header_key_path():
    doc = parse(
        "<html><body><table>"
        "<tr><th>contact</th><th>phone</th><td>03-1111</td></tr>"
        "<tr><th>contact</th><th>fax</th><td>03-2222</td></tr>"
        "</table></body></html>"
    )
    kv = doc.tables[0].kv_items_to_dict()
    assert kv == {"contact_phone": "03-1111", "contact_fax": "03-2222"}


def test_duplicate_keys_get_index_suffix():
    doc = parse(
        "<html><body><table>"
        "<tr><th>item</th><td>first</td></tr>"
        "<tr><th>item</th><td>second</td></tr>"
        "</table></body></html>"
    )
    kv = doc.tables[0].kv_items_to_dict()
    assert kv == {"item_0": "first", "item_1": "second"}


def test_degenerate_table_demoted_to_paragraph():
    doc = parse(
        "<html><body><p>intro text</p><table><tr><td>only</td></tr></table></body></html>"
    )
    assert len(doc.tables) == 0
    assert any(p.id and p.id.startswith("p") for p in doc.paragraphs)


def test_grid_with_span_cell():
    doc = parse(
        "<html><body><table>"
        "<tr><th>a</th><th>b</th><th>c</th></tr>"
        '<tr><td rowspan="2">big</td><td>x</td><td>y</td></tr>'
        "<tr><td>z</td><td>w</td></tr>"
        "</table></body></html>"
    )
    t = doc.tables[0]
    assert len(t.grids) == 1
    g = t.grids[0]
    assert g.n_row == 3 and g.n_col == 3
    # span cell occupies two rows in the data matrix
    big_id = [cid for cid, c in t.cells.items() if c.contents == "big"][0]
    col0 = [row[0] for row in g.data]
    assert col0.count(big_id) == 2


def test_cell_queries_and_adjacency_search():
    doc = parse(
        "<html><body><table>"
        "<tr><th>total</th><td>9 9 9</td></tr>"
        "<tr><th>date</th><td>2024-01-02</td></tr>"
        "</table></body></html>"
    )
    t = doc.tables[0]
    hits = t.search_cells_by_query("total")
    assert len(hits) == 1
    right = t.search_cells_right_of_key_text("total")
    assert any(c.contents == "999" for c in right)  # aggregate strips spaces
    kvs = doc.search_kv_items_by_key("date")
    assert kvs and kvs[0]["value"].contents == "2024-01-02"


def test_multi_table_cell_id_offsets():
    doc = parse(
        "<html><body>"
        "<table><tr><th>k</th><td>v</td></tr><tr><th>j</th><td>w</td></tr></table>"
        "<p>between</p>"
        "<table><tr><th>x</th><th>y</th></tr><tr><td>1</td><td>2</td></tr>"
        "<tr><td>3</td><td>4</td></tr></table>"
        "</body></html>"
    )
    assert [t.id for t in doc.tables] == ["t0", "t1"]
    ids0 = set(doc.tables[0].cells)
    ids1 = set(doc.tables[1].cells)
    assert not (ids0 & ids1)  # cell-id offset continues across tables
    all_ids = sorted(int(i[1:]) for i in (ids0 | ids1))
    assert all_ids == list(range(len(all_ids)))


def test_tbody_groups_drive_kv_clusters():
    doc = parse(
        "<html><body><table>"
        "<tbody><tr><th>k1</th><td>v1</td></tr></tbody>"
        "<tbody><tr><th>k2</th><td>v2</td></tr></tbody>"
        "</table></body></html>"
    )
    t = doc.tables[0]
    kv = t.kv_items_to_dict()
    assert kv == {"k1": "v1", "k2": "v2"}
    assert any(c.role == "group" for c in t.cells.values())


def test_semantic_document_dump_roundtrip():
    doc = parse(
        "<html><body><table><tr><th>a</th><td>1</td></tr>"
        "<tr><th>b</th><td>2</td></tr></table></body></html>"
    )
    dumped = doc.dump()
    s = json.dumps(dumped, ensure_ascii=False, sort_keys=True)
    assert "kv_items" in s and "grids" in s


def _reference_weak_clusters(nodes):
    """The reference's clustering DAG built pair by pair with the scalar
    predicates and a dict graph (table_semantic_parser.py:84-187)."""
    from yomitoku_ray.kernels.geometry import is_bottom_adjacent, is_right_adjacent
    from yomitoku_ray.kernels.graph import LabeledDiGraph

    H, C, E = nodes["header"], nodes["cell"], nodes["empty"]
    dag = LabeledDiGraph()
    for n in H + C + E:
        dag.add_node(n.id)
    for h in H:
        for c in C + E:
            if is_bottom_adjacent(h.box, c.box, rule="nest") or is_right_adjacent(h.box, c.box):
                dag.add_edge(h.id, c.id, dir="D")
        for h2 in H:
            if h2.id == h.id:
                continue
            if is_right_adjacent(h.box, h2.box):
                dag.add_edge(h.id, h2.id, dir="D")
            if is_bottom_adjacent(h.box, h2.box, rule="child"):
                dag.add_edge(h.id, h2.id, dir="nest")
    single = [(u, dag.succ_by(u, "nest")) for u in dag.nodes]
    dag.remove_edges_from([(u, outs[0]) for u, outs in single if len(outs) == 1])
    for c1 in C + E:
        for c2 in C + E:
            if c1.id != c2.id and (
                is_right_adjacent(c1.box, c2.box) or is_bottom_adjacent(c1.box, c2.box, rule="hard")
            ):
                dag.add_edge(c1.id, c2.id, dir="D")
    for e in E:
        for h in H:
            if is_bottom_adjacent(e.box, h.box, rule="hard") or is_right_adjacent(e.box, h.box, rule="hard"):
                dag.add_edge(e.id, h.id, dir="D")
    return [sorted(comp) for comp in dag.weakly_connected_components()], single


def test_weak_clusters_match_the_dict_graph_reference():
    """Union-find over the sliced matrices gives the reference's components,
    in its order, on jittered lattices with spanning, nested and
    overlapping headers."""
    import random

    from yomitoku_ray.semantic.parser import TableAdjacency, _split_nodes_with_role, _weakly_cluster_nodes
    from yomitoku_ray.semantic.schemas import SemanticCell

    r = random.Random(5)
    n_single = n_multi = 0
    for t in range(150):
        cells = []
        for row in range(r.randint(2, 5)):
            col = 0
            while col < 4:
                span = r.choice((1, 1, 1, 2))
                if r.random() < 0.15:
                    # a header strip nested under the cell above (child rule)
                    span, height = 1, 10
                else:
                    height = 30
                x1, y1 = 60 * col + r.randint(0, 8), 40 * row + r.randint(0, 8)
                box = [x1, y1, x1 + 60 * span - 12 + r.randint(-4, 4), y1 + height]
                role = r.choice(("header", "header", "cell", "empty"))
                cells.append(SemanticCell(contents=None, role=role, id=f"x{len(cells)}", box=box))
                col += span
        for c in r.sample(cells, 2):
            # a header over another box's lower-right corner: both soft-right
            # and child-below of it, so the label overwrite decides the edge
            x2, y2 = c.box[2], c.box[3]
            cells.append(SemanticCell(contents=None, role="header", id=f"x{len(cells)}", box=[x2 - 12, y2 - 4, x2, y2 + 20]))
        r.shuffle(cells)
        nodes = _split_nodes_with_role(cells)
        want, single = _reference_weak_clusters(nodes)
        got = _weakly_cluster_nodes(nodes, TableAdjacency(nodes["header"] + nodes["cell"] + nodes["empty"]))
        assert [sorted(n.id for n in g) for g in got] == want, t
        n_single += any(len(outs) == 1 for _, outs in single)
        n_multi += any(len(outs) > 1 for _, outs in single)
    # the layouts reach both sides of the single-nest-edge drop
    assert n_single > 10 and n_multi > 0, (n_single, n_multi)

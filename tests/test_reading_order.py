"""Reading-order DFS tests on hand-built layouts."""

import yomitoku_ray.kernels.reading_order as ro
from yomitoku_ray.kernels.reading_order import prediction_reading_order
from yomitoku_ray.models import Paragraph


def para(box):
    return Paragraph(box=box, contents="", direction="horizontal", order=0)


def orders(elements):
    return [e.order for e in elements]


def test_single_column_top2bottom():
    elems = [para([10, 300, 200, 340]), para([10, 10, 200, 50]), para([10, 150, 200, 190])]
    prediction_reading_order(elems, "top2bottom")
    ranked = sorted(elems, key=lambda e: e.order)
    assert [e.box[1] for e in ranked] == [10, 150, 300]


def test_two_columns_top2bottom():
    # Left column should be fully read before the right column starts.
    left = [para([10, 10, 200, 50]), para([10, 100, 200, 140]), para([10, 200, 200, 240])]
    right = [para([300, 10, 500, 50]), para([300, 100, 500, 140])]
    elems = left + right
    prediction_reading_order(elems, "top2bottom")
    assert sorted(orders(left)) == [0, 1, 2]
    assert sorted(orders(right)) == [3, 4]


def test_right2left_vertical_pages():
    # Vertical Japanese: rightmost column first.
    cols = [para([500, 10, 540, 300]), para([300, 10, 340, 300]), para([100, 10, 140, 300])]
    prediction_reading_order(cols, "right2left")
    ranked = sorted(cols, key=lambda e: e.order)
    assert [e.box[0] for e in ranked] == [500, 300, 100]


def test_left2right():
    elems = [para([300, 10, 400, 50]), para([10, 10, 100, 50]), para([150, 10, 250, 50])]
    prediction_reading_order(elems, "left2right")
    ranked = sorted(elems, key=lambda e: e.order)
    assert [e.box[0] for e in ranked] == [10, 150, 300]


def test_short_lists_are_noop():
    one = [para([0, 0, 10, 10])]
    assert prediction_reading_order(one, "top2bottom") is one
    assert prediction_reading_order([], "top2bottom") == []


def test_all_orders_assigned_unique():
    import random

    r = random.Random(7)
    elems = [
        para([x, y, x + 80, y + 30])
        for x, y in ((r.randrange(0, 900), r.randrange(0, 1200)) for _ in range(40))
    ]
    prediction_reading_order(elems, "top2bottom")
    assert sorted(orders(elems)) == list(range(40))


def test_small_graph_twin_matches_numpy_exhaustively():
    """The pure-python small-n graph build must produce bit-identical
    edges/distances/order to the vectorized path for every mode."""
    import numpy as np

    from yomitoku_ray.kernels.graph import Node
    from yomitoku_ray.kernels import reading_order as ro

    rng = np.random.RandomState(99)

    def build(n_nodes, direction, force_numpy):
        boxes = []
        for _ in range(n_nodes):
            x1 = int(rng.randint(0, 300)); y1 = int(rng.randint(0, 300))
            boxes.append([x1, y1, x1 + int(rng.randint(5, 80)), y1 + int(rng.randint(5, 60))])
        nodes = [Node(i, {"box": list(b)}) for i, b in enumerate(boxes)]
        if force_numpy:
            saved = ro._SMALL_GRAPH_N
            ro._SMALL_GRAPH_N = -1
            try:
                ro._build_graph(nodes, direction)
            finally:
                ro._SMALL_GRAPH_N = saved
        else:
            ro._build_graph(nodes, direction)
        edges = sorted((n.id, c.id) for n in nodes for c in n.children)
        dists = [n.prop["distance"] for n in nodes]
        order = ro._priority_dfs(nodes, direction)
        return boxes, edges, dists, order

    for direction in ("top2bottom", "right2left", "left2right"):
        for n_nodes in (1, 2, 3, 4, 6, 9, 10):
            for trial in range(30):
                state = rng.get_state()
                b1, e1, d1, o1 = build(n_nodes, direction, force_numpy=False)
                rng.set_state(state)
                b2, e2, d2, o2 = build(n_nodes, direction, force_numpy=True)
                assert b1 == b2
                assert e1 == e2, (direction, n_nodes, trial, b1)
                assert d1 == d2, (direction, n_nodes, trial, b1)
                assert o1 == o2, (direction, n_nodes, trial, b1)


def test_chain_fast_path_bit_identity():
    """_chain_order must agree with the full graph+DFS path exactly on
    every configuration it accepts (random chains and random layouts)."""
    import numpy as np

    import yomitoku_ray.kernels.reading_order as ro

    class El:
        __slots__ = ("box", "order")

        def __init__(s, b):
            s.box = list(b)
            s.order = -1

    def full_order(boxes, d):
        nodes = [ro.Node(i, {"box": list(b)}) for i, b in enumerate(boxes)]
        ro._build_graph(nodes, d)
        return ro._priority_dfs(nodes, d)

    rng = np.random.default_rng(5)
    n_chains = 0
    for trial in range(1200):
        n = int(rng.integers(2, 12))
        d = ["top2bottom", "left2right", "right2left"][trial % 3]
        boxes = []
        if trial % 4 == 0:  # deliberate chain
            pos = 0
            for _ in range(n):
                w = int(rng.integers(5, 60))
                if d == "top2bottom":
                    boxes.append(
                        [int(rng.integers(0, 30)), pos,
                         int(rng.integers(100, 200)), pos + w]
                    )
                else:
                    y1 = int(rng.integers(0, 5))
                    boxes.append([pos, y1, pos + w, y1 + int(rng.integers(20, 26))])
                pos += w + int(rng.integers(1, 20))
        else:  # random layout
            for _ in range(n):
                x1 = int(rng.integers(0, 200))
                y1 = int(rng.integers(0, 200))
                boxes.append(
                    [x1, y1, x1 + int(rng.integers(5, 80)), y1 + int(rng.integers(5, 40))]
                )
        chain = ro._chain_order([El(b) for b in boxes], d)
        if chain is None:
            continue
        n_chains += 1
        assert list(chain) == list(full_order(boxes, d)), (d, boxes)
    assert n_chains > 200  # the fast path must actually trigger


def test_reading_order_matches_frozen_goldens():
    """60 frozen layouts recorded while the scalar reference port and the
    vectorized builder were parity-verified side by side."""
    import json, os

    path = os.path.join(os.path.dirname(__file__), "data", "reading_order_golden.json")
    for case in json.load(open(path)):
        elems = [
            Paragraph(box=list(b), contents="", direction="horizontal", order=0)
            for b in case["boxes"]
        ]
        ro.prediction_reading_order(elems, case["direction"])
        assert [e.order for e in elems] == case["orders"], case["direction"]

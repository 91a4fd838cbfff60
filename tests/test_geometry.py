"""Geometry kernel unit tests (fixtures modeled on the reference's
tests/test_document_analyzer.py hand-built boxes)."""

from yomitoku_ray.kernels.geometry import (
    calc_intersection,
    calc_iou,
    calc_overlap_ratio,
    convert_table_array,
    convert_table_array_to_dict,
    gap_interval,
    is_bottom_adjacent,
    is_contained,
    is_intersected_horizontal,
    is_intersected_vertical,
    is_right_adjacent,
    quad_to_xyxy,
)
from yomitoku_ray.models import Table, TableCell


def test_calc_intersection():
    assert calc_intersection([0, 0, 10, 10], [5, 5, 15, 15]) == [5, 5, 10, 10]
    assert calc_intersection([0, 0, 10, 10], [10, 10, 20, 20]) is None
    assert calc_intersection([0, 0, 10, 10], [20, 20, 30, 30]) is None
    # int truncation
    assert calc_intersection([0.9, 0.9, 10.9, 10.9], [0, 0, 5, 5]) == [0, 0, 5, 5]


def test_overlap_ratio_and_containment():
    ratio, inter = calc_overlap_ratio([0, 0, 10, 10], [2, 2, 6, 6])
    assert ratio == 1.0 and inter == [2, 2, 6, 6]
    ratio, _ = calc_overlap_ratio([0, 0, 10, 10], [5, 0, 15, 10])
    assert ratio == 0.5
    assert is_contained([0, 0, 10, 10], [1, 1, 9, 9])
    assert not is_contained([0, 0, 10, 10], [5, 0, 16, 10])  # 50% < 0.8
    assert is_contained([0, 0, 10, 10], [5, 0, 16, 10], threshold=0.4)


def test_iou():
    assert calc_iou([0, 0, 10, 10], [0, 0, 10, 10]) == 1.0
    assert calc_iou([0, 0, 10, 10], [20, 20, 30, 30]) == 0
    assert abs(calc_iou([0, 0, 10, 10], [5, 0, 15, 10]) - 50 / 150) < 1e-12


def test_band_intersections():
    assert is_intersected_horizontal([0, 0, 10, 10], [20, 0, 30, 10])
    assert not is_intersected_horizontal([0, 0, 10, 10], [0, 9, 10, 30])
    assert is_intersected_vertical([0, 0, 10, 10], [5, 100, 15, 110])
    assert not is_intersected_vertical([0, 0, 10, 10], [10, 0, 20, 10])


def test_quad_to_xyxy():
    assert quad_to_xyxy([[1, 2], [5, 2], [5, 8], [1, 8]]) == (1, 2, 5, 8)


def test_gap_interval():
    assert gap_interval((0, 5), (7, 9)) == 2
    assert gap_interval((7, 9), (0, 5)) == 2
    assert gap_interval((0, 5), (3, 9)) == 0.0


def test_adjacency_soft_right():
    a = [0, 0, 100, 20]
    b = [105, 0, 200, 20]
    assert is_right_adjacent(a, b)
    assert not is_right_adjacent(b, a)  # direction constraint
    far = [200, 0, 300, 20]
    assert not is_right_adjacent(a, far)


def test_adjacency_bottom_rules():
    a = [0, 0, 100, 20]
    b = [0, 25, 100, 45]
    assert is_bottom_adjacent(a, b)
    assert is_bottom_adjacent(a, b, rule="hard")
    # child rule: nested left-aligned but not 1:1
    c = [0, 25, 40, 45]
    assert is_bottom_adjacent(a, c, rule="child")
    assert not is_bottom_adjacent(a, b, rule="child")


def test_convert_table_array_roundtrip():
    cells = [
        TableCell(col=1, row=1, col_span=1, row_span=1, box=[0, 0, 1, 1], contents="h1"),
        TableCell(col=2, row=1, col_span=1, row_span=1, box=[0, 0, 1, 1], contents="h2"),
        TableCell(col=1, row=2, col_span=2, row_span=1, box=[0, 0, 1, 1], contents="v"),
    ]
    t = Table(box=[0, 0, 10, 10], n_row=2, n_col=2, cells=cells)
    arr = convert_table_array(t)
    assert arr == [["h1", "h2"], ["v", "v"]]
    d = convert_table_array_to_dict(arr)
    assert d == [{"h1": "v", "h2": "v"}]


# ---------------------------------------------------------------------------
# Vectorized kernels: element-wise parity with the scalar predicates
# ---------------------------------------------------------------------------


import numpy as np


def _random_boxes(rng, n, big=200):
    x1 = rng.randint(0, big, n)
    y1 = rng.randint(0, big, n)
    w = rng.randint(1, 60, n)
    h = rng.randint(1, 40, n)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1).astype(float)


def _edge_case_boxes(rng):
    """Random boxes plus the shapes the shared planes must not get wrong:
    zero-height and zero-width boxes, a point, clones and touching copies."""
    A = _random_boxes(rng, 36)
    A[1] = [30, 40, 90, 40]  # zero height
    A[2] = [30, 40, 30, 80]  # zero width
    A[3] = [50, 50, 50, 50]  # a point
    A[5] = A[4] + [60, 0, 60, 0]
    A[6] = A[4] + [0, 40, 0, 40]
    A[7] = A[4]
    A[8] = A[1] + [0, 12, 0, 12]
    A[9] = A[2] + [12, 0, 12, 0]
    return A


def test_adjacency_matrices_match_scalar_exhaustive():
    """Every rule at both threshold sets, read from one AdjacencyPlanes per
    box pair set, equals the scalar predicate: square and rectangular, and
    a superset of what the semantic parsers read (TableAdjacency.RULES)."""
    from yomitoku_ray.kernels.geometry import is_bottom_adjacent, is_right_adjacent
    from yomitoku_ray.kernels.geometry_vec import AdjacencyPlanes
    from yomitoku_ray.semantic.parser import TableAdjacency

    rng = np.random.RandomState(7)
    A = _edge_case_boxes(rng)
    B = np.concatenate([A[::3], _random_boxes(rng, 9)])
    scalar = {"right": is_right_adjacent, "bottom": is_bottom_adjacent}
    rules = {"right": ("soft", "hard", "nest"), "bottom": ("soft", "hard", "nest", "child")}
    specs = [
        (axis, rule, dist, ratio, 10)
        for dist, ratio in ((15, 0.1), (20, 0.25))
        for axis in rules
        for rule in rules[axis]
    ]
    assert set(TableAdjacency.RULES.values()) <= set(specs)
    for X, Y in ((A, A), (A, B), (B, A)):
        planes = AdjacencyPlanes(X, Y)
        for axis, rule, dist, ratio, ignore in specs:
            M = planes.matrix(axis, rule, dist, ratio, ignore)
            assert M.shape == (len(X), len(Y))
            for i in range(len(X)):
                for j in range(len(Y)):
                    want = scalar[axis](
                        X[i], Y[j], rule=rule, dist_threshold=dist,
                        overlap_ratio_th=ratio, ignore_dist_threshold=ignore,
                    )
                    assert M[i, j] == want, (axis, rule, dist, i, j)


def test_overlap_ratio_matrix_matches_scalar():
    import numpy as _np

    from yomitoku_ray.kernels.geometry import calc_overlap_ratio
    from yomitoku_ray.kernels.geometry_vec import overlap_ratio_matrix

    rng = _np.random.RandomState(11)
    A = _random_boxes(rng, 30)
    B = _random_boxes(rng, 25)
    # float boxes exercise the truncate-intersection / raw-b_area asymmetry
    B[3] = [10.7, 11.2, 40.9, 30.4]
    A[2] = [10.0, 11.0, 41.0, 31.0]
    M = overlap_ratio_matrix(A, B)
    for i in range(len(A)):
        for j in range(len(B)):
            want, _ = calc_overlap_ratio(list(A[i]), list(B[j]))
            assert M[i, j] == want, (i, j, M[i, j], want)


def test_containment_filters_match_scalar_reference():
    """filter_contained_rectangles_{within,across}: the vectorized forms
    must keep exactly what the reference's scalar loops keep
    (layout_parser.py:28-74), incl. the mutual-containment area tie-break."""
    import numpy as _np

    from yomitoku_ray.analyze import (
        filter_contained_rectangles_across_categories,
        filter_contained_rectangles_within_category,
    )
    from yomitoku_ray.kernels.geometry import is_contained
    from yomitoku_ray.models import Element

    def scalar_within(elements):
        group_box = [e.box for e in elements]
        check = [True] * len(group_box)
        for i, bi in enumerate(group_box):
            for j, bj in enumerate(group_box):
                if i >= j:
                    continue
                ij = is_contained(bi, bj)
                ji = is_contained(bj, bi)
                ai = (bi[2] - bi[0]) * (bi[3] - bi[1])
                aj = (bj[2] - bj[0]) * (bj[3] - bj[1])
                if ij and ji:
                    check[j if ai > aj else i] = False
                elif ij:
                    check[j] = False
                elif ji:
                    check[i] = False
        return [e for e, f in zip(elements, check) if f]

    def scalar_across(src, tgt):
        check = [True] * len(tgt)
        for s in src:
            for j, t in enumerate(tgt):
                if is_contained(s.box, t.box):
                    check[j] = False
        return [t for t, f in zip(tgt, check) if f]

    rng = _np.random.RandomState(7)

    def rand_elems(n):
        out = []
        for _ in range(n):
            x1 = float(rng.randint(0, 60))
            y1 = float(rng.randint(0, 60))
            out.append(
                Element(
                    id=None,
                    box=[x1, y1, x1 + rng.randint(1, 50) + rng.rand(),
                         y1 + rng.randint(1, 50) + rng.rand()],
                    score=1.0,
                    role=None,
                )
            )
        return out

    for trial in range(40):
        elems = rand_elems(rng.randint(2, 18))
        # inject exact duplicates + nested boxes to force mutual containment
        if len(elems) >= 4 and trial % 2:
            elems[1].box = list(elems[0].box)
            b = elems[2].box
            elems[3].box = [b[0] + 1, b[1] + 1, b[2] - 0.5, b[3] - 0.5]
        want = [id(e) for e in scalar_within(list(elems))]
        got_map = filter_contained_rectangles_within_category(
            {"cat": list(elems)}
        )
        assert [id(e) for e in got_map["cat"]] == want

        src, tgt = rand_elems(rng.randint(0, 6)), rand_elems(rng.randint(0, 8))
        want2 = [id(e) for e in scalar_across(src, tgt)]
        got2 = filter_contained_rectangles_across_categories(
            {"s": list(src), "t": list(tgt)}, "s", "t"
        )
        assert [id(e) for e in got2["t"]] == want2


def test_table_adjacency_slices_equal_fresh_evaluations():
    """A consumer's slice of the table's matrix is the matrix a fresh
    evaluation over just its cells gives, for any subsets and order."""
    from types import SimpleNamespace

    from yomitoku_ray.kernels.geometry_vec import AdjacencyPlanes
    from yomitoku_ray.semantic.parser import TableAdjacency

    rng = np.random.RandomState(5)
    cells = [SimpleNamespace(box=list(b)) for b in _edge_case_boxes(rng)]
    adj = TableAdjacency(cells)
    rows, cols = cells[20:2:-3], cells[::4]
    boxes = lambda cs: np.asarray([c.box for c in cs])  # noqa: E731
    fresh = AdjacencyPlanes(boxes(rows), boxes(cols))
    for name, spec in TableAdjacency.RULES.items():
        (got,) = adj.sub(rows, cols, name)
        assert np.array_equal(got, fresh.matrix(*spec)), name
    assert adj.sub([], cols, "right_soft")[0].shape == (0, len(cols))


def test_semantic_parse_evaluates_adjacency_once_per_table(monkeypatch):
    """The semantic parser builds one AdjacencyPlanes per table and slices
    it everywhere else: no per-cluster or per-rule kernel call."""
    import os
    import sys

    from yomitoku_ray.kernels.geometry_vec import AdjacencyPlanes
    from yomitoku_ray.oracle import parse_semantic_html_bytes

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "ccbench"))
    import gen

    calls = []
    init = AdjacencyPlanes.__init__

    def counting_init(self, A, B):
        calls.append(len(A))
        init(self, A, B)

    monkeypatch.setattr(AdjacencyPlanes, "__init__", counting_init)
    rows, _ = gen.generate("semantic_tables", 7, 1)
    checked = 0
    for row in rows[:12]:
        calls.clear()
        doc, err = parse_semantic_html_bytes(row["html"])
        assert err is None
        if len(doc.tables) < 2:
            continue
        checked += 1
        assert 1 <= len(calls) <= len(doc.tables), (row["url"], calls)
    assert checked >= 3

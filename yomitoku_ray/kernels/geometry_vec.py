"""Vectorized all-pairs box-geometry kernels.

Batch (numpy) forms of the scalar predicates in ``geometry.py``; semantics
match ``/root/reference/src/yomitoku/utils/misc.py:35-427`` bit-for-bit:
every arithmetic step mirrors the scalar float64 operation order, so the
boolean matrices returned here agree element-wise with the scalar
``is_right_adjacent`` / ``is_bottom_adjacent`` / ``calc_overlap_ratio``
calls they replace (asserted exhaustively in tests/test_geometry.py).

These exist because the table/semantic parsers need adjacency over ALL cell
pairs: the scalar nested loop is O(n^2) Python calls per table. The parsers
read eight (axis, rule, thresholds) combinations, all from the same corner
distances, overlaps and point-to-edge distances, so ``AdjacencyPlanes``
computes those planes once per box set and derives each rule from them by
comparisons only; the semantic parser builds one per table and slices it
for every consumer (semantic/parser.py ``TableAdjacency``). On matrices of
a few dozen boxes numpy's per-call cost dominates, so the number of
evaluations, not their size, sets the cost.
"""

from __future__ import annotations

import numpy as np


def _pt_seg_v(px, py, x, y1, y2):
    """Distance from points (px, py) to vertical segments (x, y1)-(x, y2).

    Same op order as geometry.point_to_segment_distance with abx == 0 (the
    x-difference contributes exactly 0 to dot/denominator, cx == x exactly).
    Degenerate (zero-length) segments divide by a dummy 1 instead of 0 —
    the np.errstate context manager this replaces cost more than the whole
    kernel on the small matrices the parsers feed — and are overwritten
    with the exact point distance below, so results are unchanged.
    """
    aby = y2 - y1
    denom = aby * aby
    degen = denom == 0
    any_degen = bool(np.any(degen))
    apy = py - y1
    safe = np.where(degen, 1.0, denom) if any_degen else denom
    t = np.clip((apy * aby) / safe, 0.0, 1.0)
    cy = y1 + t * aby
    d = np.hypot(px - x, py - cy)
    if any_degen:
        d = np.where(degen, np.hypot(px - x, py - y1), d)
    return d


def _pt_seg_h(px, py, x1, x2, y):
    """Distance from points (px, py) to horizontal segments (x1, y)-(x2, y)."""
    abx = x2 - x1
    denom = abx * abx
    degen = denom == 0
    any_degen = bool(np.any(degen))
    apx = px - x1
    safe = np.where(degen, 1.0, denom) if any_degen else denom
    t = np.clip((apx * abx) / safe, 0.0, 1.0)
    cx = x1 + t * abx
    d = np.hypot(px - cx, py - y)
    if any_degen:
        d = np.where(degen, np.hypot(px - x1, py - y), d)
    return d


def _split_ab(A, B):
    """(n,4) x (m,4) -> broadcastable coordinate planes."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    ax1, ay1, ax2, ay2 = (A[:, k, None] for k in range(4))
    bx1, by1, bx2, by2 = (B[None, :, k] for k in range(4))
    return ax1, ay1, ax2, ay2, bx1, by1, bx2, by2


def _right_planes(ax1, ay1, ax2, ay2, bx1, by1, bx2, by2):
    """Shared planes of is_right_adjacent (misc.py:299-353): the ordering
    precondition, overlap amount and minimum extent, the two ignore and two
    hard corner distances, min(e1..e4) and e3."""
    # each call stacks the two points measured against one edge
    d1, d2 = _pt_seg_v(ax2, np.stack([ay1, ay2]), bx1, by1, by2)
    d3, d4 = _pt_seg_v(bx1, np.stack([by1, by2]), ax2, ay1, ay2)
    # right_edge_to_left_edge_dist returns (max(d1,d4), max(d2,d3),
    # max(d3,d4), max(d1,d2)) — the caller's e1..e4 are these maxima.
    e1 = np.maximum(d1, d4)
    e2 = np.maximum(d2, d3)
    e3 = np.maximum(d3, d4)
    e4 = np.maximum(d1, d2)
    return dict(
        pre=bx1 >= ax1,
        ov=np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1)),
        extent=np.minimum(ay2 - ay1, by2 - by1),
        ignore=(np.hypot(ax2 - bx1, ay2 - by1), np.hypot(ax2 - bx1, ay1 - by2)),
        corner=(np.hypot(ax2 - bx1, ay1 - by1), np.hypot(ax2 - bx1, ay2 - by2)),
        e_min=np.minimum(np.minimum(e1, e2), np.minimum(e3, e4)),
        e3=e3,
    )


def _bottom_planes(ax1, ay1, ax2, ay2, bx1, by1, bx2, by2):
    """Shared planes of is_bottom_adjacent (misc.py:356-427), same fields
    as ``_right_planes``."""
    d1, d2 = _pt_seg_h(np.stack([ax1, ax2]), ay2, bx1, bx2, by1)
    d3, d4 = _pt_seg_h(np.stack([bx1, bx2]), by1, ax1, ax2, ay2)
    e1 = np.maximum(d1, d4)
    e2 = np.maximum(d2, d3)
    e3 = np.maximum(d3, d4)
    e4 = np.maximum(d1, d2)
    return dict(
        pre=by1 >= ay1,
        ov=np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1)),
        extent=np.minimum(ax2 - ax1, bx2 - bx1),
        ignore=(np.hypot(ax2 - bx1, ay2 - by1), np.hypot(ax1 - bx2, ay2 - by1)),
        corner=(np.hypot(ax1 - bx1, ay2 - by1), np.hypot(ax2 - bx2, ay2 - by1)),
        e_min=np.minimum(np.minimum(e1, e2), np.minimum(e3, e4)),
        e3=e3,
    )


class AdjacencyPlanes:
    """Every adjacency rule over all (A[i], B[j]) pairs from one set of
    geometry planes.

    Each axis's planes are computed once, on first use; a rule at given
    thresholds is then only comparisons on them, and is kept, so asking
    twice costs nothing. Element-wise identical to
    geometry.is_right_adjacent / is_bottom_adjacent, including the bottom
    'child' rule (nested but not a strict corner match).
    """

    _PLANES = {"right": _right_planes, "bottom": _bottom_planes}

    def __init__(self, A, B):
        self._ab = _split_ab(A, B)
        self._planes = {}
        self._rules = {}

    def matrix(
        self,
        axis,
        rule="soft",
        dist_threshold=15,
        overlap_ratio_th=0.1,
        ignore_dist_threshold=10,
    ):
        """(n, m) bool: is B[j] adjacent to the ``axis`` side of A[i].
        The array is kept for the next caller: index it, do not write it."""
        key = (axis, rule, dist_threshold, overlap_ratio_th, ignore_dist_threshold)
        m = self._rules.get(key)
        if m is None:
            m = self._rules[key] = self._rule(*key)
        return m

    def _rule(self, axis, rule, dist, overlap_ratio_th, ignore):
        p = self._planes.get(axis)
        if p is None:
            p = self._planes[axis] = self._PLANES[axis](*self._ab)
        ok = p["pre"] & (p["ov"] >= overlap_ratio_th * p["extent"])
        ok &= (p["ignore"][0] >= ignore) & (p["ignore"][1] >= ignore)
        hard = (p["corner"][0] < dist) & (p["corner"][1] < dist)
        if rule == "hard":
            return ok & hard
        if rule == "soft":
            return ok & (p["e_min"] < dist)
        if rule == "nest":
            return ok & (p["e3"] < dist)
        if rule == "child" and axis == "bottom":
            return ok & ~hard & (p["e3"] < dist)
        raise ValueError(f"unknown rule {rule!r}")


def overlap_ratio_matrix(A, B):
    """(n, m) float: calc_overlap_ratio(A[i], B[j])[0] for every pair.

    Intersection coordinates are int-truncated exactly as
    geometry.calc_intersection does (misc.py:75-91); a pair with no
    intersection scores 0.0. ``B`` rows must have positive area whenever a
    positive intersection exists (guaranteed for boxes containing one).
    """
    A_raw = np.asarray(A, dtype=np.float64)
    B_raw = np.asarray(B, dtype=np.float64)
    Ai = np.trunc(A_raw).astype(np.int64)
    Bi = np.trunc(B_raw).astype(np.int64)
    ax1, ay1, ax2, ay2 = (Ai[:, k, None] for k in range(4))
    bx1, by1, bx2, by2 = (Bi[None, :, k] for k in range(4))
    iw = np.maximum(0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
    ih = np.maximum(0, np.minimum(ay2, by2) - np.maximum(ay1, by1))
    inter = (iw * ih).astype(np.float64)
    # Scalar parity: calc_intersection truncates the coords, but b_area is
    # computed from the RAW rect_b values (misc.py:40-42); pairs with an
    # empty truncated intersection return 0 early.
    b_area = (B_raw[None, :, 2] - B_raw[None, :, 0]) * (
        B_raw[None, :, 3] - B_raw[None, :, 1]
    )
    nz = (iw > 0) & (ih > 0)
    out = np.zeros(np.broadcast(inter, b_area).shape, dtype=np.float64)
    np.divide(
        inter, np.broadcast_to(b_area, out.shape), out=out, where=nz & (b_area != 0)
    )
    return out

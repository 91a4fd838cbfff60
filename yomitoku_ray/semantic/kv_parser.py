"""Key-value extraction over cell adjacency DAGs.

Re-implementation of the reference's KV semantics
(``/root/reference/src/yomitoku/kv_parser.py:14-345``): every header/cell is
assigned to its best-overlapping group region (N:1; orphans pool into a
pseudo-group), adjacency edges (R/L/D/U) form only within a group (or
touching the pseudo-group, for header-header), each weakly-connected cluster
votes a direction by which DFS from its root headers reaches more distinct
leaf cells, and unreached cells become keyless items. Behavior is pinned by
tests/test_semantic.py and the golden corpus; the code is organized around
two generic helpers (group assignment, pairwise edge wiring) instead of the
reference's per-role copies.
"""

from __future__ import annotations

from ..kernels.geometry import (
    calc_overlap_ratio,
    is_contained,
)
from ..kernels.graph import LabeledDiGraph
from .schemas import KvItem

PSEUDO_GROUP_ID = "__unmatched__"

# containment threshold for a node to be considered inside a group region
_GROUP_CONTAIN_TH = 0.2


def _best_group_assignment(items, groups) -> dict:
    """item.id -> group.id of the best-overlapping containing group (N:1).

    Matches kv_parser.py:31-57: containment@0.2 gate, then max overlap
    ratio of the node box against the group box wins.
    """
    assignment = {}
    for item in items:
        best_id, best_ratio = None, 0.0
        for group in groups:
            if not is_contained(group.box, item.box, threshold=_GROUP_CONTAIN_TH):
                continue
            ratio = calc_overlap_ratio(item.box, group.box)[0]
            if ratio > best_ratio:
                best_ratio, best_id = ratio, group.id
        if best_id is not None:
            assignment[item.id] = best_id
    return assignment


def match_groups(nodes, groups) -> dict:
    """Full group-matching bundle. Parity: kv_parser.py:14-91 — with zero
    groups the match is empty (and therefore the DAG gets no edges; group
    regions are load-bearing for KV extraction)."""
    match = {
        "header_to_group": {},
        "group_to_cells": {},
        "cell_to_group": {},
        "group_to_headers": {},
    }
    if not groups:
        return match

    cell_to_group = _best_group_assignment(nodes["cell"] + nodes["empty"], groups)
    header_to_group = _best_group_assignment(nodes["header"], groups)

    # Orphans pool into one pseudo-group so they can still link up.
    orphan_cells = [
        c.id for c in nodes["cell"] + nodes["empty"] if c.id not in cell_to_group
    ]
    orphan_headers = [h.id for h in nodes["header"] if h.id not in header_to_group]
    if orphan_cells or orphan_headers:
        cell_to_group.update({cid: PSEUDO_GROUP_ID for cid in orphan_cells})
        header_to_group.update({hid: PSEUDO_GROUP_ID for hid in orphan_headers})

    match["cell_to_group"] = cell_to_group
    match["header_to_group"] = header_to_group
    for cid, gid in cell_to_group.items():
        match["group_to_cells"].setdefault(gid, []).append(cid)
    for hid, gid in header_to_group.items():
        match["group_to_headers"].setdefault(gid, []).append(hid)
    return match


def _wire_pairs(dag, sources, targets, group_of_src, group_of_tgt, pseudo_ok, mats):
    """Add adjacency edges for same-group pairs.

    ``pseudo_ok``: also allow a pair when either side sits in the
    pseudo-group (the header-header rule, kv_parser.py:143-149).
    ``mats``: (right_matrix, bottom_matrix, index) over ALL nodes
    (default-threshold soft rules, bit-identical to the scalar
    is_right_adjacent / is_bottom_adjacent).
    """
    rgt, bot, idx = mats
    for src in sources:
        sg = group_of_src.get(src.id)
        if sg is None:
            continue
        si = idx[id(src)]
        for tgt in targets:
            if src.id == tgt.id:
                continue
            tg = group_of_tgt.get(tgt.id)
            if tg is None:
                continue
            same = sg == tg
            pseudo = pseudo_ok and (sg == PSEUDO_GROUP_ID or tg == PSEUDO_GROUP_ID)
            if same or pseudo:
                ti = idx[id(tgt)]
                if rgt[si, ti]:
                    dag.add_edge(src.id, tgt.id, dir="R")
                    dag.add_edge(tgt.id, src.id, dir="L")
                if bot[si, ti]:
                    dag.add_edge(src.id, tgt.id, dir="D")
                    dag.add_edge(tgt.id, src.id, dir="U")


def get_kv_items_dag(nodes, groups, adj):
    """Build the within-group adjacency DAG. Parity: kv_parser.py:199-229.

    Adjacency is the default-threshold soft-rule slice of the table's
    ``TableAdjacency`` ``adj``.
    """
    match = match_groups(nodes, groups)
    dag = LabeledDiGraph()
    all_nodes = nodes["header"] + nodes["cell"] + nodes["empty"]
    for node in all_nodes:
        dag.add_node(
            node.id, id=node.id, bbox=node.box, role=node.role, contents=node.contents
        )
    rgt, bot = adj.sub(all_nodes, all_nodes, "right_soft", "bottom_soft")
    mats = (rgt, bot, {id(n): i for i, n in enumerate(all_nodes)})
    h2g = match["header_to_group"]
    c2g = match["cell_to_group"]
    _wire_pairs(dag, nodes["header"], nodes["cell"], h2g, c2g, False, mats)
    _wire_pairs(dag, nodes["header"], nodes["empty"], h2g, c2g, False, mats)
    _wire_pairs(dag, nodes["header"], nodes["header"], h2g, h2g, True, mats)
    _wire_pairs(dag, nodes["cell"], nodes["cell"], c2g, c2g, False, mats)
    return dag


def _union_box(box1, box2):
    return [
        min(box1[0], box2[0]),
        min(box1[1], box2[1]),
        max(box1[2], box2[2]),
        max(box1[3], box2[3]),
    ]


def _root_headers(dag, direction, node_set):
    """Headers with no incoming ``direction`` edge from another header in
    the cluster. Parity: kv_parser.py:241-262; iteration is sorted so set
    order (PYTHONHASHSEED) cannot reach the output."""
    roots = []
    for h in sorted(node_set):
        if dag.nodes[h]["role"] != "header":
            continue
        shadowed = any(
            u in node_set and dag.nodes[u]["role"] == "header"
            for u in dag.pred_by(h, direction)
        )
        if not shadowed:
            roots.append(h)
    return roots


def _collect(dag, node_id, key_path, sink, cells, used, direction):
    """DFS from a root header along ``direction`` edges; a leaf (cell/empty)
    closes one KvItem whose key is the header path. Parity: :265-290."""
    node = dag.nodes[node_id]
    if node["role"] in ("cell", "empty"):
        keys = list(key_path)
        box = (
            _union_box(cells[node_id].box, cells[keys[0]].box)
            if keys
            else cells[node_id].box
        )
        sink.append(KvItem(id=None, key=keys, value=node_id, box=box))
        used[node_id] = cells[node_id]
        for k in keys:
            used[k] = cells[k]
        return
    deeper = key_path + [node_id]
    for nxt in dag.succ_by(node_id, direction):
        if nxt in deeper:
            continue
        _collect(dag, nxt, deeper, sink, cells, used, direction)


def parse_kv_items(clustered_nodes, nodes, cells, adj):
    """Per-cluster direction vote + DFS key-path collection.

    Parity: kv_parser.py:293-345 (losing direction's edges removed from the
    cluster; unreached cells become keyless items).
    """
    dag = get_kv_items_dag(clustered_nodes, nodes["group"], adj)

    kv_items = []
    kv_cells = {}

    for component in dag.weakly_connected_components():
        node_set = set(component)
        candidates = {}
        for direction in ("R", "D"):
            found, used = [], {}
            for root in _root_headers(dag, direction, node_set):
                _collect(dag, root, [], found, cells, used, direction)
            candidates[direction] = (found, used, len({kv.value for kv in found}))

        winner = "D" if candidates["D"][2] > candidates["R"][2] else "R"
        found, used, _ = candidates[winner]
        kv_items.extend(found)
        kv_cells.update(used)

        loser_dirs = ("D", "U") if winner == "R" else ("R", "L")
        dag.remove_edges_from(
            [
                (u, v)
                for u in node_set
                for v in dag.successors(u)
                if v in node_set and dag.edge_dir(u, v) in loser_dirs
            ]
        )

    reached = {kv.value for kv in kv_items}
    for cell in clustered_nodes["cell"] + clustered_nodes["empty"]:
        if cell.id not in reached:
            kv_items.append(KvItem(id=None, key=[], value=cell.id, box=cell.box))
            kv_cells[cell.id] = cells[cell.id]

    return kv_items, kv_cells

"""Grid reconstruction from a cell adjacency DAG (bottom-up).

Re-implementation of the reference's grid semantics
(``/root/reference/src/yomitoku/grid_parser.py:17-829``), behavior pinned by
the golden corpus (tests/data/semantic_raw_*.golden.json) and the semantic
suite. The algorithm: soft-adjacency DAG over cells -> unit-cell expansion
(a node with multiple same-direction neighbors splits into ``__dupN`` nodes
whose bboxes are the neighbor intervals clipped and repaired to a contiguous
cover) -> row/col line clusters from in-degree-0 heads -> id matrix ->
row/col/span assignment from matrix extents -> column headers from all-header
rows -> optional union-find merge of same-last-header columns.

The reference writes the row and column expansions as twin functions
(grid_parser.py:177-305 and :308-421); here both run through one
mode-parameterized traversal (``_MODES``) that reproduces each twin's exact
edge bookkeeping, including the reference's asymmetric backward-neighbor
lookup in the U mode (:341 — successors along D, not predecessors along U).
"""

from __future__ import annotations

from collections import deque
from itertools import count

import numpy as np

from ..kernels.geometry import is_bottom_adjacent, is_right_adjacent
from ..kernels.graph import LabeledDiGraph
from ..kernels.union_find import UnionFind
from .schemas import TableGrid

_ADJ_KW = dict(
    rule="soft", dist_threshold=20, ignore_dist_threshold=10, overlap_ratio_th=0.25
)


def get_line_with_head(dag, head, dir_value):
    """Nodes reachable from head via ``dir_value`` edges (BFS; duplicates
    allowed as in utils/misc.py:430-448)."""
    line_nodes = []
    queue = deque([head])
    while queue:
        u = queue.popleft()
        if u not in dag.nodes:
            continue
        line_nodes.append(u)
        queue.extend(dag.succ_by(u, dir_value))
    return line_nodes


def _get_grid_dag(nodes, adj):
    """Soft-adjacency DAG over cell/empty/header nodes (grid_parser.py:17-54).

    Adjacency is the (20, 0.25, 10) soft-rule slice of the table's
    ``TableAdjacency`` (bit-identical to the scalar predicates); the loop
    below runs only over the TRUE entries, in the exact (row-major,
    bottom-before-right) insertion order of the original nested-loop
    construction so downstream traversal order is unchanged.
    """
    dag = LabeledDiGraph()
    cells = nodes["cell"] + nodes["empty"] + nodes["header"]
    for cell in cells:
        dag.add_node(cell.id, bbox=cell.box, role=cell.role, contents=cell.contents)
    bot, rgt = adj.sub(cells, cells, "grid_bottom", "grid_right")
    np.fill_diagonal(bot, False)
    np.fill_diagonal(rgt, False)
    ids = [c.id for c in cells]
    for i, j in zip(*np.nonzero(bot | rgt)):
        if bot[i, j]:
            dag.add_edge(ids[i], ids[j], dir="D")
            dag.add_edge(ids[j], ids[i], dir="U")
        if rgt[i, j]:
            dag.add_edge(ids[i], ids[j], dir="R")
            dag.add_edge(ids[j], ids[i], dir="L")
    return dag


def _split_intervals(full_lo, full_hi, neighbor_intervals):
    """Clip neighbor intervals into [full_lo, full_hi] and repair them into a
    contiguous cover (grid_parser.py:79-113: overlaps clipped forward, last
    interval stretched to the end, zero-length gaps borrow 10% from the next)."""
    fixed = []
    cursor = full_lo
    for a, b in neighbor_intervals:
        a = max(max(full_lo, a), cursor)
        b = max(min(full_hi, b), a)
        fixed.append([a, b])
        cursor = b
    if fixed:
        fixed[-1][1] = full_hi
    for i in range(len(fixed)):
        a, b = fixed[i]
        if b - a <= 1e-3:
            if i + 1 < len(fixed) and fixed[i + 1][1] - fixed[i + 1][0] > 2e-3:
                take = (fixed[i + 1][1] - fixed[i + 1][0]) * 0.1
                fixed[i][1] = fixed[i][0] + take
                fixed[i + 1][0] = fixed[i][1]
    return fixed


def _split_bbox(G, u, neighbors, axis):
    """Split u's bbox along ``axis`` (1 = vertical split by y-intervals of
    right/left neighbors; 0 = horizontal split by x-intervals of down/up
    neighbors). Parity: grid_parser.py:57-174."""
    bbox = G.nodes[u]["bbox"]
    if not neighbors:
        return [tuple(bbox)]
    lo_idx, hi_idx = (1, 3) if axis == 1 else (0, 2)
    ordered = sorted(
        neighbors,
        key=lambda n: (G.nodes[n]["bbox"][lo_idx] + G.nodes[n]["bbox"][hi_idx]) / 2.0,
    )
    intervals = [
        (G.nodes[n]["bbox"][lo_idx], G.nodes[n]["bbox"][hi_idx]) for n in ordered
    ]
    fixed = _split_intervals(bbox[lo_idx], bbox[hi_idx], intervals)
    if axis == 1:
        x1, _, x2, _ = bbox
        return [(x1, a, x2, b) for a, b in fixed]
    _, y1, _, y2 = bbox
    return [(a, y1, b, y2) for a, b in fixed]


# Mode table for the unit-cell expansion traversal. Each mode describes:
#   fwd/bwd       : the flow edge label and how to find backward neighbors
#                   ("pred"/"succ", label) — note the U mode's successor-D
#                   quirk from the reference (:341)
#   axis          : bbox split axis (1 = y for row modes, 0 = x for col)
#   chain         : (dir, back) labels linking consecutive dup nodes
#   cross         : ((pred_label, first_dir, first_back),
#                    (succ_label, last_dir, last_back)) wiring of the first/
#                   last dup to the cross-axis neighbors of the original node
#   adjacent(G,b,d): backward-neighbor adjacency re-check for dup nodes
_MODES = {
    "R": dict(
        bwd=("pred", "R"),
        axis=1,
        chain=("D", "U"),
        cross=(("D", "U", "D"), ("D", "D", "U")),
        adjacent=lambda G, b, d: is_right_adjacent(
            G.nodes[b]["bbox"], G.nodes[d]["bbox"], **_ADJ_KW
        ),
        back="L",
    ),
    "L": dict(
        bwd=("pred", "L"),
        axis=1,
        chain=("D", "U"),
        cross=(("D", "U", "D"), ("D", "D", "U")),
        adjacent=lambda G, b, d: is_right_adjacent(
            G.nodes[d]["bbox"], G.nodes[b]["bbox"], **_ADJ_KW
        ),
        back="R",
    ),
    "D": dict(
        bwd=("pred", "D"),
        axis=0,
        chain=("R", "L"),
        cross=(("R", "L", "R"), ("R", "R", "L")),
        adjacent=lambda G, b, d: is_bottom_adjacent(
            G.nodes[b]["bbox"], G.nodes[d]["bbox"], **_ADJ_KW
        ),
        back="U",
    ),
    "U": dict(
        bwd=("succ", "D"),  # reference quirk: backward via D successors
        axis=0,
        chain=("R", "L"),
        cross=(("R", "L", "R"), ("R", "R", "L")),
        adjacent=lambda G, b, d: is_bottom_adjacent(
            G.nodes[d]["bbox"], G.nodes[b]["bbox"], **_ADJ_KW
        ),
        back="D",
    ),
}


def _neighbors(G, u, kind, label):
    if kind == "pred":
        return G.pred_by(u, label)
    return G.succ_by(u, label)


def _normalize_line(G, head, out_dir):
    """Split every multi-out node reachable from head into 1:1 dup nodes,
    in place.

    One traversal covering all four reference twins
    (grid_parser.py:177-305 rows, :308-421 cols).
    """
    mode = _MODES[out_dir]
    in_dir = mode["back"]
    queue = deque([head])
    dup_seq = count(1)

    while queue:
        u = queue.popleft()
        if u not in G.nodes:
            continue

        outs = _neighbors(G, u, "succ", out_dir)
        if len(outs) <= 1:
            queue.extend(outs)
            continue

        bwd_kind, bwd_label = mode["bwd"]
        outs_bwd = _neighbors(G, u, bwd_kind, bwd_label)
        (pre_label, first_dir, first_back), (post_label, last_dir, last_back) = mode["cross"]
        cross_prev = _neighbors(G, u, "pred", pre_label)
        cross_next = _neighbors(G, u, "succ", post_label)

        axis = mode["axis"]
        seg_bboxes = sorted(_split_bbox(G, u, outs, axis), key=lambda b: b[axis])
        outs = sorted(outs, key=lambda n: G.nodes[n]["bbox"][axis])

        base_attr = dict(G.nodes[u])
        dups = []
        for bb in seg_bboxes:
            name = f"{u}__dup{next(dup_seq)}"
            attr = dict(base_attr)
            attr["bbox"] = bb
            G.add_node(name, **attr)
            dups.append(name)

        for out, dup in zip(outs, dups):
            G.add_edge(dup, out, dir=out_dir)
            G.add_edge(out, dup, dir=in_dir)
        for p in cross_prev:
            G.add_edge(dups[0], p, dir=first_dir)
            G.add_edge(p, dups[0], dir=first_back)
        for p in cross_next:
            G.add_edge(dups[-1], p, dir=last_dir)
            G.add_edge(p, dups[-1], dir=last_back)
        chain_dir, chain_back = mode["chain"]
        for a, b in zip(dups, dups[1:]):
            G.add_edge(a, b, dir=chain_dir)
            G.add_edge(b, a, dir=chain_back)
        for bwd in outs_bwd:
            for dup in dups:
                if mode["adjacent"](G, bwd, dup):
                    G.add_edge(bwd, dup, dir=out_dir)
                    G.add_edge(dup, bwd, dir=in_dir)
                    queue.append(bwd)

        G.remove_node(u)
        queue.extend(dups)


def _expand_grid_to_unit(G):
    """Row expansion (R then L heads), then column expansion (D then U), in
    place. A direction's heads (``heads_by``: the in-degree-0 nodes of each
    component, grid_parser.py:457-490) are taken before its first split. A
    direction where no node branches is skipped: its traversals split
    nothing, so they cannot change the graph.

    Parity: grid_parser.py:424-454 + :493-523 + :562-567.
    """
    for out_dir in ("R", "L", "D", "U"):
        if G.branches_by(out_dir):
            for head in G.heads_by(out_dir):
                _normalize_line(G, head, out_dir)
    return G


def _get_grid_from_dag(dag):
    """Row/col line clusters -> id matrix (grid_parser.py:570-608)."""
    row_heads = sorted(dag.heads_by("R"), key=lambda n: dag.nodes[n]["bbox"][1])
    col_heads = sorted(dag.heads_by("D"), key=lambda n: dag.nodes[n]["bbox"][0])

    col_sets = []
    for c_head in col_heads:
        col_sets.append(set(get_line_with_head(dag, c_head, "D")))

    raw_data = []
    for r_head in row_heads:
        row_nodes = set(get_line_with_head(dag, r_head, "R"))
        row = []
        for col_nodes in col_sets:
            common = row_nodes & col_nodes
            # deterministic pick (the reference takes list(set)[0], which is
            # hash-seed dependent — unacceptable across Ray workers)
            row.append(sorted(common)[0] if common else None)
        raw_data.append(row)
    return raw_data


def _assign_cell_positions(cells, data):
    """row/col/span from matrix extents (grid_parser.py:526-559,611-619)."""
    extents = {}
    for r, row in enumerate(data):
        for c, cell_id in enumerate(row):
            if cell_id is None:
                continue
            e = extents.setdefault(cell_id, [r, r, c, c])
            e[0], e[1] = min(e[0], r), max(e[1], r)
            e[2], e[3] = min(e[2], c), max(e[3], c)
    for cell_id, (rmin, rmax, cmin, cmax) in extents.items():
        cell = cells[cell_id]
        cell.row, cell.col = rmin, cmin
        cell.row_span, cell.col_span = rmax - rmin + 1, cmax - cmin + 1


def _strip_dup_suffix(grid):
    """__dupN markers never reach output (grid_parser.py:622-632)."""
    return [
        [cid.split("__dup")[0] if cid is not None else None for cid in row]
        for row in grid
    ]


def _collect_col_headers(grid, is_header_row, cells, clustered_nodes):
    """Per-column header id lists from all-header rows; headers outside any
    header row demote to 'cell' (grid_parser.py:635-671)."""
    n_rows, n_cols = len(grid), len(grid[0])
    header_ids = set()
    col_headers = []
    for col_idx in range(n_cols):
        ids = {
            grid[r][col_idx]
            for r in range(n_rows)
            if is_header_row[r] and grid[r][col_idx] is not None
        }
        header_ids |= ids
        col_headers.append(sorted(sorted(ids), key=lambda h: cells[h].box[1]))

    in_cluster = {
        cell.id for cluster in clustered_nodes.values() for cell in cluster
    }
    for cell in cells.values():
        if cell.role == "header" and cell.id in in_cluster and cell.id not in header_ids:
            cell.role = "cell"
    return col_headers


def _grid_bbox(grid, cells):
    xs1, ys1, xs2, ys2 = [], [], [], []
    for row in grid:
        for cid in row:
            if cid is None:
                continue
            x1, y1, x2, y2 = cells[cid].box
            xs1.append(x1)
            ys1.append(y1)
            xs2.append(x2)
            ys2.append(y2)
    if not xs1:
        return (0.0, 0.0, 0.0, 0.0)
    return (min(xs1), min(ys1), max(xs2), max(ys2))


def merge_cells(cell1, cell2):
    """Union two cells (ids joined, boxes unioned, spans summed); subset ids
    short-circuit (grid_parser.py:698-730)."""
    ids1, ids2 = set(cell1.id.split("_")), set(cell2.id.split("_"))
    if ids1.issubset(ids2):
        return cell2, False
    if ids2.issubset(ids1):
        return cell1, False
    merged = type(cell1)(
        id=f"{cell1.id}_{cell2.id}",
        box=[
            min(cell1.box[0], cell2.box[0]),
            min(cell1.box[1], cell2.box[1]),
            max(cell1.box[2], cell2.box[2]),
            max(cell1.box[3], cell2.box[3]),
        ],
        role=cell1.role,
        contents=(cell1.contents + cell2.contents).strip(),
        row=min(cell1.row, cell2.row),
        col=min(cell1.col, cell2.col),
        row_span=cell1.row_span + cell2.row_span,
        col_span=cell1.col_span + cell2.col_span,
    )
    return merged, True


def _merge_same_column_values(grid, col_headers, cells):
    """Union-find columns whose LAST header id matches; concat their cells
    per row (grid_parser.py:733-784, off by default)."""
    uf = UnionFind(len(col_headers))
    for c1 in range(len(col_headers)):
        if not col_headers[c1]:
            continue
        for c2 in range(c1 + 1, len(col_headers)):
            if col_headers[c2] and col_headers[c1][-1] == col_headers[c2][-1]:
                uf.union(c1, c2)

    groups = uf.groups()
    new_col_headers = []
    for group in groups:
        merged_ids = sorted({h for c in group for h in col_headers[c]})
        new_col_headers.append(sorted(merged_ids, key=lambda h: cells[h].box[1]))

    new_grid = []
    for row in grid:
        new_row = []
        for group in groups:
            ids = [row[c] for c in group if row[c] is not None]
            if not ids:
                new_row.append(None)
                continue
            acc = cells[ids[0]]
            for cid in ids[1:]:
                acc, _ = merge_cells(acc, cells[cid])
            new_row.append(acc.id)
            cells[acc.id] = acc
        new_grid.append(new_row)

    kept = {cid for row in new_grid for cid in row if cid is not None}
    cells = {cid: cell for cid, cell in cells.items() if cid in kept}
    return new_grid, new_col_headers, cells


def parse_grid_from_bottom_up(cells, clustered_nodes, adj, merge_same_column_values=False):
    """Full grid parse for one cluster (grid_parser.py:787-829); ``adj`` is
    the table's ``TableAdjacency``."""
    dag = _expand_grid_to_unit(_get_grid_dag(clustered_nodes, adj))

    grid = _get_grid_from_dag(dag)
    if len(grid) == 0 or len(grid[0]) == 0:
        return None, None

    is_header_row = [
        all(
            (dag.nodes[cid]["role"] if cid is not None else "empty")
            in ("header", "empty")
            for cid in row
        )
        for row in grid
    ]

    grid = _strip_dup_suffix(grid)
    grid_box = list(map(int, _grid_bbox(grid, cells)))
    _assign_cell_positions(cells, grid)
    col_headers = _collect_col_headers(grid, is_header_row, cells, clustered_nodes)

    if merge_same_column_values:
        grid, col_headers, cells = _merge_same_column_values(grid, col_headers, cells)

    return (
        TableGrid(
            id=None,
            n_row=len(grid),
            n_col=len(grid[0]) if grid else 0,
            box=grid_box,
            data=grid,
            col_headers=col_headers,
        ),
        cells,
    )

"""Semantic form parsing: role clustering, grid-vs-KV classification, ids.

Port of the reference's TableSemanticParser deterministic core
(``/root/reference/src/yomitoku/table_semantic_parser.py:39-224,309-388,
471-541,624-741``). The neural CellDetector is replaced by the DOM cell
detector (``detect_cells_from_page``): ``th`` -> header, ``td`` with text ->
cell, empty ``td`` -> empty, each ``<tbody>`` of a multi-tbody table -> a
group region (the analogue of the reference's visual group class,
table_cell_detector.py:185-474).
"""

from __future__ import annotations

import numpy as np

from ..kernels.geometry import quad_to_xyxy
from ..kernels.geometry_vec import AdjacencyPlanes
from ..kernels.reading_order import prediction_reading_order
from ..kernels.union_find import UnionFind
from ..models import Paragraph
from .grid_parser import parse_grid_from_bottom_up
from .kv_parser import parse_kv_items
from .schemas import (
    SemanticDocument,
    SemanticParagraph,
    TableSemanticContents,
)


def _split_nodes_with_role(cells):
    """Parity: table_semantic_parser.py:39-55."""
    nodes = {"header": [], "group": [], "cell": [], "empty": []}
    for cell in cells:
        if cell.role not in nodes:
            nodes[cell.role] = []
        nodes[cell.role].append(cell)
    return nodes


class TableAdjacency:
    """Every adjacency rule the parsers use, over one table's value cells,
    from one kernels/geometry_vec.AdjacencyPlanes evaluation.

    Each consumer's cell sets are subsets of these cells and every rule
    depends only on the two boxes of a pair, so each consumer's matrix is
    exactly a submatrix: ``sub`` slices it by cell identity. Nothing
    rewrites a ``cell.box`` while a table is parsed (the grid's split boxes
    and merged cells are new objects).
    """

    # name -> (axis, rule, dist, overlap ratio, ignore dist). The weak
    # clustering, is_grid_cluster and the KV DAG use the reference's
    # defaults; the grid DAG uses soft adjacency at (20, 0.25, 10).
    RULES = {
        "right_soft": ("right", "soft", 15, 0.1, 10),
        "right_hard": ("right", "hard", 15, 0.1, 10),
        "bottom_soft": ("bottom", "soft", 15, 0.1, 10),
        "bottom_hard": ("bottom", "hard", 15, 0.1, 10),
        "bottom_nest": ("bottom", "nest", 15, 0.1, 10),
        "bottom_child": ("bottom", "child", 15, 0.1, 10),
        "grid_right": ("right", "soft", 20, 0.25, 10),
        "grid_bottom": ("bottom", "soft", 20, 0.25, 10),
    }

    def __init__(self, cells):
        self.row = {id(c): i for i, c in enumerate(cells)}
        boxes = np.asarray([c.box for c in cells], dtype=np.float64).reshape(-1, 4)
        self.planes = AdjacencyPlanes(boxes, boxes)

    def sub(self, A, B, *rules):
        """One (len(A), len(B)) bool matrix per rule name in ``rules``."""
        ix = np.ix_([self.row[id(c)] for c in A], [self.row[id(c)] for c in B])
        return [self.planes.matrix(*self.RULES[r])[ix] for r in rules]


def _get_cluster_nodes(clusters):
    """Role-split each cluster. Parity: table_semantic_parser.py:65-81.

    The reference iterates each component as a raw set (:75), an order that
    depends on PYTHONHASHSEED (each Ray worker has its own); nodes are taken
    in id order here so every process emits the same bytes.
    """
    clustered_nodes_list = []
    for cluster in clusters:
        clustered_nodes = {"header": [], "cell": [], "empty": []}
        for node in sorted(cluster, key=lambda c: c.id):
            clustered_nodes[node.role].append(node)
        clustered_nodes_list.append(clustered_nodes)
    return clustered_nodes_list


def _off_diagonal(m):
    np.fill_diagonal(m, False)
    return m


def _weakly_cluster_nodes(nodes, adj):
    """Weakly connected components of the reference's heuristic adjacency
    DAG (table_semantic_parser.py:84-187), as lists of nodes.

    Every edge rule is a slice of the table's ``TableAdjacency``; the
    components come from union-find over the edge index pairs, with the
    DAG's observable effects kept: a header-header pair whose last label is
    'nest' (child is added after soft, so it wins) is dropped when it is the
    header's only nest edge (:84-92); components are ordered by their first
    node in insertion order (headers, then cells, then empties).
    """
    H, C, E = nodes["header"], nodes["cell"], nodes["empty"]
    CE = C + E
    order = H + CE
    uf = UnionFind(len(order))

    def link(edges, row_off, col_off):
        rows, cols = np.nonzero(edges)
        for i, j in zip(rows.tolist(), cols.tolist()):
            uf.union(i + row_off, j + col_off)

    nh = len(H)
    nest, soft = adj.sub(H, CE, "bottom_nest", "right_soft")
    link(nest | soft, 0, nh)
    soft, child = (_off_diagonal(m) for m in adj.sub(H, H, "right_soft", "bottom_child"))
    single = child.sum(axis=1, keepdims=True) == 1
    link((soft | child) & ~(child & single), 0, 0)
    soft, hard = adj.sub(CE, CE, "right_soft", "bottom_hard")
    link(_off_diagonal(soft | hard), nh, nh)
    bot, rgt = adj.sub(E, H, "bottom_hard", "right_hard")
    link(bot | rgt, nh + len(C), 0)
    return [[order[i] for i in group] for group in uf.groups()]


def _count_edge_components(edges):
    """Connected-component count over ONLY the nodes incident to an edge of
    the boolean matrix (the nx.Graph(edge_list) semantics: isolates
    excluded)."""
    rows, cols = np.nonzero(edges)
    uf = UnionFind(len(edges))
    for i, j in zip(rows.tolist(), cols.tolist()):
        uf.union(i, j)
    return len({uf.find(i) for i in rows.tolist() + cols.tolist()})


def is_grid_cluster(nodes, adj):
    """Parity: table_semantic_parser.py:190-224.

    The reference builds a DiGraph where a later right-hard edge OVERWRITES
    a bottom-hard edge on the same ordered pair (single dir attr); the V
    subgraph therefore contains bottom-hard pairs that are NOT right-hard.
    """
    CE = nodes["cell"] + nodes["empty"]
    if not CE:
        return False
    rgt, bot = (_off_diagonal(m) for m in adj.sub(CE, CE, "right_hard", "bottom_hard"))
    return _count_edge_components(rgt) > 1 and _count_edge_components(bot & ~rgt) > 1


def sort_cells(cells, offset=0):
    """Sort by (y1 // min_height, x1), remap ids c0... Parity: :309-329."""
    cells = list(cells)
    if len(cells) == 0:
        return cells, {}

    min_height = min((cell.box[3] - cell.box[1]) for cell in cells)

    values = [c for c in cells if c.role in ["cell", "header", "empty"]]
    groups = [c for c in cells if c.role == "group"]

    values = sorted(values, key=lambda x: (x.box[1] // min_height, x.box[0]))
    groups = sorted(groups, key=lambda x: (x.box[1], x.box[0]))

    cells = values + groups
    remap_ids = {}
    for i, cell in enumerate(cells):
        new_id = f"c{str(i + offset)}"
        remap_ids[cell.id] = new_id
        cell.id = new_id
    return cells, remap_ids


def _sort_elements(elements, prefix="t"):
    """Parity: table_semantic_parser.py:332-342."""
    if len(elements) == 0:
        return elements
    min_height = min((e.box[3] - e.box[1]) for e in elements)
    elements = sorted(elements, key=lambda x: (x.box[1] // min_height, x.box[0]))
    for i, elem in enumerate(elements):
        elem.id = f"{prefix}{str(i)}"
    return elements


def _assign_ids(table_information, cell_offset=0):
    """Parity: table_semantic_parser.py:345-388."""
    for i, grid in enumerate(table_information["grids"]):
        grid.id = f"g{i}"
    for i, kv in enumerate(table_information["kv_items"]):
        kv.id = f"kv{i}"

    cells, remap_ids = sort_cells(
        table_information["cells"].values(), offset=cell_offset
    )
    table_information["cells"] = {cell.id: cell for cell in cells}

    for kv in table_information["kv_items"]:
        kv.key = [remap_ids[k] for k in kv.key]
        kv.value = remap_ids[kv.value]

    for grid in table_information["grids"]:
        grid.data = [
            [remap_ids[id] if id is not None else None for id in row]
            for row in grid.data
        ]
        grid.col_headers = [
            [remap_ids[ck] if ck is not None else None for ck in header]
            for header in grid.col_headers
        ]

    return cell_offset + len(cells)


def aggregate_cells(words, cells, overlap_th=0.2, word_boxes=None, word_boxes_np=None):
    """Best-overlap word->cell assignment + per-cell ordered join.

    Parity: table_semantic_parser.py:471-517 (note: cell text strips
    newlines and spaces at the edges, unlike the DocumentAnalyzer join).
    ``cells`` may be SemanticCells or paragraph Elements (anything with
    box/contents and not role 'group').

    The assignment is one broadcasted overlap-ratio matrix
    (kernels/geometry_vec.overlap_ratio_matrix, bit-identical to the scalar
    calc_overlap_ratio loop it replaced — the reference's per-word-per-cell
    nested loop was the top profile entry of the semantic pipeline).
    argmax picks the first maximal cell, matching the scalar strict-``>``
    first-winner rule.
    """
    import numpy as np
    from collections import defaultdict

    from ..kernels.geometry_vec import overlap_ratio_matrix

    cell_word_idxs = defaultdict(list)

    value_cells = [c for c in cells if c.role != "group"]
    if word_boxes is None:
        word_boxes = [quad_to_xyxy(w.points) for w in words]
    if value_cells and len(word_boxes):
        # (cells, words) ratio matrix; scalar loop order = cells inner.
        if word_boxes_np is None:
            word_boxes_np = np.asarray(word_boxes, dtype=np.float64)
        ratios = overlap_ratio_matrix(
            np.asarray([c.box for c in value_cells], dtype=np.float64),
            word_boxes_np,
        )
        best_idx = np.argmax(ratios, axis=0)  # first max == first strict-> winner
        best_ratio = ratios[best_idx, np.arange(len(word_boxes))]
        for w_i in range(len(words)):
            if best_ratio[w_i] < overlap_th or best_ratio[w_i] <= 0:
                continue
            cell_word_idxs[id(value_cells[best_idx[w_i]])].append(w_i)

    for cell in cells:
        idxs = cell_word_idxs.get(id(cell), [])
        if not idxs:
            cell.contents = ""
            continue
        if len(idxs) == 1:
            # single-word cell (the common case): reading order is the
            # identity and the join is the word itself — skip the
            # Paragraph/order/sort machinery (same bytes, ~noop cost)
            cell.contents = words[idxs[0]].content.replace("\n", "").strip()
            continue
        contained = [
            Paragraph(
                box=list(word_boxes[i]),
                contents=words[i].content,
                direction=words[i].direction,
                order=0,
                role=None,
            )
            for i in idxs
        ]
        dirs = [w.direction for w in contained]
        direction = (
            "horizontal"
            if dirs.count("horizontal") >= dirs.count("vertical")
            else "vertical"
        )
        order = "left2right" if direction == "horizontal" else "right2left"
        prediction_reading_order(contained, order)
        contained = sorted(contained, key=lambda x: x.order)
        text = "\n".join(w.contents for w in contained)
        cell.contents = text.replace("\n", "").strip()


def replace_table_to_paragraphs(tables, paragraphs):
    """Degenerate tables (<2 real cells) demoted to paragraphs.

    Parity: table_semantic_parser.py:519-540.
    """
    new_table_list = []
    for table in tables:
        cnt_cell = sum(1 for c in table["cells"] if c.role in ["cell", "header"])
        if cnt_cell < 2:
            paragraphs.append(
                SemanticParagraph(
                    id=None, box=list(table["box"]), contents="", score=1.0, role=None
                )
            )
        else:
            new_table_list.append(table)
    return new_table_list


def parse_semantic_tables(
    semantic_tables,
    words,
    paragraphs,
    merge_same_column_values=False,
) -> SemanticDocument:
    """Per-page semantic parse. Parity: table_semantic_parser.py:624-741.

    ``semantic_tables``: list of dicts {box, cells: list[SemanticCell]}
    (cells include group regions); ``paragraphs``: list[SemanticParagraph].
    """
    # Word boxes are table-independent: compute once per page, not once per
    # aggregate_cells call (the quad_to_xyxy-per-table repeat was a top
    # profile entry at 100k-page scale). The vectorized batch form plus a
    # single float64 view also hoists the per-table np.asarray conversion.
    from ..analyze import word_boxes_array

    wb_np = word_boxes_array(words)
    word_boxes = wb_np.tolist()
    wb_f = wb_np.astype(np.float64)
    for table in semantic_tables:
        aggregate_cells(words, table["cells"], word_boxes=word_boxes, word_boxes_np=wb_f)
    aggregate_cells(words, paragraphs, word_boxes=word_boxes, word_boxes_np=wb_f)

    semantic_tables = replace_table_to_paragraphs(semantic_tables, paragraphs)

    semantic_info = []
    cell_offset = 0
    for i, table in enumerate(semantic_tables):
        cells = {cell.id: cell for cell in table["cells"]}
        # The parsers key their graphs by cell id. The page's cell detector
        # numbers cells from one page-wide counter, so ids never repeat.
        assert len(cells) == len(table["cells"]), "cell ids repeat within a table"

        table_information = {
            "id": f"t{i}",
            "box": list(table["box"]),
            "cells": {},
            "style": "border",
            "kv_items": [],
            "grids": [],
        }

        nodes = _split_nodes_with_role(table["cells"])
        adj = TableAdjacency(nodes["header"] + nodes["cell"] + nodes["empty"])
        for clustered_nodes in _get_cluster_nodes(_weakly_cluster_nodes(nodes, adj)):
            if is_grid_cluster(clustered_nodes, adj):
                grid, grid_cells = parse_grid_from_bottom_up(
                    cells, clustered_nodes, adj, merge_same_column_values
                )
                if grid is None:
                    continue
                table_information["grids"].append(grid)
                table_information["cells"].update(grid_cells)
            else:
                kv_items, kv_cells = parse_kv_items(clustered_nodes, nodes, cells, adj)
                table_information["kv_items"].extend(kv_items)
                table_information["cells"].update(kv_cells)

        for cell in cells.values():
            if cell.id not in table_information["cells"]:
                table_information["cells"][cell.id] = cell

        table_information["kv_items"] = sorted(
            table_information["kv_items"],
            key=lambda kv: table_information["cells"][kv.value].box[1],
        )
        table_information["grids"] = sorted(
            table_information["grids"], key=lambda g: g.box[1]
        )
        for j, grid in enumerate(table_information["grids"]):
            grid.id = f"g{j}"
        for j, kv in enumerate(table_information["kv_items"]):
            kv.id = f"kv{j}"

        cell_offset = _assign_ids(table_information, cell_offset)
        semantic_info.append(TableSemanticContents(**table_information))

    semantic_info = _sort_elements(semantic_info, prefix="t")
    paragraphs = _sort_elements(paragraphs, prefix="p")

    return SemanticDocument(tables=semantic_info, paragraphs=paragraphs, words=words)

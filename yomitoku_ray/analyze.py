"""Per-document aggregation: words -> cells/paragraphs/figures + reading order.

Deterministic re-implementation of the reference DocumentAnalyzer's
post-model pipeline (``/root/reference/src/yomitoku/document_analyzer.py:
23-253,271-423,487-601``) and the table cell-grid construction
(``table_structure_recognizer.py:27-85``) / layout containment filters
(``layout_parser.py:28-74``). Everything here is a pure function over one
document's elements — in the Ray engine it runs inside ``map_batches`` per
row; the single-process oracle calls the same functions directly, which is
what makes byte-identity achievable.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .kernels.geometry import (
    calc_intersection,
    calc_overlap_ratio,
    filter_by_flag,
    is_contained,
    quad_to_xyxy,
)
from .kernels.reading_order import prediction_reading_order
from .models import Figure, Paragraph, TableCell

_RE_HIRAGANA_ONLY = re.compile(r"^[\u3040-\u309F]+$")
_RE_KATAKANA_ONLY = re.compile(r"^[\u30A0-\u30FF]+$")



# Degraded-mode ordering guard: the reading-order DFS is O(n^3) in elements
# (reading_order.py:123-198); beyond this budget we fall back to a
# deterministic lexicographic sort so one pathological web page cannot stall
# a worker. Shared by oracle and pipeline, so byte-identity is unaffected.
MAX_DFS_ELEMENTS = 400


def ordered_reading(elements, direction):
    if len(elements) > MAX_DFS_ELEMENTS:
        if direction == "right2left":
            key = lambda e: (-e.box[2], e.box[1])
        else:
            key = lambda e: (e.box[1], e.box[0])
        for i, e in enumerate(sorted(elements, key=key)):
            e.order = i
        return elements
    return prediction_reading_order(elements, direction)

def judge_page_direction(paragraphs):
    """Area-weighted horizontal/vertical vote. document_analyzer.py:23-40."""
    h_sum_area = 0
    v_sum_area = 0
    for paragraph in paragraphs:
        x1, y1, x2, y2 = paragraph.box
        area = (x2 - x1) * (y2 - y1)
        if paragraph.direction == "horizontal":
            h_sum_area += area
        else:
            v_sum_area += area
    if v_sum_area > h_sum_area:
        return "vertical"
    return "horizontal"


def extract_paragraph_within_figure(paragraphs, figures):
    """Assign paragraphs contained (@0.7) in figures. document_analyzer.py:43-66."""
    new_figures = []
    check_list = [False] * len(paragraphs)
    for figure in figures:
        fig_box = figure.box
        contained_paragraphs = []
        for i, paragraph in enumerate(paragraphs):
            if is_contained(fig_box, paragraph.box, threshold=0.7):
                contained_paragraphs.append(paragraph)
                check_list[i] = True

        direction = judge_page_direction(contained_paragraphs)
        reading_order = "left2right" if direction == "horizontal" else "right2left"
        figure_paragraphs = ordered_reading(contained_paragraphs, reading_order)
        new_figures.append(
            Figure(
                box=list(fig_box),
                order=0,
                direction=direction,
                paragraphs=sorted(figure_paragraphs, key=lambda x: x.order),
            )
        )
    return new_figures, check_list


def _mad_threshold(sizes):
    """MAD-based robust threshold fallback. document_analyzer.py:73-92."""
    sorted_sizes = sorted(sizes)
    n = len(sorted_sizes)
    median_s = sorted_sizes[n // 2]
    if median_s == 0:
        return None
    deviations = sorted(abs(s - median_s) for s in sizes)
    mad = deviations[n // 2]
    if mad == 0:
        return None
    threshold = median_s - 2 * mad
    if threshold <= 0:
        return None
    return threshold


def _compute_ruby_threshold(sizes, k):
    """Log-histogram valley split if bimodal (sep>=k), else MAD.

    Parity: document_analyzer.py:95-152.
    """
    n = len(sizes)
    if n < 3:
        return None

    log_sizes = [math.log(s) for s in sizes]
    num_bins = max(8, int(math.sqrt(n)))
    min_val = min(log_sizes)
    max_val = max(log_sizes)
    if max_val - min_val < 1e-9:
        return None

    bin_width = (max_val - min_val) / num_bins
    hist = [0] * num_bins
    for v in log_sizes:
        idx = int((v - min_val) / bin_width)
        if idx >= num_bins:
            idx = num_bins - 1
        hist[idx] += 1

    p1 = max(range(num_bins), key=lambda i: hist[i])

    p2 = None
    p2_val = -1
    for i in range(num_bins):
        if abs(i - p1) >= 2 and hist[i] > p2_val:
            p2 = i
            p2_val = hist[i]
    if p2 is None:
        return _mad_threshold(sizes)

    lo, hi = min(p1, p2), max(p1, p2)
    if hi - lo <= 1:
        return _mad_threshold(sizes)

    valley_range = range(lo + 1, hi)
    valley_val = min(hist[i] for i in valley_range)
    valley_bins = [i for i in valley_range if hist[i] == valley_val]
    valley = valley_bins[len(valley_bins) // 2]

    sep = (hist[p1] + hist[p2]) / (2 * valley_val + 1e-6)
    if sep >= k:
        t_log = min_val + (valley + 0.5) * bin_width
        return math.exp(t_log)
    return _mad_threshold(sizes)


def filter_ruby(contained_words, element_direction, ruby_threshold):
    """Drop small all-kana (furigana) words. document_analyzer.py:155-188."""
    if len(contained_words) <= 1:
        return contained_words

    sizes = []
    for word in contained_words:
        x1, y1, x2, y2 = word.box
        sizes.append(math.sqrt((x2 - x1) * (y2 - y1)))

    valid_sizes = [s for s in sizes if s > 0]
    if len(valid_sizes) < 2:
        return contained_words

    threshold = _compute_ruby_threshold(valid_sizes, ruby_threshold)
    if threshold is None:
        return contained_words

    filtered = []
    for word, s in zip(contained_words, sizes):
        if s > 0 and s < threshold:
            text = word.contents.replace(" ", "")
            if _RE_HIRAGANA_ONLY.match(text) or _RE_KATAKANA_ONLY.match(text):
                continue
        filtered.append(word)
    return filtered


def word_boxes_array(pred_words):
    """Precompute word AABBs once per document (numpy int64 Nx4).

    Vectorized quad_to_xyxy: int64 cast (C trunc) commutes with min/max
    (trunc is monotonic), so each row equals
    ``int64(quad_to_xyxy(w.points))`` exactly; non-quad point lists fall
    back to the scalar path.
    """
    if not pred_words:
        return np.zeros((0, 4), dtype=np.int64)
    try:
        q = np.asarray([w.points for w in pred_words], dtype=np.int64)
    except (ValueError, TypeError):
        return np.asarray(
            [quad_to_xyxy(w.points) for w in pred_words], dtype=np.int64
        )
    x, y = q[..., 0], q[..., 1]
    return np.stack([x.min(1), y.min(1), x.max(1), y.max(1)], axis=1)


def _contained_mask(element_box, boxes, threshold):
    """Vectorized ``is_contained(element_box, word_box, threshold)`` over all
    word boxes — exact integer replica of utils/misc.py:35-91 semantics
    (ratio strictly greater than threshold)."""
    ex1, ey1, ex2, ey2 = map(int, element_box)
    iw = np.minimum(boxes[:, 2], ex2) - np.maximum(boxes[:, 0], ex1)
    ih = np.minimum(boxes[:, 3], ey2) - np.maximum(boxes[:, 1], ey1)
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0)
    b_area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    # overlap_area / b_area > threshold  <=>  overlap_area > threshold*b_area
    return inter > threshold * b_area


def _contained_mask_matrix(element_boxes, word_boxes, threshold):
    """(E, N) batched form of :func:`_contained_mask` — one broadcasted
    evaluation of the same integer arithmetic for every (element, word)
    pair (row e is elementwise identical to
    ``_contained_mask(element_boxes[e], word_boxes, threshold)``)."""
    e = np.asarray(
        [[int(v) for v in b] for b in element_boxes], dtype=np.int64
    ).reshape(-1, 4)
    iw = np.minimum(word_boxes[None, :, 2], e[:, None, 2]) - np.maximum(
        word_boxes[None, :, 0], e[:, None, 0]
    )
    ih = np.minimum(word_boxes[None, :, 3], e[:, None, 3]) - np.maximum(
        word_boxes[None, :, 1], e[:, None, 1]
    )
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0)
    b_area = (word_boxes[:, 2] - word_boxes[:, 0]) * (
        word_boxes[:, 3] - word_boxes[:, 1]
    )
    return inter > threshold * b_area[None, :]


def extract_words_within_element(
    pred_words, element, ignore_ruby=False, ruby_threshold=2.0, word_boxes=None,
    mask=None,
):
    """Containment-join words into an element; order + join with newline.

    Parity: document_analyzer.py:191-237. Returns (joined_contents | None,
    direction | None, consumed-flags). ``word_boxes`` (numpy Nx4) lets the
    caller amortize the quad->AABB conversion across elements; ``mask``
    (numpy (N,) bool) additionally amortizes the containment test itself —
    a row of :func:`_contained_mask_matrix` over the same word_boxes.
    """
    if word_boxes is None:
        word_boxes = word_boxes_array(pred_words)

    if mask is None:
        mask = _contained_mask(element.box, word_boxes, 0.5)
    check_list = mask.tolist()
    contained_words = []
    for i in mask.nonzero()[0]:
        word = pred_words[i]
        contained_words.append(
            Paragraph(
                box=word_boxes[i].tolist(),
                contents=word.content,
                direction=word.direction,
                order=0,
                role=None,
            )
        )

    if len(contained_words) == 0:
        return None, None, check_list

    word_direction = [word.direction for word in contained_words]
    cnt_horizontal = word_direction.count("horizontal")
    cnt_vertical = word_direction.count("vertical")
    element_direction = "horizontal" if cnt_horizontal > cnt_vertical else "vertical"

    if ignore_ruby:
        contained_words = filter_ruby(
            contained_words, element_direction, ruby_threshold
        )
        if len(contained_words) == 0:
            return None, None, check_list

    order = "left2right" if element_direction == "horizontal" else "right2left"
    ordered_reading(contained_words, order)
    contained_words = sorted(contained_words, key=lambda x: x.order)
    joined = "\n".join(content.contents for content in contained_words)

    return joined, element_direction, check_list


def is_vertical(quad, thresh_aspect=2):
    """Quad aspect test (h > 2w). document_analyzer.py:240-245."""
    (x0, y0), (x1, y1), (x2, y2) = quad[0], quad[1], quad[2]
    width = math.hypot(x0 - x1, y0 - y1)
    height = math.hypot(x1 - x2, y1 - y2)
    return height > width * thresh_aspect


def is_noise(quad, thresh=15):
    """Tiny-box predicate (<15px side). document_analyzer.py:248-253."""
    (x0, y0), (x1, y1), (x2, y2) = quad[0], quad[1], quad[2]
    width = math.hypot(x0 - x1, y0 - y1)
    height = math.hypot(x1 - x2, y1 - y2)
    return width < thresh or height < thresh


# ---------------------------------------------------------------------------
# Table cell-grid construction (table_structure_recognizer.py:27-85)
# ---------------------------------------------------------------------------


def extract_cells(row_boxes, col_boxes):
    """Cartesian row-band x col-band intersection -> 1x1 cells.

    Parity: table_structure_recognizer.py:27-46.
    """
    cells = []
    for i, row_box in enumerate(row_boxes):
        for j, col_box in enumerate(col_boxes):
            intersection = calc_intersection(row_box, col_box)
            if intersection is None:
                continue
            cells.append(
                TableCell(
                    col=j + 1,
                    row=i + 1,
                    col_span=1,
                    row_span=1,
                    box=intersection,
                    contents=None,
                )
            )
    return cells


def filter_contained_cells_within_spancell(cells, span_boxes):
    """Merge unit cells covered by span boxes into one spanning cell.

    Parity: table_structure_recognizer.py:49-85.
    """
    check_list = [True] * len(cells)
    child_boxes = [[] for _ in range(len(span_boxes))]
    for i, span_box in enumerate(span_boxes):
        for j, sub_cell in enumerate(cells):
            if is_contained(span_box, sub_cell.box):
                check_list[j] = False
                child_boxes[i].append(sub_cell)

    cells = filter_by_flag(cells, check_list)

    for i, span_box in enumerate(span_boxes):
        child_box = child_boxes[i]
        if len(child_box) == 0:
            continue
        row = min(c.row for c in child_box)
        col = min(c.col for c in child_box)
        row_span = max(c.row for c in child_box) - row + 1
        col_span = max(c.col for c in child_box) - col + 1
        cells.append(
            TableCell(
                col=col,
                row=row,
                col_span=col_span,
                row_span=row_span,
                box=list(map(int, span_box)),
                contents=None,
            )
        )

    cells = sorted(cells, key=lambda x: (x.row, x.col))
    return cells


# ---------------------------------------------------------------------------
# Layout containment filters (layout_parser.py:28-74)
# ---------------------------------------------------------------------------


def filter_contained_rectangles_within_category(category_elements):
    """Within a category, drop boxes contained in another; mutual containment
    keeps the larger. Parity: layout_parser.py:28-58 (elements are objects
    with a ``box`` attribute here, dicts in the reference)."""
    from .kernels.geometry_vec import overlap_ratio_matrix

    for category, elements in category_elements.items():
        group_box = [element.box for element in elements]
        check_list = [True] * len(group_box)
        if len(group_box) >= 2:
            # One broadcasted ratio matrix replaces the O(n^2) scalar
            # is_contained loop; only the (sparse) containing pairs are
            # then resolved in Python. contained[i, j] == is_contained(
            # box_i, box_j) exactly (overlap_ratio_matrix is the pinned
            # bit-identical batch form); pair effects are flag clears,
            # so applying them in any order matches the scalar loop.
            contained = overlap_ratio_matrix(group_box, group_box) > 0.8
            pairs = np.argwhere(np.triu(contained | contained.T, k=1))
            for i, j in pairs:
                box_i, box_j = group_box[i], group_box[j]
                ij = contained[i, j]
                ji = contained[j, i]
                if ij and ji:
                    box_i_area = (box_i[2] - box_i[0]) * (box_i[3] - box_i[1])
                    box_j_area = (box_j[2] - box_j[0]) * (box_j[3] - box_j[1])
                    if box_i_area > box_j_area:
                        check_list[j] = False
                    else:
                        check_list[i] = False
                elif ij:
                    check_list[j] = False
                else:
                    check_list[i] = False
        category_elements[category] = filter_by_flag(elements, check_list)
    return category_elements


def filter_contained_rectangles_across_categories(category_elements, source, target):
    """Drop target-category boxes contained in source-category boxes.

    Parity: layout_parser.py:61-74.
    """
    from .kernels.geometry_vec import overlap_ratio_matrix

    src_boxes = [element.box for element in category_elements[source]]
    tgt_boxes = [element.box for element in category_elements[target]]

    if src_boxes and tgt_boxes:
        # check_list[j] = not any(is_contained(src, tgt_j)) — same batch
        # form as the within-category filter.
        contained = overlap_ratio_matrix(src_boxes, tgt_boxes) > 0.8
        check_list = (~contained.any(axis=0)).tolist()
    else:
        check_list = [True] * len(tgt_boxes)

    category_elements[target] = filter_by_flag(category_elements[target], check_list)
    return category_elements


# ---------------------------------------------------------------------------
# Word-onto-table-band splitting (document_analyzer.py:271-423), flag-gated
# ---------------------------------------------------------------------------


def _extract_words_within_table(points, scores, table, check_list):
    """Parity: document_analyzer.py:271-285 (det results as parallel lists)."""
    horizontal_words = []
    vertical_words = []
    for i, (pts, score) in enumerate(zip(points, scores)):
        word_box = quad_to_xyxy(pts)
        if is_contained(table.box, word_box, threshold=0.5):
            if is_vertical(pts):
                vertical_words.append({"points": pts, "score": score})
            else:
                horizontal_words.append({"points": pts, "score": score})
            check_list[i] = True
    return horizontal_words, vertical_words, check_list


def _calc_overlap_words_on_lines(lines, words):
    """Parity: document_analyzer.py:288-300."""
    overlap_ratios = [[0 for _ in lines] for _ in words]
    for i, word in enumerate(words):
        word_box = quad_to_xyxy(word["points"])
        for j, row in enumerate(lines):
            ratio, _ = calc_overlap_ratio(row.box, word_box)
            overlap_ratios[i][j] = ratio
    return overlap_ratios


def _correct_vertical_word_boxes(overlap_ratios_vertical, table, table_words_vertical):
    """Parity: document_analyzer.py:303-339."""
    allocated_cols = [cols.index(max(cols)) for cols in overlap_ratios_vertical]

    new_points = []
    new_scores = []
    for i, col_index in enumerate(allocated_cols):
        col_cells = [
            cell
            for cell in table.cells
            if cell.col <= (col_index + 1) < (cell.col + cell.col_span)
        ]
        word_point = table_words_vertical[i]["points"]
        word_score = table_words_vertical[i]["score"]

        for cell in col_cells:
            word_box = quad_to_xyxy(word_point)
            _, intersection = calc_overlap_ratio(cell.box, word_box)
            if intersection is not None:
                _, y1, _, y2 = intersection
                new_point = [
                    [word_point[0][0], max(word_point[0][1], y1)],
                    [word_point[1][0], max(word_point[1][1], y1)],
                    [word_point[2][0], min(word_point[2][1], y2)],
                    [word_point[3][0], min(word_point[3][1], y2)],
                ]
                if not is_noise(new_point):
                    new_points.append(new_point)
                    new_scores.append(word_score)
    return new_points, new_scores


def _correct_horizontal_word_boxes(
    overlap_ratios_horizontal, table, table_words_horizontal
):
    """Parity: document_analyzer.py:342-380."""
    allocated_rows = [rows.index(max(rows)) for rows in overlap_ratios_horizontal]

    new_points = []
    new_scores = []
    for i, row_index in enumerate(allocated_rows):
        row_cells = [
            cell
            for cell in table.cells
            if cell.row <= (row_index + 1) < (cell.row + cell.row_span)
        ]
        word_point = table_words_horizontal[i]["points"]
        word_score = table_words_horizontal[i]["score"]

        for cell in row_cells:
            word_box = quad_to_xyxy(word_point)
            _, intersection = calc_overlap_ratio(cell.box, word_box)
            if intersection is not None:
                x1, _, x2, _ = intersection
                new_point = [
                    [max(word_point[0][0], x1), word_point[0][1]],
                    [min(word_point[1][0], x2), word_point[1][1]],
                    [min(word_point[2][0], x2), word_point[2][1]],
                    [max(word_point[3][0], x1), word_point[3][1]],
                ]
                if not is_noise(new_point):
                    new_points.append(new_point)
                    new_scores.append(word_score)
    return new_points, new_scores


def split_text_across_cells(points, scores, tables):
    """Split detected word quads along table row/col bands.

    Parity: document_analyzer.py:383-423 (operates on parallel
    points/scores lists; returns new lists).
    """
    check_list = [False] * len(points)
    new_points = []
    new_scores = []
    for table in tables:
        words_h, words_v, check_list = _extract_words_within_table(
            points, scores, table, check_list
        )
        overlap_h = _calc_overlap_words_on_lines(table.rows, words_h)
        overlap_v = _calc_overlap_words_on_lines(table.cols, words_v)
        pts_h, sc_h = _correct_horizontal_word_boxes(overlap_h, table, words_h)
        pts_v, sc_v = _correct_vertical_word_boxes(overlap_v, table, words_v)
        new_points.extend(pts_h)
        new_scores.extend(sc_h)
        new_points.extend(pts_v)
        new_scores.extend(sc_v)

    for i, flag in enumerate(check_list):
        if not flag:
            new_points.append(points[i])
            new_scores.append(scores[i])

    return new_points, new_scores


# ---------------------------------------------------------------------------
# The page-level aggregate (document_analyzer.py:487-601)
# ---------------------------------------------------------------------------


def aggregate_document(
    words,
    paragraphs,
    tables,
    figures,
    reading_order="auto",
    ignore_meta=False,
    ignore_ruby=False,
    ruby_threshold=2.0,
):
    """Assemble a page: fill table cells, build paragraphs, promote leftover
    words, nest figure paragraphs, split header/content/footer, assign
    reading order. Parity: document_analyzer.py:487-601.

    Args:
        words: list[Word] (det ⋈ rec zip).
        paragraphs: list[Element] layout paragraph candidates (box/role).
        tables: list[Table] with cells already built (grid recon done).
        figures: list[Element] figure candidates.

    Returns a Document (models.Document).
    """
    from .models import Document

    out_paragraphs = []
    wboxes = word_boxes_array(words)
    # consumed-word flags: the scalar loop's combine_flags(check_list,
    # flags) ORs in exactly the element's containment mask row (the
    # returned flags are the pre-ruby-filter mask), so the accumulator can
    # OR the precomputed rows directly.
    check_list = np.zeros(len(words), dtype=bool)
    all_cells = [cell for table in tables for cell in table.cells]
    elem_masks = (
        _contained_mask_matrix(
            [e.box for e in all_cells] + [p.box for p in paragraphs], wboxes, 0.5
        )
        if (all_cells or paragraphs)
        else None
    )
    for k, cell in enumerate(all_cells):
        contents, direction, flags = extract_words_within_element(
            words, cell, ignore_ruby=ignore_ruby, ruby_threshold=ruby_threshold,
            word_boxes=wboxes, mask=elem_masks[k],
        )
        if contents is None:
            contents = ""
        cell.contents = contents
        check_list |= elem_masks[k]

    for k, paragraph in enumerate(paragraphs):
        contents, direction, flags = extract_words_within_element(
            words, paragraph, ignore_ruby=ignore_ruby, ruby_threshold=ruby_threshold,
            word_boxes=wboxes, mask=elem_masks[len(all_cells) + k],
        )
        if contents is None:
            continue
        check_list |= elem_masks[len(all_cells) + k]
        out_paragraphs.append(
            Paragraph(
                contents=contents,
                box=list(paragraph.box),
                direction=direction,
                order=0,
                role=paragraph.role,
            )
        )

    for i, word in enumerate(words):
        if not check_list[i]:
            out_paragraphs.append(
                Paragraph(
                    contents=word.content,
                    box=list(quad_to_xyxy(word.points)),
                    direction=word.direction,
                    order=0,
                    role=None,
                )
            )

    figures, fig_check = extract_paragraph_within_figure(out_paragraphs, figures)
    out_paragraphs = [
        paragraph for paragraph, flag in zip(out_paragraphs, fig_check) if not flag
    ]

    page_direction = judge_page_direction(out_paragraphs)

    headers = [
        p for p in out_paragraphs if p.role == "page_header" and not ignore_meta
    ]
    footers = [
        p for p in out_paragraphs if p.role == "page_footer" and not ignore_meta
    ]
    page_contents = [
        p for p in out_paragraphs if p.role is None or p.role == "section_headings"
    ]

    elements = page_contents + tables + figures

    ordered_reading(headers, "left2right")
    ordered_reading(footers, "left2right")

    if reading_order == "auto":
        reading_order = "right2left" if page_direction == "vertical" else "top2bottom"

    ordered_reading(elements, reading_order)

    for element in elements:
        element.order += len(headers)
    for footer in footers:
        footer.order += len(elements) + len(headers)

    out_paragraphs = headers + page_contents + footers
    out_paragraphs = sorted(out_paragraphs, key=lambda x: x.order)
    figures = sorted(figures, key=lambda x: x.order)
    tables = sorted(tables, key=lambda x: x.order)

    return Document(
        paragraphs=out_paragraphs,
        tables=tables,
        figures=figures,
        words=words,
    )

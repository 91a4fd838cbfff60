"""DOM -> detections: the deterministic analogue of the four model stages.

Maps a parsed HTML tree onto a virtual page and emits exactly the shapes the
reference's models produce:

- text-block detection + recognition -> ``Word`` quads with NFKC-normalized
  content and direction (analogue of DBNet + PARSeq,
  ``/root/reference/src/yomitoku/text_detector.py:99-146`` /
  ``text_recognizer.py:153-166`` — NFKC at recognition is load-bearing for
  byte-identity, ``text_recognizer.py:155``),
- region/role classification -> paragraph/figure ``Element``s with roles
  folded in (analogue of RT-DETRv2 layout parsing + label mapping,
  ``layout_parser.py:168-205``), with a link-density/text-density boilerplate
  classifier standing in for the learned model (the BASELINE.json north-star's
  "DOM-tree boilerplate classification"),
- table band detection -> ``Table`` rows/cols/spans + the reference's own
  cell-grid reconstruction (``table_structure_recognizer.py:27-85``).

Everything is a pure deterministic function of the HTML text, so the Ray
pipeline and the single-process oracle produce identical detections.
"""

from __future__ import annotations

import math
import re
import unicodedata
import zlib
from dataclasses import dataclass, field
from typing import List, Optional

from .analyze import (
    extract_cells,
    filter_contained_cells_within_spancell,
    filter_contained_rectangles_across_categories,
    filter_contained_rectangles_within_category,
)
from .dom import DomNode, parse_html
from .models import Element, Table, TableLine, Word

# Virtual page geometry (deterministic "rendering" constants).
PAGE_W = 1240
MARGIN = 40
CONTENT_W = PAGE_W - 2 * MARGIN
BLOCK_GAP = 16
WORD_GAP = 6
LINE_LEADING = 6
CELL_PAD = 8

# Font metrics per role: (char_width_fullwidth, char_height)
FONT = {
    "base": (16, 24),
    "h1": (32, 44),
    "h2": (28, 38),
    "h3": (24, 32),
    "meta": (14, 20),  # page_header / page_footer
    "ruby": (8, 10),
}

HEADING_TAGS = {"h1": "h1", "h2": "h2", "h3": "h3", "h4": "h3", "h5": "h3", "h6": "h3"}
CONTAINER_TAGS = {
    "body", "div", "section", "article", "main", "ul", "ol", "blockquote",
    "dl", "span",
}
LEAF_TAGS = {"p", "li", "figcaption", "pre", "dt", "dd", "caption"}
SKIP_TAGS = {"head", "script", "style", "template", "noscript", "#comment"}

_CJK = re.compile(
    r"[　-ヿ㐀-䶿一-鿿豈-﫿＀-￯]"
)


def _char_width(ch: str, full_w: int) -> int:
    if ord(ch) > 0xFF:
        return full_w
    return max(1, int(full_w * 0.6))


def _token_width(token: str, full_w: int) -> int:
    """Sum of per-char widths: full width above U+00FF, 0.6x below.

    Counted via latin-1 encode (C speed) instead of a per-char Python
    loop: narrow chars are exactly the code points latin-1 can encode.
    Arithmetic identical to sum(_char_width(c, full_w) for c in token)
    (parity asserted in tests/test_oracle.py).
    """
    n_narrow = len(token.encode("latin-1", errors="ignore"))
    return (len(token) - n_narrow) * full_w + n_narrow * max(1, int(full_w * 0.6))


def _pseudo_score(token: str, salt: int) -> float:
    """Deterministic stand-in for a model confidence in [0.80, 1.00)."""
    h = zlib.crc32((token + chr(48 + salt)).encode("utf-8"))
    return 0.80 + (h % 10000) / 50000.0


# -- orientation fallback (M5) ----------------------------------------------
# Analogue of the reference's low-confidence 180-degree re-recognition
# (text_recognizer.py:194-225): there, a word cropped upside-down decodes as
# garbage below rec_orientation_fallback_thresh (0.75), the crop is rotated
# and re-run, and the better-scoring decode wins. The DOM recognizer's
# upside-down analogue is flip-text (Unicode upside-down glyphs, the
# rendered form of 180-degree-rotated Latin): such words score below the
# threshold, the retry decode un-rotates them (reverse + glyph map), and
# keep-the-better-rescore applies verbatim. Clean decodes score >= 0.80 and
# never enter the retry path, exactly like a well-oriented crop.

REC_ORIENTATION_FALLBACK_THRESH = 0.75  # cfg_text_recognizer_parseq.py:47

# Distinctive upside-down glyphs (never produced by NFKC-normalized clean
# text); their presence marks a low-confidence "rotated" decode.
_FLIP_MARKS = "ɐɔǝɟƃɥᴉɾʞɯɹʇʌʍʎ�"
_FLIP_RE = re.compile(f"[{_FLIP_MARKS}]")

# 180-degree decode map: flip glyph -> upright letter, plus the ASCII pairs
# that rotate onto each other (safe to include: clean words never retry).
_ROT180 = str.maketrans(
    "ɐɔǝɟƃɥᴉɾʞɯɹʇʌʍʎnubqdp69",
    "acefghijkmrtvwyunqbpd96",
)


def _rec_score(content: str, salt: int) -> float:
    """Recognition confidence: clean decodes in [0.80, 1.00), rotated/
    mojibake-marked decodes in [0.50, 0.75) — below the fallback gate."""
    if _FLIP_RE.search(content):
        h = zlib.crc32((content + chr(48 + salt)).encode("utf-8"))
        return 0.50 + (h % 10000) / 40000.0
    return _pseudo_score(content, salt)


def _rotate180_decode(content: str) -> str:
    """Re-decode a word as if its crop were rotated 180 degrees."""
    return content[::-1].translate(_ROT180)


def apply_orientation_fallback(
    words, thresh: float = REC_ORIENTATION_FALLBACK_THRESH
) -> int:
    """Keep-the-better-rescore retry for low-confidence words (in place).

    Parity with _apply_orientation_fallback (text_recognizer.py:205-225):
    retry only below ``thresh``; accept only if the retry score is strictly
    better AND itself >= thresh. Returns the number of words fixed.
    """
    fixed = 0
    for w in words:
        if w.rec_score >= thresh:
            continue
        retry_content = _rotate180_decode(w.content)
        retry_score = _rec_score(retry_content, 2)
        if retry_score > w.rec_score and retry_score >= thresh:
            w.content = retry_content
            w.rec_score = retry_score
            fixed += 1
    return fixed


def _chunk_token(token: str, max_chars: int) -> List[str]:
    if len(token) <= max_chars:
        return [token]
    return [token[i : i + max_chars] for i in range(0, len(token), max_chars)]


def tokenize(text: str, max_chars: int = 24, cjk_chunk: int = 8) -> List[str]:
    """Split text into word tokens: whitespace-delimited, long CJK runs
    chunked (Japanese has no spaces — the analogue of line-level detection
    splitting a long text line into word quads)."""
    out = []
    for run in text.split():
        if _CJK.search(run) and len(run) > cjk_chunk:
            out.extend(_chunk_token(run, cjk_chunk))
        else:
            out.extend(_chunk_token(run, max_chars))
    return out


@dataclass
class Detections:
    """Per-document model-output bundle (pre-aggregation)."""

    words: List[Word] = field(default_factory=list)
    paragraphs: List[Element] = field(default_factory=list)
    tables: List[Table] = field(default_factory=list)
    figures: List[Element] = field(default_factory=list)
    n_boilerplate: int = 0  # dropped block count (metrics)
    truncated: bool = False  # element/word budget hit (giant-doc guard)
    # Semantic-pipeline detections (CellDetector analogue,
    # table_cell_detector.py:185-474): per table, role-classified cells
    # (header/cell/empty) + group regions (one per tbody when multiple).
    semantic_tables: List[dict] = field(default_factory=list)


# Giant-document guards. The reference's aggregation + reading-order
# algorithms are O(n^2)..O(n^3) in page elements (reading_order.py:123-198
# builds a dense precedence graph with an O(n) betweenness check per pair) —
# fine for physical pages (~100 elements), unbounded on web pages. A page
# exceeding these budgets is deterministically truncated and flagged, which
# bounds per-row cost; one pathological document must never stall a block.
MAX_BLOCKS_PER_PAGE = 192
MAX_WORDS_PER_PAGE = 12_000
MAX_TABLE_CELLS = 512


class BoilerplateClassifier:
    """Link-density / text-density boilerplate classifier.

    Deterministic stand-in for the learned layout model's noise classes —
    the feature thresholds stand in for the model's weights. A block
    is boilerplate (dropped from the page) when it is navigation-shaped:
    mostly link text, little prose.
    """

    def __init__(
        self,
        nav_link_density=0.30,
        link_density=0.65,
        min_prose_chars=120,
        min_links=3,
    ):
        self.nav_link_density = nav_link_density
        self.link_density = link_density
        self.min_prose_chars = min_prose_chars
        self.min_links = min_links

    def is_boilerplate(self, tag, total_chars, link_chars, n_links) -> bool:
        if total_chars == 0:
            return True
        density = link_chars / total_chars
        if tag in ("nav",) and density > self.nav_link_density:
            return True
        if tag in ("aside",) and density > self.nav_link_density and n_links >= 1:
            return True
        if (
            density > self.link_density
            and n_links >= self.min_links
            and (total_chars - link_chars) < self.min_prose_chars
        ):
            return True
        return False


@dataclass
class _InlineToken:
    text: str
    is_ruby: bool
    in_link: bool


def _collect_inline(node: DomNode, tokens: List[_InlineToken], in_ruby=False, in_link=False):
    if node.tag in SKIP_TAGS:
        return
    if node.tag == "#text":
        for tok in tokenize(node.text):
            tokens.append(_InlineToken(tok, in_ruby, in_link))
        return
    is_rt = node.tag in ("rt", "rp")
    is_a = node.tag == "a"
    for child in node.children:
        _collect_inline(child, tokens, in_ruby or is_rt, in_link or is_a)


def _count_tag(node: DomNode, tag: str) -> int:
    """Exact twin of ``len(node.find_all(tag))`` (counts the node itself
    and every descendant, SKIP_TAGS included) without allocations."""
    n = 1 if node.tag == tag else 0
    for child in node.children:
        n += _count_tag(child, tag)
    return n


def _nfkc(s: str) -> str:
    """Recognition-time normalization (text_recognizer.py:155 parity)."""
    return unicodedata.normalize("NFKC", s)


class PageLayoutEngine:
    """Deterministic flow layout of DOM blocks onto the virtual page."""

    def __init__(
        self,
        classifier: Optional[BoilerplateClassifier] = None,
        collect_semantic: bool = False,
    ):
        self.classifier = classifier or BoilerplateClassifier()
        # Semantic cell/group synthesis costs ~20% of detection; only the
        # semantic pipeline needs it.
        self.collect_semantic = collect_semantic

    # -- public ------------------------------------------------------------

    def detect(self, html_text: str) -> Detections:
        root = parse_html(html_text)
        det = Detections()
        body = root.find_all("body")
        start = body[0] if body else root
        self._cursor_y = MARGIN
        self._sem_seq = 0
        self._last_sections = []
        self._walk_children(start, det, role=None, vertical=self._is_vertical(start))

        # M5: low-confidence 180-degree re-recognition, inside the same
        # call as the first pass (text_recognizer.py:194-225 analogue).
        apply_orientation_fallback(det.words)

        # Layout-model postprocessing parity (layout_parser.py:168-205):
        category = {
            "paragraphs": det.paragraphs,
            "tables": det.tables,
            "figures": det.figures,
        }
        category = filter_contained_rectangles_within_category(category)
        category = filter_contained_rectangles_across_categories(
            category, "tables", "paragraphs"
        )
        det.paragraphs = category["paragraphs"]
        det.tables = category["tables"]
        det.figures = category["figures"]
        return det

    # -- traversal ---------------------------------------------------------

    def _is_vertical(self, node: DomNode) -> bool:
        style = node.attr("style", "")
        cls = node.attr("class", "")
        return "vertical-rl" in style or "vertical-lr" in style or "vertical" in cls.split()

    def _walk_children(self, node: DomNode, det: Detections, role, vertical):
        for child in node.children:
            self._walk(child, det, role, vertical)

    def _budget_exceeded(self, det: Detections) -> bool:
        n_blocks = len(det.paragraphs) + len(det.tables) + len(det.figures)
        if n_blocks >= MAX_BLOCKS_PER_PAGE or len(det.words) >= MAX_WORDS_PER_PAGE:
            det.truncated = True
            return True
        return False

    def _walk(self, node: DomNode, det: Detections, role, vertical):
        tag = node.tag
        if tag in SKIP_TAGS:
            return
        if self._budget_exceeded(det):
            return
        vertical = vertical or self._is_vertical(node)

        if tag == "#text":
            # Loose text directly inside a container: its own paragraph block.
            self._emit_text_block(node.text, det, role, "base", vertical, tag="p")
            return
        if tag == "header":
            self._emit_subtree_block(node, det, "page_header", "meta", vertical)
            return
        if tag == "footer":
            self._emit_subtree_block(node, det, "page_footer", "meta", vertical)
            return
        if tag in ("nav", "aside"):
            self._emit_subtree_block(node, det, None, "meta", vertical, maybe_boiler=tag)
            return
        if tag in HEADING_TAGS:
            self._emit_subtree_block(
                node, det, "section_headings", HEADING_TAGS[tag], vertical
            )
            return
        if tag == "table":
            self._emit_table(node, det, vertical)
            return
        if tag == "figure":
            self._emit_figure(node, det, vertical)
            return
        if tag in LEAF_TAGS:
            self._emit_subtree_block(node, det, role, "base", vertical)
            return
        if tag in CONTAINER_TAGS or node.children:
            self._walk_children(node, det, role, vertical)

    # -- block emission ----------------------------------------------------

    def _block_features(self, node: DomNode):
        tokens: List[_InlineToken] = []
        _collect_inline(node, tokens)
        total_chars = sum(len(t.text) for t in tokens)
        link_chars = sum(len(t.text) for t in tokens if t.in_link)
        n_links = _count_tag(node, "a")  # == len(find_all("a")) minus the
        # generator+list allocation of a second full subtree pass
        return tokens, total_chars, link_chars, n_links

    def _emit_subtree_block(
        self, node, det, role, font, vertical, maybe_boiler=None
    ):
        tokens, total_chars, link_chars, n_links = self._block_features(node)
        if not tokens:
            return
        if maybe_boiler is not None and self.classifier.is_boilerplate(
            maybe_boiler, total_chars, link_chars, n_links
        ):
            det.n_boilerplate += 1
            return
        box = self._flow_tokens(tokens, det, font, vertical, x1=MARGIN, x2=PAGE_W - MARGIN)
        if box is None:
            return
        det.paragraphs.append(Element(id=None, box=box, score=_pseudo_score(node.tag, 1), role=role))
        self._cursor_y = box[3] + BLOCK_GAP

    def _emit_text_block(self, text, det, role, font, vertical, tag):
        toks = [_InlineToken(t, False, False) for t in tokenize(text)]
        if not toks:
            return
        box = self._flow_tokens(toks, det, font, vertical, x1=MARGIN, x2=PAGE_W - MARGIN)
        if box is None:
            return
        det.paragraphs.append(Element(id=None, box=box, score=_pseudo_score(tag, 1), role=role))
        self._cursor_y = box[3] + BLOCK_GAP

    # -- token flow --------------------------------------------------------

    def _flow_tokens(self, tokens, det, font, vertical, x1, x2, y1=None):
        """Place tokens, appending Words to det; return the block box."""
        budget = MAX_WORDS_PER_PAGE - len(det.words)
        if len(tokens) > budget:
            tokens = tokens[:budget]
            det.truncated = True
        if y1 is None:
            y1 = self._cursor_y
        if vertical:
            return self._flow_tokens_vertical(tokens, det, font, x1, x2, y1)

        char_w, char_h = FONT[font]
        r_char_w, r_char_h = FONT["ruby"]
        cx, cy = x1, y1
        max_x = x1
        placed_any = False
        last_base = None
        for tok in tokens:
            content = _nfkc(tok.text)
            if not content:
                continue
            if tok.is_ruby:
                # Ruby text: small box above the previous base word.
                if last_base is None:
                    continue
                bx1, by1 = last_base
                w = _token_width(content, r_char_w)
                # Hugs the top of the base line so it stays inside the block
                # box (containment@0.5, document_analyzer.py:201) while its
                # area remains small enough for the ruby filter to spot.
                quad = [
                    [bx1, by1 - 2],
                    [bx1 + w, by1 - 2],
                    [bx1 + w, by1 + r_char_h - 2],
                    [bx1, by1 + r_char_h - 2],
                ]
                det.words.append(
                    Word(
                        points=quad,
                        content=content,
                        direction="horizontal",
                        rec_score=_rec_score(content, 2),
                        det_score=_pseudo_score(content, 3),
                    )
                )
                continue
            w = _token_width(content, char_w)
            if cx + w > x2 and cx > x1:
                cx = x1
                cy += char_h + LINE_LEADING
            quad = [[cx, cy], [cx + w, cy], [cx + w, cy + char_h], [cx, cy + char_h]]
            det.words.append(
                Word(
                    points=quad,
                    content=content,
                    direction="horizontal",
                    rec_score=_rec_score(content, 2),
                    det_score=_pseudo_score(content, 3),
                )
            )
            last_base = (cx, cy)
            placed_any = True
            max_x = max(max_x, cx + w)
            cx += w + WORD_GAP
        if not placed_any:
            return None
        return [x1 - 4, y1 - 4, min(x2, max_x) + 4, cy + char_h + 4]

    def _flow_tokens_vertical(self, tokens, det, font, x1, x2, y1):
        """Vertical writing: columns flow right-to-left; words are tall."""
        char_w, char_h = FONT[font]
        col_w = char_h  # a vertical line's thickness
        max_col_h = 400
        cx = x2 - col_w
        cy = y1
        min_x = cx
        max_y = y1
        placed_any = False
        for tok in tokens:
            content = _nfkc(tok.text)
            if not content or tok.is_ruby:
                continue
            if len(content) < 2:
                # Guarantee h > 2w so is_vertical holds (document_analyzer.py:240-245).
                h = char_w * 2 + col_w + 1
            else:
                h = len(content) * char_w + char_w
            if cy + h > y1 + max_col_h and cy > y1:
                cy = y1
                cx -= col_w + WORD_GAP
            quad = [[cx, cy], [cx + col_w, cy], [cx + col_w, cy + h], [cx, cy + h]]
            det.words.append(
                Word(
                    points=quad,
                    content=content,
                    direction="vertical",
                    rec_score=_rec_score(content, 2),
                    det_score=_pseudo_score(content, 3),
                )
            )
            placed_any = True
            min_x = min(min_x, cx)
            max_y = max(max_y, cy + h)
            cy += h + WORD_GAP
        if not placed_any:
            return None
        return [min_x - 4, y1 - 4, x2 + 4, max_y + 4]

    # -- tables ------------------------------------------------------------

    def _emit_table(self, node: DomNode, det: Detections, vertical):
        grid, n_rows, n_cols = self._table_grid(node)
        if n_rows == 0 or n_cols == 0:
            return
        if n_rows * n_cols > MAX_TABLE_CELLS:
            # Deterministic truncation: keep the leading rows that fit.
            n_rows = max(1, MAX_TABLE_CELLS // max(1, n_cols))
            grid = [c for c in grid if c["row"] < n_rows]
            for c in grid:
                c["rowspan"] = min(c["rowspan"], n_rows - c["row"])
            det.truncated = True

        char_w, char_h = FONT["base"]
        # Column widths from max per-column content share.
        col_chars = [4] * n_cols
        for cell in grid:
            share = math.ceil(len(cell["text"]) / cell["colspan"]) if cell["text"] else 0
            for j in range(cell["col"], cell["col"] + cell["colspan"]):
                col_chars[j] = max(col_chars[j], min(max(share, 4), 18))
        col_widths = [c * char_w + 2 * CELL_PAD for c in col_chars]
        row_height = char_h + 2 * CELL_PAD

        x0 = MARGIN
        y0 = self._cursor_y
        total_w = sum(col_widths)
        total_h = n_rows * row_height
        table_box = [x0, y0, x0 + total_w, y0 + total_h]

        col_x = [x0]
        for wdt in col_widths:
            col_x.append(col_x[-1] + wdt)

        rows = [
            TableLine(
                box=[x0, y0 + i * row_height, x0 + total_w, y0 + (i + 1) * row_height],
                score=_pseudo_score(f"row{i}", 4),
            )
            for i in range(n_rows)
        ]
        cols = [
            TableLine(
                box=[col_x[j], y0, col_x[j + 1], y0 + total_h],
                score=_pseudo_score(f"col{j}", 5),
            )
            for j in range(n_cols)
        ]
        spans = []
        for cell in grid:
            if cell["rowspan"] > 1 or cell["colspan"] > 1:
                spans.append(
                    TableLine(
                        box=[
                            col_x[cell["col"]],
                            y0 + cell["row"] * row_height,
                            col_x[cell["col"] + cell["colspan"]],
                            y0 + (cell["row"] + cell["rowspan"]) * row_height,
                        ],
                        score=_pseudo_score(f"span{cell['row']}x{cell['col']}", 6),
                    )
                )

        # Grid reconstruction exactly as the reference's TSR postprocess
        # (table_structure_recognizer.py:246-254 sorts bands; :27-85 builds
        # and merges cells).
        rows_sorted = sorted(rows, key=lambda r: r.box[1])
        cols_sorted = sorted(cols, key=lambda c: c.box[0])
        spans_sorted = sorted(spans, key=lambda s: s.box[1])
        cells = extract_cells(
            [r.box for r in rows_sorted], [c.box for c in cols_sorted]
        )
        cells = filter_contained_cells_within_spancell(
            cells, [s.box for s in spans_sorted]
        )

        table = Table(
            box=table_box,
            n_row=n_rows,
            n_col=n_cols,
            rows=rows_sorted,
            cols=cols_sorted,
            spans=spans_sorted,
            cells=cells,
            order=0,
        )
        det.tables.append(table)
        if self.collect_semantic:
            self._emit_semantic_cells(
                det, grid, n_rows, col_x, y0, row_height, table_box
            )

        # Place cell words inside unit-cell interiors.
        for cell in grid:
            if not cell["text"]:
                continue
            cx1 = col_x[cell["col"]] + CELL_PAD
            cx2 = col_x[cell["col"] + cell["colspan"]] - CELL_PAD
            cy1 = y0 + cell["row"] * row_height + CELL_PAD
            toks = [_InlineToken(t, False, False) for t in tokenize(cell["text"])]
            self._flow_cell_tokens(toks, det, "base", cx1, cx2, cy1)

        self._cursor_y = table_box[3] + BLOCK_GAP

    def _flow_cell_tokens(self, tokens, det, font, x1, x2, y1):
        """Single-line-ish flow inside a cell (no box registration)."""
        budget = MAX_WORDS_PER_PAGE - len(det.words)
        if len(tokens) > budget:
            tokens = tokens[:budget]
            det.truncated = True
        char_w, char_h = FONT[font]
        cx, cy = x1, y1
        for tok in tokens:
            content = _nfkc(tok.text)
            if not content:
                continue
            w = _token_width(content, char_w)
            if cx + w > x2 and cx > x1:
                cx = x1
                cy += char_h + LINE_LEADING
            w = min(w, max(1, x2 - cx))  # clamp into the cell
            quad = [[cx, cy], [cx + w, cy], [cx + w, cy + char_h], [cx, cy + char_h]]
            det.words.append(
                Word(
                    points=quad,
                    content=content,
                    direction="horizontal",
                    rec_score=_rec_score(content, 2),
                    det_score=_pseudo_score(content, 3),
                )
            )
            cx += w + WORD_GAP

    def _table_grid(self, node: DomNode):
        """HTML table -> occupancy-resolved cell list (0-based row/col).

        Also records tbody section row-ranges (``self._last_sections``) used
        by the semantic cell detector to synthesize group regions.
        """
        trs = []
        sections = []  # (tag, start_row, end_row) per section element
        for sect in node.children:
            if sect.tag in ("thead", "tbody", "tfoot"):
                start = len(trs)
                trs.extend(c for c in sect.children if c.tag == "tr")
                if len(trs) > start:
                    sections.append((sect.tag, start, len(trs)))
            elif sect.tag == "tr":
                trs.append(sect)
        self._last_sections = sections
        grid = []
        occupied = {}
        n_cols = 0
        for r, tr in enumerate(trs):
            c = 0
            for td in (ch for ch in tr.children if ch.tag in ("td", "th")):
                while occupied.get((r, c)):
                    c += 1
                try:
                    rowspan = max(1, int(td.attr("rowspan", "1")))
                except ValueError:
                    rowspan = 1
                try:
                    colspan = max(1, int(td.attr("colspan", "1")))
                except ValueError:
                    colspan = 1
                rowspan = min(rowspan, len(trs) - r)
                text = " ".join(tokenize(td.text_content()))
                grid.append(
                    {
                        "row": r,
                        "col": c,
                        "rowspan": rowspan,
                        "colspan": colspan,
                        "text": text,
                        "header": td.tag == "th",
                    }
                )
                for rr in range(r, r + rowspan):
                    for cc in range(c, c + colspan):
                        occupied[(rr, cc)] = True
                c += colspan
                n_cols = max(n_cols, c)
        return grid, len(trs), n_cols

    # Visual inset of a semantic cell box inside its grid slot: leaves a
    # 2*INSET gap between neighbors so the reference's adjacency rules (which
    # reject coincident corners via ignore_dist_threshold=10,
    # utils/misc.py:324-330) see distinct, nearby boxes — like the drawn cell
    # borders the reference's CellDetector detects.
    SEM_CELL_INSET = 6

    def _emit_semantic_cells(self, det, grid, n_rows, col_x, y0, row_height, table_box):
        """CellDetector analogue: role-classified cell boxes + tbody groups."""
        from .semantic.schemas import SemanticCell

        inset = self.SEM_CELL_INSET
        cells = []
        for entry in grid:
            if entry["row"] >= n_rows:
                continue
            x1 = col_x[entry["col"]] + inset
            x2 = col_x[entry["col"] + entry["colspan"]] - inset
            y1 = y0 + entry["row"] * row_height + inset
            y2 = y0 + (entry["row"] + entry["rowspan"]) * row_height - inset
            if entry["header"]:
                role = "header"
            elif entry["text"]:
                role = "cell"
            else:
                role = "empty"
            cells.append(
                SemanticCell(
                    contents=None,
                    role=role,
                    id=f"sc{self._sem_seq}",
                    box=[x1, y1, x2, y2],
                    row=entry["row"],
                    col=entry["col"],
                    row_span=entry["rowspan"],
                    col_span=entry["colspan"],
                )
            )
            self._sem_seq += 1

        # Hole recovery (T8 analogue, table_cell_detector.py:105-182): grid
        # positions covered by no cell (jagged rows, short colspans) get a
        # synthesized 'empty' cell so grid/KV parsing sees a complete lattice.
        covered = set()
        n_cols_total = len(col_x) - 1
        for entry in grid:
            for rr in range(entry["row"], min(entry["row"] + entry["rowspan"], n_rows)):
                for cc in range(entry["col"], entry["col"] + entry["colspan"]):
                    covered.add((rr, cc))
        for rr in range(n_rows):
            for cc in range(n_cols_total):
                if (rr, cc) in covered:
                    continue
                cells.append(
                    SemanticCell(
                        contents=None,
                        role="empty",
                        id=f"sc{self._sem_seq}",
                        box=[
                            col_x[cc] + inset,
                            y0 + rr * row_height + inset,
                            col_x[cc + 1] - inset,
                            y0 + (rr + 1) * row_height - inset,
                        ],
                        row=rr,
                        col=cc,
                        row_span=1,
                        col_span=1,
                    )
                )
                self._sem_seq += 1

        # Group regions (the visual-group class of the reference's
        # CellDetector). Without groups the reference's KV DAG has no edges
        # (kv_parser.py:28-29), so group synthesis is load-bearing:
        # (a) a row mixing header (th) and data (td) cells is a KV row group;
        by_row = {}
        for entry in grid:
            if entry["row"] >= n_rows:
                continue
            by_row.setdefault(entry["row"], []).append(entry)
        for r, entries in sorted(by_row.items()):
            has_header = any(e["header"] for e in entries)
            has_data = any(not e["header"] for e in entries)
            if has_header and has_data:
                cells.append(
                    SemanticCell(
                        contents=None,
                        role="group",
                        id=f"sc{self._sem_seq}",
                        box=[
                            table_box[0] - 2,
                            y0 + r * row_height - 2,
                            table_box[2] + 2,
                            y0 + (r + 1) * row_height + 2,
                        ],
                    )
                )
                self._sem_seq += 1

        # (b) one group per tbody when the table has >= 2 tbodies.
        tbodies = [s for s in self._last_sections if s[0] == "tbody"]
        if len(tbodies) >= 2:
            for _, start, end in tbodies:
                start = min(start, n_rows)
                end = min(end, n_rows)
                if end <= start:
                    continue
                cells.append(
                    SemanticCell(
                        contents=None,
                        role="group",
                        id=f"sc{self._sem_seq}",
                        box=[
                            table_box[0] - 2,
                            y0 + start * row_height - 2,
                            table_box[2] + 2,
                            y0 + end * row_height + 2,
                        ],
                    )
                )
                self._sem_seq += 1

        det.semantic_tables.append({"box": list(table_box), "cells": cells})

    # -- figures -----------------------------------------------------------

    def _emit_figure(self, node: DomNode, det: Detections, vertical):
        y_start = self._cursor_y
        # Lay out nested blocks indented inside the figure frame.
        inner_det = Detections()
        saved = self._cursor_y
        self._cursor_y = y_start + 12
        for child in node.children:
            if child.tag in SKIP_TAGS:
                continue
            tokens, total_chars, link_chars, n_links = self._block_features(child)
            if not tokens:
                continue
            box = self._flow_tokens(
                tokens, inner_det, "base", vertical, x1=MARGIN + 24, x2=PAGE_W - MARGIN - 24
            )
            if box is None:
                continue
            inner_det.paragraphs.append(
                Element(id=None, box=box, score=_pseudo_score(child.tag, 1), role=None)
            )
            self._cursor_y = box[3] + BLOCK_GAP

        if not inner_det.paragraphs:
            self._cursor_y = saved
            # Figure with no text (e.g. bare <img>): still a figure region.
            box = [MARGIN, y_start, MARGIN + 320, y_start + 240]
            det.figures.append(
                Element(id=None, box=box, score=_pseudo_score("figure", 7), role=None)
            )
            self._cursor_y = box[3] + BLOCK_GAP
            return

        y_end = max(p.box[3] for p in inner_det.paragraphs)
        fig_box = [MARGIN, y_start, PAGE_W - MARGIN, y_end + 12]
        det.figures.append(
            Element(id=None, box=fig_box, score=_pseudo_score("figure", 7), role=None)
        )
        det.words.extend(inner_det.words)
        det.paragraphs.extend(inner_det.paragraphs)
        self._cursor_y = fig_box[3] + BLOCK_GAP


def detect_page(
    html_text: str,
    classifier: Optional[BoilerplateClassifier] = None,
    collect_semantic: bool = False,
) -> Detections:
    """Convenience wrapper: HTML text -> Detections."""
    return PageLayoutEngine(classifier, collect_semantic=collect_semantic).detect(html_text)

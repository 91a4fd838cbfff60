"""Output checks computed apart from the program.

Nothing here imports ``yomitoku_ray``: every expectation is recomputed from
the input bytes and the generator's ground truth with the standard library
(codecs, ``html.parser``, ``hashlib``). Each check returns a ``Report``;
``Report.problems`` lists every violation, so a test can plant a wrong output
and see it caught.

A *fault record* (truth kind ``fault``, see gen.py) is a page the strict
decoder cannot read as its author wrote it: a truncated page ending inside a
multi-byte character (an error row), or a page another codec reads first (a
mis-decoded text). Until the decoder is mended, either outcome counts as a
failed operation, not as a wrong result. Every other page must pass every
check.
"""

from __future__ import annotations

import hashlib
import html
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from html.parser import HTMLParser

MIN_HTML_BYTES = 32
MIN_WORDS = 5
MAX_DUP_WORD_PCT = 50

_SCRIPT = re.compile(r"<(script|style)\b.*?</\1\s*>", re.S | re.I)
_COMMENT = re.compile(r"<!--.*?-->", re.S)
_TAG = re.compile(r"<[^>]*>")
_TEXT_TAGS = {"p", "h1", "h2", "h3", "h4", "h5", "h6", "td", "th", "figcaption"}


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def problem(self, msg: str) -> None:
        self.problems.append(msg)


def spec_decodes(raw: bytes) -> bool:
    """The error-row rule: a page yields a row without error exactly when it
    has at least 32 bytes and utf-8, shift-jis, euc-jp or cp932 decodes it
    strictly."""
    if len(raw) < MIN_HTML_BYTES:
        return False
    for enc in ("utf-8", "shift-jis", "euc-jp", "cp932"):
        try:
            raw.decode(enc)
            return True
        except UnicodeDecodeError:
            continue
    return False


def true_text(raw: bytes, enc: str) -> str:
    """The page as its author wrote it; a character cut by truncation is
    dropped."""
    return raw.decode(enc, errors="ignore")


def visible_text(page: str) -> str:
    page = _COMMENT.sub(" ", _SCRIPT.sub(" ", page))
    return html.unescape(_TAG.sub(" ", page))


class _ElementText(HTMLParser):
    """Text inside p/h1-h6/td/th/figcaption (minus ruby readings), the text
    of every table cell, and the number of tables. A table counts once it has
    a cell: a record cut right after ``<table>`` holds no table."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.depth = 0
        self.rt = 0
        self.raw = 0
        self.text: list[str] = []
        self.cells: list[str] = []
        self._cell: list[str] | None = None
        self._tables: list[bool] = []
        self.n_tables = 0

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self.raw += 1
        elif tag == "rt":
            self.rt += 1
        elif tag == "table":
            self._tables.append(False)
        elif tag in _TEXT_TAGS:
            self.depth += 1
            if tag in ("td", "th"):
                self._flush_cell()
                self._cell = []
                if self._tables:
                    self._tables[-1] = True

    def handle_endtag(self, tag):
        if tag in ("script", "style"):
            self.raw = max(0, self.raw - 1)
        elif tag == "rt":
            self.rt = max(0, self.rt - 1)
        elif tag == "table":
            if self._tables:
                self.n_tables += self._tables.pop()
        elif tag in _TEXT_TAGS:
            self.depth = max(0, self.depth - 1)
            if tag in ("td", "th"):
                self._flush_cell()

    def handle_data(self, data):
        if self.raw or self.rt or not self.depth:
            return
        self.text.append(data)
        if self._cell is not None:
            self._cell.append(data)

    def _flush_cell(self):
        if self._cell is not None:
            cell = " ".join("".join(self._cell).split())
            if cell:
                self.cells.append(cell)
        self._cell = None

    def close(self):
        super().close()
        self._flush_cell()
        self.n_tables += sum(self._tables)
        self._tables = []


def element_text(page: str) -> tuple[str, list[str], int]:
    """(text of the content elements, table-cell texts, number of tables)."""
    p = _ElementText()
    p.feed(page)
    p.close()
    return " ".join(p.text), p.cells, p.n_tables


def chars(s: str) -> Counter:
    """NFKC non-space characters as a multiset."""
    return Counter(c for c in unicodedata.normalize("NFKC", s) if not c.isspace())


def missing_chars(part: str, whole: str) -> str:
    """Characters of ``part`` (as a multiset) not covered by ``whole``."""
    lack = chars(part) - chars(whole)
    return "".join(sorted(lack.elements()))[:40]


def gates_pass(text: str) -> tuple[bool, int]:
    """(passes the word-count and duplicate-word gates, word count)."""
    words = text.split()
    n = len(words)
    dup_pct = 100 - (100 * len(set(words))) // max(n, 1) if n else 0
    return n >= MIN_WORDS and dup_pct <= MAX_DUP_WORD_PCT, n


def _fault_failed(row: dict | None, text_col: str, truth: dict, raw: bytes) -> bool:
    if row is None or row.get("error") is not None:
        return True
    return bool(missing_chars(row.get(text_col) or "", visible_text(true_text(raw, truth["enc"]))))


def check_page(
    url: str, raw: bytes, truth: dict, row: dict, *, text_col: str | None, cells_col: str
) -> list[str]:
    """Problems with one output row of a page.

    ``text_col`` names the extracted-text column (None when the output has
    none: soundness and completeness are then skipped); ``cells_col`` names
    the column every table-cell text must occur in.
    """
    out = []
    # A fault record that reaches here did not fail: the decoder kept its
    # valid prefix or read its own encoding, which the error-row rule
    # (about strict decoding) does not foresee.
    want_ok = spec_decodes(raw) or truth["kind"] == "fault"
    got_ok = row.get("error") is None
    if want_ok != got_ok:
        out.append(f"{url}: error row is {not got_ok}, spec says {not want_ok} ({row.get('error')})")
        return out
    if not got_ok:
        return out
    page = true_text(raw, truth["enc"])
    content, cells, n_tables = element_text(page)
    if row.get("n_tables") != n_tables:
        out.append(f"{url}: n_tables {row.get('n_tables')} != {n_tables} tables with cells")
    hay = row.get(cells_col) or ""
    for cell in cells:
        if cell not in hay:
            out.append(f"{url}: cell {cell!r} missing from {cells_col}")
            break
    if text_col is not None:
        text = row.get(text_col) or ""
        extra = missing_chars(text, visible_text(page))
        if extra:
            out.append(f"{url}: unsound, {text_col} has {extra!r} not in the page")
        lost = missing_chars(content, text)
        if lost:
            out.append(f"{url}: incomplete, {text_col} lacks {lost!r}")
    return out


def check_rows(
    pages: dict[str, bytes],
    truth: list[dict],
    rows: list[dict],
    *,
    text_col: str | None = "extracted_text",
    cells_col: str = "csv",
) -> Report:
    """One row per input url, and every row right for its page."""
    rep = Report(attempted=len(truth))
    by_url: dict[str, dict] = {}
    for row in rows:
        if row["url"] in by_url:
            rep.problem(f"{row['url']}: more than one output row")
        by_url[row["url"]] = row
    known = {t["url"] for t in truth}
    for url in by_url.keys() - known:
        rep.problem(f"{url}: output row for no input url")
    for t in truth:
        url = t["url"]
        row = by_url.get(url)
        if t["kind"] == "fault" and _fault_failed(row, text_col or "", t, pages[url]):
            rep.failed += 1
            continue
        if row is None:
            rep.problem(f"{url}: no output row")
            continue
        rep.problems += check_page(url, pages[url], t, row, text_col=text_col, cells_col=cells_col)
    return rep


def check_corpus(
    pages: dict[str, bytes], truth: list[dict], groups: list[list[str]], survivors: list[dict]
) -> Report:
    """Dedup and quality-gate invariants of a corpus build.

    ``survivors`` rows carry digest, url, text, n_words and n_copies.
    """
    rep = Report(attempted=len(truth))
    info = {t["url"]: t for t in truth}
    by_url = {}
    digests = Counter(s["digest"] for s in survivors)
    for d, n in digests.items():
        if n > 1:
            rep.problem(f"digest {d} shared by {n} survivors")
    for s in survivors:
        url, text = s["url"], s["text"] or ""
        if url in by_url:
            rep.problem(f"{url}: survives twice")
        by_url[url] = s
        t = info.get(url)
        if t is None:
            rep.problem(f"{url}: survivor for no input url")
            continue
        if hashlib.md5(text.encode("utf-8")).hexdigest() != s["digest"]:
            rep.problem(f"{url}: digest is not md5(text)")
        ok, n = gates_pass(text)
        if not ok or s["n_words"] != n:
            rep.problem(f"{url}: fails the quality gates (n_words {s['n_words']}, recount {n})")
        if t["kind"] == "fault":
            continue
        if t["enc"] is None:
            rep.problem(f"{url}: survivor from a malformed page")
            continue
        extra = missing_chars(text, visible_text(true_text(pages[url], t["enc"])))
        if extra:
            rep.problem(f"{url}: unsound survivor text {extra!r}")
    for t in truth:
        if t["kind"] == "fault" and _fault_failed(by_url.get(t["url"]), "text", t, pages[t["url"]]):
            rep.failed += 1
    for group in groups:
        alive = [u for u in group if u in by_url]
        if len(alive) > 1:
            rep.problem(f"re-crawl group of {min(group)}: {len(alive)} survivors")
        elif alive:
            s = by_url[alive[0]]
            if alive[0] != min(group):
                rep.problem(f"re-crawl group of {min(group)}: survivor is {alive[0]}")
            if s["n_copies"] < len(group):
                rep.problem(f"re-crawl group of {min(group)}: n_copies {s['n_copies']} < {len(group)}")
    return rep


def check_manifests(
    shards: list[str], manifests: list[dict], wave_urls: dict[str, list[str]], input_urls: list[str]
) -> Report:
    """Committed waves partition the shards; counts and urls add up.

    ``manifests`` are the parsed manifest JSONs; ``wave_urls`` maps a wave
    name to the urls of the rows in its data directory.
    """
    rep = Report()
    seen = Counter(f for m in manifests for f in m["input_files"])
    for f, n in seen.items():
        if n > 1:
            rep.problem(f"{f}: in {n} manifests")
    for f in set(shards) - set(seen):
        rep.problem(f"{f}: in no manifest")
    for f in set(seen) - set(shards):
        rep.problem(f"{f}: in a manifest but not an input shard")
    for m in manifests:
        got = len(wave_urls.get(m["wave"], []))
        if m["row_count"] != got:
            rep.problem(f"{m['wave']}: manifest row_count {m['row_count']} != {got} rows")
    if sum(m["row_count"] for m in manifests) != sum(len(v) for v in wave_urls.values()):
        rep.problem("manifest row counts do not sum to the output rows")
    urls = Counter(u for v in wave_urls.values() for u in v)
    for u in input_urls:
        if urls[u] != 1:
            rep.problem(f"{u}: appears {urls[u]} times across waves")
    return rep

"""Seeded inputs for the benchmark workloads, with the ground truth planted.

Every input is a pure function of ``(workload, seed, rounds)``. A workload's
input is made of whole *rounds*; each round holds the same mix of page kinds,
so the share of every kind (and of the pages that fail on the decoder fault
documented in README.md) is the same in every run:

- ``cc`` round (202 pages): 194 pages of ``synth.pages.generate_pages_table``
  (140 ja pages in UTF-8 or Shift-JIS, 6 ja pages in EUC-JP, 44 en pages,
  4 malformed rows, one of them a 40-byte cut that ends inside a multi-byte
  character; the pages are taken from the seeded synth stream in
  order, to fill fixed quotas per size quartile and encoding, so the work
  per round varies little from seed to seed), 6 truncated copies of those,
  each cut at a seeded random byte, and 2 seed-independent *misread
  records* (see ``fault_record``). Of the 6 cuts, 4 end on a character
  boundary and 2 end inside a multi-byte character that no whitelisted
  codec then decodes: the seeded cuts are drawn until both quotas are full
  (``_cut``), so the number of records that fail on the decoder faults
  documented in README.md is the same in every round, whatever the seed.
- ``recrawl`` round (300 rows): a ``cc`` round plus 100 byte-identical
  re-crawls of earlier pages under new urls.
- ``tables`` round (100 pages): table-dense pages, most sections with a
  table, some cells with row/col spans (see ``_tables_page``).

Ground truth (kind, true encoding, re-crawl groups) goes to ``truth.json``;
the pages themselves go to ``pages.parquet`` (and, for ``crawl``, to
CC-layout ``.warc.gz`` shards as well).

    python3 ccbench/gen.py --workload extract_cc_mix --seed 1 --rounds 2 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re

import pyarrow as pa
import pyarrow.parquet as pq

# Quotas per round: (lang, html-size quartile) -> pages, and malformed rows.
# The quartile edges are those of synth's pages (bytes).
SIZE_EDGES = {"ja": (1350, 1980, 2650), "en": (1120, 1635, 2200)}
# "malformed-cut" is synth's 40-byte cut of a ja page, which ends inside a
# multi-byte character; "malformed" is any other malformed row.
QUOTAS = {("ja", 0): 35, ("ja", 1): 35, ("ja", 2): 35, ("ja", 3): 35, "euc-jp": 6,
          ("en", 0): 11, ("en", 1): 11, ("en", 2): 11, ("en", 3): 11,
          "malformed": 3, "malformed-cut": 1}
CC_ROUND_SYNTH = sum(QUOTAS.values())
# Truncated records per round, by what the strict decoder makes of the cut.
CUT_QUOTAS = {"boundary": 4, "undecodable": 2}
FAULT_VARIANTS = ("mojibake", "euc-misread")
CC_ROUND = CC_ROUND_SYNTH + sum(CUT_QUOTAS.values()) + len(FAULT_VARIANTS)
RECRAWL_PER_ROUND = 100
TABLES_ROUND = 100
WARC_SHARDS = 4

ROUND_PAGES = {
    "extract_cc_mix": CC_ROUND,
    "semantic_tables": TABLES_ROUND,
    "corpus_recrawl": CC_ROUND + RECRAWL_PER_ROUND,
    "crawl_warc_resume": CC_ROUND,
}

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("lang", pa.string()),
    ]
)

_TS_BASE_US = 1_700_000_000_000_000
_TAG = re.compile(r"<[^>]+>")

_FAULT_EN = (
    "archive crawler record segment header payload digest length offset "
    "mirror capture snapshot revisit response request metadata resource"
).split()
# UTF-8 ends of a page cut one byte short; the bytes before the cut decode
# strictly as Shift-JIS (checked at generation time by ``strict_decodes``).
_MOJIBAKE_TAIL = "report 東京"
# Words whose EUC-JP bytes all lie in 0xA1-0xDF, which Shift-JIS reads as
# half-width katakana: an EUC-JP page made of them decodes as Shift-JIS.
_EUC_AS_SJIS_JA = "経済 文化 科学 技術 産業 学校 調査 開発 新聞 電車 町村 家族 友達 学生 左右 長短".split()


def strict_decodes(raw: bytes) -> str | None:
    """First of utf-8, shift-jis, euc-jp, cp932 that decodes ``raw`` strictly."""
    for enc in ("utf-8", "shift-jis", "euc-jp", "cp932"):
        try:
            raw.decode(enc)
            return enc
        except UnicodeDecodeError:
            continue
    return None


def _true_encoding(html: bytes, text: str) -> str | None:
    """The encoding synth used: the one whose tag-stripped reading equals the
    ``text`` column synth recorded (else the whitelist's first strict fit)."""
    for enc in ("utf-8", "shift-jis", "euc-jp"):
        try:
            decoded = html.decode(enc)
        except UnicodeDecodeError:
            continue
        if " ".join(_TAG.sub(" ", decoded).split()) == text:
            return enc
    return strict_decodes(html)


def spec_reading(raw: bytes) -> str | None:
    """The text the whitelist's first strict fit gives (None: error row)."""
    enc = strict_decodes(raw)
    return None if enc is None else raw.decode(enc)


def cut_class(raw: bytes, enc: str) -> str:
    """What the strict decoder makes of a truncated record: ``boundary`` (it
    reads the author's text), ``undecodable`` (an error row) or ``misread``
    (another codec's text)."""
    reading = spec_reading(raw)
    if reading is None:
        return "undecodable"
    return "boundary" if reading == raw.decode(enc, errors="ignore") else "misread"


def _cut(html: bytes, enc: str, r: random.Random) -> tuple[bytes, str]:
    """Cut at a seeded random byte in the middle half of the page."""
    raw = html[: r.randint(len(html) // 4, (3 * len(html)) // 4)]
    return raw, cut_class(raw, enc)


def fault_record(round_idx: int, variant: str) -> bytes:
    """A seed-independent record that the strict decoder misreads as
    Shift-JIS.

    ``variant="mojibake"``: a mostly-ASCII UTF-8 page cut one byte into its
    last kanji. ``variant="euc-misread"``: a whole EUC-JP page whose bytes
    are also valid Shift-JIS (Shift-JIS is tried first). Both carry enough
    distinct words to pass the corpus gates once read in their own encoding.
    """
    r = random.Random(f"fault-{variant}-{round_idx}")
    paras = [
        " ".join(r.sample(_FAULT_EN, 8)) + f" round{round_idx} {variant}"
        for _ in range(3)
    ]
    head = (
        "<html><head><meta charset='utf-8'><title>t</title></head><body>"
        f"<h1>misread record {round_idx}</h1>"
        + "".join(f"<p>{p}</p>" for p in paras)
    )
    if variant == "mojibake":
        raw = (head + "<p>" + _MOJIBAKE_TAIL).encode("utf-8")[:-1]
        enc = "utf-8"
    else:
        ja = "".join(r.choice(_EUC_AS_SJIS_JA) + "の" for _ in range(24)) + "学校"
        raw = (head + "<p>" + ja + "</p></body></html>").encode("euc-jp")
        enc = "euc-jp"
    if strict_decodes(raw) != "shift-jis" or cut_class(raw, enc) != "misread":
        raise AssertionError(f"fault record {variant}/{round_idx} decodes as {strict_decodes(raw)}")
    return raw


FAULT_ENCODING = {"mojibake": "utf-8", "euc-misread": "euc-jp"}


def _stratum(row: dict, enc: str):
    if spec_reading(row["html"]) != row["html"].decode(enc):
        # No quota: a whole EUC-JP page that is also valid Shift-JIS is
        # misread, but only now and then (page 320 of seed 242), so its
        # count would depend on the seed; every round carries one such page
        # of its own instead (fault_record "euc-misread").
        return "misread"
    if enc == "euc-jp":
        return "euc-jp"
    size = len(row["html"])
    return row["lang"], sum(size > edge for edge in SIZE_EDGES[row["lang"]])


def _synth_stream(seed: int):
    """synth pages of ``seed`` in index order, in chunks."""
    from yomitoku_ray.synth.pages import generate_pages_table

    start = 0
    while True:
        yield from generate_pages_table(CC_ROUND_SYNTH, seed=seed, start=start).to_pylist()
        start += CC_ROUND_SYNTH


def _cc_round(stream, k: int, r: random.Random) -> tuple[list[dict], list[dict]]:
    need = dict(QUOTAS)
    rows, truth = [], []
    while len(rows) < CC_ROUND_SYNTH:
        row = next(stream)
        if row["text"]:
            tr = {"url": row["url"], "kind": "page", "enc": _true_encoding(row["html"], row["text"])}
            key = _stratum(row, tr["enc"])
        elif row["html"].startswith(b"<html>"):  # synth's 40-byte cut of a UTF-8 page
            cls = cut_class(row["html"], "utf-8")
            key = {"boundary": "malformed", "undecodable": "malformed-cut"}.get(cls, "misread")
            tr = {"url": row["url"], "kind": "malformed", "enc": "utf-8"}
            if key == "malformed-cut":
                tr.update(kind="fault", variant=key)
        else:  # empty or garbage: read as the decoder's spec reads it
            tr = {"url": row["url"], "kind": "malformed", "enc": strict_decodes(row["html"])}
            key = "malformed"
        if need.get(key, 0) > 0:
            need[key] -= 1
            rows.append(
                {"url": row["url"], "warc_ts": row["warc_ts"], "html": row["html"], "lang": row["lang"]}
            )
            truth.append(tr)
    # Seeded random-byte cuts, drawn until each outcome's quota is full; a
    # cut the decoder would misread is drawn again (rare, and seed-dependent).
    candidates = [i for i, tr in enumerate(truth) if tr["kind"] == "page"]
    need, cut_of = dict(CUT_QUOTAS), {}
    while any(need.values()):
        i = r.choice(candidates)
        if i in cut_of:
            continue
        raw, cls = _cut(rows[i]["html"], truth[i]["enc"], r)
        if need.get(cls, 0) > 0:
            need[cls] -= 1
            cut_of[i] = raw, cls
    for i, (raw, cls) in cut_of.items():
        src = rows[i]
        url = src["url"].replace("/p/", "/t/", 1)
        rows.append(dict(src, url=url, html=raw))
        if cls == "boundary":
            truth.append({"url": url, "kind": "truncated", "enc": truth[i]["enc"]})
        else:
            truth.append({"url": url, "kind": "fault", "enc": truth[i]["enc"], "variant": "cut-" + cls})
    for variant in FAULT_VARIANTS:
        url = f"https://fault.example.jp/{variant}/{k:06d}"
        ts = rows[0]["warc_ts"]
        rows.append({"url": url, "warc_ts": ts, "html": fault_record(k, variant), "lang": "ja"})
        truth.append({"url": url, "kind": "fault", "enc": FAULT_ENCODING[variant], "variant": variant})
    return rows, truth


def _recrawls(rows, truth, seed: int, k: int, r: random.Random, groups: dict) -> None:
    """Append RECRAWL_PER_ROUND byte-identical copies of earlier non-fault
    pages under new urls; ``groups`` maps a source url to its group."""
    from yomitoku_ray.synth.pages import _DOMAINS

    sources = [i for i, tr in enumerate(truth) if tr["kind"] != "fault" and tr.get("copy_of") is None]
    for j in range(RECRAWL_PER_ROUND):
        i = r.choice(sources)
        src = rows[i]
        url = f"https://{r.choice(_DOMAINS)}/c/{seed}/{k:04d}{j:04d}"
        rows.append(dict(src, url=url))
        truth.append(dict(truth[i], url=url, copy_of=src["url"]))
        groups.setdefault(src["url"], [src["url"]]).append(url)


def _tables_page(seed: int, i: int) -> tuple[dict, dict]:
    """Table-dense page. Its shape follows ``i`` (3 in 4 pages ja, 2-4
    sections, 6 in 7 sections with a table, 1 in 10 ja pages Shift-JIS), so
    every round has the same make-up; the seed draws the words and table
    sizes and spans."""
    from yomitoku_ray.synth.pages import _EN_WORDS, _JA_WORDS, _sentence

    r = random.Random(f"tables-{seed}-{i}")
    lang = "en" if i % 4 == 3 else "ja"
    words = _JA_WORDS if lang == "ja" else _EN_WORDS
    parts = [f"<h1>{_sentence(r, lang, 3)}</h1>"]
    for s in range(2 + i % 3):
        parts.append(f"<h2>{_sentence(r, lang, 3)}</h2><p>{_sentence(r, lang)}</p>")
        if (i + s) % 7:
            parts.append(_table(r, words))
    html = (
        "<html><head><meta charset='utf-8'><title>t</title></head><body>"
        + "".join(parts)
        + "</body></html>"
    )
    enc = "shift-jis" if lang == "ja" and i % 10 == 0 else "utf-8"
    url = f"https://tables.example.jp/{seed}/{i:08d}"
    row = {
        "url": url,
        "warc_ts": _TS_BASE_US + i * 1_000_000,
        "html": html.encode(enc),
        "lang": lang,
    }
    return row, {"url": url, "kind": "page", "enc": enc}


def _table(r: random.Random, words) -> str:
    n_rows, n_cols = r.randint(3, 6), r.randint(2, 5)
    span = None
    if r.random() < 0.4:
        span = (r.randint(1, n_rows - 2), r.randint(0, n_cols - 2), r.randint(1, 2), r.randint(1, 2))
    taken = set()
    out = []
    for i in range(n_rows):
        cells = []
        for j in range(n_cols):
            if (i, j) in taken:
                continue
            tag = "th" if i == 0 else "td"
            text = r.choice(words) if i == 0 or r.random() < 0.6 else str(r.randint(1, 9999))
            attrs = ""
            if span and span[:2] == (i, j):
                rs, cs = min(span[2] + 1, n_rows - i), min(span[3] + 1, n_cols - j)
                attrs = f' rowspan="{rs}" colspan="{cs}"'
                taken.update((a, b) for a in range(i, i + rs) for b in range(j, j + cs))
            cells.append(f"<{tag}{attrs}>{text}{j}</{tag}>")
        out.append("<tr>" + "".join(cells) + "</tr>")
    return "<table>" + "".join(out) + "</table>"


def generate(workload: str, seed: int, rounds: int) -> tuple[list[dict], dict]:
    """(rows, truth) for ``rounds`` whole rounds of ``workload``."""
    rows: list[dict] = []
    truth: list[dict] = []
    groups: dict[str, list[str]] = {}
    r = random.Random(f"{workload}-{seed}")
    stream = _synth_stream(seed)
    for k in range(rounds):
        if workload == "semantic_tables":
            for i in range(k * TABLES_ROUND, (k + 1) * TABLES_ROUND):
                row, tr = _tables_page(seed, i)
                rows.append(row)
                truth.append(tr)
            continue
        rr, tt = _cc_round(stream, k, r)
        rows += rr
        truth += tt
        if workload == "corpus_recrawl":
            _recrawls(rows, truth, seed, k, r, groups)
    return rows, {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "pages": truth,
        "groups": sorted(groups.values()),
    }


def warm_rows(workload: str, n: int = 16) -> list[dict]:
    """A small fixed input for the warm-up batch (not part of any measure)."""
    rows, _ = generate(workload, seed=0, rounds=1)
    return rows[:n]


def write_pages(rows: list[dict], path: str) -> None:
    pq.write_table(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA), path, row_group_size=256)


def write_warc_shards(rows: list[dict], out_dir: str, n_shards: int = WARC_SHARDS) -> list[str]:
    """Contiguous split into CC-layout shards (one gzip member per record)."""
    from yomitoku_ray.sources.warc import write_warc_file

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    per = -(-len(rows) // n_shards)
    for s in range(n_shards):
        chunk = [
            {
                "url": row["url"],
                "warc_ts": int(row["warc_ts"].timestamp() * 1_000_000)
                if hasattr(row["warc_ts"], "timestamp")
                else int(row["warc_ts"]),
                "html": row["html"],
                "lang": row["lang"],
            }
            for row in rows[s * per : (s + 1) * per]
        ]
        path = os.path.join(out_dir, f"shard-{s:03d}.warc.gz")
        write_warc_file(chunk, path)
        paths.append(path)
    return paths


def materialize(workload: str, seed: int, rounds: int, out_dir: str) -> dict:
    """Write a workload's input, warm-up input and truth under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    rows, truth = generate(workload, seed, rounds)
    write_pages(rows, os.path.join(out_dir, "pages.parquet"))
    warm = warm_rows(workload)
    write_pages(warm, os.path.join(out_dir, "warm.parquet"))
    if workload == "crawl_warc_resume":
        write_warc_shards(rows, os.path.join(out_dir, "shards"))
        write_warc_shards(warm, os.path.join(out_dir, "warm_shards"), n_shards=1)
    with open(os.path.join(out_dir, "truth.json"), "w") as f:
        json.dump(truth, f)
    return truth


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_PAGES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    truth = materialize(args.workload, args.seed, args.rounds, args.out)
    print(json.dumps({"pages": len(truth["pages"]), "groups": len(truth["groups"])}))


if __name__ == "__main__":
    main()

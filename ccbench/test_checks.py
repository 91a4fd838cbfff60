"""Each benchmark check catches the wrong output it is meant to catch.

    python3 -m pytest ccbench/test_checks.py -q
"""

from __future__ import annotations

import hashlib
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402

PAGE = (
    "<html><head><title>t</title><script>var x=1;</script></head><body>"
    "<h1>東京の経済</h1>"
    "<p>市場は今日も開いた。 銀行が計画を発表した。</p>"
    "<p><ruby>大阪<rt>おおさか</rt></ruby>の会社が研究を始めた。</p>"
    "<table><tr><th>都市0</th><th>人口1</th></tr><tr><td>東京0</td><td>1401</td></tr></table>"
    "</body></html>"
)
URL = "https://example.jp/p/1"


def good_row(**over) -> dict:
    row = {
        "url": URL,
        "error": None,
        "extracted_text": "東京の経済\n市場は今日も開いた。\n銀行が計画を発表した。\n"
        "大阪の会社が研究を始めた。\n都市0 人口1\n東京0 1401",
        "csv": '"都市0","人口1"\r\n"東京0","1401"\r\n',
        "n_tables": 1,
    }
    row.update(over)
    return row


def run_rows(rows, raw=None, kind="page"):
    raw = PAGE.encode("utf-8") if raw is None else raw
    truth = [{"url": URL, "kind": kind, "enc": "utf-8"}]
    return checks.check_rows({URL: raw}, truth, rows)


def test_correct_row_passes():
    rep = run_rows([good_row()])
    assert rep.correct, rep.problems
    assert (rep.attempted, rep.failed) == (1, 0)


def test_dropped_sentence_is_caught():
    text = good_row()["extracted_text"].replace("銀行が計画を発表した。\n", "")
    rep = run_rows([good_row(extracted_text=text)])
    assert any("incomplete" in p for p in rep.problems)


def test_n_tables_off_by_one_is_caught():
    for n in (0, 2):
        rep = run_rows([good_row(n_tables=n)])
        assert any("n_tables" in p for p in rep.problems)


def test_missing_cell_is_caught():
    rep = run_rows([good_row(csv='"都市0","人口1"\r\n')])
    assert any("cell" in p for p in rep.problems)


def test_shift_jis_reading_of_utf8_page_is_caught():
    mojibake = good_row()["extracted_text"].encode("utf-8").decode("shift-jis", errors="replace")
    rep = run_rows([good_row(extracted_text=mojibake)])
    assert any("unsound" in p for p in rep.problems)


def test_error_row_for_a_decodable_page_is_caught():
    rep = run_rows([good_row(error="undecodable html bytes", extracted_text="", csv="", n_tables=0)])
    assert any("error row" in p for p in rep.problems)


def test_missing_and_duplicate_rows_are_caught():
    assert any("no output row" in p for p in run_rows([]).problems)
    assert any("more than one" in p for p in run_rows([good_row(), good_row()]).problems)


def test_table_cut_before_its_first_cell_is_no_table():
    _, _, n = checks.element_text("<p>a</p><table><tr>")
    assert n == 0
    _, _, n = checks.element_text("<p>a</p><table><tr><td>x")
    assert n == 1


@pytest.mark.parametrize("variant", gen.FAULT_VARIANTS)
def test_fault_records_fail_the_same_way_for_every_round(variant):
    for k in range(6):
        raw = gen.fault_record(k, variant)
        assert gen.strict_decodes(raw) == "shift-jis"
        assert gen.cut_class(raw, gen.FAULT_ENCODING[variant]) == "misread"


def test_cut_classes():
    page = "<html><body><p>東京の経済</p></body></html>".encode("utf-8")
    assert gen.cut_class(page[:21], "utf-8") == "boundary"
    assert gen.cut_class(page[:22], "utf-8") == "undecodable"
    assert gen.cut_class(("report 東京".encode("utf-8") * 4)[:-1], "utf-8") == "misread"


@pytest.mark.parametrize("variant", gen.FAULT_VARIANTS + ("cut-undecodable",))
def test_fault_record_outcomes_count_as_failed_not_wrong(variant):
    if variant == "cut-undecodable":
        whole, enc = PAGE.encode("utf-8"), "utf-8"
        cuts = (whole[:i] for i in range(len(whole) // 2, len(whole)))
        raw = next(c for c in cuts if gen.cut_class(c, enc) == "undecodable")
    else:
        raw, enc = gen.fault_record(3, variant), gen.FAULT_ENCODING[variant]
    url = f"https://fault.example.jp/{variant}/000003"
    truth = [{"url": url, "kind": "fault", "enc": enc}]
    rows = [{"url": url, "error": "undecodable html bytes", "extracted_text": ""}]
    if variant != "cut-undecodable":
        rows.append({"url": url, "error": None, "extracted_text": checks.visible_text(raw.decode("shift-jis"))})
    for row in rows:
        rep = checks.check_rows({url: raw}, truth, [row])
        assert rep.correct and rep.failed == 1, rep.problems
    # once the decoder reads the record as its author wrote it, the record
    # neither fails nor breaks a check
    page = checks.true_text(raw, enc)
    content, _, n_tables = checks.element_text(page)
    row = {"url": url, "error": None, "extracted_text": checks.visible_text(page), "csv": "", "n_tables": n_tables}
    if n_tables:
        row["csv"] = '"都市0","人口1"\r\n"東京0","1401"\r\n'
    rep = checks.check_rows({url: raw}, truth, [row])
    assert rep.correct and rep.failed == 0, rep.problems


def _survivor(url, text, n_copies=1):
    return {
        "url": url,
        "text": text,
        "digest": hashlib.md5(text.encode("utf-8")).hexdigest(),
        "n_words": len(text.split()),
        "n_copies": n_copies,
    }


CORPUS_PAGES = {
    "https://a.example/p/1": b"<html><body><p>alpha beta gamma delta epsilon</p></body></html>",
    "https://b.example/p/2": b"<html><body><p>zeta eta theta iota kappa</p></body></html>",
}
CORPUS_TRUTH = [{"url": u, "kind": "page", "enc": "utf-8"} for u in CORPUS_PAGES]


def test_corpus_correct_survivors_pass():
    pages = dict(CORPUS_PAGES, **{"https://c.example/c/1": CORPUS_PAGES["https://a.example/p/1"]})
    truth = CORPUS_TRUTH + [{"url": "https://c.example/c/1", "kind": "page", "enc": "utf-8"}]
    survivors = [
        _survivor("https://a.example/p/1", "alpha beta gamma delta epsilon", 2),
        _survivor("https://b.example/p/2", "zeta eta theta iota kappa"),
    ]
    groups = [["https://a.example/p/1", "https://c.example/c/1"]]
    rep = checks.check_corpus(pages, truth, groups, survivors)
    assert rep.correct, rep.problems


def test_two_survivors_sharing_a_digest_are_caught():
    one = _survivor("https://a.example/p/1", "alpha beta gamma delta epsilon")
    two = dict(_survivor("https://b.example/p/2", "zeta eta theta iota kappa"), digest=one["digest"])
    rep = checks.check_corpus(CORPUS_PAGES, CORPUS_TRUTH, [], [one, two])
    assert any("shared by 2" in p for p in rep.problems)


def test_recrawl_group_survivor_rules_are_caught():
    pages = dict(CORPUS_PAGES, **{"https://0.example/c/1": CORPUS_PAGES["https://a.example/p/1"]})
    truth = CORPUS_TRUTH + [{"url": "https://0.example/c/1", "kind": "page", "enc": "utf-8"}]
    group = [["https://a.example/p/1", "https://0.example/c/1"]]
    text = "alpha beta gamma delta epsilon"
    wrong_url = checks.check_corpus(pages, truth, group, [_survivor("https://a.example/p/1", text, 2)])
    assert any("survivor is" in p for p in wrong_url.problems)
    few_copies = checks.check_corpus(pages, truth, group, [_survivor("https://0.example/c/1", text, 1)])
    assert any("n_copies" in p for p in few_copies.problems)


def test_survivor_failing_the_gates_is_caught():
    pages = {"https://a.example/p/1": b"<html><body><p>alpha alpha alpha alpha beta</p></body></html>"}
    truth = [{"url": "https://a.example/p/1", "kind": "page", "enc": "utf-8"}]
    rep = checks.check_corpus(pages, truth, [], [_survivor("https://a.example/p/1", "alpha alpha alpha alpha beta")])
    assert any("quality gates" in p for p in rep.problems)


def test_input_file_in_two_manifests_is_caught():
    shards = ["s0.warc.gz", "s1.warc.gz"]
    manifests = [
        {"wave": "wave-a", "input_files": ["s0.warc.gz"], "row_count": 1},
        {"wave": "wave-b", "input_files": ["s0.warc.gz", "s1.warc.gz"], "row_count": 1},
    ]
    wave_urls = {"wave-a": ["u0"], "wave-b": ["u1"]}
    rep = checks.check_manifests(shards, manifests, wave_urls, ["u0", "u1"])
    assert any("in 2 manifests" in p for p in rep.problems)
    ok = checks.check_manifests(shards, [manifests[0], dict(manifests[1], input_files=["s1.warc.gz"])], wave_urls, ["u0", "u1"])
    assert ok.correct, ok.problems


def test_url_in_two_waves_and_wrong_row_count_are_caught():
    manifests = [
        {"wave": "wave-a", "input_files": ["s0"], "row_count": 1},
        {"wave": "wave-b", "input_files": ["s1"], "row_count": 2},
    ]
    rep = checks.check_manifests(["s0", "s1"], manifests, {"wave-a": ["u0"], "wave-b": ["u0"]}, ["u0"])
    assert any("appears 2 times" in p for p in rep.problems)
    assert any("row_count 2 != 1" in p for p in rep.problems)


def test_inputs_are_a_function_of_the_seed():
    a, ta = gen.generate("corpus_recrawl", seed=5, rounds=1)
    b, tb = gen.generate("corpus_recrawl", seed=5, rounds=1)
    c, _ = gen.generate("corpus_recrawl", seed=6, rounds=1)
    assert a == b and ta == tb
    assert [r["html"] for r in a] != [r["html"] for r in c]
    assert len(a) == gen.ROUND_PAGES["corpus_recrawl"]
    faults = [t["variant"] for t in ta["pages"] if t["kind"] == "fault"]
    assert sorted(faults) == sorted(["cut-undecodable"] * 2 + ["malformed-cut", "mojibake", "euc-misread"])
    euc = [t for t in ta["pages"] if t["enc"] == "euc-jp" and t["kind"] == "page" and "copy_of" not in t]
    assert len(euc) == gen.QUOTAS["euc-jp"]
    assert all(len(g) >= 2 for g in ta["groups"])

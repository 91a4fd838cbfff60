"""Normalizer registry + rule extraction cascade tests (mirrors the exact
in/out pairs of the reference's tests/test_extractor.py)."""

import json

from yomitoku_ray.extractor import ExtractionSchema
from yomitoku_ray.extractor.rule_pipeline import run_rule_extraction
from yomitoku_ray.functions.normalize import apply_normalize, list_normalizers
from yomitoku_ray.oracle import parse_semantic_html_bytes


def test_normalizer_registry_complete():
    expected = {
        "strip_spaces", "numeric", "phone_jp", "date_jp", "date_yyyymmdd",
        "time_jp", "time_hms", "alphanumeric", "hiragana", "katakana",
        "postal_code_jp",
    }
    assert expected <= set(list_normalizers())


def test_normalizer_rules_exact():
    cases = [
        ("strip_spaces", "a b　c\td", "abcd"),
        ("numeric", "１，２３４円", "1234"),
        ("numeric", "-12.5%", "-12.5"),
        ("phone_jp", "０３－１２３４－５６７８", "031-234-5678"),
        ("phone_jp", "09012345678", "090-1234-5678"),
        ("date_jp", "令和6年1月2日", "2024-01-02"),
        ("date_jp", "平成30年12月31日", "2018-12-31"),
        ("date_jp", "R6/1/2", "2024-01-02"),
        ("date_jp", "2024年1月2日", "2024-01-02"),
        ("date_jp", "2024/1/2", "2024-01-02"),
        ("date_jp", "no date here", "no date here"),
        ("date_yyyymmdd", "令和6年1月2日", "20240102"),
        ("time_jp", "9時5分", "9時05分"),
        ("time_jp", "09:05:07", "9時05分07秒"),
        ("time_hms", "9時5分", "09:05:00"),
        ("time_hms", "9:5:7", "09:05:07"),
        ("alphanumeric", "ＡＢＣ-123あ", "ABC123"),
        ("hiragana", "カタカナとひらがな123", "かたかなとひらがな"),
        ("katakana", "カタカナとひらがな123", "カタカナトヒラガナ"),
        ("postal_code_jp", "〒１２３４５６７", "123-4567"),
        ("unknown_rule", "passthrough", "passthrough"),
        (None, 42, "42"),
    ]
    for rule, inp, want in cases:
        assert apply_normalize(inp, rule) == want, (rule, inp)


FORM_HTML = """
<html><body>
<p>Invoice No T1234567890123 issued.</p>
<table>
<tr><th>customer</th><td>Yamada Trading</td></tr>
<tr><th>total</th><td>1,234</td></tr>
<tr><th>issued</th><td>2024/1/2</td></tr>
</table>
<table>
<tr><th>item</th><th>qty</th><th>amount</th></tr>
<tr><td>apple</td><td>3</td><td>360</td></tr>
<tr><td>banana</td><td>5</td><td>400</td></tr>
</table>
</body></html>
"""


def _semantic():
    doc, err = parse_semantic_html_bytes(FORM_HTML.encode())
    assert err is None
    return doc


def test_scalar_extraction_by_kv_and_regex():
    schema = ExtractionSchema.from_dict(
        {
            "fields": [
                {"name": "customer", "description": "customer"},
                {"name": "total", "description": "total", "normalize": "numeric"},
                {"name": "invoice_no", "regex": r"T\d{13}"},
                {"name": "issued", "description": "issued", "normalize": "date_jp"},
                {"name": "missing", "description": "nonexistent key"},
            ]
        }
    )
    out = run_rule_extraction(_semantic(), schema, simple=True)
    assert out["customer"] == "YamadaTrading"
    assert out["total"] == "1234"
    assert out["invoice_no"] == "T1234567890123"
    assert out["issued"] == "2024-01-02"
    assert out["missing"] == ""


def test_table_extraction_with_columns():
    schema = ExtractionSchema.from_dict(
        {
            "fields": [
                {
                    "name": "items",
                    "structure": "table",
                    "columns": [
                        {"name": "item"},
                        {"name": "qty", "normalize": "numeric"},
                        {"name": "amount", "normalize": "numeric"},
                    ],
                }
            ]
        }
    )
    out = run_rule_extraction(_semantic(), schema, simple=True)
    assert out["items"] == [
        {"item": "apple", "qty": "3", "amount": "360"},
        {"item": "banana", "qty": "5", "amount": "400"},
    ]


def test_provenance_output():
    schema = ExtractionSchema.from_dict(
        {"fields": [{"name": "customer", "description": "customer"}]}
    )
    out = run_rule_extraction(_semantic(), schema, simple=False)
    f = out["fields"]["customer"]
    assert f["structure"] == "kv"
    assert f["source"] == "kv"
    assert f["confidence"] == "high"
    assert f["cell_ids"] and f["bboxes"]
    assert out["metadata"]["schema_version"] == "1.0"


def test_extraction_from_yaml(tmp_path):
    yaml_path = tmp_path / "schema.yaml"
    yaml_path.write_text(
        "fields:\n  - name: total\n    description: total\n    normalize: numeric\n",
        encoding="utf-8",
    )
    schema = ExtractionSchema.from_yaml(str(yaml_path))
    out = run_rule_extraction(_semantic(), schema, simple=True)
    assert out["total"] == "1234"


def test_output_is_json_serializable():
    schema = ExtractionSchema.from_dict(
        {"fields": [{"name": "invoice_no", "regex": r"T\d{13}"}]}
    )
    out = run_rule_extraction(_semantic(), schema)
    json.dumps(out, ensure_ascii=False)

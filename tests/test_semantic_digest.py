"""Frozen-output guard for the semantic stage.

The semantic match-rate query and the benchmark's sample check compare the
code with itself, so neither sees a change in what the parser emits. This
test runs ``SemanticExtractStage`` in process on 100 of the benchmark's
table-dense pages, plus a few hand-written tables that reach what those
pages do not (KV rows inside group regions, nested and spanning headers,
columns that ``merge_same_column_values`` joins). It compares a sha256 of
every output column that carries the parse against digests frozen from the
code before the adjacency evaluation was fused. A parser change that moves
one byte fails here.
"""

import hashlib
import os
import sys

import pyarrow as pa
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "ccbench"))
import gen  # noqa: E402

from yomitoku_ray.stages.semantic_stage import SemanticExtractStage  # noqa: E402

# The benchmark's two-field extraction schema (ccbench/worker.py).
SCHEMA = {
    "fields": [
        {"name": "first_number", "regex": r"\d+", "normalize": "numeric"},
        {"name": "heading", "description": "の"},
    ]
}
# Row/col spans, tbody groups and mixed th/td rows; the first table is
# the only input here whose output depends on merge_same_column_values.
EXTRA_TABLES = [
    '<tr><th colspan="2">price</th><th>qty</th></tr><tr><td>10</td><td>12</td><td>3</td></tr>'
    "<tr><td>20</td><td>22</td><td>4</td></tr>",
    '<tr><th rowspan="2">name</th><th colspan="2">score</th></tr><tr><th>math</th><th>art</th></tr>'
    "<tr><td>taro</td><td>80</td><td>70</td></tr><tr><td>hana</td><td></td><td>90</td></tr>",
    "<tbody><tr><th>k1</th><td>v1</td><td>w1</td></tr><tr><th>k2</th><td>v2</td><td></td></tr></tbody>"
    "<tbody><tr><th>k3</th><th>k4</th><td>v3</td></tr></tbody>",
    '<tr><th>a</th><td>1</td><th>b</th><td>2</td></tr><tr><th>c</th><td colspan="3">3</td></tr>'
    "<tr><td></td><td>x</td><td>y</td><td>z</td></tr>",
    "<tr><th>contact</th><th>phone</th><td>03-1111</td></tr><tr><th>contact</th><th>fax</th><td>03-2222</td></tr>",
]
COLUMNS = ("semantic_json", "views_json", "extraction_json", "n_kv_items", "n_grids")
FROZEN = {
    False: "e895af7938d0e7ee7f122b99f9576d1ca8b500a93cc8e25bf778a86dead4aecc",
    True: "2c348fa3ea4b0ab5270aa13b7f83ecfc5af8959ca07f8654a2abf01354ac7364",
}


def _digest(merge):
    rows, _ = gen.generate("semantic_tables", 11, 1)
    for i, body in enumerate(EXTRA_TABLES):
        html = f"<html><body><p>intro</p><table>{body}</table></body></html>"
        rows.append({"url": f"https://extra.example.jp/{i}", "warc_ts": 0, "html": html.encode(), "lang": "en"})
    table = pa.Table.from_pylist(rows, schema=gen.PAGES_SCHEMA)
    out = SemanticExtractStage(extraction_schema=SCHEMA, merge_same_column_values=merge)(table)
    h = hashlib.sha256()
    for row in out.select(list(COLUMNS)).to_pylist():
        for name in COLUMNS:
            h.update(f"{name}={row[name]}\x00".encode())
    return out, h.hexdigest()


@pytest.mark.parametrize("merge", [False, True], ids=["plain", "merge_columns"])
def test_semantic_stage_output_is_frozen(merge):
    out, digest = _digest(merge)
    assert out.num_rows == 100 + len(EXTRA_TABLES)
    assert out.column("error").null_count == out.num_rows
    assert sum(out.column("n_grids").to_pylist()) > 0
    assert digest == FROZEN[merge]

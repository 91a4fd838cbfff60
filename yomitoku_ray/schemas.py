"""Arrow schemas for every stage boundary.

The Ray-native analogue of the reference's Pydantic ``extra=forbid``
validation (``/root/reference/src/yomitoku/base.py:51-57``): each
``map_batches`` stage emits a pyarrow Table built against these fixed types,
so a shape drift fails the stage instead of silently corrupting downstream
blocks. Boxes are int32 xyxy, quads 4x2 int32 — matching the reference's
int-coordinate convention (utils/misc.py:75-91).
"""

from __future__ import annotations

import pyarrow as pa

BOX = pa.list_(pa.int32(), 4)
QUAD = pa.list_(pa.list_(pa.int32(), 2), 4)

WORD = pa.struct(
    [
        ("points", QUAD),
        ("content", pa.string()),
        ("direction", pa.string()),
        ("rec_score", pa.float64()),
        ("det_score", pa.float64()),
    ]
)

SPAN = pa.struct(
    [
        ("start", pa.int64()),
        ("end", pa.int64()),
        ("elem_type", pa.string()),
        ("order", pa.int32()),
    ]
)

# Final output row (FIXTURES.md §4).
RESULT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("error", pa.string()),
        ("extracted_text", pa.large_string()),
        ("markdown", pa.large_string()),
        ("html", pa.large_string()),
        ("csv", pa.large_string()),
        ("doc_json", pa.large_string()),
        ("spans", pa.list_(SPAN)),
        ("n_words", pa.int32()),
        ("n_paragraphs", pa.int32()),
        ("n_tables", pa.int32()),
        ("n_figures", pa.int32()),
        ("n_boilerplate", pa.int32()),
        ("truncated", pa.bool_()),
    ]
)

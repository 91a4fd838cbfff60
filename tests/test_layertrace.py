"""The benchmark's per-layer trace over the extraction and semantic stages.

``ccbench/layertrace.py`` swaps each layer function a stage calls for a
timing wrapper. A layer that the stage stops calling through the names the
tracer patches reads 0 ms, so every traced layer must read above 0 here.
"""

import os
import sys

import pytest

from yomitoku_ray.synth.pages import generate_pages_table

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "ccbench"))
import layertrace  # noqa: E402

SEMANTIC_SCHEMA = {
    "fields": [
        {"name": "first_number", "regex": r"\d+", "normalize": "numeric"},
        {"name": "heading", "description": "の"},
    ]
}


@pytest.mark.parametrize(
    "kind, kwargs, layers",
    [
        ("fused", {}, layertrace.FUSED_LAYERS),
        ("semantic", {"extraction_schema": SEMANTIC_SCHEMA}, layertrace.SEMANTIC_LAYERS),
    ],
)
def test_every_traced_layer_is_timed(tmp_path, kind, kwargs, layers):
    table = generate_pages_table(16)
    out = layertrace.trace_stage(kind, table, kwargs, 8, str(tmp_path / "spans.json"))
    for metric in layers:
        assert out[metric] > 0, metric
    assert out[f"{kind}_stage.boundary_ms"] > 0
    assert out["detect.words_per_page"] > 0

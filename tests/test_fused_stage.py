"""FusedExtractStage batch contract: RESULT_SCHEMA out, ``path`` passed through."""

import pyarrow as pa

from yomitoku_ray.pipelines.extract import PAGES_COLUMNS
from yomitoku_ray.schemas import RESULT_SCHEMA
from yomitoku_ray.stages.fused_stage import FusedExtractStage
from yomitoku_ray.synth.pages import generate_pages_table


def _pages(n=4):
    return generate_pages_table(n).select(PAGES_COLUMNS)


def test_batch_without_path_returns_result_schema():
    out = FusedExtractStage()(_pages())
    assert out.schema == RESULT_SCHEMA
    assert out.num_rows == 4


def test_path_column_is_passed_through():
    pages = _pages()
    paths = pa.array(["/in/a.warc.gz", "/in/a.warc.gz", "/in/b.parquet", "/in/b.parquet"])
    out = FusedExtractStage()(pages.append_column("path", paths))
    assert out.schema == RESULT_SCHEMA.append(pa.field("path", pa.string()))
    assert out.column("path").to_pylist() == paths.to_pylist()
    # the extraction columns are those of the batch without the path
    plain = FusedExtractStage()(pages)
    assert out.drop_columns(["path"]).equals(plain)

"""The flagship extraction pipeline.

read_parquet(pages) -> FusedExtractStage (Ray tasks)
[-> checkpointed partitioned parquet sink]

Shape per SURVEY.md §7.1. Scale posture:
- the read prunes to the columns the pipeline needs (url, warc_ts, html,
  lang) — ``text`` never leaves storage;
- decode, detect, aggregate and render run per page inside one task
  (``stages.fused_stage.extract_document``), so the html blob and the
  detection structs never cross a stage boundary: only the final output
  columns leave the task, and with no concurrency cap Ray fuses that task
  with the write after it;
- no shuffle anywhere in the per-document path (all joins are intra-row);
  the only wide operation the engine ever needs (multi-page merge / url
  dedup) lives in ``yomitoku_ray.functions.dedup`` with salted keys;
- streaming execution end-to-end: nothing materializes the full dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import ray.data

from ..stages.fused_stage import FusedExtractStage
from ..stages.page_stage import map_page_stage

PAGES_COLUMNS = ["url", "warc_ts", "html", "lang"]


@dataclass
class ExtractConfig:
    # Cap on the concurrent tasks of the fused extraction stage (detection
    # is its heavy part, hence the names); None sets no cap, so the stage
    # fuses with the task operators after it (``map_page_stage``).
    detect_concurrency: int | None = None
    detect_batch_size: int = 64
    reading_order: str = "auto"
    ignore_meta: bool = False
    ignore_ruby: bool = False
    # Read parallelism: blocks per input (None = Ray default). The pages
    # parquet has few large files; splitting blocks finer gives the stage
    # more tasks to run in parallel.
    read_num_blocks: int | None = None


def read_pages(path, columns=PAGES_COLUMNS, cfg: "ExtractConfig | None" = None, filter=None):
    """Column-pruned read of a pages parquet dir/file; ``filter`` (a
    pyarrow expression) is pushed into the scan as a row filter."""
    kwargs = {}
    if cfg is not None and cfg.read_num_blocks:
        kwargs["override_num_blocks"] = cfg.read_num_blocks
    if filter is not None:
        kwargs["filter"] = filter
    return ray.data.read_parquet(path, columns=list(columns), **kwargs)


def build_extract_pipeline(ds: ray.data.Dataset, cfg: ExtractConfig | None = None):
    """Attach the extraction stage to a pages Dataset (lazy)."""
    cfg = cfg or ExtractConfig()
    return map_page_stage(
        ds,
        FusedExtractStage,
        {
            "reading_order": cfg.reading_order,
            "ignore_meta": cfg.ignore_meta,
            "ignore_ruby": cfg.ignore_ruby,
        },
        batch_size=cfg.detect_batch_size,
        concurrency=cfg.detect_concurrency,
    )


def extract_pages(path, cfg: ExtractConfig | None = None):
    """read -> fused extraction as a lazy Dataset."""
    cfg = cfg or ExtractConfig()
    return build_extract_pipeline(read_pages(path, cfg=cfg), cfg)

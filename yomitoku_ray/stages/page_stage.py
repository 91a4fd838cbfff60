"""The frame every page stage shares: one engine, one row loop per batch.

The reference analyzes a page in one call and turns its failure into an
error row (``cli/main.py:548-549``). The extract, semantic and OCR stages
differ only in that call and in their output columns, so each supplies its
``schema``, its ``empty_row`` and a per-page ``page(raw, url)``; the engine,
the loop over ``html``, the error-row policy, the pass-through columns and
the Arrow assembly live here. ``map_page_stage`` attaches a stage to a
Dataset as stateless Ray tasks, each building a fresh stage for its batch.
"""

from __future__ import annotations

import functools

import pyarrow as pa
import ray

from ..detect import PageLayoutEngine
from ..dom import DecodeError

# Input columns copied to the output when the stage's schema has them. An
# explicit list: RESULT_SCHEMA's ``html`` is the rendered page, never the
# raw input ``html``.
PASS_THROUGH = ("url", "warc_ts", "lang")


def per_row_errors(fn):
    """The per-row error policy: the wrapped call returns ``(result, None)``,
    or ``(None, error)`` when it raises — a ``DecodeError``'s message, any
    other exception as ``"Type: msg"`` — so a malformed page yields an error
    row, never a failed block."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs), None
        except DecodeError as e:
            return None, str(e)
        except Exception as e:
            return None, f"{type(e).__name__}: {e}"

    return guarded


class PageStage:
    """Maps ``page`` over a batch's ``html``: Arrow in, ``schema`` out.

    A subclass sets ``schema`` (with an ``error`` column) and ``empty_row``
    (every other non-pass-through column) and defines ``page(raw, url) ->
    (row | None, error | None)``; an error row gets ``empty_row``. A
    ``path`` column in the input (a reader's ``include_paths``) is appended
    after the schema's columns, so a downstream writer can route each row
    by its source file."""

    schema: pa.Schema
    empty_row: dict
    collect_semantic = False

    def __init__(self):
        self.engine = PageLayoutEngine(collect_semantic=self.collect_semantic)

    def page(self, raw: bytes | None, url: str) -> tuple[dict | None, str | None]:
        raise NotImplementedError

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {f.name: [] for f in self.schema if f.name not in PASS_THROUGH}
        for url, raw in zip(batch.column("url").to_pylist(), batch.column("html").to_pylist()):
            row, err = self.page(raw, url)
            out["error"].append(err)
            for key, value in (self.empty_row if err is not None else row).items():
                out[key].append(value)
        table = pa.Table.from_arrays(
            [
                batch.column(f.name) if f.name in PASS_THROUGH else pa.array(out[f.name], f.type)
                for f in self.schema
            ],
            schema=self.schema,
        )
        if "path" in batch.column_names:
            table = table.append_column("path", batch.column("path"))
        return table


def _run_stage(batch: pa.Table, stage: type[PageStage], kwargs: dict) -> pa.Table:
    return stage(**kwargs)(batch)


def map_page_stage(
    ds: ray.data.Dataset,
    stage: type[PageStage],
    constructor_kwargs: dict | None = None,
    batch_size: int = 32,
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """Attach ``stage`` to ``ds`` as a task-pool ``map_batches`` (lazy).

    Each task builds ``stage(**constructor_kwargs)`` for its batch (a few
    µs, against hundreds of ms for the batch), so no state outlives a
    batch and no actor holds a CPU between Datasets. ``concurrency`` caps
    the concurrent tasks; None sets no cap, which lets Ray fuse the stage
    with the task operators after it."""
    return ds.map_batches(
        _run_stage,
        fn_kwargs={"stage": stage, "kwargs": constructor_kwargs or {}},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )

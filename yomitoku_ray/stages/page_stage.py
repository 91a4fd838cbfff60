"""The frame every page stage shares: one actor, one engine, one row loop.

The reference analyzes a page in one call and turns its failure into an
error row (``cli/main.py:548-549``). The extract, semantic and OCR stages
differ only in that call and in their output columns, so each supplies its
``schema``, its ``empty_row`` and a per-page ``page(raw, url)``; the engine,
the loop over ``html``, the error-row policy, the pass-through columns and
the Arrow assembly live here. ``map_page_stage`` attaches a stage to a
Dataset with an actor pool sized from the cluster.
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


def map_page_stage(
    ds: ray.data.Dataset,
    stage: type[PageStage],
    constructor_kwargs: dict | None = None,
    batch_size: int = 32,
    concurrency: int | tuple | None = None,
) -> ray.data.Dataset:
    """Attach ``stage`` to ``ds`` as an actor pool (lazy).

    With C cluster CPUs the pool is ``concurrency`` or, when that is None,
    ``(1, max(1, C - 1))`` actors, so read and write tasks always keep a
    CPU; each actor reserves one CPU, or none on a one-CPU cluster, where
    a reserving actor would leave the read nothing to run on."""
    cpus = int(ray.cluster_resources().get("CPU", 1))
    return ds.map_batches(
        stage,
        fn_constructor_kwargs=constructor_kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency or (1, max(1, cpus - 1)),
        num_cpus=1 if cpus >= 2 else 0,
    )

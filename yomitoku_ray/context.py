"""Deliberate Ray Data context configuration.

The wide exchanges in this engine (the coarse-bucket ``groupby`` shuffles,
the sorts inside map_groups stages) run on whatever shuffle strategy the
DataContext carries; leaving it to Ray's deduced default means the 100-TB
shuffle path is chosen implicitly and can change under us between Ray
releases. Pin it here, once, with the rationale:

- ``SORT_SHUFFLE_PULL_BASED`` is the strategy every correctness gate and
  every benchmark in BASELINE.md was measured on; our exchanges pre-combine
  per batch and key on uniform coarse buckets, so shuffle volume per stage
  is modest and the stable pull-based sort path is the right default.
- ``RAY_DATA_DEFAULT_SHUFFLE_STRATEGY`` still overrides per deployment
  (e.g. push-based on very large clusters) — an explicit env choice, not a
  silent default, wins below. ``hash_shuffle`` is not a safe choice: its
  aggregators are actors that each reserve CPU and memory up front, and on
  a one- or two-CPU cluster they wait for resources they never get. For the
  same reason no operator calls ``Dataset.join``, which always runs on
  them.
"""

from __future__ import annotations

import os
import warnings

_CONFIGURED = False


def configure_data_context() -> None:
    """Idempotent; called on package import so every entry path (driver,
    CLI, bench, tests) runs the same deliberately-chosen shuffle path."""
    global _CONFIGURED
    if _CONFIGURED:
        return
    import ray.data.context as _ctx

    with warnings.catch_warnings():
        # Ray 2.49's DataContext dataclass __init__ assigns its own
        # deprecated use_push_based_shuffle field, firing a
        # DeprecationWarning on first construction; suppress exactly that
        # while pinning the REPLACEMENT knob explicitly below.
        warnings.filterwarnings(
            "ignore", message=".*use_push_based_shuffle.*", category=DeprecationWarning
        )
        ctx = _ctx.DataContext.get_current()
        if "RAY_DATA_DEFAULT_SHUFFLE_STRATEGY" not in os.environ:
            ctx.shuffle_strategy = _ctx.ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    _CONFIGURED = True

"""Checkpointed, resumable pipeline runs (per-partition lineage + metrics).

The reference has no checkpointing (a re-run overwrites per-page output
files, cli/main.py:140-143); the north rule requires a killed
``ray job submit`` run to resume from the last committed partition. Design:

- the unit of commit is a **wave**: a deterministic chunk of the sorted
  input file list. Each wave runs the full extraction pipeline as one
  streaming Dataset execution and writes to ``data/wave-<k>.tmp`` ->
  atomic ``os.replace`` to ``data/wave-<k>`` -> manifest JSON written
  tmp+rename. A kill loses at most the in-flight wave.
- the manifest row carries lineage (input files + sizes, engine version,
  config echo) and metrics (row count, ok/error/truncated counts, output
  bytes, wall seconds) — the per-partition "lineage + row-count/byte-count
  metrics" of the north rule.
- resume = list manifests, subtract their input files from the input
  listing, process the remainder. Input files already covered are never
  re-read (skip happens at the read, not after).
- **concurrent resume is safe**: waves are named by the content hash of
  their input-file chunk, and a driver must win an O_EXCL claim file
  before processing a chunk. A second driver racing the same out_root
  skips live-claimed chunks (taking the next unclaimed work instead),
  re-claims only stale claims (lease expiry = a dead driver), writes to a
  per-process tmp dir, and commits via ``os.replace`` — if another driver
  already committed the same wave, the non-empty destination makes the
  replace fail and the loser discards its tmp. Every input file lands in
  exactly one manifest; no double-writes (tests/test_checkpoint.py races
  two drivers to prove it).

At cluster scale the wave size trades resume granularity against scheduling
overhead; within a wave the streaming executor distributes blocks across
the cluster, so a wave is NOT a parallelism boundary — only a commit
boundary.
"""

from __future__ import annotations

import gc
import glob
import hashlib
import json
import os
import shutil
import socket
import time
import uuid

import pyarrow.dataset as pads

from .. import __version__
from ..pipelines.extract import ExtractConfig, build_extract_pipeline, read_pages


def _list_input_files(pages_path: str) -> list[str]:
    if os.path.isdir(pages_path):
        files = sorted(
            glob.glob(os.path.join(pages_path, "*.parquet"))
            + glob.glob(os.path.join(pages_path, "*.warc"))
            + glob.glob(os.path.join(pages_path, "*.warc.gz"))
        )
        return files
    return [pages_path]


def _read_chunk(chunk: list[str]):
    """Pages Dataset for one wave's input files — parquet or WARC shards
    (the checkpoint unit is the input FILE either way, so a resumed crawl
    skips whole committed WARC shards exactly like committed parquet).

    A directory mixing both formats yields mixed chunks; each format goes
    to ITS reader and the two sides union (an all-warc test would feed
    .warc files to the parquet reader and fail the wave otherwise)."""
    warc = [p for p in chunk if p.endswith((".warc", ".warc.gz"))]
    other = [p for p in chunk if not p.endswith((".warc", ".warc.gz"))]
    parts = []
    if warc:
        from ..pipelines.extract import PAGES_COLUMNS
        from ..sources.warc import read_warc

        parts.append(read_warc(warc).select_columns(list(PAGES_COLUMNS)))
    if other:
        parts.append(read_pages(other))
    out = parts[0]
    for extra in parts[1:]:
        out = out.union(extra)
    return out


def _manifest_dir(out_root: str) -> str:
    return os.path.join(out_root, "manifest")


def completed_input_files(out_root: str) -> set[str]:
    done = set()
    for path in glob.glob(os.path.join(_manifest_dir(out_root), "wave-*.json")):
        try:
            with open(path) as f:
                manifest = json.load(f)
            data_dir = os.path.join(out_root, "data", manifest["wave"])
            if os.path.isdir(data_dir):
                done.update(manifest["input_files"])
        except (json.JSONDecodeError, KeyError, OSError):
            continue  # torn manifest: treat its wave as not done
    return done


def _out_stats(data_dir: str) -> tuple[int, int, dict]:
    ds = pads.dataset(data_dir)
    rows = 0
    n_err = 0
    n_trunc = 0
    for batch in ds.to_batches(columns=["error", "truncated"]):
        rows += batch.num_rows
        n_err += batch.column("error").is_valid().sum().as_py() if batch.num_rows else 0
        n_trunc += sum(1 for v in batch.column("truncated").to_pylist() if v)
    nbytes = sum(
        os.path.getsize(p) for p in glob.glob(os.path.join(data_dir, "*.parquet"))
    )
    return rows, nbytes, {"n_error_rows": n_err, "n_truncated_rows": n_trunc}


def _claims_dir(out_root: str) -> str:
    return os.path.join(out_root, "claims")


def _wave_name(chunk: list[str]) -> str:
    """Content-addressed wave id: same chunk -> same name in every driver."""
    digest = hashlib.sha1("\n".join(chunk).encode("utf-8")).hexdigest()[:12]
    return f"wave-{digest}"


_HOSTNAME = socket.gethostname()


def _claim_is_stale(path: str, lease_sec: float) -> bool:
    """A claim is stale when its mtime lease expired, OR it was taken by a
    process on THIS host whose pid is no longer alive (a SIGKILLed driver's
    fresh claim must not block an immediate same-host restart for the whole
    lease). Fresh-but-unparseable claims (crash between O_EXCL and the body
    write) are conservatively treated as LIVE until the lease expires."""
    try:
        if time.time() - os.path.getmtime(path) >= lease_sec:
            return True
        with open(path) as f:
            body = json.load(f)
    except OSError:
        return False  # vanished or unreadable: let the owner/lease sort it out
    except json.JSONDecodeError:
        return False  # torn body, fresh mtime: live until lease expiry
    pid = body.get("pid")
    if isinstance(pid, int) and body.get("host") == _HOSTNAME and pid != os.getpid():
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True  # same host, recorded pid is dead
        except OSError:
            pass  # e.g. EPERM: process exists under another user -> live
    return False


def _live_claimed_files(out_root: str, lease_sec: float) -> set[str]:
    """Files covered by a live claim whose wave is not yet committed.

    A stale claim (lease expiry, or dead pid on this host — see
    ``_claim_is_stale``) is a dead driver: its files return to the todo
    pool (and the claim file is removed by the re-claimer).
    """
    claimed = set()
    for path in glob.glob(os.path.join(_claims_dir(out_root), "wave-*.claim")):
        wave = os.path.basename(path)[: -len(".claim")]
        mpath = os.path.join(_manifest_dir(out_root), wave + ".json")
        if os.path.exists(mpath):
            continue  # committed: claim is a leftover, not a lock
        if _claim_is_stale(path, lease_sec):
            continue  # stale: files are re-claimable
        try:
            with open(path) as f:
                claimed.update(json.load(f)["input_files"])
        except (OSError, json.JSONDecodeError, KeyError):
            continue  # unreadable live claim: files stay in todo; the run
            # loop backs off on its wave name instead of busy-spinning
    return claimed


def _try_claim(out_root: str, wave_name: str, chunk: list[str], lease_sec: float) -> bool:
    """Atomically claim a wave (O_EXCL). Returns False if someone else owns
    a live claim; breaks and retakes a stale claim exactly once.

    Stale locks are broken via atomic ``os.rename`` to a unique name — of N
    racing drivers exactly one rename succeeds, so only one contender
    proceeds to recreate the claim (the unlink-based break let two drivers
    both own the wave when B unlinked A's freshly recreated claim)."""
    path = os.path.join(_claims_dir(out_root), wave_name + ".claim")
    body = json.dumps(
        {
            "input_files": chunk,
            "pid": os.getpid(),
            "host": _HOSTNAME,
            "created_unix": int(time.time()),
        }
    )
    for attempt in (0, 1):
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            with os.fdopen(fd, "w") as f:
                f.write(body)
            return True
        except FileExistsError:
            if not _claim_is_stale(path, lease_sec):
                return False  # live owner
            if attempt == 0:
                broken = f"{path}.broken-{os.getpid()}-{uuid.uuid4().hex[:6]}"
                try:
                    os.rename(path, broken)  # atomic: one winner per stale lock
                except OSError:
                    return False  # another driver broke it first
                try:
                    os.unlink(broken)
                except OSError:
                    pass
    return False


def run_resumable(
    pages_path: str,
    out_root: str,
    cfg: ExtractConfig | None = None,
    wave_files: int = 4,
    max_waves: int | None = None,
    claim_lease_sec: float = 3600.0,
) -> dict:
    """Run (or resume) the extraction pipeline with per-wave commits.

    Safe under concurrent drivers on the same ``out_root`` (see module
    docstring): work is re-listed every iteration minus committed and
    live-claimed files, each chunk is claimed atomically before
    processing, and the data-dir commit is an ``os.replace`` that can only
    succeed once per wave.

    ``max_waves`` bounds how many waves this invocation processes (used by
    tests to simulate a kill between commits). Returns a summary dict.
    """
    cfg = cfg or ExtractConfig()
    os.makedirs(os.path.join(out_root, "data"), exist_ok=True)
    os.makedirs(_manifest_dir(out_root), exist_ok=True)
    os.makedirs(_claims_dir(out_root), exist_ok=True)

    files = _list_input_files(pages_path)
    done0 = completed_input_files(out_root)

    # Clean torn wave dirs (data without manifest) — but never a dir whose
    # wave has a LIVE claim: that is another driver's in-flight commit
    # window (between os.replace and its manifest write).
    manifests = {
        os.path.basename(p)[: -len(".json")]
        for p in glob.glob(os.path.join(_manifest_dir(out_root), "wave-*.json"))
    }
    live = {
        os.path.basename(p)[: -len(".claim")]
        for p in glob.glob(os.path.join(_claims_dir(out_root), "wave-*.claim"))
        if time.time() - os.path.getmtime(p) < claim_lease_sec
    }
    for d in glob.glob(os.path.join(out_root, "data", "wave-*")):
        name = os.path.basename(d).split(".tmp")[0]
        if name in manifests or name in live:
            continue
        shutil.rmtree(d, ignore_errors=True)

    summary = {
        "input_files_total": len(files),
        "input_files_skipped": len(done0),
        "waves_run": 0,
        "rows_written": 0,
    }

    # Waves whose claim we just lost: back off by name (content-hashed, so
    # stable across re-lists) instead of re-trying the same chunk in a tight
    # loop — matters when a claim file is fresh but unparseable, so its
    # files stay in todo yet _try_claim keeps failing.
    blocked_until: dict[str, float] = {}
    while True:
        if max_waves is not None and summary["waves_run"] >= max_waves:
            break
        # Re-list every iteration: committed and live-claimed files come
        # from disk, so chunks never overlap another driver's work.
        done = completed_input_files(out_root)
        claimed = _live_claimed_files(out_root, claim_lease_sec)
        todo = [f for f in files if f not in done and f not in claimed]
        if not todo:
            break
        now = time.time()
        chunk = wave_name = None
        for start in range(0, len(todo), wave_files):
            cand = todo[start : start + wave_files]
            name = _wave_name(cand)
            if blocked_until.get(name, 0.0) <= now:
                chunk, wave_name = cand, name
                break
        if chunk is None:
            # Every remaining chunk is contested by a live claim whose body
            # we cannot read. Mirror the readable-claim behavior (claimed
            # files simply leave todo): leave the work to its owner and
            # report complete=False instead of spinning until lease expiry.
            break
        if not _try_claim(out_root, wave_name, chunk, claim_lease_sec):
            blocked_until[wave_name] = time.time() + 1.0
            continue  # lost the race for this chunk; re-list and move on

        final_dir = os.path.join(out_root, "data", wave_name)
        tmp_dir = f"{final_dir}.tmp-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        shutil.rmtree(tmp_dir, ignore_errors=True)

        t0 = time.perf_counter()
        ds = build_extract_pipeline(_read_chunk(chunk), cfg)
        ds.write_parquet(tmp_dir)
        wall = time.perf_counter() - t0
        try:
            stage_stats = ds.stats()[:4000]  # per-stage wall/cpu breakdown
        except Exception:
            stage_stats = ""
        # The wave's actors hold their CPUs until their ActorHandles are
        # freed, and each handle sits in a reference cycle inside Ray (the
        # handle <-> its ActorMethod objects; the ActorPoolMapOperator is
        # in another, through the ray_remote_args_fn closure that Ray
        # Data's ConfigureMapTaskMemoryRule binds to it). Reference counting
        # never frees them, so without a collection here the next wave, or
        # the caller's next Dataset, waits for CPUs until the collector
        # happens to run.
        del ds
        gc.collect()

        try:
            os.replace(tmp_dir, final_dir)  # atomic, succeeds at most once
        except OSError:
            shutil.rmtree(tmp_dir, ignore_errors=True)
            if not os.path.isdir(final_dir):
                raise  # not a lost commit race: surface the real error
        rows, nbytes, extra = _out_stats(final_dir)

        mpath = os.path.join(_manifest_dir(out_root), wave_name + ".json")
        if not os.path.exists(mpath):
            manifest = {
                "wave": wave_name,
                "input_files": chunk,
                "input_bytes": sum(os.path.getsize(f) for f in chunk),
                "row_count": rows,
                "output_bytes": nbytes,
                "wall_sec": round(wall, 3),
                "engine_version": __version__,
                "created_unix": int(time.time()),
                "stage_stats": stage_stats,
                **extra,
            }
            with open(mpath + f".tmp-{os.getpid()}", "w") as f:
                json.dump(manifest, f, indent=2, sort_keys=True)
            os.replace(mpath + f".tmp-{os.getpid()}", mpath)

        try:
            os.unlink(os.path.join(_claims_dir(out_root), wave_name + ".claim"))
        except OSError:
            pass

        summary["waves_run"] += 1
        summary["rows_written"] += rows

    summary["complete"] = len(completed_input_files(out_root)) == len(files)
    return summary

"""Checkpointed, resumable pipeline runs (per-wave lineage + metrics).

The reference has no checkpointing (a re-run overwrites per-page output
files, cli/main.py:140-143); the north rule requires a killed
``ray job submit`` run to resume from the last committed partition. Design:

- the unit of commit is a **wave**: a deterministic chunk of the sorted
  input file list. A wave is a commit boundary, not an execution one: each
  ``run_resumable`` call claims its waves, then runs ONE streaming
  extraction Dataset over all of their files. Rows carry their source file
  (``include_paths``); a write task puts each block's rows, split by file,
  as parquet parts into their wave's ``data/wave-<k>.tmp-*`` dir and
  returns one stats row per part. The driver reads those stats in input
  order and commits a wave as soon as the stream has moved past its files
  (or ends): atomic ``os.replace`` to ``data/wave-<k>`` -> manifest JSON
  written tmp+rename -> claim released.
  A kill loses only the waves not yet committed.
- the manifest row carries lineage (input files + sizes, engine version)
  and metrics (row count, error/truncated counts, output bytes, and wall
  seconds from the Dataset's start to the wave's commit), summed from the
  write tasks' stats rows; nothing is read back from disk.
- resume = list manifests, subtract their input files from the input
  listing, process the remainder. Input files already covered are never
  re-read (skip happens at the read, not after).
- **concurrent resume is safe**: waves are named by the content hash of
  their input-file chunk, and a driver must win an O_EXCL claim file
  before processing a chunk. A call claims all of its waves up front and
  refreshes the lease of its remaining claims at every commit, so a second
  driver started at the same time finds the first driver's waves claimed
  and returns ``complete=False`` instead of sharing them. It re-claims only
  stale claims (lease expiry, or a dead pid on this host = a dead driver),
  writes to a per-process tmp dir, and commits via ``os.replace`` — if
  another driver already committed the same wave, the non-empty
  destination makes the replace fail and the loser discards its tmp. Every
  input file lands in exactly one manifest; no double-writes
  (tests/test_checkpoint.py races two drivers to prove it).
- a call whose Dataset raises removes the claims and tmp dirs of its
  uncommitted waves before the error propagates, so a retry in the same
  process (whose own pid never reads as dead) can take them at once.

At cluster scale the wave size trades resume granularity against manifest
count only; the streaming executor distributes blocks across the cluster
regardless of wave boundaries.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import json
import os
import shutil
import socket
import time
import uuid
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from .. import __version__
from ..pipelines.extract import PAGES_COLUMNS, ExtractConfig, build_extract_pipeline
from ..sources.warc import MAX_RECORD_BYTES, WarcDatasource


def _list_input_files(pages_path: str) -> list[str]:
    if os.path.isdir(pages_path):
        files = sorted(
            glob.glob(os.path.join(pages_path, "*.parquet"))
            + glob.glob(os.path.join(pages_path, "*.warc"))
            + glob.glob(os.path.join(pages_path, "*.warc.gz"))
        )
        return files
    return [pages_path]


def _is_warc(path: str) -> bool:
    return path.endswith((".warc", ".warc.gz"))


class _PagesFileDatasource(WarcDatasource):
    """Pages rows from WARC and pages-parquet files in ONE read, file after
    file in list order (the checkpoint unit is the input FILE either way, so
    a resumed crawl skips whole committed WARC shards exactly like committed
    parquet). A union of ``read_warc`` and ``read_parquet`` would not do:
    under ``preserve_order`` it holds every block until both reads finish,
    and it streams the WARC files before the parquet ones, out of wave
    order."""

    def _open_input_source(self, filesystem, path, **open_args):
        if _is_warc(path):
            return super()._open_input_source(filesystem, path, **open_args)
        return filesystem.open_input_file(path)

    def _read_stream(self, f, path: str):
        if _is_warc(path):
            for block in super()._read_stream(f, path):
                yield block.select(PAGES_COLUMNS)
            return
        for batch in pq.ParquetFile(f).iter_batches(self._batch_rows, columns=PAGES_COLUMNS):
            yield pa.Table.from_batches([batch])


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


def _claims_dir(out_root: str) -> str:
    return os.path.join(out_root, "claims")


def _claim_path(out_root: str, wave_name: str) -> str:
    return os.path.join(_claims_dir(out_root), wave_name + ".claim")


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
    path = _claim_path(out_root, wave_name)
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


@dataclass(eq=False)
class _Wave:
    """A claimed wave of this call: its tmp dir and its parts' stats so far."""

    name: str
    files: list[str]
    tmp_dir: str
    parts: list[str] = field(default_factory=list)
    row_count: int = 0
    output_bytes: int = 0
    n_error_rows: int = 0
    n_truncated_rows: int = 0

    def add(self, part: dict) -> None:
        self.parts.append(part["file"])
        self.row_count += part["rows"]
        self.output_bytes += part["bytes"]
        self.n_error_rows += part["n_error_rows"]
        self.n_truncated_rows += part["n_truncated_rows"]


def _claim_waves(
    out_root: str,
    todo: list[str],
    wave_files: int,
    budget: int | None,
    lease_sec: float,
    blocked_until: dict[str, float],
) -> tuple[list[_Wave], bool]:
    """Claim up to ``budget`` (None = no limit) chunks of ``todo`` in order.

    Returns the won waves and whether any claim was lost. A lost chunk is
    backed off by name (content-hashed, so stable across re-lists) for a
    second: a fresh but unparseable claim keeps its files in todo, and the
    run loop must not retry it in a tight loop."""
    waves: list[_Wave] = []
    lost = False
    now = time.time()
    for start in range(0, len(todo), wave_files):
        if budget is not None and len(waves) >= budget:
            break
        chunk = todo[start : start + wave_files]
        name = _wave_name(chunk)
        if blocked_until.get(name, 0.0) > now:
            continue
        if not _try_claim(out_root, name, chunk, lease_sec):
            blocked_until[name] = now + 1.0
            lost = True
        elif os.path.exists(os.path.join(_manifest_dir(out_root), name + ".json")):
            # Another driver committed it after our listing (a committer
            # writes the manifest before it releases the claim we just won).
            os.unlink(_claim_path(out_root, name))
        else:
            final_dir = os.path.abspath(os.path.join(out_root, "data", name))
            waves.append(_Wave(name, chunk, f"{final_dir}.tmp-{os.getpid()}-{uuid.uuid4().hex[:6]}"))
            os.makedirs(waves[-1].tmp_dir)
    return waves, lost


_PART_STATS = pa.schema(
    [
        ("path", pa.string()),
        ("file", pa.string()),
        ("rows", pa.int64()),
        ("bytes", pa.int64()),
        ("n_error_rows", pa.int64()),
        ("n_truncated_rows", pa.int64()),
    ]
)


def _write_parts(block: pa.Table, tmp_dirs: dict[str, str]) -> pa.Table:
    """Write task: one parquet part per source file of ``block``, without
    the ``path`` column, into that file's wave tmp dir (snappy, the codec
    ``Dataset.write_parquet`` uses). Returns one stats row per part, in
    stream order."""
    paths = block.column("path")
    stats = []
    for path in pc.unique(paths).to_pylist():
        part = block.filter(pc.equal(paths, path)).drop_columns(["path"])
        dest = os.path.join(tmp_dirs[path], f"{uuid.uuid4().hex}.parquet")
        pq.write_table(part, dest, compression="snappy")
        stats.append(
            {
                "path": path,
                "file": dest,
                "rows": part.num_rows,
                "bytes": os.path.getsize(dest),
                "n_error_rows": part.num_rows - part.column("error").null_count,
                "n_truncated_rows": pc.sum(part.column("truncated")).as_py() or 0,
            }
        )
    return pa.Table.from_pylist(stats, schema=_PART_STATS)


def _commit_wave(out_root: str, wave: _Wave, wall_sec: float) -> None:
    """Publish one wave: parts renamed in stream order, tmp dir
    ``os.replace``d into place, manifest written, claim released."""
    # Ray Data retries a task whose worker died (max_retries=-1), so a dead
    # attempt may have left a part that no stats row names: drop it, or its
    # rows would be committed twice.
    named = set(wave.parts)
    for entry in os.listdir(wave.tmp_dir):
        path = os.path.join(wave.tmp_dir, entry)
        if path not in named:
            os.unlink(path)
    for k, part in enumerate(wave.parts):
        os.rename(part, os.path.join(wave.tmp_dir, f"part-{k:05d}.parquet"))
    final_dir = os.path.join(out_root, "data", wave.name)
    try:
        os.replace(wave.tmp_dir, final_dir)  # atomic, succeeds at most once
    except OSError:
        shutil.rmtree(wave.tmp_dir, ignore_errors=True)
        if not os.path.isdir(final_dir):
            raise  # not a lost commit race: surface the real error

    mpath = os.path.join(_manifest_dir(out_root), wave.name + ".json")
    if not os.path.exists(mpath):
        manifest = {
            "wave": wave.name,
            "input_files": wave.files,
            "input_bytes": sum(os.path.getsize(f) for f in wave.files),
            "row_count": wave.row_count,
            "output_bytes": wave.output_bytes,
            "n_error_rows": wave.n_error_rows,
            "n_truncated_rows": wave.n_truncated_rows,
            "wall_sec": round(wall_sec, 3),
            "engine_version": __version__,
            "created_unix": int(time.time()),
        }
        with open(mpath + f".tmp-{os.getpid()}", "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
        os.replace(mpath + f".tmp-{os.getpid()}", mpath)

    with contextlib.suppress(OSError):
        os.unlink(_claim_path(out_root, wave.name))


def _run_waves(out_root: str, waves: list[_Wave], cfg: ExtractConfig, summary: dict) -> None:
    """One extraction Dataset over all of ``waves``' files. A wave commits,
    in input order, when the first part of a later wave arrives or the
    stream ends; each commit renews the lease of the claims still held."""
    # Absolute paths: Ray names each row's file exactly as given, and its
    # workers need not share the driver's cwd.
    wave_of = {os.path.abspath(f): w for w in waves for f in w.files}
    t0 = time.perf_counter()
    pages = ray.data.read_datasource(
        _PagesFileDatasource(list(wave_of), max_record_bytes=MAX_RECORD_BYTES, include_paths=True)
    )
    ds = build_extract_pipeline(pages, cfg).map_batches(
        _write_parts,
        fn_kwargs={"tmp_dirs": {path: w.tmp_dir for path, w in wave_of.items()}},
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )
    # Ordered output on this Dataset's own context, not the process-wide one.
    ds.context.execution_options.preserve_order = True
    pending = list(waves)

    def commit_first() -> None:
        wave = pending[0]
        _commit_wave(out_root, wave, time.perf_counter() - t0)
        pending.pop(0)
        summary["waves_run"] += 1
        summary["rows_written"] += wave.row_count
        now = time.time()
        for w in pending:
            with contextlib.suppress(OSError):
                os.utime(_claim_path(out_root, w.name), (now, now))

    batches = iter(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    try:
        for stats in batches:
            for part in stats.to_pylist():
                wave = wave_of[part["path"]]
                if wave not in pending:
                    raise RuntimeError(f"{part['path']}: part arrived after its wave committed")
                while pending[0] is not wave:
                    commit_first()
                wave.add(part)
        while pending:
            commit_first()
    finally:
        # Stop the stream before its tmp dirs go: closing the iterator ends
        # its prefetch threads, and freeing the Dataset shuts its executor
        # down, which cancels the write tasks still in flight. Otherwise a
        # write fails on a removed dir and its error reaches a prefetch
        # thread that can no longer report it.
        batches.close()
        del batches, ds
        for wave in pending:
            shutil.rmtree(wave.tmp_dir, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.unlink(_claim_path(out_root, wave.name))


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
    docstring): work is listed minus committed and live-claimed files, each
    chunk is claimed atomically before processing, and the data-dir commit
    is an ``os.replace`` that can only succeed once per wave.

    ``max_waves`` bounds how many waves this invocation commits (used by
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

    blocked_until: dict[str, float] = {}
    while max_waves is None or summary["waves_run"] < max_waves:
        # Re-list every iteration: committed and live-claimed files come
        # from disk, so chunks never overlap another driver's work.
        done = completed_input_files(out_root)
        claimed = _live_claimed_files(out_root, claim_lease_sec)
        todo = [f for f in files if f not in done and f not in claimed]
        budget = None if max_waves is None else max_waves - summary["waves_run"]
        waves, lost = _claim_waves(
            out_root, todo, wave_files, budget, claim_lease_sec, blocked_until
        )
        if waves:
            _run_waves(out_root, waves, cfg, summary)
        elif not lost:
            # Nothing left, or every remaining chunk is contested by a live
            # claim whose body we cannot read. Mirror the readable-claim
            # behavior (claimed files simply leave todo): leave the work to
            # its owner and report complete=False instead of spinning until
            # lease expiry.
            break
        # A lost claim re-lists: the winner's claim now hides its files.

    summary["complete"] = len(completed_input_files(out_root)) == len(files)
    return summary

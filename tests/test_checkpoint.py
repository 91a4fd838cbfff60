"""Checkpoint/resume sink tests: kill-and-resume must not lose or duplicate rows."""

import glob
import json
import os

import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from yomitoku_ray.pipelines.extract import ExtractConfig
from yomitoku_ray.export.wet import _ts_us_of
from yomitoku_ray.sources.warc import write_warc_file
from yomitoku_ray.state.checkpoint import completed_input_files, run_resumable
from yomitoku_ray.synth.pages import generate_pages_table

N = 120
FILES = 6


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("ckpt_pages")
    per = N // FILES
    for i in range(FILES):
        pq.write_table(
            generate_pages_table(per, start=i * per), str(d / f"part-{i:05d}.parquet")
        )
    return str(d)


def _cfg():
    return ExtractConfig(detect_concurrency=2, detect_batch_size=16)


def _write_warc(table, path):
    """Write a pages table as a CC-layout ``.warc.gz`` shard."""
    rows = [
        {
            "url": r["url"],
            "warc_ts": _ts_us_of(r["warc_ts"]),
            "html": r["html"],
            "lang": r["lang"],
        }
        for r in table.to_pylist()
    ]
    write_warc_file(rows, str(path))


def test_interrupted_run_resumes(ray_session, pages_dir, tmp_path):
    out = str(tmp_path / "out")

    # First invocation: only one wave (simulated kill after first commit).
    s1 = run_resumable(pages_dir, out, _cfg(), wave_files=2, max_waves=1)
    assert s1["waves_run"] == 1 and not s1["complete"]
    assert len(completed_input_files(out)) == 2

    # Resume: must skip the committed files and finish the rest.
    s2 = run_resumable(pages_dir, out, _cfg(), wave_files=2)
    assert s2["input_files_skipped"] == 2
    assert s2["complete"]

    # All rows present exactly once.
    t = pads.dataset(os.path.join(out, "data")).to_table(columns=["url"])
    urls = t.column("url").to_pylist()
    assert len(urls) == N
    assert len(set(urls)) == N

    # Manifests carry lineage + metrics.
    manifests = sorted(glob.glob(os.path.join(out, "manifest", "*.json")))
    assert len(manifests) == 3
    m = json.load(open(manifests[0]))
    for key in ("input_files", "row_count", "output_bytes", "wall_sec", "engine_version"):
        assert key in m
    assert m["row_count"] == 40


def test_torn_wave_is_recomputed(ray_session, pages_dir, tmp_path):
    out = str(tmp_path / "out2")
    run_resumable(pages_dir, out, _cfg(), wave_files=3, max_waves=1)
    # Simulate a torn commit: data dir exists, manifest missing.
    waves = glob.glob(os.path.join(out, "data", "wave-*"))
    os.remove(glob.glob(os.path.join(out, "manifest", "*.json"))[0])
    s = run_resumable(pages_dir, out, _cfg(), wave_files=3)
    assert s["complete"]
    t = pads.dataset(os.path.join(out, "data")).to_table(columns=["url"])
    assert len(set(t.column("url").to_pylist())) == N


def test_rerun_is_noop(ray_session, pages_dir, tmp_path):
    out = str(tmp_path / "out3")
    run_resumable(pages_dir, out, _cfg(), wave_files=6)
    s = run_resumable(pages_dir, out, _cfg(), wave_files=6)
    assert s["waves_run"] == 0 and s["complete"]


def test_live_claim_blocks_other_driver(ray_session, pages_dir, tmp_path):
    """A second driver must SKIP chunks under a live claim (another driver's
    in-flight wave) and take the remaining work instead."""
    import time as _time

    from yomitoku_ray.state.checkpoint import _claims_dir, _wave_name

    out = str(tmp_path / "out3")
    os.makedirs(_claims_dir(out), exist_ok=True)
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    first_chunk = files[:2]
    wave = _wave_name(first_chunk)
    with open(os.path.join(_claims_dir(out), wave + ".claim"), "w") as f:
        json.dump(
            {"input_files": first_chunk, "pid": 0, "created_unix": int(_time.time())}, f
        )

    s = run_resumable(pages_dir, out, _cfg(), wave_files=2, claim_lease_sec=3600)
    # claimed chunk untouched; the other 4 files processed
    assert not s["complete"]
    done = completed_input_files(out)
    assert done == set(files[2:])
    t = pads.dataset(os.path.join(out, "data")).to_table(columns=["url"])
    assert len(t) == 80  # 4 files x 20 rows, no double-write


def test_stale_claim_is_reclaimed(ray_session, pages_dir, tmp_path):
    """A claim older than the lease is a dead driver: its chunk is retaken."""
    import time as _time

    from yomitoku_ray.state.checkpoint import _claims_dir, _wave_name

    out = str(tmp_path / "out4")
    os.makedirs(_claims_dir(out), exist_ok=True)
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    wave = _wave_name(files[:2])
    path = os.path.join(_claims_dir(out), wave + ".claim")
    with open(path, "w") as f:
        json.dump({"input_files": files[:2], "pid": 0, "created_unix": 0}, f)
    os.utime(path, (0, 0))  # ancient claim

    s = run_resumable(pages_dir, out, _cfg(), wave_files=2, claim_lease_sec=60)
    assert s["complete"]
    t = pads.dataset(os.path.join(out, "data")).to_table(columns=["url"])
    urls = t.column("url").to_pylist()
    assert len(urls) == N and len(set(urls)) == N


def test_concurrent_drivers_exactly_once(pages_dir, tmp_path):
    """Two drivers racing the SAME checkpoint root concurrently: every input
    file lands in exactly one manifest, every row written exactly once.

    Drivers are separate PROCESSES with their own Ray sessions — the real
    concurrent-resume shape (two `ray job submit` runs sharing an output
    root); the claim protocol is filesystem-based so it must hold across
    processes.
    """
    import subprocess
    import sys

    out = str(tmp_path / "out5")
    script = """
import sys, json
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=3, include_dashboard=False, logging_level="ERROR")
from yomitoku_ray.pipelines.extract import ExtractConfig
from yomitoku_ray.state.checkpoint import run_resumable
s = run_resumable({pages!r}, {out!r}, ExtractConfig(detect_concurrency=1, detect_batch_size=16), wave_files=1)
print("SUMMARY:" + json.dumps(s))
ray.shutdown()
""".format(repo="/root/repo", pages=pages_dir, out=out)

    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        for _ in range(2)
    ]
    summaries = []
    for p in procs:
        out_text, _ = p.communicate(timeout=420)
        assert p.returncode == 0, out_text
        line = [ln for ln in out_text.splitlines() if ln.startswith("SUMMARY:")][0]
        summaries.append(json.loads(line[len("SUMMARY:"):]))

    # The driver that commits the FINAL wave always observes completion;
    # the other may exit earlier while that wave is still in flight (its
    # "incomplete" is honest: it must not claim work it didn't verify).
    assert any(s["complete"] for s in summaries)
    # no double processing: the two drivers' waves partition the input
    assert sum(s["waves_run"] for s in summaries) == FILES

    manifests = [json.load(open(p)) for p in glob.glob(os.path.join(out, "manifest", "*.json"))]
    covered = [f for m in manifests for f in m["input_files"]]
    assert sorted(covered) == sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    assert len(covered) == len(set(covered))  # each file in exactly one wave

    t = pads.dataset(os.path.join(out, "data")).to_table(columns=["url"])
    urls = t.column("url").to_pylist()
    assert len(urls) == N and len(set(urls)) == N  # zero lost, zero duplicated
    assert not glob.glob(os.path.join(out, "claims", "*.claim"))  # all released


def test_dead_pid_claim_is_reclaimed_immediately(ray_session, pages_dir, tmp_path):
    """A SIGKILLed driver's FRESH claim (dead pid, same host) must not block
    an immediate restart for the whole lease (ADVICE r3, medium)."""
    import socket
    import subprocess

    out = str(tmp_path / "out")
    os.makedirs(os.path.join(out, "claims"), exist_ok=True)
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    chunk = files[:2]
    from yomitoku_ray.state.checkpoint import _wave_name

    # A real, already-exited pid from this host.
    p = subprocess.Popen(["true"])
    p.wait()
    claim = os.path.join(out, "claims", _wave_name(chunk) + ".claim")
    with open(claim, "w") as f:
        json.dump({"input_files": chunk, "pid": p.pid,
                   "host": socket.gethostname(), "created_unix": 0}, f)

    s = run_resumable(pages_dir, out, _cfg(), wave_files=2)
    assert s["complete"]  # the killed wave was reclaimed and finished
    t = pads.dataset(os.path.join(out, "data")).to_table(columns=["url"])
    urls = t.column("url").to_pylist()
    assert len(urls) == N and len(set(urls)) == N


def test_torn_claim_does_not_busy_loop(ray_session, pages_dir, tmp_path):
    """A fresh claim with an unparseable body (crash between O_EXCL and the
    write) must not spin the run loop: the driver backs off on that wave,
    finishes everything else, and reports complete=False (ADVICE r3, low)."""
    out = str(tmp_path / "out")
    os.makedirs(os.path.join(out, "claims"), exist_ok=True)
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    from yomitoku_ray.state.checkpoint import _wave_name

    claim = os.path.join(out, "claims", _wave_name(files[:2]) + ".claim")
    with open(claim, "w") as f:
        f.write("{torn")  # fresh mtime, unreadable body -> live per lease

    # max_waves bounds runaway; a busy loop would never advance waves_run.
    s = run_resumable(pages_dir, out, _cfg(), wave_files=2, max_waves=4)
    assert s["waves_run"] == 2  # the other two chunks committed
    assert not s["complete"]  # contested chunk honestly left for the owner
    done = completed_input_files(out)
    assert set(files[2:]) <= done and not (set(files[:2]) & done)


def _claim_worker(out, q):
    from yomitoku_ray.state.checkpoint import _try_claim

    q.put(_try_claim(out, "wave-deadbeef", ["x"], lease_sec=3600.0))


def test_stale_break_single_winner(tmp_path):
    """Racing drivers breaking the same stale claim: exactly one wins
    (rename-based break; the unlink break let both own it)."""
    import multiprocessing as mp

    out = str(tmp_path / "out")
    os.makedirs(os.path.join(out, "claims"), exist_ok=True)
    claim = os.path.join(out, "claims", "wave-deadbeef.claim")
    with open(claim, "w") as f:
        json.dump({"input_files": ["x"], "pid": 1, "host": "elsewhere"}, f)
    os.utime(claim, (0, 0))  # long-expired lease -> stale for everyone

    ctx = mp.get_context("spawn")
    q = ctx.Queue()
    procs = [ctx.Process(target=_claim_worker, args=(out, q)) for _ in range(4)]
    for p in procs:
        p.start()
    results = [q.get(timeout=60) for _ in procs]
    for p in procs:
        p.join()
    assert sum(results) == 1  # exactly one driver owns the broken lock


def test_resumable_warc_shards(ray_session, tmp_path):
    """WARC shards are first-class checkpoint units: kill after one wave,
    resume skips committed shards, rows exactly-once, byte parity with the
    parquet path."""
    d = tmp_path / "warcs"
    d.mkdir()
    per = 20
    for i in range(4):
        _write_warc(generate_pages_table(per, start=i * per), d / f"shard-{i:05d}.warc.gz")

    out = str(tmp_path / "out")
    s1 = run_resumable(str(d), out, _cfg(), wave_files=2, max_waves=1)
    assert s1["waves_run"] == 1 and not s1["complete"]
    assert len(completed_input_files(out)) == 2

    s2 = run_resumable(str(d), out, _cfg(), wave_files=2)
    assert s2["input_files_skipped"] == 2 and s2["complete"]

    t = pads.dataset(os.path.join(out, "data")).to_table(columns=["url", "extracted_text"])
    urls = t.column("url").to_pylist()
    assert len(urls) == 4 * per and len(set(urls)) == 4 * per

    # Byte parity with the straight parquet-input pipeline on the same pages.
    pq_dir = tmp_path / "pq"
    pq_dir.mkdir()
    pq.write_table(generate_pages_table(4 * per), str(pq_dir / "p.parquet"))
    out2 = str(tmp_path / "out2")
    run_resumable(str(pq_dir), out2, _cfg())
    t2 = pads.dataset(os.path.join(out2, "data")).to_table(
        columns=["url", "extracted_text"]
    )
    a = dict(zip(t.column("url").to_pylist(), t.column("extracted_text").to_pylist()))
    b = dict(zip(t2.column("url").to_pylist(), t2.column("extracted_text").to_pylist()))
    assert a == b


def test_mixed_parquet_and_warc_directory(ray_session, tmp_path):
    """A directory holding BOTH parquet and WARC inputs must route each
    file to its reader inside a wave (ADVICE r4: mixed chunks fell back to
    the parquet reader and failed on the .warc members)."""
    d = tmp_path / "mixed"
    d.mkdir()
    per = 20
    pq.write_table(generate_pages_table(per, start=0), str(d / "part-00000.parquet"))
    _write_warc(generate_pages_table(per, start=per), d / "shard-00000.warc.gz")

    out = str(tmp_path / "out")
    # wave_files=2 forces ONE chunk holding both formats
    s = run_resumable(str(d), out, _cfg(), wave_files=2)
    assert s["complete"] and s["rows_written"] == 2 * per
    tbl = pads.dataset(os.path.join(out, "data")).to_table(columns=["url"])
    urls = tbl.column("url").to_pylist()
    assert len(urls) == 2 * per and len(set(urls)) == 2 * per


def _wait_for_free_cpus(what):
    """Every session CPU is free within 2 s, with no ``gc`` call here."""
    import time as _time

    import ray

    total = ray.cluster_resources()["CPU"]
    deadline = _time.monotonic() + 2.0
    while ray.available_resources().get("CPU", 0.0) < total:
        assert _time.monotonic() < deadline, (
            f"{what}: {ray.available_resources().get('CPU', 0.0)} of "
            f"{total} CPUs free 2 s after run_resumable returned"
        )
        _time.sleep(0.1)


def test_waves_release_their_cpus_on_return(ray_session, pages_dir, tmp_path):
    """Each call's tasks give their CPUs back by the time run_resumable
    returns: no waiting for a garbage collection that the caller would
    have to trigger. Three back-to-back calls, one CPU per task."""
    cfg = ExtractConfig(detect_concurrency=1, detect_batch_size=16)
    for k in range(3):
        run_resumable(pages_dir, str(tmp_path / f"out{k}"), cfg, wave_files=2, max_waves=2)
        _wait_for_free_cpus(f"call {k}")


def _urls_per_wave(out):
    """{wave name: urls of the rows in its committed data dir}."""
    return {
        os.path.basename(d): pads.dataset(d).to_table(columns=["url"]).column("url").to_pylist()
        for d in glob.glob(os.path.join(out, "data", "wave-*"))
    }


def test_manifest_metrics_equal_a_reread(ray_session, pages_dir, tmp_path):
    """Manifest metrics come from the write tasks' stats rows, not from a
    re-read; they must still equal what a re-read of each wave finds."""
    out = str(tmp_path / "out")
    s = run_resumable(pages_dir, out, _cfg(), wave_files=2)
    assert s["complete"] and s["waves_run"] == 3 and s["rows_written"] == N
    manifests = [json.load(open(p)) for p in glob.glob(os.path.join(out, "manifest", "*.json"))]
    assert len(manifests) == 3
    n_errors = 0
    for m in manifests:
        data_dir = os.path.join(out, "data", m["wave"])
        t = pads.dataset(data_dir).to_table(columns=["error", "truncated"])
        files = glob.glob(os.path.join(data_dir, "*"))
        assert m["row_count"] == t.num_rows == 40
        assert m["n_error_rows"] == t.num_rows - t.column("error").null_count
        assert m["n_truncated_rows"] == sum(bool(v) for v in t.column("truncated").to_pylist())
        assert m["output_bytes"] == sum(os.path.getsize(f) for f in files)
        assert m["wall_sec"] > 0 and "stage_stats" not in m
        n_errors += m["n_error_rows"]
    assert n_errors > 0  # the synthetic pages include malformed ones
    # one Dataset per call: a wave's wall runs from its start, so the
    # waves, committed in input order, show non-decreasing walls
    walls = [m["wall_sec"] for m in sorted(manifests, key=lambda m: m["input_files"])]
    assert walls == sorted(walls)


def test_failed_call_releases_its_claims(ray_session, tmp_path):
    """A Dataset that raises leaves no claim and no tmp dir behind, so a
    retry in the SAME process (its own pid never reads as dead) does the
    remaining work at once instead of waiting out the lease."""
    d = tmp_path / "warcs"
    d.mkdir()
    per = 10
    for i in (0, 2, 3):
        _write_warc(generate_pages_table(per, start=i * per), d / f"shard-{i:05d}.warc.gz")
    bad = d / "shard-00001.warc.gz"
    bad.write_bytes(b"this is not a gzip member\n" * 8)

    out = str(tmp_path / "out")
    with pytest.raises(Exception):
        run_resumable(str(d), out, _cfg(), wave_files=1)
    _wait_for_free_cpus("failed call")  # the retry need not wait for them
    assert not glob.glob(os.path.join(out, "claims", "*.claim"))
    assert not glob.glob(os.path.join(out, "data", "*.tmp-*"))

    bad.unlink()
    s = run_resumable(str(d), out, _cfg(), wave_files=1)
    assert s["complete"]
    urls = [u for v in _urls_per_wave(out).values() for u in v]
    assert len(urls) == 3 * per and len(set(urls)) == 3 * per


def test_waves_commit_while_the_stream_runs(ray_session, pages_dir, tmp_path, monkeypatch):
    """One call, six single-file waves, the driver interrupted in its second
    commit: the first wave stays committed with its manifest, the claims
    still held had their lease renewed by that first commit, and a resume
    skips the committed wave, clears the torn one and finishes exactly once.
    The process-wide DataContext keeps its ordering setting throughout."""
    import time as _time

    import ray.data

    from yomitoku_ray.state import checkpoint

    preserve_order = ray.data.DataContext.get_current().execution_options.preserve_order
    out = str(tmp_path / "out")
    real_commit = checkpoint._commit_wave
    first_commit_at = []

    def commit_then_die(out_root, wave, wall_sec):
        if not first_commit_at:
            first_commit_at.append(_time.time())
            return real_commit(out_root, wave, wall_sec)
        claims = glob.glob(os.path.join(out_root, "claims", "*.claim"))
        assert len(claims) == 5  # this wave's and the four after it
        for claim in claims:
            assert os.path.getmtime(claim) >= first_commit_at[0], claim
        # die between the data-dir replace and the manifest: a torn wave
        os.replace(wave.tmp_dir, os.path.join(out_root, "data", wave.name))
        raise RuntimeError("driver killed mid-commit")

    monkeypatch.setattr(checkpoint, "_commit_wave", commit_then_die)
    with pytest.raises(RuntimeError, match="killed mid-commit"):
        run_resumable(pages_dir, out, _cfg(), wave_files=1)
    monkeypatch.undo()
    assert ray.data.DataContext.get_current().execution_options.preserve_order == preserve_order

    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    assert completed_input_files(out) == {files[0]}
    assert len(glob.glob(os.path.join(out, "manifest", "*.json"))) == 1
    assert len(glob.glob(os.path.join(out, "data", "wave-*"))) == 2  # committed + torn
    assert not glob.glob(os.path.join(out, "claims", "*.claim"))

    s = run_resumable(pages_dir, out, _cfg(), wave_files=1)
    assert s["input_files_skipped"] == 1 and s["waves_run"] == 5 and s["complete"]
    assert ray.data.DataContext.get_current().execution_options.preserve_order == preserve_order
    per_wave = _urls_per_wave(out)
    assert len(per_wave) == FILES
    urls = [u for v in per_wave.values() for u in v]
    assert len(urls) == N and len(set(urls)) == N


def test_relative_path_mixed_directory_rows_land_in_their_files_wave(
    ray_session, tmp_path, monkeypatch
):
    """A relative ``pages_path`` over interleaved parquet and WARC files:
    the rows' ``path`` column must map back to ``_list_input_files``'
    names, so every row is committed in the wave of its own file."""
    monkeypatch.chdir(tmp_path)
    os.mkdir("mixed")
    per = 10
    urls_of = {}
    for i, name in enumerate(["a.parquet", "b.warc.gz", "c.parquet", "d.warc.gz"]):
        t = generate_pages_table(per, start=i * per)
        path = os.path.join("mixed", name)
        if name.endswith(".parquet"):
            pq.write_table(t, path)
        else:
            _write_warc(t, path)
        urls_of[path] = sorted(t.column("url").to_pylist())

    s = run_resumable("mixed", "out", _cfg(), wave_files=1)
    assert s["complete"] and s["waves_run"] == 4 and s["rows_written"] == 4 * per
    per_wave = _urls_per_wave("out")
    for p in glob.glob(os.path.join("out", "manifest", "*.json")):
        m = json.load(open(p))
        (src,) = m["input_files"]
        assert sorted(per_wave[m["wave"]]) == urls_of[src], src

"""The page pipelines and the streaming-dedup corpus build finish on one- and
two-CPU clusters and give every CPU back when they return, and when a
downstream stage raises and the caller keeps the exception. Each cluster
size runs in a fresh process with its own Ray session and a deadline, from
a temporary working directory, so the workers import the engine from
``PYTHONPATH`` alone. ``extract_pages`` runs twice with different reading
orders, and each result must equal the single-process oracle with that
setting: no stage state may carry over from one Dataset to the next. The
streaming-dedup build must keep one row per digest, as many as the
digest-shuffle build keeps. Url dedup over the pages and their recrawl
must keep one row per url."""

import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 90

SCRIPT = r"""
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False, logging_level="ERROR")
from yomitoku_ray.functions.merge import url_dedup_first
from yomitoku_ray.oracle import analyze_html_bytes
from yomitoku_ray.pipelines.corpus import CorpusConfig, build_corpus
from yomitoku_ray.pipelines.extract import ExtractConfig, extract_pages
from yomitoku_ray.pipelines.ocr import ocr_pages
from yomitoku_ray.pipelines.semantic import semantic_pages
from yomitoku_ray.synth.pages import generate_pages_table


def held_cpus_after(seconds):
    total = ray.cluster_resources()["CPU"]
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        free = ray.available_resources().get("CPU", 0.0)
        if free >= total:
            return 0.0
        time.sleep(0.1)
    return total - free


def oracle_mismatches(rows, reading_order):
    bad = 0
    for row in rows:
        cols, err = analyze_html_bytes(pages[row["url"]] or b"", row["url"], reading_order=reading_order)
        bad += row["error"] != err or any(row[k] != v for k, v in cols.items())
    return bad


path = sys.argv[2]
table = generate_pages_table(50)
pq.write_table(table, path)
pages = dict(zip(table.column("url").to_pylist(), table.column("html").to_pylist()))
runs = [
    ("extract-auto", lambda: extract_pages(path, ExtractConfig(reading_order="auto"))),
    ("extract-right2left", lambda: extract_pages(path, ExtractConfig(reading_order="right2left"))),
    ("semantic", lambda: semantic_pages(path)),
    ("ocr", lambda: ocr_pages(path)),
]
for name, build in runs:
    rows = pa.concat_tables(ray.get(build().to_arrow_refs())).to_pylist()
    held = held_cpus_after(2.0)
    bad = oracle_mismatches(rows, name.split("-")[1]) if name.startswith("extract") else 0
    n_ok = sum(row["error"] is None for row in rows)
    print("ROWS", name, len(rows), n_ok, held, bad, flush=True)

crawl = ray.data.read_parquet(path, columns=["url", "warc_ts"])
rows = url_dedup_first(crawl.union(crawl)).to_pandas()
print("ROWS", "url_dedup", len(rows), rows["url"].nunique(), len(pages), held_cpus_after(2.0), flush=True)

rows = pa.concat_tables(ray.get(build_corpus(path, CorpusConfig(streaming_dedup=True)).to_arrow_refs())).to_pylist()
held = held_cpus_after(2.0)
n_digests = len({row["digest"] for row in rows})
print("ROWS", "corpus", len(rows), n_digests, build_corpus(path).count(), held, flush=True)


def fail(batch):
    raise RuntimeError("downstream stage failed")


kept = None
try:
    build_corpus(path, CorpusConfig(streaming_dedup=True)).map_batches(fail).materialize()
except Exception as e:
    kept = e
print("ROWS", "raised", type(kept).__name__, held_cpus_after(2.0), flush=True)
ray.shutdown()
"""


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_page_pipelines_finish_on_a_small_cluster(num_cpus, tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(num_cpus), str(tmp_path / "pages.parquet")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": REPO},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        pytest.fail(f"num_cpus={num_cpus}: not done in {DEADLINE_S} s\n{out[-2000:]}")
    assert proc.returncode == 0, out[-2000:]
    rows = {
        line.split()[1]: line.split()[2:] for line in out.splitlines() if line.startswith("ROWS ")
    }
    for name in ("extract-auto", "extract-right2left", "semantic", "ocr"):
        n_rows, n_ok, held, bad = rows[name]
        assert int(n_rows) == 50 and int(n_ok) >= 45, (name, rows[name])
        assert float(held) == 0.0, f"{name}: {held} CPUs still held 2 s after it returned"
        assert int(bad) == 0, f"{name}: {bad} rows differ from the oracle"
    n_rows, n_urls, n_pages, held = rows["url_dedup"]
    assert int(n_rows) == int(n_urls) == int(n_pages), rows["url_dedup"]
    assert float(held) == 0.0, f"url_dedup: {held} CPUs still held 2 s after it returned"
    n_rows, n_digests, n_shuffle_dedup, held = rows["corpus"]
    assert 0 < int(n_rows) == int(n_digests) == int(n_shuffle_dedup), rows["corpus"]
    assert float(held) == 0.0, f"corpus: {held} CPUs still held 2 s after it returned"
    kept, held = rows["raised"]
    assert kept != "NoneType", "the raising stage did not raise"
    assert float(held) == 0.0, f"corpus after a kept error: {held} CPUs still held 2 s later"

"""The three page pipelines finish with their default actor pools on one- and
two-CPU clusters: the pool is sized from the cluster, so the read and the
write always keep a CPU. Each cluster size runs in a fresh process with its
own Ray session and a deadline; a pool that starves the read never ends."""

import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 90

SCRIPT = r"""
import sys
import pyarrow.parquet as pq
import ray

ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False, logging_level="ERROR")
from yomitoku_ray.pipelines.extract import extract_pages
from yomitoku_ray.pipelines.ocr import ocr_pages
from yomitoku_ray.pipelines.semantic import semantic_pages
from yomitoku_ray.synth.pages import generate_pages_table

path = sys.argv[2]
pq.write_table(generate_pages_table(50), path)
for name, build in (("extract", extract_pages), ("semantic", semantic_pages), ("ocr", ocr_pages)):
    df = build(path).to_pandas()
    print("ROWS", name, len(df), int(df["error"].isna().sum()), flush=True)
ray.shutdown()
"""


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_default_pools_finish_on_a_small_cluster(num_cpus, tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(num_cpus), str(tmp_path / "pages.parquet")],
        cwd=REPO,
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
    for name in ("extract", "semantic", "ocr"):
        n_rows, n_ok = map(int, rows[name])
        assert n_rows == 50 and n_ok >= 45, (name, rows[name])

"""Benchmark entry point: one workload, seeded inputs, fresh processes.

    python3 ccbench/run.py --workload corpus_recrawl --seed 1 --seconds 16 --trace 0

Run from the root of a checkout. The run

1. generates the workload's input from ``--seed`` (gen.py), sized in whole
   rounds so one timed pass lasts about ``--seconds / PASSES`` on a host
   like the reference one (README.md);
2. with ``--trace 0``: starts ``PASSES`` measured processes (worker.py) one
   after the other, each a fresh Python with its own Ray session that sets
   up, makes one timed pass over the whole input and checks its output, and
   reports each end-to-end metric as the median over the passes; with
   ``--trace 1``: starts one traced process and reports the per-layer
   metrics;
3. prints operations attempted and failed, then one JSON line.

Every process gets a deadline; one that hits it is killed with its Ray
session, its last log lines go to stderr, and the run exits 1 without a
result; so is the running process when this one gets SIGTERM. Everything
is written under ``.ccb/`` in the checkout and removed at the end, except
the traced run's spans (``.ccb/spans/<workload>-<seed>.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from proc import _stat_fields

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

# Nominal throughput of the one-actor pipeline on the reference host
# (pages/s), used only to size an input so one timed pass lasts about
# --seconds / PASSES.
NOMINAL_PAGES_PER_S = {
    "extract_cc_mix": 125,
    "semantic_tables": 68,
    "corpus_recrawl": 98,
    "crawl_warc_resume": 50,
}
# Measured processes per untraced run. Each pays its own set-up, so a run
# gets that many set-up probes and timed passes, taken at different moments
# of the shared host.
PASSES = 2
DEADLINE_S = 170.0
LOG_TAIL = 30


def rounds_for(workload: str, seconds: int) -> int:
    import gen

    pages = seconds / PASSES * NOMINAL_PAGES_PER_S[workload]
    return max(1, round(pages / gen.ROUND_PAGES[workload]))


def _group_alive(pgid: int) -> bool:
    for name in os.listdir("/proc"):
        fields = _stat_fields(int(name)) if name.isdigit() else None
        if fields and int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(pgid: int, wait_s: float = 15.0) -> None:
    """Kill what is left of a child's process group and wait until it ends."""
    end = time.monotonic() + wait_s
    while _group_alive(pgid) and time.monotonic() < end:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def log_tail(path: str, n: int = LOG_TAIL) -> str:
    try:
        with open(path, "rb") as f:
            lines = f.read().decode("utf-8", "replace").splitlines()
    except OSError:
        return ""
    return "\n".join(lines[-n:])


def run_child(argv: list[str], env: dict, log_path: str, deadline: float) -> None:
    """Run one worker process under the deadline; exit 1 if it fails."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        sys.exit(f"deadline reached before {' '.join(argv[2:6])} could start")
    with open(log_path, "wb") as log:
        p = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, start_new_session=True)
        try:
            rc = p.wait(timeout)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            stop_group(p.pid)
            p.wait()
    if rc != 0:
        why = f"hit the {timeout:.0f} s deadline" if rc is None else f"exited with {rc}"
        print(f"{' '.join(argv[2:6])} {why}; last log lines:\n{log_tail(log_path)}", file=sys.stderr)
        sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_PAGES_PER_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM unwinds through run_child's clean-up like a deadline does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("ccbench: terminated"))

    if not os.path.isfile(os.path.join(ROOT, "yomitoku_ray", "__init__.py")):
        sys.exit("ccbench: run from the root of a yomitoku_ray checkout (no yomitoku_ray/ here)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)  # metric names and units
    sys.path[:0] = [HERE, ROOT]
    import gen

    work = os.path.join(ROOT, ".ccb", f"{args.workload}-{args.seed}-{os.getpid()}")
    # Ray's socket paths must stay under the 107-byte AF_UNIX limit.
    ray_dir = os.path.join(ROOT, ".ccb", f"r{os.getpid()}")
    if len(ray_dir) > 40:
        import tempfile

        ray_dir = tempfile.mkdtemp(prefix="ccb")
    inputs = os.path.join(work, "inputs")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]),
        TMPDIR=os.path.join(work, "tmp"),
        RAY_TMPDIR=ray_dir,
        RAY_USAGE_STATS_ENABLED="0",
        RAY_DATA_DISABLE_PROGRESS_BARS="1",
    )
    try:
        truth = gen.materialize(args.workload, args.seed, rounds_for(args.workload, args.seconds), inputs)
        modes = ["trace"] if args.trace else ["run"] * PASSES
        results = []
        for i, mode in enumerate(modes):
            res_path = os.path.join(work, f"result-{i}.json")
            run_child(
                [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
                 "--workload", args.workload, "--inputs", inputs,
                 "--work", os.path.join(work, f"w{i}"), "--ray-dir", ray_dir,
                 "--seed", str(args.seed), "--result", res_path,
                 "--spans", os.path.join(ROOT, ".ccb", "spans", f"{args.workload}-{args.seed}.json")],
                env, os.path.join(work, f"log-{i}.txt"), deadline,
            )
            with open(res_path) as f:
                results.append(json.load(f))
            shutil.rmtree(os.path.join(work, f"w{i}"), ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)

    for r in results:
        timed = {"setup_s": r["setup_s"], "wall_s": r["wall_s"], "cpu_s": r["cpu_s"]}
        print("pass: " + json.dumps({k: round(v, 2) for k, v in {**r["phases"], **timed}.items()}), file=sys.stderr)
    pages = results[0]["pages"]
    if args.trace:
        layers = results[0]["per_layer"]
        # a layer that is not on this workload's path did no work: 0
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        def median(key, per_page=1.0):
            return statistics.median(r[key] * per_page for r in results)

        values = {
            "setup_s": median("setup_s"),
            "pages_per_s": statistics.median(pages / r["wall_s"] for r in results),
            "cpu_ms_per_page": median("cpu_s", 1000.0 / pages),
            "peak_rss_mb": median("peak_rss_mb"),
            "output_bytes_per_page": median("output_bytes", 1.0 / pages),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    for r in results:
        for problem in r["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload}: attempted={attempted} failed={failed} "
        f"pages={pages} passes={len(results)} rounds={truth['rounds']} correct={correct}"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

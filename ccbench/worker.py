"""One workload in one fresh process: set up Ray, warm up, run, measure, check.

run.py starts it; by hand:

    python3 ccbench/worker.py --mode run --workload corpus_recrawl \
        --inputs DIR --work DIR --ray-dir DIR --seed 1 --result FILE

``--mode trace`` adds the per-layer measurements of layertrace.py and of the Ray
passes below. The result is one JSON object written to ``--result``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import random
import shutil
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from proc import SessionMeter  # noqa: E402

# The two-field schema of __ray_entry__._semantic_summary.
SEMANTIC_SCHEMA = {
    "fields": [
        {"name": "first_number", "regex": r"\d+", "normalize": "numeric"},
        {"name": "heading", "description": "の"},
    ]
}
ORACLE_SAMPLE = 48
# One-core benchmark: the stage's actor pool is one actor, and Ray gets one
# logical CPU more so read and write tasks always have a slot next to it
# (a pool that takes every slot starves ReadParquet and the dataset hangs).
POOL = 1


def _dir_bytes(paths) -> int:
    files = (p for d in paths for p in glob.glob(os.path.join(d, "**", "*"), recursive=True))
    return sum(os.path.getsize(p) for p in files if os.path.isfile(p))


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


class Workload:
    """Shared plumbing; subclasses name the entry point and the checks."""

    stage = "fused"
    text_col = "extracted_text"
    cells_col = "csv"
    row_cols = ["url", "error", "extracted_text", "csv", "n_tables"]

    def __init__(self, inputs: str, work: str, seed: int):
        from yomitoku_ray.pipelines.extract import ExtractConfig

        self.inputs, self.work, self.seed = inputs, work, seed
        self.cfg = ExtractConfig(detect_concurrency=POOL)
        self.pages_path = os.path.join(inputs, "pages.parquet")
        self.out = os.path.join(work, "out")

    def _src(self, warm: bool) -> str:
        return os.path.join(self.inputs, "warm.parquet" if warm else "pages.parquet")

    def _dst(self, warm: bool) -> str:
        return _fresh(self.out + ("-warm" if warm else ""))

    def output_dirs(self) -> list[str]:
        return [self.out]

    def output_bytes(self) -> int:
        return _dir_bytes(self.output_dirs())

    def truth(self) -> dict:
        with open(os.path.join(self.inputs, "truth.json")) as f:
            return json.load(f)

    def pages(self) -> dict[str, bytes]:
        t = pq.read_table(self.pages_path, columns=["url", "html"])
        return dict(zip(t.column("url").to_pylist(), t.column("html").to_pylist()))

    def read_rows(self, columns) -> list[dict]:
        return pa.concat_tables(
            [pq.read_table(d, columns=columns) for d in self.output_dirs()]
        ).to_pylist()

    def read_sample(self, urls: list[str]) -> dict[str, dict]:
        rows = pa.concat_tables(
            [pq.read_table(d, filters=[("url", "in", urls)]) for d in self.output_dirs()]
        ).to_pylist()
        return {r["url"]: r for r in rows}

    def sample_urls(self, truth: dict) -> list[str]:
        urls = [t["url"] for t in truth["pages"]]
        return random.Random(f"sample-{self.seed}").sample(urls, min(ORACLE_SAMPLE, len(urls)))

    def check(self) -> checks.Report:
        truth, pages = self.truth(), self.pages()
        rep = checks.check_rows(
            pages, truth["pages"], self.read_rows(self.row_cols),
            text_col=self.text_col, cells_col=self.cells_col,
        )
        rep.problems += self.check_sample(truth, pages)
        return rep

    def check_sample(self, truth: dict, pages: dict) -> list[str]:
        """Sampled rows equal the single-process oracle byte for byte."""
        from yomitoku_ray.oracle import analyze_html_bytes

        want = self.sample_urls(truth)
        got = self.read_sample(want)
        problems = []
        for url in want:
            cols, err = analyze_html_bytes(pages[url] or b"", url)
            row = got.get(url)
            if row is None or row["error"] != err:
                problems.append(f"{url}: error differs from the oracle")
                continue
            for key, value in cols.items():
                if row[key] != value:
                    problems.append(f"{url}: {key} differs from the oracle")
                    break
        return problems


class ExtractCCMix(Workload):
    def run(self, warm: bool = False) -> None:
        from yomitoku_ray.pipelines.extract import extract_pages

        extract_pages(self._src(warm), self.cfg).write_parquet(self._dst(warm), compression="zstd")


class SemanticTables(Workload):
    stage = "semantic"
    text_col = None
    cells_col = "semantic_json"
    row_cols = ["url", "error", "semantic_json", "n_tables"]
    batch_size = 32

    def run(self, warm: bool = False) -> None:
        from yomitoku_ray.pipelines.semantic import semantic_pages

        semantic_pages(
            self._src(warm), extraction_schema=SEMANTIC_SCHEMA,
            concurrency=POOL, batch_size=self.batch_size,
        ).write_parquet(self._dst(warm), compression="zstd")

    def check_sample(self, truth: dict, pages: dict) -> list[str]:
        """Sampled rows equal the stage run in this process on the same rows."""
        from yomitoku_ray.pipelines.extract import PAGES_COLUMNS
        from yomitoku_ray.stages.semantic_stage import SemanticExtractStage

        want = self.sample_urls(truth)
        got = self.read_sample(want)
        table = pq.read_table(self.pages_path, columns=list(PAGES_COLUMNS), filters=[("url", "in", want)])
        stage = SemanticExtractStage(extraction_schema=SEMANTIC_SCHEMA, merge_same_column_values=False)
        problems = []
        for expect in stage(table).to_pylist():
            row = got.get(expect["url"])
            for key, value in expect.items():
                if row is None or row[key] != value:
                    problems.append(f"{expect['url']}: {key} differs from the in-process stage")
                    break
        return problems


class CorpusRecrawl(Workload):
    def run(self, warm: bool = False) -> None:
        from yomitoku_ray.pipelines.corpus import CorpusConfig, build_corpus

        build_corpus(self._src(warm), CorpusConfig(extract=self.cfg)).write_parquet(
            self._dst(warm), compression="zstd"
        )

    def check(self) -> checks.Report:
        truth, pages = self.truth(), self.pages()
        survivors = self.read_rows(["digest", "url", "text", "n_words", "n_copies"])
        rep = checks.check_corpus(pages, truth["pages"], truth["groups"], survivors)
        rep.problems += self.check_sample(truth, pages, survivors)
        return rep

    def check_sample(self, truth: dict, pages: dict, survivors=()) -> list[str]:
        """For sampled pages, the oracle's text decides whether a survivor
        with its digest must exist."""
        from yomitoku_ray.oracle import analyze_html_bytes

        kinds = {t["url"]: t["kind"] for t in truth["pages"]}
        digests = {s["digest"] for s in survivors}
        urls = {s["url"] for s in survivors}
        problems = []
        for url in self.sample_urls(truth):
            if kinds[url] == "fault":
                continue
            cols, err = analyze_html_bytes(pages[url] or b"", url)
            keep = err is None and checks.gates_pass(cols["extracted_text"])[0]
            digest = hashlib.md5(cols["extracted_text"].encode("utf-8")).hexdigest()
            if keep and digest not in digests:
                problems.append(f"{url}: oracle text passes the gates but no survivor has its digest")
            if not keep and url in urls:
                problems.append(f"{url}: survives though the oracle text is an error or gated out")
        return problems


class CrawlWarcResume(Workload):
    # One shard per wave: the first call commits half the waves, the second
    # resumes and commits the rest, each wave with its own actor pool.
    wave_files = 1

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.shards_dir = os.path.join(self.inputs, "shards")
        self.root = os.path.join(self.work, "crawl")
        self.shards = sorted(glob.glob(os.path.join(self.shards_dir, "*.warc.gz")))
        self.n_waves = math.ceil(len(self.shards) / self.wave_files)
        self.summaries: list[dict] = []

    def run(self, warm: bool = False) -> None:
        from yomitoku_ray.state.checkpoint import run_resumable

        src = os.path.join(self.inputs, "warm_shards") if warm else self.shards_dir
        root = _fresh(self.root + ("-warm" if warm else ""))
        if warm:
            run_resumable(src, root, self.cfg, wave_files=self.wave_files)
            return
        first = run_resumable(src, root, self.cfg, wave_files=self.wave_files, max_waves=self.n_waves // 2)
        self.summaries = [first, run_resumable(src, root, self.cfg, wave_files=self.wave_files)]

    def output_dirs(self) -> list[str]:
        return sorted(glob.glob(os.path.join(self.root, "data", "wave-*")))

    def manifests(self) -> list[dict]:
        out = []
        for p in sorted(glob.glob(os.path.join(self.root, "manifest", "wave-*.json"))):
            with open(p) as f:
                out.append(json.load(f))
        return out

    def check(self) -> checks.Report:
        rep = super().check()
        wave_urls = {
            os.path.basename(d): pq.read_table(d, columns=["url"]).column("url").to_pylist()
            for d in self.output_dirs()
        }
        urls = [t["url"] for t in self.truth()["pages"]]
        rep.problems += checks.check_manifests(self.shards, self.manifests(), wave_urls, urls).problems
        first, second = self.summaries
        if first["complete"] or first["waves_run"] != self.n_waves // 2:
            rep.problem(f"first run_resumable call did not stop after half the waves: {first}")
        if not second["complete"] or first["waves_run"] + second["waves_run"] != self.n_waves:
            rep.problem(f"resumed call did not finish the remaining waves: {second}")
        return rep


WORKLOADS = {
    "extract_cc_mix": ExtractCCMix,
    "semantic_tables": SemanticTables,
    "corpus_recrawl": CorpusRecrawl,
    "crawl_warc_resume": CrawlWarcResume,
}


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def per_layer(wl: Workload, wall_s: float, n_pages: int, spans_path: str) -> dict:
    """Per-layer metrics of a traced run, for the layers on the workload's
    path."""
    import ray.data

    from yomitoku_ray.pipelines.extract import PAGES_COLUMNS, read_pages

    out = {}
    per_page_ms = 1000.0 / n_pages

    if isinstance(wl, CrawlWarcResume):
        from yomitoku_ray.pipelines.extract import build_extract_pipeline
        from yomitoku_ray.sources.warc import read_warc
        from yomitoku_ray.state.checkpoint import run_resumable

        read_s = _timed(lambda: read_warc(wl.shards).materialize())
        out["sources.warc.parse_ms"] = read_s * per_page_ms
        one_shot = _fresh(os.path.join(wl.work, "one-shot"))
        once_s = _timed(
            lambda: build_extract_pipeline(
                read_warc(wl.shards).select_columns(list(PAGES_COLUMNS)), wl.cfg
            ).write_parquet(one_shot)
        )
        out["state.checkpoint.wave_overhead_ms"] = 1000.0 * (wall_s - once_s) / wl.n_waves
        sizes = [os.path.getsize(p) for p in glob.glob(os.path.join(wl.root, "manifest", "wave-*.json"))]
        out["state.checkpoint.manifest_bytes"] = sum(sizes) / len(sizes)
        out["state.checkpoint.resume_scan_ms"] = 1000.0 * _timed(
            lambda: run_resumable(wl.shards_dir, wl.root, wl.cfg, wave_files=wl.wave_files)
        )
    elif isinstance(wl, SemanticTables):
        read_s = _timed(lambda: ray.data.read_parquet(wl.pages_path, columns=list(PAGES_COLUMNS)).materialize())
    else:
        read_s = _timed(lambda: read_pages(wl.pages_path).materialize())
    out["pipelines.extract.read_ms"] = read_s * per_page_ms

    produced = ray.data.read_parquet(
        [p for d in wl.output_dirs() for p in sorted(glob.glob(os.path.join(d, "*.parquet")))]
    ).materialize()
    rewrite = _fresh(os.path.join(wl.work, "rewrite"))
    out["pipelines.extract.write_ms"] = _timed(
        lambda: produced.write_parquet(rewrite, compression="zstd")
    ) * per_page_ms

    if isinstance(wl, CorpusRecrawl):
        from yomitoku_ray.functions.buckets import resolve_mask
        from yomitoku_ray.pipelines.corpus import _clean_batch
        from yomitoku_ray.pipelines.extract import extract_pages

        extracted = _fresh(os.path.join(wl.work, "extract-only"))
        extract_s = _timed(
            lambda: extract_pages(wl.pages_path, wl.cfg).write_parquet(extracted, compression="zstd")
        )
        out["pipelines.corpus.exchange_ms"] = (wall_s - extract_s) * per_page_ms
        cleaned = _clean_batch(
            pq.read_table(extracted).to_pandas(),
            min_words=checks.MIN_WORDS,
            max_dup_pct=checks.MAX_DUP_WORD_PCT,
            mask=resolve_mask(None, paths=wl.pages_path),
        )
        sizes = cleaned["bucket"].value_counts()
        out["pipelines.corpus.exchange_rows"] = float(len(cleaned))
        out["pipelines.corpus.exchange_bytes"] = float(pa.Table.from_pandas(cleaned).nbytes)
        out["pipelines.corpus.bucket_rows_max"] = float(sizes.max())
        out["pipelines.corpus.bucket_rows_median"] = float(sizes.median())
        out["functions.clean.kept_per_in"] = len(cleaned) / n_pages

    from layertrace import trace_stage

    if wl.stage == "fused":
        kwargs, batch = {}, wl.cfg.detect_batch_size
    else:
        kwargs, batch = {"extraction_schema": SEMANTIC_SCHEMA}, SemanticTables.batch_size
    table = pq.read_table(wl.pages_path)
    layers = trace_stage(wl.stage, table, kwargs, batch, spans_path)
    stage_ms = layers.pop("_stage_ms_per_page")
    out.update(layers)
    out["pipelines.extract.overhead_ms"] = wall_s * per_page_ms - stage_ms
    return out


def _wait_idle(timeout_s: float = 30.0) -> None:
    """Wait until the warm-up's actors have given their CPUs back, so the
    timed run does not start behind them.

    A dataset left in a reference cycle keeps its actor (and its CPU) until
    the garbage collector runs: collect first.
    """
    import gc

    import ray

    gc.collect()
    total = ray.cluster_resources().get("CPU", 0)
    t0 = time.monotonic()
    while time.monotonic() - t0 < timeout_s and ray.available_resources().get("CPU", 0) < total:
        time.sleep(0.05)


def main() -> None:
    ap = argparse.ArgumentParser(description="one benchmark workload in this process")
    ap.add_argument("--mode", choices=["run", "trace"], required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-dir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args()

    import ray

    os.makedirs(args.work, exist_ok=True)
    wl = WORKLOADS[args.workload](args.inputs, args.work, args.seed)

    phases = {}
    t0 = time.perf_counter()
    ray.init(
        address="local",
        num_cpus=POOL + 1,
        object_store_memory=768 << 20,
        include_dashboard=False,
        logging_level="ERROR",
        _temp_dir=args.ray_dir,
    )
    phases["ray_init"] = time.perf_counter() - t0
    wl.run(warm=True)
    setup_s = time.perf_counter() - t0
    result: dict = {"setup_s": setup_s, "phases": phases}
    t1 = time.perf_counter()
    _wait_idle()
    phases["wait_idle"] = time.perf_counter() - t1
    n_pages = len(wl.truth()["pages"])
    meter = SessionMeter().start()
    t1 = time.perf_counter()
    wl.run()
    wall_s = time.perf_counter() - t1
    cpu_s, rss_mb = meter.stop()
    t2 = time.perf_counter()
    rep = wl.check()
    phases["check"] = time.perf_counter() - t2
    result.update(
        pages=n_pages,
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=rss_mb,
        output_bytes=wl.output_bytes(),
        attempted=rep.attempted,
        failed=rep.failed,
        correct=rep.correct,
        problems=rep.problems[:20],
    )
    if args.mode == "trace":
        _wait_idle()
        t3 = time.perf_counter()
        os.makedirs(os.path.dirname(args.spans), exist_ok=True)
        result["per_layer"] = per_layer(wl, wall_s, n_pages, args.spans)
        phases["per_layer"] = time.perf_counter() - t3
    with open(args.result, "w") as f:
        json.dump(result, f)
    # No ray.shutdown(): the parent kills this process group (the whole Ray
    # session) and waits for it, which is faster than a graceful shutdown.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


if __name__ == "__main__":
    main()

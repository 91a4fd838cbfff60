"""CLI entry point: ``python -m yomitoku_ray <command>``.

Analogue of the reference CLI (``/root/reference/src/yomitoku/cli/main.py:
290-562`` and ``cli/extract_rule.py``), re-shaped for a dataset engine: the
unit of work is a Parquet pages table, not a file/dir of images, and output
is partitioned parquet (+ manifests) rather than per-page files.

Commands:
  extract   pages parquet -> extracted text/markdown/json columns
  semantic  pages parquet -> semantic tables (grids/kv) [+ rule extraction]
  ocr       pages parquet -> word stream only
  synth     generate the deterministic synthetic pages table
"""

from __future__ import annotations

import argparse
import json
import os
import sys


_OWNS_RAY = False


def _init_ray(num_cpus: int):
    """Init Ray only if no session exists; remember ownership so ``main``
    never tears down a session it did not create (the driver owns its own)."""
    global _OWNS_RAY
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        _OWNS_RAY = True


def cmd_extract(args):
    _init_ray(args.num_cpus)
    from .pipelines.extract import ExtractConfig, build_extract_pipeline, read_pages
    from .state.checkpoint import run_resumable

    cfg = ExtractConfig(
        ignore_ruby=args.ignore_ruby,
        ignore_meta=args.ignore_meta,
        reading_order=args.reading_order,
    )
    if args.resumable:
        summary = run_resumable(args.input, args.output, cfg, wave_files=args.wave_files)
        print(json.dumps(summary))
    else:
        ds = read_pages(args.input, cfg=cfg)
        if args.url_prefix:
            # page-selection analogue (cli/main.py:94-118): predicate on url,
            # applied before the heavy stage. Programmatic (not a
            # string-built expr): quotes/U+FFFF in the prefix must not
            # break or misorder the predicate.
            import pyarrow as pa
            import pyarrow.compute as pc

            prefix = args.url_prefix

            def _prefix_filter(tbl: pa.Table) -> pa.Table:
                return tbl.filter(pc.starts_with(tbl.column("url"), prefix))

            ds = ds.map_batches(_prefix_filter, batch_format="pyarrow")
        build_extract_pipeline(ds, cfg).write_parquet(args.output)
        print(json.dumps({"output": args.output}))


def cmd_crawl(args):
    """Common Crawl shard drive: WARC in, parquet or WET out."""
    if args.resumable and args.wet:
        raise SystemExit("--resumable writes checkpointed parquet waves; drop --wet")
    _init_ray(args.num_cpus)
    from .pipelines.extract import ExtractConfig, build_extract_pipeline
    from .sources.warc import read_warc

    cfg = ExtractConfig()
    if args.wat:
        # WAT derives from the RAW capture, not the extraction output, so
        # it is its own consume of the WARC input (exactly how CC produces
        # it — a separate metadata job over the same shard). Runs in both
        # the plain and --resumable drives.
        from .export.wat import write_wat

        write_wat(
            read_warc(args.inputs).select_columns(["url", "warc_ts", "html"]),
            args.wat,
        )
    if args.resumable:
        from .state.checkpoint import run_resumable

        summary = run_resumable(
            args.inputs[0], args.output, cfg, wave_files=args.wave_files
        )
        print(json.dumps(summary))
        return
    src = read_warc(args.inputs).select_columns(["url", "warc_ts", "html", "lang"])
    out = build_extract_pipeline(src, cfg)
    if args.wet:
        from .export.wet import write_wet

        write_wet(out.filter(expr="is_null(error)"), args.output)
    else:
        out.write_parquet(args.output)
    print(
        json.dumps(
            {
                "output": args.output,
                "format": "wet" if args.wet else "parquet",
                **({"wat": args.wat} if args.wat else {}),
            }
        )
    )


def cmd_cdx(args):
    """Write a CDX-style parquet index (url, offset, length per record)
    for WARC shard(s) — enables random access via read_warc_record_at."""
    _init_ray(args.num_cpus)
    from .sources.warc import build_cdx_dataset

    ds = build_cdx_dataset(args.inputs)
    ds.write_parquet(args.output)
    print(json.dumps({"output": args.output, "entries": ds.count()}))


def cmd_semantic(args):
    _init_ray(args.num_cpus)
    from .pipelines.semantic import semantic_pages

    schema = None
    if args.schema:
        import yaml

        with open(args.schema, encoding="utf-8") as f:
            schema = yaml.safe_load(f)
    ds = semantic_pages(args.input, extraction_schema=schema)
    ds.write_parquet(args.output)
    print(json.dumps({"output": args.output}))


def cmd_ocr(args):
    _init_ray(args.num_cpus)
    from .pipelines.ocr import ocr_pages

    ocr_pages(args.input).write_parquet(args.output)
    print(json.dumps({"output": args.output}))


def cmd_synth(args):
    import pyarrow.parquet as pq

    from .synth.pages import generate_pages_table

    pq.write_table(generate_pages_table(args.rows, seed=args.seed), args.output)
    print(json.dumps({"output": args.output, "rows": args.rows}))


def cmd_visualize(args):
    """Overlay PNGs (layout boxes + word quads + reading-order arrows) per
    url — the analog of the reference's cv2 visualizers, distributed as a
    map_batches stage writing one PNG per page."""
    import ray.data

    from .render import doc_stem_for_url
    from .visualize import to_png, visualize_document

    os.makedirs(args.output, exist_ok=True)
    out_dir = args.output

    def _render(df):
        import pandas as pd

        names, sizes = [], []
        for _, row in df.iterrows():
            if row.get("error") or not row.get("doc_json"):
                continue
            doc = json.loads(row["doc_json"])
            png = to_png(visualize_document(doc))
            name = doc_stem_for_url(row["url"]) + ".png"
            with open(os.path.join(out_dir, name), "wb") as f:
                f.write(png)
            names.append(name)
            sizes.append(len(png))
        return pd.DataFrame({"file": names, "n_bytes": sizes})

    ds = ray.data.read_parquet(args.input, columns=["url", "error", "doc_json"])
    stats = ds.limit(args.limit).map_batches(_render, batch_format="pandas").to_pandas()
    print(json.dumps({"rendered": len(stats), "bytes": int(stats["n_bytes"].sum()) if len(stats) else 0}))


def cmd_corpus(args):
    _init_ray(args.num_cpus)
    from .pipelines.corpus import CorpusConfig, build_corpus

    cfg = CorpusConfig(min_words=args.min_words, streaming_dedup=args.streaming)
    ds = build_corpus(args.input, cfg)
    if args.format == "jsonl":
        from .export.jsonl import write_jsonl

        write_jsonl(ds, args.output)
        from .export.jsonl import read_jsonl

        t = read_jsonl(args.output).select_columns(["n_words"]).to_pandas()
        print(json.dumps({"n_docs": len(t), "n_words": int(t["n_words"].sum())}))
    else:
        ds.write_parquet(args.output, compression="zstd")
        import pyarrow.parquet as pq

        t = pq.read_table(args.output, columns=["n_words"])
        print(json.dumps({"n_docs": t.num_rows, "n_words": (__import__('pyarrow').compute.sum(t.column('n_words')).as_py() or 0)}))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="yomitoku_ray")
    parser.add_argument("--num-cpus", type=int, default=8)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="full extraction pipeline")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--resumable", action="store_true",
                   help="checkpointed waves: one Dataset per call, one commit per wave")
    p.add_argument("--wave-files", type=int, default=4,
                   help="input files per wave, the unit of commit and resume")
    p.add_argument("--ignore-ruby", action="store_true")
    p.add_argument("--ignore-meta", action="store_true")
    p.add_argument("--reading-order", default="auto",
                   choices=["auto", "top2bottom", "right2left", "left2right"])
    p.add_argument("--url-prefix", help="process only urls with this prefix")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser(
        "corpus", help="pages parquet -> extract -> quality gates -> dedup -> shards"
    )
    p.add_argument("input")
    p.add_argument("output")
    # accepted after the subcommand too; SUPPRESS keeps the global value
    # when it is not given here
    p.add_argument("--num-cpus", type=int, default=argparse.SUPPRESS)
    p.add_argument("--min-words", type=int, default=5)
    p.add_argument(
        "--format",
        choices=("parquet", "jsonl"),
        default="parquet",
        help="shard format: parquet (default) or Dolma-layout .jsonl.gz",
    )
    p.add_argument(
        "--streaming", action="store_true",
        help="dedup via the sharded actor index instead of the digest shuffle",
    )
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("crawl", help="WARC shard(s) -> extract -> parquet or WET")
    p.add_argument("inputs", nargs="+", help=".warc / .warc.gz file(s)")
    p.add_argument("output")
    p.add_argument("--wet", action="store_true", help="write CC WET instead of parquet")
    p.add_argument("--wat", metavar="DIR", help="also write CC WAT metadata shards to DIR")
    p.add_argument("--resumable", action="store_true",
                   help="checkpointed waves of shards (input = directory of WARCs): "
                        "one Dataset per call, one commit per wave")
    p.add_argument("--wave-files", type=int, default=4,
                   help="input files per wave, the unit of commit and resume")
    p.set_defaults(fn=cmd_crawl)

    p = sub.add_parser("cdx", help="build a CDX-style parquet index for WARC shard(s)")
    p.add_argument("inputs", nargs="+")
    p.add_argument("output")
    p.set_defaults(fn=cmd_cdx)

    p = sub.add_parser("semantic", help="semantic table parsing [+ extraction]")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--schema", help="extraction schema YAML")
    p.set_defaults(fn=cmd_semantic)

    p = sub.add_parser("ocr", help="word stream only")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=cmd_ocr)

    p = sub.add_parser(
        "visualize", help="render debug overlay PNGs from extracted parquet"
    )
    p.add_argument("input", help="extraction output (parquet dir/file with doc_json)")
    p.add_argument("output", help="directory for per-url overlay PNGs")
    p.add_argument("--limit", type=int, default=100, help="max pages to render")
    p.set_defaults(fn=cmd_visualize)

    p = sub.add_parser("synth", help="generate synthetic pages parquet")
    p.add_argument("output")
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_synth)

    args = parser.parse_args(argv)
    args.fn(args)

    import ray

    if _OWNS_RAY and ray.is_initialized():
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())

"""MCP-style stdio server exposing the extraction engine as tools (A9).

Parity target: the reference's MCP server
(``/root/reference/src/yomitoku/cli/mcp_server.py:26-140``) — one
``process_ocr(filename, output_format)`` tool rooted at ``$RESOURCE_DIR``,
lazy analyzer load, PDF containers exploded into pages, per-page results
merged per the ``--combine`` rules (json -> list, markdown/html -> "\\n"
join, csv -> row concat).

Transport: newline-delimited JSON-RPC 2.0 over stdio (the MCP stdio
transport), implemented with the stdlib only — the container ships no MCP
SDK. The protocol subset covers ``initialize``, ``ping``, ``tools/list``
and ``tools/call``; unknown methods get a standard -32601 error, notifications
(no ``id``) get no response.

Tools:
- ``process_document(filename, output_format)``: html file or ``.ytrp``
  paged container under RESOURCE_DIR -> extraction in json/markdown/html/
  csv/text format, multi-page results merged reference-style.
- ``extract_fields(filename, schema)``: semantic parse + rule-cascade field
  extraction (the reference's ``extract`` CLI surface).

Serving one file is a single-process concern (the reference holds one
in-process DocumentAnalyzer); no Ray session is started here.
"""

from __future__ import annotations

import json
import os
import sys

PROTOCOL_VERSION = "2024-11-05"
SERVER_INFO = {"name": "yomitoku-ray", "version": "0.2.0"}

_TOOLS = [
    {
        "name": "process_document",
        "description": (
            "Extract content from an html page or .ytrp paged container in "
            "the resource directory and return it in the requested format "
            "(json, markdown, html, csv, text)."
        ),
        "inputSchema": {
            "type": "object",
            "properties": {
                "filename": {"type": "string"},
                "output_format": {
                    "type": "string",
                    "enum": ["json", "markdown", "html", "csv", "text", "pdf"],
                },
            },
            "required": ["filename", "output_format"],
        },
    },
    {
        "name": "extract_fields",
        "description": (
            "Parse tables/keys semantically and extract schema fields "
            "(rule cascade) from a document in the resource directory."
        ),
        "inputSchema": {
            "type": "object",
            "properties": {
                "filename": {"type": "string"},
                "schema": {"type": "object"},
            },
            "required": ["filename", "schema"],
        },
    },
]


def _resource_dir() -> str:
    try:
        return os.environ["RESOURCE_DIR"]
    except KeyError:
        # Reference contract: hard error when unset (mcp_server.py:19-22).
        raise ValueError("Environment variable 'RESOURCE_DIR' is not set.")


def _resolve_resource(filename: str) -> str:
    """Join ``filename`` onto RESOURCE_DIR with confinement enforced.

    Untrusted JSON-RPC input must not escape the resource root: ``../``
    sequences and absolute filenames (which make os.path.join discard the
    root entirely) are rejected after realpath resolution.
    """
    root = os.path.realpath(_resource_dir())
    path = os.path.realpath(os.path.join(root, filename))
    if os.path.commonpath([root, path]) != root:
        raise ValueError(f"filename escapes resource dir: {filename!r}")
    return path


def _load_pages(path: str) -> list[bytes]:
    """File -> per-page html payloads (paged container or single page)."""
    with open(path, "rb") as f:
        raw = f.read()
    if path.endswith(".ytrp"):
        from ..sources.paged import decode_paged_doc

        return decode_paged_doc(raw)
    return [raw]


def process_document(filename: str, output_format: str) -> str:
    from ..oracle import analyze_html_bytes

    path = _resolve_resource(filename)
    if not os.path.exists(path):
        raise FileNotFoundError(filename)
    pages = _load_pages(path)

    if output_format == "pdf":
        # Searchable PDF (S8): per-page invisible text layer, one document,
        # base64 over the JSON-RPC transport.
        import base64

        from ..dom import decode_html
        from ..detect import detect_page
        from ..analyze import aggregate_document
        from ..export.searchable_pdf import create_searchable_pdf, document_to_pdf_page

        pdf_pages = []
        for i, page in enumerate(pages):
            text = decode_html(page)
            det = detect_page(text)
            document = aggregate_document(det.words, det.paragraphs, det.tables, det.figures)
            pdf_pages.append(document_to_pdf_page(document))
        return base64.b64encode(create_searchable_pdf(pdf_pages)).decode("ascii")

    results = []
    for i, page in enumerate(pages):
        out, err = analyze_html_bytes(page, f"{filename}#page={i + 1}")
        if err is not None:
            raise ValueError(f"page {i + 1}: {err}")
        results.append(out)

    # Merge rules per the reference's merge_all_pages (cli/main.py:24-59).
    if output_format == "json":
        return json.dumps(
            [json.loads(r["doc_json"]) for r in results],
            ensure_ascii=False,
            sort_keys=True,
            separators=(",", ": "),
        )
    if output_format == "markdown":
        return "\n".join(r["markdown"] for r in results)
    if output_format == "html":
        return "\n".join(r["html"] for r in results)
    if output_format == "csv":
        return "\n".join(r["csv"] for r in results)
    if output_format == "text":
        return "\n".join(r["extracted_text"] for r in results)
    raise ValueError(f"unknown output_format: {output_format}")


def extract_fields(filename: str, schema: dict) -> str:
    from ..extractor.rule_pipeline import run_rule_extraction
    from ..extractor.schema import ExtractionSchema
    from ..oracle import parse_semantic_html_bytes

    path = _resolve_resource(filename)
    if not os.path.exists(path):
        raise FileNotFoundError(filename)
    pages = _load_pages(path)
    outputs = []
    for page in pages:
        doc, err = parse_semantic_html_bytes(page)
        if err is not None:
            raise ValueError(err)
        outputs.append(
            run_rule_extraction(doc, ExtractionSchema.from_dict(schema), simple=True)
        )
    merged = outputs[0] if len(outputs) == 1 else outputs
    return json.dumps(merged, ensure_ascii=False, sort_keys=True)


_TOOL_FNS = {
    "process_document": lambda args: process_document(
        args["filename"], args["output_format"]
    ),
    "extract_fields": lambda args: extract_fields(args["filename"], args["schema"]),
}


def handle_request(req: dict) -> dict | None:
    """One JSON-RPC request -> response dict (None for notifications)."""
    rid = req.get("id")
    method = req.get("method", "")
    if rid is None:
        return None  # notification

    def ok(result):
        return {"jsonrpc": "2.0", "id": rid, "result": result}

    def err(code, message):
        return {"jsonrpc": "2.0", "id": rid, "error": {"code": code, "message": message}}

    try:
        if method == "initialize":
            return ok(
                {
                    "protocolVersion": PROTOCOL_VERSION,
                    "capabilities": {"tools": {}},
                    "serverInfo": SERVER_INFO,
                }
            )
        if method == "ping":
            return ok({})
        if method == "tools/list":
            return ok({"tools": _TOOLS})
        if method == "tools/call":
            params = req.get("params") or {}
            name = params.get("name")
            fn = _TOOL_FNS.get(name)
            if fn is None:
                return err(-32602, f"unknown tool: {name}")
            try:
                text = fn(params.get("arguments") or {})
                return ok({"content": [{"type": "text", "text": text}], "isError": False})
            except Exception as e:  # noqa: BLE001 - tool errors go in-band
                return ok(
                    {
                        "content": [{"type": "text", "text": f"{type(e).__name__}: {e}"}],
                        "isError": True,
                    }
                )
        return err(-32601, f"method not found: {method}")
    except Exception as e:  # noqa: BLE001
        return err(-32603, f"internal error: {e}")


def serve(stdin=None, stdout=None) -> None:
    """Newline-delimited JSON-RPC loop until EOF."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            req = json.loads(line)
        except json.JSONDecodeError:
            resp = {
                "jsonrpc": "2.0",
                "id": None,
                "error": {"code": -32700, "message": "parse error"},
            }
            stdout.write(json.dumps(resp, ensure_ascii=False) + "\n")
            stdout.flush()
            continue
        resp = handle_request(req)
        if resp is not None:
            stdout.write(json.dumps(resp, ensure_ascii=False) + "\n")
            stdout.flush()


if __name__ == "__main__":
    serve()

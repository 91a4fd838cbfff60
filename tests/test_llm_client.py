"""LLM extraction client: prompt/parse/resolve contract + real transport.

The transport test runs an in-process loopback HTTP server speaking the
OpenAI-compatible /chat/completions shape (reference contract:
/root/reference/src/yomitoku/extractor/llm_client.py:18-56), including the
json_object-rejected -> plain retry fallback. No external network involved.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from yomitoku_ray.extractor.llm_client import (
    FakeLlmClient,
    OpenAiCompatClient,
    build_messages,
    parse_llm_json,
    run_llm_extraction,
    strip_json_fences,
)
from yomitoku_ray.extractor.schema import ExtractionSchema
from yomitoku_ray.oracle import parse_semantic_html_bytes

HTML = (
    "<html><body><table>"
    "<tr><th>name</th><td>Taro</td></tr>"
    "<tr><th>total</th><td>1,200</td></tr>"
    "</table></body></html>"
)


def _semantic_doc():
    doc, err = parse_semantic_html_bytes(HTML.encode("utf-8"))
    assert err is None
    return doc


def _schema():
    return ExtractionSchema.from_dict(
        {"fields": [{"name": "customer", "description": "name"}]}
    )


def test_fence_and_parse_contract():
    assert strip_json_fences('```json\n{"a": 1}\n```') == '{"a": 1}'
    assert parse_llm_json('```json\n{"a": 1}\n```') == {"a": 1}
    assert parse_llm_json("not json at all") == {}


def test_fake_client_end_to_end():
    doc = _semantic_doc()
    out = run_llm_extraction(doc, _schema())
    assert out["customer"] == "Taro"


def test_openai_compat_client_requires_config(monkeypatch):
    monkeypatch.delenv("YOMITOKU_RAY_LLM_BASE_URL", raising=False)
    with pytest.raises(NotImplementedError):
        OpenAiCompatClient()


class _Handler(BaseHTTPRequestHandler):
    """First request (json_object mode) -> 400; retry -> fenced answer."""

    calls = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).calls.append(body)
        if "response_format" in body:
            self.send_response(400)
            self.end_headers()
            self.wfile.write(b'{"error": "response_format unsupported"}')
            return
        content = (
            "```json\n"
            + json.dumps(
                {"results": [{"name": "customer", "value": "Taro", "cell_ids": ["kv0_v"]}]}
            )
            + "\n```"
        )
        resp = {"choices": [{"message": {"content": content}}]}
        payload = json.dumps(resp).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *a):  # silence
        pass


def test_openai_compat_transport_loopback():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_port}/v1"
        client = OpenAiCompatClient(api_base=base, model="test-model")
        doc = _semantic_doc()
        schema = _schema()
        messages = build_messages(doc, schema)
        answer = client.chat(messages)
        assert answer == {
            "results": [{"name": "customer", "value": "Taro", "cell_ids": ["kv0_v"]}]
        }
        # fallback contract exercised: json_object attempt then plain retry
        assert "response_format" in _Handler.calls[0]
        assert "response_format" not in _Handler.calls[1]
        assert _Handler.calls[1]["model"] == "test-model"
        # and the full pipeline path accepts the real client
        out = run_llm_extraction(doc, schema, client=client)
        assert out["customer"] == "Taro"
    finally:
        server.shutdown()

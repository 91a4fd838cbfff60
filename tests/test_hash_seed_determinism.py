"""Output must be identical across Python hash seeds (each Ray worker has
its own PYTHONHASHSEED; any set-iteration leak would make distributed
output nondeterministic)."""

import subprocess
import sys

SCRIPT = r"""
import hashlib, json, sys
sys.path.insert(0, "/root/repo")
from yomitoku_ray.synth.pages import gen_page
from yomitoku_ray.oracle import analyze_html_bytes, parse_semantic_html_bytes

h = hashlib.sha256()
for i in range(40):
    p = gen_page(i)
    out, err = analyze_html_bytes(p["html"], p["url"])
    h.update((err or "").encode())
    h.update(out["doc_json"].encode())
    doc, serr = parse_semantic_html_bytes(p["html"])
    if doc is not None:
        h.update(json.dumps(doc.dump(), sort_keys=True, ensure_ascii=False).encode())
print(h.hexdigest())
"""


def _run(seed):
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={"PYTHONHASHSEED": str(seed), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_same_output_across_hash_seeds():
    digests = {_run(seed) for seed in (0, 1, 4242)}
    assert len(digests) == 1, digests

"""The benchmark's tracer wraps proscore functions by name at run time, so
renaming one of them must fail here and not only in a traced benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_spans_entry_point_traces_a_cli_run(tmp_path):
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "bench/spans.py", str(out), "t", "--",
         "simulate", "--a", "1", "--steps", "2"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(out.read_text())["spans"]
    assert "cli.simulate" in {s["name"] for s in spans}

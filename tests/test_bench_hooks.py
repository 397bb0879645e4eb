"""The benchmark's tracer wraps proscore functions by name at run time, so
renaming one of them must fail here and not only in a traced benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import TINY_SYNTH

from proscore.corpus import save_corpus, synth_corpus

ROOT = Path(__file__).resolve().parents[1]


def _traced(out, *argv) -> list:
    """The spans of `proscore ARGV` run through bench/spans.py."""
    proc = subprocess.run(
        [sys.executable, "bench/spans.py", str(out), "t", "--", *argv],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["spans"]


def test_spans_entry_point_traces_a_cli_run(tmp_path):
    spans = _traced(tmp_path / "spans.json",
                    "simulate", "--a", "1", "--steps", "2")
    assert "cli.simulate" in {s["name"] for s in spans}


def test_spans_record_each_cached_stage_as_missed_then_hit(tmp_path):
    """The stage spans, which the benchmark's cache hit and miss counts
    come from, cover every cached stage of a run and of its rerun."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seed": 7, "corpus": {"synth": vars(TINY_SYNTH)},
        "systems": ["gop", "gmm", "ivector"],
        "gmm": {"components": 2, "iters": 3},
        "ivector": {"dim": 3, "iters": 2, "ubm_components": 2,
                    "ubm_iters": 3}}))
    stages = [sorted((s["attrs"]["stage"], s["attrs"]["hit"])
                     for s in _traced(tmp_path / f"{run}.json",
                                      "run", str(config))
                     if s["name"] == "pipeline.stage")
              for run in ("first", "rerun")]
    names = ("ff_ivector", "gmm", "gop", "ivector", "svr_ivector", "synth")
    assert stages == [[(name, hit) for name in names]
                      for hit in (False, True)]


@pytest.mark.parametrize("command, train_span", [("train-flow", "flow.train"),
                                                 ("train-dnf", "dnf.train")])
def test_spans_record_each_flow_training_step(tmp_path, command, train_span):
    """The tracer wraps nll_and_grads, train_core, Adam.step and the two
    coupling passes by call form: one minibatch, Adam step and backward
    pass per layer for each step, and one inverse pass per layer for each
    step and for the final full-data NLL."""
    corpus, _ = synth_corpus(TINY_SYNTH)
    manifest = save_corpus(corpus, tmp_path / "corpus")
    layers, batch_size = 2, 32
    spans = _traced(tmp_path / "spans.json", command,
                    "--manifest", str(manifest), "--out", str(tmp_path / "m"),
                    "--epochs", "1", "--layers", str(layers), "--width", "8",
                    "--batch-size", str(batch_size))
    count = {name: sum(s["name"] == name for s in spans)
             for name in ("flow.minibatch", "flow.coupling_inverse",
                          "flow.coupling_backward", "flow.adam")}
    steps = len(corpus.frames_for(corpus.splits.train_ids)) // batch_size
    assert steps > 1
    assert count == {"flow.minibatch": steps,
                     "flow.coupling_inverse": layers * (steps + 1),
                     "flow.coupling_backward": layers * steps,
                     "flow.adam": steps}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"] == "flow.coupling_backward":
            assert by_id[s["parent"]]["name"] == "flow.minibatch"
        elif s["name"] in ("flow.minibatch", "flow.adam"):
            assert by_id[s["parent"]]["name"] == train_span

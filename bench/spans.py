"""In-memory span tracing around the public functions of proscore.

A span records a layer boundary: its name, start, end, the span that
caused it and a few counts (frames, points, bytes). Spans stay in memory
and are written as JSON when the traced process ends. The wrappers live
here, in the benchmark, and replace the program's functions at run time;
nothing under src/ knows about them.

Run as a script, this module is the traced entry point of one proscore
process:

    python3 bench/spans.py OUT.json TRACE_ID -- <proscore arguments>

It times the import of proscore.cli, installs the wrappers, runs
proscore.cli.main on the arguments inside a span named after the
subcommand, writes the spans to OUT.json and exits with main's code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Spans of one process, kept in memory until `write`."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []
        self._stack = []
        # frame count of the train_core call in progress, so that its
        # nll_and_grads calls can be told apart: minibatch or full-data NLL
        self.train_frames = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a finished span that had no open parent."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": None, "start": start, "end": end,
                           "attrs": attrs})

    def write(self, path) -> None:
        doc = {"trace_id": self.trace_id, "pid": os.getpid(),
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def _wrapper(tracer, fn, name, attrs=None):
    """Trace `fn` as span `name`; `attrs(args, result)` adds counts to it."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
            if attrs is not None:
                rec["attrs"].update(attrs(args, out))
            return out
    return traced


def _wrap_nll(tracer, fn):
    @functools.wraps(fn)
    def traced(m, batch, *args, **kwargs):
        full = bool(tracer.train_frames) and batch.shape[0] == tracer.train_frames[-1]
        with tracer.span("flow.epoch_nll" if full else "flow.minibatch",
                         frames=int(batch.shape[0])):
            return fn(m, batch, *args, **kwargs)
    return traced


def _wrap_train_core(tracer, fn):
    @functools.wraps(fn)
    def traced(m, frames, *args, **kwargs):
        tracer.train_frames.append(len(frames))
        try:
            return fn(m, frames, *args, **kwargs)
        finally:
            tracer.train_frames.pop()
    return traced


def _wrap_stage_run(tracer, fn):
    @functools.wraps(fn)
    def traced(self, name, key, artifacts, compute, load):
        computed = []

        def counted_compute():
            computed.append(True)
            return compute()

        with tracer.span("pipeline.stage", stage=name) as rec:
            out = fn(self, name, key, artifacts, counted_compute, load)
            rec["attrs"]["hit"] = not computed
        return out
    return traced


def _wrap_cli_main(tracer, fn):
    @functools.wraps(fn)
    def traced(argv):
        with tracer.span(f"cli.{argv[0].replace('-', '_')}"):
            return fn(argv)
    return traced


def _corpus_counts(args, corpus) -> dict:
    return {"utts": len(corpus.features),
            "frames": sum(fs.num_frames for fs in corpus.features.values())}


# (module, attribute, span name, counts taken from (args, result))
_LAYERS = (
    ("corpus", "synth_corpus", "corpus.synth", None),
    ("corpus", "load_corpus", "corpus.load", _corpus_counts),
    ("gop", "gop_score", "gop.score", None),
    ("gmm", "gmm_train", "gmm.train",
     lambda args, out: {"frames": len(args[0])}),
    ("gmm", "gmm_loglik", "gmm.loglik", None),
    ("ivector", "ubm_stats", "ivector.stats", None),
    ("ivector", "tmatrix_train", "ivector.tmatrix", None),
    ("ivector", "ivector_infer", "ivector.infer", None),
    ("flow", "flow_train", "flow.train", None),
    ("flow", "CouplingLayer.inverse_cached", "flow.coupling_inverse", None),
    ("flow", "CouplingLayer.backward_inverse", "flow.coupling_backward", None),
    ("flow", "Adam.step", "flow.adam", None),
    ("flow", "flow_logprob", "flow.infer",
     lambda args, out: {"frames": len(args[1])}),
    ("flow", "flow_embed", "flow.infer",
     lambda args, out: {"frames": args[1].num_frames}),
    ("dnf", "dnf_train", "dnf.train", None),
    ("dnf", "dnf_embed", "dnf.embed", None),
    ("regress", "svr_train", "regress.svr_train",
     lambda args, out: {"points": len(args[0]),
                        "sv": int(out.support_vectors.shape[0])}),
    ("regress", "svr_predict", "regress.predict", None),
    ("regress", "svr_predict_batch", "regress.predict", None),
    ("assess", "select_lambda", "assess.select_lambda", None),
    ("assess", "score_fuse", "assess.fusion", None),
    ("assess", "feature_fuse", "assess.fusion", None),
    ("pipeline", "run_pipeline", "pipeline.run", None),
) + tuple(
    (module, f"{verb}_{kind}", f"formats.{verb}",
     (lambda args, out: {"bytes": os.path.getsize(args[0])})
     if verb == "save" else None)
    for module, kind in (("gmm", "gmm"), ("flow", "flow"), ("dnf", "dnf"),
                         ("ivector", "ivector_model"), ("regress", "svr"))
    for verb in ("save", "load"))


def _plan(tracer):
    """(module, attribute, traced-function factory) for every layer."""
    plan = [(module, attr,
             functools.partial(_wrapper, tracer, name=name, attrs=attrs))
            for module, attr, name, attrs in _LAYERS]
    plan += [("flow", "train_core", lambda f: _wrap_train_core(tracer, f)),
             ("flow", "nll_and_grads", lambda f: _wrap_nll(tracer, f)),
             ("pipeline", "StageCache.run",
              lambda f: _wrap_stage_run(tracer, f)),
             ("cli", "main", lambda f: _wrap_cli_main(tracer, f))]
    return plan


def install(tracer: Tracer) -> None:
    """Replace proscore's layer functions with traced wrappers.

    A function that other proscore modules imported by name is replaced
    there too, so every call site sees the wrapper.
    """
    import importlib

    import proscore.cli  # noqa: F401  (imports every layer module)

    modules = [m for name, m in sys.modules.items()
               if name == "proscore" or name.startswith("proscore.")]
    for module_name, attr, factory in _plan(tracer):
        owner = importlib.import_module(f"proscore.{module_name}")
        *cls_path, name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        traced = factory(original)
        setattr(owner, name, traced)
        if cls_path:
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


# ---------------------------------------------------------------------------
# summaries


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans of one process run on one thread, so children never overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def inclusive_time(spans, name: str) -> float:
    """Total time inside spans called `name`, nested repeats counted once."""
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] != name:
            continue
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != name:
            parent = by_id[parent]["parent"]
        if parent is None:
            total += s["end"] - s["start"]
    return total


if __name__ == "__main__":
    out_path, trace_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: spans.py OUT.json TRACE_ID -- <proscore arguments>")
    tracer = Tracer(trace_id)
    t0 = time.perf_counter()
    import proscore.cli
    tracer.add("cli.import", t0, time.perf_counter())
    install(tracer)
    try:
        code = proscore.cli.main(cli_args)
    finally:
        tracer.write(out_path)
    sys.exit(code)

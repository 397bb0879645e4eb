#!/usr/bin/env python3
"""Benchmark of proscore: cold, warm, scaled and stage-by-stage runs.

Run from the repository root:

    python3 bench/run.py --workload preset_cold --seed 1 --seconds 3 --trace 0

The benchmark generates the workload's corpus from --seed with
proscore.corpus.synth_corpus, writes it as a manifest corpus, and then
runs the program as users do, as `python3 -m proscore.cli ...` processes
that see only that manifest and a config. Each run repeats whole rounds
of the workload until --seconds have passed, checks every output against
its own recomputation (see checks.py), and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
benchmark runs one untraced and one traced round (see spans.py) and the
metrics are per-layer times and counts plus the tracing overhead; the
spans are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# every process must end within this many seconds of the benchmark's start
DEADLINE_S = 170.0
# set-up is repeated at least SETUPS times, and until SETUP_S seconds have
# passed, and its median reported
SETUPS = 3
SETUP_S = 1.0
# epochs of the flows in preset_warm's priming run; the model shapes, and
# so the inference work of the timed runs, do not depend on it
PRIME_EPOCHS = 1

ALL_SYSTEMS = ("gop", "gmm", "ivector", "nf", "dnf")
# the model sections of configs/synthetic.json, fixed here so that the
# workload does not change when the shipped preset does
PRESET = {
    "fusion": {"modes": ["score", "feature"], "grid_step": 0.02,
               "normalization": "zscore"},
    "gop": {"mode": "mean-then-log"},
    "gmm": {"components": 16, "iters": 25},
    "ivector": {"dim": 16, "iters": 5, "ubm_components": 2, "ubm_iters": 25},
    "nf": {"layers": 6, "width": 48, "learning_rate": 0.001,
           "batch_size": 256, "epochs": 16},
    "dnf": {"layers": 6, "width": 48, "learning_rate": 0.001,
            "batch_size": 256, "epochs": 16, "classes": 5},
    "svr": {"C": 1.0, "epsilon": 0.1, "kernel": "rbf", "gamma": "scale"},
}
MODEL_SUFFIXES = {".pgmm", ".pivm", ".pnf1", ".pdnf", ".psvr"}
SIMULATE_A = 1.0
SIMULATE_STEPS = 41


@dataclass
class Proc:
    """One finished program process."""

    args: list
    code: int
    wall_s: float
    rss_mb: float
    stderr: str


@dataclass
class Round:
    """One timed round of a workload."""

    wall_s: float
    procs: list
    run_dir: Path
    spans: list = field(default_factory=list)
    report: str = ""

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.work = WORK / f"{workload}-s{seed}-{os.getpid()}"
        self.problems = []
        self.tracer = spans.Tracer(f"{workload}/s{seed}") if trace else None
        self.traced_procs = 0

    def program(self, args, cwd: Path, spans_dir: Path | None = None) -> Proc:
        """Run `python3 -m proscore.cli ARGS`, or traced into spans_dir."""
        if spans_dir is None:
            cmd = [sys.executable, "-m", "proscore.cli", *args]
        else:
            self.traced_procs += 1
            cmd = [sys.executable, str(BENCH / "spans.py"),
                   str(spans_dir / f"{self.traced_procs}.json"),
                   self.tracer.trace_id, "--", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        timeout = DEADLINE_S - (time.perf_counter() - self.start)
        if timeout <= 0:
            raise TimeoutError("benchmark deadline reached")
        with open(cwd / "stderr.txt", "w+", encoding="utf-8") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(timeout, p.kill)
            killer.start()
            try:
                # wait4 gives this child's own peak RSS
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        return Proc(list(args), p.returncode, wall, usage.ru_maxrss / 1024.0,
                    stderr)

    def timed_rounds(self, one_round) -> list:
        """Whole rounds until --seconds have passed; two with --trace 1.

        With --trace 1 the first round is untraced and the second traced,
        so their difference is the tracing overhead.
        """
        if self.tracer is not None:
            spans_dir = self.work / "spans"
            spans_dir.mkdir()
            rounds = [one_round(0, None), one_round(1, spans_dir)]
            files = sorted(spans_dir.glob("*.json"), key=lambda p: int(p.stem))
            rounds[1].spans = [json.loads(p.read_text()) for p in files]
            return rounds
        rounds = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < self.seconds:
            rounds.append(one_round(len(rounds), None))
        return rounds

    def setup(self, make) -> tuple:
        """Set up in fresh dirs; return the median time and the last state.

        `make(dir)` returns a state from `make_corpus`.
        """
        times, state, t_start = [], None, time.perf_counter()
        while len(times) < SETUPS or time.perf_counter() - t_start < SETUP_S:
            d = self.work / f"setup{len(times)}"
            if times:
                shutil.rmtree(self.work / f"setup{len(times) - 1}")
            d.mkdir(parents=True)
            t0 = time.perf_counter()
            state = make(d)
            times.append(time.perf_counter() - t0)
        # the files the rounds read are flushed now, or their write-back
        # slows the first round
        for p in d.rglob("*"):
            if p.is_file():
                fd = os.open(p, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        if self.tracer is not None:
            self.tracer.add("corpus.synth", *state["synth"])
        return statistics.median(times), state


# ---------------------------------------------------------------------------
# shared steps


def make_corpus(d: Path, seed: int, speakers: int) -> dict:
    """Synthesise and write the workload's corpus under d."""
    from proscore.corpus import SynthConfig, save_corpus, synth_corpus
    t0 = time.perf_counter()
    corpus, _oracle = synth_corpus(SynthConfig(seed=seed, num_speakers=speakers))
    t1 = time.perf_counter()
    manifest = save_corpus(corpus, d / "corpus")
    return {"dir": d, "corpus": corpus, "manifest": manifest, "synth": (t0, t1)}


def write_config(run_dir: Path, seed: int, manifest: Path, systems,
                 epochs: int | None = None) -> Path:
    cfg = {"seed": seed, "corpus": {"manifest": str(manifest)},
           "model_dir": "models", "report_dir": "reports",
           "systems": list(systems)}
    cfg.update(json.loads(json.dumps(PRESET)))
    if epochs is not None:
        cfg["nf"]["epochs"] = cfg["dnf"]["epochs"] = epochs
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


def model_files(d: Path) -> dict:
    """name -> (size, sha256) of the model artifacts under d."""
    out = {}
    for p in sorted(d.rglob("*")):
        if p.suffix in MODEL_SUFFIXES:
            out[str(p.relative_to(d))] = (p.stat().st_size,
                                          hashlib.sha256(p.read_bytes()).hexdigest())
    return out


def model_bytes(d: Path) -> int:
    return sum(size for size, _ in model_files(d).values())


def report_failure(proc: Proc) -> None:
    tail = proc.stderr.strip().splitlines()[-3:]
    print(f"proscore {proc.args[0]} exited {proc.code}: " + " | ".join(tail),
          file=sys.stderr)


# ---------------------------------------------------------------------------
# workloads built on `proscore run`


@dataclass(frozen=True)
class RunWorkload:
    speakers: int
    systems: tuple
    warm: bool

    def execute(self, bench: Bench):
        def make(d):
            state = make_corpus(d, bench.seed, self.speakers)
            if self.warm:
                cfg = write_config(d / "primed", bench.seed, state["manifest"],
                                   self.systems, PRIME_EPOCHS)
                prime = bench.program(["run", str(cfg)], d / "primed")
                if prime.code != 0:
                    report_failure(prime)
                report = d / "primed" / "reports" / "report.tsv"
                state["prime_report"] = report.read_bytes() if report.exists() else b""
                state["prime_models"] = model_files(d / "primed" / "models")
            return state

        setup_s, state = bench.setup(make)
        truth = checks.truth_from_corpus(state["corpus"])

        def one_round(k, spans_dir):
            if self.warm:
                run_dir = state["dir"] / "primed"
            else:
                run_dir = state["dir"] / f"round{k}"
                write_config(run_dir, bench.seed, state["manifest"], self.systems)
            t0 = time.perf_counter()
            proc = bench.program(["run", str(run_dir / "config.json")], run_dir,
                                 spans_dir)
            wall = time.perf_counter() - t0
            if proc.code != 0:
                report_failure(proc)
            rnd = Round(wall, [proc], run_dir)
            report = run_dir / "reports" / "report.tsv"
            if proc.code == 0 and report.exists():
                rnd.report = report.read_text()
            return rnd

        rounds = bench.timed_rounds(one_round)
        rows = checks.expected_rows(self.systems)
        out = {"setup_s": setup_s, "rounds": rounds,
               "attempted": len(rows) * len(rounds),
               "failed": len(rows) * sum(not rnd.report for rnd in rounds),
               "fusion_pcc": 0.0,
               "model_bytes": model_bytes(rounds[-1].run_dir / "models")}
        if rounds[-1].report:
            out["fusion_pcc"] = self.verify(bench, state, rounds, truth)
        return out

    def verify(self, bench: Bench, state, rounds, truth) -> float:
        """Check the rounds' outputs; return the best GOP-fusion PCC."""
        from proscore import dnf, flow, pipeline

        # an in-process run on the last round's work dir hits every cached
        # stage and returns the score tables the row checks read
        last = rounds[-1].run_dir
        models_before = model_files(last / "models")
        result = pipeline.run_pipeline(pipeline.load_config(last / "config.json"))
        if (last / "reports" / "report.tsv").read_text() != rounds[-1].report:
            bench.problems.append("an in-process rerun gives another report")
        if model_files(last / "models") != models_before:
            bench.problems.append("a fully cached rerun rewrote a model file")
        for rnd in rounds:
            if rnd.report:
                bench.problems += checks.check_report(
                    rnd.report, truth, result, self.systems, rnd.run_dir / "models")
        if self.warm:
            if any(rnd.report.encode() != state["prime_report"] for rnd in rounds):
                bench.problems.append("warm report differs from the priming report")
            if models_before != state["prime_models"]:
                bench.problems.append("a warm run wrote a model file")

        flows = {}
        if "nf" in self.systems:
            flows["nf"] = flow.load_flow(last / "models" / "nf.pnf1")
        if "dnf" in self.systems:
            flows["dnf"] = dnf.load_dnf(last / "models" / "dnf.pdnf").backbone
        eval_frames = np.vstack([truth.frames[u] for u in truth.eval_ids])
        for name, model in flows.items():
            err = checks.inversion_error(model, eval_frames)
            if not err <= 1e-9:
                bench.problems.append(f"{name}: forward(inverse(x)) is off by {err:.3g}")
        return max(v for k, v in result.pcc_by_system.items() if k.startswith("gop+"))


# ---------------------------------------------------------------------------
# the stage-by-stage CLI


def cli_steps(seed: int, manifest: Path) -> list:
    """Arguments of each process of the CLI chain, in the preset's settings.

    fuse and evaluate fail today: `score` writes no label_mean column,
    and `read_score_table` requires one.
    """
    m = ["--manifest", str(manifest)]
    gmm, iv, svr = PRESET["gmm"], PRESET["ivector"], PRESET["svr"]
    scores = ["--gop", "--model", "gmm.pgmm", "--svr", "svr.psvr",
              "--embeddings", "ivector.emb"]
    return [
        ["train-gmm", *m, "--out", "ubm.pgmm",
         "--components", str(iv["ubm_components"]),
         "--iters", str(iv["ubm_iters"]), "--seed", str(seed + 11)],
        ["train-gmm", *m, "--out", "gmm.pgmm",
         "--components", str(gmm["components"]),
         "--iters", str(gmm["iters"]), "--seed", str(seed + 11)],
        ["train-ivector", *m, "--ubm", "ubm.pgmm", "--out", "ivector.pivm",
         "--dim", str(iv["dim"]), "--iters", str(iv["iters"]),
         "--seed", str(seed + 41)],
        ["embed", *m, "--model", "ivector.pivm", "--out", "ivector.emb"],
        ["train-svr", *m, "--embeddings", "ivector.emb", "--out", "svr.psvr",
         "--C", str(svr["C"]), "--epsilon", str(svr["epsilon"]),
         "--kernel", svr["kernel"], "--gamma", svr["gamma"],
         "--seed", str(seed)],
        ["score", *m, *scores, "--out", "scores.tsv"],
        ["score", *m, *scores, "--split", "dev", "--out", "dev_scores.tsv"],
        ["fuse", "--scores", "scores.tsv", "--dev-scores", "dev_scores.tsv",
         "--out", "fused.tsv"],
        ["evaluate", *m, "--scores", "scores.tsv", "--out", "evaluation.tsv"],
        ["simulate", "--a", str(SIMULATE_A), "--delta-min", "-1",
         "--delta-max", "1", "--steps", str(SIMULATE_STEPS),
         "--out", "simulate.tsv"],
    ]


# a fault in the program, not in the benchmark: see cli_steps
KNOWN_FAILING = {"fuse", "evaluate"}


def cli_fusion_pcc(scores_path: Path, truth) -> tuple:
    """Eval PCC of the fusion `proscore fuse` would compute, and its lambda."""
    from proscore import assess
    header, rows = checks.read_tsv(scores_path)
    gop_col, pred_col = header.index("gop"), header.index("predicted")
    table = assess.ScoreTable(tuple(
        assess.ScoreRow(r[0], float(r[gop_col]), float(r[pred_col]),
                        truth.label[r[0]]) for r in rows))
    dev = table.subset(truth.dev_ids)
    lam, _curve = assess.select_lambda(dev, checks.GRID_STEP, "zscore")
    fused = assess.score_fuse(table.subset(truth.eval_ids),
                              assess.FusionConfig(lam, "zscore"),
                              assess.fusion_stats(dev))
    return checks.corr(fused.column("fused"), fused.column("label_mean")), lam


class CliWorkload:
    speakers = 60

    def execute(self, bench: Bench):
        setup_s, state = bench.setup(
            lambda d: make_corpus(d, bench.seed, self.speakers))
        truth = checks.truth_from_corpus(state["corpus"])
        steps = cli_steps(bench.seed, state["manifest"])

        def one_round(k, spans_dir):
            run_dir = state["dir"] / f"round{k}"
            run_dir.mkdir()
            t0 = time.perf_counter()
            procs = [bench.program(args, run_dir, spans_dir) for args in steps]
            return Round(time.perf_counter() - t0, procs, run_dir)

        rounds = bench.timed_rounds(one_round)
        attempted = failed = 0
        fusion_pcc = 0.0
        for rnd in rounds:
            for proc in rnd.procs:
                attempted += 1
                if proc.code != 0:
                    failed += 1
                    if proc.args[0] not in KNOWN_FAILING:
                        report_failure(proc)
            # outputs of failed processes are counted above, not checked
            d = rnd.run_dir
            made = {p.args[p.args.index("--out") + 1] for p in rnd.procs
                    if p.code == 0}
            if "simulate.tsv" in made:
                bench.problems += checks.check_simulate(
                    d / "simulate.tsv", SIMULATE_A,
                    np.linspace(-1.0, 1.0, SIMULATE_STEPS))
            if "gmm.pgmm" not in made:
                continue
            params = checks.read_gmm_params(d / "gmm.pgmm")
            if "dev_scores.tsv" in made:
                bench.problems += checks.check_score_table(
                    d / "dev_scores.tsv", truth, truth.dev_ids, params)
            if "scores.tsv" in made:
                bench.problems += checks.check_score_table(
                    d / "scores.tsv", truth, truth.ids, params)
                value, lam = cli_fusion_pcc(d / "scores.tsv", truth)
                if not checks.on_grid(lam):
                    bench.problems.append(f"{d.name}: lambda {lam} is off the grid")
                fusion_pcc = value
        return {
            "setup_s": setup_s,
            "rounds": rounds,
            "attempted": attempted,
            "failed": failed,
            "fusion_pcc": fusion_pcc,
            "model_bytes": model_bytes(rounds[-1].run_dir),
        }


WORKLOADS = {
    "preset_cold": RunWorkload(60, ALL_SYSTEMS, warm=False),
    "preset_warm": RunWorkload(60, ALL_SYSTEMS, warm=True),
    "scale10_gmm_ivector": RunWorkload(600, ("gop", "gmm", "ivector"), warm=False),
    "cli_stages": CliWorkload(),
}


# ---------------------------------------------------------------------------
# per-layer metrics from the traced round

TIMED_SPANS = (
    "flow.train", "flow.minibatch", "flow.epoch_nll", "flow.coupling_inverse",
    "flow.coupling_backward", "flow.adam", "flow.infer", "dnf.train",
    "dnf.embed", "gmm.train", "gmm.loglik", "ivector.stats",
    "ivector.tmatrix", "ivector.infer", "regress.svr_train",
    "regress.predict", "gop.score", "assess.select_lambda", "assess.fusion",
    "corpus.synth", "corpus.load", "formats.save", "formats.load",
    "cli.import", "cli.run", "cli.train_gmm", "cli.train_ivector", "cli.embed",
    "cli.train_svr", "cli.score", "cli.fuse", "cli.evaluate", "cli.simulate",
)
# metric -> (span name, attribute summed, or None to count the spans)
COUNTS = {
    "flow.adam_steps": ("flow.adam", None),
    "flow.infer_frames": ("flow.infer", "frames"),
    "gmm.train_frames": ("gmm.train", "frames"),
    "regress.svr_train_n": ("regress.svr_train", "points"),
    "regress.svr_sv": ("regress.svr_train", "sv"),
    "gop.utts": ("gop.score", None),
    "corpus.utts": ("corpus.load", "utts"),
    "corpus.frames": ("corpus.load", "frames"),
    "formats.bytes_written": ("formats.save", "bytes"),
}
LAYERS = ("corpus", "gop", "gmm", "ivector", "flow", "dnf", "regress",
          "assess", "pipeline", "formats", "cli")


def layer_metrics(docs: list, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from the span documents of one traced round."""
    totals = dict.fromkeys(TIMED_SPANS, 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    selfs = dict.fromkeys(LAYERS, 0.0)
    hits = misses = n_spans = 0
    for doc in docs:
        sp = doc["spans"]
        n_spans += len(sp)
        for name in TIMED_SPANS:
            totals[name] += spans.inclusive_time(sp, name)
        for s, own in zip(sp, spans.self_times(sp)):
            selfs[s["name"].split(".")[0]] += own
            if s["name"] == "pipeline.stage":
                hits += s["attrs"]["hit"]
                misses += not s["attrs"]["hit"]
        for metric, (name, attr) in COUNTS.items():
            counts[metric] += sum(1 if attr is None else s["attrs"][attr]
                                  for s in sp if s["name"] == name)
    metrics = {f"{name}_s": {"value": v, "unit": "s"} for name, v in totals.items()}
    metrics.update({m: {"value": v, "unit": "B" if m.endswith("bytes_written")
                        else "count"} for m, v in counts.items()})
    metrics["pipeline.cache_hits"] = {"value": hits, "unit": "count"}
    metrics["pipeline.cache_misses"] = {"value": misses, "unit": "count"}
    metrics.update({f"{layer}.self_s": {"value": v, "unit": "s"}
                    for layer, v in selfs.items()})
    metrics["trace.spans"] = {"value": n_spans, "unit": "count"}
    metrics["trace.untraced_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.traced_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_s - untraced_s) / untraced_s, "unit": "%"}
    return metrics


# ---------------------------------------------------------------------------


def run(bench: Bench) -> dict:
    out = WORKLOADS[bench.workload].execute(bench)
    rounds = out["rounds"]
    if bench.tracer is not None:
        untraced, traced = rounds
        docs = [{"trace_id": bench.tracer.trace_id, "pid": os.getpid(),
                 "spans": bench.tracer.spans}] + traced.spans
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"spans-{bench.workload}-s{bench.seed}.json").write_text(
            json.dumps({"workload": bench.workload, "seed": bench.seed,
                        "processes": docs}), encoding="utf-8")
        metrics = layer_metrics(docs, untraced.wall_s, traced.wall_s)
        metrics["assess.fusion_pcc"] = {"value": out["fusion_pcc"], "unit": "1"}
    else:
        metrics = {
            "run_s": {"value": statistics.median(r.wall_s for r in rounds),
                      "unit": "s"},
            "setup_s": {"value": out["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb for r in rounds), "unit": "MB"},
            "model_bytes": {"value": out["model_bytes"], "unit": "B"},
        }
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not bench.problems, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "proscore" / "cli.py").is_file():
        print(f"no proscore sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind: the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    try:
        result = run(bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

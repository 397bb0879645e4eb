"""End-to-end experiment pipeline: synthesize, train, score, fuse, report.

Stages run in dependency order and cache their artifacts on disk keyed by
a content digest of their inputs and config section, so re-running a
config retrains only what changed. All stages are deterministic given the
config and seed. The marginal models (GMM, i-vector, NF, DNF) read only
the corpus, so those that miss the cache train at once, in spawned worker
processes, as many as this process has CPUs. This process takes each
model as it arrives, cache hits first: it writes the model's file and
stamp and at once runs what follows from it (inference, SVR, fusion)
while the others still train. Every process runs one BLAS thread (see
the package docstring), so where a model trains changes none of its
bytes. The report keeps a fixed row order. The stage functions below
`run_pipeline` are also what the CLI subcommands call, so a step-by-step
CLI chain with the stage seeds reproduces the models of a run. Each
trainer returns (model, trace). `check_section` checks a config section's
settings, for `run` and for a subcommand's stage flags alike, before any
file is read; the stage functions check none of them again.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import shutil
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import assess, dnf, flow, formats, gmm, gop, ivector, regress
from .corpus import (Corpus, CorpusError, SynthConfig, load_corpus,
                     save_corpus, synth_corpus)
from .formats import FormatError


class ConfigError(ValueError):
    pass


DEFAULT_SYSTEMS = ("gop", "gmm", "ivector", "nf", "dnf")
DEFAULT_FUSION_MODES = ("score", "feature")


def default_config(work_dir: str = ".") -> dict:
    """The shipped synthetic preset (seed 7, D=16, P=12, 60 speakers)."""
    return {
        "seed": 7,
        "work_dir": work_dir,
        "corpus": {"synth": {}},
        "model_dir": "models",
        "report_dir": "reports",
        "systems": list(DEFAULT_SYSTEMS),
        "fusion": {"modes": list(DEFAULT_FUSION_MODES),
                   "grid_step": 0.02, "normalization": "zscore"},
        "gop": {"mode": "mean-then-log"},
        "gmm": {"components": 16, "iters": 25},
        "ivector": {"dim": 16, "iters": 5, "ubm_components": 2,
                    "ubm_iters": 25},
        "nf": {"layers": 6, "width": 48, "learning_rate": 0.001,
               "batch_size": 256, "epochs": 16},
        "dnf": {"layers": 6, "width": 48, "learning_rate": 0.001,
                "batch_size": 256, "epochs": 16, "classes": 5},
        "svr": {"C": 1.0, "epsilon": 0.1, "kernel": "rbf", "gamma": "scale"},
    }


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    cfg.setdefault("work_dir", str(path.parent))
    validate_config(cfg)
    return cfg


def _check_type(name: str, value, preset) -> None:
    """ConfigError unless `value` has the type of `preset`.

    An int may stand for a float (bool is not an int here), and a list for
    a tuple of as many values of the tuple's types. A float must be finite.
    """
    if isinstance(preset, tuple):
        if type(value) not in (list, tuple) or len(value) != len(preset):
            raise ConfigError(f"{name}: expected a list like {list(preset)},"
                              f" got {value!r}")
        for item, item_preset in zip(value, preset):
            _check_type(name, item, item_preset)
        return
    want = type(preset)
    if type(value) is not want and (want, type(value)) != (float, int):
        raise ConfigError(f"{name}: expected {want.__name__}, got {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")


def _check_names(name: str, value, allowed, what: str) -> None:
    if (type(value) not in (list, tuple)
            or not all(type(v) is str for v in value)):
        raise ConfigError(f"{name}: expected a list of strings, got {value!r}")
    for v in value:
        if v not in allowed:
            raise ConfigError(f"unknown {what} {v!r}")


def check_seed(seed) -> None:
    _check_type("seed", seed, 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def validate_config(cfg: dict) -> None:
    if "seed" not in cfg:
        raise ConfigError("missing required field: seed")
    check_seed(cfg["seed"])
    corpus_cfg = cfg.get("corpus")
    if not isinstance(corpus_cfg, dict):
        raise ConfigError("missing required field: corpus")
    paths = {key: cfg[key] for key in ("work_dir", "model_dir", "report_dir")
             if key in cfg}
    if "manifest" in corpus_cfg:
        paths["corpus.manifest"] = corpus_cfg["manifest"]
    for name, value in paths.items():
        if not isinstance(value, (str, os.PathLike)):
            raise ConfigError(f"{name}: expected a path, got {value!r}")
    if "synth" in corpus_cfg:
        check_section("corpus.synth", corpus_cfg["synth"])
    elif "manifest" not in corpus_cfg:
        raise ConfigError("corpus must define either 'synth' or 'manifest'")
    for key, preset in default_config().items():
        if isinstance(preset, dict) and key != "corpus":
            check_section(key, cfg.get(key, {}))
    _check_names("systems", cfg.get("systems", list(DEFAULT_SYSTEMS)),
                 DEFAULT_SYSTEMS, "system")
    iv = _merged(cfg, "ivector")
    if "synth" in corpus_cfg and "ivector" in cfg.get("systems", DEFAULT_SYSTEMS):
        bound = iv["ubm_components"] * _synth_config(cfg)[0].feature_dim
        if iv["dim"] > bound:
            raise ConfigError(f"ivector.dim must be <= ubm_components * feature_dim"
                              f" = {bound}, got {iv['dim']}")


# the least value of each count, width and EM iteration setting
_LOWER_BOUNDS = {"gmm": {"components": 1, "iters": 0},
                 "ivector": {"dim": 1, "iters": 1, "ubm_components": 1,
                             "ubm_iters": 0},
                 "nf": {"layers": 1, "width": 1},
                 "dnf": {"layers": 1, "width": 1, "classes": 1}}
# the settings object that each section's stage builds, to check it by
_SETTINGS = {"svr": lambda s: regress.SvrParams(**s),
             "nf": lambda s: _adam(s, 0), "dnf": lambda s: _adam(s, 0),
             "fusion": lambda s: assess.FusionConfig(0.0, s["normalization"]),
             "corpus.synth": lambda s: SynthConfig(**s).validate()}


def check_section(key: str, section) -> None:
    """ConfigError unless config section `key` (such as "gmm" or
    "corpus.synth") sets only keys of the preset, each to a value of the
    preset's type, and its stage accepts it merged over the preset."""
    cls = {"svr": regress.SvrParams, "corpus.synth": SynthConfig}.get(key)
    # a settings class may read keys that the preset does not set (svr.tol)
    preset = ({f.name: f.default for f in dataclasses.fields(cls)} if cls
              else default_config()[key])
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: expected an object, got {section!r}")
    unknown = sorted(set(section) - set(preset))
    if unknown:
        raise ConfigError(f"{key}: unknown settings {unknown}")
    for name, value in section.items():
        want = preset[name]
        if key == "svr" and name == "gamma" and value != "scale":
            want = 0.0  # "scale" or a number
        _check_type(f"{key}.{name}", value, want)
    merged = {**preset, **section}
    for name, low in _LOWER_BOUNDS.get(key, {}).items():
        if merged[name] < low:
            raise ConfigError(f"{key}.{name} must be >= {low},"
                              f" got {merged[name]}")
    if key == "gop" and merged["mode"] not in gop.GOP_MODES:
        raise ConfigError(f"gop.mode: unknown GOP mode {merged['mode']!r}")
    if key == "fusion":
        _check_names("fusion.modes", merged["modes"], DEFAULT_FUSION_MODES,
                     "fusion mode")
        if not merged["grid_step"] > 0:
            raise ConfigError(
                f"fusion.grid_step must be > 0, got {merged['grid_step']}")
    try:
        _SETTINGS.get(key, lambda s: None)(merged)
    except ValueError as exc:  # the settings error of each settings object
        raise ConfigError(f"{key}: {exc}") from None


def _merged(cfg: dict, key: str) -> dict:
    base = dict(default_config()[key])
    base.update(cfg.get(key, {}))
    return base


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _stamp(kind: str, section, *inputs) -> str:
    """A cached stage's stamp; every format version is in it (a file nests
    others, and its inputs were read in theirs), so a new one retrains."""
    return _digest(kind, section, *inputs, formats.VERSIONS)


class StageCache:
    """Digest-stamped artifact cache under the model directory."""

    def __init__(self, root: Path, force: bool):
        self.root = root
        self.force = force
        root.mkdir(parents=True, exist_ok=True)

    def hit(self, name: str, key: str, artifacts) -> bool:
        """Whether stage `name` is stamped with `key` and has its artifacts."""
        stamp = self.root / f"{name}.digest"
        return (not self.force and stamp.exists()
                and stamp.read_text() == key
                and all((self.root / a).exists() for a in artifacts))

    def run(self, name: str, key: str, artifacts, compute, load):
        """Return load() if the stamp matches, else compute() and stamp."""
        if self.hit(name, key, artifacts):
            return load()
        stamp = self.root / f"{name}.digest"
        stamp.unlink(missing_ok=True)  # a compute() that dies leaves none
        result = compute()
        stamp.write_text(key)
        return result


@dataclass
class PipelineResult:
    corpus: Corpus
    report_rows: list
    report_path: Path
    score_tables: dict      # system -> ScoreTable (fused on eval where applicable)
    lambdas: dict           # system -> selected lambda
    pcc_by_system: dict     # report system name -> eval PCC


def run_pipeline(cfg: dict, force: bool = False) -> PipelineResult:
    validate_config(cfg)
    seed = int(cfg["seed"])
    work = Path(cfg.get("work_dir", "."))
    model_dir = work / cfg.get("model_dir", "models")
    report_dir = work / cfg.get("report_dir", "reports")
    report_dir.mkdir(parents=True, exist_ok=True)
    cache = StageCache(model_dir, force)

    corpus, corpus_key = _corpus_stage(cfg, work, force)
    if "ivector" in cfg.get("systems", DEFAULT_SYSTEMS):  # before any training
        iv = _merged(cfg, "ivector")
        ivector.check_dim(iv["dim"], iv["ubm_components"],
                          next(iter(corpus.features.values())).dim)
    train_ids = list(corpus.splits.train_ids)
    dev_ids = list(corpus.splits.dev_ids)
    eval_ids = list(corpus.splits.eval_ids)
    all_ids = sorted(corpus.features)
    _check_ids(all_ids, corpus.labels, "label")  # before any stage trains

    label_means = {uid: corpus.labels[uid].mean_score for uid in corpus.labels}
    eval_labels = np.array([label_means[u] for u in eval_ids])
    report_rows = []  # in arrival order; put in REPORT_ROWS order at the end

    def row(system, val, lam=None):
        report_rows.append(assess.ReportRow(system, "eval", val, lam))

    def eval_pcc(scores: dict) -> float:
        return assess.pcc(np.array([scores[u] for u in eval_ids]), eval_labels)

    rater_counts = {len(corpus.labels[u].rater_scores) for u in eval_ids}
    if len(rater_counts) == 1 and rater_counts != {1}:
        ratings = np.array([corpus.labels[u].rater_scores for u in eval_ids],
                           dtype=np.float64)
        row("human", assess.inter_rater_pcc(ratings))
    else:
        warnings.warn("skipping inter-rater PCC: rater counts differ")

    # GOP is needed by every fusion mode, so it always runs
    gop_scores = score_gop(corpus, _merged(cfg, "gop"), all_ids)
    row("gop", eval_pcc(gop_scores))

    svr_cfg = _merged(cfg, "svr")
    fusion_cfg = _merged(cfg, "fusion")
    modes = fusion_cfg["modes"]
    # cached stage -> its stamp; an SVR's joins when its model arrives
    stamps = {name: _stamp(name, _merged(cfg, name), corpus_key, seed)
              for name in MARGINALS
              if name in cfg.get("systems", DEFAULT_SYSTEMS)}
    fused = {}  # system -> (lambda, fused eval table) of its score fusion

    def model_file(name):  # NAME.MAGIC; an svr_* stage's model is an SVR
        magic = _codecs()[name.split("_")[0]][1]
        return model_dir / f"{name}.{magic.lower()}"

    def cached(name, train):
        path = model_file(name)
        return cache.run(name, stamps[name], [path.name],
                         lambda: save_model(path, train()),
                         lambda: load_model(path))

    def downstream(name, model):
        """The report rows and score fusion of marginal model `name`, from
        one inference pass of it."""
        loglik, emb = infer(model, corpus.features)
        if name in ("gmm", "nf"):
            row(f"{name}_loglik", eval_pcc(loglik))
        if emb is None:
            return
        stamps[f"svr_{name}"] = _stamp("svr", svr_cfg, stamps[name])
        svr = cached(f"svr_{name}", lambda: train_svr(corpus, emb, svr_cfg))
        pred = predict(svr, emb, all_ids)
        row(f"{name}_svr", eval_pcc(pred))
        if "score" in modes:
            table = assess.ScoreTable(tuple(
                assess.ScoreRow(u, gop_scores[u], pred[u], label_means[u])
                for u in all_ids))
            lam, fused_eval = fused[name] = fuse(
                table.subset(eval_ids), table.subset(dev_ids), fusion_cfg)
            row(f"gop+{name}_score_fusion",
                assess.pcc(fused_eval.column("fused"), eval_labels), lam)
        if "feature" in modes:
            order = train_ids + dev_ids + eval_ids
            fused_X = assess.feature_fuse(
                np.array([emb[u] for u in order]),
                np.array([gop_scores[u] for u in order]))
            by_uid = dict(zip(order, fused_X))
            ff_model = train_svr(corpus, by_uid, svr_cfg)
            row(f"gop+{name}_feature_fusion",
                eval_pcc(predict(ff_model, by_uid, eval_ids)))

    # ---- marginal models: the cache misses train at once; each model is
    # saved, stamped and followed downstream as it arrives, cache hits first
    misses = [name for name in stamps
              if not cache.hit(name, stamps[name], [model_file(name).name])]
    hits = [(name, None) for name in stamps if name not in misses]
    failures = {}
    with _training(misses, corpus, cfg) as arrivals:
        for name, train in itertools.chain(hits, arrivals):
            _release_heap()
            try:
                downstream(name, cached(name, lambda: train()[0]))
            except Exception as exc:  # the others are still saved
                failures[name] = exc
    if failures:  # the same one whatever order the models arrived in
        raise failures[min(failures, key=MARGINALS.index)]
    report_rows.sort(key=lambda r: REPORT_ROWS.index(r.system))
    fused = {n: fused[n] for n in EMBEDDED if n in fused}

    report_path = report_dir / "report.tsv"
    report_path.write_text(assess.report_to_tsv(report_rows), encoding="utf-8")
    return PipelineResult(corpus, report_rows, report_path,
                          {n: table for n, (_, table) in fused.items()},
                          {n: lam for n, (lam, _) in fused.items()},
                          {r.system: r.pcc for r in report_rows})


# ---------------------------------------------------------------------------
# stages, shared by run_pipeline and the CLI subcommands. Each takes its
# merged config section and its own stage seed; trainers fit the train split.


# the marginal models, in the order they are trained or sent to a pool
# and in which the first failing one is reported
MARGINALS = ("gmm", "nf", "dnf", "ivector")
# each marginal model's stage seed is the run seed plus its offset; the
# i-vector extractor's UBM trains as a GMM, under the GMM's seed
SEED_OFFSETS = {"gmm": 11, "nf": 23, "dnf": 37, "ivector": 41}
# the marginal models with embeddings, in the order of their report rows
EMBEDDED = ("ivector", "nf", "dnf")
# the systems of the report rows, in the report's order
REPORT_ROWS = ("human", "gop", "gmm_loglik", "nf_loglik",
               *(f"{name}_svr" for name in EMBEDDED),
               *(f"gop+{name}_{mode}_fusion" for name in EMBEDDED
                 for mode in DEFAULT_FUSION_MODES))


def train_marginal(name: str, corpus: Corpus, section: dict, run_seed: int):
    """(model, trace) of marginal model `name` of MARGINALS, trained under
    its stage seed: the run seed plus its SEED_OFFSETS entry. A CLI train
    subcommand's --seed is that stage seed. A module function, so a spawned
    worker can run it."""
    seed = run_seed + SEED_OFFSETS[name]
    if name == "ivector":
        ubm = train_marginal("gmm", corpus, {
            "components": section["ubm_components"],
            "iters": section["ubm_iters"]}, run_seed)[0]
        return train_ivector(corpus, ubm, section, seed)
    return {"gmm": train_gmm, "nf": train_flow,
            "dnf": train_dnf}[name](corpus, section, seed)


@contextmanager
def _training(names, corpus: Corpus, cfg: dict):
    """Yield marginal models `names` of `cfg` as they arrive: (name, train)
    pairs, train() returning train_marginal's (model, trace) or raising its
    error.

    With two or more of `names` and of CPUs, all of `names` start training
    here, in spawned workers sent them in the order of `names`, and arrive
    as they finish; else they arrive in that order and train() trains in
    this process. No worker outlives the block, on an error neither.
    """
    workers = min(_cpu_count(), len(names))
    if workers < 2:
        yield ((name, functools.partial(train_marginal, name, corpus,
                                        _merged(cfg, name), cfg["seed"]))
               for name in names)
        return
    train = set(corpus.splits.train_ids)
    # a worker is sent what trainers read, not the whole corpus
    split = dataclasses.replace(
        corpus, alignments={}, posteriors={},
        features={u: fs for u, fs in corpus.features.items() if u in train},
        labels={u: lab for u, lab in corpus.labels.items() if u in train})
    with _pool(workers, split) as pool:
        try:
            futures = {name: pool.submit(_train_split, name,
                                         _merged(cfg, name), cfg["seed"])
                       for name in names}
            yield ((name, future.result)
                   for name, future in _arrivals(futures))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _arrivals(futures: dict):
    """(name, future) of each item of `futures`, in the order they finish."""
    from concurrent.futures import as_completed
    names = {future: name for name, future in futures.items()}
    return ((names[future], future) for future in as_completed(names))


def _release_heap() -> None:
    """Return the heap that this process has freed to the OS, where the C
    library can (glibc's malloc_trim): else the pages of pickles and
    temporaries freed already stay in its resident set."""
    import ctypes
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _pool(workers: int, split: Corpus):
    """A process pool of `workers` spawned workers, each sent `split` once,
    as it starts. Spawned, not forked: a fork copies this process with the
    locks its threads (the pool's own among them) may hold, while a spawned
    worker starts afresh and imports proscore, which pins its BLAS threads.
    The pool modules are imported here, not by every CLI process."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("spawn"),
                               initializer=_keep_split, initargs=(split,))


_worker_split: Corpus | None = None  # the train split, in a pool worker


def _keep_split(split: Corpus) -> None:
    global _worker_split
    _worker_split = split


def _train_split(name: str, section: dict, run_seed: int):
    """train_marginal on the split this worker was started with."""
    return train_marginal(name, _worker_split, section, run_seed)


def _check_ids(ids, have, what: str) -> None:
    """CorpusError naming the first of `ids` that is not in `have`."""
    missing = [uid for uid in ids if uid not in have]
    if missing:
        raise CorpusError(f"no {what} for utterance {missing[0]}"
                          f" ({len(missing)} missing)")


def score_gop(corpus: Corpus, section: dict, ids) -> dict:
    """Utterance GOP of each of `ids`."""
    _check_ids(ids, corpus.alignments, "alignment")
    _check_ids(ids, corpus.posteriors, "posteriorgram")
    return {uid: gop.gop_score(corpus.posteriors[uid], corpus.alignments[uid],
                               section["mode"])
            for uid in ids}


def train_gmm(corpus: Corpus, section: dict, seed: int):
    """Returns (model, EM trace) as `gmm.gmm_train` does."""
    return gmm.gmm_train(corpus.frames_for(corpus.splits.train_ids),
                         int(section["components"]), int(section["iters"]),
                         seed)


def train_ivector(corpus: Corpus, ubm: gmm.GmmModel, section: dict,
                  seed: int):
    """T-matrix EM on the train split's statistics under a trained UBM;
    returns (model, evidence trace) as `ivector.tmatrix_train` does."""
    stats = [ivector.ubm_stats(ubm, corpus.features[uid])
             for uid in corpus.splits.train_ids]
    return ivector.tmatrix_train(ubm, stats, int(section["dim"]),
                                 int(section["iters"]), seed)


def _adam(section: dict, seed: int) -> flow.AdamConfig:
    return flow.AdamConfig(learning_rate=float(section["learning_rate"]),
                           batch_size=int(section["batch_size"]),
                           epochs=int(section["epochs"]), seed=seed)


def train_flow(corpus: Corpus, section: dict, seed: int):
    """Returns (model, NLL trace): per epoch the mean of its minibatch
    losses, the last entry the full train-split NLL of the model."""
    frames = corpus.frames_for(corpus.splits.train_ids)
    base = flow.build_flow(frames.shape[1], int(section["layers"]),
                           int(section["width"]), seed=seed)
    return flow.flow_train(base, frames, _adam(section, seed))


def train_dnf(corpus: Corpus, section: dict, seed: int):
    """DNF over rounded mean-score classes; classes with no train frames
    are dropped and the rest renumbered densely. Returns (model, NLL
    trace) as `train_flow` does."""
    num_classes = int(section["classes"])
    train_ids = corpus.splits.train_ids
    _check_ids(train_ids, corpus.labels, "label")
    utt_class = dnf.classes_from_mean_scores(
        [corpus.labels[uid].mean_score for uid in train_ids], num_classes)
    frame_class = np.repeat(utt_class, [corpus.features[uid].num_frames
                                        for uid in train_ids])
    frame_class = np.unique(frame_class, return_inverse=True)[1]
    return dnf.dnf_train(corpus.frames_for(train_ids), frame_class,
                         _adam(section, seed),
                         num_layers=int(section["layers"]),
                         width=int(section["width"]))


def train_svr(corpus: Corpus, emb: dict, section: dict) -> regress.SvrModel:
    """Regress mean rater labels from the train split's vectors in `emb`.

    SMO is deterministic, so unlike the other trainers it takes no seed."""
    train_ids = [uid for uid in corpus.splits.train_ids if uid in emb]
    if not train_ids:
        raise CorpusError("no train-split utterances among the embeddings")
    _check_ids(train_ids, corpus.labels, "label")
    model = regress.svr_train(
        np.array([emb[uid] for uid in train_ids]),
        np.array([corpus.labels[uid].mean_score for uid in train_ids]),
        regress.SvrParams(**section))
    if model.warning:
        warnings.warn(f"SVR: {model.warning}")
    return model


def predict(model: regress.SvrModel, emb: dict, ids) -> dict:
    """SVR prediction for each of `ids` from its vector in `emb`."""
    _check_ids(ids, emb, "embedding")
    return dict(zip(ids, regress.svr_predict_batch(
        model, np.array([emb[uid] for uid in ids]))))


def fuse(table: assess.ScoreTable, dev_table: assess.ScoreTable,
         section: dict, lam: float | None = None):
    """Score fusion of `table` under z-score statistics from `dev_table`;
    returns (lambda, fused table). Without `lam`, lambda is the one that
    maximizes PCC on `dev_table`."""
    norm = section["normalization"]
    if lam is None:
        lam, _curve = assess.select_lambda(dev_table, section["grid_step"], norm)
    stats = assess.fusion_stats(dev_table) if norm == "zscore" else None
    return lam, assess.score_fuse(table, assess.FusionConfig(lam, norm), stats)


def infer(model, features: dict):
    """(mean frame log-likelihood, embedding) of each feature sequence in
    `features`, as two dicts by utterance id from one pass of the model. A
    GMM gives no embeddings and an i-vector extractor no log-likelihoods, so
    that dict is None; both are None for any other model (an SVR)."""
    if isinstance(model, gmm.GmmModel):
        return {uid: gmm.gmm_loglik(model, fs)[1]
                for uid, fs in features.items()}, None
    if isinstance(model, ivector.IVectorModel):
        return None, {uid: ivector.ivector_infer(
            model, ivector.ubm_stats(model.ubm, fs))[0]
            for uid, fs in features.items()}
    backbone = model.backbone if isinstance(model, dnf.DnfModel) else model
    if not isinstance(backbone, flow.FlowModel):
        return None, None
    logliks, embeddings = {}, {}
    for uid, fs in features.items():
        z, logdet = flow.flow_transform(
            backbone, "inverse", flow.utterance_frames(backbone, fs))
        logliks[uid] = float(flow.log_density(z, logdet).mean())
        embeddings[uid] = z.mean(axis=0)
    return logliks, embeddings


def _codecs() -> dict:
    """system -> (model class, file magic, save, load).

    Looked up per call, so functions rebound on the modules at run time
    (tracing wrappers, for one) are the ones called.
    """
    return {
        "gmm": (gmm.GmmModel, gmm.GMM_MAGIC, gmm.save_gmm, gmm.load_gmm),
        "ivector": (ivector.IVectorModel, ivector.IVECTOR_MAGIC,
                    ivector.save_ivector_model, ivector.load_ivector_model),
        "nf": (flow.FlowModel, flow.FLOW_MAGIC, flow.save_flow, flow.load_flow),
        "dnf": (dnf.DnfModel, dnf.DNF_MAGIC, dnf.save_dnf, dnf.load_dnf),
        "svr": (regress.SvrModel, regress.SVR_MAGIC, regress.save_svr,
                regress.load_svr),
    }


def model_system(model) -> str:
    for name, (cls, *_rest) in _codecs().items():
        if isinstance(model, cls):
            return name
    raise TypeError(f"not a proscore model: {type(model).__name__}")


def save_model(path, model):
    """Write any model in its format; returns the model."""
    _codecs()[model_system(model)][2](path, model)
    return model


def load_model(path):
    """Read any model file, dispatching on its 4-byte magic."""
    with open(path, "rb") as f:
        magic = f.read(4).decode("ascii", errors="replace")
    for _cls, file_magic, _save, load in _codecs().values():
        if magic == file_magic:
            return load(path)
    raise FormatError(f"{path}: unknown model file magic {magic!r}")


# ---------------------------------------------------------------------------
# corpus stage


def _synth_config(cfg):
    """(SynthConfig, its settings) of a config's synth corpus; the corpus
    seed defaults to the run seed."""
    synth_kwargs = dict(cfg["corpus"]["synth"])
    synth_kwargs.setdefault("seed", int(cfg["seed"]))
    return SynthConfig(**{k: tuple(v) if isinstance(v, list) else v
                          for k, v in synth_kwargs.items()}), synth_kwargs


def _corpus_stage(cfg, work: Path, force: bool):
    corpus_cfg = cfg["corpus"]
    if "synth" in corpus_cfg:
        synth, synth_kwargs = _synth_config(cfg)
        corpus_dir = work / "corpus"
        key = _stamp("synth", synth_kwargs)
        return StageCache(corpus_dir, force).run(
            "synth", key, ["manifest.tsv", "oracle.tsv"],
            lambda: write_synth_corpus(synth, corpus_dir),
            lambda: load_corpus(corpus_dir / "manifest.tsv")), key
    manifest = Path(corpus_cfg["manifest"])
    if not manifest.is_absolute():
        manifest = work / manifest
    if not manifest.exists():
        raise CorpusError(f"corpus manifest not found: {manifest}")
    corpus_obj = load_corpus(manifest)
    return corpus_obj, _corpus_digest(corpus_obj)


def write_synth_corpus(synth: SynthConfig, out_dir) -> Corpus:
    """Synthesize a corpus into `out_dir`, with `oracle.tsv` holding each
    utterance's true proficiency; the feature and posteriorgram files of
    any corpus there before are removed."""
    out_dir = Path(out_dir)
    corpus, oracle = synth_corpus(synth)
    for sub in ("features", "posteriors"):
        shutil.rmtree(out_dir / sub, ignore_errors=True)
    save_corpus(corpus, out_dir)
    (out_dir / "oracle.tsv").write_text(formats.tsv(
        [("utterance_id", "rho")] + sorted(oracle.items())), encoding="utf-8")
    return corpus


def _corpus_digest(corpus: Corpus) -> str:
    """Digest of what the cached stages read: frames, labels and splits."""
    features = [(uid, fs.frames.shape, fs.frames.tobytes())
                for uid, fs in sorted(corpus.features.items())]
    labels = {uid: (lab.rater_scores, lab.mean_score)
              for uid, lab in corpus.labels.items()}
    splits = (corpus.splits.train_ids, corpus.splits.dev_ids,
              corpus.splits.eval_ids)
    return _digest("manifest", *(part for f in features for part in f),
                   labels, splits)

"""End-to-end experiment pipeline: synthesize, train, score, fuse, report.

Stages run in dependency order and cache their artifacts on disk keyed by
a content digest of their inputs and config section, so re-running a
config retrains only what changed. All stages are deterministic given the
config and seed. The stage functions below `run_pipeline` are also what
the CLI subcommands call, so a step-by-step CLI chain with the stage seeds
reproduces the models of a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import warnings
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
    a tuple of as many values of the tuple's types.
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


def _defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)}


def _check_section(key: str, section, preset: dict) -> None:
    """ConfigError unless `section` sets only keys of `preset`, each to a
    value of the preset's type."""
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


def _check_names(name: str, value, allowed, what: str) -> None:
    if (type(value) not in (list, tuple)
            or not all(type(v) is str for v in value)):
        raise ConfigError(f"{name}: expected a list of strings, got {value!r}")
    for v in value:
        if v not in allowed:
            raise ConfigError(f"unknown {what} {v!r}")


def validate_config(cfg: dict) -> None:
    if "seed" not in cfg:
        raise ConfigError("missing required field: seed")
    _check_type("seed", cfg["seed"], 0)
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
        _check_section("corpus.synth", corpus_cfg["synth"],
                       _defaults(SynthConfig))
    elif "manifest" not in corpus_cfg:
        raise ConfigError("corpus must define either 'synth' or 'manifest'")
    for key, preset in default_config().items():
        if not isinstance(preset, dict) or key == "corpus":
            continue
        if key == "svr":  # SvrParams(**section) also reads tol, max_passes
            preset = _defaults(regress.SvrParams)
        _check_section(key, cfg.get(key, {}), preset)
    _check_names("systems", cfg.get("systems", list(DEFAULT_SYSTEMS)),
                 DEFAULT_SYSTEMS, "system")
    _check_names("fusion.modes",
                 cfg.get("fusion", {}).get("modes", list(DEFAULT_FUSION_MODES)),
                 DEFAULT_FUSION_MODES, "fusion mode")
    _check_ranges(cfg)


# the least value of each count, width and EM iteration setting; the
# trainer stages check the settings they are given, for the CLI
_LOWER_BOUNDS = {"gmm": {"components": 1, "iters": 0},
                 "ivector": {"dim": 1, "iters": 1, "ubm_components": 1,
                             "ubm_iters": 0},
                 "nf": {"layers": 1, "width": 1},
                 "dnf": {"layers": 1, "width": 1, "classes": 1}}


def _check_counts(key: str, section: dict) -> None:
    for name, low in _LOWER_BOUNDS[key].items():
        if name in section and section[name] < low:
            raise ConfigError(f"{key}.{name} must be >= {low},"
                              f" got {section[name]}")


def _check_ranges(cfg: dict) -> None:
    """ConfigError for a value that a stage's own check would reject, so
    that a run fails before its first stage rather than in it."""
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    for key in _LOWER_BOUNDS:
        _check_counts(key, _merged(cfg, key))
    mode = _merged(cfg, "gop")["mode"]
    if mode not in gop.GOP_MODES:
        raise ConfigError(f"gop.mode: unknown GOP mode {mode!r}")
    fusion = _merged(cfg, "fusion")
    if not fusion["grid_step"] > 0:
        raise ConfigError(
            f"fusion.grid_step must be > 0, got {fusion['grid_step']}")
    checks = [("svr", lambda: regress.SvrParams(**_merged(cfg, "svr"))),
              ("nf", lambda: _adam(_merged(cfg, "nf"), 0)),
              ("dnf", lambda: _adam(_merged(cfg, "dnf"), 0)),
              ("fusion", lambda: assess.FusionConfig(
                  0.0, fusion["normalization"]))]
    if "synth" in cfg["corpus"]:
        checks.append(("corpus.synth", lambda: _synth_config(cfg)[0].validate()))
    for key, check in checks:
        try:
            check()
        except ValueError as exc:  # the settings error of each check
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


class StageCache:
    """Digest-stamped artifact cache under the model directory."""

    def __init__(self, root: Path, force: bool):
        self.root = root
        self.force = force
        root.mkdir(parents=True, exist_ok=True)

    def run(self, name: str, key: str, artifacts, compute, load):
        """Return load() if the stamp matches, else compute() and stamp."""
        stamp = self.root / f"{name}.digest"
        paths = [self.root / a for a in artifacts]
        if (not self.force and stamp.exists()
                and stamp.read_text() == key
                and all(p.exists() for p in paths)):
            return load()
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
    systems = list(cfg.get("systems", DEFAULT_SYSTEMS))

    corpus, corpus_key = _corpus_stage(cfg, work, force)
    train_ids = list(corpus.splits.train_ids)
    dev_ids = list(corpus.splits.dev_ids)
    eval_ids = list(corpus.splits.eval_ids)
    all_ids = sorted(corpus.features)

    label_means = {uid: corpus.labels[uid].mean_score for uid in corpus.labels}
    eval_labels = np.array([label_means[u] for u in eval_ids])
    report_rows = []
    pcc_by_system = {}

    def add_row(system, val, lam=None):
        report_rows.append(assess.ReportRow(system, "eval", val, lam))
        pcc_by_system[system] = val

    def eval_pcc(scores: dict) -> float:
        return assess.pcc(np.array([scores[u] for u in eval_ids]), eval_labels)

    rater_counts = {len(corpus.labels[u].rater_scores) for u in eval_ids}
    if len(rater_counts) == 1 and rater_counts != {1}:
        ratings = np.array([corpus.labels[u].rater_scores for u in eval_ids],
                           dtype=np.float64)
        add_row("human", assess.inter_rater_pcc(ratings))
    else:
        warnings.warn("skipping inter-rater PCC: rater counts differ")

    # GOP is needed by every fusion mode, so it always runs
    gop_scores = score_gop(corpus, _merged(cfg, "gop"), all_ids)
    add_row("gop", eval_pcc(gop_scores))

    def cached(name, system, key_parts, train):
        # NAME.MAGIC, keyed on every format version too (a file nests
        # others, and its inputs were read in theirs): a new one retrains
        filename = f"{name}.{_codecs()[system][1].lower()}"
        path = model_dir / filename
        return cache.run(name, _digest(*key_parts, formats.VERSIONS),
                         [filename], lambda: save_model(path, train()),
                         lambda: load_model(path))

    # ---- marginal models: each stage trains under its own seed, the run
    # seed plus its offset; a CLI train subcommand's --seed is that seed
    def train_ubm_ivector(section):
        ubm = train_gmm(corpus, {"components": section["ubm_components"],
                                 "iters": section["ubm_iters"]}, seed + 11)
        return train_ivector(corpus, ubm, section, seed + 41)

    trainers = {
        "gmm": lambda s: train_gmm(corpus, s, seed + 11),
        "nf": lambda s: train_flow(corpus, s, seed + 23)[0],
        "dnf": lambda s: train_dnf(corpus, s, seed + 37),
        "ivector": train_ubm_ivector,
    }
    models = {}
    for name, train in trainers.items():
        if name in systems:
            section = _merged(cfg, name)
            models[name] = cached(name, name,
                                  (name, section, corpus_key, seed),
                                  lambda: train(section))
    # one pass of each model gives its log-likelihoods and embeddings
    logliks, embeddings = {}, {}
    for name, model in models.items():
        logliks[name], embeddings[name] = infer(model, corpus.features)
    for name in ("gmm", "nf"):
        if name in models:
            add_row(f"{name}_loglik", eval_pcc(logliks[name]))

    # ---- prediction models -----------------------------------------------
    svr_cfg = _merged(cfg, "svr")
    predictions = {}
    for name in ("ivector", "nf", "dnf"):
        if name not in models:
            continue
        emb = embeddings[name]
        svr_model = cached(
            f"svr_{name}", "svr",
            ("svr", svr_cfg, corpus_key, seed, name, _merged(cfg, name)),
            lambda: train_svr(corpus, emb, svr_cfg))
        predictions[name] = predict(svr_model, emb, all_ids)
        add_row(f"{name}_svr", eval_pcc(predictions[name]))

    # ---- fusion ----------------------------------------------------------
    fusion_cfg = _merged(cfg, "fusion")
    modes = fusion_cfg["modes"]
    score_tables = {}
    lambdas = {}
    for name, pred in predictions.items():
        if "score" in modes:
            table = assess.ScoreTable(tuple(
                assess.ScoreRow(u, gop_scores[u], pred[u], label_means[u])
                for u in all_ids))
            lam, fused_eval = fuse(table.subset(eval_ids),
                                   table.subset(dev_ids), fusion_cfg)
            add_row(f"gop+{name}_score_fusion",
                    assess.pcc(fused_eval.column("fused"), eval_labels), lam)
            lambdas[name] = lam
            score_tables[name] = fused_eval
        if "feature" in modes:
            emb = embeddings[name]
            order = train_ids + dev_ids + eval_ids
            fused_X = assess.feature_fuse(
                np.array([emb[u] for u in order]),
                np.array([gop_scores[u] for u in order]))
            by_uid = dict(zip(order, fused_X))
            ff_model = train_svr(corpus, by_uid, svr_cfg)
            add_row(f"gop+{name}_feature_fusion",
                    eval_pcc(predict(ff_model, by_uid, eval_ids)))

    report_path = report_dir / "report.tsv"
    report_path.write_text(assess.report_to_tsv(report_rows), encoding="utf-8")
    return PipelineResult(corpus, report_rows, report_path,
                          score_tables, lambdas, pcc_by_system)


# ---------------------------------------------------------------------------
# stages, shared by run_pipeline and the CLI subcommands. Each takes its
# merged config section and its own stage seed; trainers fit the train split.


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


def train_gmm(corpus: Corpus, section: dict, seed: int) -> gmm.GmmModel:
    _check_counts("gmm", section)
    model, _trace = gmm.gmm_train(corpus.frames_for(corpus.splits.train_ids),
                                  int(section["components"]),
                                  int(section["iters"]), seed)
    return model


def train_ivector(corpus: Corpus, ubm: gmm.GmmModel, section: dict,
                  seed: int) -> ivector.IVectorModel:
    """T-matrix EM on the train split's statistics under a trained UBM."""
    _check_counts("ivector", section)
    stats = [ivector.ubm_stats(ubm, corpus.features[uid])
             for uid in corpus.splits.train_ids]
    model, _trace = ivector.tmatrix_train(ubm, stats, int(section["dim"]),
                                          int(section["iters"]), seed)
    return model


def _adam(section: dict, seed: int) -> flow.AdamConfig:
    return flow.AdamConfig(learning_rate=float(section["learning_rate"]),
                           batch_size=int(section["batch_size"]),
                           epochs=int(section["epochs"]), seed=seed)


def train_flow(corpus: Corpus, section: dict, seed: int):
    """Returns (model, per-epoch NLL trace)."""
    _check_counts("nf", section)
    frames = corpus.frames_for(corpus.splits.train_ids)
    base = flow.build_flow(frames.shape[1], int(section["layers"]),
                           int(section["width"]), seed=seed)
    return flow.flow_train(base, frames, _adam(section, seed))


def train_dnf(corpus: Corpus, section: dict, seed: int) -> dnf.DnfModel:
    """DNF over rounded mean-score classes; classes with no train frames
    are dropped and the rest renumbered densely."""
    _check_counts("dnf", section)
    num_classes = int(section["classes"])
    train_ids = corpus.splits.train_ids
    utt_class = dnf.classes_from_mean_scores(
        [corpus.labels[uid].mean_score for uid in train_ids], num_classes)
    frame_class = np.repeat(utt_class, [corpus.features[uid].num_frames
                                        for uid in train_ids])
    present, frame_class = np.unique(frame_class, return_inverse=True)
    model, _trace = dnf.dnf_train(corpus.frames_for(train_ids), frame_class,
                                  _adam(section, seed),
                                  num_classes=len(present),
                                  num_layers=int(section["layers"]),
                                  width=int(section["width"]))
    return model


def train_svr(corpus: Corpus, emb: dict, section: dict) -> regress.SvrModel:
    """Regress mean rater labels from the train split's vectors in `emb`.

    SMO is deterministic, so unlike the other trainers it takes no seed."""
    train_ids = [uid for uid in corpus.splits.train_ids if uid in emb]
    if not train_ids:
        raise CorpusError("no train-split utterances among the embeddings")
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
        key = _digest("synth", synth_kwargs, formats.VERSIONS)

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

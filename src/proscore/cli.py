"""Command-line entry point orchestrating the scoring pipeline.

Each stage subcommand turns its flags into a config section and calls the
pipeline stage function that `run` calls too. Exit codes: 0 success, 1
configuration error, 2 data error, 3 training divergence. Every command
is deterministic given its config and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import assess, formats, gmm, gop, pipeline, regress
from .corpus import SPLITS, SynthConfig, load_corpus
from .flow import TrainingDivergence
from .formats import DataError
from .pipeline import ConfigError

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _section(args) -> dict:
    """The config section that the subcommand's stage flags spell out."""
    return {key: getattr(args, key) for key in args.section}


def _number_or_text(text):
    """A text flag's value: a number if it is one, as svr.gamma may be."""
    try:
        return float(text)
    except ValueError:
        return text


def _save(args, model) -> int:
    pipeline.save_model(args.out, model)
    print(f"model written to {args.out}")
    return 0


def cmd_run(args) -> int:
    cfg = pipeline.load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    result = pipeline.run_pipeline(cfg, force=args.force)
    print(f"report written to {result.report_path}")
    return 0


def cmd_synth(args) -> int:
    synth = SynthConfig() if args.seed is None else SynthConfig(seed=args.seed)
    pipeline.write_synth_corpus(synth, args.out)
    print(f"manifest written to {Path(args.out) / 'manifest.tsv'}")
    return 0


def cmd_train_gmm(args) -> int:
    return _save(args, pipeline.train_gmm(load_corpus(args.manifest),
                                          _section(args), args.seed or 0)[0])


def cmd_train_ivector(args) -> int:
    corpus = load_corpus(args.manifest)
    return _save(args, pipeline.train_ivector(corpus, gmm.load_gmm(args.ubm),
                                              _section(args), args.seed or 0)[0])


def cmd_train_flow(args) -> int:
    model, trace = pipeline.train_flow(load_corpus(args.manifest),
                                       _section(args), args.seed or 0)
    if args.trace:
        _write_text(args.trace,
                    formats.tsv([("epoch", "nll"), *enumerate(trace)]))
    return _save(args, model)


def cmd_train_dnf(args) -> int:
    return _save(args, pipeline.train_dnf(load_corpus(args.manifest),
                                          _section(args), args.seed or 0)[0])


def cmd_train_svr(args) -> int:  # SMO is deterministic: --seed is unused
    corpus = load_corpus(args.manifest)
    return _save(args, pipeline.train_svr(
        corpus, pipeline.read_embeddings(args.embeddings), _section(args)))


def _inferred(model, features: dict, index: int, what: str) -> dict:
    """Item `index` of pipeline.infer, 0 the log-likelihoods or 1 the
    embeddings, which the model's kind must give (its INFERENCE_FILES
    entry names a table), checked before the pass."""
    system = pipeline.model_system(model)
    if not pipeline.INFERENCE_FILES.get(system, (None, None))[index]:
        raise DataError(f"{system} models give no {what}")
    return pipeline.infer(model, features)[index]


def cmd_embed(args) -> int:
    corpus = load_corpus(args.manifest)
    _write_text(args.out, pipeline.embeddings_tsv(_inferred(
        pipeline.load_model(args.model), corpus.features, 1, "embeddings")))
    return 0


def cmd_score(args) -> int:
    if args.svr and not args.embeddings:  # before any file is read
        raise ConfigError("--svr requires --embeddings")
    if not (args.gop or args.model or args.svr):
        raise ConfigError("no score columns requested (use --gop/--model/--svr)")
    corpus = load_corpus(args.manifest)
    ids = sorted(corpus.features)
    if args.split:
        ids = sorted(corpus.splits.ids(args.split))
    columns = []
    if args.gop:
        columns.append(("gop", pipeline.score_gop(
            corpus, pipeline.default_config()["gop"], ids)))
    for model_path in args.model or []:
        model = pipeline.load_model(model_path)
        features = {uid: corpus.features[uid] for uid in ids}
        columns.append((f"{pipeline.model_system(model)}_loglik",
                        _inferred(model, features, 0, "frame log-likelihood")))
    if args.svr:
        columns.append(("predicted", pipeline.predict(
            regress.load_svr(args.svr),
            pipeline.read_embeddings(args.embeddings), ids)))
    nan = float("nan")
    columns.append(("label_mean", {
        uid: corpus.labels[uid].mean_score if uid in corpus.labels else nan
        for uid in ids}))
    _write_text(args.out, formats.tsv(
        [("utterance_id", *(name for name, _ in columns))]
        + [(uid, *(vals[uid] for _, vals in columns)) for uid in ids]))
    return 0


def cmd_fuse(args) -> int:
    if args.lam is not None and not 0.0 <= args.lam <= 1.0:
        raise ConfigError(f"--lambda must lie in [0,1], got {args.lam}")
    lam, fused = pipeline.fuse(assess.read_score_table(args.scores),
                               assess.read_score_table(args.dev_scores),
                               _section(args), args.lam)
    _write_text(args.out, assess.score_table_to_tsv(fused))
    print(f"lambda = {lam:.2f}")
    return 0


def cmd_evaluate(args) -> int:
    corpus = load_corpus(args.manifest)
    table = assess.read_score_table(args.scores)
    rows = assess.evaluate(table, corpus.splits, split_name=args.split)
    _write_text(args.out, assess.report_to_tsv(rows))
    return 0


def cmd_simulate(args) -> int:
    if args.steps < 1:
        raise ConfigError("steps must be >= 1")
    for flag, value in (("--a", args.a), ("--delta-min", args.delta_min),
                        ("--delta-max", args.delta_max)):
        if not np.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    deltas = np.linspace(args.delta_min, args.delta_max, args.steps)
    points = gop.competition_sweep(args.a, deltas)
    _write_text(args.out, gop.sweep_to_tsv(points))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proscore",
        description="ASR-free pronunciation proficiency scoring pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, stage=None)
        p.add_argument("--seed", type=int, default=None)
        return p

    def stage_flags(p, section, *keys, **choices):
        # --KEY for each KEY of a config section, defaulting to the preset
        preset = pipeline.default_config()[section]
        for key in keys:
            kind = type(preset[key])
            p.add_argument("--" + key.replace("_", "-"),
                           type=_number_or_text if kind is str else kind,
                           default=preset[key], choices=choices.get(key))
        p.set_defaults(stage=section, section=keys)

    p = add("run", cmd_run, help="run the full pipeline from a config file")
    p.add_argument("config")
    p.add_argument("--force", action="store_true",
                   help="recompute stages even when cached")

    p = add("synth", cmd_synth, help="generate the synthetic corpus preset")
    p.add_argument("--out", required=True)

    p = add("train-gmm", cmd_train_gmm, help="train the GMM marginal model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    stage_flags(p, "gmm", "components", "iters")

    p = add("train-ivector", cmd_train_ivector, help="train the i-vector extractor")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ubm", required=True)
    p.add_argument("--out", required=True)
    stage_flags(p, "ivector", "dim", "iters")

    for name, func, section in (("train-flow", cmd_train_flow, "nf"),
                                ("train-dnf", cmd_train_dnf, "dnf")):
        p = add(name, func, help=f"train the {name.split('-')[1]} model")
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True)
        keys = ("layers", "width", "epochs", "batch_size", "learning_rate")
        if name == "train-flow":
            p.add_argument("--trace", default=None,
                           help="optional epoch/NLL TSV output: each"
                           " epoch's mean minibatch loss, the last row the"
                           " train-split NLL of the saved model")
        else:
            keys += ("classes",)
        stage_flags(p, section, *keys)

    p = add("train-svr", cmd_train_svr, help="train the SVR prediction model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    stage_flags(p, "svr", "C", "epsilon", "kernel", "gamma",
                kernel=tuple(regress.KERNEL_IDS))

    p = add("embed", cmd_embed, help="extract utterance embeddings")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = add("score", cmd_score, help="score utterances into a TSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--gop", action="store_true")
    p.add_argument("--model", action="append")
    p.add_argument("--svr", default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--split", choices=SPLITS, default=None)

    p = add("fuse", cmd_fuse, help="score fusion of GOP and prediction")
    p.add_argument("--scores", required=True)
    p.add_argument("--dev-scores", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    stage_flags(p, "fusion", "grid_step", "normalization",
                normalization=assess.NORMALIZATIONS)

    p = add("evaluate", cmd_evaluate, help="PCC report for a score table")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--split", choices=SPLITS, default="eval")

    p = add("simulate", cmd_simulate, help="two-Gaussian phone competition sweep")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--delta-min", type=float, default=-1.0)
    p.add_argument("--delta-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--out", default="-")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error, after argparse printed it
        if exc.code == 0:  # --help
            raise
        return EXIT_CONFIG
    try:
        if args.seed is not None:
            pipeline.check_seed(args.seed)
        if args.stage:  # before the subcommand reads any file
            pipeline.check_section(args.stage, _section(args))
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:  # bad settings, or an unusable output
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergence as exc:
        print(f"training divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())

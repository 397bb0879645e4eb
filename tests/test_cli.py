import importlib
import json
import pkgutil
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import proscore
from proscore import (assess, dnf, flow, formats, gmm, ivector, pipeline,
                      regress)
from proscore.cli import build_parser, main
from proscore.corpus import (PhoneAlignment, SynthConfig, load_corpus,
                             save_corpus, synth_corpus, write_alignment_file,
                             write_feature_file, write_posteriorgram_file)
from proscore.formats import DataError
from proscore.pipeline import default_config, save_model, validate_config

from conftest import TINY_SYNTH


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    corpus, _ = synth_corpus(TINY_SYNTH)
    manifest = save_corpus(corpus, out)
    return corpus, manifest


# ---------------------------------------------------------------------------
# simulate


def test_simulate_sweep_values(tmp_path, capsys):
    out = tmp_path / "sweep.tsv"
    assert main(["simulate", "--a", "1", "--delta-min", "-1",
                 "--delta-max", "1", "--steps", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "a\tdelta\tposterior"
    posts = [float(line.split("\t")[2]) for line in lines[1:]]
    np.testing.assert_allclose(posts, [0.2689, 0.7311, 0.9526], atol=1e-4)


def test_simulate_single_step(capsys):
    assert main(["simulate", "--a", "1", "--delta-min", "-0.5",
                 "--steps", "1"]) == 0
    body = capsys.readouterr().out.strip().split("\n")
    assert len(body) == 2
    assert float(body[1].split("\t")[1]) == -0.5


def test_simulate_invalid_a(capsys):
    assert main(["simulate", "--a", "0"]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["simulate", "--a", "nan"]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["simulate", "--a", "1", "--steps", "0"]) == 1
    for argv in (["--a", "inf"], ["--a", "1", "--delta-min", "nan"],
                 ["--a", "1", "--delta-max=-inf"]):
        assert main(["simulate", *argv, "--steps", "2"]) == 1
        assert "must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scoring and evaluation on a small corpus


def test_score_gop_only(corpus_dir, tmp_path):
    corpus, manifest = corpus_dir
    out = tmp_path / "scores.tsv"
    assert main(["score", "--manifest", str(manifest), "--gop",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "utterance_id\tgop\tlabel_mean"
    assert len(lines) == len(corpus.features) + 1


def test_score_unlabeled_utterance_label_is_nan(corpus_dir, tmp_path):
    corpus, _ = corpus_dir
    unlabeled = sorted(corpus.labels)[0]
    labels = {u: r for u, r in corpus.labels.items() if u != unlabeled}
    manifest = save_corpus(replace(corpus, labels=labels), tmp_path / "corpus")
    out = tmp_path / "scores.tsv"
    assert main(["score", "--manifest", str(manifest), "--gop",
                 "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    label = {r[0]: r[-1] for r in rows}
    assert label[unlabeled] == "nan"
    assert len(label) == len(corpus.features)


def test_score_split_disjoint(corpus_dir, tmp_path):
    _, manifest = corpus_dir
    ids = {}
    for split in ("train", "eval"):
        out = tmp_path / f"{split}.tsv"
        assert main(["score", "--manifest", str(manifest), "--gop",
                     "--split", split, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")[1:]
        ids[split] = {line.split("\t")[0] for line in lines}
    assert not ids["train"] & ids["eval"]


def test_score_unknown_model_magic(corpus_dir, tmp_path, capsys):
    _, manifest = corpus_dir
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"WHAT1234")
    assert main(["score", "--manifest", str(manifest),
                 "--model", str(bogus)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "bogus.bin" in err


def test_score_requires_columns(corpus_dir, capsys):
    _, manifest = corpus_dir
    assert main(["score", "--manifest", str(manifest)]) == 1


def test_embed_and_train_svr_round(corpus_dir, tmp_path):
    corpus, manifest = corpus_dir
    # GMM -> UBM -> i-vector -> embeddings -> SVR, all through the CLI
    ubm = tmp_path / "ubm.pgmm"
    assert main(["train-gmm", "--manifest", str(manifest), "--out", str(ubm),
                 "--components", "2", "--iters", "5", "--seed", "1"]) == 0
    iv = tmp_path / "iv.pivm"
    assert main(["train-ivector", "--manifest", str(manifest),
                 "--ubm", str(ubm), "--out", str(iv),
                 "--dim", "4", "--iters", "2", "--seed", "1"]) == 0
    emb = tmp_path / "emb.tsv"
    assert main(["embed", "--manifest", str(manifest), "--model", str(iv),
                 "--out", str(emb)]) == 0
    lines = emb.read_text().strip().split("\n")
    assert len(lines) == len(corpus.features)
    assert all(len(line.split("\t")) == 5 for line in lines)
    svr = tmp_path / "model.psvr"
    assert main(["train-svr", "--manifest", str(manifest),
                 "--embeddings", str(emb), "--out", str(svr)]) == 0
    assert svr.exists()


def test_evaluate_from_score_table(corpus_dir, tmp_path, capsys):
    corpus, manifest = corpus_dir
    rows = ["utterance_id\tgop\tpredicted\tlabel_mean"]
    for uid in sorted(corpus.features):
        mean = corpus.labels[uid].mean_score
        rows.append(f"{uid}\t{-mean}\t{mean}\t{mean}")
    scores = tmp_path / "scores.tsv"
    scores.write_text("\n".join(rows) + "\n")
    assert main(["evaluate", "--manifest", str(manifest),
                 "--scores", str(scores)]) == 0
    out = capsys.readouterr().out
    assert "predicted\teval\t1.000000" in out


def test_fuse_from_score_tables(corpus_dir, tmp_path, capsys):
    corpus, manifest = corpus_dir
    rng = np.random.default_rng(0)

    def write_scores(path, ids):
        rows = ["utterance_id\tgop\tpredicted\tlabel_mean"]
        for uid in ids:
            mean = corpus.labels[uid].mean_score
            rows.append(f"{uid}\t{mean + rng.standard_normal():.6f}"
                        f"\t{mean + rng.standard_normal():.6f}\t{mean}")
        path.write_text("\n".join(rows) + "\n")

    all_scores = tmp_path / "all.tsv"
    dev_scores = tmp_path / "dev.tsv"
    write_scores(all_scores, sorted(corpus.features))
    write_scores(dev_scores, sorted(corpus.splits.dev_ids
                                    + corpus.splits.train_ids))
    out = tmp_path / "fused.tsv"
    assert main(["fuse", "--scores", str(all_scores),
                 "--dev-scores", str(dev_scores), "--out", str(out)]) == 0
    assert "lambda =" in capsys.readouterr().out
    header = out.read_text().split("\n", 1)[0]
    assert header.endswith("\tfused")


def test_fuse_with_an_unlabeled_row(tmp_path, capsys):
    """An unlabeled row (label_mean nan) is fused, but a dev table that
    holds one cannot select the weight: a data error that names it."""
    header = "utterance_id\tgop\tpredicted\tlabel_mean\n"
    labeled = "".join(f"u{i}\t{i}\t{i % 3}\t{i % 4 + 1}\n" for i in range(6))
    dev = tmp_path / "dev.tsv"
    dev.write_text(header + labeled)
    scores = tmp_path / "scores.tsv"
    scores.write_text(header + labeled + "x9\t1\t2\tnan\n")
    out = tmp_path / "fused.tsv"
    assert main(["fuse", "--scores", str(scores), "--dev-scores", str(dev),
                 "--out", str(out)]) == 0
    assert out.read_text().split("\n")[-2].startswith("x9\t1\t2\tnan\t")
    capsys.readouterr()
    assert main(["fuse", "--scores", str(dev),
                 "--dev-scores", str(scores)]) == 2
    assert "data error: x9: unlabeled utterance" in capsys.readouterr().err


def test_score_fuse_evaluate_chain(corpus_dir, tmp_path, capsys):
    """`score` output feeds `fuse`, whose output feeds `evaluate`."""
    _, manifest = corpus_dir
    m = ["--manifest", str(manifest)]
    ubm, iv, emb, svr, scores, fused = (
        str(tmp_path / name) for name in ("ubm.pgmm", "iv.pivm", "emb.tsv",
                                          "svr.psvr", "scores.tsv", "fused.tsv"))
    assert main(["train-gmm", *m, "--out", ubm, "--components", "2",
                 "--iters", "5", "--seed", "1"]) == 0
    assert main(["train-ivector", *m, "--ubm", ubm, "--out", iv,
                 "--dim", "4", "--iters", "2", "--seed", "1"]) == 0
    assert main(["embed", *m, "--model", iv, "--out", emb]) == 0
    assert main(["train-svr", *m, "--embeddings", emb, "--out", svr]) == 0
    assert main(["score", *m, "--gop", "--model", ubm, "--svr", svr,
                 "--embeddings", emb, "--out", scores]) == 0
    assert main(["fuse", "--scores", scores, "--dev-scores", scores,
                 "--out", fused]) == 0
    assert main(["evaluate", *m, "--scores", fused]) == 0
    assert "fused\teval\t" in capsys.readouterr().out


def test_fuse_lambda_out_of_range_exits_1(capsys):
    assert main(["fuse", "--scores", "s.tsv", "--dev-scores", "d.tsv",
                 "--lambda", "1.5"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train-gmm", "--manifest", "m.tsv", "--out", "g.pgmm", *flags]
    for flags in (["--components", "x"], ["--seed", "x"], ["--colour", "red"],
                  ["--out"])] + [
    ["fuse", "--scores", "s.tsv", "--dev-scores", "d.tsv",
     "--normalization", "minmax"]])
def test_command_line_that_argparse_rejects_exits_1(capsys, argv):
    """A flag that is unknown, lacks its value or has a value of the wrong
    type or choice is a config error, after argparse's usage message."""
    assert main(argv) == 1
    assert "usage: proscore" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["train-gmm", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: proscore" in capsys.readouterr().out


def _text_file(path, text):
    path.write_text(text)
    return str(path)


def _ubm_of_dim_2(d):
    path = d / "ubm2.pgmm"
    gmm.save_gmm(path, gmm.GmmModel(np.ones(1), np.zeros((1, 2)),
                                    np.ones((1, 2))))
    return str(path)


def _dnf_without_classes(d):
    path = d / "s0.pdnf"
    with open(path, "wb") as f:
        formats.write_magic(f, dnf.DNF_MAGIC)
        flow.write_flow(f, flow.build_flow(6, 2, 4))
        formats.write_u32(f, 0)
    return str(path)


def _corpus_without(m, d, what, uid="spk000_utt00"):
    """A copy of the corpus of manifest `m[1]` in which utterance `uid` has
    no alignment, posteriorgram or label."""
    root = d / "corpus"
    shutil.copytree(Path(m[1]).parent, root)
    if what == "posteriorgram":
        (root / "posteriors" / f"{uid}.post").unlink()
    else:
        path = root / f"{what}s.tsv"
        path.write_text("".join(
            line for line in path.read_text().splitlines(True)
            if not line.startswith(f"{uid}\t")))
    return str(root / "manifest.tsv")


def _pivm_v1(d):
    """An i-vector model file whose header claims format version 1."""
    path = d / "v1.pivm"
    ubm = gmm.GmmModel(np.ones(1), np.zeros((1, 6)), np.ones((1, 6)))
    ivector.save_ivector_model(path, ivector.IVectorModel(ubm, np.ones((1, 6, 2))))
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + (1).to_bytes(4, "little") + raw[8:])
    return str(path)


def _embeddings(m, d, dim=2, skip=0, nan=False):
    """An embeddings TSV over the corpus of manifest `m[1]`, minus `skip` rows."""
    ids = sorted(load_corpus(m[1]).features)[skip:]
    rows = [[f"{(i * (k + 3)) % 7 / 7}" for k in range(dim)] for i in range(len(ids))]
    if nan:
        rows[0][0] = "nan"
    return _text_file(d / "e.tsv", "".join(
        "\t".join([uid, *row]) + "\n" for uid, row in zip(ids, rows)))


def _svr_of_dim_2(d):
    path = d / "s.psvr"
    X = np.random.default_rng(0).standard_normal((6, 2))
    regress.save_svr(path, regress.svr_train(X, X[:, 0]))
    return str(path)


def _svr_with_kernel_7(d):
    """A PSVR file whose kernel id field reads 7."""
    path = d / "k7.psvr"
    _svr_of_dim_2(d)
    raw = (d / "s.psvr").read_bytes()
    path.write_bytes(raw[:8] + (7).to_bytes(4, "little") + raw[12:])
    return str(path)


def _corpus_with(m, d, name, old, new):
    """A copy of the corpus of manifest `m[1]` in which file `name` has the
    first `old` of its bytes replaced by `new`."""
    root = d / "corpus"
    shutil.copytree(Path(m[1]).parent, root)
    path = root / name
    path.write_bytes(path.read_bytes().replace(old, new, 1))
    return str(root / "manifest.tsv")


def _refuse_to_parse(monkeypatch, *parts) -> None:
    """Make the parser of each corpus part of `parts`, "features" or
    "posteriors", raise."""
    def refused(path, *args):
        raise AssertionError(f"parsed {path}")

    for part in parts:
        reader = {"features": "read_feature_file",
                  "posteriors": "read_posteriorgram_file"}[part]
        monkeypatch.setattr(f"proscore.corpus.{reader}", refused)


def _eval_scores(m, d):
    """A score table of the eval split of the corpus of manifest `m[1]`."""
    c = load_corpus(m[1])
    return _text_file(d / "s.tsv", formats.tsv(
        [("utterance_id", "gop", "predicted", "label_mean")]
        + [(uid, float(i), float(i % 3), c.labels[uid].mean_score)
           for i, uid in enumerate(c.splits.eval_ids)]))


def _saved(d, name, model):
    save_model(d / name, model)
    return str(d / name)


@pytest.mark.parametrize("argv, unparsed", [
    pytest.param(lambda m, d: [
        "train-svr", *m, "--embeddings", _embeddings(m, d),
        "--out", str(d / "x.psvr")], ("features", "posteriors"),
        id="train-svr"),
    pytest.param(lambda m, d: [
        "evaluate", *m, "--scores", _eval_scores(m, d), "--out", str(d / "r")],
        ("features", "posteriors"), id="evaluate"),
    pytest.param(lambda m, d: [
        "train-gmm", *m, "--components", "2", "--iters", "2",
        "--out", str(d / "g.pgmm")], ("posteriors",), id="train-gmm"),
    pytest.param(lambda m, d: [
        "train-ivector", *m, "--dim", "2", "--iters", "1",
        "--ubm", _saved(d, "u.pgmm", gmm.GmmModel(
            np.full(2, 0.5), np.zeros((2, 6)), np.ones((2, 6)))),
        "--out", str(d / "i.pivm")], ("posteriors",), id="train-ivector"),
    pytest.param(lambda m, d: [
        "embed", *m, "--model", _saved(d, "f.pnf1", flow.build_flow(6, 2, 4)),
        "--out", str(d / "e.tsv")], ("posteriors",), id="embed"),
])
def test_a_subcommand_parses_only_the_corpus_files_it_uses(
        corpus_dir, tmp_path, monkeypatch, argv, unparsed):
    """train-svr and evaluate read no feature or posteriorgram file, and the
    commands that read frames read no posteriorgram."""
    argv = argv(["--manifest", str(corpus_dir[1])], tmp_path)
    _refuse_to_parse(monkeypatch, *unparsed)
    assert main(argv) == 0


# argv(m, d) of m = ["--manifest", MANIFEST] and the tmp dir d, and the path
# under d that the message starts with (None where it names no file)
@pytest.mark.parametrize("argv, where", [
    pytest.param(lambda m, d: [
        "train-svr", *m, "--out", str(d / "x.psvr"), "--embeddings",
        _text_file(d / "e.tsv", "nobody\t1.0\n")], None, id="CorpusError"),
    pytest.param(lambda m, d: [
        "embed", *m, "--out", str(d / "e.tsv"), "--model",
        _text_file(d / "bogus.bin", "WHAT1234")], "bogus.bin", id="FormatError"),
    pytest.param(lambda m, d: [
        "fuse", "--scores", _text_file(d / "s.tsv", "utterance_id\tgop\n"),
        "--dev-scores", str(d / "s.tsv")], "s.tsv", id="AssessError"),
    pytest.param(lambda m, d: [
        "train-gmm", *m, "--out", str(d / "g.pgmm"), "--components", "100000"],
        None, id="GmmError"),
    pytest.param(lambda m, d: [
        "train-flow", *m, "--out", str(d / "f.pnf1"), "--epochs", "1",
        "--batch-size", "100000"], None, id="FlowError"),
    pytest.param(lambda m, d: [
        "train-ivector", *m, "--out", str(d / "i.pivm"),
        "--ubm", _ubm_of_dim_2(d)], None, id="IVectorError"),
    pytest.param(lambda m, d: [
        "embed", *m, "--out", str(d / "e.tsv"),
        "--model", _dnf_without_classes(d)], "s0.pdnf", id="DnfError"),
    pytest.param(lambda m, d: [
        "embed", *m, "--out", str(d / "e.tsv"),
        "--model", str(d / "missing.pivm")], "missing.pivm",
        id="FileNotFoundError"),
    pytest.param(lambda m, d: [
        "embed", *m, "--out", str(d / "e.tsv"), "--model", _pivm_v1(d)],
        "v1.pivm", id="FormatError-version"),
    pytest.param(lambda m, d: [
        "score", *m, "--svr", _svr_of_dim_2(d),
        "--embeddings", _embeddings(m, d, skip=1)], None,
        id="CorpusError-predict"),
    pytest.param(lambda m, d: [
        "train-svr", *m, "--out", str(d / "x.psvr"), "--embeddings",
        _text_file(d / "e.tsv", load_corpus(m[1]).splits.train_ids[0]
                   + "\t0.5\n")], None, id="SvrDataError"),
    pytest.param(lambda m, d: [
        "score", *m, "--svr", _svr_of_dim_2(d),
        "--embeddings", _embeddings(m, d, dim=3)], None,
        id="SvrDataError-shape"),
    pytest.param(lambda m, d: [
        "score", *m, "--svr", _svr_with_kernel_7(d),
        "--embeddings", _embeddings(m, d)], "k7.psvr", id="FormatError-kernel"),
    pytest.param(lambda m, d: [
        "score", "--manifest", _corpus_without(m, d, "alignment"), "--gop"],
        None, id="CorpusError-gop-alignment"),
    pytest.param(lambda m, d: [
        "score", "--manifest", _corpus_without(m, d, "posteriorgram"), "--gop"],
        None, id="CorpusError-gop-posteriorgram"),
    pytest.param(lambda m, d: ["score", "--manifest", str(d), "--gop"], "",
                 id="IsADirectoryError-manifest"),
    pytest.param(lambda m, d: ["evaluate", *m, "--scores", str(d)], "",
                 id="IsADirectoryError-scores"),
    pytest.param(lambda m, d: [
        "score", "--manifest", _corpus_with(m, d, "labels.tsv", b",", b"\xff"),
        "--gop"], "corpus/labels.tsv", id="UnicodeDecodeError-text"),
    pytest.param(lambda m, d: [
        "score", "--manifest", _corpus_with(
            m, d, "posteriors/spk000_utt00.post", b"ph00", b"\xffh00"),
        "--gop"], "corpus/posteriors/spk000_utt00.post",
        id="UnicodeDecodeError-binary"),
    pytest.param(lambda m, d: [
        "score", *m, "--svr", _svr_of_dim_2(d),
        "--embeddings", _embeddings(m, d, nan=True)], "e.tsv:1",
        id="CorpusError-nan-embedding"),
    pytest.param(lambda m, d: [
        "train-svr", *m, "--out", str(d / "x.psvr"), "--embeddings",
        _embeddings(m, d, dim=0)], "e.tsv:1", id="zero-width-embeddings"),
    pytest.param(lambda m, d: [
        "score", *m, "--svr", _svr_of_dim_2(d),
        "--embeddings", _embeddings(m, d, dim=0)], "e.tsv:1",
        id="zero-width-embeddings-score"),
])
def test_data_errors_exit_2(corpus_dir, tmp_path, capsys, argv, where):
    """Every data fault exits 2 and writes nothing; a fault of one file
    names it first."""
    _, manifest = corpus_dir
    assert main(argv(["--manifest", str(manifest)], tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("data error: " if where is None
                          else f"data error: {tmp_path / where}: ")


def _wider_features(root, c, uid):
    fs = c.features[uid]
    write_feature_file(root / "features" / f"{uid}.feat", replace(
        fs, frames=np.hstack([fs.frames, fs.frames[:, :1]])))


def _short_posteriorgram(root, c, uid):
    pg = c.posteriors[uid]
    write_posteriorgram_file(root / "posteriors" / f"{uid}.post",
                             replace(pg, post=pg.post[:-1]))


def _renamed_phones(root, c, uid):
    pg = c.posteriors[uid]
    write_posteriorgram_file(root / "posteriors" / f"{uid}.post", replace(
        pg, phone_table=tuple(name.upper() for name in pg.phone_table)))


def _segment_past_the_end(root, c, uid):
    *rest, (p, s, _) = c.alignments[uid].segments
    end = c.features[uid].num_frames + 1
    write_alignment_file(root / "alignments.tsv", dict(c.alignments, **{
        uid: PhoneAlignment(uid, [*rest, (p, s, end)])}), c.phone_table)


def _appended(name, row):
    def append(root, c, uid):
        with open(root / name, "a") as f:
            f.write(row.format(uid=uid) + "\n")
    return append


# damage(root, corpus, uid) of a copy of the tiny corpus at root, and the
# message of the fault, formatted with the uid, its frame count T, the
# first uid and the alignments file's path and line count
@pytest.mark.parametrize("damage, message", [
    (_wider_features,
     "inconsistent feature dims across corpus: {uid} has 7, {first} has 6"),
    (_short_posteriorgram,
     "{uid}: posteriorgram has {T_short} frames, features have {T}"),
    (_renamed_phones, "{uid}: posteriorgram phone table mismatch"),
    (_segment_past_the_end, "{uid}: segment end {T_long} exceeds T={T}"),
    (_appended("alignments.tsv", "ghost\tph00\t0\t1"),
     "alignment for unknown utterance ghost"),
    (_appended("alignments.tsv", "{uid}\tzz\t0\t1"),
     "{alignments}:{lines}: unknown phone 'zz'"),
    (_appended("labels.tsv", "ghost\t3,3"), "label for unknown utterance ghost"),
], ids=["feature-dim", "posteriorgram-frames", "phone-table",
        "segment-end", "alignment-ghost", "alignment-phone", "label-ghost"])
def test_cross_file_faults_of_a_loaded_corpus_exit_2(
        corpus_dir, tmp_path, capsys, damage, message):
    """Each check of one corpus file against another, run as score --gop
    parses the corpus, is a data error that names what is wrong."""
    c, manifest = corpus_dir
    root = tmp_path / "corpus"
    shutil.copytree(Path(manifest).parent, root)
    first, uid = sorted(c.features)[:2]
    damage(root, c, uid)
    T = c.features[uid].num_frames
    message = message.format(
        uid=uid, first=first, T=T, T_short=T - 1, T_long=T + 1,
        alignments=root / "alignments.tsv",
        lines=len((root / "alignments.tsv").read_text().splitlines()))
    assert main(["score", "--manifest", str(root / "manifest.tsv"),
                 "--gop"]) == 2
    assert capsys.readouterr() == ("", f"data error: {message}\n")


def _dir(path):
    path.mkdir()
    return str(path)


@pytest.mark.parametrize("argv", [
    pytest.param(lambda m, d: (["run", _dir(d / "c")], d / "c"),
                 id="config-is-a-directory"),
    pytest.param(lambda m, d: ([
        "train-gmm", *m, "--components", "2", "--iters", "1",
        "--out", _dir(d / "c")], d / "c"), id="out-is-a-directory"),
    pytest.param(lambda m, d: ([
        "train-gmm", *m, "--components", "2", "--iters", "1",
        "--out", str(d / "nodir" / "g.pgmm")], d / "nodir" / "g.pgmm"),
        id="out-in-a-missing-directory"),
    pytest.param(lambda m, d: (["run", _text_file(d / "cfg.json", json.dumps({
        "seed": 1, "work_dir": _text_file(d / "w", ""),
        "corpus": {"manifest": m[1]}, "systems": ["gop"]}))], d / "w"),
        id="work-dir-is-a-file"),
])
def test_unusable_config_or_output_exits_1(corpus_dir, tmp_path, capsys, argv):
    """A config file that cannot be read, an output that cannot be written
    and a work dir that is a file are config errors that name the path,
    with no traceback, and nothing is written."""
    argv, path = argv(["--manifest", str(corpus_dir[1])], tmp_path)
    before = sorted(tmp_path.rglob("*")), _tree(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert "Traceback" not in err
    assert (sorted(tmp_path.rglob("*")), _tree(tmp_path)) == before


@pytest.mark.parametrize("command, split", [
    ("run", "train"), ("run", "dev"), ("run", "eval"),
    ("train-svr", "train"), ("train-dnf", "train")])
def test_unlabeled_utterance_exits_2(corpus_dir, tmp_path, capsys, command,
                                     split):
    """An utterance of a split without a label is a data error that names
    it; `run` finds it before any stage trains."""
    corpus, manifest = corpus_dir
    uid = getattr(corpus.splits, f"{split}_ids")[0]
    m = ["--manifest", _corpus_without(
        ["--manifest", str(manifest)], tmp_path, "label", uid)]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seed": 7, "corpus": {"manifest": m[1]},
        "systems": ["gop", "ivector"], "ivector": {
            "dim": 3, "iters": 2, "ubm_components": 2, "ubm_iters": 3}}))
    argv = {"run": ["run", str(config)],
            "train-svr": ["train-svr", *m, "--out", str(tmp_path / "s.psvr"),
                          "--embeddings", _embeddings(m, tmp_path)],
            "train-dnf": ["train-dnf", *m, "--out", str(tmp_path / "d.pdnf"),
                          "--epochs", "1"]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"data error: no label for utterance {uid} (1 missing)")
    assert list(tmp_path.glob("models/*")) == []


def test_utterance_listed_twice_in_a_split_exits_2(corpus_dir, tmp_path,
                                                  capsys):
    """An utterance that one split lists twice would count twice in that
    split's PCCs: a data error that names it, before any stage trains."""
    corpus, manifest = corpus_dir
    root = tmp_path / "corpus"
    shutil.copytree(manifest.parent, root)
    uid = corpus.splits.eval_ids[0]
    with open(root / "splits.tsv", "a", encoding="utf-8") as f:
        f.write(f"{uid}\teval\n")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seed": 7, "corpus": {"manifest": str(root / "manifest.tsv")},
        "systems": ["gop", "gmm"], "gmm": {"components": 2, "iters": 3}}))
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: split lists must be pairwise disjoint")
    assert f"{uid} repeats" in err
    assert list(tmp_path.glob("models/*")) == []


@pytest.mark.parametrize("header", [
    "utterance_id\tgop\tpredicted\tlabel_mean",
    "gop\tpredicted\tutterance_id\tlabel_mean"], ids=["id-first", "id-third"])
def test_utterance_listed_twice_in_a_score_table_exits_2(corpus_dir, tmp_path,
                                                        capsys, header):
    """A score table row whose utterance id an earlier row holds is a data
    error naming the file, both lines and the id, wherever its column is."""
    lines = [header]
    for i, uid in enumerate(["u0", "u1", "u2", "u1"]):
        row = {"utterance_id": uid, "gop": str(i), "predicted": str(i % 3),
               "label_mean": str(i % 4 + 1)}
        lines.append("\t".join(row[name] for name in header.split("\t")))
    scores = _text_file(tmp_path / "s.tsv", "\n".join(lines) + "\n")
    for command in (["fuse", "--dev-scores", scores],
                    ["evaluate", "--manifest", str(corpus_dir[1])]):
        assert main([*command, "--scores", scores]) == 2
        assert capsys.readouterr() == ("", f"data error: {scores}:5: u1 is"
                                       " listed twice (first on line 3)\n")


def _model_of_dim_2(d, system):
    ubm = gmm.GmmModel(np.ones(1), np.zeros((1, 2)), np.ones((1, 2)))
    backbone = flow.build_flow(2, 2, 4)
    path = d / f"dim2.{system}"
    save_model(path, {"gmm": ubm, "nf": backbone,
                      "dnf": dnf.DnfModel(backbone, np.zeros((1, 2))),
                      "ivector": ivector.IVectorModel(ubm, np.ones((1, 2, 2))),
                      }[system])
    return str(path)


@pytest.mark.parametrize("command, system", [
    ("embed", "nf"), ("embed", "dnf"), ("embed", "ivector"),
    ("score", "gmm"), ("score", "nf")])
def test_model_of_another_dim_names_the_utterance(corpus_dir, tmp_path, capsys,
                                                  command, system):
    """Every model that gives the command's value reads frames of its own
    dimension; the 6-dim corpus's first utterance is named when the
    model's is 2."""
    _, manifest = corpus_dir
    assert main([command, "--manifest", str(manifest), "--out",
                 str(tmp_path / "out.tsv"),
                 "--model", _model_of_dim_2(tmp_path, system)]) == 2
    assert "data error: spk000_utt00: " in capsys.readouterr().err


@pytest.mark.parametrize("command, system, message", [
    ("embed", "gmm", "gmm models give no embeddings"),
    ("embed", "svr", "svr models give no embeddings"),
    ("score", "ivector", "ivector models give no frame log-likelihood"),
    ("score", "dnf", "dnf models give no frame log-likelihood"),
    ("score", "svr", "svr models give no frame log-likelihood")])
def test_model_without_the_value_exits_2(corpus_dir, tmp_path, capsys,
                                         command, system, message):
    """embed needs a model that gives embeddings, score --model one that
    gives frame log-likelihoods: a DNF's classes share its backbone, whose
    N(0, I) density is no class's likelihood."""
    _, manifest = corpus_dir
    ubm = gmm.GmmModel(np.ones(1), np.zeros((1, 6)), np.ones((1, 6)))
    path = tmp_path / f"model.{system}"
    if system == "svr":
        path = _svr_of_dim_2(tmp_path)
    else:
        save_model(path, {
            "gmm": ubm,
            "ivector": ivector.IVectorModel(ubm, np.ones((1, 6, 2))),
            "dnf": dnf.DnfModel(flow.build_flow(6, 2, 4), np.zeros((1, 6)))
        }[system])
    out = tmp_path / "out.tsv"
    assert main([command, "--manifest", str(manifest), "--out", str(out),
                 "--model", str(path)]) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, system", [
    ("score", "dnf"), ("score", "ivector"), ("embed", "gmm")])
def test_model_without_the_value_runs_no_inference_pass(
        corpus_dir, tmp_path, capsys, monkeypatch, command, system):
    """The model's kind decides that it gives no such value, before
    pipeline.infer runs it over a single utterance."""
    calls = []
    monkeypatch.setattr(pipeline, "infer",
                        lambda *args: calls.append(args) or (None, None))
    ubm = gmm.GmmModel(np.ones(1), np.zeros((1, 6)), np.ones((1, 6)))
    path = tmp_path / f"model.{system}"
    save_model(path, {
        "gmm": ubm,
        "ivector": ivector.IVectorModel(ubm, np.ones((1, 6, 2))),
        "dnf": dnf.DnfModel(flow.build_flow(6, 2, 4), np.zeros((1, 6)))
    }[system])
    assert main([command, "--manifest", str(corpus_dir[1]), "--out",
                 str(tmp_path / "out.tsv"), "--model", str(path)]) == 2
    assert "models give no" in capsys.readouterr().err
    assert calls == []


def test_proscore_defines_three_exception_classes():
    """A data fault is a DataError (exit 2), a settings fault a ValueError
    (exit 1) and a diverged training a TrainingDivergence (exit 3); the
    CLI's own settings checks raise ConfigError, a ValueError."""
    classes = set()
    for info in pkgutil.iter_modules(proscore.__path__):
        module = importlib.import_module(f"proscore.{info.name}")
        classes.update(obj for obj in vars(module).values()
                       if isinstance(obj, type)
                       and issubclass(obj, BaseException)
                       and obj.__module__ == module.__name__)
    assert classes == {DataError, pipeline.ConfigError,
                       flow.TrainingDivergence}


@pytest.mark.parametrize("make", [
    pytest.param(lambda: regress.SvrParams(C=0), id="SvrParams"),
    pytest.param(lambda: flow.AdamConfig(learning_rate=0), id="AdamConfig"),
    pytest.param(lambda: assess.FusionConfig(1.5), id="FusionConfig"),
    pytest.param(lambda: SynthConfig(num_phones=0).validate(),
                 id="SynthConfig"),
    pytest.param(lambda: assess.select_lambda(assess.ScoreTable(
        [assess.ScoreRow("u", 0.0, 1.0, 2.0)]), grid_step=0),
                 id="select_lambda"),
    pytest.param(lambda: ivector.tmatrix_train(
        gmm.GmmModel(np.ones(1), np.zeros((1, 1)), np.ones((1, 1))),
        ivector.BaumWelchStats(np.zeros((0, 1)), np.zeros((0, 1, 1))),
        R=1, iters=0, seed=0), id="tmatrix_train"),
])
def test_bad_setting_is_a_value_error_not_a_data_error(make):
    with pytest.raises(ValueError) as caught:
        make()
    assert not isinstance(caught.value, DataError)


@pytest.mark.parametrize("name, lineno, line", [
    ("manifest.tsv", 1, "features\tfeatures\textra"),
    ("alignments.tsv", 2, "spk000_utt00\tph00\tabc\t9"),
    ("alignments.tsv", 3, "spk000_utt00\tph00\t3"),
    ("labels.tsv", 2, "spk000_utt01\t4,x,3"),
    ("labels.tsv", 2, "spk000_utt01"),
    ("splits.tsv", 3, "spk000_utt00\ttrain\t1"),
    ("e.tsv", 2, "spk000_utt01\t0.5\tabc"),
    ("e.tsv", 2, "spk000_utt01\t0.5"),
    ("e.tsv", 2, "spk000_utt01\tnan\t0.5"),
    ("e.tsv", 2, "spk000_utt01\t0.5\t-inf"),
    ("e.tsv", 2, "spk000_utt00\t0.5\t0.5"),
    ("labels.tsv", 2, "spk000_utt00\t5,5,5,5,5"),
    ("manifest.tsv", 5, "labels\tlabels.tsv"),
    ("s.tsv", 3, "u2\tabc\t1\t2"),
    ("s.tsv", 3, "u2\t1\t2"),
])
def test_malformed_text_line_exits_2(corpus_dir, tmp_path, capsys, name,
                                     lineno, line):
    """A non-numeric field, a wrong field count, a key listed twice or a
    non-finite embedding in any text input is a data error that names the
    file and the line."""
    root = tmp_path / "corpus"
    shutil.copytree(corpus_dir[1].parent, root)
    m = ["--manifest", str(root / "manifest.tsv")]
    _embeddings(m, root)
    _text_file(root / "s.tsv", "utterance_id\tgop\tpredicted\tlabel_mean\n"
               "u1\t1\t2\t3\nu2\t2\t3\t4\nu3\t3\t4\t5\n")
    path = root / name
    lines = path.read_text().split("\n")
    lines[lineno - 1] = line
    path.write_text("\n".join(lines))
    if name == "e.tsv":
        argv = ["train-svr", *m, "--embeddings", str(path),
                "--out", str(tmp_path / "x.psvr")]
    elif name == "s.tsv":
        argv = ["fuse", "--scores", str(path), "--dev-scores", str(path)]
    else:  # a corpus file
        argv = ["score", *m, "--gop"]
    assert main(argv) == 2
    assert f"data error: {path}:{lineno}: " in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    {"gmm": {"componets": 8}}, {"svr": {"foo": 2}}, {"nf": {"cap": 3.0}},
    {"sytems": ["gop"]}, {"corpus": {"synth": {}, "manfest": "x"}}])
def test_unknown_section_key_exits_1(tmp_path, capsys, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "corpus": {"synth": {}}, **section}))
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "unknown settings" in err


@pytest.mark.parametrize("corpus", [{"synth": {}, "manifest": "m.tsv"}, {}])
def test_corpus_with_both_sources_or_neither_exits_1(tmp_path, capsys, corpus):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "corpus": corpus}))
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "'synth'" in err and "'manifest'" in err


@pytest.mark.parametrize("section", [
    {"svr": {"C": "x"}}, {"svr": {"gamma": "auto"}},
    {"svr": {"max_passes": 1.5}}, {"svr": {"tol": "0.001"}},
    {"gmm": {"components": 8.0}}, {"nf": {"epochs": True}},
    {"fusion": {"grid_step": "0.1"}}, {"ivector": 5},
    {"corpus": {"synth": {"num_speakers": "x"}}},
    {"corpus": {"synth": {"frames_per_phone": [3]}}},
    {"corpus": {"synth": {"frames_per_phone": [3, 6.5]}}},
    {"corpus": {"synth": {"num_raters": True}}},
    {"corpus": {"synth": {"feature_dimm": 6}}}, {"corpus": {"synth": 5}},
    {"corpus": {"manifest": 5}}, {"model_dir": 5},
    {"systems": 5}, {"systems": "gop"}, {"systems": ["gop", 3]},
    {"fusion": {"modes": "score"}}, {"fusion": {"modes": [None]}},
    {"seed": 1.5}, {"seed": "7"}, {"seed": True}])
def test_bad_section_value_type_exits_1(tmp_path, capsys, section):
    """A value of another type than the preset's fails before any work."""
    cfg = tmp_path / "cfg.json"
    tiny = {"num_speakers": 10, "utterances_per_speaker": 3, "feature_dim": 6}
    cfg.write_text(json.dumps({"seed": 1, "corpus": {"synth": tiny},
                               "systems": ["gop", "ivector"], **section}))
    assert main(["run", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("section, message", [
    ({"corpus": {"synth": {"num_speakers": 0}}}, "corpus.synth: all synth"),
    ({"corpus": {"synth": {"frames_per_phone": [5, 2]}}},
     "corpus.synth: bad frames_per_phone"),
    ({"corpus": {"synth": {"eval_fraction": 1.0}}},
     "corpus.synth: split fractions"),
    ({"nf": {"epochs": 0}}, "nf: batch_size and epochs"),
    ({"dnf": {"learning_rate": 0.0}}, "dnf: learning_rate"),
    ({"dnf": {"classes": 0}}, "dnf.classes must be >= 1"),
    ({"nf": {"layers": 0}}, "nf.layers must be >= 1"),
    ({"gmm": {"components": 0}}, "gmm.components must be >= 1"),
    ({"ivector": {"iters": 0}}, "ivector.iters must be >= 1"),
    ({"ivector": {"ubm_components": 0}}, "ivector.ubm_components"),
    ({"svr": {"C": 0.0}}, "svr: C must be positive"),
    ({"svr": {"gamma": -1.0}}, "svr: gamma"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"gop": {"mode": "foo"}}, "gop.mode: unknown GOP mode 'foo'"),
    ({"fusion": {"grid_step": 0}}, "fusion.grid_step must be > 0"),
    ({"fusion": {"normalization": "minmax"}},
     "fusion: unknown normalization 'minmax'"),
    ({"gmm": {"iters": -1}}, "gmm.iters must be >= 0"),
    ({"ivector": {"ubm_iters": -1}}, "ivector.ubm_iters must be >= 0"),
    ({"nf": {"width": 0}}, "nf.width must be >= 1"),
    ({"dnf": {"width": 0}}, "dnf.width must be >= 1"),
    ({"svr": {"max_passes": -1}}, "svr: max_passes must be >= 0"),
    ({"svr": {"tol": -1.0}}, "svr: tol must be positive"),
    ({"corpus": {"synth": {"seed": -1}}},
     "corpus.synth: seed must be >= 0, got -1"),
    ({"svr": {"C": float("nan")}}, "svr.C: expected a finite number, got nan"),
    ({"nf": {"learning_rate": float("inf")}},
     "nf.learning_rate: expected a finite number, got inf"),
    ({"corpus": {"synth": {"label_noise": float("-inf")}}},
     "corpus.synth.label_noise: expected a finite number, got -inf")])
def test_out_of_range_config_value_exits_1(tmp_path, capsys, section, message):
    """A value that a stage's own check rejects fails before any work."""
    cfg = tmp_path / "cfg.json"
    tiny = {"num_speakers": 10, "utterances_per_speaker": 3, "feature_dim": 6}
    cfg.write_text(json.dumps({"seed": 1, "corpus": {"synth": tiny},
                               "systems": ["gop", "gmm", "nf"], **section}))
    assert main(["run", str(cfg)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_ivector_dim_above_its_bound_exits_1(tmp_path, capsys):
    """An i-vector dim above ubm_components x feature_dim fails before any
    work when the run trains an i-vector extractor, and only then."""
    cfg = {"seed": 1, "corpus": {"synth": {
        "num_speakers": 10, "utterances_per_speaker": 3, "feature_dim": 6}},
        "systems": ["gop", "ivector"],
        "ivector": {"dim": 20, "ubm_components": 2}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / "cfg.json")]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: ivector.dim must be <= ubm_components * feature_dim"
        " = 12, got 20")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    validate_config(dict(cfg, systems=["gop"]))


def test_train_ivector_dim_above_its_bound_exits_2_before_em(
        corpus_dir, tmp_path, capsys, monkeypatch):
    """With a manifest corpus the bound is checked by the T-matrix EM,
    before its first E-step."""
    def no_posteriors(*args):
        raise AssertionError("T-matrix EM ran with an i-vector dim above K*D")

    monkeypatch.setattr(ivector, "_posteriors", no_posteriors)
    ubm = tmp_path / "ubm.pgmm"
    gmm.save_gmm(ubm, gmm.GmmModel(np.full(2, 0.5), np.zeros((2, 6)),
                                   np.ones((2, 6))))
    assert main(["train-ivector", "--manifest", str(corpus_dir[1]),
                 "--ubm", str(ubm), "--dim", "13",
                 "--out", str(tmp_path / "iv.pivm")]) == 2
    assert capsys.readouterr().err.startswith(
        "data error: i-vector dim R=13 must be <= K*D=12")
    assert not (tmp_path / "iv.pivm").exists()


def test_manifest_run_ivector_dim_above_its_bound_exits_2_before_training(
        corpus_dir, tmp_path, capsys):
    """With a manifest corpus, `run` checks the i-vector bound against the
    corpus's feature dim as the corpus loads, so no model file or stamp is
    written."""
    cfg = {"seed": 1, "corpus": {"manifest": str(corpus_dir[1])},
           "systems": ["gop", "gmm", "ivector"],
           "ivector": {"dim": 20, "ubm_components": 2}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / "cfg.json")]) == 2
    assert capsys.readouterr().err.startswith(
        "data error: i-vector dim R=20 must be <= K*D=12")
    assert list((tmp_path / "models").iterdir()) == []


def _without_train_split(manifest, d) -> Path:
    """A copy of the corpus of `manifest` whose splits list every train
    utterance as dev, and the copy's manifest."""
    root = d / "corpus"
    shutil.copytree(Path(manifest).parent, root)
    splits = root / "splits.tsv"
    splits.write_text(splits.read_text().replace("\ttrain\n", "\tdev\n"))
    return root / "manifest.tsv"


def _run_config(m, d) -> list:
    """The argv of a `run` of GOP, a GMM and an NF on the corpus of
    manifest `m[1]`."""
    cfg = {"seed": 1, "corpus": {"manifest": m[1]},
           "systems": ["gop", "gmm", "nf"],
           "gmm": {"components": 2, "iters": 2},
           "nf": {"layers": 2, "width": 8, "epochs": 1}}
    return ["run", _text_file(d / "cfg.json", json.dumps(cfg))]


@pytest.mark.parametrize("workers, argv", [
    pytest.param(1, _run_config, id="run-1-worker"),
    pytest.param(2, _run_config, id="run-2-workers"),
    pytest.param(1, lambda m, d: [
        "train-gmm", *m, "--components", "2", "--out", str(d / "m")],
        id="train-gmm"),
    pytest.param(1, lambda m, d: [
        "train-flow", *m, "--epochs", "1", "--out", str(d / "m")],
        id="train-flow"),
    pytest.param(1, lambda m, d: [
        "train-dnf", *m, "--epochs", "1", "--out", str(d / "m")],
        id="train-dnf"),
    pytest.param(1, lambda m, d: [
        "train-ivector", *m, "--dim", "2", "--out", str(d / "m"),
        "--ubm", _saved(d, "u.pgmm", gmm.GmmModel(
            np.full(2, 0.5), np.zeros((2, 6)), np.ones((2, 6))))],
        id="train-ivector"),
])
def test_an_empty_train_split_exits_2(corpus_dir, tmp_path, monkeypatch,
                                      capsys, workers, argv):
    """Each marginal trainer names an empty train split as a data error,
    in a run's workers and in this process alike."""
    manifest = _without_train_split(corpus_dir[1], tmp_path)
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: workers)
    assert main(argv(["--manifest", str(manifest)], tmp_path)) == 2
    assert capsys.readouterr().err == (
        "data error: the train split is empty: no utterance to train on\n")
    assert not (tmp_path / "m").exists()


# a stage flag's value that its config section may not hold
_BAD_STAGE_FLAGS = [
    (["train-gmm", "--components", "0"], "gmm.components must be >= 1"),
    (["train-flow", "--layers", "0"], "nf.layers must be >= 1"),
    (["train-dnf", "--classes", "0"], "dnf.classes must be >= 1"),
    (["train-ivector", "--ubm", "UBM", "--iters", "0"],
     "ivector.iters must be >= 1"),
    (["train-ivector", "--ubm", "UBM", "--dim", "0"], "ivector.dim must be >= 1"),
    (["train-gmm", "--iters", "-1"], "gmm.iters must be >= 0"),
    (["train-flow", "--width", "0"], "nf.width must be >= 1"),
    (["fuse", "--scores", "s.tsv", "--dev-scores", "d.tsv", "--grid-step", "0"],
     "fusion.grid_step must be > 0"),
    (["train-dnf", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["train-flow", "--learning-rate", "nan"],
     "nf.learning_rate: expected a finite number, got nan"),
    (["score", "--svr", "s.psvr"], "--svr requires --embeddings"),
    (["score"], "no score columns requested")]


@pytest.mark.parametrize("argv, message", _BAD_STAGE_FLAGS)
def test_stage_flag_below_one_exits_1(corpus_dir, tmp_path, capsys, argv,
                                      message):
    # UBM stands for a model file that loads; the check comes before its use
    argv = [_ubm_of_dim_2(tmp_path) if a == "UBM" else a for a in argv]
    if argv[0] != "fuse":
        argv += ["--manifest", str(corpus_dir[1])]
    assert main([*argv, "--out", str(tmp_path / "m.bin")]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("argv, message", _BAD_STAGE_FLAGS)
def test_bad_flag_exits_1_before_any_file_is_read(tmp_path, capsys, argv,
                                                  message):
    """Stage flags and --seed are checked before a subcommand opens a file:
    the manifest, UBM and score tables named here do not exist."""
    missing = str(tmp_path / "missing")
    argv = [missing if a in ("UBM", "s.tsv", "d.tsv") else a for a in argv]
    if argv[0] != "fuse":
        argv += ["--manifest", missing]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert list(tmp_path.iterdir()) == []


def test_train_svr_gamma_flag_is_a_number(corpus_dir, tmp_path):
    """--gamma 0.5 trains the SVR of the svr section {"gamma": 0.5}."""
    m = ["--manifest", str(corpus_dir[1])]
    emb = _embeddings(m, tmp_path)
    out, expected = tmp_path / "cli.psvr", tmp_path / "stage.psvr"
    assert main(["train-svr", *m, "--embeddings", emb, "--gamma", "0.5",
                 "--out", str(out)]) == 0
    vectors = {uid: np.array([float(v) for v in vec]) for uid, *vec in
               (line.split("\t") for line in Path(emb).read_text().splitlines())}
    save_model(expected, pipeline.train_svr(load_corpus(corpus_dir[1]), vectors,
                                            {"gamma": 0.5}))
    assert out.read_bytes() == expected.read_bytes()


def test_bad_svr_setting_exits_1(corpus_dir, tmp_path, capsys):
    m = ["--manifest", str(corpus_dir[1])]
    assert main(["train-svr", *m, "--out", str(tmp_path / "x.psvr"),
                 "--embeddings", _embeddings(m, tmp_path), "--C", "0"]) == 1
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the CLI stages are the pipeline's stages


def test_stage_flag_defaults_are_the_preset():
    parser = build_parser()
    m = ["--manifest", "m.tsv", "--out", "o"]
    for argv, section in ((["train-gmm", *m], "gmm"),
                          (["train-ivector", *m, "--ubm", "u"], "ivector"),
                          (["train-flow", *m], "nf"),
                          (["train-dnf", *m], "dnf"),
                          (["train-svr", *m, "--embeddings", "e"], "svr"),
                          (["fuse", "--scores", "s", "--dev-scores", "d"],
                           "fusion")):
        args = parser.parse_args(argv)
        preset = default_config()[section]
        assert {k: getattr(args, k) for k in args.section} == \
            {k: preset[k] for k in args.section}


def _tsv_rows(text):
    return [line.split("\t") for line in text.splitlines()[1:]]


def test_cli_chain_reproduces_run_models(pipeline_runs, tmp_path, capsys):
    """With the stage seeds, the CLI writes the run's model bytes, and
    `fuse` and `evaluate` print the run's lambda and PCCs."""
    models = pipeline_runs["dirs"][0] / "models"
    m = ["--manifest",
         str(pipeline_runs["dirs"][0] / "corpus" / "manifest.tsv")]
    cfg = default_config()
    seed, iv = cfg["seed"], cfg["ivector"]
    out = {name: str(tmp_path / name) for name in (
        "ubm.pgmm", "gmm.pgmm", "ivector.pivm", "ivector.emb",
        "svr_ivector.psvr")}
    assert main(["train-gmm", *m, "--out", out["ubm.pgmm"],
                 "--components", str(iv["ubm_components"]),
                 "--iters", str(iv["ubm_iters"]), "--seed", str(seed + 11)]) == 0
    assert main(["train-gmm", *m, "--out", out["gmm.pgmm"],
                 "--seed", str(seed + 11)]) == 0
    assert main(["train-ivector", *m, "--ubm", out["ubm.pgmm"],
                 "--out", out["ivector.pivm"], "--seed", str(seed + 41)]) == 0
    assert main(["embed", *m, "--model", out["ivector.pivm"],
                 "--out", out["ivector.emb"]]) == 0
    assert main(["train-svr", *m, "--embeddings", out["ivector.emb"],
                 "--out", out["svr_ivector.psvr"], "--seed", str(seed)]) == 0
    for name in ("gmm.pgmm", "ivector.pivm", "svr_ivector.psvr"):
        assert (tmp_path / name).read_bytes() == (models / name).read_bytes(), name

    scores, dev_scores, fused = (str(tmp_path / name) for name in (
        "scores.tsv", "dev_scores.tsv", "fused.tsv"))
    s = ["--gop", "--model", out["gmm.pgmm"], "--svr", out["svr_ivector.psvr"],
         "--embeddings", out["ivector.emb"]]
    assert main(["score", *m, *s, "--out", scores]) == 0
    assert main(["score", *m, *s, "--split", "dev", "--out", dev_scores]) == 0
    capsys.readouterr()
    assert main(["fuse", "--scores", scores, "--dev-scores", dev_scores,
                 "--out", fused]) == 0
    printed_lambda = capsys.readouterr().out
    assert main(["evaluate", *m, "--scores", fused]) == 0
    evaluated = {system: value for system, split, value, _ in
                 _tsv_rows(capsys.readouterr().out)}
    report = {system: (value, lam) for system, split, value, lam in
              _tsv_rows(pipeline_runs["results"][0].report_path.read_text())}
    fusion = report["gop+ivector_score_fusion"]
    assert printed_lambda == f"lambda = {fusion[1]}\n"
    assert evaluated == {"gop": report["gop"][0],
                         "predicted": report["ivector_svr"][0],
                         "fused": fusion[0]}


def test_run_inference_files_are_what_the_cli_writes(pipeline_runs,
                                                     tmp_path):
    """A preset run and the CLI share one stage layer: each `NAME.emb` of
    the run is what `embed` writes with the run's model, and `train-svr`
    on the run's i-vector embeddings writes the run's SVR."""
    work = pipeline_runs["dirs"][0]
    models = work / "models"
    m = ["--manifest", str(work / "corpus" / "manifest.tsv")]
    for name, magic in (("ivector", "pivm"), ("nf", "pnf1"), ("dnf", "pdnf")):
        out = tmp_path / f"{name}.emb"
        assert main(["embed", *m, "--model", str(models / f"{name}.{magic}"),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (models / f"{name}.emb").read_bytes(), name
    out = tmp_path / "svr_ivector.psvr"
    assert main(["train-svr", *m, "--embeddings", str(models / "ivector.emb"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (models / "svr_ivector.psvr").read_bytes()


def test_train_dnf_drops_empty_classes(corpus_dir, tmp_path):
    _, manifest = corpus_dir
    out = tmp_path / "d.pdnf"
    # mean scores round to at most 5, so classes 6 and 7 have no frames
    assert main(["train-dnf", "--manifest", str(manifest), "--out", str(out),
                 "--classes", "7", "--epochs", "1"]) == 0
    assert dnf.load_dnf(out).num_classes == 5
    assert main(["train-dnf", "--manifest", str(manifest), "--out", str(out),
                 "--classes", "0"]) == 1


def test_train_flow_trace(corpus_dir, tmp_path):
    """--trace writes one row per epoch, and its last NLL is the train-split
    NLL of the saved model."""
    _, manifest = corpus_dir
    out, trace = tmp_path / "f.pnf1", tmp_path / "trace.tsv"
    assert main(["train-flow", "--manifest", str(manifest), "--out", str(out),
                 "--trace", str(trace), "--epochs", "3", "--layers", "2",
                 "--width", "8", "--batch-size", "64"]) == 0
    header, *rows = [line.split("\t")
                     for line in trace.read_text().splitlines()]
    assert header == ["epoch", "nll"]
    assert [int(epoch) for epoch, _ in rows] == [0, 1, 2]
    corpus = load_corpus(manifest)
    frames = corpus.frames_for(corpus.splits.train_ids)
    assert float(rows[-1][1]) == flow.mean_nll(flow.load_flow(out), frames)


# ---------------------------------------------------------------------------
# run + synth entry points


def test_synth_replaces_a_larger_corpus(tmp_path, capsys):
    """No utterance of a 61-speaker corpus in the output directory
    outlives `synth`, which writes 60 speakers of 6 utterances."""
    save_corpus(synth_corpus(replace(TINY_SYNTH, num_speakers=61))[0], tmp_path)
    assert main(["synth", "--out", str(tmp_path)]) == 0
    manifest = tmp_path / "manifest.tsv"
    assert capsys.readouterr().out == f"manifest written to {manifest}\n"
    assert len(load_corpus(manifest).features) == 360


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_writes_the_run_corpus(pipeline_runs, tmp_path):
    """`synth --out` writes the files of a preset run's corpus stage."""
    assert main(["synth", "--out", str(tmp_path)]) == 0
    expected = _tree(pipeline_runs["dirs"][0] / "corpus")
    del expected["synth.digest"]
    written = _tree(tmp_path)
    assert sorted(written) == sorted(expected)
    assert [name for name in expected if written[name] != expected[name]] == []


def test_run_missing_config_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ('{"seed": 1, "seed": 3, "corpus": {"synth": {}}}', "seed"),
    ('{"seed": 1, "corpus": {"synth": {}}, "gmm": {"iters": 1, "iters": 2}}',
     "iters")], ids=["top-level", "nested"])
def test_run_repeated_config_key_exits_1(tmp_path, capsys, text, key):
    """JSON keeps the last of two equal keys; a config that sets one twice
    is a config error naming the file and the key, and nothing runs."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"config error: {cfg}: repeated key"
                                   f" {key!r}\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_run_invalid_config_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus": {"synth": {}}}))
    assert main(["run", str(cfg)]) == 1
    assert "seed" in capsys.readouterr().err


def test_run_missing_manifest_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 1,
        "corpus": {"manifest": "does/not/exist.tsv"},
        "systems": ["gop"],
    }))
    assert main(["run", str(cfg)]) == 2
    assert "data error" in capsys.readouterr().err

import itertools
import json
import multiprocessing
import os
import runpy
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from proscore import (corpus, dnf, flow, formats, gmm, ivector, pipeline,
                      regress)
from proscore.cli import main
from proscore.corpus import load_corpus, save_corpus, synth_corpus
from proscore.pipeline import (ConfigError, default_config, load_config,
                               run_pipeline, validate_config)

from conftest import TINY_SYNTH


def test_validate_config_messages():
    with pytest.raises(ConfigError, match="seed"):
        validate_config({"corpus": {"synth": {}}})
    with pytest.raises(ConfigError, match="corpus"):
        validate_config({"seed": 1})
    with pytest.raises(ConfigError, match="synth.*manifest"):
        validate_config({"seed": 1, "corpus": {}})
    with pytest.raises(ConfigError, match="unknown system"):
        validate_config({"seed": 1, "corpus": {"synth": {}},
                         "systems": ["gop", "hmm"]})
    with pytest.raises(ConfigError, match="unknown fusion mode"):
        validate_config({"seed": 1, "corpus": {"synth": {}},
                         "fusion": {"modes": ["late"]}})
    with pytest.raises(ConfigError, match="svr.C: expected float"):
        validate_config({"seed": 1, "corpus": {"synth": {}},
                         "svr": {"C": "1"}})
    with pytest.raises(ConfigError,
                       match=r"corpus.synth.num_speakers: expected int"):
        validate_config({"seed": 1,
                         "corpus": {"synth": {"num_speakers": "x"}}})
    with pytest.raises(ConfigError, match="systems: expected a list"):
        validate_config({"seed": 1, "corpus": {"synth": {}}, "systems": 5})
    # an int stands for a float, a list for a tuple, and gamma is "scale"
    # or a number
    validate_config({"seed": 1, "corpus": {"synth": {
                         "native_scale": 2, "frames_per_phone": [2, 4]}},
                     "svr": {"C": 2, "gamma": 0.5, "max_passes": 10},
                     "nf": {"learning_rate": 1}})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    not_obj = tmp_path / "list.json"
    not_obj.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(not_obj)


def test_shipped_config_is_the_preset():
    """configs/synthetic.json holds default_config(), apart from work_dir."""
    shipped = load_config(
        Path(__file__).parents[1] / "configs" / "synthetic.json")
    preset = default_config()
    del shipped["work_dir"], preset["work_dir"]
    assert shipped == preset


def test_load_config_defaults_work_dir(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "corpus": {"synth": {}}}))
    cfg = load_config(path)
    assert cfg["work_dir"] == str(tmp_path)


def test_default_config_is_valid():
    validate_config(default_config())


def test_golden_report(pipeline_runs):
    """The shipped preset reproduces the recorded golden report bit-exactly."""
    golden = Path(__file__).parent / "data" / "golden_report.tsv"
    produced = pipeline_runs["results"][0].report_path.read_bytes()
    assert produced == golden.read_bytes()


def test_report_rows_complete(pipeline_runs):
    result = pipeline_runs["results"][0]
    systems = {r.system for r in result.report_rows}
    assert {"human", "gop", "gmm_loglik", "nf_loglik", "ivector_svr",
            "nf_svr", "dnf_svr"} <= systems
    for name in ("ivector", "nf", "dnf"):
        assert f"gop+{name}_score_fusion" in systems
        assert f"gop+{name}_feature_fusion" in systems
        assert 0.0 <= result.lambdas[name] <= 1.0


def test_stage_cache_reuses_artifacts(pipeline_runs):
    """Re-running in the same work dir must load cached models unchanged."""
    work = pipeline_runs["dirs"][0]
    stamps = sorted(p.name for p in (work / "models").glob("*.digest"))
    assert stamps  # every trained stage leaves a digest stamp
    before = {p.name: p.read_bytes() for p in (work / "models").iterdir()}
    cfg = default_config(str(work))
    rerun = run_pipeline(cfg)  # hits the cache for every stage
    after = {p.name: p.read_bytes() for p in (work / "models").iterdir()}
    assert before == after
    assert rerun.report_path.read_bytes() == \
        pipeline_runs["results"][0].report_path.read_bytes()


def test_manifest_corpus_source(pipeline_runs, tmp_path):
    """A config pointing at the saved corpus manifest loads the same data."""
    work = pipeline_runs["dirs"][0]
    cfg = {
        "seed": 7,
        "work_dir": str(tmp_path),
        "corpus": {"manifest": str(work / "corpus" / "manifest.tsv")},
        "systems": ["gop"],
        "fusion": {"modes": []},
    }
    result = run_pipeline(cfg)
    source = pipeline_runs["results"][0]
    assert sorted(result.corpus.features) == sorted(source.corpus.features)
    assert result.pcc_by_system["gop"] == pytest.approx(
        source.pcc_by_system["gop"], abs=1e-12)


def test_rewritten_manifest_corpus_retrains(tmp_path):
    """A corpus saved over another under the same manifest is a new input."""
    corpus_dir = tmp_path / "corpus"
    manifest = save_corpus(synth_corpus(replace(TINY_SYNTH, seed=7))[0],
                           corpus_dir)

    def run(work):
        return run_pipeline({"seed": 7, "work_dir": str(work),
                             "corpus": {"manifest": str(manifest)},
                             "systems": ["gop", "gmm"]})

    run(tmp_path / "a")
    stale = (tmp_path / "a" / "models" / "gmm.pgmm").read_bytes()
    save_corpus(synth_corpus(replace(TINY_SYNTH, seed=8))[0], corpus_dir)
    rerun = run(tmp_path / "a")
    fresh = run(tmp_path / "b")
    model = (tmp_path / "a" / "models" / "gmm.pgmm").read_bytes()
    assert model != stale
    assert model == (tmp_path / "b" / "models" / "gmm.pgmm").read_bytes()
    assert rerun.report_path.read_bytes() == fresh.report_path.read_bytes()


def test_interrupted_retrain_serves_no_stale_model(tmp_path, monkeypatch):
    """A retrain that dies after saving its model leaves no stamp behind,
    so going back to the old settings retrains instead of loading it."""
    manifest = save_corpus(synth_corpus(TINY_SYNTH)[0], tmp_path / "corpus")

    def run(work, iters):
        return run_pipeline({"seed": 7, "work_dir": str(work),
                             "corpus": {"manifest": str(manifest)},
                             "systems": ["gop", "gmm"],
                             "gmm": {"iters": iters}})

    run(tmp_path / "a", 1)
    save = pipeline.save_model

    def save_then_die(path, model):
        save(path, model)
        raise RuntimeError("interrupted")

    with monkeypatch.context() as m:
        m.setattr(pipeline, "save_model", save_then_die)
        with pytest.raises(RuntimeError, match="interrupted"):
            run(tmp_path / "a", 20)
    run(tmp_path / "a", 1)
    run(tmp_path / "b", 1)
    assert (tmp_path / "a" / "models" / "gmm.pgmm").read_bytes() == \
        (tmp_path / "b" / "models" / "gmm.pgmm").read_bytes()


def test_interrupted_synth_corpus_is_rewritten(tmp_path, monkeypatch):
    """A synthetic corpus write that dies leaves no stamp behind, so the
    next run rewrites the corpus instead of serving the mixed files."""
    def run(seed, speakers):
        synth = dict(vars(TINY_SYNTH), seed=seed, num_speakers=speakers)
        return run_pipeline({"seed": 7, "work_dir": str(tmp_path),
                             "corpus": {"synth": synth}, "systems": ["gop"]})

    first = run(7, 10)
    write = corpus.write_feature_file
    calls = []

    def write_then_die(path, fs):
        calls.append(path)
        if len(calls) > 35:
            raise RuntimeError("interrupted")
        write(path, fs)

    with monkeypatch.context() as m:
        m.setattr(corpus, "write_feature_file", write_then_die)
        with pytest.raises(RuntimeError, match="interrupted"):
            run(8, 12)  # 36 utterances; 35 feature files written
    rerun = run(7, 10)
    cached = run(7, 10)  # loads the corpus it wrote
    assert load_corpus(tmp_path / "corpus" / "manifest.tsv").features.keys() \
        == first.corpus.features.keys()
    assert rerun.report_rows == cached.report_rows == first.report_rows


# small flow settings that the tiny corpus's train frames can batch
_TINY_FLOW = {"layers": 2, "width": 8, "batch_size": 64, "epochs": 1}


def test_run_inverts_each_utterance_once_per_flow(tmp_path, monkeypatch):
    """The NF log-likelihood row and the NF and DNF embeddings come from
    one inverse pass per utterance and flow model."""
    transform = flow.flow_transform
    inverse_rows = []

    def counted(m, direction, batch):
        if direction == "inverse":
            inverse_rows.append(len(batch))
        return transform(m, direction, batch)

    monkeypatch.setattr(flow, "flow_transform", counted)
    result = run_pipeline({"seed": 7, "work_dir": str(tmp_path),
                           "corpus": {"synth": vars(TINY_SYNTH)},
                           "systems": ["gop", "nf", "dnf"],
                           "fusion": {"modes": []},
                           "nf": _TINY_FLOW, "dnf": _TINY_FLOW})
    features = result.corpus.features
    assert len(inverse_rows) == 2 * len(features)
    assert sorted(inverse_rows) == sorted(
        2 * [fs.num_frames for fs in features.values()])
    assert {"nf_loglik", "nf_svr", "dnf_svr"} <= set(result.pcc_by_system)


@pytest.fixture(scope="module")
def tiny_models():
    tiny, _ = synth_corpus(TINY_SYNTH)
    preset = default_config()
    ubm = pipeline.train_gmm(tiny, {"components": 2, "iters": 3}, 1)[0]
    return tiny, {
        "gmm": pipeline.train_gmm(tiny, {"components": 3, "iters": 3}, 1)[0],
        "ivector": pipeline.train_ivector(tiny, ubm, {"dim": 3, "iters": 2},
                                          2)[0],
        "nf": pipeline.train_flow(tiny, dict(preset["nf"], **_TINY_FLOW), 3)[0],
        "dnf": pipeline.train_dnf(tiny, dict(preset["dnf"], **_TINY_FLOW),
                                  4)[0]}


def test_infer_equals_the_public_functions(tiny_models):
    tiny, models = tiny_models
    out = {name: pipeline.infer(m, tiny.features) for name, m in models.items()}
    assert out["gmm"][1] is None and out["ivector"][0] is None
    assert out["dnf"][0] is None  # its classes share the backbone
    ivectors = ivector.ivector_infer(models["ivector"], ivector.ubm_stats(
        models["ivector"].ubm, tiny.features.values()))
    assert list(out["ivector"][1]) == list(tiny.features)
    for (uid, fs), iv in zip(tiny.features.items(), ivectors):
        assert out["gmm"][0][uid] == gmm.gmm_loglik(models["gmm"], fs)[1]
        np.testing.assert_array_equal(out["ivector"][1][uid], iv)
        assert out["nf"][0][uid] == \
            flow.flow_logprob(models["nf"], fs.frames).mean()
        for name, embed in (("nf", flow.flow_embed), ("dnf", dnf.dnf_embed)):
            np.testing.assert_array_equal(out[name][1][uid],
                                          embed(models[name], fs))


def test_format_bump_retrains_every_stage(tmp_path, monkeypatch, capsys):
    """Every cached stage, the synth corpus included, is keyed on the whole
    format table, so a bumped version retrains the stages whose files nest
    or read that format instead of serving a file of the old version."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seed": 7, "corpus": {"synth": vars(TINY_SYNTH)},
        "systems": ["gop", "gmm", "ivector", "nf", "dnf"],
        "fusion": {"modes": []},
        "gmm": {"components": 2, "iters": 3}, "nf": _TINY_FLOW,
        "dnf": _TINY_FLOW, "ivector": {"dim": 3, "iters": 2,
                                       "ubm_components": 2, "ubm_iters": 3}}))
    assert main(["run", str(config)]) == 0
    report = (tmp_path / "reports" / "report.tsv").read_bytes()
    files = [tmp_path / "models" / "dnf.pdnf",
             tmp_path / "models" / "ivector.pivm",
             tmp_path / "corpus" / "features" / "spk000_utt00.feat"]
    before = [f.read_bytes() for f in files]
    # the bump is in this process alone, where the stamps are made: a
    # spawned worker would read the rewritten corpus in the old version
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
    for name in ("PNF1", "PGMM", "PRF1"):
        monkeypatch.setitem(formats.VERSIONS, name, formats.VERSIONS[name] + 1)
    assert main(["run", str(config)]) == 0, capsys.readouterr().err
    assert (tmp_path / "reports" / "report.tsv").read_bytes() == report
    assert all(f.read_bytes() != b for f, b in zip(files, before))
    pipeline.load_model(files[0])  # each reads in the bumped versions
    pipeline.load_model(files[1])
    load_corpus(tmp_path / "corpus" / "manifest.tsv")


# ---------------------------------------------------------------------------
# the marginal models train in spawned workers, as many as there are CPUs

# every system, with settings that the tiny corpus trains in a second
_TINY_RUN = {"seed": 7, "corpus": {"synth": vars(TINY_SYNTH)},
             "gmm": {"components": 2, "iters": 3}, "nf": _TINY_FLOW,
             "dnf": _TINY_FLOW, "ivector": {"dim": 3, "iters": 2,
                                            "ubm_components": 2,
                                            "ubm_iters": 3}}


def _files(d: Path) -> dict:
    """relative path -> (bytes, mtime) of every file under d."""
    return {p.relative_to(d): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(d.rglob("*")) if p.is_file()}


def _counted_pools(monkeypatch) -> tuple:
    """The worker count of each pool that pipeline._pool makes from now and
    the arguments of each task submitted to it."""
    make, pools, sent = pipeline._pool, [], []

    def counted(workers):
        pools.append(workers)
        pool = make(workers)
        submit = pool.submit

        def spied(fn, *args):
            sent.append(args)
            return submit(fn, *args)

        pool.submit = spied
        return pool

    monkeypatch.setattr(pipeline, "_pool", counted)
    return pools, sent


def test_one_and_two_workers_write_the_same_files(tmp_path, monkeypatch):
    pools, sent = _counted_pools(monkeypatch)
    out = {}
    for workers in (1, 2):
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: workers)
        work = tmp_path / f"w{workers}"
        result = run_pipeline(dict(_TINY_RUN, work_dir=str(work)))
        models = {p: b for p, (b, _) in _files(work / "models").items()}
        out[workers] = models, result.report_path.read_bytes()
    assert pools == [2]
    assert multiprocessing.active_children() == []
    # each task is (name, manifest, section, seed) and carries no corpus;
    # the manifest is the run's, and its corpus has the run's train frames
    manifest = tmp_path / "w2" / "corpus" / "manifest.tsv"
    assert sorted(args[0] for args in sent) == sorted(pipeline.MARGINALS)
    for name, path, section, seed in sent:
        assert path == str(manifest)
        assert section == pipeline._merged(_TINY_RUN, name) and seed == 7
    assert not any(isinstance(a, corpus.Corpus) for args in sent for a in args)
    full, loaded = result.corpus, load_corpus(manifest)
    for uid in full.splits.train_ids:
        np.testing.assert_array_equal(loaded.features[uid].frames,
                                      full.features[uid].frames)
    # 7 models, 5 inference files, GOP, 3 SVR and 3 feature-fusion
    # prediction files and the stamps of 11 stages
    assert len(out[1][0]) == 30
    assert out[1] == out[2]
    assert b"gop+ivector_score_fusion" in out[1][1]


def test_pool_tasks_go_in_marginals_order(tmp_path, monkeypatch):
    """A pool is sent its tasks in the order this process would train
    them: MARGINALS order."""
    pools, sent = _counted_pools(monkeypatch)
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
    run_pipeline(dict(_TINY_RUN, work_dir=str(tmp_path)))
    assert len(pools) == 1
    assert [args[0] for args in sent] == ["gmm", "nf", "dnf", "ivector"]


def _counted_feature_reads(monkeypatch) -> list:
    """The utterance of each feature file that this process parses from
    now, whichever module calls the parser."""
    read, reads = corpus._read_frames, []

    def counted(f):
        reads.append(Path(f.name).stem)
        return read(f)

    monkeypatch.setattr(corpus, "_read_frames", counted)
    return reads


def _model_bytes(model, path: Path) -> bytes:
    pipeline.save_model(path, model)
    return path.read_bytes()


@pytest.mark.parametrize("name", pipeline.MARGINALS)
def test_a_pool_task_parses_only_the_train_split(tmp_path, monkeypatch,
                                                 name):
    """A pool task parses the train split's feature files and no other,
    and trains what train_marginal trains on the whole corpus."""
    tiny = synth_corpus(TINY_SYNTH)[0]
    manifest = save_corpus(tiny, tmp_path / "corpus")
    section = pipeline._merged(_TINY_RUN, name)
    reads = _counted_feature_reads(monkeypatch)
    model, trace = pipeline._train_file(name, str(manifest), section, 7)
    assert sorted(reads) == sorted(tiny.splits.train_ids)
    whole, whole_trace = pipeline.train_marginal(name, load_corpus(manifest),
                                                 section, 7)
    assert trace == whole_trace
    assert _model_bytes(model, tmp_path / "a") == \
        _model_bytes(whole, tmp_path / "b")


def _wider_file(tmp_path, split="train") -> tuple:
    """A tiny manifest corpus in which one feature file of `split`, not
    the first of the corpus or of the split, has 7 dims, and its uid."""
    tiny = synth_corpus(TINY_SYNTH)[0]
    manifest = save_corpus(tiny, tmp_path / "corpus")
    uid = tiny.splits.ids(split)[1]
    assert uid != min(tiny.features)
    fs = tiny.features[uid]
    corpus.write_feature_file(
        manifest.parent / "features" / f"{uid}.feat",
        replace(fs, frames=np.hstack([fs.frames, fs.frames[:, :1]])))
    return manifest, uid


def test_a_pool_task_checks_the_feature_dims_it_reads(tmp_path):
    manifest, uid = _wider_file(tmp_path)
    with pytest.raises(formats.DataError,
                       match=f"inconsistent feature dims across corpus:"
                             f" {uid} has 7, "):
        pipeline._train_file("gmm", str(manifest),
                             pipeline._merged(_TINY_RUN, "gmm"), 7)


def test_a_train_file_of_another_dim_exits_2_in_a_pool_run(
        tmp_path, monkeypatch, capsys):
    pools, _ = _counted_pools(monkeypatch)
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
    manifest, uid = _wider_file(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dict(_TINY_RUN,
                                      corpus={"manifest": str(manifest)})))
    assert main(["run", str(config)]) == 2
    assert pools == [2]
    assert (f"data error: inconsistent feature dims across corpus: {uid}"
            " has 7, ") in capsys.readouterr().err


def test_the_parent_parses_no_feature_file_before_the_pool_starts(
        tmp_path, monkeypatch):
    """The pool of a run starts before this process parses any feature
    file, the i-vector dim check's included; it then parses each of them
    once."""
    pools, _ = _counted_pools(monkeypatch)
    reads = _counted_feature_reads(monkeypatch)
    counted = pipeline._pool
    before = []

    def spied(workers):
        before.append(len(reads))
        return counted(workers)

    monkeypatch.setattr(pipeline, "_pool", spied)
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
    result = run_pipeline(dict(_TINY_RUN, work_dir=str(tmp_path)))
    assert pools == [2] and before == [0]
    assert sorted(reads) == sorted(result.corpus.features)


def test_an_upstream_change_retrains_only_its_downstream_stages(
        tmp_path, monkeypatch):
    """A changed svr section rewrites the SVRs, the SVR and feature-fusion
    predictions and their stamps alone, and a changed i-vector section the
    i-vector extractor and its embeddings, its SVR and its feature fusion
    alone; the other files keep their bytes and mtimes."""
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
    cfg = dict(_TINY_RUN, work_dir=str(tmp_path))
    run_pipeline(cfg)

    def rewritten(**sections) -> list:
        before = _files(tmp_path / "models")
        run_pipeline(dict(cfg, **sections))
        after = _files(tmp_path / "models")
        assert after.keys() == before.keys()
        return sorted(p.name for p in after if after[p] != before[p])

    svr = {"C": 2.0}
    assert rewritten(svr=svr) == [
        f"{stage}_{name}.{ext}"
        for stage, exts in (("ff", ("digest", "pred")),
                            ("svr", ("digest", "pred", "psvr")))
        for name in ("dnf", "ivector", "nf") for ext in exts]
    ivector = dict(_TINY_RUN["ivector"], ubm_iters=4)
    assert rewritten(svr=svr, ivector=ivector) == [
        "ff_ivector.digest", "ff_ivector.pred", "ivector.digest",
        "ivector.emb", "ivector.pivm", "svr_ivector.digest",
        "svr_ivector.pred", "svr_ivector.psvr"]


def test_cached_rerun_starts_no_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
    cfg = dict(_TINY_RUN, work_dir=str(tmp_path))
    first = run_pipeline(cfg)
    models = _files(tmp_path / "models")

    def no_pool(workers):
        raise AssertionError("a fully cached rerun started a pool")

    monkeypatch.setattr(pipeline, "_pool", no_pool)
    rerun = run_pipeline(cfg)
    assert _files(tmp_path / "models") == models
    assert rerun.report_rows == first.report_rows


def _counted_infer(monkeypatch) -> list:
    """The system of each model that pipeline.infer is called on from now."""
    infer, calls = pipeline.infer, []

    def counted(model, features):
        calls.append(pipeline.model_system(model))
        return infer(model, features)

    monkeypatch.setattr(pipeline, "infer", counted)
    return calls


def test_cached_rerun_reads_the_inference_files(tmp_path, monkeypatch):
    """A fully cached rerun opens no model file, runs no inference pass,
    trains and runs no SVR and writes no file under models/ or corpus/;
    its report is the first run's. --force runs one pass per marginal
    model again."""
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(_TINY_RUN))
    assert main(["run", str(config)]) == 0
    report = (tmp_path / "reports" / "report.tsv").read_bytes()
    files = _files(tmp_path / "models"), _files(tmp_path / "corpus")
    assert sorted(p.name for p in files[0] if p.suffix in (".emb", ".loglik")) \
        == ["dnf.emb", "gmm.loglik", "ivector.emb", "nf.emb", "nf.loglik"]

    load, opened = formats.load, []

    def counted(path, *args, **kwargs):
        opened.append(Path(path).suffix)
        return load(path, *args, **kwargs)

    with monkeypatch.context() as m:
        _refuse(m, (pipeline, "infer"), (regress, "svr_train"),
                (regress, "svr_predict_batch"))
        m.setattr(formats, "load", counted)
        assert main(["run", str(config)]) == 0
    assert opened and not set(opened) & {".pgmm", ".pivm", ".pnf1", ".pdnf",
                                         ".psvr"}
    assert (_files(tmp_path / "models"), _files(tmp_path / "corpus")) == files
    assert (tmp_path / "reports" / "report.tsv").read_bytes() == report
    calls = _counted_infer(monkeypatch)
    assert main(["run", str(config), "--force"]) == 0
    assert sorted(calls) == sorted(pipeline.MARGINALS)
    assert (tmp_path / "reports" / "report.tsv").read_bytes() == report
    assert {p: b for p, (b, _) in _files(tmp_path / "models").items()} == \
        {p: b for p, (b, _) in files[0].items()}


def test_no_stale_inference_file_is_served(tmp_path, monkeypatch):
    """An inference file without its stage's stamp, as a run cut short
    leaves it, and one stamped for another model are both computed again
    with their models, and only they."""
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
    cfg = dict(_TINY_RUN, work_dir=str(tmp_path / "a"))
    first = run_pipeline(cfg)
    models = tmp_path / "a" / "models"
    files = {p: b for p, (b, _) in _files(models).items()}
    nf = dict(_TINY_FLOW, epochs=2)
    run_pipeline(dict(cfg, work_dir=str(tmp_path / "b"), nf=nf))
    for name in ("nf.emb", "nf.loglik", "nf.digest"):  # another NF's
        shutil.copy(tmp_path / "b" / "models" / name, models / name)
    emb = models / "ivector.emb"  # cut short, and its stamp not yet written
    emb.write_bytes(emb.read_bytes()[:len(emb.read_bytes()) // 2])
    (models / "ivector.digest").unlink()
    calls = _counted_infer(monkeypatch)
    rerun = run_pipeline(cfg)
    assert sorted(calls) == ["ivector", "nf"]
    assert {p: b for p, (b, _) in _files(models).items()} == files
    assert rerun.report_rows == first.report_rows


def test_a_model_stamped_without_its_tables_is_run_again(tmp_path,
                                                         monkeypatch):
    """A marginal stage's stamp covers the names of the files it writes.
    So a work dir whose NF stamp is under the key that the stage had when
    its inference pass was a stage of its own, which was written before
    that pass ran, is trained and run again, though the tables beside it
    are another NF's: a run cut short between the two leaves this."""
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
    cfg = dict(_TINY_RUN, work_dir=str(tmp_path / "a"))
    first = run_pipeline(cfg)
    models = tmp_path / "a" / "models"
    files = {p: b for p, (b, _) in _files(models).items()}
    run_pipeline(dict(cfg, work_dir=str(tmp_path / "b"),
                      nf=dict(_TINY_FLOW, epochs=2)))
    for name in ("nf.emb", "nf.loglik"):
        shutil.copy(tmp_path / "b" / "models" / name, models / name)
    corpus_key = load_corpus(tmp_path / "a" / "corpus" / "manifest.tsv") \
        .digest("features", "labels", "splits")
    (models / "nf.digest").write_text(pipeline._stamp(
        "nf", pipeline._merged(cfg, "nf"), corpus_key, cfg["seed"]))
    calls = _counted_infer(monkeypatch)
    rerun = run_pipeline(cfg)
    assert calls == ["nf"]
    assert {p: b for p, (b, _) in _files(models).items()} == files
    assert rerun.report_rows == first.report_rows


@pytest.mark.parametrize("cut", ["mid-row", "row-boundary", "last-value"])
def test_corrupt_inference_file_exits_2(tmp_path, capsys, cut):
    """An inference file cut short under a valid stamp is a data error
    that names it, wherever the cut falls."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dict(_TINY_RUN, systems=["gop", "ivector"])))
    assert main(["run", str(config)]) == 0
    emb = tmp_path / "models" / "ivector.emb"
    raw = emb.read_bytes()
    end = {"mid-row": raw.index(b"\t", len(raw) // 2) + 1,
           "row-boundary": raw.rindex(b"\n", 0, len(raw) - 1) + 1,
           "last-value": len(raw) - 2}[cut]
    emb.write_bytes(raw[:end])
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {emb}"), err


def test_embeddings_round_trip_bit_for_bit(tmp_path):
    """Random doubles of every exponent, subnormals, both zeros and the
    extremes read back from embeddings_tsv with the same bits."""
    rng = np.random.default_rng(41)
    bits = rng.integers(0, 2 ** 64, size=4000, dtype=np.uint64)
    values = bits.view(np.float64)
    tiny = np.finfo(np.float64).smallest_normal
    special = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny,
               np.nextafter(tiny, 0.0), np.finfo(np.float64).max,
               np.finfo(np.float64).min, 1.0, np.nextafter(1.0, 2.0)]
    values = np.concatenate([special, values[np.isfinite(values)]])
    values = values[:len(values) // 8 * 8].reshape(-1, 8)
    emb = {f"u{i:04d}": row for i, row in enumerate(values)}
    path = tmp_path / "e.tsv"
    path.write_text(pipeline.embeddings_tsv(emb), encoding="utf-8")
    back = pipeline.read_embeddings(path, whole=True)
    assert back.keys() == emb.keys()
    assert all(back[u].view(np.uint64).tolist() == emb[u].view(np.uint64)
               .tolist() for u in emb)


# every cached stage of a _TINY_RUN, but the synth corpus's
_TINY_STAGES = sorted([*pipeline.MARGINALS, "gop",
                       *(f"{stage}_{name}" for stage in ("svr", "ff")
                         for name in pipeline.EMBEDDED)])


def _computed_stages(monkeypatch) -> list:
    """The name of each stage that StageCache.run computes from now."""
    run, computed = pipeline.StageCache.run, []

    def spied(self, name, key, artifacts, compute, load):
        def counted():
            computed.append(name)
            return compute()
        return run(self, name, key, artifacts, counted, load)

    monkeypatch.setattr(pipeline.StageCache, "run", spied)
    return computed


def _refuse(monkeypatch, *targets) -> None:
    """Make each (module, function name) of `targets` raise."""
    def refused(*args, **kwargs):
        raise AssertionError("a cached stage's input was parsed or trained on")

    for module, name in targets:
        monkeypatch.setattr(module, name, refused)


# what a fully cached rerun must not call: the parsers of the feature,
# posteriorgram and alignment files, the trainers and the inference pass
_WORK = ((corpus, "read_feature_file"), (corpus, "read_posteriorgram_file"),
         (corpus, "read_alignment_file"), (regress, "svr_train"),
         (pipeline, "train_marginal"), (pipeline, "infer"))


@pytest.mark.parametrize("source", ["synth", "manifest"])
def test_fully_cached_rerun_parses_and_trains_nothing(tmp_path, monkeypatch,
                                                      source):
    """A rerun whose stages all hit parses no feature, posteriorgram or
    alignment file, trains nothing and writes no file but the report, with
    the same bytes. --force recomputes every stage."""
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
    cfg = dict(_TINY_RUN, work_dir=str(tmp_path / "work"))
    if source == "manifest":
        cfg["corpus"] = {"manifest": str(save_corpus(
            synth_corpus(TINY_SYNTH)[0], tmp_path / "corpus"))}
    first = run_pipeline(cfg)
    files = _files(tmp_path)
    with monkeypatch.context() as m:
        _refuse(m, *_WORK)
        rerun = run_pipeline(cfg)
    after = _files(tmp_path)
    report = first.report_path.relative_to(tmp_path)
    assert after.pop(report)[0] == files[report][0]
    assert after == {p: f for p, f in files.items() if p != report}
    assert rerun.report_rows == first.report_rows
    computed = _computed_stages(monkeypatch)
    run_pipeline(cfg, force=True)
    assert sorted(computed) == sorted(
        _TINY_STAGES + ["synth"] * (source == "synth"))
    assert {p: b for p, (b, _) in _files(tmp_path).items()} == \
        {p: b for p, (b, _) in files.items()}


def test_fully_cached_preset_rerun_parses_and_trains_nothing(pipeline_runs,
                                                             monkeypatch):
    work = pipeline_runs["dirs"][1]
    files = _files(work / "models"), _files(work / "corpus")
    _refuse(monkeypatch, *_WORK)
    rerun = run_pipeline(default_config(str(work)))
    assert (_files(work / "models"), _files(work / "corpus")) == files
    assert rerun.report_path.read_bytes() == \
        pipeline_runs["results"][1].report_path.read_bytes()


def test_each_stage_key_covers_the_files_it_reads(tmp_path, monkeypatch):
    """A posteriorgram rewritten under the same manifest reruns GOP and the
    feature fusions, and only them; a rewritten feature file retrains the
    models, and every stage runs again. Each rerun writes what a run in a
    fresh work dir writes."""
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
    tiny = synth_corpus(TINY_SYNTH)[0]
    root = tmp_path / "corpus"
    manifest = save_corpus(tiny, root)
    computed = _computed_stages(monkeypatch)
    fresh = itertools.count()

    def run():
        """The models of a rerun in work dir "a", checked against a fresh
        run's in another, and the stages that the rerun computed."""
        out = []
        for work in ("a", f"fresh{next(fresh)}"):
            computed.clear()
            result = run_pipeline(dict(_TINY_RUN, work_dir=str(tmp_path / work),
                                       corpus={"manifest": str(manifest)}))
            out.append(({p.name: b for p, (b, _) in
                         _files(tmp_path / work / "models").items()},
                        result.report_path.read_bytes(), sorted(computed)))
        assert out[0][:2] == out[1][:2]
        return out[0][0], out[0][2]

    before, _ = run()
    uid = tiny.splits.eval_ids[0]
    pg = tiny.posteriors[uid]
    corpus.write_posteriorgram_file(root / "posteriors" / f"{uid}.post",
                                    replace(pg, post=np.roll(pg.post, 1, 1)))
    after, stages = run()
    assert stages == ["ff_dnf", "ff_ivector", "ff_nf", "gop"]
    assert after["gop.score"] != before["gop.score"]
    assert [p for p in after if after[p] != before[p]
            and not p.startswith(("gop.", "ff_"))] == []
    uid = tiny.splits.train_ids[0]  # one that the models train on
    fs = tiny.features[uid]
    corpus.write_feature_file(root / "features" / f"{uid}.feat",
                              replace(fs, frames=fs.frames + 0.5))
    rewritten, stages = run()
    assert stages == _TINY_STAGES
    assert rewritten["gmm.pgmm"] != after["gmm.pgmm"]


def test_a_feature_file_rewritten_mid_run(tmp_path, monkeypatch):
    """A corpus key is hashed before any stage parses its files, so a
    feature file rewritten while a run parses it makes the next run compute
    a new key and recompute every stage keyed on the corpus, writing what a
    run in a fresh work dir on the rewritten corpus writes."""
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
    tiny = synth_corpus(TINY_SYNTH)[0]
    manifest = save_corpus(tiny, tmp_path / "corpus")
    uid = sorted(tiny.features)[0]  # the first feature file parsed
    assert uid in tiny.splits.train_ids
    read, calls = corpus.read_feature_file, []

    def rewriting(path, *args, **kwargs):
        if not calls:
            fs = tiny.features[uid]
            corpus.write_feature_file(path, replace(fs, frames=fs.frames + 0.5))
        calls.append(Path(path).stem)
        return read(path, *args, **kwargs)

    def run(work):
        return run_pipeline(dict(_TINY_RUN, work_dir=str(tmp_path / work),
                                 corpus={"manifest": str(manifest)}))

    with monkeypatch.context() as m:
        m.setattr(corpus, "read_feature_file", rewriting)
        run("a")
    assert calls[0] == uid
    computed = _computed_stages(monkeypatch)
    rerun = run("a")
    assert sorted(computed) == _TINY_STAGES
    fresh = run("b")
    assert (tmp_path / "a" / "models" / "gmm.pgmm").read_bytes() == \
        (tmp_path / "b" / "models" / "gmm.pgmm").read_bytes()
    assert rerun.report_path.read_bytes() == fresh.report_path.read_bytes()


def test_a_rewritten_synth_corpus_retrains(tmp_path, monkeypatch):
    """A run's synthetic corpus rewritten on disk, as `proscore synth --out`
    rewrites it, is keyed on its new bytes: the rerun recomputes every
    stage keyed on the corpus and writes the models and report of a fresh
    run on the rewritten corpus."""
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
    cfg = dict(_TINY_RUN, work_dir=str(tmp_path / "a"))
    run_pipeline(cfg)
    root = tmp_path / "a" / "corpus"
    pipeline.write_synth_corpus(replace(TINY_SYNTH, seed=12), root)
    computed = _computed_stages(monkeypatch)
    rerun = run_pipeline(cfg)
    assert sorted(computed) == _TINY_STAGES
    fresh = run_pipeline(dict(_TINY_RUN, work_dir=str(tmp_path / "b"),
                              corpus={"manifest": str(root / "manifest.tsv")}))
    models = [{p: b for p, (b, _) in _files(tmp_path / work / "models").items()}
              for work in ("a", "b")]
    assert models[0] == models[1]
    assert rerun.report_path.read_bytes() == fresh.report_path.read_bytes()


def test_a_run_reads_each_corpus_file_at_most_twice(tmp_path, monkeypatch):
    """A cold run reads every file of a manifest corpus at most twice: to
    hash it and to parse it. A warm rerun reads each feature, posteriorgram
    and alignment file once, to hash it, and parses none."""
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
    root = tmp_path / "corpus"
    manifest = save_corpus(synth_corpus(TINY_SYNTH)[0], root)
    cfg = dict(_TINY_RUN, work_dir=str(tmp_path / "work"),
               corpus={"manifest": str(manifest)})
    load, reads = formats.load, Counter()

    def counted(path, *args, **kwargs):
        reads[Path(path)] += 1
        return load(path, *args, **kwargs)

    monkeypatch.setattr(formats, "load", counted)
    files = [p for p in root.rglob("*") if p.is_file()]
    run_pipeline(cfg)
    assert {reads[p] for p in files} <= {1, 2}
    reads.clear()
    with monkeypatch.context() as m:
        _refuse(m, *_WORK[:3])
        run_pipeline(cfg)
    frames = [p for p in files if p.suffix in (".feat", ".post")
              or p.name == "alignments.tsv"]
    assert {p: reads[p] for p in frames} == dict.fromkeys(frames, 1)


@pytest.mark.parametrize("name", ["gop.score", "ff_ivector.pred"])
def test_cut_gop_or_feature_fusion_file(tmp_path, capsys, name):
    """GOP or feature-fusion predictions cut short under a valid stamp are
    a data error that names the file; without its stamp the file is
    computed again."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dict(_TINY_RUN, systems=["gop", "ivector"])))
    assert main(["run", str(config)]) == 0
    path = tmp_path / "models" / name
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {path}: ")
    (tmp_path / "models" / f"{path.stem}.digest").unlink()
    assert main(["run", str(config)]) == 0
    assert path.read_bytes() == raw


def test_pool_run_writes_only_models_and_reports(tmp_path, monkeypatch):
    """A run on a manifest corpus in two workers writes no file outside
    model_dir and report_dir: none in the work dir, none by the corpus."""
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
    manifest = save_corpus(synth_corpus(TINY_SYNTH)[0], tmp_path / "corpus")
    before = _files(tmp_path / "corpus")
    work = tmp_path / "work"
    run_pipeline(dict(_TINY_RUN, corpus={"manifest": str(manifest)},
                      work_dir=str(work), model_dir=str(tmp_path / "models"),
                      report_dir=str(tmp_path / "reports"),
                      systems=["gop", "gmm", "nf"]))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus", "models", "reports"]
    assert _files(tmp_path / "corpus") == before
    assert (tmp_path / "models" / "nf.digest").exists()


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env(threads: dict) -> dict:
    """This process's environment with proscore importable and the BLAS
    thread variables replaced by `threads`."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    src = str(Path(pipeline.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return {**env, **threads}


def _python(args, threads: dict) -> str:
    """Run `python ARGS` in _env(threads)."""
    proc = subprocess.run([sys.executable, *args], env=_env(threads),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_process_runs_one_blas_thread():
    """Importing proscore sets the three thread variables to 1 over the
    caller's values (MKL's unset), in its own process and in a pool
    worker."""
    script = f"""
import json, os, proscore
from proscore import pipeline
with pipeline._pool(1) as pool:
    worker = [pool.submit(os.getenv, n).result() for n in {_THREAD_VARS}]
print(json.dumps([[os.getenv(n) for n in {_THREAD_VARS}], worker]))
"""
    out = _python(["-c", script], {"OPENBLAS_NUM_THREADS": "4",
                                   "OMP_NUM_THREADS": "3"})
    assert json.loads(out) == [["1", "1", "1"], ["1", "1", "1"]]


def test_svr_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    """`train-svr` on the preset corpus writes the same model whatever
    BLAS thread count its caller asks for."""
    preset, _ = synth_corpus(corpus.SynthConfig())
    manifest = save_corpus(preset, tmp_path)
    rng = np.random.default_rng(5)
    emb = tmp_path / "emb.tsv"
    emb.write_text(formats.tsv((uid, *rng.standard_normal(16))
                               for uid in sorted(preset.features)))
    models = []
    for threads in ("1", "2"):
        out = tmp_path / f"svr{threads}.psvr"
        _python(["-m", "proscore.cli", "train-svr", "--manifest",
                 str(manifest), "--embeddings", str(emb), "--out", str(out)],
                dict.fromkeys(_THREAD_VARS, threads))
        models.append(out.read_bytes())
    assert models[0] == models[1]


def test_unguarded_script_fails_instead_of_hanging(tmp_path):
    """A script that runs the pipeline with no __main__ guard runs it again
    in each spawned worker as it imports the script, and starting a pool
    there fails. The run then fails with BrokenProcessPool, on the preset
    corpus too, whose train split far outgrows a pipe: a task carries only
    small arguments. The workers' own runs, under another work dir, reach
    their pool before they fail."""
    preset, _ = synth_corpus(corpus.SynthConfig())
    manifest = save_corpus(preset, tmp_path / "corpus")
    work = tmp_path / "work"
    cfg = {"seed": 7, "work_dir": str(work),
           "corpus": {"manifest": str(manifest)},
           "systems": ["gop", "gmm", "nf"],
           "gmm": {"components": 2, "iters": 3}, "nf": _TINY_FLOW}
    script = tmp_path / "unguarded.py"
    pools = tmp_path / "nested_pools.txt"
    script.write_text("from proscore import pipeline\n"
                      "pipeline._cpu_count = lambda: 2\n"
                      f"cfg = {cfg!r}\n"
                      "if __name__ != '__main__':\n"
                      f"    cfg['work_dir'] = {str(tmp_path / 'nested')!r}\n"
                      "    pool = pipeline._pool\n"
                      "    def recorded(workers):\n"
                      f"        with open({str(pools)!r}, 'a') as r:\n"
                      "            r.write(f'{workers}\\n')\n"
                      "        return pool(workers)\n"
                      "    pipeline._pool = recorded\n"
                      "pipeline.run_pipeline(cfg)\n")
    try:
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                              env=_env({}), capture_output=True, text=True,
                              timeout=90)
    except subprocess.TimeoutExpired:
        pytest.fail("an unguarded script hung")
    assert proc.returncode != 0
    assert "BrokenProcessPool" in proc.stderr
    assert list(work.rglob("*.pickle")) == []
    assert set(pools.read_text().split()) == {"2"}  # a nested run's pool


def _session(sid: int) -> list:
    """(pid, parent pid) of each live process of session `sid`, as /proc
    lists them; a zombie is not live."""
    procs = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # it exited after the listing
            continue
        state, ppid, _group, session = stat.rsplit(")", 1)[1].split()[:4]
        if int(session) == sid and state != "Z":
            procs.append((int(entry), int(ppid)))
    return procs


@pytest.mark.skipif(sys.platform != "linux",
                    reason="workers die with their parent through prctl")
def test_killed_run_leaves_no_process_and_no_file(tmp_path):
    """SIGKILL of a `proscore run` (what timeout(1), a job scheduler or the
    OOM killer sends) while a worker still trains kills its workers too,
    and then multiprocessing's resource tracker exits. A rerun in the same
    work dir exits 0 and finds no file of the killed run there."""
    config = tmp_path / "cfg.json"
    cfg = dict(_TINY_RUN, systems=["gop", "gmm", "nf"])
    config.write_text(json.dumps(dict(cfg, nf=dict(_TINY_FLOW,
                                                   epochs=100000))))
    run = ("from proscore import cli, pipeline\n"
           "pipeline._cpu_count = lambda: 2\n"
           f"raise SystemExit(cli.main(['run', {str(config)!r}]))\n")
    proc = subprocess.Popen([sys.executable, "-c", run], env=_env({}),
                            start_new_session=True, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        # the GMM's stamp is written once its worker has trained it, while
        # the other worker trains the NF
        deadline = time.monotonic() + 60
        while not (tmp_path / "models" / "gmm.digest").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        assert len([p for p, parent in _session(proc.pid)
                    if parent == proc.pid]) >= 2
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5
        while _session(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _session(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the session is gone, as it should be
            pass
        proc.wait()
    config.write_text(json.dumps(cfg))
    assert main(["run", str(config)]) == 0
    assert list(tmp_path.glob("tmp*")) == []


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the session's processes are listed from /proc")
@pytest.mark.parametrize("fault", ["eval-feature-dim", "ivector-dim"])
def test_a_fault_this_process_finds_stops_the_workers(tmp_path, fault):
    """A data fault that the calling process finds while two workers train,
    an eval feature file of another dim (which no worker reads) or an
    i-vector dim above its bound, kills the workers at once: the run exits
    2 long before the NF's 100000 epochs end, writes no model and leaves
    no process behind."""
    cfg = dict(_TINY_RUN, systems=["gop", "gmm", "nf"],
               nf=dict(_TINY_FLOW, epochs=100000))
    if fault == "eval-feature-dim":
        manifest, uid = _wider_file(tmp_path, "eval")
        message = f"inconsistent feature dims across corpus: {uid} has 7, "
    else:
        manifest = save_corpus(synth_corpus(TINY_SYNTH)[0], tmp_path / "corpus")
        cfg.update(systems=cfg["systems"] + ["ivector"],
                   ivector=dict(_TINY_RUN["ivector"], dim=13))
        message = "i-vector dim R=13 must be <= K*D=12"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dict(cfg, corpus={"manifest": str(manifest)})))
    run = ("from proscore import cli, pipeline\n"
           "pipeline._cpu_count = lambda: 2\n"
           f"raise SystemExit(cli.main(['run', {str(config)!r}]))\n")
    proc = subprocess.Popen([sys.executable, "-c", run], env=_env({}),
                            start_new_session=True, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 2
        assert err.startswith(f"data error: {message}")
        deadline = time.monotonic() + 5
        while _session(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _session(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the session is gone, as it should be
            pass
        proc.wait()
    assert list((tmp_path / "models").iterdir()) == []


def test_one_utterance_dev_split_fails_before_training(tmp_path, capsys):
    """dev_fraction 0 leaves a synth corpus one dev utterance, too few to
    pick a score-fusion weight on: the run fails before any stage trains,
    naming the dev split and its size. Feature fusion uses no dev split."""
    cfg = {"seed": 7, "corpus": {"synth": dict(vars(TINY_SYNTH),
                                               dev_fraction=0.0)},
           "systems": ["gop", "ivector"], "ivector": _TINY_RUN["ivector"]}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err.startswith(
        "data error: score fusion needs two dev-split utterances with"
        " different labels; the dev split has 1 utterance(s)")
    assert list((tmp_path / "models").glob("*")) == []
    config.write_text(json.dumps(dict(cfg, fusion={"modes": ["feature"]})))
    assert main(["run", str(config)]) == 0
    assert (tmp_path / "models" / "svr_ivector.psvr").exists()


@pytest.mark.parametrize("stage, setting, code, message", [
    ("nf", {"learning_rate": 1e6}, 3,
     "training divergence: training diverged at epoch 0"),
    ("dnf", {"batch_size": 100000}, 2,
     "data error: need at least batch_size=100000 frames"),
])
def test_worker_failure_exits_as_in_process(tmp_path, monkeypatch, capsys,
                                            stage, setting, code, message):
    """A stage that fails in a worker exits with the code and message it
    has in this process, leaves no stamp and no worker behind."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(
        dict(_TINY_RUN, **{stage: dict(_TINY_FLOW, **setting)})))
    for workers in (2, 1):
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: workers)
        assert main(["run", str(config), "--force"]) == code
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err.startswith(message)
        assert not (tmp_path / "models" / f"{stage}.digest").exists()
        assert (tmp_path / "models" / "gmm.digest").exists()
        assert multiprocessing.active_children() == []


def _reversed_arrivals(futures: dict):
    """The trained models in the reverse of MARGINALS order, so that
    ivector arrives first and gmm last, whatever order they were sent in."""
    return sorted(futures.items(),
                  key=lambda item: pipeline.MARGINALS.index(item[0]),
                  reverse=True)


def _saved_names(monkeypatch) -> list:
    """The names of the model files that pipeline.save_model writes from
    now, in the order written."""
    save, names = pipeline.save_model, []

    def spied(path, model):
        names.append(Path(path).name)
        return save(path, model)

    monkeypatch.setattr(pipeline, "save_model", spied)
    return names


def test_arrival_order_changes_no_output(tmp_path, monkeypatch):
    """Models that arrive in reverse order are each followed downstream at
    once, and the run writes what a run of one worker writes."""
    saved = _saved_names(monkeypatch)
    monkeypatch.setattr(pipeline, "_arrivals", _reversed_arrivals)
    out, order = {}, {}
    for workers in (1, 2):
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: workers)
        work = tmp_path / f"w{workers}"
        saved.clear()
        result = run_pipeline(dict(_TINY_RUN, work_dir=str(work)))
        order[workers] = list(saved)
        out[workers] = ({p: b for p, (b, _) in _files(work / "models").items()},
                        result.report_path.read_bytes(), result.report_rows,
                        list(result.score_tables), list(result.lambdas))
    assert order[1] == ["gmm.pgmm", "nf.pnf1", "svr_nf.psvr", "dnf.pdnf",
                        "svr_dnf.psvr", "ivector.pivm", "svr_ivector.psvr"]
    assert order[2] == ["ivector.pivm", "svr_ivector.psvr", "dnf.pdnf",
                        "svr_dnf.psvr", "nf.pnf1", "svr_nf.psvr", "gmm.pgmm"]
    # 7 models, 5 inference files, GOP, 3 SVR and 3 feature-fusion
    # prediction files and the stamps of 11 stages
    assert len(out[1][0]) == 30
    assert out[1] == out[2]
    assert out[1][3] == out[1][4] == ["ivector", "nf", "dnf"]
    assert [r.system for r in out[1][2]][:7] == [
        "human", "gop", "gmm_loglik", "nf_loglik", "ivector_svr", "nf_svr",
        "dnf_svr"]


@pytest.mark.parametrize("failing, code", [(("dnf",), 2), (("nf", "dnf"), 3)])
def test_failed_run_saves_the_same_models_in_any_arrival_order(
        tmp_path, monkeypatch, capsys, failing, code):
    """Every marginal model that trained is saved, with the SVR that
    follows it, and the run exits as the first failing stage in MARGINALS
    order does, whichever worker finishes first: here the failing stages
    arrive before gmm."""
    settings = {"nf": {"learning_rate": 1e6}, "dnf": {"batch_size": 100000}}
    cfg = dict(_TINY_RUN, **{stage: dict(_TINY_FLOW, **settings[stage])
                             for stage in failing})
    saved = _saved_names(monkeypatch)
    files = {}
    for workers, arrivals in ((1, None), (2, None), (2, _reversed_arrivals)):
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: workers)
        if arrivals is not None:
            monkeypatch.setattr(pipeline, "_arrivals", arrivals)
        work = tmp_path / f"w{workers}{arrivals is not None}"
        work.mkdir()
        (work / "cfg.json").write_text(json.dumps(cfg))
        saved.clear()
        assert main(["run", str(work / "cfg.json")]) == code
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith(
            "training divergence" if "nf" in failing else "data error")
        files[workers, arrivals] = tuple(sorted(
            p.name for p in (work / "models").iterdir()))
        assert multiprocessing.active_children() == []
    assert saved[-1] == "gmm.pgmm"  # the reversed run saved gmm last
    assert len(set(files.values())) == 1
    names = files[1, None]
    assert "gmm.digest" in names and "ivector.digest" in names
    assert "svr_ivector.digest" in names
    for stage in failing:
        assert f"{stage}.digest" not in names
        assert f"svr_{stage}.digest" not in names
    assert ("nf.digest" in names) == ("nf" not in failing)


def test_pipeline_demo_runs_only_as_a_script(monkeypatch):
    """A spawned worker imports the main script as __mp_main__; the demo
    must not start a run of its own then."""
    class Ran(Exception):
        pass

    def run(cfg):
        raise Ran

    demo = Path(__file__).parents[1] / "demos" / "03_full_pipeline.py"
    monkeypatch.setattr(pipeline, "run_pipeline", run)
    runpy.run_path(str(demo), run_name="__mp_main__")
    with pytest.raises(Ran):
        runpy.run_path(str(demo), run_name="__main__")

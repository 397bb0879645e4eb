import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from proscore import corpus, dnf, flow, formats, gmm, ivector, pipeline
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
    ubm = pipeline.train_gmm(tiny, {"components": 2, "iters": 3}, 1)
    return tiny, {
        "gmm": pipeline.train_gmm(tiny, {"components": 3, "iters": 3}, 1),
        "ivector": pipeline.train_ivector(tiny, ubm, {"dim": 3, "iters": 2}, 2),
        "nf": pipeline.train_flow(tiny, dict(preset["nf"], **_TINY_FLOW), 3)[0],
        "dnf": pipeline.train_dnf(tiny, dict(preset["dnf"], **_TINY_FLOW), 4)}


def test_infer_equals_the_public_functions(tiny_models):
    tiny, models = tiny_models
    out = {name: pipeline.infer(m, tiny.features) for name, m in models.items()}
    assert out["gmm"][1] is None and out["ivector"][0] is None
    for uid, fs in tiny.features.items():
        assert out["gmm"][0][uid] == gmm.gmm_loglik(models["gmm"], fs)[1]
        np.testing.assert_array_equal(
            out["ivector"][1][uid], ivector.ivector_infer(
                models["ivector"],
                ivector.ubm_stats(models["ivector"].ubm, fs))[0])
        for name, embed in (("nf", flow.flow_embed), ("dnf", dnf.dnf_embed)):
            backbone = models["nf"] if name == "nf" else models["dnf"].backbone
            assert out[name][0][uid] == \
                flow.flow_logprob(backbone, fs.frames).mean()
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
    for name in ("PNF1", "PGMM", "PRF1"):
        monkeypatch.setitem(formats.VERSIONS, name, formats.VERSIONS[name] + 1)
    assert main(["run", str(config)]) == 0, capsys.readouterr().err
    assert (tmp_path / "reports" / "report.tsv").read_bytes() == report
    assert all(f.read_bytes() != b for f, b in zip(files, before))
    pipeline.load_model(files[0])  # each reads in the bumped versions
    pipeline.load_model(files[1])
    load_corpus(tmp_path / "corpus" / "manifest.tsv")

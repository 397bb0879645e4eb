import numpy as np
import pytest

from proscore.corpus import (SPLITS, Corpus, CorpusError, FeatureSequence,
                             PhoneAlignment, PhonePrior, PosteriorGram,
                             RatedUtterance, SplitManifest, SynthConfig,
                             load_corpus, save_corpus, synth_corpus,
                             write_manifest)
from proscore.assess import pcc

from conftest import TINY_SYNTH


# ---------------------------------------------------------------------------
# domain type invariants


def test_feature_sequence_rejects_non_finite():
    with pytest.raises(CorpusError, match="non-finite"):
        FeatureSequence("u", np.array([[1.0, np.nan]]))


def test_feature_sequence_rejects_empty():
    with pytest.raises(CorpusError):
        FeatureSequence("u", np.zeros((0, 3)))


def test_alignment_rejects_overlap_and_empty_segments():
    with pytest.raises(CorpusError):
        PhoneAlignment("u", [(0, 0, 5), (1, 3, 8)])
    with pytest.raises(CorpusError):
        PhoneAlignment("u", [(0, 4, 4)])
    with pytest.raises(CorpusError, match="empty alignment"):
        PhoneAlignment("u", [])


def test_posteriorgram_row_sum_violation_names_row():
    post = np.full((3, 4), 0.25)
    post[1] = 0.225  # row sums to 0.9
    with pytest.raises(CorpusError, match="row 1"):
        PosteriorGram("u", post, ("a", "b", "c", "d"))


def test_phone_prior_uniform_and_validation():
    prior = PhonePrior.uniform(8)
    assert prior.prior.shape == (8,)
    assert abs(prior.prior.sum() - 1.0) < 1e-12
    with pytest.raises(CorpusError):
        PhonePrior(np.array([0.5, 0.6]))


def test_rated_utterance_mean_and_bounds():
    r = RatedUtterance.from_scores("u", [3, 4, 5])
    assert r.mean_score == pytest.approx(4.0)
    with pytest.raises(CorpusError):
        RatedUtterance.from_scores("u", [0, 3])


def test_split_manifest_disjoint_and_coverage():
    with pytest.raises(CorpusError, match="disjoint"):
        SplitManifest(["a", "b"], ["b"], ["c"])
    m = SplitManifest(["a"], ["b"], ["c"])
    m.check_covers(["a", "b", "c"])
    with pytest.raises(CorpusError):
        m.check_covers(["a", "b", "c", "d"])


def test_split_manifest_ids_by_name():
    m = SplitManifest(["a", "d"], ["b"], ["c"])
    assert [m.ids(name) for name in SPLITS] == [("a", "d"), ("b",), ("c",)]


def test_synth_config_rejects_a_nan_scale():
    with pytest.raises(CorpusError, match="scales and noise levels"):
        SynthConfig(speaker_spread=float("nan")).validate()


def test_split_manifest_rejects_an_utterance_listed_twice_in_one_split():
    with pytest.raises(CorpusError, match="spk003_utt00 repeats"):
        SplitManifest(["a"], ["b"], ["spk003_utt00", "c", "spk003_utt00"])


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_corpus_deterministic(tiny_corpus):
    corpus, oracle = tiny_corpus
    corpus2, oracle2 = synth_corpus(TINY_SYNTH)
    assert oracle == oracle2
    for uid in corpus.features:
        np.testing.assert_array_equal(corpus.features[uid].frames,
                                      corpus2.features[uid].frames)
        np.testing.assert_array_equal(corpus.posteriors[uid].post,
                                      corpus2.posteriors[uid].post)


def test_synth_posteriorgram_rows_normalized(tiny_corpus):
    corpus, _ = tiny_corpus
    for pg in corpus.posteriors.values():
        np.testing.assert_allclose(pg.post.sum(axis=1), 1.0, atol=1e-9)


def test_synth_noiseless_labels_are_the_rounded_proficiency():
    cfg = SynthConfig(num_phones=4, feature_dim=5, num_speakers=8,
                      utterances_per_speaker=2, phones_per_utterance=3,
                      proficiency_noise=0.0, label_noise=0.0, seed=3)
    corpus, oracle = synth_corpus(cfg)
    for uid, rho in oracle.items():
        expected = float(np.clip(np.rint(1.0 + 4.0 * rho), 1, 5))
        assert corpus.labels[uid].mean_score == expected


def test_synth_oracle_correlates_with_labels(tiny_corpus):
    corpus, oracle = tiny_corpus
    ids = sorted(oracle)
    rho = np.array([oracle[u] for u in ids])
    labels = np.array([corpus.labels[u].mean_score for u in ids])
    assert pcc(rho, labels) > 0.9


def test_synth_splits_speaker_disjoint(tiny_corpus):
    corpus, _ = tiny_corpus
    spk = lambda uid: uid.split("_")[0]
    train_spk = {spk(u) for u in corpus.splits.train_ids}
    train_spk |= {spk(u) for u in corpus.splits.dev_ids}
    eval_spk = {spk(u) for u in corpus.splits.eval_ids}
    assert not train_spk & eval_spk


def test_synth_config_validation():
    with pytest.raises(CorpusError):
        SynthConfig(num_phones=0).validate()
    with pytest.raises(CorpusError):
        SynthConfig(frames_per_phone=(5, 3)).validate()
    with pytest.raises(CorpusError):
        SynthConfig(eval_fraction=1.5).validate()


# ---------------------------------------------------------------------------
# corpus file I/O


def test_save_load_round_trip(tiny_corpus, tmp_path):
    corpus, _ = tiny_corpus
    manifest = save_corpus(corpus, tmp_path)
    loaded = load_corpus(manifest)
    assert set(loaded.features) == set(corpus.features)
    assert loaded.phone_table == corpus.phone_table
    assert loaded.splits == corpus.splits
    for uid in corpus.features:
        np.testing.assert_array_equal(loaded.features[uid].frames,
                                      corpus.features[uid].frames)
        np.testing.assert_array_equal(loaded.posteriors[uid].post,
                                      corpus.posteriors[uid].post)
        assert loaded.alignments[uid].segments == corpus.alignments[uid].segments
        assert loaded.labels[uid] == corpus.labels[uid]


def test_load_empty_corpus_errors(tmp_path):
    (tmp_path / "features").mkdir()
    (tmp_path / "posteriors").mkdir()
    for name in ("alignments.tsv", "labels.tsv", "splits.tsv"):
        (tmp_path / name).write_text("")
    manifest = tmp_path / "manifest.tsv"
    write_manifest(manifest, {"features": "features",
                              "alignments": "alignments.tsv",
                              "posteriors": "posteriors",
                              "labels": "labels.tsv",
                              "splits": "splits.tsv"})
    with pytest.raises(CorpusError, match="empty corpus"):
        load_corpus(manifest)


def test_load_missing_manifest_role(tmp_path):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("features\tfeatures\n")
    with pytest.raises(CorpusError, match="missing roles"):
        load_corpus(manifest)


def test_validate_catches_cross_references(tiny_corpus):
    corpus, _ = tiny_corpus
    uid = sorted(corpus.features)[0]
    bad = Corpus(dict(corpus.features), dict(corpus.alignments),
                 dict(corpus.posteriors), dict(corpus.labels),
                 corpus.splits, corpus.phone_table)
    bad.alignments["ghost"] = corpus.alignments[uid]
    with pytest.raises(CorpusError, match="unknown utterance"):
        bad.validate()

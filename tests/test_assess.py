import numpy as np
import pytest

from proscore.assess import (FusionConfig, ScoreRow, ScoreTable, evaluate,
                             feature_fuse, fusion_stats,
                             inter_rater_pcc, pcc, read_score_table,
                             report_to_tsv, ReportRow, score_fuse,
                             score_table_to_tsv, select_lambda)
from proscore.corpus import SplitManifest
from proscore.formats import DataError
from proscore.regress import svr_predict_batch, svr_train


def _table(gops, preds, labels, ids=None):
    ids = ids or [f"u{i}" for i in range(len(gops))]
    return ScoreTable(tuple(
        ScoreRow(u, g, p, m) for u, g, p, m in zip(ids, gops, preds, labels)))


# ---------------------------------------------------------------------------
# pcc


def test_pcc_reference_values():
    xs = np.array([1.0, 2.0, 3.0])
    assert pcc(xs, xs) == pytest.approx(1.0)
    assert pcc(xs, -xs) == pytest.approx(-1.0)
    assert pcc(xs, np.array([1.0, 2.0, 4.0])) == pytest.approx(
        0.981981, abs=1e-6)


def test_pcc_affine_invariance():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20)
    y = rng.standard_normal(20)
    base = pcc(x, y)
    assert pcc(3.0 * x + 5.0, y) == pytest.approx(base, abs=1e-12)
    assert pcc(-2.0 * x + 1.0, y) == pytest.approx(-base, abs=1e-12)


def test_pcc_errors():
    with pytest.raises(DataError, match="constant"):
        pcc(np.ones(5), np.arange(5.0))
    with pytest.raises(DataError, match="length mismatch"):
        pcc(np.zeros(3), np.zeros(4))
    with pytest.raises(DataError, match="at least 2"):
        pcc(np.zeros(1), np.zeros(1))


# ---------------------------------------------------------------------------
# score table


def test_score_table_rejects_duplicates_and_nonfinite():
    with pytest.raises(DataError, match="duplicate"):
        _table([0.0, 0.0], [1.0, 1.0], [2.0, 2.0], ids=["a", "a"])
    with pytest.raises(DataError, match="non-finite"):
        _table([np.inf], [1.0], [2.0])
    with pytest.raises(DataError, match="non-finite"):
        _table([1.0], [np.nan], [2.0])
    with pytest.raises(DataError, match="infinite label_mean"):
        _table([1.0], [2.0], [-np.inf])


def test_unlabeled_rows_are_kept_but_not_correlated():
    """A nan label_mean marks an unlabeled utterance: the table holds it,
    and only a correlation over it fails, naming the first one."""
    t = _table([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 3.0, 2.0],
               [1.0, np.nan, 3.0, np.nan])
    labeled = t.subset(["u0", "u2"])
    np.testing.assert_array_equal(labeled.labels(), [1.0, 3.0])
    assert evaluate(t, _split_for(["u0", "u2"]))[0].pcc == pytest.approx(1.0)
    with pytest.raises(DataError, match="u1: unlabeled"):
        evaluate(t, _split_for(["u0", "u1", "u2", "u3"]))
    with pytest.raises(DataError, match="u1: unlabeled"):
        select_lambda(t)


def test_score_table_subset_and_missing():
    t = _table([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [3.0, 4.0, 5.0])
    sub = t.subset(["u0", "u2"])
    assert [r.utterance_id for r in sub.rows] == ["u0", "u2"]
    with pytest.raises(DataError, match="missing"):
        t.subset(["u0", "ghost"])


def test_score_table_tsv_round_trip(tmp_path):
    t = _table([-3.5, -1.25], [2.5, 4.0], [3.0, 4.2])
    fused = score_fuse(t, FusionConfig(0.5, "none"))
    path = tmp_path / "scores.tsv"
    path.write_text(score_table_to_tsv(fused), encoding="utf-8")
    back = read_score_table(path)
    assert back == fused


# ---------------------------------------------------------------------------
# fusion


def test_score_fuse_endpoints_preserve_ranking():
    rng = np.random.default_rng(1)
    t = _table(rng.standard_normal(10), rng.standard_normal(10),
               rng.uniform(1, 5, 10))
    stats = fusion_stats(t)
    f1 = score_fuse(t, FusionConfig(1.0), stats).column("fused")
    f0 = score_fuse(t, FusionConfig(0.0), stats).column("fused")
    np.testing.assert_array_equal(np.argsort(f1), np.argsort(t.column("gop")))
    np.testing.assert_array_equal(np.argsort(f0),
                                  np.argsort(t.column("predicted")))


def test_score_fuse_midpoint_of_normalized_components():
    # components that normalize to exactly +1 and -1 fuse to 0 at 0.5
    t = _table([1.0, -1.0], [-1.0, 1.0], [5.0, 1.0])
    stats = {"gop": (0.0, 1.0), "predicted": (0.0, 1.0)}
    fused = score_fuse(t, FusionConfig(0.5), stats).column("fused")
    np.testing.assert_allclose(fused, [0.0, 0.0], atol=1e-12)


def test_score_fuse_requires_stats_for_zscore():
    t = _table([0.0], [1.0], [2.0])
    with pytest.raises(ValueError, match="normalization stats"):
        score_fuse(t, FusionConfig(0.5))


def test_fusion_config_validation():
    with pytest.raises(ValueError, match=r"lambda must lie in \[0,1\]"):
        FusionConfig(1.5)
    with pytest.raises(ValueError, match="unknown normalization"):
        FusionConfig(0.5, "minmax")


def test_select_lambda_perfect_predictor():
    rng = np.random.default_rng(2)
    labels = rng.uniform(1, 5, 40)
    t = _table(rng.standard_normal(40), labels, labels)
    lam, curve = select_lambda(t)
    assert lam == 0.0
    assert len(curve) == 51


def test_select_lambda_dominates_endpoints():
    rng = np.random.default_rng(3)
    labels = rng.uniform(1, 5, 60)
    t = _table(labels + rng.standard_normal(60),
               labels + rng.standard_normal(60), labels)
    lam, curve = select_lambda(t)
    vals = dict(curve)
    assert vals[lam] >= max(vals[0.0], vals[1.0])


def test_select_lambda_interior_for_complementary_scores():
    rng = np.random.default_rng(4)
    labels = rng.uniform(1, 5, 200)
    gop = labels + 0.8 * rng.standard_normal(200)
    pred = labels + 0.8 * rng.standard_normal(200)
    t = _table(gop, pred, labels)
    lam, _ = select_lambda(t)
    assert 0.0 < lam < 1.0


def test_select_lambda_tie_breaks_small():
    # identical components: every lambda gives the same PCC
    rng = np.random.default_rng(5)
    labels = rng.uniform(1, 5, 30)
    score = labels + 0.1 * rng.standard_normal(30)
    t = _table(score, score, labels)
    lam, curve = select_lambda(t)
    # the premise: the curve is flat up to rounding
    assert all(abs(v - curve[0][1]) <= 1e-12 for _, v in curve)
    assert lam == 0.0


def test_select_lambda_skips_a_constant_fused_column():
    # the standardized components of two dev points are ordered oppositely,
    # so the fused dev column is [0, 0] at lambda 0.5
    t = _table([0.0, 1.0], [1.0, 0.0], [1.0, 2.0])
    lam, curve = select_lambda(t)
    vals = dict(curve)
    assert np.isnan(vals[0.5])
    assert vals[0.48] == -1.0 and vals[0.52] == 1.0
    assert lam == 0.52


def test_select_lambda_with_no_pcc_names_the_split():
    t = _table([1.0, 1.0], [2.0, 2.0], [1.0, 2.0])
    with pytest.raises(DataError, match="dev split: the fused dev score is"
                                          " constant at every weight"):
        select_lambda(t)


def test_select_lambda_errors():
    t = _table([0.0, 1.0], [1.0, 2.0], [3.0, 3.0])
    with pytest.raises(DataError, match="degenerate dev labels"):
        select_lambda(t)
    t2 = _table([0.0, 1.0], [1.0, 2.0], [3.0, 4.0])
    with pytest.raises(ValueError, match="grid_step"):
        select_lambda(t2, grid_step=0.0)


def _score_fuse_grid(table, grid_step, normalization):
    """select_lambda's (lambda, curve) from one score_fuse table per grid
    weight: the oracle of its whole-column form."""
    labels = table.labels()
    stats = fusion_stats(table) if normalization == "zscore" else None
    grid = np.minimum(np.arange(0.0, 1.0 + grid_step / 2, grid_step), 1.0)
    curve, best_lam, best_val = [], None, -np.inf
    for lam in grid:
        cfg = FusionConfig(float(lam), normalization)
        fused = score_fuse(table, cfg, stats).column("fused")
        try:
            val = pcc(fused, labels)
        except DataError:
            val = float("nan")
        curve.append((float(lam), val))
        if val > best_val + 1e-12:
            best_lam, best_val = float(lam), val
    return best_lam, curve


@pytest.mark.parametrize("normalization", ["zscore", "none"])
def test_select_lambda_matches_the_score_fuse_curve(normalization):
    """Every PCC of the curve, nan included, and the weight chosen equal
    those of score_fuse's fused columns bit for bit, on random tables with
    and without tied scores."""
    rng = np.random.default_rng(3)
    tables = [_table([0.0, 1.0], [1.0, 0.0], [1.0, 2.0])]  # nan at 0.5
    for n in (2, 3, 5, 25, 100):
        for k in range(12):
            labels = rng.integers(1, 6, n).astype(float)
            labels[:2] = (1.0, 5.0)
            gops = rng.normal(-2.0, rng.uniform(0.01, 3.0), n)
            preds = labels + rng.normal(0.0, rng.uniform(0.1, 3.0), n)
            if k % 3 == 0:  # tied scores
                gops, preds = np.round(gops), np.round(preds)
            tables.append(_table(gops, preds, labels))
    for table in tables:
        for step in (0.02, 0.1, 0.3):
            lam, curve = select_lambda(table, step, normalization)
            want_lam, want_curve = _score_fuse_grid(table, step, normalization)
            assert lam == want_lam
            assert np.array(curve).tobytes() == np.array(want_curve).tobytes()


def test_feature_fuse_layout():
    rng = np.random.default_rng(6)
    emb = rng.standard_normal((10, 3))
    gop = rng.standard_normal(10)
    fused = feature_fuse(emb, gop)
    assert fused.shape == (10, 4)
    np.testing.assert_array_equal(fused[:, :3], emb)
    np.testing.assert_array_equal(fused[:, 3], gop)


def test_svr_standardizes_the_fused_gop_column():
    """svr_train standardizes every column with train-split statistics, so
    standardizing the GOP column before it moves no prediction."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((60, 4))
        gop = -3.0 + 0.7 * rng.standard_normal(60)
        y = 3.0 + emb[:, 0] + gop + 0.1 * rng.standard_normal(60)
        standardized = (gop - gop.mean()) / gop.std()
        preds = []
        for col in (gop, standardized):
            X = np.hstack([emb, col[:, None]])
            preds.append(svr_predict_batch(svr_train(X[:40], y[:40]), X[40:]))
        np.testing.assert_allclose(preds[0], preds[1], rtol=0, atol=1e-9)


def test_feature_fuse_empty_embedding():
    gop = np.array([1.0, 3.0])
    fused = feature_fuse(np.zeros((2, 0)), gop)
    assert fused.shape == (2, 1)
    with pytest.raises(DataError, match="length mismatch"):
        feature_fuse(np.zeros((3, 2)), gop)


# ---------------------------------------------------------------------------
# inter-rater agreement


def test_inter_rater_identical_and_negated():
    base = np.array([1.0, 2.0, 3.0, 4.0])
    assert inter_rater_pcc(np.column_stack([base, base, base])) == pytest.approx(1.0)
    assert inter_rater_pcc(np.column_stack([base, -base])) == pytest.approx(-1.0)


def test_inter_rater_matches_pairwise_oracle():
    rng = np.random.default_rng(7)
    ratings = rng.uniform(1, 5, (5, 3))
    expected = np.mean([pcc(ratings[:, a], ratings[:, b])
                        for a in range(3) for b in range(a + 1, 3)])
    assert inter_rater_pcc(ratings) == pytest.approx(expected, abs=1e-12)


def test_inter_rater_excludes_constant_rater():
    rng = np.random.default_rng(8)
    good = rng.uniform(1, 5, (6, 2))
    ratings = np.column_stack([good, np.full(6, 3.0)])
    with pytest.warns(UserWarning, match="constant"):
        val = inter_rater_pcc(ratings)
    assert val == pytest.approx(pcc(good[:, 0], good[:, 1]))
    with pytest.warns(UserWarning, match="constant scores") as caught:
        with pytest.raises(DataError, match="fewer than 2"):
            inter_rater_pcc(np.full((5, 2), 2.0))
    assert [str(w.message) for w in caught] == [
        f"rater {r} has constant scores; excluded" for r in (0, 1)]


# ---------------------------------------------------------------------------
# evaluation report


def _split_for(ids):
    return SplitManifest((), (), tuple(ids))


def test_evaluate_perfect_predictor():
    rng = np.random.default_rng(9)
    labels = rng.uniform(1, 5, 10)
    t = _table(rng.standard_normal(10), labels, labels)
    rows = evaluate(t, _split_for(r.utterance_id for r in t.rows))
    by_system = {r.system: r for r in rows}
    assert by_system["predicted"].pcc == pytest.approx(1.0)
    assert by_system["gop"].split == "eval"


def test_evaluate_row_order_invariance():
    rng = np.random.default_rng(10)
    labels = rng.uniform(1, 5, 8)
    rows = [ScoreRow(f"u{i}", float(rng.standard_normal()),
                     float(labels[i] + 0.1), float(labels[i]))
            for i in range(8)]
    t1 = ScoreTable(tuple(rows))
    t2 = ScoreTable(tuple(reversed(rows)))
    split = _split_for([r.utterance_id for r in rows])
    assert report_to_tsv(evaluate(t1, split)) == report_to_tsv(evaluate(t2, split))


def test_evaluate_missing_utterance():
    t = _table([0.0, 1.0], [1.0, 2.0], [3.0, 4.0])
    with pytest.raises(DataError, match="missing"):
        evaluate(t, _split_for(["u0", "u1", "ghost"]))


def test_report_tsv_format():
    rows = [ReportRow("gop", "eval", 0.5), ReportRow("fused", "eval", 0.625, 0.36)]
    tsv = report_to_tsv(rows)
    lines = tsv.strip().split("\n")
    assert lines[0] == "system\tsplit\tpcc\tlambda"
    assert lines[1] == "gop\teval\t0.500000\t"
    assert lines[2] == "fused\teval\t0.625000\t0.36"

import tracemalloc

import numpy as np
import pytest

from proscore import gmm
from proscore.corpus import FeatureSequence
from proscore.formats import DataError
from proscore.gmm import GmmModel, gmm_loglik, gmm_train, responsibilities


def _model(weights, means, variances):
    return GmmModel(np.asarray(weights, dtype=np.float64),
                    np.asarray(means, dtype=np.float64),
                    np.asarray(variances, dtype=np.float64))


def test_model_invariants():
    with pytest.raises(DataError, match="simplex"):
        _model([0.5, 0.6], [[0.0], [1.0]], [[1.0], [1.0]])
    with pytest.raises(DataError, match="positive"):
        _model([1.0], [[0.0]], [[0.0]])


def test_standard_normal_loglik():
    m = _model([1.0], [[0.0]], [[1.0]])
    per_frame, mean = gmm_loglik(m, FeatureSequence("u", [[0.0]]))
    assert per_frame[0] == pytest.approx(-0.918939, abs=1e-6)
    assert mean == pytest.approx(-0.918939, abs=1e-6)


def test_loglik_matches_direct_evaluation():
    rng = np.random.default_rng(4)
    K, D = 3, 2
    w = rng.dirichlet(np.ones(K))
    mu = rng.standard_normal((K, D))
    var = rng.uniform(0.5, 2.0, (K, D))
    m = _model(w, mu, var)
    frames = rng.standard_normal((10, D))
    per_frame, _ = gmm_loglik(m, FeatureSequence("u", frames))
    for t in range(10):
        dens = sum(
            w[k] * np.prod(np.exp(-0.5 * (frames[t] - mu[k]) ** 2 / var[k])
                           / np.sqrt(2 * np.pi * var[k]))
            for k in range(K))
        assert per_frame[t] == pytest.approx(np.log(dens), abs=1e-10)


def test_tail_frame_stays_finite():
    m = _model([0.5, 0.5], [[0.0], [1.0]], [[1.0], [1.0]])
    per_frame, _ = gmm_loglik(m, FeatureSequence("u", [[1000.0]]))
    assert np.isfinite(per_frame[0])
    assert per_frame[0] < -1e5


def test_duplicate_frames_keep_utterance_mean():
    rng = np.random.default_rng(6)
    m = _model([1.0], [[0.0, 0.0]], [[1.0, 2.0]])
    frames = rng.standard_normal((5, 2))
    _, mean1 = gmm_loglik(m, FeatureSequence("u", frames))
    _, mean2 = gmm_loglik(m, FeatureSequence("u", np.vstack([frames, frames])))
    assert mean1 == pytest.approx(mean2, abs=1e-12)


def test_responsibilities_normalized():
    rng = np.random.default_rng(7)
    m = _model([0.3, 0.7], [[0.0, 0.0], [2.0, 2.0]], np.ones((2, 2)))
    g = responsibilities(m, rng.standard_normal((20, 2)))
    assert np.all(g >= 0)
    np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)


def test_train_single_component_closed_form():
    rng = np.random.default_rng(8)
    frames = rng.standard_normal((200, 3)) * 2.0 + 1.0
    m, _ = gmm_train(frames, K=1, iters=3, seed=0)
    np.testing.assert_allclose(m.means[0], frames.mean(axis=0), atol=1e-10)
    np.testing.assert_allclose(m.variances[0], frames.var(axis=0), atol=1e-10)
    assert m.weights[0] == pytest.approx(1.0)


def test_train_recovers_separated_clusters():
    rng = np.random.default_rng(9)
    c1 = rng.standard_normal((300, 2)) + [-5.0, 0.0]
    c2 = rng.standard_normal((300, 2)) + [5.0, 0.0]
    m, _ = gmm_train(np.vstack([c1, c2]), K=2, iters=20, seed=1)
    found = m.means[np.argsort(m.means[:, 0])]
    np.testing.assert_allclose(found[0], c1.mean(axis=0), atol=0.1)
    np.testing.assert_allclose(found[1], c2.mean(axis=0), atol=0.1)


def test_train_trace_monotone():
    rng = np.random.default_rng(10)
    frames = np.vstack([rng.standard_normal((150, 3)) + off
                        for off in (-3.0, 0.0, 3.0)])
    _, trace = gmm_train(frames, K=4, iters=50, seed=2)
    assert len(trace) == 51
    diffs = np.diff(trace)
    assert np.all(diffs >= -1e-10 * np.maximum(np.abs(trace[:-1]), 1.0))


def test_train_deterministic():
    rng = np.random.default_rng(11)
    frames = rng.standard_normal((100, 2))
    m1, t1 = gmm_train(frames, K=3, iters=10, seed=5)
    m2, t2 = gmm_train(frames, K=3, iters=10, seed=5)
    np.testing.assert_array_equal(m1.means, m2.means)
    np.testing.assert_array_equal(m1.variances, m2.variances)
    assert t1 == t2


def test_train_errors():
    with pytest.raises(DataError, match="at least"):
        gmm_train(np.zeros((2, 2)) + np.eye(2), K=3, iters=1, seed=0)
    with pytest.raises(DataError, match="identical"):
        gmm_train(np.ones((10, 2)), K=2, iters=1, seed=0)


def test_density_integrates_to_one_1d():
    rng = np.random.default_rng(12)
    frames = np.concatenate([rng.standard_normal(200) - 2.0,
                             rng.standard_normal(200) + 2.0])[:, None]
    m, _ = gmm_train(frames, K=2, iters=15, seed=3)
    sigma = np.sqrt(m.variances.max())
    xs = np.linspace(m.means.min() - 10 * sigma, m.means.max() + 10 * sigma,
                     20001)
    per_frame, _ = gmm_loglik(m, FeatureSequence("u", xs[:, None]))
    integral = np.trapezoid(np.exp(per_frame), xs)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_dimension_mismatch():
    m = _model([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    with pytest.raises(DataError, match="dim"):
        gmm_loglik(m, FeatureSequence("u", [[0.0]]))


# ---------------------------------------------------------------------------
# the blocked k-means and in-place EM reproduce the whole-array forms


def _dense_kmeans(frames, K, rng, iters=10):
    """k-means with one (N, K, D) distance tensor per iteration."""
    centers = frames[rng.choice(frames.shape[0], size=K, replace=False)].copy()
    for _ in range(iters):
        d2 = ((frames[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for k in range(K):
            sel = frames[assign == k]
            if len(sel):
                centers[k] = sel.mean(axis=0)
    return centers


def _reference_em(frames, K, iters, seed):
    """gmm_train written with whole-array temporaries throughout."""
    def loglik(m):
        inv = 1.0 / m.variances
        const = -0.5 * (m.dim * np.log(2.0 * np.pi)
                        + np.log(m.variances).sum(axis=1))
        quad = (frames ** 2) @ inv.T - 2.0 * frames @ (m.means * inv).T \
            + ((m.means ** 2) * inv).sum(axis=1)
        return np.log(m.weights) + const - 0.5 * quad

    def logsumexp(a):
        hi = a.max(axis=1, keepdims=True)
        return (hi + np.log(np.exp(a - hi).sum(axis=1, keepdims=True)))[:, 0]

    N = frames.shape[0]
    global_var = frames.var(axis=0)
    floor = np.maximum(gmm.VARIANCE_FLOOR_FRACTION * global_var, 1e-12)
    means = _dense_kmeans(frames, K, np.random.default_rng(seed))
    model = GmmModel(np.full(K, 1.0 / K), means,
                     np.tile(np.maximum(global_var, floor), (K, 1)))
    trace = []
    for _ in range(iters):
        ll = loglik(model)
        per_frame = logsumexp(ll)
        trace.append(float(per_frame.mean()))
        g = np.exp(ll - per_frame[:, None])
        nk = np.maximum(g.sum(axis=0), 1e-300)
        weights = nk / N
        means = (g.T @ frames) / nk[:, None]
        sq = (g.T @ (frames ** 2)) / nk[:, None]
        model = GmmModel(weights / weights.sum(), means,
                         np.maximum(sq - means ** 2, floor))
    trace.append(float(logsumexp(loglik(model)).mean()))
    return model, trace


def _clustered_frames(n, d, seed):
    rng = np.random.default_rng(seed)
    centers = 3.0 * rng.standard_normal((6, d))
    return centers[rng.integers(0, 6, n)] + rng.standard_normal((n, d))


# D below 8, exactly 8, a multiple of 8, a ragged tail and above 128 (where
# numpy's pairwise summation halves), with as many frames as keep the dense
# oracle's (N, K, D) tensor small: three blocks, two, or a partial one
ORACLE_DIMS = [(1, 2 * gmm._BLOCK + 1237), (5, 2 * gmm._BLOCK + 1237),
               (8, 2 * gmm._BLOCK + 1237), (16, gmm._BLOCK + 1237),
               (19, gmm._BLOCK + 1237), (130, 1237)]
ORACLE_K = (1, 2, 9, 16)


def test_kmeans_init_equals_dense_oracle():
    for d, n in ORACLE_DIMS:
        frames = _clustered_frames(n, d, 13 + d)
        for K in ORACLE_K:
            got = gmm._kmeans_init(frames, K, np.random.default_rng(K))
            want = _dense_kmeans(frames, K, np.random.default_rng(K))
            assert np.array_equal(got, want), (d, K)


def test_kmeans_init_breaks_ties_as_the_oracle():
    """Twelve distinct frames, each repeated: some starting centers
    coincide, so frames are equally near two centers and go to the first."""
    K = 9
    for d in (1, 5, 16):
        rng = np.random.default_rng(d)
        frames = _clustered_frames(12, d, d)[rng.integers(0, 12, gmm._BLOCK + 99)]
        starts = np.random.default_rng(K).choice(len(frames), K, replace=False)
        assert len(np.unique(frames[starts], axis=0)) < K  # a tie is reached
        got = gmm._kmeans_init(frames, K, np.random.default_rng(K))
        want = _dense_kmeans(frames, K, np.random.default_rng(K))
        assert np.array_equal(got, want), d


def _counted_rechecks(monkeypatch):
    """A list that gets the number of frames of each call of the exact
    path, which the filtered assignment takes for the frames it cannot
    decide."""
    counts, exact = [], gmm._nearest_exact

    def counted(xt, centers):
        counts.append(xt.shape[1])
        return exact(xt, centers)

    monkeypatch.setattr(gmm, "_nearest_exact", counted)
    return counts


def _tie_heavy_frames(kind, n, d, K, seed):
    rng = np.random.default_rng(seed)
    if kind == "duplicated":
        # K - 1 distinct frames: two starting centers coincide, and the
        # frames nearest to them tie exactly
        return _clustered_frames(K - 1, d, seed)[rng.integers(0, K - 1, n)]
    if kind == "integer grid":  # many frames equidistant from two centers
        return rng.integers(-2, 3, (n, d)).astype(np.float64)
    # eighths far from the origin: the rounding of ||c||^2 - 2 x.c exceeds
    # the gaps between the distances, so the product decides no frame
    return 1e7 + rng.integers(-8, 9, (n, d)) / 8.0


@pytest.mark.parametrize("kind", ["duplicated", "integer grid", "far grid"])
@pytest.mark.parametrize("d", [1, 5, 16])
def test_filtered_kmeans_equals_dense_oracle_on_ties(monkeypatch, kind, d):
    """Frames that tie or nearly tie between centers go to the exact path,
    and the result is the dense oracle's, bit for bit."""
    counts = _counted_rechecks(monkeypatch)
    for K in (2, 3, 9):
        frames = _tie_heavy_frames(kind, gmm._BLOCK + 99, d, K, d + K)
        got = gmm._kmeans_init(frames, K, np.random.default_rng(K))
        want = _dense_kmeans(frames, K, np.random.default_rng(K))
        assert np.array_equal(got, want), K
    assert sum(counts) > 0


@pytest.mark.parametrize("K", [2, 3, 16])
def test_frames_equidistant_from_two_centers_go_to_the_first(monkeypatch, K):
    """Centers 0 and 1 mirror each other in the first dimension, and every
    frame lies on the plane between them, so its summed squares to both
    are equal: each frame is rechecked, and goes to center 0."""
    counts = _counted_rechecks(monkeypatch)
    rng = np.random.default_rng(K)
    D, N = 6, 3000
    centers = 3.0 * rng.standard_normal((K, D))
    centers[1] = centers[0]
    centers[1, 0] = -centers[0, 0]
    centers[2:, 0] += 100.0  # the others are farther away
    frames = rng.standard_normal((N, D)) + centers[0]
    frames[:, 0] = 0.0
    xt = np.ascontiguousarray(frames.T)
    got = np.empty(N, dtype=np.intp)
    gmm._nearest(xt, np.linalg.norm(frames, axis=1), centers, got)
    want = ((frames[:, None, :] - centers[None]) ** 2).sum(axis=2).argmin(axis=1)
    assert np.array_equal(got, want)
    assert sum(counts) == N
    assert not want.any()


def test_clustered_frames_skip_the_exact_path(monkeypatch):
    """On frames drawn around separated clusters the product decides every
    frame's nearest center: the exact path does not run."""
    counts = _counted_rechecks(monkeypatch)
    frames = _clustered_frames(2 * gmm._BLOCK + 1237, 16, 29)
    got = gmm._kmeans_init(frames, 16, np.random.default_rng(16))
    assert np.array_equal(
        got, _dense_kmeans(frames, 16, np.random.default_rng(16)))
    assert counts == []


def test_gmm_train_equals_reference_em():
    for d, n in ORACLE_DIMS:
        frames = _clustered_frames(n, d, 14 + d)
        for K in ORACLE_K:
            model, trace = gmm_train(frames, K, 5, K + d)
            ref, ref_trace = _reference_em(frames, K, 5, K + d)
            assert trace == ref_trace, (d, K)
            for name in ("weights", "means", "variances"):
                assert np.array_equal(getattr(model, name),
                                      getattr(ref, name)), (d, K, name)


def test_pairwise_sum_equals_numpy_sum():
    """Every length from 1 to 300 terms, of magnitudes from 1e-13 to 1e13,
    so that another order of additions would show in the last bits."""
    rng = np.random.default_rng(17)
    for n in range(1, 301):
        a = np.exp(rng.uniform(-30.0, 30.0, (n, 3)))
        got = gmm._pairwise_sum(lambda i, j: a[i:j].copy(), 0, n)
        assert np.array_equal(got, np.ascontiguousarray(a.T).sum(axis=1)), n


def test_per_utterance_logsumexp_equals_the_training_helper():
    """gmm_loglik takes the training helper's log-sum-exp; responsibilities
    reduce each frame's K terms along the row, in numpy's pairwise order,
    which the training helper spells out, so the values agree bit for bit."""
    rng = np.random.default_rng(16)
    for T, K in ((1, 1), (50, 2), (50, 7), (50, 8), (50, 16), (300, 9),
                 (40, 130)):
        D = 3
        m = _model(rng.dirichlet(np.ones(K)), rng.standard_normal((K, D)),
                   rng.uniform(0.5, 2.0, (K, D)))
        frames = 4.0 * rng.standard_normal((T, D))
        ll = gmm._component_loglik(m, frames, frames ** 2)
        per_frame, _ = gmm_loglik(m, FeatureSequence("u", frames))
        assert np.array_equal(per_frame, gmm._logsumexp_rows(ll))
        # responsibilities divide by the sums the training helper adds
        e = np.exp(ll - ll.max(axis=1, keepdims=True))
        sums = gmm._pairwise_sum(lambda i, j: e.T[i:j].copy(), 0, K)
        assert np.array_equal(responsibilities(m, frames), e / sums[:, None])


def test_kmeans_init_memory_is_bounded():
    """100,000 x 16 frames and K=16: the dense (N, K, D) tensor would take
    205 MB. k-means holds the (D, N) copy of the frames, each frame's norm
    and its center (D + 2 columns of N doubles, 14.4 MB). Per block of
    4,096 frames it adds the (K, block) product and at most a copy of the
    block's (D, block) frames ((K + D) * 4,096 doubles, 1.05 MB), a few
    block-long vectors, and for the frames that it rechecks at most two
    (8, K, 4,096 / K) difference terms (0.52 MB): 15.97 MB, plus up to 1 MB.
    The (8, K, block) difference terms of every frame would add 4.2 MB
    each."""
    N, D, K = 100_000, 16, 16
    frames = _clustered_frames(N, D, 15)
    tracemalloc.start()
    try:
        gmm._kmeans_init(frames, K, np.random.default_rng(0), iters=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = gmm._BLOCK
    assert peak <= ((D + 2) * N + (K + D) * block + 2 * 8 * block) * 8 + 1e6


def test_gmm_train_memory_is_bounded():
    """100,000 x 16 frames, K=16, 2 iterations. Training holds at most
    three 12.8 MB N-row arrays at once (38.4 MB; frames ** 2, the cross
    term and the log-likelihoods), plus the small K-length and per-block
    temporaries. A fourth N-row array, such as a hoisted 2.0 * frames,
    must not join them."""
    frames = _clustered_frames(100_000, 16, 16)
    tracemalloc.start()
    try:
        gmm_train(frames, 16, 2, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 100_000 * 16 * 8 + 1e6

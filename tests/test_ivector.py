import tracemalloc

import numpy as np
import pytest

from proscore.corpus import FeatureSequence
from proscore.formats import DataError
from proscore.gmm import GmmModel, responsibilities
from proscore.ivector import (_BLOCK, BaumWelchStats, IVectorModel,
                              _posteriors, ivector_infer,
                              tmatrix_train, ubm_stats)


def _gmm(weights, means, variances):
    return GmmModel(np.asarray(weights, dtype=np.float64),
                    np.asarray(means, dtype=np.float64),
                    np.asarray(variances, dtype=np.float64))


def _scalar_ubm():
    return _gmm([1.0], [[0.0]], [[1.0]])


def _stats(zeroth, first_centered):
    """The statistics of one utterance, as a batch of one."""
    return BaumWelchStats(np.array([zeroth], dtype=np.float64),
                          np.array([first_centered], dtype=np.float64))


def _precisions(model, stats):
    """The (U, R, R) posterior precisions L of every utterance of stats."""
    return np.concatenate([L for _, L, _ in _posteriors(
        model.loadings, 1.0 / model.ubm.variances, stats)])


def _oracle_posterior(loadings, inv_var, zeroth, first_centered):
    """One utterance's L = I + sum_k N_k P_k and b = sum_k (Sigma_k^-1 T_k)'
    F_k, one component at a time, with P_k = T_k' Sigma_k^-1 T_k."""
    K, D, R = loadings.shape
    L, b = np.eye(R), np.zeros(R)
    for k in range(K):
        TS = loadings[k] * inv_var[k][:, None]
        L += zeroth[k] * (loadings[k].T @ TS)
        b += TS.T @ first_centered[k]
    return L, b


def _oracle_tmatrix(ubm, stats, R, iters, seed):
    """T-matrix EM one utterance at a time: (loadings, evidence trace)."""
    K, D = ubm.num_components, ubm.dim
    loadings = 0.1 * np.random.default_rng(seed).standard_normal((K, D, R))
    trace = []
    for it in range(iters + 1):
        A, C, evidence = np.zeros((K, R, R)), np.zeros((K, D, R)), 0.0
        for n, f in zip(stats.zeroth, stats.first_centered):
            L, b = _oracle_posterior(loadings, 1.0 / ubm.variances, n, f)
            zbar = np.linalg.solve(L, b)
            evidence += -0.5 * np.linalg.slogdet(L)[1] + 0.5 * float(b @ zbar)
            Ezz = np.linalg.inv(L) + np.outer(zbar, zbar)
            for k in range(K):
                A[k] += n[k] * Ezz
                C[k] += np.outer(f[k], zbar)
        trace.append(evidence)
        if it < iters:
            loadings = np.array([np.linalg.solve(A[k].T, C[k].T).T
                                 for k in range(K)])
    return loadings, trace


def _random_stats(rng, U, K, D):
    return BaumWelchStats(rng.uniform(0.0, 20.0, (U, K)),
                          3.0 * rng.standard_normal((U, K, D)))


def _relative_error(got, expected) -> float:
    got, expected = np.asarray(got), np.asarray(expected)
    return float(np.abs(got - expected).max() / np.abs(expected).max())


# ---------------------------------------------------------------------------
# Baum-Welch statistics


def test_ubm_stats_single_component():
    frames = np.array([[1.0], [2.0], [3.0]])
    st = ubm_stats(_scalar_ubm(), [FeatureSequence("u", frames)])
    assert st.zeroth[0, 0] == pytest.approx(3.0)
    assert st.first_centered[0, 0, 0] == pytest.approx(6.0)


def test_ubm_stats_at_component_means():
    m = _gmm([0.5, 0.5], [[-30.0, 0.0], [30.0, 0.0]], np.ones((2, 2)))
    frames = np.array([[-30.0, 0.0], [30.0, 0.0]])
    st = ubm_stats(m, [FeatureSequence("u", frames)])
    np.testing.assert_allclose(st.first_centered, 0.0, atol=1e-10)
    assert st.zeroth.sum() == pytest.approx(2.0)


def test_ubm_stats_matches_direct_summation():
    """Each row holds its own utterance's sums, in the order given."""
    rng = np.random.default_rng(3)
    m = _gmm([0.4, 0.6], rng.standard_normal((2, 2)),
             rng.uniform(0.5, 1.5, (2, 2)))
    utts = [FeatureSequence(f"u{u}", rng.standard_normal((n, 2)))
            for u, n in enumerate((3, 1, 5))]
    st = ubm_stats(m, utts)
    assert st.zeroth.shape == (3, 2) and st.first_centered.shape == (3, 2, 2)
    for u, fs in enumerate(utts):
        gamma = responsibilities(m, fs.frames)
        for k in range(2):
            n_k = sum(gamma[t, k] for t in range(fs.num_frames))
            f_k = sum(gamma[t, k] * (fs.frames[t] - m.means[k])
                      for t in range(fs.num_frames))
            assert st.zeroth[u, k] == pytest.approx(n_k, abs=1e-12)
            np.testing.assert_allclose(st.first_centered[u, k], f_k,
                                       atol=1e-12)


def test_ubm_stats_dim_mismatch_names_the_utterance():
    utts = [FeatureSequence("a", np.zeros((2, 1))),
            FeatureSequence("b", np.zeros((2, 2)))]
    with pytest.raises(DataError, match="^b: dim 2 vs UBM dim 1"):
        ubm_stats(_scalar_ubm(), utts)


def test_stats_validation():
    with pytest.raises(DataError, match="negative occupancy"):
        _stats([-1.0], [[0.0]])
    with pytest.raises(DataError, match="non-finite"):
        _stats([1.0], [[np.nan]])
    with pytest.raises(DataError, match="must be"):
        BaumWelchStats(np.ones(2), np.zeros((2, 1)))  # one utterance's rows
    with pytest.raises(DataError, match="must be"):
        BaumWelchStats(np.ones((3, 2)), np.zeros((2, 2, 1)))


# ---------------------------------------------------------------------------
# inference


def test_infer_scalar_example():
    # K=D=R=1, N=4, T=1, Sigma=1, first-order stat 2 -> L=5, z=0.4
    model = IVectorModel(_scalar_ubm(), np.ones((1, 1, 1)))
    st = _stats([4.0], [[2.0]])
    z = ivector_infer(model, st)
    assert z.shape == (1, 1)
    assert _precisions(model, st)[0, 0, 0] == pytest.approx(5.0)
    assert z[0, 0] == pytest.approx(0.4)


def test_infer_no_evidence_returns_prior_mean():
    model = IVectorModel(_scalar_ubm(), np.ones((1, 1, 1)))
    st = _stats(np.zeros(1), np.zeros((1, 1)))
    assert ivector_infer(model, st)[0, 0] == 0.0
    assert _precisions(model, st)[0, 0, 0] == pytest.approx(1.0)


def test_infer_of_no_utterances_is_empty():
    model = IVectorModel(_scalar_ubm(), np.ones((1, 1, 1)))
    st = BaumWelchStats(np.zeros((0, 1)), np.zeros((0, 1, 1)))
    assert ivector_infer(model, st).shape == (0, 1)


def test_infer_precision_grows_with_evidence():
    rng = np.random.default_rng(5)
    ubm = _gmm([0.5, 0.5], rng.standard_normal((2, 2)), np.ones((2, 2)))
    model = IVectorModel(ubm, 0.3 * rng.standard_normal((2, 2, 2)))
    first = rng.standard_normal((2, 2))
    L1, L2 = _precisions(model, BaumWelchStats(
        np.array([[3.0, 2.0], [6.0, 4.0]]), np.array([first, 2 * first])))
    cov1 = np.linalg.inv(L1)
    cov2 = np.linalg.inv(L2)
    assert np.linalg.norm(cov2) < np.linalg.norm(cov1)


def test_infer_equivariant_under_negation():
    rng = np.random.default_rng(6)
    ubm = _gmm([1.0], np.zeros((1, 2)), np.ones((1, 2)))
    model = IVectorModel(ubm, 0.5 * rng.standard_normal((1, 2, 2)))
    first = rng.standard_normal((1, 2))
    z = ivector_infer(model, BaumWelchStats(np.array([[4.0], [4.0]]),
                                            np.array([first, -first])))
    np.testing.assert_array_equal(z[0], -z[1])


def test_infer_precision_symmetric_positive_definite():
    rng = np.random.default_rng(7)
    ubm = _gmm([0.5, 0.5], rng.standard_normal((2, 3)),
               rng.uniform(0.5, 2.0, (2, 3)))
    model = IVectorModel(ubm, 0.4 * rng.standard_normal((2, 3, 2)))
    [L] = _precisions(model, _stats([5.0, 1.0], rng.standard_normal((2, 3))))
    np.testing.assert_allclose(L, L.T, atol=1e-12)
    np.linalg.cholesky(L)  # raises if not positive definite


def test_infer_matches_joint_gaussian_conditioning():
    """Brute-force oracle: stack the frames of an utterance whose UBM
    responsibilities are numerically hard (far-separated components) and
    condition the joint Gaussian of (z, frames) directly."""
    rng = np.random.default_rng(8)
    K, D, R = 2, 2, 2
    means = np.array([[-50.0, 0.0], [50.0, 0.0]])
    variances = rng.uniform(0.5, 1.5, (K, D))
    ubm = _gmm([0.5, 0.5], means, variances)
    loadings = 0.5 * rng.standard_normal((K, D, R))
    model = IVectorModel(ubm, loadings)

    assign = np.array([0, 0, 1, 1, 1])
    frames = means[assign] + 0.3 * rng.standard_normal((5, D))
    st = ubm_stats(ubm, [FeatureSequence("u", frames)])

    # joint Gaussian: o_t = m_{k(t)} + T_{k(t)} z + eps_t
    T_stack = np.vstack([loadings[k] for k in assign])          # (5D, R)
    m_stack = means[assign].ravel()
    noise = np.diag(variances[assign].ravel())
    cov_oo = T_stack @ T_stack.T + noise
    cov_zo = T_stack.T
    expected = cov_zo @ np.linalg.solve(cov_oo, frames.ravel() - m_stack)

    z = ivector_infer(model, st)
    np.testing.assert_allclose(z[0], expected, atol=1e-9)


def test_infer_matches_the_per_utterance_oracle_across_blocks():
    """Two whole blocks and a remainder: every row is the solve of its own
    utterance's posterior, built one component at a time."""
    rng = np.random.default_rng(13)
    K, D, R = 3, 2, 4
    ubm = _gmm(np.full(K, 1.0 / K), rng.standard_normal((K, D)),
               rng.uniform(0.5, 2.0, (K, D)))
    model = IVectorModel(ubm, 0.5 * rng.standard_normal((K, D, R)))
    stats = _random_stats(rng, 2 * _BLOCK + 3, K, D)
    expected = [np.linalg.solve(*_oracle_posterior(
        model.loadings, 1.0 / ubm.variances, n, f))
        for n, f in zip(stats.zeroth, stats.first_centered)]
    z = ivector_infer(model, stats)
    assert z.shape == (2 * _BLOCK + 3, R)
    assert _relative_error(z, expected) <= 1e-12


def test_infer_memory_is_bounded():
    """20,000 utterances at R=64: a whole-corpus L would take 20,000 x 64 x
    64 x 8 bytes = 655 MB, and so would its inverse. Inference and an EM
    iteration hold a few (_BLOCK, R, R) arrays at once (8.4 MB each) and
    one (U, R) output, whatever U is."""
    U, K, D, R = 20_000, 8, 8, 64
    rng = np.random.default_rng(14)
    ubm = _gmm(np.full(K, 1.0 / K), rng.standard_normal((K, D)),
               np.ones((K, D)))
    stats = _random_stats(rng, U, K, D)
    model = IVectorModel(ubm, 0.1 * rng.standard_normal((K, D, R)))
    block = _BLOCK * R * R * 8
    tracemalloc.start()
    try:
        ivector_infer(model, stats)
        infer_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        tmatrix_train(ubm, stats, R, iters=1, seed=0)
        train_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert infer_peak <= U * R * 8 + 4 * block
    assert train_peak <= 6 * block
    assert train_peak < U * R * R * 8 / 10


# ---------------------------------------------------------------------------
# training


def _make_training_stats(rng, ubm, loadings_true, n_utts=40, frames_per=8):
    K, D, R = loadings_true.shape
    utts = []
    for u in range(n_utts):
        z = rng.standard_normal(R)
        assign = rng.integers(0, K, size=frames_per)
        frames = (ubm.means[assign] + loadings_true[assign] @ z
                  + np.sqrt(ubm.variances[assign])
                  * rng.standard_normal((frames_per, D)))
        utts.append(FeatureSequence(f"u{u}", frames))
    return ubm_stats(ubm, utts)


def test_tmatrix_training_objective_monotone():
    rng = np.random.default_rng(9)
    K, D, R = 2, 2, 2
    ubm = _gmm([0.5, 0.5], np.array([[-30.0, 0.0], [30.0, 0.0]]),
               np.ones((K, D)))
    loadings_true = rng.standard_normal((K, D, R))
    stats = _make_training_stats(rng, ubm, loadings_true)
    _, trace = tmatrix_train(ubm, stats, R=R, iters=10, seed=1)
    assert len(trace) == 11
    diffs = np.diff(trace)
    assert np.all(diffs >= -1e-8 * np.maximum(np.abs(trace[:-1]), 1.0))


def test_tmatrix_trace_ends_with_the_evidence_of_its_loadings():
    """trace[-1] scores the returned loadings, not the ones before them."""
    rng = np.random.default_rng(12)
    K, D, R = 2, 2, 2
    ubm = _gmm([0.5, 0.5], np.array([[-30.0, 0.0], [30.0, 0.0]]),
               np.ones((K, D)))
    stats = _make_training_stats(rng, ubm, rng.standard_normal((K, D, R)))
    model, trace = tmatrix_train(ubm, stats, R=R, iters=3, seed=1)
    T = model.loadings
    TS = T / ubm.variances[:, :, None]
    evidence = 0.0
    for n, f in zip(stats.zeroth, stats.first_centered):
        L = np.eye(R) + np.einsum("k,kdr,kds->rs", n, T, TS)
        b = np.einsum("kdr,kd->r", TS, f)
        evidence += (-0.5 * np.linalg.slogdet(L)[1]
                     + 0.5 * b @ np.linalg.solve(L, b))
    assert trace[-1] == pytest.approx(evidence, rel=1e-12)
    assert trace[-2] != pytest.approx(evidence, rel=1e-12)


def test_tmatrix_matches_the_per_utterance_oracle_across_blocks():
    """Two whole blocks and a remainder: the evidence trace and the
    loadings are those of EM run one utterance and one component at a
    time."""
    rng = np.random.default_rng(15)
    K, D, R = 2, 3, 3
    ubm = _gmm([0.5, 0.5], rng.standard_normal((K, D)),
               rng.uniform(0.5, 2.0, (K, D)))
    stats = _random_stats(rng, 2 * _BLOCK + 3, K, D)
    model, trace = tmatrix_train(ubm, stats, R, iters=3, seed=5)
    loadings, expected = _oracle_tmatrix(ubm, stats, R, iters=3, seed=5)
    assert len(trace) == len(expected) == 4
    assert _relative_error(trace, expected) <= 1e-12
    assert _relative_error(model.loadings, loadings) <= 1e-12


def test_tmatrix_training_deterministic():
    rng = np.random.default_rng(10)
    ubm = _scalar_ubm()
    stats = BaumWelchStats(np.full((20, 1), 5.0),
                           rng.standard_normal((20, 1, 1)) * 3)
    m1, t1 = tmatrix_train(ubm, stats, R=1, iters=5, seed=4)
    m2, t2 = tmatrix_train(ubm, stats, R=1, iters=5, seed=4)
    np.testing.assert_array_equal(m1.loadings, m2.loadings)
    assert t1 == t2


def test_tmatrix_recovers_single_factor_scale():
    """K=D=R=1 with unit noise: the stationary ML loading satisfies
    T^2 + sigma^2 = Var(x), the probabilistic-PCA closed form."""
    rng = np.random.default_rng(11)
    T_true = 1.7
    x = T_true * rng.standard_normal(4000) + rng.standard_normal(4000)
    stats = BaumWelchStats(np.ones((4000, 1)), x[:, None, None])
    model, _ = tmatrix_train(_scalar_ubm(), stats, R=1, iters=60, seed=2)
    expected = np.sqrt(max(float(x.var()) - 1.0, 0.0))
    assert abs(abs(float(model.loadings[0, 0, 0])) - expected) < 1e-3


def test_tmatrix_rejects_bad_iters():
    with pytest.raises(ValueError, match="iters must be >= 1"):
        tmatrix_train(_scalar_ubm(), BaumWelchStats(
            np.zeros((0, 1)), np.zeros((0, 1, 1))), R=1, iters=0, seed=0)


def test_model_rank_bound():
    with pytest.raises(DataError, match="must be <="):
        IVectorModel(_scalar_ubm(), np.ones((1, 1, 2)))

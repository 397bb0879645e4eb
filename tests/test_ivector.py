import numpy as np
import pytest

from proscore.corpus import FeatureSequence
from proscore.gmm import GmmModel, responsibilities
from proscore.ivector import (BaumWelchStats, IVectorError, IVectorModel,
                              ivector_infer, tmatrix_train, ubm_stats)


def _gmm(weights, means, variances):
    return GmmModel(np.asarray(weights, dtype=np.float64),
                    np.asarray(means, dtype=np.float64),
                    np.asarray(variances, dtype=np.float64))


def _scalar_ubm():
    return _gmm([1.0], [[0.0]], [[1.0]])


# ---------------------------------------------------------------------------
# Baum-Welch statistics


def test_ubm_stats_single_component():
    frames = np.array([[1.0], [2.0], [3.0]])
    st = ubm_stats(_scalar_ubm(), FeatureSequence("u", frames))
    assert st.zeroth[0] == pytest.approx(3.0)
    assert st.first_centered[0, 0] == pytest.approx(6.0)


def test_ubm_stats_at_component_means():
    m = _gmm([0.5, 0.5], [[-30.0, 0.0], [30.0, 0.0]], np.ones((2, 2)))
    frames = np.array([[-30.0, 0.0], [30.0, 0.0]])
    st = ubm_stats(m, FeatureSequence("u", frames))
    np.testing.assert_allclose(st.first_centered, 0.0, atol=1e-10)
    assert st.zeroth.sum() == pytest.approx(2.0)


def test_ubm_stats_matches_direct_summation():
    rng = np.random.default_rng(3)
    m = _gmm([0.4, 0.6], rng.standard_normal((2, 2)),
             rng.uniform(0.5, 1.5, (2, 2)))
    frames = rng.standard_normal((3, 2))
    st = ubm_stats(m, FeatureSequence("u", frames))
    gamma = responsibilities(m, frames)
    for k in range(2):
        n_k = sum(gamma[t, k] for t in range(3))
        f_k = sum(gamma[t, k] * (frames[t] - m.means[k]) for t in range(3))
        assert st.zeroth[k] == pytest.approx(n_k, abs=1e-12)
        np.testing.assert_allclose(st.first_centered[k], f_k, atol=1e-12)


def test_stats_validation():
    with pytest.raises(IVectorError, match="negative occupancy"):
        BaumWelchStats("u", np.array([-1.0]), np.zeros((1, 1)))
    with pytest.raises(IVectorError, match="non-finite"):
        BaumWelchStats("u", np.array([1.0]), np.array([[np.nan]]))


# ---------------------------------------------------------------------------
# inference


def test_infer_scalar_example():
    # K=D=R=1, N=4, T=1, Sigma=1, first-order stat 2 -> L=5, z=0.4
    model = IVectorModel(_scalar_ubm(), np.ones((1, 1, 1)))
    st = BaumWelchStats("u", np.array([4.0]), np.array([[2.0]]))
    z, L = ivector_infer(model, st)
    assert L[0, 0] == pytest.approx(5.0)
    assert z[0] == pytest.approx(0.4)


def test_infer_no_evidence_returns_prior_mean():
    model = IVectorModel(_scalar_ubm(), np.ones((1, 1, 1)))
    st = BaumWelchStats("u", np.zeros(1), np.zeros((1, 1)))
    z, L = ivector_infer(model, st)
    assert z[0] == 0.0
    assert L[0, 0] == pytest.approx(1.0)


def test_infer_precision_grows_with_evidence():
    rng = np.random.default_rng(5)
    ubm = _gmm([0.5, 0.5], rng.standard_normal((2, 2)), np.ones((2, 2)))
    model = IVectorModel(ubm, 0.3 * rng.standard_normal((2, 2, 2)))
    st = BaumWelchStats("u", np.array([3.0, 2.0]), rng.standard_normal((2, 2)))
    doubled = BaumWelchStats("u", 2 * st.zeroth, 2 * st.first_centered)
    _, L1 = ivector_infer(model, st)
    _, L2 = ivector_infer(model, doubled)
    cov1 = np.linalg.inv(L1)
    cov2 = np.linalg.inv(L2)
    assert np.linalg.norm(cov2) < np.linalg.norm(cov1)


def test_infer_equivariant_under_negation():
    rng = np.random.default_rng(6)
    ubm = _gmm([1.0], np.zeros((1, 2)), np.ones((1, 2)))
    model = IVectorModel(ubm, 0.5 * rng.standard_normal((1, 2, 2)))
    st = BaumWelchStats("u", np.array([4.0]), rng.standard_normal((1, 2)))
    neg = BaumWelchStats("u", st.zeroth, -st.first_centered)
    z1, _ = ivector_infer(model, st)
    z2, _ = ivector_infer(model, neg)
    np.testing.assert_array_equal(z1, -z2)


def test_infer_precision_symmetric_positive_definite():
    rng = np.random.default_rng(7)
    ubm = _gmm([0.5, 0.5], rng.standard_normal((2, 3)),
               rng.uniform(0.5, 2.0, (2, 3)))
    model = IVectorModel(ubm, 0.4 * rng.standard_normal((2, 3, 2)))
    st = BaumWelchStats("u", np.array([5.0, 1.0]), rng.standard_normal((2, 3)))
    _, L = ivector_infer(model, st)
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
    st = ubm_stats(ubm, FeatureSequence("u", frames))

    # joint Gaussian: o_t = m_{k(t)} + T_{k(t)} z + eps_t
    T_stack = np.vstack([loadings[k] for k in assign])          # (5D, R)
    m_stack = means[assign].ravel()
    noise = np.diag(variances[assign].ravel())
    cov_oo = T_stack @ T_stack.T + noise
    cov_zo = T_stack.T
    expected = cov_zo @ np.linalg.solve(cov_oo, frames.ravel() - m_stack)

    z, _ = ivector_infer(model, st)
    np.testing.assert_allclose(z, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# training


def _make_training_stats(rng, ubm, loadings_true, n_utts=40, frames_per=8):
    K, D, R = loadings_true.shape
    stats = []
    for u in range(n_utts):
        z = rng.standard_normal(R)
        assign = rng.integers(0, K, size=frames_per)
        frames = (ubm.means[assign] + loadings_true[assign] @ z
                  + np.sqrt(ubm.variances[assign])
                  * rng.standard_normal((frames_per, D)))
        stats.append(ubm_stats(ubm, FeatureSequence(f"u{u}", frames)))
    return stats


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
    for st in stats:
        L = np.eye(R) + np.einsum("k,kdr,kds->rs", st.zeroth, T, TS)
        b = np.einsum("kdr,kd->r", TS, st.first_centered)
        evidence += (-0.5 * np.linalg.slogdet(L)[1]
                     + 0.5 * b @ np.linalg.solve(L, b))
    assert trace[-1] == pytest.approx(evidence, rel=1e-12)
    assert trace[-2] != pytest.approx(evidence, rel=1e-12)


def test_tmatrix_training_deterministic():
    rng = np.random.default_rng(10)
    ubm = _scalar_ubm()
    stats = [BaumWelchStats(f"u{i}", np.array([5.0]),
                            rng.standard_normal((1, 1)) * 3)
             for i in range(20)]
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
    stats = [BaumWelchStats(f"u{i}", np.array([1.0]), np.array([[xi]]))
             for i, xi in enumerate(x)]
    model, _ = tmatrix_train(_scalar_ubm(), stats, R=1, iters=60, seed=2)
    expected = np.sqrt(max(float(x.var()) - 1.0, 0.0))
    assert abs(abs(float(model.loadings[0, 0, 0])) - expected) < 1e-3


def test_tmatrix_rejects_bad_iters():
    with pytest.raises(IVectorError):
        tmatrix_train(_scalar_ubm(), [], R=1, iters=0, seed=0)


def test_model_rank_bound():
    with pytest.raises(IVectorError, match="must be <="):
        IVectorModel(_scalar_ubm(), np.ones((1, 1, 2)))

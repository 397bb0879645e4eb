from dataclasses import replace

import numpy as np
import pytest

from proscore import pipeline, regress
from proscore.regress import (SvrDataError, SvrError, SvrParams, kkt_residual,
                              svr_predict, svr_predict_batch, svr_train)

from conftest import svr_dual_oracle


def test_params_validation():
    with pytest.raises(SvrError):
        SvrParams(C=0.0)
    with pytest.raises(SvrError):
        SvrParams(epsilon=-0.1)
    with pytest.raises(SvrError):
        SvrParams(kernel="poly")
    with pytest.raises(SvrError):
        SvrParams(gamma=-1.0)


def test_constant_targets_constant_model():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 3))
    m = svr_train(X, np.full(10, 3.0))
    assert m.warning == "constant targets"
    assert m.support_vectors.shape[0] == 0
    np.testing.assert_allclose(svr_predict_batch(m, X), 3.0)
    assert svr_predict(m, X[0]) == pytest.approx(3.0)


def test_exhausted_update_budget_warns(tiny_corpus):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    y = X @ np.array([1.0, -2.0, 0.5])
    assert svr_train(X, y).warning is None
    stopped = svr_train(X, y, SvrParams(max_passes=0))
    assert stopped.warning.startswith("SMO stopped after 0 updates")
    # the pipeline stage passes the warning on
    corpus, _ = tiny_corpus
    emb = {uid: rng.standard_normal(3) for uid in corpus.features}
    with pytest.warns(UserWarning, match="SVR: SMO stopped after 0 updates"):
        pipeline.train_svr(corpus, emb, {"max_passes": 0})


def test_exact_line_fit_linear_kernel():
    x = np.linspace(0.0, 1.0, 10)[:, None]
    y = 2.0 * x[:, 0]
    params = SvrParams(C=100.0, epsilon=0.01, kernel="linear")
    m = svr_train(x, y, params)
    pred = svr_predict_batch(m, x)
    assert np.abs(pred - y).max() <= params.epsilon + 1e-6
    assert abs(svr_predict(m, x[4]) - y[4]) <= params.epsilon + 1e-3


def test_dual_feasibility():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 4))
    y = X[:, 0] - 0.5 * X[:, 1] + 0.2 * rng.standard_normal(30)
    params = SvrParams(C=2.0, epsilon=0.05)
    m = svr_train(X, y, params)
    assert np.all(np.abs(m.coef) <= params.C + 1e-6)
    assert abs(m.coef.sum()) < 1e-6


def test_kkt_residual_within_tolerance():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 3))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(40)
    params = SvrParams(C=1.0, epsilon=0.1, tol=1e-3)
    m = svr_train(X, y, params)
    assert kkt_residual(m, X, y) <= params.tol + 1e-9


def test_kkt_residual_matches_support_vectors_exactly(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 3))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(40)
    m = svr_train(X, y)
    # the model file keeps the standardized rows and statistics exactly
    regress.save_svr(tmp_path / "m.psvr", m)
    assert kkt_residual(regress.load_svr(tmp_path / "m.psvr"), X, y) \
        == kkt_residual(m, X, y)
    # one ulp off its row is no support vector of this training set
    sv = m.support_vectors.copy()
    sv[1, 2] = np.nextafter(sv[1, 2], np.inf)
    with pytest.raises(SvrDataError, match="support vector 1 is no row"):
        kkt_residual(replace(m, support_vectors=sv), X, y)


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_objective_matches_qp_oracle(kernel):
    rng = np.random.default_rng(3)
    n = 8
    X = rng.standard_normal((n, 2))
    y = rng.standard_normal(n)
    params = SvrParams(C=1.5, epsilon=0.1, kernel=kernel, gamma=0.7,
                       tol=1e-6)
    m = svr_train(X, y, params)

    Xs = (X - m.feat_mean) / m.feat_std
    if kernel == "linear":
        K = Xs @ Xs.T
    else:
        d2 = ((Xs[:, None] - Xs[None, :]) ** 2).sum(axis=2)
        K = np.exp(-m.gamma * d2)
    oracle_obj, _ = svr_dual_oracle(K, y, params.C, params.epsilon)
    assert abs(m.dual_objective - oracle_obj) <= 1e-3 * max(abs(oracle_obj), 1.0)
    # SMO must not beat the exact solver by more than numerical slack
    assert m.dual_objective <= oracle_obj + 1e-6


def test_duplicate_support_vector_invariance():
    # the base set has mean 0 and variance 1, and so does the set with the
    # symmetric pair (-1, 1) duplicated, so the internal standardization
    # and kernel geometry are identical and only the duplication matters;
    # C is large enough that every support vector is free (zero loss), the
    # regime where duplicating one provably leaves the solution optimal
    a = 1.2
    b = np.sqrt(2.0 - a ** 2)
    x = np.array([-a, -b, -1.0, 1.0, b, a])[:, None]
    y = np.sin(2.0 * x[:, 0]) + x[:, 0] ** 2
    params = SvrParams(C=100.0, epsilon=0.01, kernel="rbf", gamma=1.0,
                       tol=1e-6)
    m1 = svr_train(x, y, params)
    assert np.abs(m1.coef).max() < params.C - 1e-6
    x2 = np.vstack([x, [[-1.0], [1.0]]])
    y2 = np.append(y, [y[2], y[3]])
    np.testing.assert_allclose(x2.mean(), x.mean(), atol=1e-12)
    np.testing.assert_allclose(x2.std(), x.std(), atol=1e-12)
    m2 = svr_train(x2, y2, params)
    grid = np.linspace(-2.0, 2.0, 50)[:, None]
    assert np.abs(svr_predict_batch(m1, grid)
                  - svr_predict_batch(m2, grid)).max() < 1e-3


def test_rbf_prediction_decays_to_bias():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((15, 2))
    y = X[:, 0] + 0.1 * rng.standard_normal(15)
    m = svr_train(X, y, SvrParams(C=1.0, epsilon=0.05))
    far = np.full((1, 2), 1e3 / np.sqrt(m.gamma))
    assert abs(svr_predict_batch(m, far)[0] - m.bias) < 1e-6


def test_input_validation():
    with pytest.raises(SvrError):
        svr_train(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(SvrError, match="non-finite"):
        svr_train(np.full((4, 2), np.nan), np.zeros(4))
    m = svr_train(np.random.default_rng(6).standard_normal((5, 2)),
                  np.arange(5.0))
    with pytest.raises(SvrError):
        svr_predict(m, np.zeros(3))
    with pytest.raises(SvrError):
        svr_predict_batch(m, np.zeros((2, 3)))


def test_gamma_scale_resolution():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 4)) * 3.0
    m = svr_train(X, rng.standard_normal(20), SvrParams())
    Xs = (X - m.feat_mean) / m.feat_std
    assert m.gamma == pytest.approx(1.0 / (4 * Xs.var()))


def _dense_kernel(kernel, gamma, A, B):
    """The kernel matrix as whole-array expressions."""
    if kernel == "linear":
        return A @ B.T
    d2 = ((A ** 2).sum(axis=1)[:, None] + (B ** 2).sum(axis=1)[None, :]
          - 2.0 * A @ B.T)
    return np.exp(-gamma * np.maximum(d2, 0.0))


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_blocked_kernel_equals_single_matrix_oracle(kernel):
    """Prediction and the training kernel over several row blocks, the
    last one partial, equal one whole-matrix evaluation bit for bit."""
    rng = np.random.default_rng(8)
    X = rng.standard_normal((300, 5))
    m = svr_train(X, X[:, 0] - np.tanh(X[:, 1]), SvrParams(kernel=kernel))
    assert m.support_vectors.shape[0] > 100
    inputs = rng.standard_normal((2 * regress._KERNEL_BLOCK + 77, 5))
    Xs = (inputs - m.feat_mean) / m.feat_std
    want = _dense_kernel(kernel, m.gamma, Xs, m.support_vectors) @ m.coef \
        + m.bias
    assert np.array_equal(svr_predict_batch(m, inputs), want)
    assert np.array_equal(regress._kernel_matrix(kernel, m.gamma, Xs, Xs),
                          _dense_kernel(kernel, m.gamma, Xs, Xs))

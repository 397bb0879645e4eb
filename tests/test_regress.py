from dataclasses import fields, replace

import numpy as np
import pytest

from proscore import pipeline, regress
from proscore.formats import DataError
from proscore.regress import (SvrParams, kkt_residual, svr_predict,
                              svr_predict_batch, svr_train)

from conftest import svr_dual_oracle


def test_params_validation():
    with pytest.raises(ValueError, match="C must be positive"):
        SvrParams(C=0.0)
    with pytest.raises(ValueError, match="epsilon must be non-negative"):
        SvrParams(epsilon=-0.1)
    with pytest.raises(ValueError, match="unknown kernel 'poly'"):
        SvrParams(kernel="poly")
    with pytest.raises(ValueError, match="gamma must be positive"):
        SvrParams(gamma=-1.0)
    for bad in ({"C": float("nan")}, {"epsilon": float("nan")},
                {"gamma": float("nan")}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
            SvrParams(**bad)


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
    with pytest.raises(DataError, match="support vector 1 is no row"):
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
    with pytest.raises(DataError, match="at least 2 training points"):
        svr_train(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(DataError, match="non-finite"):
        svr_train(np.full((4, 2), np.nan), np.zeros(4))
    with pytest.raises(DataError, match="X has no columns"):
        svr_train(np.zeros((4, 0)), np.arange(4.0))
    m = svr_train(np.random.default_rng(6).standard_normal((5, 2)),
                  np.arange(5.0))
    with pytest.raises(DataError, match=r"input has shape \(3,\)"):
        svr_predict(m, np.zeros(3))
    with pytest.raises(DataError, match=r"inputs must be N x 2"):
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


def _violations(s, t, G, C):
    """-s*G where t may still rise (masked to -inf elsewhere) and where it
    may still fall (masked to +inf): the maximal violating pair is the
    argmax of the first and the argmin of the second."""
    v = -s * G
    up = ((s > 0) & (t < C - regress._BOUND_EPS)) \
        | ((s < 0) & (t > regress._BOUND_EPS))
    low = ((s > 0) & (t > regress._BOUND_EPS)) \
        | ((s < 0) & (t < C - regress._BOUND_EPS))
    return np.where(up, v, -np.inf), np.where(low, v, np.inf)


def _svr_train_oracle(X, y, params):
    """svr_train with the SMO loop that keeps the gradient G itself and
    takes both masks anew at every step, as a test oracle."""
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 1e-12, std, 1.0)
    Xs = regress._standardize(X, mean, std)
    gamma = regress.resolve_gamma(params, Xs)

    n = X.shape[0]
    K = regress._kernel_matrix(params.kernel, gamma, Xs, Xs)
    s = np.concatenate([np.ones(n), -np.ones(n)])
    t = np.zeros(2 * n)
    # gradient of 0.5 t'Qt + p't with Q_pq = s_p s_q K and p_p = eps - s_p y
    G = params.epsilon - s * np.concatenate([y, y])
    # (2, n) views: both halves of the 2n variables share the columns of K
    G2, s2 = G.reshape(2, n), s.reshape(2, n)
    C = params.C

    budget = params.max_passes * n
    for updates in range(budget + 1):
        vi, vj = _violations(s, t, G, C)
        i = int(vi.argmax())
        j = int(vj.argmin())
        gap = vi[i] - vj[j]
        if gap <= params.tol or updates == budget:
            break
        ci, cj = i % n, j % n
        eta = max(K[ci, ci] + K[cj, cj] - 2.0 * K[ci, cj], 1e-12)
        sij = s[i] * s[j]
        delta = -(G[i] - sij * G[j]) / eta
        lo_d, hi_d = -t[i], C - t[i]
        if sij > 0:
            lo_d, hi_d = max(lo_d, t[j] - C), min(hi_d, t[j])
        else:
            lo_d, hi_d = max(lo_d, -t[j]), min(hi_d, C - t[j])
        delta = min(max(delta, lo_d), hi_d)
        if delta == 0.0:
            break
        dt_j = -sij * delta
        t[i] += delta
        t[j] += dt_j
        G2 += s2 * (s[i] * delta) * K[:, ci] + s2 * (s[j] * dt_j) * K[:, cj]
    # every exit leaves (vi, vj) current: t has not moved since they were taken
    b = 0.5 * (vi[i] + vj[j])
    warning = None
    if gap > params.tol:
        warning = (f"SMO stopped after {updates} updates with KKT gap"
                   f" {gap:.3g} > tol {params.tol:g}")

    beta = t[:n] - t[n:]
    obj = regress.dual_objective(K, y, beta, params.epsilon)
    keep = np.abs(beta) > 1e-10
    return regress.SvrModel(params.kernel, C, params.epsilon, gamma, mean,
                            std, Xs[keep], beta[keep], float(b), warning, obj)


def _bits(value):
    """A value's bytes (an array's dtype and shape too), or itself."""
    if isinstance(value, (float, np.ndarray)):
        arr = np.asarray(value)
        return arr.dtype.str, arr.shape, arr.tobytes()
    return value


@pytest.mark.parametrize("kernel", ["rbf", "linear"])
@pytest.mark.parametrize("settings", [
    {}, {"C": 0.05}, {"epsilon": 0.0}, {"max_passes": 0}, {"max_passes": 1},
    {"C": 0.05, "epsilon": 0.0, "tol": 1e-6}])
def test_smo_equals_the_gradient_oracle_bit_for_bit(kernel, settings):
    """Every field of the model, the warning and the dual objective
    included, equals that of the oracle loop bit for bit."""
    rng = np.random.default_rng(9)
    for n, d in ((2, 1), (7, 2), (40, 3), (120, 5)):
        X = rng.standard_normal((n, d))
        y = np.tanh(X[:, 0]) + 0.3 * rng.standard_normal(n)
        params = SvrParams(kernel=kernel, **settings)
        got = svr_train(X, y, params)
        want = _svr_train_oracle(X, y, params)
        for f in fields(regress.SvrModel):
            assert _bits(getattr(got, f.name)) == \
                _bits(getattr(want, f.name)), (n, f.name)
    if settings.get("C") == 0.05:  # some multipliers end at their bound
        assert np.any(np.abs(got.coef) == params.C)
    if settings.get("max_passes") is not None:
        assert got.warning is not None

"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line once its assertions hold, so a
verbose run doubles as the acceptance checklist.
"""

import time

import numpy as np
import pytest

from proscore import dnf, flow, gmm, ivector, regress
from proscore.corpus import FeatureSequence, PosteriorGram
from proscore.flow import AdamConfig, build_flow, nll_and_grads, train_core
from proscore.gop import simulate_competition

from conftest import (competition_posterior_oracle, numeric_jacobian,
                      svr_dual_oracle)


def _report(name):
    print(f"PASS: {name}")


# ---------------------------------------------------------------------------
# 1. phone-competition oracle


def test_criterion_1_phone_competition_oracle():
    start = time.time()
    rng = np.random.default_rng(1)
    a = rng.uniform(1e-6, 3.0, size=10_000)
    delta = rng.uniform(-3.0, 3.0, size=10_000)
    for ai, di in zip(a, delta):
        got = simulate_competition(ai, di).posterior
        assert abs(got - competition_posterior_oracle(ai, di)) < 1e-10

    # strictly increasing in delta for fixed a
    for ai in (0.3, 1.0, 2.5):
        posts = [simulate_competition(ai, d).posterior
                 for d in np.linspace(-3, 3, 200)]
        assert np.all(np.diff(posts) > 0)

    assert simulate_competition(1.0, 0.0).posterior == pytest.approx(
        0.731059, abs=1e-6)
    assert time.time() - start < 1.0
    _report("criterion 1 phone-competition oracle (1e4 points, 1e-10)")


# ---------------------------------------------------------------------------
# 2. change-of-variables correctness


def test_criterion_2_change_of_variables():
    rng = np.random.default_rng(2)
    cov = np.array([[1.0, 0.6], [0.6, 0.8]])
    frames = rng.standard_normal((512, 2)) @ np.linalg.cholesky(cov).T + [1.0, -1.0]
    model = build_flow(2, num_layers=4, width=16, seed=3)
    # 512 frames / batch 128 = 4 updates per epoch -> exactly 200 steps
    cfg = AdamConfig(learning_rate=0.01, batch_size=128, epochs=50, seed=4)
    train_core(model, frames, cfg)

    probes = rng.standard_normal((50, 2)) * 1.5 + [1.0, -1.0]

    def inv(x):
        z, _ = flow.flow_transform(model, "inverse", x[None, :])
        return z[0]

    for x in probes:
        _, analytic = flow.flow_transform(model, "inverse", x[None, :])
        J = numeric_jacobian(inv, x)
        numeric = np.log(abs(np.linalg.det(J)))
        assert abs(analytic[0] - numeric) <= 1e-5 * max(abs(numeric), 1.0)

    # quadrature of the modeled density over a covering grid
    xs = np.linspace(-9.0, 11.0, 401)
    ys = np.linspace(-11.0, 9.0, 401)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    dens = np.exp(flow.flow_logprob(model, grid)).reshape(gx.shape)
    mass = np.trapezoid(np.trapezoid(dens, xs, axis=1), ys)
    assert 0.99 <= mass <= 1.01
    _report(f"criterion 2 change-of-variables (quadrature mass {mass:.4f})")


# ---------------------------------------------------------------------------
# 3. gradient suite


def _max_grad_error(loss_and_grads, params, h=1e-5):
    _, grads = loss_and_grads()
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _ = loss_and_grads()
            flat[idx] = orig - h
            lm, _ = loss_and_grads()
            flat[idx] = orig
            num = (lp - lm) / (2 * h)
            denom = max(abs(num), abs(gflat[idx]), 1e-8)
            worst = max(worst, abs(num - gflat[idx]) / denom)
    return worst


def test_criterion_3_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(5)

    # flow: D=4, width-8 model with randomized parameters
    m = build_flow(4, num_layers=2, width=8, seed=6)
    for p in m.params():
        p += 0.2 * rng.standard_normal(p.shape)
    batch = rng.standard_normal((5, 4))

    def flow_lg():
        loss, grads, _ = nll_and_grads(m, batch)
        return loss, grads

    flow_err = _max_grad_error(flow_lg, m.params())
    assert flow_err < 1e-4

    # dnf: backbone plus trainable class means
    backbone = build_flow(4, num_layers=2, width=8, seed=7)
    for p in backbone.params():
        p += 0.2 * rng.standard_normal(p.shape)
    means = dnf.init_class_means(3, 4, seed=8)
    classes = rng.integers(0, 3, size=5)

    def dnf_lg():
        loss, grads, resid = nll_and_grads(backbone, batch, means[classes])
        gmu = np.zeros_like(means)
        np.add.at(gmu, classes, -resid / len(classes))
        return loss, grads + [gmu]

    dnf_err = _max_grad_error(dnf_lg, backbone.params() + [means])
    assert dnf_err < 1e-4
    assert time.time() - start < 60.0
    _report(f"criterion 3 gradient suite (flow {flow_err:.2e}, "
            f"dnf {dnf_err:.2e})")


# ---------------------------------------------------------------------------
# 4. EM monotonicity


def test_criterion_4_em_monotonicity():
    start = time.time()
    rng = np.random.default_rng(9)
    centers = 4.0 * rng.standard_normal((8, 6))
    frames = np.vstack([c + rng.standard_normal((500, 6)) for c in centers])
    _, trace = gmm.gmm_train(frames, K=64, iters=50, seed=10)
    diffs = np.diff(trace)
    assert np.all(diffs >= -1e-10 * np.maximum(np.abs(trace[:-1]), 1.0))

    ubm = gmm.GmmModel(np.array([0.5, 0.5]),
                       np.array([[-20.0, 0.0], [20.0, 0.0]]),
                       np.ones((2, 2)))
    loadings_true = rng.standard_normal((2, 2, 2))
    utts = []
    for u in range(30):
        z = rng.standard_normal(2)
        assign = rng.integers(0, 2, size=10)
        obs = (ubm.means[assign] + loadings_true[assign] @ z
               + rng.standard_normal((10, 2)))
        utts.append(FeatureSequence(f"u{u}", obs))
    _, aux = ivector.tmatrix_train(ubm, ivector.ubm_stats(ubm, utts), R=2,
                                   iters=10, seed=11)
    adiffs = np.diff(aux)
    assert np.all(adiffs >= -1e-8 * np.maximum(np.abs(aux[:-1]), 1.0))
    assert time.time() - start < 60.0
    _report("criterion 4 EM monotonicity (GMM 64x50, T-matrix 10 iters)")


# ---------------------------------------------------------------------------
# 5. oracle equivalence


def test_criterion_5_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(12)

    # i-vector inference vs direct joint-Gaussian conditioning on hard
    # assignments (components are far enough apart for exact posteriors)
    for K, D, R in ((1, 1, 1), (2, 2, 2), (2, 1, 1), (1, 2, 2)):
        means = 100.0 * np.arange(K)[:, None] * np.ones(D)
        variances = rng.uniform(0.5, 1.5, (K, D))
        ubm = gmm.GmmModel(np.full(K, 1.0 / K), means, variances)
        loadings = 0.5 * rng.standard_normal((K, D, R))
        model = ivector.IVectorModel(ubm, loadings)

        assign = rng.integers(0, K, size=6)
        frames = means[assign] + 0.3 * rng.standard_normal((6, D))
        st = ivector.ubm_stats(ubm, [FeatureSequence("u", frames)])

        T_stack = np.vstack([loadings[k] for k in assign])
        noise = np.diag(variances[assign].ravel())
        cov_oo = T_stack @ T_stack.T + noise
        expected = T_stack.T @ np.linalg.solve(
            cov_oo, (frames - means[assign]).ravel())
        [z] = ivector.ivector_infer(model, st)
        np.testing.assert_allclose(z, expected, atol=1e-9)

    # SVR dual vs projected-gradient QP oracle on N <= 10 problems
    for trial in range(4):
        n = int(rng.integers(4, 11))
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        params = regress.SvrParams(C=1.0 + trial, epsilon=0.1,
                                   kernel="rbf", gamma=0.5, tol=1e-6)
        m = regress.svr_train(X, y, params)
        Xs = (X - m.feat_mean) / m.feat_std
        d2 = ((Xs[:, None] - Xs[None, :]) ** 2).sum(axis=2)
        K_mat = np.exp(-m.gamma * d2)
        oracle_obj, _ = svr_dual_oracle(K_mat, y, params.C, params.epsilon)
        assert abs(m.dual_objective - oracle_obj) <= \
            1e-3 * max(abs(oracle_obj), 1.0)
    assert time.time() - start < 30.0
    _report("criterion 5 oracle equivalence (i-vector 1e-9, SVR 1e-3)")


# ---------------------------------------------------------------------------
# 6. table-ordering reproduction on the shipped synthetic preset


def test_criterion_6_table_orderings(pipeline_runs):
    result = pipeline_runs["results"][0]
    p = result.pcc_by_system

    # (a) raw marginal log-likelihoods are uninformative
    assert abs(p["gmm_loglik"]) < 0.2
    assert abs(p["nf_loglik"]) < 0.2
    # (b) every embedding system clears the floor
    for name in ("ivector_svr", "nf_svr", "dnf_svr"):
        assert p[name] >= 0.3
    # (c) discriminative flow >= flow >= i-vector (tie tolerance 0.02)
    assert p["dnf_svr"] >= p["nf_svr"] >= p["ivector_svr"] - 0.02
    # (d) every fusion beats the GOP baseline
    for name in ("ivector", "nf", "dnf"):
        assert p[f"gop+{name}_score_fusion"] >= p["gop"]
        assert p[f"gop+{name}_feature_fusion"] >= p["gop"]
        # (e) the selected interpolation weight is interior
        assert 0.0 < result.lambdas[name] < 1.0
    _report("criterion 6 table orderings on the synthetic preset "
            f"(gop {p['gop']:.3f}, dnf_svr {p['dnf_svr']:.3f})")


# ---------------------------------------------------------------------------
# 7. determinism


def test_criterion_7_determinism(pipeline_runs):
    dir_a, dir_b = pipeline_runs["dirs"]
    report_a = pipeline_runs["results"][0].report_path.read_bytes()
    report_b = pipeline_runs["results"][1].report_path.read_bytes()
    assert report_a == report_b

    models_a = sorted((dir_a / "models").glob("*"))
    models_b = sorted((dir_b / "models").glob("*"))
    assert [p.name for p in models_a] == [p.name for p in models_b]
    for pa, pb in zip(models_a, models_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name
    _report(f"criterion 7 determinism ({len(models_a)} artifacts byte-equal)")


# ---------------------------------------------------------------------------
# 8. format round trip


def test_criterion_8_format_round_trip(tmp_path):
    from proscore.corpus import (read_feature_file, read_posteriorgram_file,
                                 write_feature_file, write_posteriorgram_file)

    rng = np.random.default_rng(13)

    def check(path, first):
        assert path.read_bytes() == first, path.name

    # PRF1 features
    fs = FeatureSequence("u", rng.standard_normal((6, 3)))
    p = tmp_path / "u.feat"
    write_feature_file(p, fs)
    first = p.read_bytes()
    write_feature_file(p, read_feature_file(p, "u"))
    check(p, first)

    # PRF1 posteriorgram variant
    pg = PosteriorGram("u", rng.dirichlet(np.ones(4), size=5),
                       ("a", "b", "c", "d"))
    p = tmp_path / "u.post"
    write_posteriorgram_file(p, pg)
    first = p.read_bytes()
    write_posteriorgram_file(p, read_posteriorgram_file(p, "u"))
    check(p, first)

    # PGMM
    gmm_model = gmm.GmmModel(rng.dirichlet(np.ones(2)),
                             rng.standard_normal((2, 3)),
                             rng.uniform(0.5, 2.0, (2, 3)))
    p = tmp_path / "m.pgmm"
    gmm.save_gmm(p, gmm_model)
    first = p.read_bytes()
    gmm.save_gmm(p, gmm.load_gmm(p))
    check(p, first)

    # PIVM
    iv_model = ivector.IVectorModel(gmm_model,
                                    0.3 * rng.standard_normal((2, 3, 2)))
    p = tmp_path / "m.pivm"
    ivector.save_ivector_model(p, iv_model)
    first = p.read_bytes()
    ivector.save_ivector_model(p, ivector.load_ivector_model(p))
    check(p, first)

    # PNF1
    flow_model = build_flow(4, 3, 8, seed=14)
    for param in flow_model.params():
        param += 0.1 * rng.standard_normal(param.shape)
    p = tmp_path / "m.pnf1"
    flow.save_flow(p, flow_model)
    first = p.read_bytes()
    flow.save_flow(p, flow.load_flow(p))
    check(p, first)

    # PDNF
    dnf_model = dnf.DnfModel(flow_model, rng.standard_normal((5, 4)))
    p = tmp_path / "m.pdnf"
    dnf.save_dnf(p, dnf_model)
    first = p.read_bytes()
    dnf.save_dnf(p, dnf.load_dnf(p))
    check(p, first)

    # PSVR
    X = rng.standard_normal((10, 2))
    svr_model = regress.svr_train(X, X[:, 0], regress.SvrParams(epsilon=0.05))
    p = tmp_path / "m.psvr"
    regress.save_svr(p, svr_model)
    first = p.read_bytes()
    regress.save_svr(p, regress.load_svr(p))
    check(p, first)

    _report("criterion 8 format round trip (PRF1/PGMM/PIVM/PNF1/PDNF/PSVR)")

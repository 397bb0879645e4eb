import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from proscore import dnf, flow
from proscore.corpus import FeatureSequence
from proscore.flow import (AdamConfig, TrainingDivergence, build_flow,
                           flow_embed, flow_logprob, flow_train,
                           flow_transform, mean_nll, nll_and_grads, train_core)
from proscore.formats import DataError
from proscore.pipeline import load_model

LOG_2PI = np.log(2 * np.pi)


def _randomized_flow(dim, num_layers=4, width=8, seed=0, scale=0.3):
    """A flow with non-trivial parameters (random final layers too)."""
    m = build_flow(dim, num_layers, width, seed=seed)
    rng = np.random.default_rng(seed + 100)
    params = m.params()
    for p in params:
        p += scale * rng.standard_normal(p.shape)
    return m


# ---------------------------------------------------------------------------
# transform contracts


def test_identity_at_init():
    m = build_flow(4, num_layers=6, width=16, seed=0)
    batch = np.random.default_rng(1).standard_normal((10, 4))
    out, logdet = flow_transform(m, "forward", batch)
    np.testing.assert_array_equal(out, batch)
    np.testing.assert_array_equal(logdet, np.zeros(10))


def test_invertibility():
    m = _randomized_flow(6)
    batch = np.random.default_rng(2).standard_normal((20, 6))
    z, _ = flow_transform(m, "inverse", batch)
    back, _ = flow_transform(m, "forward", z)
    assert np.abs(back - batch).max() < 1e-8


def test_logdet_antisymmetry():
    m = _randomized_flow(6, seed=3)
    batch = np.random.default_rng(3).standard_normal((15, 6))
    z, ld_inv = flow_transform(m, "inverse", batch)
    _, ld_fwd = flow_transform(m, "forward", z)
    assert np.abs(ld_fwd + ld_inv).max() < 1e-10


def test_transform_input_validation():
    m = build_flow(4, 2, 8, seed=0)
    with pytest.raises(ValueError, match="direction"):
        flow_transform(m, "sideways", np.zeros((2, 4)))
    with pytest.raises(DataError, match=r"batch must be N x 4, got \(2, 3\)"):
        flow_transform(m, "forward", np.zeros((2, 3)))
    with pytest.raises(DataError, match="non-finite"):
        flow_transform(m, "forward", np.full((2, 4), np.nan))


@pytest.mark.parametrize("direction, sign", [("forward", 1.0), ("inverse", -1.0)])
def test_transform_rejects_a_pass_that_overflows(direction, sign):
    """A log-scale of about 760 overflows exp(s) (forward) or exp(-s)
    (inverse); flow_transform checks what the pass returns."""
    m = build_flow(4, 2, 8, seed=0)
    m.layers[0].cap = np.asarray(1e3)
    m.layers[0].scale_net.b3[:] = sign
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DataError, match="non-finite"):
            flow_transform(m, direction, np.ones((3, 4)))


def test_build_flow_needs_two_dims():
    with pytest.raises(DataError, match="at least 2 dimensions"):
        build_flow(1, 2, 8, seed=0)


# ---------------------------------------------------------------------------
# log-density


def test_logprob_identity_model_is_base_density():
    m = build_flow(2, 4, 8, seed=0)
    assert flow_logprob(m, np.zeros((1, 2)))[0] == pytest.approx(
        -LOG_2PI, abs=1e-12)
    batch = np.random.default_rng(4).standard_normal((10, 2))
    expected = -0.5 * (batch ** 2).sum(axis=1) - LOG_2PI
    np.testing.assert_allclose(flow_logprob(m, batch), expected, atol=1e-12)


def test_logprob_consistent_with_transform():
    m = _randomized_flow(4, seed=5)
    batch = np.random.default_rng(5).standard_normal((8, 4))
    z, logdet = flow_transform(m, "inverse", batch)
    expected = (-0.5 * (z ** 2).sum(axis=1) - 2.0 * LOG_2PI) + logdet
    np.testing.assert_allclose(flow_logprob(m, batch), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# embedding


def test_embed_single_frame_and_identity():
    m = _randomized_flow(4, seed=6)
    frame = np.random.default_rng(6).standard_normal((1, 4))
    z, _ = flow_transform(m, "inverse", frame)
    np.testing.assert_array_equal(flow_embed(m, FeatureSequence("u", frame)),
                                  z[0])
    ident = build_flow(4, 2, 8, seed=0)
    frames = np.random.default_rng(7).standard_normal((9, 4))
    np.testing.assert_allclose(flow_embed(ident, FeatureSequence("u", frames)),
                               frames.mean(axis=0), atol=1e-12)


def test_embed_duplicate_invariance():
    m = _randomized_flow(4, seed=8)
    frames = np.random.default_rng(8).standard_normal((5, 4))
    e1 = flow_embed(m, FeatureSequence("u", frames))
    e2 = flow_embed(m, FeatureSequence("u", np.vstack([frames, frames])))
    np.testing.assert_allclose(e1, e2, atol=1e-12)


# ---------------------------------------------------------------------------
# gradients and training


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    m = _randomized_flow(4, num_layers=2, width=8, seed=9, scale=0.2)
    batch = rng.standard_normal((6, 4))
    _, grads, _ = nll_and_grads(m, batch)
    params = m.params()
    h = 1e-5
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _, _ = nll_and_grads(m, batch)
            flat[idx] = orig - h
            lm, _, _ = nll_and_grads(m, batch)
            flat[idx] = orig
            num = (lp - lm) / (2 * h)
            denom = max(abs(num), abs(gflat[idx]), 1e-8)
            worst = max(worst, abs(num - gflat[idx]) / denom)
    assert worst < 1e-4


def test_training_reduces_nll_and_is_deterministic():
    rng = np.random.default_rng(10)
    frames = rng.standard_normal((400, 4)) @ np.diag([2.0, 0.5, 1.0, 1.5]) + 1.0
    base = build_flow(4, 4, 16, seed=1)
    cfg = AdamConfig(learning_rate=0.005, batch_size=100, epochs=8, seed=2)
    m1, trace1 = flow_train(base, frames, cfg)
    m2, trace2 = flow_train(base, frames, cfg)
    assert trace1[-1] < trace1[0]
    # training must not mutate the input model
    np.testing.assert_array_equal(base.params()[0],
                                  build_flow(4, 4, 16, seed=1).params()[0])
    assert trace1 == trace2
    for p1, p2 in zip(m1.params(), m2.params()):
        np.testing.assert_array_equal(p1, p2)


def test_trained_model_beats_identity_on_shifted_data():
    rng = np.random.default_rng(11)
    frames = rng.standard_normal((600, 2)) * 0.7 + [3.0, -2.0]
    base = build_flow(2, 4, 16, seed=3)
    cfg = AdamConfig(learning_rate=0.01, batch_size=150, epochs=20, seed=4)
    trained, _ = flow_train(base, frames, cfg)
    assert (flow_logprob(trained, frames).mean()
            > flow_logprob(base, frames).mean())


def test_training_on_standard_normal_stays_near_entropy():
    rng = np.random.default_rng(12)
    D = 4
    frames = rng.standard_normal((1000, D))
    base = build_flow(D, 4, 16, seed=5)
    cfg = AdamConfig(learning_rate=0.002, batch_size=200, epochs=10, seed=6)
    _, trace = flow_train(base, frames, cfg)
    entropy = 0.5 * D * np.log(2 * np.pi * np.e)
    assert abs(trace[-1] - entropy) / entropy < 0.01


def test_training_divergence_guard():
    rng = np.random.default_rng(13)
    frames = rng.standard_normal((64, 4)) * 1e200
    base = build_flow(4, 4, 8, seed=7)
    cfg = AdamConfig(learning_rate=1.0, batch_size=32, epochs=5, seed=8)
    with pytest.raises((TrainingDivergence, DataError),
                       match="training diverged|non-finite"):
        flow_train(base, frames, cfg)


def test_training_divergence_pickles():
    """A divergence raised in a training worker reaches the parent whole."""
    for exc in (TrainingDivergence(3), TrainingDivergence(4, "NLL is nan")):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is TrainingDivergence
        assert (back.epoch, str(back)) == (exc.epoch, str(exc))
    assert str(TrainingDivergence(3)) == "training diverged at epoch 3"


def test_train_requires_enough_frames():
    base = build_flow(4, 2, 8, seed=0)
    cfg = AdamConfig(batch_size=128, epochs=1, seed=0)
    with pytest.raises(DataError, match="batch_size"):
        flow_train(base, np.zeros((10, 4)), cfg)


def test_adam_config_validation():
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=float("nan"))
    with pytest.raises(ValueError):
        AdamConfig(epochs=0)


# ---------------------------------------------------------------------------
# expression-form oracle: flow.py computes these passes in reused memory,
# and must equal them, written as plain expressions, bit for bit


def _ref_net_forward(net, x):
    h1 = np.tanh(x @ net.w1.T + net.b1)
    h2 = np.tanh(h1 @ net.w2.T + net.b2)
    out = h2 @ net.w3.T + net.b3
    return out, (x, h1, h2)


def _ref_net_backward(net, cache, dout):
    x, h1, h2 = cache
    dw3 = dout.T @ h2
    db3 = dout.sum(axis=0)
    dh2 = (dout @ net.w3) * (1.0 - h2 ** 2)
    dw2 = dh2.T @ h1
    db2 = dh2.sum(axis=0)
    dh1 = (dh2 @ net.w2) * (1.0 - h1 ** 2)
    dw1 = dh1.T @ x
    db1 = dh1.sum(axis=0)
    dx = dh1 @ net.w1
    return dx, [dw1, db1, dw2, db2, dw3, db3]


def _ref_inverse_cached(layer, y):
    a = y[:, layer.cond]
    raw, sc_cache = _ref_net_forward(layer.scale_net, a)
    th = np.tanh(raw)
    s = float(layer.cap) * th
    t, sh_cache = _ref_net_forward(layer.shift_net, a)
    exp_neg = np.exp(-s)
    xb = (y[:, layer.trans] - t) * exp_neg
    x = np.empty_like(y)
    x[:, layer.cond] = a
    x[:, layer.trans] = xb
    return x, s.sum(axis=1), (th, sc_cache, sh_cache, exp_neg, xb)


def _ref_backward_inverse(layer, cache, gx, weight):
    th, sc_cache, sh_cache, exp_neg, xb = cache
    gxb = gx[:, layer.trans]
    gs = -gxb * xb + weight
    gt = -gxb * exp_neg
    graw = gs * float(layer.cap) * (1.0 - th ** 2)
    gcap = np.asarray((gs * th).sum())
    ga_s, g_scale = _ref_net_backward(layer.scale_net, sc_cache, graw)
    ga_t, g_shift = _ref_net_backward(layer.shift_net, sh_cache, gt)
    gy = np.empty_like(gx)
    gy[:, layer.trans] = gxb * exp_neg
    gy[:, layer.cond] = gx[:, layer.cond] + ga_s + ga_t
    return gy, g_scale + g_shift + [gcap]


def _ref_nll_and_grads(m, batch, prior_means=None):
    """(loss, gradients in m.params() order, residuals) of the batch."""
    out, logdet, caches = batch, np.zeros(batch.shape[0]), []
    for layer in reversed(m.layers):
        out, sum_s, cache = _ref_inverse_cached(layer, out)
        caches.append((layer, cache))
        logdet -= sum_s
    resid = out if prior_means is None else out - prior_means
    log_p = -0.5 * (resid ** 2).sum(axis=1) - 0.5 * m.dim * LOG_2PI + logdet
    n = batch.shape[0]
    g, grads = resid / n, []
    for layer, cache in reversed(caches):
        g, layer_grads = _ref_backward_inverse(layer, cache, g, 1.0 / n)
        grads.extend(layer_grads)
    return -float(log_p.mean()), grads, resid


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.shape, a.dtype) == (b.shape, b.dtype)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("with_means", [False, True])
@pytest.mark.parametrize("rows, dim, width", [(40, 5, 8), (256, 16, 48)])
def test_nll_and_grads_match_the_expression_oracle(rows, dim, width,
                                                   with_means, num_layers):
    """Loss, residuals and every gradient, NF and DNF (prior means), with
    new gradient arrays and with a caller's buffer."""
    rng = np.random.default_rng(rows + num_layers)
    m = _randomized_flow(dim, num_layers, width, seed=num_layers)
    batch = rng.standard_normal((rows, dim)) * 1.5 + 0.5
    mu = rng.standard_normal((rows, dim)) if with_means else None
    ref_loss, ref_grads, ref_resid = _ref_nll_and_grads(m, batch, mu)
    buffer = [np.full_like(p, np.nan) for p in m.params()]
    for out in (None, buffer):
        loss, grads, resid = nll_and_grads(m, batch, mu, out)
        assert loss == ref_loss
        _assert_same_bits(resid, ref_resid)
        assert len(grads) == len(ref_grads) == len(m.params())
        for g, r in zip(grads, ref_grads):
            _assert_same_bits(g, r)
    assert grads is buffer


# ---------------------------------------------------------------------------
# bit-exactness oracles: the training loop's shortcuts change no bit


def test_mean_nll_is_the_loss_of_nll_and_grads():
    frames = np.random.default_rng(14).standard_normal((96, 4)) + 0.5
    m = build_flow(4, 4, 8, seed=14)
    # three Adam steps, so that the flow is not the identity
    train_core(m, frames, AdamConfig(learning_rate=0.05, batch_size=32,
                                     epochs=1, seed=14))
    assert mean_nll(m, frames) != mean_nll(build_flow(4, 4, 8, seed=14), frames)
    mu = np.random.default_rng(15).standard_normal(frames.shape)
    for prior in (None, mu):
        assert mean_nll(m, frames, prior) == nll_and_grads(m, frames, prior)[0]


def test_training_loss_is_the_inference_density():
    """The NLL that training minimizes is minus the mean log-density that
    inference reports, to the last bit."""
    frames = np.random.default_rng(16).standard_normal((96, 4)) * 2.0 - 1.0
    m, _ = flow_train(build_flow(4, 4, 8, seed=16), frames,
                      AdamConfig(learning_rate=0.05, batch_size=32, epochs=2,
                                 seed=16))
    assert mean_nll(m, frames) == -flow_logprob(m, frames).mean()


def test_trace_ends_with_the_full_batch_loss():
    rng = np.random.default_rng(16)
    frames = rng.standard_normal((200, 4)) * 1.5 - 1.0
    m = build_flow(4, 3, 8, seed=17)
    trace = train_core(m, frames, AdamConfig(learning_rate=0.01,
                                             batch_size=50, epochs=3, seed=18))
    assert trace[-1] == nll_and_grads(m, frames)[0]


class _ListAdam:
    """Adam as one update per parameter array: the oracle that the flat
    buffer update must match bit for bit."""

    def __init__(self, params, cfg):
        self.cfg = cfg
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = flow.ADAM_BETA1 * self.m[i] + (1 - flow.ADAM_BETA1) * g
            self.v[i] = (flow.ADAM_BETA2 * self.v[i]
                         + (1 - flow.ADAM_BETA2) * g ** 2)
            mhat = self.m[i] / (1 - flow.ADAM_BETA1 ** self.t)
            vhat = self.v[i] / (1 - flow.ADAM_BETA2 ** self.t)
            p -= self.cfg.learning_rate * mhat / (np.sqrt(vhat) + flow.ADAM_EPS)


def _list_adam_train(m, frames, cfg, class_means=None, frame_class=None):
    """The minibatch loop of train_core, with the expression-form passes,
    new gradient arrays and each array stepped on its own. Returns its
    trace: each epoch's mean minibatch loss, the last replaced by the
    full-batch loss of the trained model."""
    params = m.params() + ([] if class_means is None else [class_means])
    opt = _ListAdam(params, cfg)
    rng = np.random.default_rng(cfg.seed)
    n = frames.shape[0]
    trace = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n - cfg.batch_size + 1, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            mu = None if class_means is None else class_means[frame_class[idx]]
            loss, grads, resid = _ref_nll_and_grads(m, frames[idx], mu)
            losses.append(loss)
            if class_means is not None:
                gmu = np.zeros_like(class_means)
                np.add.at(gmu, frame_class[idx], -resid / len(idx))
                grads = grads + [gmu]
            opt.step(params, grads)
        trace.append(float(np.mean(losses)))
    mu = None if class_means is None else class_means[frame_class]
    trace[-1] = _ref_nll_and_grads(m, frames, mu)[0]
    return trace


@pytest.mark.parametrize("with_means", [False, True])
def test_flat_adam_matches_per_array_adam(with_means):
    rng = np.random.default_rng(19)
    frames = rng.standard_normal((150, 4)) + [1.0, 0.0, -1.0, 2.0]
    frame_class = rng.integers(0, 3, size=150)
    cfg = AdamConfig(learning_rate=0.02, batch_size=40, epochs=3, seed=20)
    means = rng.standard_normal((3, 4))
    ref, ref_means = build_flow(4, 3, 8, seed=21), means.copy()
    ref_trace = _list_adam_train(ref, frames, cfg,
                                 ref_means if with_means else None, frame_class)
    m, trained_means = build_flow(4, 3, 8, seed=21), means.copy()
    trace = train_core(m, frames, cfg,
                       class_means=trained_means if with_means else None,
                       frame_class=frame_class)
    assert len(trace) == cfg.epochs
    assert trace == ref_trace
    assert len(m.params()) == len(ref.params())
    for p, q in zip(m.params(), ref.params()):
        np.testing.assert_array_equal(p, q)
    if with_means:
        assert not np.array_equal(trained_means, means)
        np.testing.assert_array_equal(trained_means, ref_means)


def _traced_peak(fn, *args) -> int:
    """The tracemalloc peak of fn(*args), in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the frames, layers and width of the memory bounds below
_N, _DIM, _WIDTH = 20_000, 16, 48


def _pass_bound() -> float:
    """The bound of a pass that keeps no backward cache over _N x _DIM
    frames, in bytes: (2 * width + 2 * dim + 3 * (dim // 2) + 2) columns
    of N doubles, 24.64 MB, plus up to 2 MB for the parameters and small
    temporaries: 26.64 MB (see the tests that use it)."""
    return (2 * _WIDTH + 2 * _DIM + 3 * (_DIM // 2) + 2) * _N * 8 + 2e6


def test_mean_nll_memory_is_bounded():
    """mean_nll of N = 20,000 x 16 frames through 6 layers of width 48.
    It keeps no cache, so at most one coupling net holds its hidden
    activations at a time: while a net forms h2 from h1, or its output
    from h2, those two are alive (2 N x 48 arrays, 15.36 MB), and the scale
    net's are freed before the shift net runs. The layer's input and
    output are alive (2 N x 16 arrays, 5.12 MB; the frames themselves are
    allocated before tracing starts), and so are three N x 8 arrays: tanh
    of the raw scales, exp(-s) and the transformed half (3.84 MB), with
    logdet and sum(s) (0.32 MB): 24.64 MB, plus up to 2 MB. Holding the
    scale net's h1 and h2 while the shift net runs, as a backward cache
    does, would add 15.36 MB more."""
    frames = np.random.default_rng(31).standard_normal((_N, _DIM))
    m = _randomized_flow(_DIM, 6, _WIDTH, seed=31)
    assert _traced_peak(mean_nll, m, frames) <= _pass_bound()


def test_forward_memory_is_bounded():
    """FlowModel.forward of the frames of test_mean_nll_memory_is_bounded
    keeps no cache either. While a layer's shift net runs, its h1 and h2
    (2 N x 48), the layer's input (N x 16), tanh of the raw scales, s and
    the net's output t (3 N x 8), and logdet and the last layer's log|det|
    (2 N) are alive; after the nets, the output (N x 16) and at most two
    N x 8 temporaries of x_B * exp(s) + t take the hidden arrays' place.
    Both fit the bound of the inverse pass."""
    frames = np.random.default_rng(31).standard_normal((_N, _DIM))
    m = _randomized_flow(_DIM, 6, _WIDTH, seed=31)
    assert _traced_peak(m.forward, frames) <= _pass_bound()


# ---------------------------------------------------------------------------
# passes without a backward cache run over row blocks of at least 4,096 rows


def _whole_pass(m, batch, direction):
    """The expression-form pass of every layer over the whole batch, in
    one product per net: the oracle of the blocked passes."""
    out, logdet = batch, np.zeros(batch.shape[0])
    if direction == "inverse":
        for layer in reversed(m.layers):
            out, sum_s, _ = _ref_inverse_cached(layer, out)
            logdet -= sum_s
        return out, logdet
    for layer in m.layers:
        a = out[:, layer.cond]
        s = float(layer.cap) * np.tanh(_ref_net_forward(layer.scale_net, a)[0])
        t = _ref_net_forward(layer.shift_net, a)[0]
        y = np.empty_like(out)
        y[:, layer.cond] = a
        y[:, layer.trans] = out[:, layer.trans] * np.exp(s) + t
        out = y
        logdet += s.sum(axis=1)
    return out, logdet


# below one block, one block, the largest single block, and blocks of
# 4,096 rows with a remainder of 0, 1, 4,095, 5 and 77 rows spread over them
BLOCKED_ROWS = [4095, 4096, 8191, 8192, 8193, 12287, 12293, 20557]


@pytest.mark.parametrize("rows", BLOCKED_ROWS)
def test_blocked_passes_equal_the_whole_batch_pass(rows):
    """FlowModel.inverse without caches, FlowModel.forward and mean_nll,
    NF and DNF (prior means, as an array and as train_core's per-block
    class means), equal the whole-batch pass bit for bit."""
    rng = np.random.default_rng(rows)
    m = _randomized_flow(_DIM, 6, _WIDTH, seed=rows % 97)
    batch = rng.standard_normal((rows, _DIM)) * 1.5 + 0.5
    for direction in ("inverse", "forward"):
        want = _whole_pass(m, batch, direction)
        for got, ref in zip(getattr(m, direction)(batch), want):
            _assert_same_bits(got, ref)
    z, logdet = _whole_pass(m, batch, "inverse")
    means, frame_class = rng.standard_normal((5, _DIM)), rng.integers(0, 5, rows)
    for prior in (None, means[frame_class]):
        resid = z if prior is None else z - prior
        log_p = -0.5 * (resid ** 2).sum(axis=1) - 0.5 * _DIM * LOG_2PI + logdet
        assert mean_nll(m, batch, prior) == -float(log_p.mean())
    assert mean_nll(m, batch, flow._ClassMeans(means, frame_class)) == \
        mean_nll(m, batch, means[frame_class])


@pytest.mark.parametrize("rows", [100, *BLOCKED_ROWS])
def test_no_cache_passes_run_the_nets_on_blocks_of_4096_rows_or_more(
        monkeypatch, rows):
    """Blocks of a few hundred rows change the last bits of some rows, so
    every pass without a backward cache calls each coupling net on 4,096 to
    8,191 rows, or on the whole batch when it has fewer rows, and on blocks
    that differ by at most one row."""
    calls, net_forward = [], flow.CouplingNet.forward

    def counted(net, x):
        calls.append(x.shape[0])
        return net_forward(net, x)

    monkeypatch.setattr(flow.CouplingNet, "forward", counted)
    m = _randomized_flow(4, 3, 8, seed=rows % 89)
    batch = np.random.default_rng(rows).standard_normal((rows, 4))
    for run in (lambda: m.inverse(batch), lambda: m.forward(batch),
                lambda: mean_nll(m, batch), lambda: flow_logprob(m, batch)):
        calls.clear()
        run()
        assert sum(calls) == 6 * rows  # two nets in each of three layers
        if rows < 4096:
            assert calls == [rows] * 6
        else:
            assert 4096 <= min(calls) and max(calls) <= 8191
            assert max(calls) - min(calls) <= 1


# the frames of the blocked-pass bounds below
_BIG_N = 100_000


def _blocked_pass_bound(whole_columns: int) -> float:
    """The bound of a blocked pass over _BIG_N x _DIM frames, in bytes:
    `whole_columns` columns of _BIG_N doubles, which hold the pass's
    outputs and what is computed from them, plus the arrays of one block
    of at most 2 * 4,096 - 1 rows, with the columns of _pass_bound:
    (2 * width + 2 * dim + 3 * (dim // 2) + 2) * 8,191 doubles, 10.09 MB,
    plus up to 2 MB."""
    block = 2 * flow._PASS_ROWS - 1
    return (whole_columns * _BIG_N
            + (2 * _WIDTH + 2 * _DIM + 3 * (_DIM // 2) + 2) * block) * 8 + 2e6


def test_mean_nll_memory_is_bounded_by_a_block():
    """mean_nll of 100,000 x 16 frames through 6 layers of width 48, NF
    and DNF. Its one whole column is the rows' log-densities (0.8 MB).
    Beside it, one block's arrays are alive at a time: those of the
    block's inverse pass (10.09 MB at most), after which the block's
    latent rows, their residuals and squares and two row vectors (3 * dim
    + 2 columns) take their place. So the bound is 1 column and a block's
    arrays, 10.89 MB, plus up to 2 MB. A whole-batch pass would hold
    2 N x 48 hidden arrays, 76.8 MB, and the whole latent array 12.8 MB."""
    frames = np.random.default_rng(31).standard_normal((_BIG_N, _DIM))
    mu = np.random.default_rng(32).standard_normal((_BIG_N, _DIM))
    m = _randomized_flow(_DIM, 6, _WIDTH, seed=31)
    for prior in (None, mu):
        assert _traced_peak(mean_nll, m, frames, prior) <= _blocked_pass_bound(1)


def test_forward_memory_is_bounded_by_a_block():
    """FlowModel.forward of the frames of
    test_mean_nll_memory_is_bounded_by_a_block: its output and logdet
    (dim + 1 columns, 13.6 MB) and one block's arrays (10.09 MB), plus up
    to 2 MB."""
    frames = np.random.default_rng(31).standard_normal((_BIG_N, _DIM))
    m = _randomized_flow(_DIM, 6, _WIDTH, seed=31)
    assert _traced_peak(m.forward, frames) <= _blocked_pass_bound(_DIM + 1)


@pytest.mark.parametrize("epochs", [1, 4])
@pytest.mark.parametrize("with_means", [False, True])
def test_training_makes_one_full_data_pass(monkeypatch, epochs, with_means):
    """train_core runs mean_nll once, after the last epoch, however many
    epochs it trains."""
    calls = []

    def counted(m, batch, prior_means=None):
        calls.append(batch.shape[0])
        return mean_nll(m, batch, prior_means)

    monkeypatch.setattr(flow, "mean_nll", counted)
    rng = np.random.default_rng(23)
    frames = rng.standard_normal((120, 4))
    cfg = AdamConfig(learning_rate=0.01, batch_size=30, epochs=epochs, seed=24)
    means = np.zeros((2, 4)) if with_means else None
    trace = train_core(build_flow(4, 2, 8, seed=25), frames, cfg,
                       class_means=means, frame_class=rng.integers(0, 2, 120))
    assert calls == [120]
    assert len(trace) == epochs


def test_non_finite_final_loss_diverges_at_the_last_epoch(monkeypatch):
    """A trained model whose full-data NLL is not finite raises
    TrainingDivergence naming the last epoch."""
    monkeypatch.setattr(flow, "mean_nll", lambda *args: float("nan"))
    frames = np.random.default_rng(26).standard_normal((120, 4))
    cfg = AdamConfig(learning_rate=0.01, batch_size=30, epochs=3, seed=27)
    with pytest.raises(TrainingDivergence) as caught:
        flow_train(build_flow(4, 2, 8, seed=28), frames, cfg)
    assert caught.value.epoch == cfg.epochs - 1


@pytest.mark.parametrize("dim", [4, 5])
def test_loaded_layer_halves_match_build_flow(tmp_path, dim):
    """PNF1 and PDNF hold no masks: each loaded layer's halves are those
    that build_flow gives it."""
    m = build_flow(dim, 3, 8, seed=22)
    flow.save_flow(tmp_path / "m.pnf1", m)
    dnf.save_dnf(tmp_path / "m.pdnf", dnf.DnfModel(m, np.zeros((2, dim))))
    for loaded in (load_model(tmp_path / "m.pnf1"),
                   load_model(tmp_path / "m.pdnf").backbone):
        assert [(lay.cond, lay.trans) for lay in loaded.layers] == \
            [(lay.cond, lay.trans) for lay in m.layers]
        for p, q in zip(loaded.params(), m.params()):
            np.testing.assert_array_equal(p, q)


def test_diverging_training_raises_no_numpy_warning():
    """A flow whose steps overflow stops with TrainingDivergence, and the
    overflow on its way there prints no numpy RuntimeWarning."""
    frames = np.random.default_rng(1).standard_normal((512, 6))
    cfg = AdamConfig(learning_rate=1e6, batch_size=64, epochs=3, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergence, match="epoch 0"):
            flow_train(build_flow(6, 2, 16, seed=1), frames, cfg)

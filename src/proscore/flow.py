"""Affine-coupling normalizing flow (RealNVP-style) in plain numpy.

Each coupling layer leaves one half of the dimensions untouched and
scales/shifts the other half as a function of the first, so both the
inverse and the Jacobian log-determinant are exact. Log-densities follow
the change-of-variables formula against a standard-normal base prior;
training minimizes mean negative log-likelihood with Adam using
hand-written reverse-mode gradients. One inverse pass (`FlowModel.inverse`)
and one density (`log_density`) serve training, inference and the
inversion gates alike, so the loss that training minimizes is the
log-likelihood that inference reports.

The final linear layers of the coupling networks are zero-initialized, so
a fresh model is exactly the identity map. Scale outputs pass through
tanh times a learnable cap (init 2.0) to keep log-determinants bounded.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import formats
from .corpus import FeatureSequence

FLOW_MAGIC = "PNF1"
LOG_2PI = float(np.log(2.0 * np.pi))
INIT_CAP = 2.0  # initial bound on the coupling log-scales
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class FlowError(formats.DataError):
    pass


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")

    def __reduce__(self):  # pickled from a training worker
        return type(self), (self.epoch, str(self))


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


class CouplingNet:
    """Two-hidden-layer tanh perceptron used for scale/shift prediction."""

    PARAMS = ("w1", "b1", "w2", "b2", "w3", "b3")

    def __init__(self, w1, b1, w2, b2, w3, b3):
        self.w1, self.b1 = w1, b1
        self.w2, self.b2 = w2, b2
        self.w3, self.b3 = w3, b3

    @classmethod
    def create(cls, d_in: int, d_out: int, width: int, rng) -> "CouplingNet":
        w1 = rng.standard_normal((width, d_in)) / np.sqrt(max(d_in, 1))
        w2 = rng.standard_normal((width, width)) / np.sqrt(width)
        # zero final layer -> the network starts as the constant 0
        w3 = np.zeros((d_out, width))
        return cls(w1, np.zeros(width), w2, np.zeros(width), w3, np.zeros(d_out))

    def forward(self, x):
        h1 = np.tanh(x @ self.w1.T + self.b1)
        h2 = np.tanh(h1 @ self.w2.T + self.b2)
        out = h2 @ self.w3.T + self.b3
        return out, (x, h1, h2)

    def backward(self, cache, dout):
        x, h1, h2 = cache
        dw3 = dout.T @ h2
        db3 = dout.sum(axis=0)
        dh2 = (dout @ self.w3) * (1.0 - h2 ** 2)
        dw2 = dh2.T @ h1
        db2 = dh2.sum(axis=0)
        dh1 = (dh2 @ self.w2) * (1.0 - h1 ** 2)
        dw1 = dh1.T @ x
        db1 = dh1.sum(axis=0)
        dx = dh1 @ self.w1
        return dx, [dw1, db1, dw2, db2, dw3, db3]

    def params(self):
        return [getattr(self, name) for name in self.PARAMS]


def alternating_halves(dim: int, index: int):
    """Slices of the conditioning and the transformed half of coupling
    layer `index`: the first dim // 2 dimensions condition the even layers,
    the others the odd ones."""
    if dim < 2:
        raise FlowError("a coupling flow needs at least 2 dimensions")
    low, high = slice(0, dim // 2), slice(dim // 2, dim)
    return (low, high) if index % 2 == 0 else (high, low)


class CouplingLayer:
    """y_A = x_A;  y_B = x_B * exp(s(x_A)) + t(x_A);  log|det| = sum s."""

    def __init__(self, halves, scale_net: CouplingNet, shift_net: CouplingNet,
                 cap: float):
        self.cond, self.trans = halves
        self.scale_net = scale_net
        self.shift_net = shift_net
        self.cap = np.asarray(float(cap))

    @classmethod
    def create(cls, halves, width: int, rng) -> "CouplingLayer":
        d_in, d_out = (h.stop - h.start for h in halves)
        return cls(halves,
                   CouplingNet.create(d_in, d_out, width, rng),
                   CouplingNet.create(d_in, d_out, width, rng),
                   INIT_CAP)

    def _scale_shift(self, a):
        raw, sc_cache = self.scale_net.forward(a)
        th = np.tanh(raw)
        s = float(self.cap) * th
        t, sh_cache = self.shift_net.forward(a)
        return s, t, th, sc_cache, sh_cache

    def forward(self, x):
        a = x[:, self.cond]
        s, t, *_ = self._scale_shift(a)
        y = np.empty_like(x)
        y[:, self.cond] = a
        y[:, self.trans] = x[:, self.trans] * np.exp(s) + t
        return y, s.sum(axis=1)

    def inverse_cached(self, y):
        a = y[:, self.cond]
        s, t, th, sc_cache, sh_cache = self._scale_shift(a)
        exp_neg = np.exp(-s)
        xb = (y[:, self.trans] - t) * exp_neg
        x = np.empty_like(y)
        x[:, self.cond] = a
        x[:, self.trans] = xb
        cache = (th, sc_cache, sh_cache, exp_neg, xb)
        return x, s.sum(axis=1), cache

    def backward_inverse(self, cache, gx, weight):
        """Backprop through inverse_cached.

        `gx` is dLoss/d(inverse output); `weight` is the direct dLoss/ds_ij
        coefficient coming from the +sum(s) term of the NLL. Returns
        dLoss/d(inverse input) and the parameter gradients.
        """
        th, sc_cache, sh_cache, exp_neg, xb = cache
        gxb = gx[:, self.trans]
        gs = -gxb * xb + weight
        gt = -gxb * exp_neg
        graw = gs * float(self.cap) * (1.0 - th ** 2)
        gcap = np.asarray((gs * th).sum())
        ga_s, g_scale = self.scale_net.backward(sc_cache, graw)
        ga_t, g_shift = self.shift_net.backward(sh_cache, gt)
        gy = np.empty_like(gx)
        gy[:, self.trans] = gxb * exp_neg
        gy[:, self.cond] = gx[:, self.cond] + ga_s + ga_t
        return gy, g_scale + g_shift + [gcap]

    @property
    def width(self) -> int:
        return self.scale_net.b1.shape[0]


class FlowModel:
    """Stack of coupling layers; forward maps latent to data space."""

    def __init__(self, layers, dim: int):
        self.layers = list(layers)
        self.dim = dim

    def forward(self, batch):
        out = batch
        logdet = np.zeros(batch.shape[0])
        for layer in self.layers:
            out, ld = layer.forward(out)
            logdet += ld
        return out, logdet

    def inverse(self, batch, caches=None):
        """f^-1 of the batch and ln|det df^-1/do| per row. Each layer's
        backward cache is appended to `caches` unless it is None."""
        out = batch
        logdet = np.zeros(batch.shape[0])
        for layer in reversed(self.layers):
            out, sum_s, cache = layer.inverse_cached(out)
            if caches is not None:
                caches.append((layer, cache))
            logdet -= sum_s
        return out, logdet

    def _slots(self):
        """(owner, attribute) of every parameter, in params() order."""
        for layer in self.layers:
            for net in (layer.scale_net, layer.shift_net):
                for name in CouplingNet.PARAMS:
                    yield net, name
            yield layer, "cap"

    def params(self):
        return [getattr(owner, name) for owner, name in self._slots()]

    def bind(self, arrays) -> None:
        """Make `arrays` (in params() order) the model's parameters."""
        for (owner, name), arr in zip(self._slots(), arrays, strict=True):
            setattr(owner, name, arr)


def build_flow(dim: int, num_layers: int = 10, width: int = 64,
               seed: int = 0) -> FlowModel:
    """Identity-initialized flow whose layers alternate their halves."""
    rng = np.random.default_rng(seed)
    layers = [CouplingLayer.create(alternating_halves(dim, i), width, rng)
              for i in range(num_layers)]
    return FlowModel(layers, dim)


def flow_transform(m: FlowModel, direction: str, batch: np.ndarray):
    """Apply f (forward, latent->data) or f^-1 (inverse) to a batch.

    Returns the images and the exact per-row log|det| of the applied map
    with respect to its input, or a FlowError if either is not finite.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != m.dim:
        raise FlowError(f"batch must be N x {m.dim}, got {batch.shape}")
    if not np.all(np.isfinite(batch)):
        raise FlowError("non-finite batch input")
    if direction not in ("forward", "inverse"):
        raise FlowError(f"unknown direction {direction!r}")
    out, logdet = getattr(m, direction)(batch)
    if not (np.all(np.isfinite(out)) and np.all(np.isfinite(logdet))):
        raise FlowError(f"non-finite activations in the {direction} pass")
    return out, logdet


def log_density(z: np.ndarray, logdet: np.ndarray) -> np.ndarray:
    """ln N(z; 0, I) + logdet per row: ln p(o) of the rows o whose latent
    images are z = f^-1(o), with logdet = ln|det df^-1/do|."""
    return -0.5 * (z ** 2).sum(axis=1) - 0.5 * z.shape[1] * LOG_2PI + logdet


def flow_logprob(m: FlowModel, batch: np.ndarray) -> np.ndarray:
    """ln p(o) = ln N(f^-1(o); 0, I) + ln|det df^-1/do| per row."""
    return log_density(*flow_transform(m, "inverse", batch))


def utterance_frames(m: FlowModel, fs: FeatureSequence) -> np.ndarray:
    """The frames of `fs`, which must have the model's dimension."""
    if fs.dim != m.dim:
        raise FlowError(f"{fs.utterance_id}: frames have dim {fs.dim}, model {m.dim}")
    return fs.frames


def flow_embed(m: FlowModel, fs: FeatureSequence) -> np.ndarray:
    """Utterance embedding: mean of the latent images of the frames."""
    z, _ = flow_transform(m, "inverse", utterance_frames(m, fs))
    return z.mean(axis=0)


# ---------------------------------------------------------------------------
# training


def _inverse_nll(m: FlowModel, batch: np.ndarray, prior_means, caches):
    """Mean NLL of the batch and its residuals z - mu, by the inverse pass
    and the density that inference uses."""
    z, logdet = m.inverse(batch, caches)
    resid = z if prior_means is None else z - prior_means
    return -float(log_density(resid, logdet).mean()), resid


def mean_nll(m: FlowModel, batch: np.ndarray, prior_means=None) -> float:
    """Mean NLL of the batch, the loss of nll_and_grads without gradients."""
    return _inverse_nll(m, batch, prior_means, None)[0]


def nll_and_grads(m: FlowModel, batch: np.ndarray, prior_means=None):
    """Mean NLL of the batch, gradients for all flow params, and residuals.

    `prior_means` optionally gives a per-row Gaussian prior mean (used by
    the discriminative variant); the returned residuals z - mu let the
    caller form gradients for those means.
    """
    caches = []
    loss, resid = _inverse_nll(m, batch, prior_means, caches)
    n = batch.shape[0]
    g = resid / n
    weight = 1.0 / n
    all_grads = []
    # reversed(caches) visits m.layers in order, as m.params() lists them
    for layer, cache in reversed(caches):
        g, grads = layer.backward_inverse(cache, g, weight)
        all_grads.extend(grads)
    return loss, all_grads, resid


class Adam:
    """Adam over one flat parameter buffer (updated in place)."""

    def __init__(self, params, cfg: AdamConfig):
        self.cfg = cfg
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, params, grads):
        """params -= lr * mhat / (sqrt(vhat) + eps), in place, one operation
        at a time in that order, so it rounds as the expression would."""
        self.t += 1
        self.m *= ADAM_BETA1
        self.m += (1 - ADAM_BETA1) * grads
        sq = np.square(grads)
        sq *= 1 - ADAM_BETA2
        self.v *= ADAM_BETA2
        self.v += sq
        mhat = self.m / (1 - ADAM_BETA1 ** self.t)
        vhat = self.v / (1 - ADAM_BETA2 ** self.t)
        np.sqrt(vhat, out=vhat)
        vhat += ADAM_EPS
        mhat *= self.cfg.learning_rate
        mhat /= vhat
        params -= mhat


def _flat_views(arrays):
    """One float64 buffer holding `arrays` end to end, and a view per array."""
    flat = np.concatenate([np.ravel(a) for a in arrays])
    views, start = [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(np.shape(a)))
        start += a.size
    return flat, views


def train_core(m: FlowModel, frames: np.ndarray, cfg: AdamConfig,
               class_means=None, frame_class=None):
    """Shared minibatch NLL training loop for NF and DNF.

    Trains `m` in place, and `class_means` too when given: the prior mean
    of each class, `frame_class` naming each frame's. Returns the NLL
    trace: per epoch the mean of its minibatch losses, but last the mean NLL
    of all `frames` under the trained model, its one full-data pass. The
    trained arrays live in one flat buffer for the optimizer, and the
    model's parameters become views of it.
    """
    frames = np.asarray(frames, dtype=np.float64)
    n = frames.shape[0]
    if n < cfg.batch_size:
        raise FlowError(f"need at least batch_size={cfg.batch_size} frames, got {n}")
    params = m.params()
    trained = params if class_means is None else params + [class_means]
    flat, views = _flat_views(trained)
    m.bind(views[:len(params)])
    means = None if class_means is None else views[-1]
    opt = Adam(flat, cfg)
    rng = np.random.default_rng(cfg.seed)

    trace = []
    # a diverging step overflows to inf or nan; the finite-loss checks
    # below raise on it, so numpy's warnings on the way say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            losses = []
            for start in range(0, n - cfg.batch_size + 1, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                batch = frames[idx]
                mu = None if means is None else means[frame_class[idx]]
                loss, grads, resid = nll_and_grads(m, batch, mu)
                if not np.isfinite(loss):
                    raise TrainingDivergence(epoch)
                losses.append(loss)
                if means is not None:
                    gmu = np.zeros_like(means)
                    np.add.at(gmu, frame_class[idx], -resid / len(idx))
                    grads = grads + [gmu]
                opt.step(flat, np.concatenate([np.ravel(g) for g in grads]))
            trace.append(float(np.mean(losses)))
        trace[-1] = mean_nll(m, frames,
                             None if means is None else means[frame_class])
    if not np.isfinite(trace[-1]):
        raise TrainingDivergence(cfg.epochs - 1)
    if means is not None:
        class_means[...] = means
    return trace


def flow_train(m: FlowModel, frames: np.ndarray, cfg: AdamConfig):
    """Maximum-likelihood training; returns (trained copy, NLL trace): per
    epoch its mean minibatch loss, and last the full-data NLL of the copy."""
    trained = copy.deepcopy(m)
    trace = train_core(trained, frames, cfg)
    return trained, trace


# ---------------------------------------------------------------------------
# serialization (PNF1)


def write_flow(f, m: FlowModel) -> None:
    """Header (dim, layer count, hidden width), then per layer its cap and
    the scale and shift nets; the halves follow from the layer index."""
    formats.write_magic(f, FLOW_MAGIC)
    formats.write_u32(f, m.dim)
    formats.write_u32(f, len(m.layers))
    formats.write_u32(f, m.layers[0].width if m.layers else 0)
    for layer in m.layers:
        formats.write_f64(f, float(layer.cap))
        for net in (layer.scale_net, layer.shift_net):
            for arr in net.params():
                formats.write_array(f, arr)


def read_flow(f) -> FlowModel:
    formats.read_magic(f, FLOW_MAGIC)
    dim = formats.read_u32(f)
    count = formats.read_u32(f)
    width = formats.read_u32(f)
    layers = []
    for i in range(count):
        halves = alternating_halves(dim, i)
        cap = formats.read_f64(f)
        d_in, d_out = (h.stop - h.start for h in halves)
        shapes = ((width, d_in), (width,), (width, width), (width,),
                  (d_out, width), (d_out,))  # CouplingNet.PARAMS
        nets = [CouplingNet(*(formats.read_array(f, s) for s in shapes))
                for _ in range(2)]
        layers.append(CouplingLayer(halves, *nets, cap))
    return FlowModel(layers, dim)


def save_flow(path, m: FlowModel) -> None:
    formats.save(path, write_flow, m)


def load_flow(path) -> FlowModel:
    return formats.load(path, read_flow)

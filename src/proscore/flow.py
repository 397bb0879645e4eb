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
from .formats import DataError
from .corpus import FeatureSequence

FLOW_MAGIC = "PNF1"
LOG_2PI = float(np.log(2.0 * np.pi))
INIT_CAP = 2.0  # initial bound on the coupling log-scales
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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


def _one_minus_square(h):
    """1 - h**2 written over h, the tanh derivative of activations h."""
    np.square(h, out=h)
    return np.subtract(1.0, h, out=h)


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
        # each product takes its bias and tanh in place: the same ufuncs
        # in the same order as tanh(x @ w1.T + b1), without temporaries
        h1 = x @ self.w1.T
        h1 += self.b1
        np.tanh(h1, out=h1)
        h2 = h1 @ self.w2.T
        h2 += self.b2
        np.tanh(h2, out=h2)
        out = h2 @ self.w3.T
        out += self.b3
        return out, (x, h1, h2)

    def backward(self, cache, dout, grads, input_grad):
        """Writes the parameter gradients into `grads` (arrays shaped as
        params()) and returns dLoss/dx, or None without `input_grad`.

        The cache is consumed: its hidden activations h become 1 - h**2.
        """
        x, h1, h2 = cache
        gw1, gb1, gw2, gb2, gw3, gb3 = grads
        np.matmul(dout.T, h2, out=gw3)
        dout.sum(axis=0, out=gb3)
        dh2 = dout @ self.w3
        dh2 *= _one_minus_square(h2)
        np.matmul(dh2.T, h1, out=gw2)
        dh2.sum(axis=0, out=gb2)
        dh1 = dh2 @ self.w2
        dh1 *= _one_minus_square(h1)
        np.matmul(dh1.T, x, out=gw1)
        dh1.sum(axis=0, out=gb1)
        return dh1 @ self.w1 if input_grad else None

    def params(self):
        return [getattr(self, name) for name in self.PARAMS]


def alternating_halves(dim: int, index: int):
    """Slices of the conditioning and the transformed half of coupling
    layer `index`: the first dim // 2 dimensions condition the even layers,
    the others the odd ones."""
    if dim < 2:
        raise DataError("a coupling flow needs at least 2 dimensions")
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

    def _scale_shift(self, a, keep=True):
        """s, t, tanh of the raw scales and the nets' caches, None without
        `keep`: then the scale net's are freed before the shift net runs."""
        raw, sc_cache = self.scale_net.forward(a)
        th = np.tanh(raw, out=raw)
        s = float(self.cap) * th
        if not keep:
            sc_cache = None
        t, sh_cache = self.shift_net.forward(a)
        return s, t, th, sc_cache, (sh_cache if keep else None)

    def forward(self, x):
        a = x[:, self.cond]
        s, t, *_ = self._scale_shift(a, keep=False)
        y = np.empty_like(x)
        y[:, self.cond] = a
        y[:, self.trans] = x[:, self.trans] * np.exp(s) + t
        return y, s.sum(axis=1)

    def inverse_cached(self, y, keep=True):
        """f^-1 of `y`, sum(s) per row and the backward cache, which is
        None without `keep`."""
        a = y[:, self.cond]
        s, t, th, sc_cache, sh_cache = self._scale_shift(a, keep)
        sum_s = s.sum(axis=1)
        exp_neg = np.exp(np.negative(s, out=s), out=s)
        # xb = (y_B - t) * exp(-s), formed in t's memory
        xb = np.subtract(y[:, self.trans], t, out=t)
        xb *= exp_neg
        x = np.empty_like(y)
        x[:, self.cond] = a
        x[:, self.trans] = xb
        cache = (th, sc_cache, sh_cache, exp_neg, xb) if keep else None
        return x, sum_s, cache

    def params(self):
        return self.scale_net.params() + self.shift_net.params() + [self.cap]

    def backward_inverse(self, cache, gx, weight, grads, input_grad):
        """Backprop through inverse_cached.

        `gx` is dLoss/d(inverse output); `weight` is the direct dLoss/ds_ij
        coefficient coming from the +sum(s) term of the NLL. Returns
        dLoss/d(inverse input), or None without `input_grad`, and the
        parameter gradients in params() order, written into `grads`. Both
        the cache and `gx` are consumed: the returned input gradient is
        `gx` itself.
        """
        th, sc_cache, sh_cache, exp_neg, xb = cache
        half = len(CouplingNet.PARAMS)
        gxb = gx[:, self.trans]
        gs = np.negative(gxb)
        gs *= xb
        gs += weight
        gt = np.negative(gxb)
        gt *= exp_neg
        grads[-1][...] = (gs * th).sum()
        # graw = gs * cap * (1 - th**2), formed in gs's memory
        graw = gs
        graw *= float(self.cap)
        graw *= _one_minus_square(th)
        ga_s = self.scale_net.backward(sc_cache, graw, grads[:half], input_grad)
        ga_t = self.shift_net.backward(sh_cache, gt, grads[half:-1], input_grad)
        if not input_grad:
            return None, grads
        gxb *= exp_neg
        gxa = gx[:, self.cond]
        gxa += ga_s
        gxa += ga_t
        return gx, grads

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
        backward cache is appended to `caches` unless it is None; then no
        layer keeps one."""
        out = batch
        logdet = np.zeros(batch.shape[0])
        for layer in reversed(self.layers):
            out, sum_s, cache = layer.inverse_cached(out, caches is not None)
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
            yield layer, "cap"  # CouplingLayer.params() order

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
    with respect to its input, or a DataError if either is not finite.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != m.dim:
        raise DataError(f"batch must be N x {m.dim}, got {batch.shape}")
    if not np.all(np.isfinite(batch)):
        raise DataError("non-finite batch input")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    out, logdet = getattr(m, direction)(batch)
    if not (np.all(np.isfinite(out)) and np.all(np.isfinite(logdet))):
        raise DataError(f"non-finite activations in the {direction} pass")
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
        raise DataError(f"{fs.utterance_id}: frames have dim {fs.dim}, model {m.dim}")
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


def nll_and_grads(m: FlowModel, batch: np.ndarray, prior_means=None,
                  grads=None):
    """Mean NLL of the batch, gradients for all flow params, and residuals.

    `prior_means` optionally gives a per-row Gaussian prior mean (used by
    the discriminative variant); the returned residuals z - mu let the
    caller form gradients for those means. The gradients are written into
    `grads`, arrays in m.params() order, when it is given, else into new
    arrays.
    """
    caches = []
    loss, resid = _inverse_nll(m, batch, prior_means, caches)
    if grads is None:
        grads = [np.empty_like(p) for p in m.params()]
    n = batch.shape[0]
    g = resid / n
    weight = 1.0 / n
    start = 0
    # popping the caches visits m.layers in order, as m.params() lists
    # them, and frees each layer's cache once its gradients are out; the
    # gradient of the data-side layer's input is not needed
    while caches:
        layer, cache = caches.pop()
        count = len(layer.params())
        g, _ = layer.backward_inverse(cache, g, weight,
                                      grads[start:start + count],
                                      input_grad=bool(caches))
        start += count
    return loss, grads, resid


class Adam:
    """Adam over one flat parameter buffer (updated in place)."""

    def __init__(self, params, cfg: AdamConfig):
        self.cfg = cfg
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        # scratch that every step reuses
        self._mhat = np.empty_like(params)
        self._vhat = np.empty_like(params)
        self._sq = np.empty_like(params)

    def step(self, params, grads):
        """params -= lr * mhat / (sqrt(vhat) + eps), in place, one operation
        at a time in that order, so it rounds as the expression would."""
        self.t += 1
        mhat, vhat, sq = self._mhat, self._vhat, self._sq
        self.m *= ADAM_BETA1
        self.m += np.multiply(1 - ADAM_BETA1, grads, out=sq)
        np.square(grads, out=sq)
        sq *= 1 - ADAM_BETA2
        self.v *= ADAM_BETA2
        self.v += sq
        np.divide(self.m, 1 - ADAM_BETA1 ** self.t, out=mhat)
        np.divide(self.v, 1 - ADAM_BETA2 ** self.t, out=vhat)
        np.sqrt(vhat, out=vhat)
        vhat += ADAM_EPS
        mhat *= self.cfg.learning_rate
        mhat /= vhat
        params -= mhat


def _views(flat, arrays):
    """A view of `flat` per array, shaped as it, the arrays end to end."""
    views, start = [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(np.shape(a)))
        start += a.size
    return views


def train_core(m: FlowModel, frames: np.ndarray, cfg: AdamConfig,
               class_means=None, frame_class=None):
    """Shared minibatch NLL training loop for NF and DNF.

    Trains `m` in place, and `class_means` too when given: the prior mean
    of each class, `frame_class` naming each frame's. Returns the NLL
    trace: per epoch the mean of its minibatch losses, but last the mean NLL
    of all `frames` under the trained model, its one full-data pass. The
    trained arrays live in one flat buffer for the optimizer, and the
    model's parameters become views of it; each step writes its gradients
    into a second flat buffer laid out alike, which the optimizer reads.
    """
    frames = np.asarray(frames, dtype=np.float64)
    n = frames.shape[0]
    if n < cfg.batch_size:
        raise DataError(f"need at least batch_size={cfg.batch_size} frames, got {n}")
    params = m.params()
    trained = params if class_means is None else params + [class_means]
    flat = np.concatenate([np.ravel(a) for a in trained])
    views = _views(flat, trained)
    m.bind(views[:len(params)])
    grad_flat = np.empty_like(flat)
    grads = _views(grad_flat, trained)
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
                loss, _, resid = nll_and_grads(m, batch, mu,
                                               grads[:len(params)])
                if not np.isfinite(loss):
                    raise TrainingDivergence(epoch)
                losses.append(loss)
                if means is not None:
                    grads[-1].fill(0.0)
                    np.add.at(grads[-1], frame_class[idx], -resid / len(idx))
                opt.step(flat, grad_flat)
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

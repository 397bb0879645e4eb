"""Diagonal-covariance Gaussian mixture model trained by EM.

Used both as the noisy frame-marginal baseline and as the universal
background model behind the i-vector extractor. Training starts from a
seeded k-means initialization so results are reproducible without any
external tooling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formats
from .corpus import FeatureSequence

GMM_MAGIC = "PGMM"
LOG_2PI = float(np.log(2.0 * np.pi))

# variance floor, as a fraction of the global per-dimension variance
VARIANCE_FLOOR_FRACTION = 1e-4
# k-means assigns frames in blocks of this many rows, so its distance
# tensor is (block, K, D) rather than (N, K, D)
_KMEANS_BLOCK = 8192


class GmmError(formats.DataError):
    pass


@dataclass(frozen=True)
class GmmModel:
    weights: np.ndarray   # (K,)
    means: np.ndarray     # (K, D)
    variances: np.ndarray  # (K, D), diagonal covariances

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)
        if abs(w.sum() - 1.0) > 1e-9 or np.any(w < 0):
            raise GmmError("mixture weights must be a simplex")
        if m.shape != v.shape or w.shape[0] != m.shape[0]:
            raise GmmError("inconsistent GMM parameter shapes")
        if np.any(v <= 0):
            raise GmmError("variances must be positive")

    @property
    def num_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _component_loglik(m: GmmModel, frames: np.ndarray) -> np.ndarray:
    """(N, K) matrix of ln[w_k * N(o; mu_k, diag(var_k))]."""
    inv = 1.0 / m.variances
    const = -0.5 * (m.dim * LOG_2PI + np.log(m.variances).sum(axis=1))
    # expand ||o - mu||^2_inv without forming an N x K x D tensor; every
    # step after the first product is written over it
    ll = (frames ** 2) @ inv.T
    ll -= 2.0 * frames @ (m.means * inv).T
    ll += ((m.means ** 2) * inv).sum(axis=1)
    ll *= -0.5  # (-0.5 q) + c is c - 0.5 q exactly
    ll += np.log(m.weights) + const
    return ll


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    hi = a.max(axis=axis, keepdims=True)
    e = a - hi
    np.exp(e, out=e)
    return (hi + np.log(e.sum(axis=axis, keepdims=True))).squeeze(axis)


def responsibilities(m: GmmModel, frames: np.ndarray) -> np.ndarray:
    """Posterior component probabilities per frame, rows summing to 1."""
    ll = _component_loglik(m, frames)
    ll -= ll.max(axis=1, keepdims=True)
    g = np.exp(ll)
    g /= g.sum(axis=1, keepdims=True)
    return g


def gmm_loglik(m: GmmModel, fs: FeatureSequence):
    """Per-frame log-likelihoods ln p(o_i) and their utterance mean."""
    if fs.dim != m.dim:
        raise GmmError(f"{fs.utterance_id}: frames have dim {fs.dim}, model {m.dim}")
    per_frame = _logsumexp(_component_loglik(m, fs.frames), axis=1)
    return per_frame, float(per_frame.mean())


def _kmeans_init(frames: np.ndarray, K: int, rng, iters: int = 10) -> np.ndarray:
    """Seeded k-means on a random subset of starting centers."""
    N = frames.shape[0]
    idx = rng.choice(N, size=K, replace=False)
    centers = frames[idx].copy()
    assign = np.empty(N, dtype=np.intp)
    for _ in range(iters):
        # each row's distances and argmin are those of the whole-array form
        for lo in range(0, N, _KMEANS_BLOCK):
            blk = frames[lo:lo + _KMEANS_BLOCK]
            assign[lo:lo + len(blk)] = ((blk[:, None, :] - centers[None, :, :])
                                        ** 2).sum(axis=2).argmin(axis=1)
        for k in range(K):
            sel = frames[assign == k]
            if len(sel):
                centers[k] = sel.mean(axis=0)
    return centers


def _em_step(m: GmmModel, frames: np.ndarray, floor: np.ndarray):
    """One EM update; returns (updated model, mean log-likelihood under m).

    Its (N, K) temporaries die on return, before the next step allocates.
    """
    g = _component_loglik(m, frames)
    per_frame = _logsumexp(g, axis=1)
    g -= per_frame[:, None]
    np.exp(g, out=g)  # responsibilities, in the log-likelihoods' memory
    nk = np.maximum(g.sum(axis=0), 1e-300)
    weights = nk / frames.shape[0]
    means = (g.T @ frames) / nk[:, None]
    sq = (g.T @ (frames ** 2)) / nk[:, None]
    variances = np.maximum(sq - means ** 2, floor)
    return (GmmModel(weights / weights.sum(), means, variances),
            float(per_frame.mean()))


def gmm_train(frames: np.ndarray, K: int, iters: int, seed: int):
    """EM training; returns (model, per-iteration mean log-likelihood trace).

    The trace is non-decreasing up to floating-point tolerance. Variances
    are floored at a small fraction of the global per-dimension variance
    to prevent component collapse.
    """
    frames = np.asarray(frames, dtype=np.float64)
    N, D = frames.shape
    if N < K:
        raise GmmError(f"need at least K={K} frames, got {N}")
    global_var = frames.var(axis=0)
    if np.all(global_var == 0):
        raise GmmError("degenerate input: all frames identical")
    floor = np.maximum(VARIANCE_FLOOR_FRACTION * global_var, 1e-12)

    rng = np.random.default_rng(seed)
    means = _kmeans_init(frames, K, rng)
    variances = np.tile(np.maximum(global_var, floor), (K, 1))
    weights = np.full(K, 1.0 / K)
    model = GmmModel(weights, means, variances)

    trace = []
    for _ in range(iters):
        model, mean_ll = _em_step(model, frames, floor)
        trace.append(mean_ll)
    trace.append(float(_logsumexp(_component_loglik(model, frames), axis=1).mean()))
    return model, trace


# ---------------------------------------------------------------------------
# serialization (PGMM)


def write_gmm(f, m: GmmModel) -> None:
    formats.write_magic(f, GMM_MAGIC)
    formats.write_u32(f, m.num_components)
    formats.write_u32(f, m.dim)
    formats.write_array(f, m.weights)
    formats.write_array(f, m.means)
    formats.write_array(f, m.variances)


def read_gmm(f) -> GmmModel:
    formats.read_magic(f, GMM_MAGIC)
    K = formats.read_u32(f)
    D = formats.read_u32(f)
    weights = formats.read_array(f, (K,))
    means = formats.read_array(f, (K, D))
    variances = formats.read_array(f, (K, D))
    return GmmModel(weights, means, variances)


def save_gmm(path, m: GmmModel) -> None:
    formats.save(path, write_gmm, m)


def load_gmm(path) -> GmmModel:
    return formats.load(path, read_gmm)

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
from .formats import DataError
from .corpus import FeatureSequence

GMM_MAGIC = "PGMM"
LOG_2PI = float(np.log(2.0 * np.pi))

# variance floor, as a fraction of the global per-dimension variance
VARIANCE_FLOOR_FRACTION = 1e-4
# k-means and the EM log-sum-exp take frames in blocks of this many and
# add a block's D or K terms per frame as whole rows (_pairwise_sum)
_BLOCK = 4096


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
            raise DataError("mixture weights must be a simplex")
        if m.shape != v.shape or w.shape[0] != m.shape[0]:
            raise DataError("inconsistent GMM parameter shapes")
        if np.any(v <= 0):
            raise DataError("variances must be positive")

    @property
    def num_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _component_loglik(m: GmmModel, frames: np.ndarray,
                      sq: np.ndarray) -> np.ndarray:
    """(N, K) matrix of ln[w_k * N(o; mu_k, diag(var_k))]; sq is frames ** 2,
    which training computes once."""
    inv = 1.0 / m.variances
    const = -0.5 * (m.dim * LOG_2PI + np.log(m.variances).sum(axis=1))
    # expand ||o - mu||^2_inv without forming an N x K x D tensor; the cross
    # term is taken first, so that at most three N-row arrays are alive
    # (sq, cross, ll); it is doubled in its K x D factor, which is exact, so
    # no doubled copy of the frames is made
    cross = frames @ (2.0 * m.means * inv).T
    ll = sq @ inv.T
    ll -= cross
    ll += ((m.means ** 2) * inv).sum(axis=1)
    ll *= -0.5  # (-0.5 q) + c is c - 0.5 q exactly
    ll += np.log(m.weights) + const
    return ll


def _pairwise_sum(term, lo: int, hi: int) -> np.ndarray:
    """term(lo, lo + 1)[0] + ... + term(hi - 1, hi)[0], added in the order in
    which numpy's pairwise summation adds a contiguous axis of hi - lo terms
    (`pairwise_sum` in numpy's loops_utils.h): one after another below 8
    terms, into 8 interleaved partial sums up to 128, and as two halves, the
    first a multiple of 8 long, above 128.

    term(i, j) gives terms i..j-1 stacked on a first axis, in an array that
    the sum may overwrite. So each term can be a whole row of a transposed
    block and the sum equals, bit for bit, numpy's sum over the block's last
    axis, with one call per term instead of one per sum. (numpy starts each
    sum at +0.0, which only a sum of -0.0 terms would notice.)
    """
    n = hi - lo
    if n > 128:
        mid = lo + n // 2 - n // 2 % 8
        return _pairwise_sum(term, lo, mid) + _pairwise_sum(term, mid, hi)
    if n < 8:
        res, *rest = term(lo, hi)
        for t in rest:
            res += t
        return res
    tail = hi - n % 8
    r = term(lo, lo + 8)
    for i in range(lo + 8, tail, 8):
        r += term(i, i + 8)
    for step in (1, 2, 4):  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        r[::2 * step] += r[step::2 * step]
    res = r[0]
    if tail < hi:
        for t in term(tail, hi):
            res += t
    return res


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """ln sum_k exp(a[:, k]) per row, bit for bit as numpy's max and sum
    along axis 1 give it, with each block of rows transposed so that its
    K terms add as whole rows (_pairwise_sum)."""
    out = np.empty(len(a))
    for lo in range(0, len(a), _BLOCK):
        t = a[lo:lo + _BLOCK].T.copy()  # a copy even where K == 1
        hi = t.max(axis=0)
        t -= hi
        np.exp(t, out=t)
        out[lo:lo + _BLOCK] = hi + np.log(
            _pairwise_sum(lambda i, j: t[i:j], 0, len(t)))
    return out


def responsibilities(m: GmmModel, frames: np.ndarray) -> np.ndarray:
    """Posterior component probabilities per frame, rows summing to 1."""
    ll = _component_loglik(m, frames, frames ** 2)
    ll -= ll.max(axis=1, keepdims=True)
    g = np.exp(ll)
    g /= g.sum(axis=1, keepdims=True)
    return g


def gmm_loglik(m: GmmModel, fs: FeatureSequence):
    """Per-frame log-likelihoods ln p(o_i) and their utterance mean."""
    if fs.dim != m.dim:
        raise DataError(f"{fs.utterance_id}: frames have dim {fs.dim}, model {m.dim}")
    per_frame = _logsumexp_rows(
        _component_loglik(m, fs.frames, fs.frames ** 2))
    return per_frame, float(per_frame.mean())


def _nearest_exact(xt: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The first nearest center of each column of xt (D, m), by squared
    distances summed over the last axis of an (m, K, D) tensor, taken
    _BLOCK // K frames at a time: their (x_d - c_kd)^2 terms are added as
    whole (K, frames) rows (_pairwise_sum)."""
    D, m = xt.shape
    c = centers.T[:, :, None]
    step = max(_BLOCK // len(centers), 1)
    near = np.empty(m, dtype=np.intp)
    for lo in range(0, m, step):
        blk = xt[:, None, lo:lo + step]

        def squares(i, j):  # the (j - i, K, frames) terms (x_d - c_kd)^2
            d = blk[i:j] - c[i:j]
            return np.square(d, out=d)

        near[lo:lo + step] = _pairwise_sum(squares, 0, D).argmin(axis=0)
    return near


def _nearest(xt: np.ndarray, reach: np.ndarray, centers: np.ndarray,
             out: np.ndarray) -> None:
    """out[n] = _nearest_exact's center of frame xt[:, n], by filter and
    verify. Per block of frames one (K, block) product gives
    a_k = ||c_k||^2 - 2 x.c_k, which is ||x - c_k||^2 - ||x||^2 up to
    rounding. Both a_k and the summed squares are within
    (D + 2) * eps * (||x|| + max ||c||)^2 of the exact value, so where
    the runner-up's a exceeds the least by 32 times that, the least is
    the first nearest center of the summed squares too; only the other
    frames (ties among them, and any non-finite value) get the summed
    squares. `reach` holds each frame's ||x||."""
    K, D = centers.shape
    cn = np.square(centers).sum(axis=1)
    # 32 (D + 2) units of the least subnormal bound the rounding of values
    # below the normal range, where eps does not
    tol, floor = (32 * (D + 2) * np.finfo(float).eps,
                  32 * (D + 2) * np.finfo(float).smallest_subnormal)
    cmax = np.sqrt(cn.max())
    for lo in range(0, xt.shape[1], _BLOCK):
        blk = xt[:, lo:lo + _BLOCK]
        a = centers @ blk  # (K, block)
        a *= -2.0
        a += cn[:, None]
        if K == 2:  # the gap without an argmin
            near = (a[1] < a[0]).astype(np.intp)
            gap = np.abs(a[0] - a[1])
        else:
            near = a.argmin(axis=0)
            cols = np.arange(a.shape[1])
            gap = -a[near, cols]
            a[near, cols] = np.inf
            gap += a.min(axis=0)
        bound = reach[lo:lo + _BLOCK] + cmax
        np.square(bound, out=bound)
        bound *= tol
        bound += floor
        loose = np.flatnonzero(~(gap > bound))
        if loose.size:
            near[loose] = _nearest_exact(blk[:, loose], centers)
        out[lo:lo + a.shape[1]] = near


def _kmeans_init(frames: np.ndarray, K: int, rng, iters: int = 10) -> np.ndarray:
    """Seeded k-means on a random subset of starting centers.

    Bit for bit the whole-array form: squared distances summed over the
    last axis of an (N, K, D) tensor, the first nearest center, and each
    center that has frames moved to frames[assign == k].mean(axis=0).
    """
    N, D = frames.shape
    idx = rng.choice(N, size=K, replace=False)
    centers = frames[idx].copy()
    xt = np.ascontiguousarray(frames.T)  # (D, N)
    reach = np.sqrt(np.einsum("dn,dn->n", xt, xt))  # ||x|| of each frame
    assign = np.empty(N, dtype=np.intp)
    for _ in range(iters):
        _nearest(xt, reach, centers, assign)
        counts = np.bincount(assign, minlength=K)
        if D > 1:
            # a selection's mean(axis=0) adds its rows one after another,
            # as bincount adds its weights
            sums = np.stack([np.bincount(assign, row, K) for row in xt], axis=1)
        else:
            # but a one-column selection's pairwise, as a 1-d sum
            order = np.argsort(assign, kind="stable")
            sums = [[s.sum()] for s in
                    np.split(xt[0, order], np.cumsum(counts)[:-1])]
        filled = counts > 0
        centers[filled] = np.asarray(sums)[filled] / counts[filled, None]
    return centers


def _em_step(m: GmmModel, frames: np.ndarray, sq: np.ndarray,
             floor: np.ndarray):
    """One EM update; returns (updated model, mean log-likelihood under m).

    sq is frames ** 2. The (N, K) temporaries die on return, before the
    next step allocates.
    """
    g = _component_loglik(m, frames, sq)
    per_frame = _logsumexp_rows(g)
    g -= per_frame[:, None]
    np.exp(g, out=g)  # responsibilities, in the log-likelihoods' memory
    nk = np.maximum(g.sum(axis=0), 1e-300)
    weights = nk / frames.shape[0]
    means = (g.T @ frames) / nk[:, None]
    variances = np.maximum((g.T @ sq) / nk[:, None] - means ** 2, floor)
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
        raise DataError(f"need at least K={K} frames, got {N}")
    global_var = frames.var(axis=0)
    if np.all(global_var == 0):
        raise DataError("degenerate input: all frames identical")
    floor = np.maximum(VARIANCE_FLOOR_FRACTION * global_var, 1e-12)

    rng = np.random.default_rng(seed)
    means = _kmeans_init(frames, K, rng)
    variances = np.tile(np.maximum(global_var, floor), (K, 1))
    weights = np.full(K, 1.0 / K)
    model = GmmModel(weights, means, variances)

    sq = frames ** 2
    trace = []
    for _ in range(iters):
        model, mean_ll = _em_step(model, frames, sq, floor)
        trace.append(mean_ll)
    trace.append(float(_logsumexp_rows(_component_loglik(model, frames, sq)).mean()))
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

"""i-vector extractor: a low-rank mixture-of-linear-Gaussians model.

The UBM (a trained GMM) provides frame responsibilities; utterances are
summarized by zeroth/first-order Baum-Welch statistics. The total
variability loadings are trained by EM over a standard-normal latent z,
and the posterior mean of z given an utterance's statistics is its
i-vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formats
from .formats import DataError
from .gmm import GmmModel, read_gmm, responsibilities, write_gmm

IVECTOR_MAGIC = "PIVM"
_BLOCK = 256  # utterances per posterior block, so memory is bounded in U


@dataclass(frozen=True)
class BaumWelchStats:
    zeroth: np.ndarray          # (U, K) occupancy counts N_k per utterance
    first_centered: np.ndarray  # (U, K, D) sum_t gamma_tk * (o_t - m_k)

    def __post_init__(self):
        z = np.asarray(self.zeroth, dtype=np.float64)
        fc = np.asarray(self.first_centered, dtype=np.float64)
        object.__setattr__(self, "zeroth", z)
        object.__setattr__(self, "first_centered", fc)
        if z.ndim != 2 or fc.ndim != 3 or fc.shape[:2] != z.shape:
            raise DataError("statistics must be (U, K) and (U, K, D)")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(fc))):
            raise DataError("non-finite statistics")
        if np.any(z < 0):
            raise DataError("negative occupancy")


@dataclass(frozen=True)
class IVectorModel:
    ubm: GmmModel
    loadings: np.ndarray  # (K, D, R)

    def __post_init__(self):
        T = np.asarray(self.loadings, dtype=np.float64)
        object.__setattr__(self, "loadings", T)
        K, D, R = T.shape
        if (K, D) != (self.ubm.num_components, self.ubm.dim):
            raise DataError("loadings do not match the UBM shape")
        check_dim(R, K, D)

    @property
    def dim(self) -> int:
        return self.loadings.shape[2]


def check_dim(R: int, K: int, D: int) -> None:
    """DataError unless an i-vector dim R is at most K*D, the dim of the
    supervector of a UBM of K components of dim D."""
    if R > K * D:
        raise DataError(f"i-vector dim R={R} must be <= K*D={K * D}")


def ubm_stats(m: GmmModel, utterances) -> BaumWelchStats:
    """Zeroth and centered first-order statistics of each feature sequence."""
    utterances = list(utterances)
    zeroth = np.empty((len(utterances), m.num_components))
    first = np.empty((len(utterances), m.num_components, m.dim))
    for u, fs in enumerate(utterances):
        if fs.dim != m.dim:
            raise DataError(
                f"{fs.utterance_id}: dim {fs.dim} vs UBM dim {m.dim}")
        gamma = responsibilities(m, fs.frames)        # (T, K)
        zeroth[u] = gamma.sum(axis=0)
        first[u] = gamma.T @ fs.frames - zeroth[u, :, None] * m.means
    return BaumWelchStats(zeroth, first)


def _posteriors(loadings, inv_var, stats: BaumWelchStats):
    """For each block of `_BLOCK` utterances of `stats`: its slice, the
    posterior precisions L = I + sum_k N_k T_k' Sigma_k^-1 T_k, (B, R, R),
    and the linear terms b = sum_k T_k' Sigma_k^-1 F_k, (B, R), of z."""
    K, _, R = loadings.shape
    TS = loadings * inv_var[:, :, None]                # Sigma_k^-1 T_k
    P = (np.swapaxes(loadings, 1, 2) @ TS).reshape(K, R * R)
    for lo in range(0, len(stats.zeroth), _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        L = np.eye(R) + (stats.zeroth[blk] @ P).reshape(-1, R, R)
        b = np.einsum("ukd,kdr->ur", stats.first_centered[blk], TS)
        yield blk, L, b


def ivector_infer(m: IVectorModel, stats: BaumWelchStats) -> np.ndarray:
    """The (U, R) i-vectors: posterior means of z given each row of stats."""
    out = np.empty((len(stats.zeroth), m.dim))
    for blk, L, b in _posteriors(m.loadings, 1.0 / m.ubm.variances, stats):
        out[blk] = np.linalg.solve(L, b[:, :, None])[:, :, 0]
    return out


def tmatrix_train(ubm: GmmModel, stats: BaumWelchStats, R: int, iters: int,
                  seed: int):
    """EM training of the loading matrices; returns (model, evidence trace).

    The trace holds the total log-evidence of the statistics (up to
    loading-independent constants) of the initial and of each iteration's
    loadings, as the next E-step scores them, and is non-decreasing.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    K, D = ubm.num_components, ubm.dim
    check_dim(R, K, D)
    rng = np.random.default_rng(seed)
    # zero loadings are a degenerate EM fixed point, so start from small noise
    loadings = 0.1 * rng.standard_normal((K, D, R))
    inv_var = 1.0 / ubm.variances

    trace = []
    for it in range(iters + 1):
        last = it == iters  # a last E-step only scores the final loadings
        A = np.zeros((K, R, R))
        C = np.zeros((K, D, R))
        evidence = 0.0
        for blk, L, b in _posteriors(loadings, inv_var, stats):
            cov = np.linalg.inv(L)
            zbar = (cov @ b[:, :, None])[:, :, 0]
            evidence += 0.5 * float(np.sum(np.einsum("ur,ur->u", b, zbar)
                                           - np.linalg.slogdet(L)[1]))
            if not last:
                cov += zbar[:, :, None] * zbar[:, None, :]  # E[z z']
                A += np.tensordot(stats.zeroth[blk], cov, axes=(0, 0))
                C += np.tensordot(stats.first_centered[blk], zbar, axes=(0, 0))
        trace.append(evidence)
        if last:
            break
        for k in range(K):
            try:
                loadings[k] = np.linalg.solve(A[k].T, C[k].T).T
            except np.linalg.LinAlgError as exc:
                raise DataError(
                    f"singular accumulator for component {k}") from exc
    return IVectorModel(ubm, loadings), trace


# ---------------------------------------------------------------------------
# serialization (PIVM)


def write_ivector_model(f, m: IVectorModel) -> None:
    formats.write_magic(f, IVECTOR_MAGIC)
    formats.write_u32(f, m.dim)
    write_gmm(f, m.ubm)
    formats.write_array(f, m.loadings)


def read_ivector_model(f) -> IVectorModel:
    formats.read_magic(f, IVECTOR_MAGIC)
    R = formats.read_u32(f)
    ubm = read_gmm(f)
    loadings = formats.read_array(f, (ubm.num_components, ubm.dim, R))
    return IVectorModel(ubm, loadings)


def save_ivector_model(path, m: IVectorModel) -> None:
    formats.save(path, write_ivector_model, m)


def load_ivector_model(path) -> IVectorModel:
    return formats.load(path, read_ivector_model)

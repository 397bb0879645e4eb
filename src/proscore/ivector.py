"""i-vector extractor: a low-rank mixture-of-linear-Gaussians model.

The UBM (a trained GMM) provides frame responsibilities; utterances are
summarized by zeroth/first-order Baum-Welch statistics. The total
variability loadings are trained by EM over a standard-normal latent z,
and the posterior mean of z given an utterance's statistics is its
i-vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import formats
from .corpus import FeatureSequence
from .gmm import GmmModel, read_gmm, responsibilities, write_gmm

IVECTOR_MAGIC = "PIVM"


class IVectorError(formats.DataError):
    pass


@dataclass(frozen=True)
class BaumWelchStats:
    utterance_id: str
    zeroth: np.ndarray          # (K,) occupancy counts N_k
    first_centered: np.ndarray  # (K, D) sum_t gamma_tk * (o_t - m_k)

    def __post_init__(self):
        z = np.asarray(self.zeroth, dtype=np.float64)
        fc = np.asarray(self.first_centered, dtype=np.float64)
        object.__setattr__(self, "zeroth", z)
        object.__setattr__(self, "first_centered", fc)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(fc))):
            raise IVectorError(f"{self.utterance_id}: non-finite statistics")
        if np.any(z < 0):
            raise IVectorError(f"{self.utterance_id}: negative occupancy")


@dataclass(frozen=True)
class IVectorModel:
    ubm: GmmModel
    loadings: np.ndarray  # (K, D, R)

    def __post_init__(self):
        T = np.asarray(self.loadings, dtype=np.float64)
        object.__setattr__(self, "loadings", T)
        K, D, R = T.shape
        if (K, D) != (self.ubm.num_components, self.ubm.dim):
            raise IVectorError("loadings do not match the UBM shape")
        if R > K * D:
            raise IVectorError(f"i-vector dim R={R} must be <= K*D={K * D}")

    @property
    def dim(self) -> int:
        return self.loadings.shape[2]

    @cached_property
    def precision_terms(self):
        """The `_precision_terms` of the loadings, computed once."""
        return _precision_terms(self.loadings, 1.0 / self.ubm.variances)


def ubm_stats(m: GmmModel, fs: FeatureSequence) -> BaumWelchStats:
    """Zeroth and centered first-order statistics under the UBM."""
    if fs.dim != m.dim:
        raise IVectorError(f"{fs.utterance_id}: dim {fs.dim} vs UBM dim {m.dim}")
    gamma = responsibilities(m, fs.frames)            # (T, K)
    zeroth = gamma.sum(axis=0)
    first = gamma.T @ fs.frames - zeroth[:, None] * m.means
    return BaumWelchStats(fs.utterance_id, zeroth, first)


def _precision_terms(loadings, inv_var):
    """Sigma_k^-1 T_k, (K, D, R), and T_k' Sigma_k^-1 T_k, (K, R, R): the
    utterance-independent parts of every posterior."""
    TS = loadings * inv_var[:, :, None]
    return TS, np.array([T.T @ ts for T, ts in zip(loadings, TS)])


def _posterior(TS, P, st: BaumWelchStats):
    """Posterior precision L and mean of z given one utterance's stats."""
    K, D, R = TS.shape
    L = np.eye(R)
    b = np.zeros(R)
    for k in range(K):
        L += st.zeroth[k] * P[k]
        b += TS[k].T @ st.first_centered[k]
    return L, b


def ivector_infer(m: IVectorModel, st: BaumWelchStats):
    """Posterior mean of z (the i-vector) and its precision matrix L."""
    L, b = _posterior(*m.precision_terms, st)
    z = np.linalg.solve(L, b)
    return z, L


def tmatrix_train(ubm: GmmModel, stats: list, R: int, iters: int, seed: int):
    """EM training of the loading matrices; returns (model, evidence trace).

    The trace holds the total log-evidence of the statistics (up to
    loading-independent constants) of the initial and of each iteration's
    loadings, as the next E-step scores them, and is non-decreasing.
    """
    if iters < 1:
        raise IVectorError("iters must be >= 1")
    K, D = ubm.num_components, ubm.dim
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
        terms = _precision_terms(loadings, inv_var)
        for st in stats:
            L, b = _posterior(*terms, st)
            cov = np.linalg.inv(L)
            zbar = cov @ b
            evidence += -0.5 * np.linalg.slogdet(L)[1] + 0.5 * float(b @ zbar)
            if last:
                continue
            Ezz = cov + np.outer(zbar, zbar)
            A += st.zeroth[:, None, None] * Ezz[None, :, :]
            C += st.first_centered[:, :, None] * zbar[None, None, :]
        trace.append(evidence)
        if last:
            break
        new = np.empty_like(loadings)
        for k in range(K):
            try:
                new[k] = np.linalg.solve(A[k].T, C[k].T).T
            except np.linalg.LinAlgError as exc:
                raise IVectorError(
                    f"singular accumulator for component {k}") from exc
        loadings = new
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

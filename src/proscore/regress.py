"""Epsilon-insensitive support vector regression trained by SMO.

The dual is solved in the 2N-variable (alpha, alpha*) box form with
maximal-violating-pair working-set selection, which is deterministic and
converges to the stated KKT tolerance. Features are standardized
internally with training-set statistics; predictions map new inputs
through the same standardization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import formats

SVR_MAGIC = "PSVR"
KERNEL_IDS = {"linear": 0, "rbf": 1}
KERNEL_NAMES = {v: k for k, v in KERNEL_IDS.items()}
_BOUND_EPS = 1e-12  # t this close to 0 or C is at its bound
# the RBF kernel is finished in place over blocks of this many rows, so
# its temporaries are (block, len(B)) rather than three full matrices
_KERNEL_BLOCK = 512


class SvrError(ValueError):
    """Bad SVR settings; its subclass SvrDataError is for bad data."""


class SvrDataError(SvrError, formats.DataError):
    """Training or prediction inputs the SVR cannot use."""


@dataclass(frozen=True)
class SvrParams:
    C: float = 1.0
    epsilon: float = 0.1
    kernel: str = "rbf"
    gamma: float | str = "scale"  # "scale" resolves to 1/(d * Var(X))
    tol: float = 1e-3
    max_passes: int = 1000  # pair-update budget is max_passes * N

    def __post_init__(self):
        if not self.C > 0:
            raise SvrError("C must be positive")
        if not self.epsilon >= 0:
            raise SvrError("epsilon must be non-negative")
        if self.kernel not in KERNEL_IDS:
            raise SvrError(f"unknown kernel {self.kernel!r}")
        if self.gamma != "scale" and not float(self.gamma) > 0:
            raise SvrError("gamma must be positive or 'scale'")
        if not self.tol > 0:
            raise SvrError("tol must be positive")
        if self.max_passes < 0:
            raise SvrError("max_passes must be >= 0")


@dataclass(frozen=True)
class SvrModel:
    kernel: str
    C: float
    epsilon: float
    gamma: float  # resolved; unused for the linear kernel
    feat_mean: np.ndarray
    feat_std: np.ndarray
    support_vectors: np.ndarray  # (n_sv, d) in standardized space
    coef: np.ndarray             # beta_i = alpha_i - alpha_i*
    bias: float
    warning: str | None = field(default=None, compare=False)
    dual_objective: float = field(default=float("nan"), compare=False)

    @property
    def dim(self) -> int:
        return self.feat_mean.shape[0]


def _standardize(X, mean, std):
    return (X - mean) / std


def _kernel_matrix(kernel, gamma, A, B):
    if kernel == "linear":
        return A @ B.T
    # exp(-gamma * max(|a|^2 + |b|^2 - 2a.b, 0)), each step written over the
    # one product matrix. The product stays one BLAS call: splitting it
    # into row blocks changes the last bit of some entries.
    K = 2.0 * A @ B.T
    sa = (A ** 2).sum(axis=1)
    sb = (B ** 2).sum(axis=1)
    for lo in range(0, A.shape[0], _KERNEL_BLOCK):
        rows = K[lo:lo + _KERNEL_BLOCK]
        np.subtract(sa[lo:lo + _KERNEL_BLOCK, None] + sb[None, :], rows,
                    out=rows)
    np.maximum(K, 0.0, out=K)
    K *= -gamma
    return np.exp(K, out=K)


def resolve_gamma(params: SvrParams, X_std: np.ndarray) -> float:
    if params.kernel == "linear":
        return 0.0
    if params.gamma == "scale":
        var = float(X_std.var())
        return 1.0 / (X_std.shape[1] * var) if var > 0 else 1.0
    return float(params.gamma)


def svr_train(X: np.ndarray, y: np.ndarray,
              params: SvrParams | None = None) -> SvrModel:
    """Solve the epsilon-SVR dual to KKT tolerance.

    Pair selection is deterministic. Constant targets yield a constant
    model (bias = mean, no support vectors) with a warning status instead
    of an error.
    """
    if params is None:
        params = SvrParams()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise SvrDataError(
            f"X must be N x d matching y, got {X.shape} and {y.shape}")
    if X.shape[0] < 2:
        raise SvrDataError("need at least 2 training points")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise SvrDataError("non-finite training data")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 1e-12, std, 1.0)
    Xs = _standardize(X, mean, std)
    gamma = resolve_gamma(params, Xs)

    if float(y.var()) == 0.0:
        return SvrModel(params.kernel, params.C, params.epsilon, gamma,
                        mean, std, np.zeros((0, X.shape[1])), np.zeros(0),
                        float(y[0]), warning="constant targets", dual_objective=0.0)

    n = X.shape[0]
    K = _kernel_matrix(params.kernel, gamma, Xs, Xs)
    C = params.C
    # the first n variables are alpha (sign s = +1), the last n alpha*
    # (s = -1). v = -s*G, G the gradient of 0.5 t'Qt + p't with
    # Q_pq = s_p s_q K and p_p = eps - s_p y: flipping a sign is exact, so
    # v holds G's bits, and both halves of v move by one n-vector u
    t = np.zeros(2 * n)
    v = np.concatenate([y - params.epsilon, y + params.epsilon])
    v2 = v.reshape(2, n)  # both halves share the columns of K
    # where s*t may still rise (up) and where it may still fall (low): at
    # t = 0, alpha and alpha* may only rise, which lowers s*t for alpha*
    up = np.zeros(2 * n, dtype=bool)
    low = np.zeros(2 * n, dtype=bool)
    up[:n] = low[n:] = C > _BOUND_EPS

    budget = params.max_passes * n
    for updates in range(budget + 1):
        # the maximal violating pair: the largest v where s*t may rise,
        # the least where it may fall
        vi = np.where(up, v, -np.inf)
        vj = np.where(low, v, np.inf)
        i = int(vi.argmax())
        j = int(vj.argmin())
        gap = vi[i] - vj[j]
        if gap <= params.tol or updates == budget:
            break
        ci, cj = i % n, j % n
        si, sj = (1.0 if i < n else -1.0), (1.0 if j < n else -1.0)
        eta = max(K[ci, ci] + K[cj, cj] - 2.0 * K[ci, cj], 1e-12)
        sij = si * sj
        delta = si * (v[i] - v[j]) / eta
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
        v2 -= (si * delta) * K[:, ci] + (sj * dt_j) * K[:, cj]
        for p, sp in ((i, si), (j, sj)):
            rises = t[p] < C - _BOUND_EPS
            falls = t[p] > _BOUND_EPS
            up[p], low[p] = (rises, falls) if sp > 0 else (falls, rises)
    # every exit leaves (vi, vj) current: t has not moved since they were taken
    b = 0.5 * (vi[i] + vj[j])
    warning = None
    if gap > params.tol:
        warning = (f"SMO stopped after {updates} updates with KKT gap"
                   f" {gap:.3g} > tol {params.tol:g}")

    beta = t[:n] - t[n:]
    obj = dual_objective(K, y, beta, params.epsilon)
    keep = np.abs(beta) > 1e-10
    return SvrModel(params.kernel, C, params.epsilon, gamma, mean, std,
                    Xs[keep], beta[keep], float(b), warning, obj)


def dual_objective(K: np.ndarray, y: np.ndarray, beta: np.ndarray,
                   epsilon: float) -> float:
    """Dual value -0.5 b'Kb - eps*sum|b| + y'b (to be maximized)."""
    return float(-0.5 * beta @ K @ beta - epsilon * np.abs(beta).sum() + y @ beta)


def svr_predict(m: SvrModel, x: np.ndarray) -> float:
    """Point prediction sum_i beta_i K(sv_i, x) + b."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.dim,):
        raise SvrDataError(f"input has shape {x.shape}, expected ({m.dim},)")
    return float(svr_predict_batch(m, x[None, :])[0])


def svr_predict_batch(m: SvrModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.dim:
        raise SvrDataError(f"inputs must be N x {m.dim}, got {X.shape}")
    Xs = _standardize(X, m.feat_mean, m.feat_std)
    if m.support_vectors.shape[0] == 0:
        return np.full(X.shape[0], m.bias)
    Kx = _kernel_matrix(m.kernel, m.gamma, Xs, m.support_vectors)
    return Kx @ m.coef + m.bias


def kkt_residual(m: SvrModel, X: np.ndarray, y: np.ndarray) -> float:
    """Maximum epsilon-insensitive complementarity violation on (X, y).

    Only meaningful for the training set the model was fitted on: each
    support vector is the standardized row of X it was trained on, bit for
    bit, and one that equals no row raises SvrDataError.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    Xs = _standardize(X, m.feat_mean, m.feat_std)
    pred = svr_predict_batch(m, X)
    e = pred - y
    beta = np.zeros(X.shape[0])
    for n, (sv, c) in enumerate(zip(m.support_vectors, m.coef)):
        rows = np.flatnonzero((Xs == sv).all(axis=1))
        if len(rows) == 0:
            raise SvrDataError(f"support vector {n} is no row of X")
        beta[rows[0]] += c
    eps, C = m.epsilon, m.C
    worst = 0.0
    for i in range(X.shape[0]):
        bi, ei = beta[i], e[i]
        if abs(bi) <= 1e-10:
            r = max(0.0, abs(ei) - eps)
        elif bi >= C - 1e-8:
            r = max(0.0, ei + eps)
        elif bi <= -C + 1e-8:
            r = max(0.0, eps - ei)
        elif bi > 0:
            r = abs(ei + eps)
        else:
            r = abs(ei - eps)
        worst = max(worst, r)
    return worst


# ---------------------------------------------------------------------------
# serialization (PSVR)


def write_svr(f, m: SvrModel) -> None:
    formats.write_magic(f, SVR_MAGIC)
    formats.write_u32(f, KERNEL_IDS[m.kernel])
    formats.write_f64(f, m.C)
    formats.write_f64(f, m.epsilon)
    formats.write_f64(f, m.gamma)
    formats.write_u32(f, m.dim)
    formats.write_array(f, m.feat_mean)
    formats.write_array(f, m.feat_std)
    formats.write_u32(f, m.support_vectors.shape[0])
    formats.write_array(f, m.support_vectors)
    formats.write_array(f, m.coef)
    formats.write_f64(f, m.bias)


def read_svr(f) -> SvrModel:
    formats.read_magic(f, SVR_MAGIC)
    kernel_id = formats.read_u32(f)
    if kernel_id not in KERNEL_NAMES:
        raise formats.FormatError(f"unknown SVR kernel id {kernel_id}")
    kernel = KERNEL_NAMES[kernel_id]
    C = formats.read_f64(f)
    epsilon = formats.read_f64(f)
    gamma = formats.read_f64(f)
    d = formats.read_u32(f)
    mean = formats.read_array(f, (d,))
    std = formats.read_array(f, (d,))
    n_sv = formats.read_u32(f)
    sv = formats.read_array(f, (n_sv, d))
    coef = formats.read_array(f, (n_sv,))
    bias = formats.read_f64(f)
    return SvrModel(kernel, C, epsilon, gamma, mean, std, sv, coef, bias)


def save_svr(path, m: SvrModel) -> None:
    formats.save(path, write_svr, m)


def load_svr(path) -> SvrModel:
    return formats.load(path, read_svr)

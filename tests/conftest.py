"""Shared fixtures and independent numerical oracles for the test suite."""

# proscore first: it pins BLAS to one thread before numpy loads it, so the
# tests run under the thread count that the program ships with
import proscore  # noqa: F401

import numpy as np
import pytest

from proscore.corpus import SynthConfig, synth_corpus
from proscore.pipeline import default_config, run_pipeline

# ---------------------------------------------------------------------------
# fixtures


TINY_SYNTH = SynthConfig(num_phones=5, feature_dim=6, num_speakers=10,
                         utterances_per_speaker=3, phones_per_utterance=4,
                         frames_per_phone=(3, 6), seed=11)


@pytest.fixture(scope="session")
def tiny_corpus():
    """A small synthetic corpus for fast unit tests."""
    corpus, oracle = synth_corpus(TINY_SYNTH)
    return corpus, oracle


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    """Two full default-preset pipeline runs in separate directories.

    Used by the ordering, determinism and golden-report tests; running
    twice here keeps the expensive training out of every other test.
    """
    dirs = []
    results = []
    for name in ("pipe_a", "pipe_b"):
        work = tmp_path_factory.mktemp(name)
        cfg = default_config(str(work))
        results.append(run_pipeline(cfg))
        dirs.append(work)
    return {"results": results, "dirs": dirs}


# ---------------------------------------------------------------------------
# independent oracles


def competition_posterior_oracle(a, delta):
    """Two-Gaussian competition posterior by direct density evaluation.

    Phone means sit at 0 (competitor q1) and a (target q2), both with
    variance 0.5; the observation lands at a + delta, i.e. delta away from
    the target mean on the side pointing away from the competitor.
    """
    var = 0.5
    o = a + delta
    d1 = np.exp(-0.5 * (o - 0.0) ** 2 / var)
    d2 = np.exp(-0.5 * (o - a) ** 2 / var)
    return d2 / (d1 + d2)


def numeric_jacobian(func, x, h=1e-5):
    """Central finite-difference Jacobian of a vector function at x."""
    d = x.shape[0]
    J = np.zeros((d, d))
    for j in range(d):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (func(xp) - func(xm)) / (2 * h)
    return J


def project_box_hyperplane(t, s, C):
    """Exact Euclidean projection onto {0 <= t <= C, s @ t = 0}; s has
    +/-1 entries of both signs and C > 0.

    The projection is clip(t - nu * s, 0, C) at the multiplier nu of the
    equality constraint where g(nu) = s @ clip(t - nu * s, 0, C) is zero.
    g falls with nu and is linear between its breakpoints t_i / s_i and
    (t_i - C) / s_i, positive at the first and negative at the last. So it
    is evaluated at every breakpoint at once, and its zero interpolated
    between the last breakpoint where g > 0 and the next.
    """
    nus = np.unique(np.concatenate([t * s, (t - C) * s]))  # 1 / s_i = s_i
    g = np.clip(t - nus[:, None] * s, 0.0, C) @ s
    k = int(np.searchsorted(-g, 0.0))  # the first breakpoint where g <= 0
    nu = nus[k - 1] + g[k - 1] * (nus[k] - nus[k - 1]) / (g[k - 1] - g[k])
    return np.clip(t - nu * s, 0.0, C)


def svr_dual_oracle(K, y, C, epsilon, iters=5000):
    """Projected-gradient solver for the epsilon-SVR dual, run to convergence.

    Works on the 2N-variable box form: minimize 0.5 t'Qt + p't subject to
    0 <= t <= C and sum(s*t) = 0 with s = (+1...,-1...). Returns the dual
    objective value (maximization convention) and beta = t[:n] - t[n:].
    """
    n = y.shape[0]
    s = np.concatenate([np.ones(n), -np.ones(n)])
    Q = (s[:, None] * s[None, :]) * np.tile(K, (2, 2))
    p = epsilon - s * np.concatenate([y, y])
    step = 1.0 / max(float(np.linalg.eigvalsh(Q).max()), 1e-12)
    t = np.zeros(2 * n)
    for _ in range(iters):
        grad = Q @ t + p
        t = project_box_hyperplane(t - step * grad, s, C)
    beta = t[:n] - t[n:]
    obj = float(-0.5 * beta @ K @ beta - epsilon * np.abs(beta).sum() + y @ beta)
    return obj, beta

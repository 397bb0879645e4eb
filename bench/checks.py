"""Checks of proscore's outputs against the benchmark's own computations.

Nothing here compares against a stored copy of earlier output. Each
expected value is recomputed from the corpus the benchmark generated:
GOP from the posteriorgrams and alignments, labels and the inter-rater
PCC from the rater scores, GMM log-likelihoods from the model file's raw
parameters, correlations with `np.corrcoef`. Every check returns a list
of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

# the program floors segment posteriors before the log
POSTERIOR_FLOOR = 1e-12
# report PCCs are printed with 6 decimals
REPORT_TOL = 0.5e-6 + 1e-12
GRID_STEP = 0.02


@dataclass(frozen=True)
class Truth:
    """What the benchmark knows about its inputs, keyed by utterance id."""

    ids: tuple
    dev_ids: tuple
    eval_ids: tuple
    gop: dict
    label: dict
    ratings: dict
    frames: dict


def own_gop(post: np.ndarray, segments) -> float:
    """Mean over segments of the log floored segment-mean posterior."""
    seg = [max(float(np.mean(post[start:end, phone])), POSTERIOR_FLOOR)
           for phone, start, end in segments]
    return float(np.mean(np.log(seg)))


def truth_from_corpus(corpus) -> Truth:
    ids = tuple(sorted(corpus.features))
    return Truth(
        ids=ids,
        dev_ids=tuple(sorted(corpus.splits.dev_ids)),
        eval_ids=tuple(sorted(corpus.splits.eval_ids)),
        gop={u: own_gop(corpus.posteriors[u].post, corpus.alignments[u].segments)
             for u in ids},
        label={u: float(np.mean(corpus.labels[u].rater_scores)) for u in ids},
        ratings={u: tuple(corpus.labels[u].rater_scores) for u in ids},
        frames={u: corpus.features[u].frames for u in ids})


def corr(xs, ys) -> float:
    return float(np.corrcoef(np.asarray(xs, float), np.asarray(ys, float))[0, 1])


def human_pcc(truth: Truth) -> float:
    """Mean pairwise correlation of the rater columns on eval ids."""
    r = np.array([truth.ratings[u] for u in truth.eval_ids], dtype=float)
    pairs = [(a, b) for a in range(r.shape[1]) for b in range(a + 1, r.shape[1])]
    return float(np.mean([corr(r[:, a], r[:, b]) for a, b in pairs]))


def eval_pcc(truth: Truth, scores: dict) -> float:
    return corr([scores[u] for u in truth.eval_ids],
                [truth.label[u] for u in truth.eval_ids])


def read_gmm_params(path):
    """(weights, means, variances) straight from a PGMM file's bytes."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"PGMM":
        raise ValueError(f"{path}: not a PGMM file")
    K, D = struct.unpack_from("<II", raw, 8)
    vals = np.frombuffer(raw, dtype="<f8", offset=16)
    if vals.size != K + 2 * K * D:
        raise ValueError(f"{path}: unexpected PGMM payload size")
    return vals[:K], vals[K:K + K * D].reshape(K, D), vals[K + K * D:].reshape(K, D)


def gmm_mean_loglik(params, frames: np.ndarray) -> float:
    """Mean over frames of ln sum_k w_k N(o; mu_k, diag(var_k))."""
    w, mu, var = params
    diff = frames[:, None, :] - mu[None, :, :]
    comp = (np.log(w) - 0.5 * np.log(2 * np.pi * var).sum(axis=1)
            - 0.5 * (diff ** 2 / var).sum(axis=2))
    hi = comp.max(axis=1)
    return float(np.mean(hi + np.log(np.exp(comp - hi[:, None]).sum(axis=1))))


def on_grid(lam: float) -> bool:
    steps = lam / GRID_STEP
    return 0.0 <= lam <= 1.0 and abs(steps - round(steps)) < 1e-9


# ---------------------------------------------------------------------------
# the report of `proscore run`


def expected_rows(systems) -> list:
    """Report rows, in the pipeline's order, for the given systems."""
    rows = ["human", "gop"]
    rows += [f"{s}_loglik" for s in ("gmm", "nf") if s in systems]
    embedders = [s for s in ("ivector", "nf", "dnf") if s in systems]
    rows += [f"{s}_svr" for s in embedders]
    for s in embedders:
        rows += [f"gop+{s}_score_fusion", f"gop+{s}_feature_fusion"]
    return rows


def parse_report(text: str) -> dict:
    """system -> (split, pcc, lambda text)."""
    lines = text.splitlines()
    if not lines or lines[0] != "system\tsplit\tpcc\tlambda":
        raise ValueError("report has an unexpected header")
    rows = {}
    for line in lines[1:]:
        system, split, value, lam = line.split("\t")
        rows[system] = (split, float(value), lam)
    return rows


def _table_problems(system, table, truth) -> list:
    ids = tuple(r.utterance_id for r in table.rows)
    if ids != truth.eval_ids:
        return [f"{system}: score table does not hold exactly the eval ids"]
    problems = []
    if any(r.label_mean != truth.label[r.utterance_id] for r in table.rows):
        problems.append(f"{system}: score table labels differ from the rater means")
    if any(not math.isclose(r.gop, truth.gop[r.utterance_id], rel_tol=1e-12,
                            abs_tol=1e-12) for r in table.rows):
        problems.append(f"{system}: score table GOP differs from the benchmark's GOP")
    return problems


def _expected_value(system, truth, result, model_dir):
    """(value the report row must show, problems found on the way)."""
    if system == "human":
        return human_pcc(truth), []
    if system == "gop":
        return eval_pcc(truth, truth.gop), []
    if system == "gmm_loglik":
        params = read_gmm_params(model_dir / "gmm.pgmm")
        return eval_pcc(truth, {u: gmm_mean_loglik(params, truth.frames[u])
                                for u in truth.eval_ids}), []
    if system.endswith("_svr") or system.endswith("_score_fusion"):
        name = system[:-4] if system.endswith("_svr") else system[4:-13]
        table = result.score_tables[name]
        column = "predicted" if system.endswith("_svr") else "fused"
        return (corr(table.column(column), table.column("label_mean")),
                _table_problems(system, table, truth))
    # nf_loglik and feature fusion: the run's own full-precision value
    return result.pcc_by_system[system], []


def check_report(text: str, truth: Truth, result, systems, model_dir) -> list:
    """Check every expected row of a run's report.

    `result` is the PipelineResult of an in-process run on the same work
    dir; its score tables hold the columns the rows are computed from.
    """
    try:
        rows = parse_report(text)
    except ValueError as exc:
        return [str(exc)]
    expected = expected_rows(systems)
    problems = []
    if list(rows) != expected:
        problems.append(f"report rows {list(rows)}, expected {expected}")
    for system, (split, value, lam) in rows.items():
        if system not in expected:
            continue
        want, found = _expected_value(system, truth, result, model_dir)
        problems += found
        if split != "eval":
            problems.append(f"{system}: split {split!r}, expected 'eval'")
        if not abs(want - value) <= REPORT_TOL:
            problems.append(f"{system}: report {value:.6f}, expected {want:.9f}")
        if system.endswith("_score_fusion"):
            name = system[4:-13]
            if not (lam and on_grid(float(lam))
                    and lam == f"{result.lambdas[name]:.2f}"):
                problems.append(f"{system}: lambda {lam!r} is not the selected "
                                "grid value in [0, 1]")
        elif lam:
            problems.append(f"{system}: unexpected lambda {lam!r}")
    return problems


def inversion_error(model, frames: np.ndarray) -> float:
    """Largest of |forward(inverse(x)) - x| (relative) and |sum of logdets|."""
    z, ld_inv = model.inverse(frames)
    back, ld_fwd = model.forward(z)
    scale = max(1.0, float(np.abs(frames).max()))
    return max(float(np.abs(back - frames).max()) / scale,
               float(np.abs(ld_inv + ld_fwd).max()))


# ---------------------------------------------------------------------------
# outputs of the stage-by-stage CLI


def read_tsv(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def check_score_table(path, truth: Truth, ids, gmm_params) -> list:
    """`proscore score --gop --model GMM ...` against own GOP and GMM."""
    header, rows = read_tsv(path)
    if header[:3] != ["utterance_id", "gop", "gmm_loglik"]:
        return [f"{path.name}: unexpected header {header}"]
    if tuple(r[0] for r in rows) != tuple(ids):
        return [f"{path.name}: rows do not match the expected ids"]
    problems = []
    for r in rows:
        uid, gop_value, loglik = r[0], float(r[1]), float(r[2])
        if not math.isclose(gop_value, truth.gop[uid], rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{path.name}: {uid} GOP {gop_value!r}, "
                            f"expected {truth.gop[uid]!r}")
        want = gmm_mean_loglik(gmm_params, truth.frames[uid])
        if not math.isclose(loglik, want, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{path.name}: {uid} GMM log-likelihood {loglik!r}, "
                            f"expected {want!r}")
    return problems[:5]


def competition_density_ratio(a: float, delta: float) -> float:
    """Target-phone posterior from the two Gaussian densities directly.

    Both phones have variance 0.5; the competitor sits at 0, the target
    at a, and the observation at a + delta.
    """
    var = 0.5
    o = a + delta
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    competitor = norm * math.exp(-0.5 * o * o / var)
    target = norm * math.exp(-0.5 * (o - a) ** 2 / var)
    return target / (competitor + target)


def check_simulate(path, a: float, deltas) -> list:
    header, rows = read_tsv(path)
    if header != ["a", "delta", "posterior"] or len(rows) != len(deltas):
        return [f"{path.name}: unexpected header or row count"]
    problems = []
    for (a_text, d_text, p_text), delta in zip(rows, deltas):
        want = competition_density_ratio(a, delta)
        if not (float(a_text) == a
                and math.isclose(float(d_text), delta, abs_tol=1e-12)
                and math.isclose(float(p_text), want, rel_tol=1e-12)):
            problems.append(f"{path.name}: delta {d_text}: posterior {p_text}, "
                            f"expected {want!r}")
    return problems[:5]

"""Goodness-of-pronunciation scoring and the phone-competition simulator.

GOP is the mean over aligned phone segments of the log posterior of the
canonical phone. `conditional_score` reassembles the full conditional
log-likelihood from the posterior, a frame marginal and the phone prior.
`simulate_competition` reproduces the two-Gaussian analysis showing that
a worse pronunciation can raise the posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import formats
from .formats import DataError
from .corpus import PhoneAlignment, PhonePrior, PosteriorGram

POSTERIOR_FLOOR = 1e-12
GOP_MODES = ("mean-then-log", "mean-of-log")


@dataclass(frozen=True)
class CompetitionPoint:
    a: float
    delta: float
    posterior: float


def segment_posterior(pg: PosteriorGram, segment) -> float:
    """Mean posterior of the segment's phone over its frames, floored at
    POSTERIOR_FLOOR to keep downstream logarithms finite on degenerate
    posteriorgrams.
    """
    phone_id, start, end = segment
    if start >= end:
        raise DataError(f"{pg.utterance_id}: empty segment {start}..{end}")
    if end > pg.num_frames or phone_id >= pg.num_phones:
        raise DataError(f"{pg.utterance_id}: segment out of posteriorgram bounds")
    return max(float(pg.post[start:end, phone_id].mean()), POSTERIOR_FLOOR)


def _segment_log_posterior(pg, segment, mode):
    if mode == "mean-then-log":
        return math.log(segment_posterior(pg, segment))
    if mode == "mean-of-log":
        phone_id, start, end = segment
        if start >= end:
            raise DataError(f"{pg.utterance_id}: empty segment {start}..{end}")
        vals = np.maximum(pg.post[start:end, phone_id], POSTERIOR_FLOOR)
        return float(np.log(vals).mean())
    raise ValueError(f"unknown GOP mode {mode!r}")


def gop_score(pg: PosteriorGram, al: PhoneAlignment,
              mode: str = "mean-then-log") -> float:
    """GOP = (1/M) * sum_i ln p(q_i | o_i) over the M aligned segments.

    `mode` selects how the segment-level posterior is reduced:
    "mean-then-log" (default) averages frame posteriors before the log,
    "mean-of-log" averages frame log-posteriors.
    """
    if pg.utterance_id != al.utterance_id:
        raise DataError(
            f"utterance mismatch: posteriorgram {pg.utterance_id!r} "
            f"vs alignment {al.utterance_id!r}")
    al.check_bounds(pg.num_frames, pg.num_phones)
    return sum(_segment_log_posterior(pg, seg, mode)
               for seg in al.segments) / al.num_segments


def conditional_score(pg: PosteriorGram, frame_marginal_loglik: np.ndarray,
                      prior: PhonePrior, al: PhoneAlignment,
                      mode: str = "mean-then-log") -> float:
    """Conditional estimate (1/M) * sum_i [ln p(q_i|o_i) + ln p(o_i) - ln p(q_i)].

    ln p(o_i) for segment i is the mean of the frame marginal
    log-likelihoods over that segment.
    """
    marg = np.asarray(frame_marginal_loglik, dtype=np.float64)
    if marg.shape != (pg.num_frames,):
        raise DataError(
            f"marginal log-likelihood has shape {marg.shape}, "
            f"expected ({pg.num_frames},)")
    if prior.prior.shape != (pg.num_phones,):
        raise DataError("prior dimension does not match posteriorgram")
    al.check_bounds(pg.num_frames, pg.num_phones)
    total = 0.0
    for seg in al.segments:
        phone_id, start, end = seg
        lp = _segment_log_posterior(pg, seg, mode)
        lm = float(marg[start:end].mean())
        total += lp + lm - math.log(prior.prior[phone_id])
    return total / al.num_segments


def simulate_competition(a: float, delta: float) -> CompetitionPoint:
    """Posterior of the target phone in the two-Gaussian competition.

    Two phones are unit-axis Gaussians with variance 0.5 whose means are
    distance `a` apart; the pronunciation lands `delta` away from the
    target mean, with positive delta pointing away from the competitor.
    Closed form: p = 1 / (1 + exp(-(a^2 + 2*a*delta))).
    """
    if not a > 0:
        raise ValueError(f"mean distance a must be positive, got {a}")
    x = a * a + 2.0 * a * delta
    if x >= 0:
        p = 1.0 / (1.0 + math.exp(-x))
    else:
        e = math.exp(x)
        p = e / (1.0 + e)
    return CompetitionPoint(a, delta, p)


def competition_sweep(a: float, deltas) -> list:
    """Evaluate simulate_competition at each delta."""
    return [simulate_competition(a, float(d)) for d in deltas]


def sweep_to_tsv(points) -> str:
    """Plot-ready TSV with header a<TAB>delta<TAB>posterior."""
    return formats.tsv([("a", "delta", "posterior")] + [
        (pt.a, pt.delta, pt.posterior) for pt in points])

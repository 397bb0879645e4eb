"""Score fusion, feature fusion and the PCC evaluation harness.

Score fusion interpolates a GOP score with the SVR prediction after
z-normalizing both on the development split; the interpolation weight is
picked by exhaustive grid search on development PCC. Feature fusion
appends the utterance GOP to the embedding before regression.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import formats
from .formats import DataError
from .corpus import SplitManifest


NORMALIZATIONS = ("zscore", "none")


@dataclass(frozen=True)
class ScoreRow:
    utterance_id: str
    gop: float
    predicted: float
    label_mean: float
    fused: float | None = None


@dataclass(frozen=True)
class ScoreTable:
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        ids = [r.utterance_id for r in self.rows]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate utterance ids in score table")
        for r in self.rows:
            if not (math.isfinite(r.gop) and math.isfinite(r.predicted)
                    and (r.fused is None or math.isfinite(r.fused))):
                raise DataError(f"{r.utterance_id}: non-finite score")
            if math.isinf(r.label_mean):  # nan marks an unlabeled utterance
                raise DataError(f"{r.utterance_id}: infinite label_mean")

    def column(self, name: str) -> np.ndarray:
        vals = [getattr(r, name) for r in self.rows]
        if any(v is None for v in vals):
            raise DataError(f"column {name!r} not populated")
        return np.array(vals, dtype=np.float64)

    def subset(self, utterance_ids) -> "ScoreTable":
        wanted = set(utterance_ids)
        found = {r.utterance_id for r in self.rows} & wanted
        missing = sorted(wanted - found)
        if missing:
            raise DataError(f"missing utterances in score table: {missing[:5]}")
        return ScoreTable(tuple(r for r in self.rows if r.utterance_id in wanted))

    def labels(self) -> np.ndarray:
        """The label_mean column, which correlations need for every row."""
        for r in self.rows:
            if math.isnan(r.label_mean):
                raise DataError(f"{r.utterance_id}: unlabeled utterance"
                                " (label_mean is nan)")
        return self.column("label_mean")


@dataclass(frozen=True)
class FusionConfig:
    lambda_: float
    normalization: str = "zscore"  # fitted on the dev split, or "none"

    def __post_init__(self):
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError(f"lambda must lie in [0,1], got {self.lambda_}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")


def pcc(xs, ys) -> float:
    """Sample Pearson correlation coefficient."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DataError(f"length mismatch: {xs.shape} vs {ys.shape}")
    if xs.shape[0] < 2:
        raise DataError("need at least 2 points")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    sx = float(np.sqrt((xc ** 2).sum()))
    sy = float(np.sqrt((yc ** 2).sum()))
    if sx == 0.0 or sy == 0.0:
        raise DataError("constant input vector")
    return float(np.clip((xc @ yc) / (sx * sy), -1.0, 1.0))


def fusion_stats(dev_table: ScoreTable) -> dict:
    """Mean/std of the two fusion components on the development split."""
    out = {}
    for name in ("gop", "predicted"):
        col = dev_table.column(name)
        std = float(col.std())
        out[name] = (float(col.mean()), std if std > 0 else 1.0)
    return out


def score_fuse(table: ScoreTable, cfg: FusionConfig,
               norm_stats: dict | None = None) -> ScoreTable:
    """fused = lambda * gop + (1 - lambda) * predicted, after normalization.

    With zscore normalization both components are shifted/scaled by the
    dev-split statistics in `norm_stats`; "none" keeps the raw values.
    """
    if cfg.normalization == "zscore":
        if norm_stats is None:
            raise ValueError("zscore fusion needs dev-split normalization stats")
        gm, gs = norm_stats["gop"]
        pm, ps = norm_stats["predicted"]
    else:
        gm = pm = 0.0
        gs = ps = 1.0
    rows = []
    for r in table.rows:
        g = (r.gop - gm) / gs
        p = (r.predicted - pm) / ps
        rows.append(replace(r, fused=cfg.lambda_ * g + (1.0 - cfg.lambda_) * p))
    return ScoreTable(tuple(rows))


# PCC lies in [-1, 1], so an absolute bound separates rounding from gains.
_TIE_TOL = 1e-12


def select_lambda(dev_table: ScoreTable, grid_step: float = 0.02,
                  normalization: str = "zscore"):
    """Grid search for the interpolation weight maximizing dev PCC.

    Returns (best lambda, [(lambda, pcc), ...]) with the raw PCC values.
    PCCs within `_TIE_TOL` of the best so far count as ties (rounding in
    the fused column moves PCC by an ulp or so), and ties break toward the
    smaller lambda. A lambda whose fused dev column is constant has PCC nan
    and is never selected (two dev points whose standardized components are
    ordered oppositely fuse to [0, 0] at lambda 0.5).
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    labels = dev_table.labels()
    if float(labels.std()) == 0.0:
        raise DataError("degenerate dev labels: constant")
    FusionConfig(0.0, normalization)  # a known normalization
    # each fused column as score_fuse computes it, in its order of operations
    g, p = dev_table.column("gop"), dev_table.column("predicted")
    if normalization == "zscore":
        stats = fusion_stats(dev_table)
        g = (g - stats["gop"][0]) / stats["gop"][1]
        p = (p - stats["predicted"][0]) / stats["predicted"][1]
    grid = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    grid = np.minimum(grid, 1.0)
    curve = []
    best_lam, best_val = None, -np.inf
    for lam in grid:
        lam = float(lam)
        fused = lam * g + (1.0 - lam) * p
        if not np.isfinite(fused).all():  # as the ScoreTable of score_fuse
            uid = dev_table.rows[np.argmin(np.isfinite(fused))].utterance_id
            raise DataError(f"{uid}: non-finite score")
        try:
            val = pcc(fused, labels)
        except DataError:  # the fused column is constant: labels vary
            val = float("nan")
        curve.append((lam, val))
        if val > best_val + _TIE_TOL:
            best_lam, best_val = lam, val
    if best_lam is None:
        raise DataError("no fusion weight has a PCC on the dev split: the"
                        " fused dev score is constant at every weight")
    return best_lam, curve


def feature_fuse(embeddings: np.ndarray, gop_scores) -> np.ndarray:
    """Append the utterance GOP as one extra column. It is not standardized
    here: `svr_train` standardizes every column with train-split statistics."""
    gop_scores = np.asarray(gop_scores, dtype=np.float64)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[0] != gop_scores.shape[0]:
        raise DataError(
            f"length mismatch: {embeddings.shape[0]} embeddings vs "
            f"{gop_scores.shape[0]} GOP scores")
    return np.hstack([embeddings, gop_scores[:, None]])


def inter_rater_pcc(ratings: np.ndarray) -> float:
    """Mean pairwise PCC over rater columns.

    Raters with constant scores are excluded with a warning; fewer than
    two usable raters is an error.
    """
    ratings = np.asarray(ratings, dtype=np.float64)
    if ratings.ndim != 2 or ratings.shape[1] < 2:
        raise DataError("need an n x R rating matrix with R >= 2")
    usable = []
    for r in range(ratings.shape[1]):
        if float(ratings[:, r].std()) == 0.0:
            warnings.warn(f"rater {r} has constant scores; excluded")
        else:
            usable.append(r)
    if len(usable) < 2:
        raise DataError("fewer than 2 non-constant raters")
    vals = []
    for a in range(len(usable)):
        for b in range(a + 1, len(usable)):
            vals.append(pcc(ratings[:, usable[a]], ratings[:, usable[b]]))
    return float(np.mean(vals))


def score_table_to_tsv(table: ScoreTable) -> str:
    n = 5 if all(r.fused is not None for r in table.rows) else 4
    return formats.tsv([("utterance_id", "gop", "predicted", "label_mean",
                         "fused")[:n]] + [
        (r.utterance_id, r.gop, r.predicted, r.label_mean, r.fused)[:n]
        for r in table.rows])


def read_score_table(path) -> ScoreTable:
    """Read a score table by column name.

    utterance_id, gop, predicted and label_mean are required and fused is
    optional; log-likelihood columns (`*_loglik`, as `proscore score`
    writes them) are skipped. An utterance id on two lines is a DataError
    naming both.
    """
    required = ("utterance_id", "gop", "predicted", "label_mean")
    known = required + ("fused",)
    lines = formats.read_tsv(path)
    _, header = next(lines, (path, []))
    if (len(set(header)) != len(header) or not set(required) <= set(header)
            or not all(c in known or c.endswith("_loglik") for c in header)):
        raise DataError(f"{path}: unexpected score table header {header}")
    col = {name: header.index(name) for name in known if name in header}
    rows, first = [], {}
    for where, parts in lines:
        uid, *vals = (parts[i] for i in col.values())
        formats.check_key(first, uid, where)
        gop, predicted, label_mean, *fused = formats.parse(where, float, *vals)
        rows.append(ScoreRow(uid, gop, predicted, label_mean, *fused))
    return ScoreTable(tuple(rows))


# ---------------------------------------------------------------------------
# report generation


@dataclass(frozen=True)
class ReportRow:
    system: str
    split: str
    pcc: float
    lambda_: float | None = None


def evaluate(table: ScoreTable, split: SplitManifest,
             split_name: str = "eval") -> list:
    """PCC of each populated score column against labels on one split."""
    sub = table.subset(split.ids(split_name))
    labels = sub.labels()
    rows = []
    for name in ("gop", "predicted", "fused"):
        try:
            col = sub.column(name)
        except DataError:
            continue
        rows.append(ReportRow(name, split_name, pcc(col, labels)))
    return rows


def report_to_tsv(rows) -> str:
    """TSV with columns system, split, pcc, lambda (lambda may be empty)."""
    return formats.tsv([("system", "split", "pcc", "lambda")] + [
        (r.system, r.split, f"{r.pcc:.6f}",
         "" if r.lambda_ is None else f"{r.lambda_:.2f}") for r in rows])

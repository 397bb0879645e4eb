"""Discriminative normalizing flow: class-specific Gaussian prior means.

Same invertible backbone as the vanilla flow, but each proficiency class
s gets its own latent prior N(mu_s, I). Training jointly fits the
backbone and the class means, which pulls the classes apart in latent
space instead of congesting them around the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formats
from .formats import DataError
from .corpus import FeatureSequence
from .flow import (AdamConfig, FlowModel, build_flow, flow_embed, read_flow,
                   train_core, write_flow)

DNF_MAGIC = "PDNF"


@dataclass(frozen=True)
class DnfModel:
    backbone: FlowModel
    class_means: np.ndarray  # (S, D); shared covariance is fixed to identity

    def __post_init__(self):
        means = np.asarray(self.class_means, dtype=np.float64)
        object.__setattr__(self, "class_means", means)
        dim = self.backbone.dim
        if means.ndim != 2 or len(means) < 1 or means.shape[1] != dim:
            raise DataError(f"class means must be S x {dim} with S >= 1")
        if not np.all(np.isfinite(means)):
            raise DataError("non-finite class means")

    @property
    def num_classes(self) -> int:
        return self.class_means.shape[0]


def init_class_means(num_classes: int, dim: int, seed) -> np.ndarray:
    """Seeded unit-norm random directions, one per class."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, dim))
    return means / np.linalg.norm(means, axis=1, keepdims=True)


def dnf_train(frames: np.ndarray, frame_class: np.ndarray, cfg: AdamConfig,
              num_layers: int = 10, width: int = 64):
    """Joint maximum-likelihood training of backbone and class means.

    Each class from 0 to the largest in `frame_class` must occur in it.
    Returns (model, NLL trace): per epoch its mean minibatch loss, and last
    the full-data NLL of the model under its class means.
    """
    frames = np.asarray(frames, dtype=np.float64)
    frame_class = np.asarray(frame_class, dtype=np.int64)
    if frame_class.shape != (frames.shape[0],):
        raise DataError("frame_class must assign one class per frame")
    present = np.bincount(frame_class)
    missing = np.nonzero(present == 0)[0]
    if missing.size:
        raise DataError(f"classes with no training frames: {missing.tolist()}")

    backbone = build_flow(frames.shape[1], num_layers, width, seed=cfg.seed)
    class_means = init_class_means(len(present), frames.shape[1], [cfg.seed, 1])
    trace = train_core(backbone, frames, cfg, class_means=class_means,
                       frame_class=frame_class)
    return DnfModel(backbone, class_means), trace


def dnf_embed(m: DnfModel, fs: FeatureSequence) -> np.ndarray:
    """Latent-average embedding; identical to the vanilla flow rule."""
    return flow_embed(m.backbone, fs)


def classes_from_mean_scores(mean_scores, num_classes: int = 5) -> np.ndarray:
    """Map mean rater scores in [1,5] to class ids by rounding."""
    scores = np.asarray(mean_scores, dtype=np.float64)
    cls = np.clip(np.rint(scores), 1, num_classes).astype(np.int64) - 1
    return cls


# ---------------------------------------------------------------------------
# serialization (PDNF)


def write_dnf(f, m: DnfModel) -> None:
    formats.write_magic(f, DNF_MAGIC)
    write_flow(f, m.backbone)
    formats.write_u32(f, m.num_classes)
    formats.write_array(f, m.class_means)


def read_dnf(f) -> DnfModel:
    formats.read_magic(f, DNF_MAGIC)
    backbone = read_flow(f)
    S = formats.read_u32(f)
    means = formats.read_array(f, (S, backbone.dim))
    return DnfModel(backbone, means)


def save_dnf(path, m: DnfModel) -> None:
    formats.save(path, write_dnf, m)


def load_dnf(path) -> DnfModel:
    return formats.load(path, read_dnf)

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
from .corpus import FeatureSequence
from .flow import (AdamConfig, FlowModel, build_flow, flow_embed,
                   flow_transform, log_density, read_flow, train_core,
                   write_flow)

DNF_MAGIC = "PDNF"


class DnfError(formats.DataError):
    pass


@dataclass(frozen=True)
class DnfModel:
    backbone: FlowModel
    class_means: np.ndarray  # (S, D); shared covariance is fixed to identity

    def __post_init__(self):
        means = np.asarray(self.class_means, dtype=np.float64)
        object.__setattr__(self, "class_means", means)
        dim = self.backbone.dim
        if means.ndim != 2 or len(means) < 1 or means.shape[1] != dim:
            raise DnfError(f"class means must be S x {dim} with S >= 1")
        if not np.all(np.isfinite(means)):
            raise DnfError("non-finite class means")

    @property
    def num_classes(self) -> int:
        return self.class_means.shape[0]


def dnf_logprob(m: DnfModel, batch: np.ndarray, class_id: int) -> np.ndarray:
    """ln p_s(o) = ln N(f^-1(o); mu_s, I) + ln|det df^-1/do| per row."""
    if not 0 <= class_id < m.num_classes:
        raise DnfError(f"class_id {class_id} out of range [0,{m.num_classes})")
    z, logdet = flow_transform(m.backbone, "inverse", batch)
    return log_density(z - m.class_means[class_id], logdet)


def init_class_means(num_classes: int, dim: int, seed) -> np.ndarray:
    """Seeded unit-norm random directions, one per class."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, dim))
    return means / np.linalg.norm(means, axis=1, keepdims=True)


def dnf_train(frames: np.ndarray, frame_class: np.ndarray, cfg: AdamConfig,
              num_classes: int | None = None, num_layers: int = 10,
              width: int = 64, class_means_init: np.ndarray | None = None,
              train_means: bool = True):
    """Joint maximum-likelihood training of backbone and class means.

    Every class in [0, num_classes) must occur at least once in
    `frame_class`. Returns (model, per-epoch mean NLL trace).
    """
    frames = np.asarray(frames, dtype=np.float64)
    frame_class = np.asarray(frame_class, dtype=np.int64)
    if frame_class.shape != (frames.shape[0],):
        raise DnfError("frame_class must assign one class per frame")
    if num_classes is None:
        num_classes = int(frame_class.max()) + 1
    present = np.bincount(frame_class, minlength=num_classes)
    missing = np.nonzero(present == 0)[0]
    if missing.size:
        raise DnfError(f"classes with no training frames: {missing.tolist()}")

    backbone = build_flow(frames.shape[1], num_layers, width, seed=cfg.seed)
    if class_means_init is None:
        class_means = init_class_means(num_classes, frames.shape[1],
                                       [cfg.seed, 1])
    else:
        class_means = np.array(class_means_init, dtype=np.float64)
        if class_means.shape != (num_classes, frames.shape[1]):
            raise DnfError("class_means_init has the wrong shape")
    trace = train_core(backbone, frames, cfg, class_means=class_means,
                       frame_class=frame_class, train_means=train_means)
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

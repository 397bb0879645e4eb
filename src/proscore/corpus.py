"""Corpus data model, file formats and the synthetic corpus generator.

A corpus bundles per-utterance acoustic feature matrices, phone
alignments, phone posteriorgrams and rater labels, plus a train/dev/eval
split. Real data is loaded through a manifest file; for desk-scale
experiments `synth_corpus` generates a corpus with a known per-utterance
proficiency oracle.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import formats
from .formats import DataError

FEATURE_MAGIC = "PRF1"


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class FeatureSequence:
    """Per-utterance T x D matrix of acoustic frames."""

    utterance_id: str
    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        object.__setattr__(self, "frames", frames)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise DataError(
                f"{self.utterance_id}: frames must be a T x D matrix with T >= 1"
            )
        if not np.all(np.isfinite(frames)):
            raise DataError(f"{self.utterance_id}: non-finite feature values")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class PhoneAlignment:
    """Ordered, non-overlapping phone segments (phone_id, start, end)."""

    utterance_id: str
    segments: tuple

    def __post_init__(self):
        segs = tuple((int(p), int(s), int(e)) for p, s, e in self.segments)
        object.__setattr__(self, "segments", segs)
        if len(segs) < 1:
            raise DataError(f"{self.utterance_id}: empty alignment")
        prev_end = 0
        for p, s, e in segs:
            if p < 0:
                raise DataError(f"{self.utterance_id}: negative phone id")
            if s < prev_end or s >= e:
                raise DataError(
                    f"{self.utterance_id}: segments must be ordered, "
                    f"non-overlapping, start < end (got {s}..{e})"
                )
            prev_end = e

    def check_bounds(self, num_frames: int, num_phones: int | None = None) -> None:
        for p, s, e in self.segments:
            if e > num_frames:
                raise DataError(
                    f"{self.utterance_id}: segment end {e} exceeds T={num_frames}"
                )
            if num_phones is not None and p >= num_phones:
                raise DataError(
                    f"{self.utterance_id}: phone id {p} out of range [0,{num_phones})"
                )

    @property
    def num_segments(self) -> int:
        return len(self.segments)


ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class PosteriorGram:
    """Per-frame phone posterior matrix (T x P) with a phone name table."""

    utterance_id: str
    post: np.ndarray
    phone_table: tuple

    def __post_init__(self):
        post = np.asarray(self.post, dtype=np.float64)
        object.__setattr__(self, "post", post)
        object.__setattr__(self, "phone_table", tuple(self.phone_table))
        if post.ndim != 2 or post.shape[0] < 1:
            raise DataError(f"{self.utterance_id}: posteriorgram must be T x P")
        if post.shape[1] != len(self.phone_table):
            raise DataError(
                f"{self.utterance_id}: {post.shape[1]} columns but "
                f"{len(self.phone_table)} phone names"
            )
        if np.any(post < 0):
            raise DataError(f"{self.utterance_id}: negative posterior entries")
        sums = post.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            raise DataError(
                f"{self.utterance_id}: posteriorgram row {bad[0]} sums to "
                f"{sums[bad[0]]:.6g}, expected 1"
            )

    @property
    def num_frames(self) -> int:
        return self.post.shape[0]

    @property
    def num_phones(self) -> int:
        return self.post.shape[1]


@dataclass(frozen=True)
class PhonePrior:
    """Prior distribution over the P phones."""

    prior: np.ndarray

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=np.float64)
        object.__setattr__(self, "prior", prior)
        if prior.ndim != 1 or np.any(prior <= 0):
            raise DataError("phone prior entries must be positive")
        if abs(prior.sum() - 1.0) > 1e-9:
            raise DataError(f"phone prior sums to {prior.sum()!r}, expected 1")

    @classmethod
    def uniform(cls, num_phones: int) -> "PhonePrior":
        return cls(np.full(num_phones, 1.0 / num_phones))


@dataclass(frozen=True)
class RatedUtterance:
    utterance_id: str
    rater_scores: tuple
    mean_score: float = field(init=False)  # the mean of rater_scores

    def __post_init__(self):
        scores = tuple(int(s) for s in self.rater_scores)
        object.__setattr__(self, "rater_scores", scores)
        if len(scores) < 1:
            raise DataError(f"{self.utterance_id}: needs at least one rater")
        if any(s < 1 or s > 5 for s in scores):
            raise DataError(f"{self.utterance_id}: rater scores must lie in [1,5]")
        object.__setattr__(self, "mean_score", sum(scores) / len(scores))


SPLITS = ("train", "dev", "eval")  # the split names, in SplitManifest order


@dataclass(frozen=True)
class SplitManifest:
    train_ids: tuple
    dev_ids: tuple
    eval_ids: tuple

    def __post_init__(self):
        object.__setattr__(self, "train_ids", tuple(self.train_ids))
        object.__setattr__(self, "dev_ids", tuple(self.dev_ids))
        object.__setattr__(self, "eval_ids", tuple(self.eval_ids))
        seen = set()
        for uid in self.train_ids + self.dev_ids + self.eval_ids:
            if uid in seen:
                raise DataError("split lists must be pairwise disjoint and"
                                f" list each utterance once: {uid} repeats")
            seen.add(uid)

    def ids(self, name: str) -> tuple:
        """The utterance ids of split `name`, one of SPLITS."""
        return {"train": self.train_ids, "dev": self.dev_ids,
                "eval": self.eval_ids}[name]

    def check_covers(self, utterance_ids) -> None:
        covered = set(self.train_ids) | set(self.dev_ids) | set(self.eval_ids)
        missing = set(utterance_ids) - covered
        extra = covered - set(utterance_ids)
        if missing:
            raise DataError(f"splits do not cover utterances: {sorted(missing)[:5]}")
        if extra:
            raise DataError(f"splits reference unknown utterances: {sorted(extra)[:5]}")


@dataclass(frozen=True)
class Corpus:
    """Each of features, alignments, posteriors and labels maps an
    utterance id to its item; the phone table is that of the
    posteriorgrams. A corpus that `load_corpus` read parses its features,
    posteriorgrams and alignments on first use."""

    features: Mapping
    alignments: Mapping
    posteriors: Mapping
    labels: Mapping
    splits: SplitManifest
    # manifest role -> the paths of its files, of a corpus that load_corpus read
    files: Mapping = field(default_factory=dict, compare=False, repr=False)

    @property
    def phone_table(self) -> tuple:
        return next(iter(self.posteriors.values())).phone_table

    def frames_for(self, utterance_ids) -> np.ndarray:
        """Stack the frames of the given utterances into one N x D matrix."""
        return np.vstack([self.features[uid].frames for uid in utterance_ids])

    def release(self, *roles) -> None:
        """Drop the parsed features, posteriorgrams or alignments of a corpus
        that load_corpus read, to free their memory; a later use parses them
        again."""
        for role in roles:
            getattr(self, role).release()

    def digest(self, *roles) -> str:
        """sha256 of the bytes of the files of `roles` (MANIFEST_ROLES) of a
        corpus that load_corpus read, as they are now on disk: per role, the
        sha256 of each file's name, size and bytes."""
        h = hashlib.sha256()
        for role in roles:
            part = hashlib.sha256()
            for path in self.files[role]:
                raw = formats.load(path, lambda f: f.read())
                part.update(f"{path.name}\0{len(raw)}\0".encode())
                part.update(raw)
            h.update(part.hexdigest().encode())
        return h.hexdigest()


def _check_features(features) -> None:
    first, *rest = sorted(features)
    dim = features[first].dim
    for uid in rest:
        if features[uid].dim != dim:
            raise DataError(f"inconsistent feature dims across corpus: {uid}"
                            f" has {features[uid].dim}, {first} has {dim}")


def _check_alignments(alignments, features, num_phones: int) -> None:
    for uid, al in alignments.items():
        if uid not in features:
            raise DataError(f"alignment for unknown utterance {uid}")
        al.check_bounds(features[uid].num_frames, num_phones)


def _check_posteriors(posteriors, features, phone_table) -> None:
    for uid, pg in posteriors.items():
        if pg.num_frames != features[uid].num_frames:
            raise DataError(f"{uid}: posteriorgram has {pg.num_frames} frames,"
                            f" features have {features[uid].num_frames}")
        if pg.phone_table != phone_table:
            raise DataError(f"{uid}: posteriorgram phone table mismatch")


def _check_labels(labels, features) -> None:
    for uid in labels:
        if uid not in features:
            raise DataError(f"label for unknown utterance {uid}")


# ---------------------------------------------------------------------------
# file formats


def _write_frames(f, frames) -> None:
    formats.write_magic(f, FEATURE_MAGIC)
    formats.write_matrix(f, frames)


def _read_frames(f) -> np.ndarray:
    formats.read_magic(f, FEATURE_MAGIC)
    return formats.read_matrix(f)


def write_feature_file(path, fs: FeatureSequence) -> None:
    formats.save(path, _write_frames, fs.frames)


def read_feature_file(path, utterance_id: str) -> FeatureSequence:
    return formats.load(
        path, lambda f: FeatureSequence(utterance_id, _read_frames(f)))


def _write_posteriorgram(f, pg: PosteriorGram) -> None:
    formats.write_magic(f, FEATURE_MAGIC)
    formats.write_u32(f, len(pg.phone_table))
    for name in pg.phone_table:
        formats.write_string(f, name)
    formats.write_matrix(f, pg.post)


def _read_posteriorgram(f, utterance_id: str) -> PosteriorGram:
    formats.read_magic(f, FEATURE_MAGIC)
    count = formats.read_u32(f)
    table = tuple(formats.read_string(f) for _ in range(count))
    return PosteriorGram(utterance_id, formats.read_matrix(f), table)


def write_posteriorgram_file(path, pg: PosteriorGram) -> None:
    formats.save(path, _write_posteriorgram, pg)


def read_posteriorgram_file(path, utterance_id: str) -> PosteriorGram:
    return formats.load(path, lambda f: _read_posteriorgram(f, utterance_id))


def write_alignment_file(path, alignments, phone_table) -> None:
    """TSV: utterance_id, phone_name, start_frame, end_frame."""
    Path(path).write_text(formats.tsv(
        (uid, phone_table[p], s, e) for uid in sorted(alignments)
        for p, s, e in alignments[uid].segments), encoding="utf-8")


def read_alignment_file(path, phone_table) -> dict:
    index = {name: i for i, name in enumerate(phone_table)}
    rows: dict[str, list] = {}
    for where, fields in formats.read_tsv(path, 4):
        uid, phone, start, end = fields
        if phone not in index:
            raise DataError(f"{where}: unknown phone {phone!r}")
        start, end = formats.parse(where, int, start, end)
        rows.setdefault(uid, []).append((index[phone], start, end))
    return {uid: PhoneAlignment(uid, segs) for uid, segs in rows.items()}


def write_labels_file(path, labels) -> None:
    """TSV: utterance_id, comma-separated rater scores."""
    Path(path).write_text(formats.tsv(
        (uid, ",".join(str(s) for s in labels[uid].rater_scores))
        for uid in sorted(labels)), encoding="utf-8")


def read_labels_file(path) -> dict:
    labels = {}
    rows = formats.read_tsv(path, 2, keyed=True)
    for where, (uid, scores) in rows:
        scores = formats.parse(where, int, *scores.split(","))
        labels[uid] = RatedUtterance(uid, scores)
    return labels


def write_splits_file(path, splits: SplitManifest) -> None:
    """TSV: utterance_id, split name (train/dev/eval)."""
    Path(path).write_text(formats.tsv(
        (uid, name) for name in SPLITS for uid in splits.ids(name)),
        encoding="utf-8")


def read_splits_file(path) -> SplitManifest:
    groups = {name: [] for name in SPLITS}
    for where, (uid, name) in formats.read_tsv(path, 2):
        if name not in groups:
            raise DataError(f"{where}: unknown split {name!r}")
        groups[name].append(uid)
    return SplitManifest(*groups.values())


MANIFEST_ROLES = ("features", "alignments", "posteriors", "labels", "splits")


def write_manifest(path, roles: dict) -> None:
    """TSV mapping role -> path (relative paths resolve against the manifest)."""
    Path(path).write_text(formats.tsv(
        (role, roles[role]) for role in MANIFEST_ROLES), encoding="utf-8")


def read_manifest(path) -> dict:
    path = Path(path)
    roles = {}
    rows = formats.read_tsv(path, 2, keyed=True)
    for where, (role, target) in rows:
        if role not in MANIFEST_ROLES:
            raise DataError(f"{where}: unknown role {role!r}")
        roles[role] = path.parent / target
    missing = [r for r in MANIFEST_ROLES if r not in roles]
    if missing:
        raise DataError(f"{path}: manifest missing roles {missing}")
    return roles


def save_corpus(corpus: Corpus, out_dir) -> Path:
    """Write a corpus to a directory tree and return the manifest path."""
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    post_dir = out_dir / "posteriors"
    feat_dir.mkdir(parents=True, exist_ok=True)
    post_dir.mkdir(parents=True, exist_ok=True)
    for uid, fs in corpus.features.items():
        write_feature_file(feat_dir / f"{uid}.feat", fs)
    for uid, pg in corpus.posteriors.items():
        write_posteriorgram_file(post_dir / f"{uid}.post", pg)
    write_alignment_file(out_dir / "alignments.tsv", corpus.alignments, corpus.phone_table)
    write_labels_file(out_dir / "labels.tsv", corpus.labels)
    write_splits_file(out_dir / "splits.tsv", corpus.splits)
    manifest = out_dir / "manifest.tsv"
    write_manifest(manifest, {
        "features": "features",
        "alignments": "alignments.tsv",
        "posteriors": "posteriors",
        "labels": "labels.tsv",
        "splits": "splits.tsv",
    })
    return manifest


class _Part(Mapping):
    """The features, posteriorgrams or alignments (uid -> item) of a corpus
    that load_corpus read. `parse()` reads, makes and checks them when they
    are first used; `ids`, if given, are their keys before that."""

    def __init__(self, parse, ids=None):
        self._parse = parse
        self._ids = None if ids is None else dict.fromkeys(ids)
        self._value = None

    def value(self):
        if self._value is None:
            self._value = self._parse()
        return self._value

    def release(self) -> None:
        """Drop the parsed part; a later use parses it again."""
        self._value = None

    def _keys(self):
        return self.value() if self._ids is None else self._ids

    def __getitem__(self, uid):
        return self.value()[uid]

    def __iter__(self):
        return iter(self._keys())

    def __len__(self) -> int:
        return len(self._keys())

    def __contains__(self, uid) -> bool:
        return uid in self._keys()


def load_corpus(manifest_path, split: str | None = None) -> Corpus:
    """A corpus from its manifest. Its labels and splits are read and
    checked here; its features, posteriorgrams and alignments when first
    used (see _Part): the features alone, the others against them. With
    `split`, one of SPLITS, its features are that split's alone, and no
    other feature file is parsed."""
    roles = read_manifest(manifest_path)
    feat_dir = Path(roles["features"])
    post_dir = Path(roles["posteriors"])
    # by name: for one directory's files the order of their paths, but faster
    feature_paths = sorted(feat_dir.glob("*.feat"), key=lambda p: p.name)
    if not feature_paths:
        raise DataError(f"empty corpus: no feature files under {feat_dir}")
    post_paths = sorted(post_dir.glob("*.post"), key=lambda p: p.name)
    if not post_paths:
        raise DataError(f"no posteriorgram files under {post_dir}")
    paths = {p.stem: p for p in feature_paths}
    labels = read_labels_file(roles["labels"])
    splits = read_splits_file(roles["splits"])
    for p in post_paths:
        if p.stem not in paths:
            raise DataError(f"posteriorgram for unknown utterance {p.stem}")
    _check_labels(labels, paths)
    splits.check_covers(paths)
    if split is not None:
        wanted = set(splits.ids(split))
        paths = {uid: p for uid, p in paths.items() if uid in wanted}

    def parse_features():
        items = {uid: read_feature_file(p, uid) for uid, p in paths.items()}
        _check_features(items)
        return items

    def parse_posteriors():
        items = {p.stem: read_posteriorgram_file(p, p.stem) for p in post_paths}
        _check_posteriors(items, features, next(iter(items.values())).phone_table)
        return items

    def parse_alignments():
        # the phone table is the posteriorgrams', not the corpus's: a
        # closure over the corpus is a cycle
        table = next(iter(posteriors.values())).phone_table
        items = read_alignment_file(roles["alignments"], table)
        _check_alignments(items, features, len(table))
        return items

    features = _Part(parse_features, paths)
    posteriors = _Part(parse_posteriors, [p.stem for p in post_paths])
    files = {role: [path] for role, path in roles.items()}
    files.update(features=feature_paths, posteriors=post_paths)
    return Corpus(features, _Part(parse_alignments), posteriors, labels,
                  splits, files)


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass(frozen=True)
class SynthConfig:
    """Settings for the synthetic proficiency corpus.

    Each speaker draws a proficiency rho in [0,1]. Frames for phone p are
    drawn from a unit-variance Gaussian centred at the interpolation
    (1-rho)*shifted_prototype + rho*native_prototype, plus a per-speaker
    nuisance offset that models channel/speaker-trait variation.
    """

    num_phones: int = 12
    feature_dim: int = 16
    num_speakers: int = 60
    utterances_per_speaker: int = 6
    phones_per_utterance: int = 10
    frames_per_phone: tuple = (5, 12)
    native_scale: float = 2.0
    shift_scale: float = 1.5
    speaker_spread: float = 1.0
    proficiency_noise: float = 0.05
    label_noise: float = 0.35
    num_raters: int = 5
    eval_fraction: float = 0.3
    dev_fraction: float = 0.1
    seed: int = 7

    def validate(self) -> None:
        counts = (self.num_phones, self.feature_dim, self.num_speakers,
                  self.utterances_per_speaker, self.phones_per_utterance,
                  self.num_raters)
        if any(c < 1 for c in counts):
            raise ValueError("all synth counts must be >= 1")
        lo, hi = self.frames_per_phone
        if lo < 1 or hi < lo:
            raise ValueError(f"bad frames_per_phone range {self.frames_per_phone}")
        if not all(x >= 0 for x in (self.native_scale, self.shift_scale,
                                    self.speaker_spread, self.proficiency_noise,
                                    self.label_noise)):
            raise ValueError("scales and noise levels must be >= 0")
        if not (0 < self.eval_fraction < 1 and 0 <= self.dev_fraction < 1):
            raise ValueError("split fractions out of range")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def synth_corpus(cfg: SynthConfig):
    """Generate a corpus plus its proficiency oracle (utterance_id -> rho).

    Deterministic for a fixed config.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    P, D = cfg.num_phones, cfg.feature_dim

    native = cfg.native_scale * rng.standard_normal((P, D))
    shifted = native + cfg.shift_scale * rng.standard_normal((P, D))
    phone_table = tuple(f"ph{p:02d}" for p in range(P))

    rho_speaker = rng.uniform(0.0, 1.0, size=cfg.num_speakers)
    offsets = cfg.speaker_spread * rng.standard_normal((cfg.num_speakers, D))

    features, alignments, posteriors, labels = {}, {}, {}, {}
    oracle = {}
    speaker_of = {}
    lo, hi = cfg.frames_per_phone
    for s in range(cfg.num_speakers):
        for u in range(cfg.utterances_per_speaker):
            uid = f"spk{s:03d}_utt{u:02d}"
            rho = float(np.clip(
                rho_speaker[s] + cfg.proficiency_noise * rng.standard_normal(),
                0.0, 1.0))
            phones = rng.integers(0, P, size=cfg.phones_per_utterance)
            lengths = rng.integers(lo, hi + 1, size=cfg.phones_per_utterance)
            means = (1.0 - rho) * shifted[phones] + rho * native[phones] + offsets[s]
            frames = np.repeat(means, lengths, axis=0)
            frames = frames + rng.standard_normal(frames.shape)

            ends = np.cumsum(lengths)
            starts = ends - lengths
            segments = list(zip(phones.tolist(), starts.tolist(), ends.tolist()))

            # recognizer view: Bayes rule over the native phone Gaussians
            # (unit variance, uniform prior)
            d2 = ((frames[:, None, :] - native[None, :, :]) ** 2).sum(axis=2)
            ll = -0.5 * d2
            ll -= ll.max(axis=1, keepdims=True)
            post = np.exp(ll)
            post /= post.sum(axis=1, keepdims=True)

            raw = 1.0 + 4.0 * rho + cfg.label_noise * rng.standard_normal(cfg.num_raters)
            scores = np.clip(np.rint(raw), 1, 5).astype(int)

            features[uid] = FeatureSequence(uid, frames)
            alignments[uid] = PhoneAlignment(uid, segments)
            posteriors[uid] = PosteriorGram(uid, post, phone_table)
            labels[uid] = RatedUtterance(uid, scores)
            oracle[uid] = rho
            speaker_of[uid] = s

    splits = _make_splits(cfg, rng, speaker_of)
    return Corpus(features, alignments, posteriors, labels, splits), oracle


def _make_splits(cfg: SynthConfig, rng, speaker_of) -> SplitManifest:
    """Speaker-disjoint train/eval, with dev carved from the train ids."""
    speakers = np.arange(cfg.num_speakers)
    rng.shuffle(speakers)
    n_eval = max(1, int(round(cfg.eval_fraction * cfg.num_speakers)))
    if n_eval >= cfg.num_speakers:
        n_eval = cfg.num_speakers - 1
    eval_speakers = set(speakers[:n_eval].tolist())

    train_ids = sorted(u for u, s in speaker_of.items() if s not in eval_speakers)
    eval_ids = sorted(u for u, s in speaker_of.items() if s in eval_speakers)
    train_ids = np.array(train_ids, dtype=object)
    rng.shuffle(train_ids)
    n_dev = max(1, int(round(cfg.dev_fraction * len(train_ids))))
    dev_ids = sorted(train_ids[:n_dev].tolist())
    train_ids = sorted(train_ids[n_dev:].tolist())
    return SplitManifest(train_ids, dev_ids, eval_ids)

import numpy as np
import pytest

from proscore.corpus import FeatureSequence
from proscore.dnf import (DnfError, DnfModel, classes_from_mean_scores,
                          dnf_embed, dnf_train, init_class_means)
from proscore.flow import (AdamConfig, build_flow, flow_embed, flow_train,
                           flow_transform, log_density, mean_nll,
                           nll_and_grads)


def _two_class_data(rng, n=300, d=4):
    a = rng.standard_normal((n, d)) * 0.8 + 2.0
    b = rng.standard_normal((n, d)) * 0.8 - 2.0
    frames = np.vstack([a, b])
    classes = np.concatenate([np.zeros(n, dtype=np.int64),
                              np.ones(n, dtype=np.int64)])
    return frames, classes


# ---------------------------------------------------------------------------
# model


def test_model_validation():
    with pytest.raises(DnfError):
        DnfModel(build_flow(4, 2, 8, seed=0), np.zeros((2, 3)))
    with pytest.raises(DnfError, match="non-finite"):
        DnfModel(build_flow(4, 2, 8, seed=0), np.full((2, 4), np.nan))


# ---------------------------------------------------------------------------
# class utilities


def test_classes_from_mean_scores():
    np.testing.assert_array_equal(
        classes_from_mean_scores([1.0, 2.4, 2.6, 5.0]),
        [0, 1, 2, 4])
    # rounding clips into the valid class range
    np.testing.assert_array_equal(classes_from_mean_scores([0.4, 5.9]), [0, 4])


def test_init_class_means_unit_norm_and_seeded():
    m1 = init_class_means(5, 8, seed=[3, 1])
    m2 = init_class_means(5, 8, seed=[3, 1])
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_allclose(np.linalg.norm(m1, axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# training


def test_train_rejects_missing_class():
    frames = np.random.default_rng(3).standard_normal((200, 4))
    classes = np.repeat([0, 2], 100)
    cfg = AdamConfig(batch_size=64, epochs=1, seed=0)
    with pytest.raises(DnfError, match=r"no training frames: \[1\]"):
        dnf_train(frames, classes, cfg, num_layers=2, width=8)


def test_train_rejects_shape_mismatch():
    cfg = AdamConfig(batch_size=8, epochs=1, seed=0)
    with pytest.raises(DnfError, match="one class per frame"):
        dnf_train(np.zeros((10, 4)), np.zeros(9, dtype=np.int64), cfg)


def test_gradient_check_including_class_means():
    rng = np.random.default_rng(6)
    frames = rng.standard_normal((8, 4))
    classes = np.array([0, 1, 0, 1, 1, 0, 0, 1])
    backbone = build_flow(4, 2, 8, seed=7)
    for p in backbone.params():
        p += 0.2 * rng.standard_normal(p.shape)
    means = init_class_means(2, 4, seed=8)

    def loss_at(mu):
        val, _, _ = nll_and_grads(backbone, frames, mu[classes])
        return val

    _, _, resid = nll_and_grads(backbone, frames, means[classes])
    gmu = np.zeros_like(means)
    np.add.at(gmu, classes, -resid / len(classes))

    h = 1e-6
    worst = 0.0
    for s in range(2):
        for d in range(4):
            orig = means[s, d]
            means[s, d] = orig + h
            lp = loss_at(means)
            means[s, d] = orig - h
            lm = loss_at(means)
            means[s, d] = orig
            num = (lp - lm) / (2 * h)
            denom = max(abs(num), abs(gmu[s, d]), 1e-8)
            worst = max(worst, abs(num - gmu[s, d]) / denom)
    assert worst < 1e-4


def test_training_separates_classes_better_than_vanilla_flow():
    rng = np.random.default_rng(9)
    frames, classes = _two_class_data(rng, n=250, d=2)
    cfg = AdamConfig(learning_rate=0.01, batch_size=100, epochs=15, seed=10)
    dnf_model, _ = dnf_train(frames, classes, cfg, num_layers=4, width=16)
    base = build_flow(2, 4, 16, seed=cfg.seed)
    flow_model, _ = flow_train(base, frames, cfg)

    def separation(latent):
        za, zb = latent[classes == 0], latent[classes == 1]
        between = np.linalg.norm(za.mean(axis=0) - zb.mean(axis=0))
        within = 0.5 * (np.linalg.norm(za - za.mean(axis=0), axis=1).mean()
                        + np.linalg.norm(zb - zb.mean(axis=0), axis=1).mean())
        return between / within

    z_dnf, _ = flow_transform(dnf_model.backbone, "inverse", frames)
    z_flow, _ = flow_transform(flow_model, "inverse", frames)
    assert separation(z_dnf) > separation(z_flow)


def test_training_loss_is_the_density_under_the_class_means():
    """The DNF training NLL is minus the mean log-density of the latent
    residuals from each frame's class mean, to the last bit."""
    frames, classes = _two_class_data(np.random.default_rng(17), n=64, d=4)
    cfg = AdamConfig(learning_rate=0.01, batch_size=32, epochs=2, seed=17)
    model, _ = dnf_train(frames, classes, cfg, num_layers=2, width=8)
    means = model.class_means[classes]
    z, logdet = flow_transform(model.backbone, "inverse", frames)
    assert (mean_nll(model.backbone, frames, means)
            == -log_density(z - means, logdet).mean())


def test_single_class_matches_flow_with_global_mean():
    """S=1 training follows the same code path as the vanilla flow plus a
    learnable global mean; check it runs and the trace decreases."""
    rng = np.random.default_rng(11)
    frames = rng.standard_normal((256, 4)) + 2.0
    classes = np.zeros(256, dtype=np.int64)
    cfg = AdamConfig(learning_rate=0.005, batch_size=64, epochs=6, seed=12)
    model, trace = dnf_train(frames, classes, cfg, num_layers=2, width=8)
    assert model.num_classes == 1
    assert trace[-1] < trace[0]


def test_embed_matches_flow_embed():
    rng = np.random.default_rng(13)
    backbone = build_flow(4, 2, 8, seed=14)
    for p in backbone.params():
        p += 0.1 * rng.standard_normal(p.shape)
    m = DnfModel(backbone, np.zeros((2, 4)))
    fs = FeatureSequence("u", rng.standard_normal((7, 4)))
    np.testing.assert_array_equal(dnf_embed(m, fs), flow_embed(backbone, fs))


def test_trace_ends_with_the_full_batch_loss():
    rng = np.random.default_rng(23)
    frames, classes = _two_class_data(rng, n=100)
    cfg = AdamConfig(learning_rate=0.01, batch_size=50, epochs=3, seed=24)
    m, trace = dnf_train(frames, classes, cfg, num_layers=2, width=8)
    assert trace[-1] == nll_and_grads(m.backbone, frames,
                                      m.class_means[classes])[0]


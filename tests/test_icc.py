"""Alternating contrast/classify training and its label-isolation audit."""

import numpy as np
import pytest

from c2fseg.augment import AugmentConfig
from c2fseg.contrastive import ContrastConfig
from c2fseg.data import AuditedDataset, Dataset, VideoSample, make_split
from c2fseg.icc import (ICCConfig, classify_step, contrast_step, pseudo_label,
                        run_icc)
from c2fseg.inference import predict_probs
from c2fseg.model import ModelConfig, ProjectionHeads, build_model
from c2fseg.seeding import substream
from c2fseg.supervised import LossConfig


def tiny_model(seed=1, f=6, c=3, activities=2):
    cfg = ModelConfig(input_dim=f, num_classes=c, num_activities=activities,
                      depth=2, encoder_channels=(12, 12, 12),
                      decoder_channels=(12, 12), tpp_windows=(2,),
                      activity_hidden=4)
    return build_model(cfg, seed=seed)


def tiny_dataset(n_train=8, n_test=4, t=40, f=6, c=3, seed=0):
    rng = np.random.default_rng(seed)
    proto = np.eye(c, f) * 3.0
    samples = []
    for i in range(n_train + n_test):
        labels = np.repeat(rng.integers(0, c, size=4), t // 4)
        feats = proto[labels] + 0.3 * rng.normal(size=(t, f))
        samples.append(VideoSample(vid=f"v{i:02d}", features=feats, labels=labels,
                                   activity=i % 2,
                                   split="train" if i < n_train else "test"))
    return Dataset(samples, [f"c{i}" for i in range(c)], 2)


SMALL_ICC = ICCConfig(iterations=2, labeled_fraction=0.25, pretrain_epochs=1,
                      contrast_epochs=1, classify_epochs=2, batch_size=4)
SMALL_CONTRAST = ContrastConfig(K=3, delta=0.3, num_clusters=2)
AUG_OFF = AugmentConfig(enabled=False)


@pytest.fixture
def setting():
    ds = tiny_dataset()
    audited = AuditedDataset(ds)
    split = make_split(ds, SMALL_ICC.labeled_fraction, seed=3)
    return ds, audited, split


def run_small(audited, split, test_clips, seed=5, **overrides):
    cfg = ICCConfig(**{**SMALL_ICC.__dict__, **overrides})
    model = tiny_model(seed=seed)
    return run_icc(model, audited, split, test_clips, cfg, AUG_OFF,
                   SMALL_CONTRAST, LossConfig(), seed)


def test_unlabeled_ground_truth_never_read(setting):
    ds, audited, split = setting
    assert len(split.labeled) == 3 and len(split.unlabeled) == 5
    run_small(audited, split, ds.test())
    assert audited.reads_for(split.unlabeled) == 0
    assert audited.reads_for(split.labeled) > 0
    # test clips are scored against their annotations outside the audit
    assert all(v.startswith("v0") for v in audited.label_reads)


def test_iteration_structure(setting):
    ds, audited, split = setting
    results = run_small(audited, split, ds.test())
    assert [r.iteration for r in results] == [1, 2]
    for r in results:
        assert 0.0 <= r.report.mof <= 100.0
        assert 0.0 <= r.report.edit <= 100.0
        assert len(r.classify_losses) == SMALL_ICC.classify_epochs
        assert all(np.isfinite(r.classify_losses))
    assert len(results[0].contrast_losses) == SMALL_ICC.pretrain_epochs
    assert len(results[1].contrast_losses) == SMALL_ICC.contrast_epochs


def test_skip_unsupervised_drops_only_the_pretrain(setting):
    ds, audited, split = setting
    results = run_small(audited, split, ds.test(), skip_unsupervised=True)
    assert results[0].contrast_losses == []
    assert len(results[1].contrast_losses) == SMALL_ICC.contrast_epochs
    assert audited.reads_for(split.unlabeled) == 0


def test_run_is_deterministic(setting):
    ds, audited, split = setting
    a = run_small(audited, split, ds.test(), seed=5)
    b = run_small(AuditedDataset(ds), split, ds.test(), seed=5)
    for ra, rb in zip(a, b):
        assert ra.report == rb.report
        assert ra.classify_losses == rb.classify_losses
        assert ra.contrast_losses == rb.contrast_losses


def test_seed_changes_the_trajectory(setting):
    ds, audited, split = setting
    a = run_small(audited, split, ds.test(), seed=5)
    b = run_small(AuditedDataset(ds), split, ds.test(), seed=6)
    assert any(ra.classify_losses != rb.classify_losses for ra, rb in zip(a, b))


def test_pseudo_label_is_plain_ensemble_argmax():
    model = tiny_model()
    heads = ProjectionHeads(model.cfg, substream(9, "heads"))
    feats = np.random.default_rng(2).normal(size=(30, 6))
    got = pseudo_label(model, heads, feats, AUG_OFF)
    want = predict_probs(model, feats, AUG_OFF, tta=False, heads=heads)
    assert got.shape == (30,)
    np.testing.assert_array_equal(got, want.argmax(axis=1))


def test_classify_step_touches_only_labeled_clips(setting):
    ds, audited, split = setting
    model = tiny_model()
    heads = ProjectionHeads(model.cfg, substream(1, "heads-1"))
    losses = classify_step(model, heads, audited, split.labeled, SMALL_ICC,
                           AUG_OFF, SMALL_CONTRAST, LossConfig(), seed=4,
                           iteration=1)
    assert set(audited.label_reads) == set(split.labeled)
    assert len(losses) == SMALL_ICC.classify_epochs


def test_classify_step_on_an_empty_pool_raises(setting):
    _, audited, _ = setting
    model = tiny_model()
    heads = ProjectionHeads(model.cfg, substream(1, "heads-1"))
    with pytest.raises(ValueError, match="nothing to train on"):
        classify_step(model, heads, audited, [], SMALL_ICC, AUG_OFF, SMALL_CONTRAST,
                      LossConfig(), seed=4, iteration=1)


def test_contrast_step_reads_labels_only_where_it_may(setting):
    ds, audited, split = setting
    model = tiny_model()
    pseudo = {v: np.zeros(len(audited.features(v)), dtype=int) for v in split.unlabeled}
    losses = contrast_step(model, audited, split, pseudo, SMALL_ICC, AUG_OFF,
                           SMALL_CONTRAST, seed=4, iteration=2)
    assert set(audited.label_reads) <= set(split.labeled)
    assert len(losses) == SMALL_ICC.contrast_epochs


@pytest.mark.parametrize("bad", [dict(iterations=0), dict(labeled_fraction=0.0),
                                 dict(lr_m_contrast=0.0), dict(contrast_epochs=-1),
                                 dict(batch_size=0)])
def test_invalid_icc_config_refused_when_built(bad):
    with pytest.raises(ValueError):
        ICCConfig(**bad)


def test_config_defaults_follow_profile():
    cfg = ICCConfig()
    # the paper's semi-supervised settings
    assert cfg.iterations == 4
    assert cfg.lr_g == 1e-2
    assert cfg.lr_m_classify == 1e-5
    assert cfg.lr_m_contrast == 1e-3

"""Ensembling identities, loss closed forms, and the training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2fseg import autodiff as ad
from c2fseg.autodiff import Tape, Tensor
from c2fseg.augment import AugmentConfig
from c2fseg.data import VideoSample
from c2fseg.model import DecoderOutputs, ModelConfig, build_model
from c2fseg.supervised import (
    EnsembleWeights,
    LossConfig,
    PROB_FLOOR,
    TrainConfig,
    activity_loss,
    c2f_ensemble,
    cross_entropy,
    fit,
    joint_loss,
    predict_labels,
    train_supervised,
    transition_loss,
)

from oracles import finite_difference_gradient


def fake_outputs(stage_probs):
    """DecoderOutputs carrying given [T, C] probability stages."""
    t = stage_probs[0].shape[0]
    return DecoderOutputs(
        z=[], p=[Tensor(np.asarray(p, dtype=np.float64)) for p in stage_probs],
        f_en=Tensor(np.zeros((1, 1))), t_in=t, t_pad=t,
    )


def random_stage_probs(rng, t, c, depth):
    out = []
    for _ in range(depth):
        raw = rng.random(size=(t, c)) + 1e-3
        out.append(raw / raw.sum(axis=1, keepdims=True))
    return out


# ---------------------------------------------------------------------------
# ensemble weights


def test_uniform_weights_sum_to_one():
    w = EnsembleWeights.uniform(6)
    assert len(w.alpha) == 6
    assert abs(sum(w.alpha) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "bad", [(0.5, 0.5, 0.0), (-0.1, 0.6, 0.5), (0.3, 0.3), (), (0.5, 0.6)]
)
def test_invalid_weights_rejected(bad):
    with pytest.raises(ValueError):
        EnsembleWeights(tuple(bad))


def test_normalized_constructor():
    w = EnsembleWeights.normalized([2.0, 1.0, 1.0])
    np.testing.assert_allclose(w.as_array(), [0.5, 0.25, 0.25])


# ---------------------------------------------------------------------------
# c2f ensemble


def test_single_stage_weight_selects_that_stage():
    rng = np.random.default_rng(0)
    probs = random_stage_probs(rng, 12, 4, 3)
    outs = fake_outputs(probs)
    near = EnsembleWeights.normalized([1.0, 1e-15, 1e-15])
    np.testing.assert_allclose(c2f_ensemble(outs, near).data, probs[0], atol=1e-12)


def test_convex_midpoint():
    outs = fake_outputs([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
    mixed = c2f_ensemble(outs, EnsembleWeights((0.5, 0.5)))
    np.testing.assert_allclose(mixed.data, [[0.5, 0.5]])


def test_uniform_over_identical_stages_is_identity():
    rng = np.random.default_rng(1)
    p = random_stage_probs(rng, 9, 5, 1)[0]
    outs = fake_outputs([p] * 6)
    np.testing.assert_allclose(
        c2f_ensemble(outs, EnsembleWeights.uniform(6)).data, p, atol=1e-12
    )


def test_ensemble_rows_stay_normalized():
    rng = np.random.default_rng(2)
    outs = fake_outputs(random_stage_probs(rng, 20, 3, 4))
    mixed = c2f_ensemble(outs, EnsembleWeights.normalized(rng.random(4) + 0.1))
    np.testing.assert_allclose(mixed.data.sum(axis=1), 1.0, atol=1e-9)


def test_weight_count_mismatch_raises():
    outs = fake_outputs(random_stage_probs(np.random.default_rng(3), 5, 2, 3))
    with pytest.raises(ValueError):
        c2f_ensemble(outs, EnsembleWeights.uniform(4))


def test_positive_scaling_of_weights_keeps_argmax():
    rng = np.random.default_rng(4)
    outs = fake_outputs(random_stage_probs(rng, 30, 4, 3))
    raw = rng.random(3) + 0.05
    a = c2f_ensemble(outs, EnsembleWeights.normalized(raw)).data
    b = c2f_ensemble(outs, EnsembleWeights.normalized(raw * 7.0)).data
    np.testing.assert_array_equal(a.argmax(axis=1), b.argmax(axis=1))


# ---------------------------------------------------------------------------
# predict


def test_predict_basic_and_tie_rule():
    assert predict_labels(np.array([[0.2, 0.8]]))[0] == 1
    assert predict_labels(np.array([[0.5, 0.5]]))[0] == 0


def test_predict_matches_scan_oracle():
    rng = np.random.default_rng(5)
    probs = rng.random(size=(40, 6))
    got = predict_labels(probs)
    for t in range(40):
        best, best_k = -1.0, 0
        for k in range(6):
            if probs[t, k] > best:
                best, best_k = probs[t, k], k
        assert got[t] == best_k


# ---------------------------------------------------------------------------
# cross entropy


def test_ce_perfect_prediction_is_zero():
    y = np.array([0, 1, 2])
    p = np.eye(3)[y]
    assert abs(float(cross_entropy(Tensor(p), y).data)) < 1e-12


def test_ce_uniform_is_log_c():
    p = np.full((10, 4), 0.25)
    y = np.zeros(10, dtype=int)
    assert abs(float(cross_entropy(Tensor(p), y).data) - math.log(4)) < 1e-12


def test_ce_clamps_zero_probability():
    p = np.array([[1.0, 0.0]])
    val = float(cross_entropy(Tensor(p), np.array([1])).data)
    assert abs(val - (-math.log(PROB_FLOOR))) < 1e-9


def test_ce_label_validation():
    p = Tensor(np.full((4, 3), 1 / 3))
    with pytest.raises(ValueError):
        cross_entropy(p, np.array([0, 1, 2, 3]))
    with pytest.raises(ValueError):
        cross_entropy(p, np.array([0, -1, 2, 1]))
    with pytest.raises(ValueError):
        cross_entropy(p, np.array([0, 1]))


def test_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    raw = rng.random(size=(7, 4)) + 0.1
    y = rng.integers(0, 4, size=7)
    p = Tensor(raw, requires_grad=True)
    with Tape() as tape:
        tape.backward(cross_entropy(p, y))
    (num,) = finite_difference_gradient(
        lambda a: float(cross_entropy(Tensor(a), y).data), [raw]
    )
    err = np.abs(num - p.grad).max() / max(np.abs(num).max(), 1e-12)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# transition loss


def test_transition_constant_probs_zero():
    p = np.tile(np.array([[0.7, 0.2, 0.1]]), (8, 1))
    assert float(transition_loss(Tensor(p)).data) == 0.0


def test_transition_unit_gap_half():
    # single class, two frames, log-probability gap exactly 1
    p = np.array([[0.2], [0.2 * math.e]])
    assert abs(float(transition_loss(Tensor(p)).data) - 0.5) < 1e-12


def test_transition_clamp_at_eps_max():
    cfg = LossConfig(eps_max=4.0)
    p = np.array([[0.3], [0.3 * math.exp(10.0)]])
    # min(10, 4)^2 = 16, averaged over T=2 frames
    assert abs(float(transition_loss(Tensor(p), cfg).data) - 8.0) < 1e-9


def test_transition_needs_two_frames():
    with pytest.raises(ValueError):
        transition_loss(Tensor(np.array([[1.0]])))


def test_transition_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    raw = rng.random(size=(6, 3)) + 0.2
    p = Tensor(raw, requires_grad=True)
    with Tape() as tape:
        tape.backward(transition_loss(p))
    (num,) = finite_difference_gradient(
        lambda a: float(transition_loss(Tensor(a)).data), [raw]
    )
    err = np.abs(num - p.grad).max() / max(np.abs(num).max(), 1e-12)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# joint loss


def test_joint_reduces_to_ce_when_lambda_zero():
    rng = np.random.default_rng(8)
    p = random_stage_probs(rng, 12, 3, 1)[0]
    y = rng.integers(0, 3, size=12)
    cfg = LossConfig(lambda_tr=0.0)
    assert float(joint_loss(Tensor(p), y, cfg).data) == pytest.approx(
        float(cross_entropy(Tensor(p), y).data), abs=1e-12
    )


def test_joint_on_constant_probs_equals_ce():
    p = np.tile(np.array([[0.6, 0.4]]), (10, 1))
    y = np.zeros(10, dtype=int)
    assert float(joint_loss(Tensor(p), y).data) == pytest.approx(
        float(cross_entropy(Tensor(p), y).data), abs=1e-12
    )


def test_joint_matches_term_recombination():
    rng = np.random.default_rng(9)
    p = random_stage_probs(rng, 15, 4, 1)[0]
    y = rng.integers(0, 4, size=15)
    cfg = LossConfig(lambda_tr=0.3, eps_max=2.0)
    expect = float(cross_entropy(Tensor(p), y).data) + 0.3 * float(
        transition_loss(Tensor(p), cfg).data
    )
    assert float(joint_loss(Tensor(p), y, cfg).data) == pytest.approx(expect, abs=1e-12)


def test_joint_transition_can_be_disabled():
    rng = np.random.default_rng(10)
    p = random_stage_probs(rng, 8, 3, 1)[0]
    y = rng.integers(0, 3, size=8)
    cfg = LossConfig(transition=False, lambda_tr=0.5)
    assert float(joint_loss(Tensor(p), y, cfg).data) == pytest.approx(
        float(cross_entropy(Tensor(p), y).data), abs=1e-12
    )


# ---------------------------------------------------------------------------
# activity loss


def test_activity_loss_closed_forms():
    one_hot = np.zeros(5)
    one_hot[2] = 1.0
    assert abs(float(activity_loss(Tensor(one_hot), 2).data)) < 1e-12
    uniform = np.full(10, 0.1)
    assert abs(float(activity_loss(Tensor(uniform), 3).data) - math.log(10)) < 1e-12


def test_activity_loss_range_check():
    with pytest.raises(ValueError):
        activity_loss(Tensor(np.full(4, 0.25)), 4)
    with pytest.raises(ValueError):
        activity_loss(Tensor(np.full(4, 0.25)), -1)


# ---------------------------------------------------------------------------
# training loop


def toy_dataset(rng, n=6, t=40, f=4, c=3):
    clips = []
    for i in range(n):
        labels = np.repeat(rng.integers(0, c, size=4), t // 4)
        centers = np.eye(c, f) * 3.0
        feats = centers[labels] + 0.3 * rng.normal(size=(t, f))
        clips.append(VideoSample(vid=f"v{i}", features=feats, labels=labels,
                                 activity=int(i % 2), split="train"))
    return clips


def toy_model(seed=0, c=3, f=4, activities=0):
    cfg = ModelConfig(
        input_dim=f, num_classes=c, num_activities=activities, depth=2,
        encoder_channels=(6, 6, 6), decoder_channels=(6, 6), tpp_windows=(2,),
        activity_hidden=4,
    )
    return build_model(cfg, seed=seed)


def short_train(model, clips, seed=1, **kw):
    tc = TrainConfig(lr=3e-3, weight_decay=1e-4, epochs=8, batch_size=3, **kw)
    return train_supervised(model, clips, AugmentConfig(w0=2), LossConfig(), tc, seed=seed)


@pytest.mark.parametrize("bad", [dict(epochs=-1), dict(batch_size=0), dict(lr=0.0)])
def test_invalid_train_config_refused_when_built(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


def test_training_decreases_loss():
    rng = np.random.default_rng(11)
    clips = toy_dataset(rng)
    trace = short_train(toy_model(seed=1), clips)
    assert len(trace) == 8
    assert trace[-1].total < trace[0].total


class RecordingOptimizer:
    def __init__(self, name, log):
        self.name, self.log = name, log

    def step(self):
        self.log.append(("step", self.name))

    def zero_grad(self):
        self.log.append(("zero_grad", self.name))


def test_fit_steps_optimizers_in_order_and_returns_records_in_clip_order():
    log = []
    opts = [RecordingOptimizer("a", log), RecordingOptimizer("b", log)]
    w = Tensor(np.ones(1), requires_grad=True)
    items = list(range(7))

    def batch_loss(batch):
        log.append(("loss", tuple(batch)))
        return ad.reduce_sum(ad.mul(w, float(len(batch)))), list(batch)

    history = fit(items, opts, 2, 3, np.random.default_rng(8), batch_loss)
    rng = np.random.default_rng(8)
    for epoch in history:
        order = rng.permutation(len(items)).tolist()
        assert [len(b) for b in epoch] == [3, 3, 1]
        assert [i for b in epoch for i in b] == order
    per_batch = [("step", "a"), ("step", "b"), ("zero_grad", "a"), ("zero_grad", "b")]
    batches = [b for epoch in history for b in epoch]
    assert log == [e for b in batches for e in [("loss", tuple(b))] + per_batch]
    assert w.grad is not None  # backward ran; the fake optimizers never clear


def test_training_is_deterministic():
    rng = np.random.default_rng(12)
    clips = toy_dataset(rng)
    m1, m2 = toy_model(seed=2), toy_model(seed=2)
    t1 = short_train(m1, clips, seed=5)
    t2 = short_train(m2, clips, seed=5)
    assert [(r.epoch, r.total) for r in t1] == [(r.epoch, r.total) for r in t2]
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2 and p1.data.tobytes() == p2.data.tobytes()


def test_training_empty_dataset_raises():
    with pytest.raises(ValueError):
        short_train(toy_model(), [])


def test_per_layer_loss_path_trains():
    rng = np.random.default_rng(15)
    clips = toy_dataset(rng)
    trace = short_train(toy_model(seed=5), clips, loss_per_layer=True)
    assert np.isfinite(trace[-1].total)
    # attaching extra per-stage terms raises the reported total
    base = short_train(toy_model(seed=5), toy_dataset(np.random.default_rng(15)))
    assert trace[0].total > base[0].total


def test_activity_auxiliary_term_trains_activity_head():
    rng = np.random.default_rng(16)
    clips = toy_dataset(rng)
    model = toy_model(seed=6, activities=2)
    before = model.activity_head.w1.data.copy()
    short_train(model, clips, activity_weight=0.5)
    assert not np.array_equal(before, model.activity_head.w1.data)


def test_augmentation_disabled_still_converges():
    rng = np.random.default_rng(17)
    clips = toy_dataset(rng)
    model = toy_model(seed=7)
    tc = TrainConfig(lr=3e-3, weight_decay=1e-4, epochs=8, batch_size=3)
    trace = train_supervised(model, clips, AugmentConfig(enabled=False),
                             LossConfig(), tc, seed=9)
    assert trace[-1].total < trace[0].total

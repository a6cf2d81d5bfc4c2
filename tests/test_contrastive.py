"""Clustering, frame sampling, pair-set construction, and the NCE objective.

``oracle_sets`` is the literal double-loop transcription of the pairing
rule (same activity + same label + temporally close => positive;
different activity, or same activity with a different label => negative;
close-in-label-but-far-in-time => neither) and is kept deliberately
independent of the vectorized implementation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from c2fseg.augment import AugmentConfig
from c2fseg.autodiff import Tape, Tensor
from c2fseg.contrastive import (
    ContrastConfig,
    ContrastTrainConfig,
    LinearEvalConfig,
    PosNegSets,
    SampledFrames,
    build_sets,
    contrastive_loss,
    kmeans,
    linear_eval,
    pretrain_unsupervised,
    run_contrast_training,
    sample_frames,
)
from c2fseg.data import VideoSample
from c2fseg.errors import NumericsError
from c2fseg.model import ModelConfig, build_model
from c2fseg.profiles import PROFILES
from c2fseg.seeding import substream

from oracles import frame_contrast_probabilities


# ---------------------------------------------------------------------------
# config validation


def test_default_epsilon_is_third_of_partition():
    cfg = ContrastConfig(K=12)
    assert cfg.eps == pytest.approx(1.0 / 36.0)


@pytest.mark.parametrize(
    "bad",
    [
        dict(K=0),
        dict(tau=0.0),
        dict(delta=0.0),
        dict(delta=1.5),
        dict(epsilon=0.0),
        dict(K=10, epsilon=0.2),  # >= 1/K
        dict(num_clusters=1),
    ],
)
def test_invalid_contrast_config_rejected(bad):
    with pytest.raises(ValueError):
        ContrastConfig(**bad)


@pytest.mark.parametrize("cls,bad", [
    (ContrastTrainConfig, dict(epochs=-2)),
    (ContrastTrainConfig, dict(lr=0.0)),
    (ContrastTrainConfig, dict(batch_size=0)),
    (LinearEvalConfig, dict(epochs=-1)),
    (LinearEvalConfig, dict(lr=-1.0)),
], ids=lambda v: getattr(v, "__name__", None) or str(v))
def test_invalid_schedule_config_refused_when_built(cls, bad):
    with pytest.raises(ValueError):
        cls(**bad)


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_single_cluster_center_is_mean():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    assign, centers = kmeans(x, 1, substream(0, "km"))
    assert np.all(assign == 0)
    np.testing.assert_allclose(centers[0], x.mean(axis=0), atol=1e-12)


def test_kmeans_separable_blobs_recovered_exactly():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(30, 4)) * 0.1 + np.array([10.0, 0, 0, 0])
    b = rng.normal(size=(25, 4)) * 0.1 - np.array([10.0, 0, 0, 0])
    x = np.concatenate([a, b])
    truth = np.array([0] * 30 + [1] * 25)
    assign, _ = kmeans(x, 2, substream(1, "km"))
    # cluster ids are arbitrary; compare up to relabeling
    agree = max((assign == truth).mean(), (assign == 1 - truth).mean())
    assert agree == 1.0


def test_kmeans_fixpoint_consistency():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 5))
    assign, centers = kmeans(x, 4, substream(2, "km"))
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(assign, d2.argmin(axis=1))
    for c in range(4):
        members = assign == c
        assert members.any()
        np.testing.assert_allclose(centers[c], x[members].mean(axis=0), atol=1e-9)


def test_kmeans_every_cluster_nonempty_under_duplicates():
    x = np.zeros((10, 2))
    x[:5] = 1.0
    assign, _ = kmeans(x, 3, substream(3, "km"))
    assert len(set(assign.tolist())) == 3


def test_kmeans_input_validation():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4, substream(4, "km"))
    with pytest.raises(ValueError):
        kmeans(np.zeros((0, 2)), 1, substream(4, "km"))
    with pytest.raises(ValueError):
        kmeans(np.zeros(5), 1, substream(4, "km"))


def test_kmeans_deterministic_per_stream():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 3))
    a1, c1 = kmeans(x, 5, substream(6, "km"))
    a2, c2 = kmeans(x, 5, substream(6, "km"))
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(c1, c2)


def test_default_cluster_count_is_twice_num_classes():
    # reference profile ties k to 2C
    p = PROFILES["synthetic"]
    assert p["num_clusters"] == 2 * p["num_classes"]


# ---------------------------------------------------------------------------
# frame sampling


def test_sample_frames_partition_and_companion_structure():
    cfg = ContrastConfig(K=8)
    rng = substream(7, "sample")
    for _ in range(50):
        sf = sample_frames(200, cfg, rng)
        assert sf.times.shape == sf.frames.shape == (16,)
        base, comp = sf.times[:8], sf.times[8:]
        for i in range(8):
            assert i / 8 <= base[i] < (i + 1) / 8
            assert abs(comp[i] - base[i]) <= cfg.eps + 1e-12
        assert np.all((sf.times >= 0) & (sf.times <= 1))
        assert np.all((sf.frames >= 0) & (sf.frames < 200))


def test_sample_frames_count_matches_salads_style_profile():
    k = 60  # the 50Salads setting in the README
    sf = sample_frames(600, ContrastConfig(K=k), substream(8, "sample"))
    assert len(sf.times) == 2 * k == 120


def test_sample_frames_short_clip_raises():
    with pytest.raises(ValueError):
        sample_frames(5, ContrastConfig(K=8), substream(9, "sample"))


def test_sample_frames_indices_follow_times():
    cfg = ContrastConfig(K=4)
    sf = sample_frames(37, cfg, substream(10, "sample"))
    np.testing.assert_array_equal(
        sf.frames, np.minimum((sf.times * 37).astype(np.int64), 36)
    )


# ---------------------------------------------------------------------------
# positive/negative sets vs. the double-loop oracle


def oracle_sets(samples, labels, activities, delta, use_video_level=True):
    times = np.concatenate([s.times for s in samples])
    labs = np.concatenate(labels)
    acts = np.concatenate(
        [np.full(len(s.times), activities[i]) for i, s in enumerate(samples)]
    )
    n = len(times)
    pos = [[] for _ in range(n)]
    neg = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            same_act = (acts[a] == acts[b]) or not use_video_level
            if same_act and labs[a] == labs[b] and abs(times[a] - times[b]) < delta:
                pos[a].append(b)
            elif (not same_act) or labs[a] != labs[b]:
                neg[a].append(b)
    return pos, neg


def random_batch(rng, clips=3, k=3):
    cfg = ContrastConfig(K=k, delta=float(rng.uniform(0.05, 0.4)))
    samples, labels = [], []
    for _ in range(clips):
        sf = sample_frames(int(rng.integers(3 * k, 60)), cfg, rng)
        samples.append(sf)
        labels.append(rng.integers(0, 3, size=2 * k))
    activities = rng.integers(0, 2, size=clips).tolist()
    return cfg, samples, labels, activities
def assert_sets_match_oracle(cfg, samples, labels, activities, use_video_level):
    got = build_sets(samples, labels, activities, cfg.delta, use_video_level)
    want_pos, want_neg = oracle_sets(samples, labels, activities, cfg.delta,
                                     use_video_level)
    assert got.pos.shape == got.neg.shape == (len(want_pos), len(want_pos))
    for a in range(len(want_pos)):
        assert np.flatnonzero(got.pos[a]).tolist() == want_pos[a]
        assert np.flatnonzero(got.neg[a]).tolist() == want_neg[a]


def test_build_sets_matches_oracle_200_batches():
    rng = np.random.default_rng(11)
    for i in range(200):
        cfg, samples, labels, acts = random_batch(rng)
        assert_sets_match_oracle(cfg, samples, labels, acts, i % 2 == 0)


def test_build_sets_hand_cases():
    mk = lambda t: SampledFrames(times=np.array([t]), frames=np.array([0]))
    # same cluster, dt=0.01 < delta=0.03, same activity -> positive
    s = build_sets([mk(0.50), mk(0.51)], [np.array([4]), np.array([4])],
                   [1, 1], delta=0.03)
    assert np.flatnonzero(s.pos[0]).tolist() == [1]
    assert np.flatnonzero(s.neg[0]).tolist() == []
    # different activities -> negative regardless of cluster or distance
    s = build_sets([mk(0.50), mk(0.51)], [np.array([4]), np.array([4])],
                   [1, 2], delta=0.03)
    assert np.flatnonzero(s.pos[0]).tolist() == []
    assert np.flatnonzero(s.neg[0]).tolist() == [1]
    # same cluster but dt=0.1 > delta -> neither set
    s = build_sets([mk(0.45), mk(0.55)], [np.array([4]), np.array([4])],
                   [1, 1], delta=0.03)
    assert np.flatnonzero(s.pos[0]).tolist() == []
    assert np.flatnonzero(s.neg[0]).tolist() == []


def test_build_sets_disjoint_and_anchor_free():
    rng = np.random.default_rng(12)
    cfg, samples, labels, acts = random_batch(rng, clips=4, k=4)
    s = build_sets(samples, labels, acts, cfg.delta)
    assert not (s.pos & s.neg).any()
    assert not np.diagonal(s.pos | s.neg).any()


def test_build_sets_cross_activity_always_negative():
    rng = np.random.default_rng(13)
    cfg, samples, labels, _ = random_batch(rng, clips=3, k=3)
    acts = [0, 1, 2]
    s = build_sets(samples, labels, acts, cfg.delta)
    clip_of = np.repeat(np.arange(len(samples)), [len(sf.times) for sf in samples])
    cross = clip_of[:, None] != clip_of[None, :]
    assert s.neg[cross].all()


def test_total_positive_pairs_counter():
    mk = lambda t: SampledFrames(times=np.array([t]), frames=np.array([0]))
    s = build_sets([mk(0.1), mk(0.11), mk(0.12)],
                   [np.array([0])] * 3, [0, 0, 0], delta=0.05)
    assert s.total_positive_pairs == 6


# ---------------------------------------------------------------------------
# contrastive probabilities and loss


def test_contrast_probability_empty_negatives_is_one():
    rows = np.random.default_rng(14).normal(size=(2, 5))
    sets = PosNegSets(pos=~np.eye(2, dtype=bool), neg=np.zeros((2, 2), dtype=bool))
    probs = frame_contrast_probabilities(rows, sets, tau=0.1)
    assert probs[0][0] == pytest.approx(1.0)


def test_contrast_probability_identical_rows_half():
    rows = np.tile(np.random.default_rng(15).normal(size=(1, 4)), (3, 1))
    sets = PosNegSets(pos=np.array([[False, True, False]]),
                      neg=np.array([[False, False, True]]))
    probs = frame_contrast_probabilities(rows[:3], sets, tau=0.1)
    # exp(1/tau) / (exp(1/tau) + exp(1/tau))
    assert probs[0][0] == pytest.approx(0.5, abs=1e-12)


def batch_for_loss(rng, clips=3, k=2, d=6):
    cfg = ContrastConfig(K=k, delta=0.3, num_clusters=2)
    feats, samples, labels = [], [], []
    for _ in range(clips):
        t = int(rng.integers(2 * k, 20))
        feats.append(Tensor(rng.normal(size=(t, d)), requires_grad=True))
        samples.append(sample_frames(t, cfg, rng))
        labels.append(rng.integers(0, 2, size=2 * k))
    activities = [0, 0, 1][:clips]
    return cfg, feats, samples, labels, activities


def test_contrastive_loss_matches_manual_recomputation():
    rng = np.random.default_rng(16)
    cfg, feats, samples, labels, acts = batch_for_loss(rng)
    cfg = ContrastConfig(K=cfg.K, delta=cfg.delta, num_clusters=2,
                         use_video_level=False)
    loss = float(contrastive_loss(feats, samples, labels, acts, cfg).data)

    sets = build_sets(samples, labels, acts, cfg.delta, use_video_level=False)
    rows = np.concatenate(
        [f.data[s.frames] for f, s in zip(feats, samples)], axis=0
    )
    probs = frame_contrast_probabilities(rows, sets, cfg.tau)
    terms = [-math.log(p) for anchor in probs for p in anchor]
    assert loss == pytest.approx(sum(terms) / len(terms), rel=1e-9)


def test_contrastive_loss_video_term_added_when_activities_differ():
    rng = np.random.default_rng(17)
    cfg, feats, samples, labels, acts = batch_for_loss(rng, clips=3)
    base = ContrastConfig(K=cfg.K, delta=cfg.delta, num_clusters=2,
                          use_video_level=False)
    with_video = ContrastConfig(K=cfg.K, delta=cfg.delta, num_clusters=2,
                                use_video_level=True)
    # same-activity labels everywhere so the frame term is unchanged
    l_frame = float(contrastive_loss(feats, samples, labels, [0, 0, 0], base).data)
    l_plain = float(contrastive_loss(feats, samples, labels, [0, 0, 0],
                                     with_video).data)
    # single-activity batch: video term skipped, losses coincide
    assert l_plain == pytest.approx(l_frame, rel=1e-12)
    # mixed activities: strictly positive video NCE term is added
    l_mixed = float(contrastive_loss(feats, samples, labels, acts,
                                     with_video).data)
    sets = build_sets(samples, labels, acts, cfg.delta, use_video_level=True)
    assert sets.total_positive_pairs > 0
    rows = np.concatenate([f.data[s.frames] for f, s in zip(feats, samples)])
    probs = frame_contrast_probabilities(rows, sets, cfg.tau)
    frame_part = np.mean([-math.log(p) for anchor in probs for p in anchor])
    assert l_mixed > frame_part


def test_contrastive_loss_no_positives_raises():
    cfg = ContrastConfig(K=1, delta=0.001, num_clusters=2, epsilon=0.05,
                         use_video_level=False)
    rng = np.random.default_rng(18)
    feats = [Tensor(rng.normal(size=(10, 4)))]
    sf = SampledFrames(times=np.array([0.1, 0.9]), frames=np.array([1, 8]))
    with pytest.raises(NumericsError):
        contrastive_loss(feats, [sf], [np.array([0, 1])], [0], cfg)


def test_contrastive_loss_zero_norm_feature_is_finite():
    cfg = ContrastConfig(K=1, delta=0.5, num_clusters=2, use_video_level=False)
    x = np.random.default_rng(23).normal(size=(10, 4))
    x[1] = 0.0  # a dead frame
    feats = [Tensor(x, requires_grad=True)]
    sf = SampledFrames(times=np.array([0.1, 0.12, 0.7]), frames=np.array([1, 3, 5]))
    with Tape() as tape:
        loss = contrastive_loss(feats, [sf], [np.array([0, 0, 1])], [0], cfg)
        tape.backward(loss)
    # the zero row has similarity 0 to every row, so each anchor's terms
    # have a closed form: anchor 0 -> log 2, anchor 1 -> log(1 + e^{s12/tau})
    s12 = x[3] @ x[5] / (np.linalg.norm(x[3]) * np.linalg.norm(x[5]))
    expect = (math.log(2.0) + math.log1p(math.exp(s12 / cfg.tau))) / 2.0
    assert float(loss.data) == pytest.approx(expect, rel=1e-12)
    assert np.all(np.isfinite(feats[0].grad))


def test_contrastive_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    cfg, feats, samples, labels, acts = batch_for_loss(rng, clips=2, d=4)
    with Tape() as tape:
        tape.backward(contrastive_loss(feats, samples, labels, acts, cfg))
    f0 = feats[0]
    assert f0.grad is not None

    def value(arr):
        stand_in = [Tensor(arr)] + feats[1:]
        return float(contrastive_loss(stand_in, samples, labels, acts, cfg).data)

    step = 1e-6
    for idx in [(0, 0), (2, 3), (5, 1)]:
        keep = f0.data[idx]
        f0.data[idx] = keep + step
        hi = value(f0.data)
        f0.data[idx] = keep - step
        lo = value(f0.data)
        f0.data[idx] = keep
        num = (hi - lo) / (2 * step)
        rel = abs(num - f0.grad[idx]) / max(abs(num), abs(f0.grad[idx]), 1e-9)
        assert rel < 1e-3, (idx, num, f0.grad[idx])


# ---------------------------------------------------------------------------
# training passes


def tiny_model(seed=1, f=6, c=3, activities=2):
    # 12-channel stages: narrower decoders go fully dark (all-zero relu
    # rows) for many random inits, which the feature normalizer rejects
    cfg = ModelConfig(
        input_dim=f, num_classes=c, num_activities=activities, depth=2,
        encoder_channels=(12, 12, 12), decoder_channels=(12, 12),
        tpp_windows=(2,), activity_hidden=4,
    )
    return build_model(cfg, seed=seed)


def tiny_clips(rng, n=4, t=24, f=6):
    out = []
    for i in range(n):
        labels = np.repeat(rng.integers(0, 3, size=3), t // 3)
        feats = np.eye(3, f)[labels] * 2.0 + 0.2 * rng.normal(size=(t, f))
        out.append(VideoSample(vid=f"v{i}", features=feats, labels=labels,
                               activity=int(i % 2), split="train"))
    return out


CONTRAST_SMOKE = ContrastConfig(K=3, delta=0.3, num_clusters=2)
AUG_OFF = AugmentConfig(enabled=False)


def test_pretrain_updates_backbone_only():
    rng = np.random.default_rng(20)
    model = tiny_model(seed=1)
    clips = tiny_clips(rng)
    head_before = [w.data.copy() for w in model.heads.parameters()]
    backbone_before = [t.data.copy() for t in model.backbone_parameters()]
    losses = pretrain_unsupervised(
        model, clips, CONTRAST_SMOKE, AUG_OFF,
        ContrastTrainConfig(lr=1e-3, epochs=2, batch_size=4), seed=3,
    )
    assert len(losses) == 2 and all(np.isfinite(l) for l in losses)
    assert all(
        np.array_equal(a, w.data)
        for a, w in zip(head_before, model.heads.parameters())
    )
    assert any(
        not np.array_equal(a, t.data)
        for a, t in zip(backbone_before, model.backbone_parameters())
    )


def test_contrast_training_with_labels_runs_and_is_deterministic():
    clips = tiny_clips(np.random.default_rng(21))
    l1 = run_contrast_training(
        tiny_model(seed=2), clips, CONTRAST_SMOKE, AUG_OFF,
        ContrastTrainConfig(lr=1e-3, epochs=2, batch_size=4), seed=5,
    )
    l2 = run_contrast_training(
        tiny_model(seed=2), clips, CONTRAST_SMOKE, AUG_OFF,
        ContrastTrainConfig(lr=1e-3, epochs=2, batch_size=4), seed=5,
    )
    assert l1 == l2


def test_contrast_training_refuses_labelled_and_label_free_clips_together():
    clips = tiny_clips(np.random.default_rng(21))
    clips[1] = replace(clips[1], labels=None)
    with pytest.raises(ValueError, match="1 of 4 clips have no labels"):
        run_contrast_training(
            tiny_model(seed=2), clips, CONTRAST_SMOKE, AUG_OFF,
            ContrastTrainConfig(lr=1e-3, epochs=1, batch_size=4), seed=5,
        )


def test_contrast_training_empty_raises():
    with pytest.raises(ValueError):
        run_contrast_training(
            tiny_model(seed=3), [], CONTRAST_SMOKE, AUG_OFF,
            ContrastTrainConfig(epochs=1), seed=1,
        )


# ---------------------------------------------------------------------------
# linear probe


def separable_clips(rng, n, t=30, f=5, c=3, noise=0.1):
    out = []
    for i in range(n):
        labels = np.repeat(rng.integers(0, c, size=3), t // 3)
        feats = np.eye(c, f)[labels] * 4.0 + noise * rng.normal(size=(t, f))
        out.append(VideoSample(vid=f"v{i}", features=feats, labels=labels,
                               activity=0, split="train"))
    return out


def test_linear_eval_raw_solves_separable_data():
    rng = np.random.default_rng(22)
    train = separable_clips(rng, 8)
    test = separable_clips(rng, 4)
    rep = linear_eval(None, train, test, num_classes=3, raw=True,
                      cfg=LinearEvalConfig(epochs=150))
    assert rep.mof > 95.0


def test_linear_eval_deterministic():
    rng = np.random.default_rng(23)
    train = separable_clips(rng, 6)
    test = separable_clips(rng, 3)
    r1 = linear_eval(None, train, test, 3, raw=True,
                     cfg=LinearEvalConfig(epochs=50))
    r2 = linear_eval(None, train, test, 3, raw=True,
                     cfg=LinearEvalConfig(epochs=50))
    assert r1.mof == r2.mof and r1.edit == r2.edit


def test_linear_eval_model_features_trainable():
    rng = np.random.default_rng(24)
    model = tiny_model(seed=4, f=5)
    train = separable_clips(rng, 6)
    test = separable_clips(rng, 3)
    rep = linear_eval(model, train, test, 3, cfg=LinearEvalConfig(epochs=50))
    assert 0.0 <= rep.mof <= 100.0
    assert rep.frames == sum(len(c.labels) for c in test)

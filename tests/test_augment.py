"""Temporal augmentation tests: window distribution, pooling oracles, TTA."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2fseg.augment import (AugmentConfig, pool_features, pool_labels,
                            sample_window, stable_window, tta_predict,
                            window_support)
from c2fseg.inference import predict_probs_window
from c2fseg.model import ModelConfig, build_model
from c2fseg.seeding import substream

from oracles import window_probabilities


def oracle_pool_features(v, w):
    rows = []
    for start in range(0, len(v), w):
        rows.append(np.max(v[start:start + w], axis=0))
    return np.stack(rows)


def oracle_pool_labels(y, w):
    out = []
    for start in range(0, len(y), w):
        window = list(y[start:start + w])
        counts = {}
        for lab in window:
            counts[lab] = counts.get(lab, 0) + 1
        top = max(counts.values())
        out.append(min(lab for lab, c in counts.items() if c == top))
    return np.array(out)


# ---------------------------------------------------------------------------
# Window distribution
# ---------------------------------------------------------------------------

def test_support_endpoints():
    assert window_support(10).tolist() == list(range(5, 21))
    assert window_support(4).tolist() == list(range(2, 9))


def test_probabilities_sum_to_one():
    for w0 in (2, 4, 10, 20):
        probs = window_probabilities(AugmentConfig(w0=w0))
        assert np.isclose(probs.sum(), 1.0)
        support = window_support(w0)
        assert np.isclose(probs[support == w0], 0.5)


def test_sampler_matches_declared_distribution():
    cfg = AugmentConfig(w0=10)
    rng = np.random.default_rng(42)
    draws = np.array([sample_window(cfg, rng) for _ in range(100_000)])
    assert draws.min() >= 5 and draws.max() <= 20
    assert set(np.unique(draws)) == set(range(5, 21))
    freq = (draws == 10).mean()
    assert abs(freq - 0.5) < 0.01
    # the off-base mass is uniform over the other 15 windows
    for w in (5, 7, 20):
        assert abs((draws == w).mean() - 0.5 / 15) < 0.01


def test_sampler_pi0_one_always_returns_base():
    cfg = AugmentConfig(w0=6, pi0=1.0)
    rng = np.random.default_rng(0)
    assert all(sample_window(cfg, rng) == 6 for _ in range(200))


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(w0=1).validate()
    with pytest.raises(ValueError):
        AugmentConfig(pi0=0.0).validate()
    with pytest.raises(ValueError):
        AugmentConfig(pi0=1.2).validate()
    with pytest.raises(ValueError):
        AugmentConfig(tta_samples=0).validate()


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def test_pool_features_hand_cases():
    v = np.array([[1.0], [3.0], [2.0], [5.0]])
    assert np.array_equal(pool_features(v, 2), [[3.0], [5.0]])
    assert np.array_equal(pool_features(v, 1), v)
    v5 = np.arange(10.0).reshape(5, 2)
    out = pool_features(v5, 2)
    assert out.shape == (3, 2)
    assert np.array_equal(out[-1], v5[4])


def test_pool_features_negative_values_survive_padding():
    # the ragged final window must not leak the -inf padding
    v = np.array([[-5.0], [-7.0], [-9.0]])
    assert np.array_equal(pool_features(v, 2), [[-5.0], [-9.0]])


def test_pool_labels_hand_cases():
    assert pool_labels(np.array([0, 0, 1, 1]), 2).tolist() == [0, 1]
    assert pool_labels(np.array([0, 1]), 2).tolist() == [0]       # tie -> smaller id
    assert pool_labels(np.array([2, 1]), 2).tolist() == [1]
    y = np.array([3, 1, 2])
    assert np.array_equal(pool_labels(y, 1), y)


def test_pool_window_out_of_range():
    with pytest.raises(ValueError):
        pool_features(np.zeros((4, 2)), 5)
    with pytest.raises(ValueError):
        pool_labels(np.zeros(4, dtype=int), 5)
    with pytest.raises(ValueError):
        pool_features(np.zeros((4, 2)), 0)


def test_pooling_matches_oracles_on_random_cases():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        t = int(rng.integers(1, 40))
        w = int(rng.integers(1, t + 1))
        v = rng.normal(size=(t, int(rng.integers(1, 5))))
        y = rng.integers(6, size=t)
        assert np.array_equal(pool_features(v, w), oracle_pool_features(v, w))
        assert np.array_equal(pool_labels(y, w), oracle_pool_labels(y, w))


def test_pool_then_one_equals_pool():
    rng = np.random.default_rng(12)
    v = rng.normal(size=(17, 3))
    pooled = pool_features(v, 4)
    assert np.array_equal(pool_features(pooled, 1), pooled)


@given(st.integers(1, 30), st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_constant_rows_pool_to_themselves(t, f, seed):
    rng = np.random.default_rng(seed)
    row = rng.normal(size=f)
    v = np.tile(row, (t, 1))
    w = int(rng.integers(1, t + 1))
    out = pool_features(v, w)
    assert np.allclose(out, row)


@given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_label_pooling_boundary_error_bound(w, nseg, seed):
    """Majority-pooled labels, nearest-upsampled back, disagree with the
    original only near boundaries: >= 1 - segments*(w-1)/T agreement when
    every segment is longer than w."""
    rng = np.random.default_rng(seed)
    seglens = rng.integers(w + 1, 4 * w + 1, size=nseg)
    labels, lab = [], 0
    for length in seglens:
        lab = (lab + 1 + int(rng.integers(3))) % 5
        labels.extend([lab] * int(length))
    y = np.array(labels)
    t = len(y)
    pooled = pool_labels(y, w)
    src = np.minimum((np.arange(t) * len(pooled)) // t, len(pooled) - 1)
    agreement = (pooled[src] == y).mean()
    assert agreement >= 1.0 - nseg * (w - 1) / t


# ---------------------------------------------------------------------------
# Stability clamp
# ---------------------------------------------------------------------------

def test_stable_window_hand_cases():
    # 256 frames, 6 halvings: ceil(256/4) = 64 = 2^6 collapses the bottleneck
    # to one frame, so 4 shrinks to 3 (ceil(256/3) = 86 survives)
    assert stable_window(4, 256, 6) == 3
    assert stable_window(10, 256, 6) == 3
    assert stable_window(2, 256, 6) == 2   # 128 frames pooled: already safe
    assert stable_window(4, 260, 6) == 4   # ceil(260/4) = 65 > 64
    assert stable_window(1, 50, 6) == 1    # never below 1


def test_stable_window_degenerate_clip_returns_one():
    # a clip shorter than 2^depth cannot be rescued by any window
    assert stable_window(8, 60, 6) == 1
    assert stable_window(3, 4, 2) == 1


@given(st.integers(1, 40), st.integers(1, 600), st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_stable_window_is_maximal_safe_window(w, t, depth):
    out = stable_window(w, t, depth)
    assert 1 <= out <= w
    if out > 1:
        assert -(-t // out) > 2 ** depth          # safe ...
    if out < w:
        assert -(-t // (out + 1)) <= 2 ** depth   # ... and maximal


def test_tta_clamps_unsafe_draws():
    """On a clip too short for the sampled window, TTA must fall back to the
    largest safe window instead of feeding a collapsed clip to the model."""
    cfg_m = ModelConfig(input_dim=4, num_classes=3, num_activities=0, depth=2,
                        encoder_channels=(6, 6, 6), decoder_channels=(6, 6),
                        tpp_windows=(2,))
    model = build_model(cfg_m, seed=9)
    rng = np.random.default_rng(8)
    v = rng.normal(size=(8, 4))  # ceil(8/2) = 4 = 2^2: w=2 is unsafe here
    cfg = AugmentConfig(w0=2, pi0=1.0, tta_samples=1)
    clamped = tta_predict(model, v, cfg, substream(3, "tta"))
    assert np.allclose(clamped, predict_probs_window(model, v, 1), atol=1e-12)


# ---------------------------------------------------------------------------
# Test-time augmentation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_model():
    cfg = ModelConfig(input_dim=4, num_classes=3, num_activities=0, depth=2,
                      encoder_channels=(6, 6, 6), decoder_channels=(6, 6),
                      tpp_windows=(2,))
    return build_model(cfg, seed=5)


def test_tta_rows_sum_to_one(tiny_model):
    rng = np.random.default_rng(3)
    v = rng.normal(size=(21, 4))
    probs = tta_predict(tiny_model, v, AugmentConfig(w0=2, tta_samples=4),
                        substream(0, "tta"))
    assert probs.shape == (21, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(probs >= 0.0)


def test_tta_single_sample_forced_base_window(tiny_model):
    rng = np.random.default_rng(4)
    v = rng.normal(size=(18, 4))
    cfg = AugmentConfig(w0=2, pi0=1.0, tta_samples=1)  # pi0=1 pins w=w0
    via_tta = tta_predict(tiny_model, v, cfg, substream(1, "tta"))
    plain = predict_probs_window(tiny_model, v, 2)
    assert np.allclose(via_tta, plain, atol=1e-12)


def test_tta_converges_to_exhaustive_expectation():
    """w0=2 has support {1,2,3,4}; the MC average must approach the exact
    mixture sum_w pi(w) * prediction(w)."""
    cfg_m = ModelConfig(input_dim=2, num_classes=2, num_activities=0, depth=1,
                        encoder_channels=(3, 3), decoder_channels=(3,),
                        tpp_windows=(2,))
    model = build_model(cfg_m, seed=6)
    rng = np.random.default_rng(5)
    v = rng.normal(size=(12, 2))
    cfg = AugmentConfig(w0=2, tta_samples=10_000)
    probs = window_probabilities(cfg)
    exact = sum(p * predict_probs_window(model, v, int(w))
                for w, p in zip(window_support(2), probs))
    mc = tta_predict(model, v, cfg, substream(2, "tta"))
    l1 = np.abs(mc - exact).sum(axis=1)
    assert l1.max() <= 0.02

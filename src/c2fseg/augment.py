"""Stochastic temporal downsampling used for training and test-time averaging.

A window size ``w`` is drawn from a spiked distribution centered on a base
window ``w0``: the base is kept with probability ``pi0`` and otherwise the
draw is uniform over {floor(w0/2), ..., 2*w0} \\ {w0}.  Features are then
max-pooled with that window, labels majority-pooled, which shortens every
sequence by roughly ``w`` while keeping segment structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AugmentConfig:
    enabled: bool = True
    w0: int = 10
    pi0: float = 0.5
    tta_samples: int = 5

    def validate(self) -> None:
        if self.w0 < 2:
            raise ValueError(f"base window must be >= 2, got {self.w0}")
        if not (0.0 < self.pi0 <= 1.0):
            raise ValueError(f"pi0 must lie in (0, 1], got {self.pi0}")
        if self.tta_samples < 1:
            raise ValueError("tta_samples must be >= 1")


def window_support(w0: int) -> np.ndarray:
    """All window sizes the sampler can produce, ascending."""
    return np.arange(w0 // 2, 2 * w0 + 1)


def sample_window(cfg: AugmentConfig, rng: np.random.Generator) -> int:
    cfg.validate()
    if rng.random() < cfg.pi0:
        return cfg.w0
    support = window_support(cfg.w0)
    others = support[support != cfg.w0]
    return int(others[rng.integers(len(others))])


def stable_window(w: int, t: int, depth: int) -> int:
    """Largest window <= ``w`` whose pooled length survives ``depth`` halvings
    with at least two frames left.

    A pooled clip of <= 2**depth frames collapses the deepest stage to a
    single frame, where per-clip normalization degenerates (variance zero,
    output pinned to the shift parameter), so such draws are shrunk.
    """
    while w > 1 and -(-t // w) <= 2 ** depth:
        w -= 1
    return w


def pool_features(v: np.ndarray, w: int) -> np.ndarray:
    """Max-pool [T, F] features over non-overlapping windows of size ``w``.

    The final window may be partial, so the output has ceil(T/w) rows.
    """
    v = np.asarray(v)
    t = v.shape[0]
    if not 1 <= w <= t:
        raise ValueError(f"window {w} out of range for length {t}")
    out_len = -(-t // w)
    pad_rows = out_len * w - t
    if pad_rows:
        v = np.concatenate([v, np.full((pad_rows, v.shape[1]), -np.inf)], axis=0)
    return v.reshape(out_len, w, v.shape[1]).max(axis=1)


def pool_labels(y: np.ndarray, w: int) -> np.ndarray:
    """Majority label per window; ties resolve to the smallest class id."""
    y = np.asarray(y, dtype=np.int64)
    t = y.shape[0]
    if not 1 <= w <= t:
        raise ValueError(f"window {w} out of range for length {t}")
    out_len = -(-t // w)
    out = np.empty(out_len, dtype=np.int64)
    for i in range(out_len):
        votes = np.bincount(y[i * w:min((i + 1) * w, t)])
        out[i] = votes.argmax()  # argmax returns the first (smallest) winner
    return out


def tta_predict(model, v: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator,
                alpha=None, heads=None) -> np.ndarray:
    """Monte-Carlo average of full-length ensemble predictions over window draws."""
    # inference imports this module; the late import breaks the cycle.  It stays
    # until tta_predict moves to inference, which the benchmark's layer trace
    # blocks: it wraps augment.tta_predict by that name.
    from .inference import predict_probs_window

    cfg.validate()
    t = np.asarray(v).shape[0]
    acc = None
    for _ in range(cfg.tta_samples):
        w = stable_window(sample_window(cfg, rng), t, model.cfg.depth)
        probs = predict_probs_window(model, v, w, alpha=alpha, heads=heads)
        acc = probs if acc is None else acc + probs
    return acc / cfg.tta_samples

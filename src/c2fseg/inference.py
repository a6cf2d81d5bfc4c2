"""Shared prediction paths: single-window inference, dataset evaluation.

All predictions are upsampled back to the original clip length before any
metric touches them, so scores are always comparable across window
choices and augmentation settings.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig, pool_features, stable_window, tta_predict
from .metrics import SegReport, calibration, wrong_prediction_entropy
from .model import Model, ProjectionHeads
from .seeding import substream
from .supervised import EnsembleWeights, c2f_ensemble, predict_labels


def _full_length_probs(model: Model, p, t: int) -> np.ndarray:
    if p.shape[0] == t:
        return p.data
    up = ad.upsample1d(ad.transpose2d(p), t, model.cfg.upsample_mode)
    return ad.transpose2d(up).data


def predict_probs_window(model: Model, v: np.ndarray, w: int,
                         alpha: EnsembleWeights | None = None,
                         heads: ProjectionHeads | None = None) -> np.ndarray:
    """Ensemble probabilities [T, C] after pooling with a fixed window."""
    v = np.asarray(v)
    t = v.shape[0]
    pooled = pool_features(v, w) if w > 1 else v
    outputs = model.forward(pooled, train=False, heads=heads)
    return _full_length_probs(model, c2f_ensemble(outputs, alpha), t)


def predict_probs(model: Model, v: np.ndarray, augment_cfg: AugmentConfig,
                  tta: bool = False, rng: np.random.Generator | None = None,
                  alpha: EnsembleWeights | None = None,
                  heads: ProjectionHeads | None = None) -> np.ndarray:
    """Standard inference: deterministic base window, or a TTA average."""
    if not augment_cfg.enabled:
        return predict_probs_window(model, v, 1, alpha=alpha, heads=heads)
    if not tta:
        w = stable_window(augment_cfg.w0, np.asarray(v).shape[0], model.cfg.depth)
        return predict_probs_window(model, v, w, alpha=alpha, heads=heads)
    if rng is None:
        rng = substream(0, "tta")
    return tta_predict(model, v, augment_cfg, rng, alpha=alpha, heads=heads)


def predictions_for(model: Model, clips: list, augment_cfg: AugmentConfig,
                    tta: bool = False, rng: np.random.Generator | None = None,
                    alpha: EnsembleWeights | None = None,
                    heads: ProjectionHeads | None = None) -> list:
    """(vid, probs [T, C], gt [T]) for every clip, in the given order."""
    out = []
    for clip in clips:
        probs = predict_probs(model, clip.features, augment_cfg, tta=tta, rng=rng,
                              alpha=alpha, heads=heads)
        out.append((clip.vid, probs, clip.labels))
    return out


def evaluate_clips(model: Model, clips: list, augment_cfg: AugmentConfig,
                   tta: bool = False, rng: np.random.Generator | None = None,
                   alpha: EnsembleWeights | None = None,
                   heads: ProjectionHeads | None = None,
                   per_video_f1: bool = False) -> SegReport:
    preds = predictions_for(model, clips, augment_cfg, tta=tta, rng=rng,
                            alpha=alpha, heads=heads)
    pairs = [(predict_labels(probs), gt) for _, probs, gt in preds]
    return SegReport.from_pairs(pairs, per_video_f1=per_video_f1)


def calibration_for(model: Model, clips: list, augment_cfg: AugmentConfig,
                    num_bins: int = 15):
    """Pooled calibration report plus wrong-prediction entropies."""
    preds = predictions_for(model, clips, augment_cfg)
    probs = np.concatenate([p for _, p, _ in preds], axis=0)
    gt = np.concatenate([g for _, _, g in preds])
    report = calibration(probs, gt, num_bins=num_bins)
    entropies = wrong_prediction_entropy(probs, gt)
    return report, entropies

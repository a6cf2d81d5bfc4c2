"""Semi-supervised training that alternates contrast and classify steps.

Iteration 1 optionally starts from label-free contrastive pretraining
(cluster ids as stand-in labels); every later iteration first re-runs the
contrast pass over *all* training clips using pseudo-labels for the
unlabeled pool and ground truth for the labeled pool, then trains a fresh
classification head stack (plus a gentle backbone fine-tune) on the
labeled pool only.  Every iteration ends with a test-split report.

Ground-truth frame labels are only ever obtained through an
``AuditedDataset``, so tests can assert that unlabeled clips never leak
their annotations into any step.  Video-level activity ids are treated as
metadata and are not audited.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig
from .contrastive import (ContrastConfig, ContrastTrainConfig, contrastive_loss,
                          pretrain_unsupervised, run_contrast_training, sampled_view)
from .data import AuditedDataset, SplitSpec, VideoSample
from .inference import evaluate_clips, predict_probs
from .metrics import SegReport
from .model import Model, ProjectionHeads
from .optim import Adam
from .seeding import substream
from .supervised import LossConfig, c2f_ensemble, fit, joint_loss, pooled_clip


@dataclass(frozen=True)
class ICCConfig:
    iterations: int = 4
    labeled_fraction: float = 0.1
    lr_g: float = 1e-2             # fresh heads, trained hard
    lr_m_classify: float = 1e-5    # backbone fine-tune during classify
    lr_m_contrast: float = 1e-3    # backbone during contrast steps
    weight_decay: float = 0.0
    pretrain_epochs: int = 30
    contrast_epochs: int = 10
    classify_epochs: int = 40
    batch_size: int = 8
    classify_transition: bool = False   # transition penalty stays off by default
    skip_unsupervised: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 < self.labeled_fraction <= 1.0:
            raise ValueError(f"labeled_fraction must lie in (0, 1], "
                             f"got {self.labeled_fraction}")
        for name in ("lr_g", "lr_m_classify", "lr_m_contrast"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("pretrain_epochs", "contrast_epochs", "classify_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class IterationResult:
    iteration: int
    report: SegReport
    classify_losses: list
    contrast_losses: list


def _contrast_train_config(icc_cfg: ICCConfig, epochs: int) -> ContrastTrainConfig:
    """The backbone's contrastive schedule, for pretraining and contrast steps."""
    return ContrastTrainConfig(lr=icc_cfg.lr_m_contrast, weight_decay=icc_cfg.weight_decay,
                               epochs=epochs, batch_size=icc_cfg.batch_size)


def _clips(audited: AuditedDataset, vids, labels) -> list[VideoSample]:
    """The training clips ``vids``; ``labels(vid)`` gives frame labels or None."""
    return [VideoSample(vid=v, features=audited.features(v), labels=labels(v),
                        activity=audited.activity(v), split="train") for v in vids]


def classify_step(model: Model, heads: ProjectionHeads, audited: AuditedDataset,
                  labeled_ids, icc_cfg: ICCConfig, augment_cfg: AugmentConfig,
                  contrast_cfg: ContrastConfig, loss_cfg: LossConfig,
                  seed: int, iteration: int) -> list[float]:
    """Supervised pass on the labeled pool: cross-entropy through the fresh
    heads plus the label-driven contrastive term; two optimizers so the
    heads move fast while the backbone barely drifts."""
    rng = substream(seed, f"classify-{iteration}")
    clips = _clips(audited, labeled_ids, audited.labels)
    opt_g = Adam(heads.parameters(), lr=icc_cfg.lr_g, weight_decay=icc_cfg.weight_decay)
    opt_m = Adam(model.backbone_parameters(), lr=icc_cfg.lr_m_classify,
                 weight_decay=icc_cfg.weight_decay)
    ce_cfg = replace(loss_cfg, transition=icc_cfg.classify_transition)

    def batch_loss(batch):
        views, loss = [], None
        for clip in batch:
            v, y = pooled_clip(clip.features, clip.labels, augment_cfg, rng, model.cfg.depth)
            outputs = model.forward(v, train=True, heads=heads)
            term = joint_loss(c2f_ensemble(outputs), y, ce_cfg)
            loss = term if loss is None else ad.add(loss, term)
            views.append(sampled_view(outputs, v.shape[0], y, contrast_cfg, rng))
        loss = ad.add(ad.mul(loss, 1.0 / len(batch)),
                      contrastive_loss(*zip(*views), [c.activity for c in batch], contrast_cfg))
        return loss, float(loss.data)

    history = fit(clips, [opt_g, opt_m], icc_cfg.classify_epochs, icc_cfg.batch_size,
                  rng, batch_loss)
    return [sum(losses) / len(losses) for losses in history]


def pseudo_label(model: Model, heads: ProjectionHeads, features: np.ndarray,
                 augment_cfg: AugmentConfig) -> np.ndarray:
    """Full-length argmax of the standard (non-TTA) ensemble prediction."""
    probs = predict_probs(model, features, augment_cfg, tta=False, heads=heads)
    return probs.argmax(axis=1)


def contrast_step(model: Model, audited: AuditedDataset, split: SplitSpec,
                  pseudo: dict, icc_cfg: ICCConfig, augment_cfg: AugmentConfig,
                  contrast_cfg: ContrastConfig, seed: int, iteration: int) -> list[float]:
    """Contrastive pass over every training clip: ground truth on the
    labeled pool, pseudo-labels elsewhere.  No classifier is involved."""
    clips = _clips(audited, sorted(split.labeled + split.unlabeled),
                   lambda v: audited.labels(v) if v in split.labeled else np.asarray(pseudo[v]))
    return run_contrast_training(model, clips, contrast_cfg, augment_cfg,
                                 _contrast_train_config(icc_cfg, icc_cfg.contrast_epochs),
                                 seed, stream=f"contrast-{iteration}")


def run_icc(model: Model, audited: AuditedDataset, split: SplitSpec,
            test_clips: list, icc_cfg: ICCConfig, augment_cfg: AugmentConfig,
            contrast_cfg: ContrastConfig, loss_cfg: LossConfig,
            seed: int) -> list[IterationResult]:
    """The full alternation; returns one evaluated result per iteration."""
    results = []
    all_train = sorted(split.labeled + split.unlabeled)
    heads = None
    for iteration in range(1, icc_cfg.iterations + 1):
        if iteration == 1:
            contrast_losses = []
            if not icc_cfg.skip_unsupervised and icc_cfg.pretrain_epochs > 0:
                contrast_losses = pretrain_unsupervised(
                    model, _clips(audited, all_train, lambda v: None),
                    contrast_cfg, augment_cfg,
                    _contrast_train_config(icc_cfg, icc_cfg.pretrain_epochs), seed)
        else:
            pseudo = {v: pseudo_label(model, heads, audited.features(v), augment_cfg)
                      for v in split.unlabeled}
            contrast_losses = contrast_step(model, audited, split, pseudo, icc_cfg,
                                            augment_cfg, contrast_cfg, seed, iteration)
        heads = ProjectionHeads(model.cfg, substream(seed, f"heads-{iteration}"))
        classify_losses = classify_step(model, heads, audited, split.labeled, icc_cfg,
                                        augment_cfg, contrast_cfg, loss_cfg, seed,
                                        iteration)
        report = evaluate_clips(model, test_clips, augment_cfg, heads=heads)
        results.append(IterationResult(iteration=iteration, report=report,
                                       classify_losses=classify_losses,
                                       contrast_losses=contrast_losses))
    return results

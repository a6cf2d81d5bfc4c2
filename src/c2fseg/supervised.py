"""Coarse-to-fine ensembling and the fully supervised training loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .augment import (AugmentConfig, pool_features, pool_labels,
                      sample_window, stable_window)
from .autodiff import Tape, Tensor
from .model import DecoderOutputs, Model
from .optim import Adam
from .seeding import substream

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class EnsembleWeights:
    """A convex weighting over the decoder stages."""

    alpha: tuple

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.float64)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("alpha must be a non-empty vector")
        if np.any(a <= 0.0):
            raise ValueError("ensemble weights must be strictly positive")
        if abs(a.sum() - 1.0) > 1e-9:
            raise ValueError(f"ensemble weights must sum to 1, got {a.sum()}")

    @classmethod
    def uniform(cls, depth: int) -> "EnsembleWeights":
        return cls(tuple([1.0 / depth] * depth))

    @classmethod
    def normalized(cls, raw) -> "EnsembleWeights":
        a = np.asarray(raw, dtype=np.float64)
        return cls(tuple(a / a.sum()))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.alpha)


def c2f_ensemble(outputs: DecoderOutputs, weights: EnsembleWeights | None = None) -> Tensor:
    """Weighted sum of the per-stage probability matrices -> [t_in, C];
    uniform over the stages unless ``weights`` are given."""
    a = (EnsembleWeights.uniform(len(outputs.p)) if weights is None else weights).as_array()
    if a.size != len(outputs.p):
        raise ValueError("one weight per decoder stage required")
    acc = None
    for coef, p_u in zip(a, outputs.p):
        term = ad.mul(p_u, float(coef))
        acc = term if acc is None else ad.add(acc, term)
    return acc


def predict_labels(probs: np.ndarray) -> np.ndarray:
    """Argmax frame labeling of a [T, C] probability matrix."""
    return np.asarray(probs).argmax(axis=1)


def cross_entropy(p: Tensor, y: np.ndarray) -> Tensor:
    """Mean negative log-probability of the target labels.

    Probabilities are clamped at 1e-12 before the log so an overconfident
    wrong head yields a large-but-finite loss.
    """
    y = np.asarray(y, dtype=np.int64)
    t, c = p.shape
    if y.shape != (t,):
        raise ValueError(f"labels shape {y.shape} does not match probs [{t}, {c}]")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError("label id out of range")
    onehot = np.zeros((t, c))
    onehot[np.arange(t), y] = 1.0
    picked = ad.reduce_sum(ad.mul(ad.log(ad.clamp_min(p, PROB_FLOOR)), Tensor(onehot)))
    return ad.mul(picked, -1.0 / t)


@dataclass(frozen=True)
class LossConfig:
    lambda_tr: float = 0.15
    eps_max: float = 4.0
    transition: bool = True


def transition_loss(p: Tensor, cfg: LossConfig = LossConfig()) -> Tensor:
    """Penalty on frame-to-frame log-probability jumps, clamped per class.

    (1/T) * sum_{t>=1} sum_k min(|log p[t,k] - log p[t-1,k]|, eps_max)^2
    """
    t = p.shape[0]
    if t < 2:
        raise ValueError("transition loss needs at least two frames")
    lp = ad.log(ad.clamp_min(p, PROB_FLOOR))
    jump = ad.absolute(ad.sub(ad.slice_axis(lp, 0, 1, t), ad.slice_axis(lp, 0, 0, t - 1)))
    clamped = ad.clamp_max(jump, cfg.eps_max)
    return ad.mul(ad.reduce_sum(ad.mul(clamped, clamped)), 1.0 / t)


def joint_terms(p: Tensor, y: np.ndarray,
                cfg: LossConfig = LossConfig()) -> tuple[Tensor, Tensor, Tensor | None]:
    """(loss, ce, tr): cross-entropy plus the weighted transition penalty.

    The penalty is left out (``tr`` is None) when it is disabled or the
    clip has a single frame.
    """
    ce = cross_entropy(p, y)
    if not cfg.transition or p.shape[0] < 2:
        return ce, ce, None
    tr = transition_loss(p, cfg)
    return ad.add(ce, ad.mul(tr, cfg.lambda_tr)), ce, tr


def joint_loss(p: Tensor, y: np.ndarray, cfg: LossConfig = LossConfig()) -> Tensor:
    return joint_terms(p, y, cfg)[0]


def activity_loss(p_v: Tensor, activity: int) -> Tensor:
    """Negative log-probability of the video-level activity."""
    return cross_entropy(ad.reshape(p_v, (1, -1)), np.array([activity]))


def check_schedule(lr: float, epochs: int, batch_size: int = 1) -> None:
    """The checks every training schedule shares."""
    if not lr > 0.0:
        raise ValueError(f"lr must be positive, got {lr}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


@dataclass
class TrainConfig:
    lr: float = 3e-4
    weight_decay: float = 1e-3
    epochs: int = 150
    batch_size: int = 8
    loss_per_layer: bool = False     # attach the loss to every stage, not just the mix
    activity_weight: float = 0.0     # optional video-level auxiliary term

    def validate(self) -> None:
        check_schedule(self.lr, self.epochs, self.batch_size)


@dataclass
class TraceRow:
    epoch: int
    ce: float
    tr: float
    total: float


def pooled_clip(features: np.ndarray, labels: np.ndarray | None,
                augment_cfg: AugmentConfig, rng: np.random.Generator,
                depth: int) -> tuple[np.ndarray, np.ndarray | None]:
    """One training view of a clip: features, and labels unless None,
    pooled by a freshly drawn window.  Unchanged when augmentation is off
    or the window shrinks to 1."""
    if not augment_cfg.enabled:
        return features, labels
    w = stable_window(sample_window(augment_cfg, rng), features.shape[0], depth)
    if w == 1:
        return features, labels
    return pool_features(features, w), None if labels is None else pool_labels(labels, w)


def fit(items: list, optimizers: list, epochs: int, batch_size: int,
        rng: np.random.Generator, batch_loss) -> list[list]:
    """The one training loop: per epoch, a fresh permutation of ``items``
    cut into batches; ``batch_loss(batch) -> (loss, records)`` runs on a
    tape, then every optimizer steps and every optimizer clears its
    gradients.  Returns, per epoch, the batches' records in order."""
    n = len(items)
    if n == 0:
        raise ValueError("nothing to train on")
    history = []
    for _ in range(epochs):
        order = rng.permutation(n)
        records = []
        for start in range(0, n, batch_size):
            batch = [items[i] for i in order[start:start + batch_size]]
            with Tape() as tape:
                loss, rec = batch_loss(batch)
                tape.backward(loss)
            for opt in optimizers:
                opt.step()
            for opt in optimizers:
                opt.zero_grad()
            records.append(rec)
        history.append(records)
    return history


def train_supervised(model: Model, videos: list, augment_cfg: AugmentConfig,
                     loss_cfg: LossConfig, train_cfg: TrainConfig,
                     seed: int) -> list[TraceRow]:
    """Train on a list of VideoSample clips; returns the per-epoch loss trace.

    Every clip in a batch is optionally downsampled with its own freshly
    drawn window; gradients are accumulated across the batch and applied
    in one optimizer step.
    """
    rng = substream(seed, "sampler")
    opt = Adam(model.parameters(), lr=train_cfg.lr, weight_decay=train_cfg.weight_decay)

    def batch_loss(batch):
        total, records = None, []
        for clip in batch:
            v, y = pooled_clip(clip.features, clip.labels, augment_cfg, rng, model.cfg.depth)
            outputs = model.forward(v, train=True)
            loss, ce, tr = joint_terms(c2f_ensemble(outputs), y, loss_cfg)
            if train_cfg.loss_per_layer:
                for p_u in outputs.p:
                    loss = ad.add(loss, ad.mul(joint_loss(p_u, y, loss_cfg),
                                               1.0 / len(outputs.p)))
            if train_cfg.activity_weight and outputs.p_activity is not None:
                loss = ad.add(loss, ad.mul(activity_loss(outputs.p_activity, clip.activity),
                                           train_cfg.activity_weight))
            records.append((float(ce.data), 0.0 if tr is None else float(tr.data),
                            float(loss.data)))
            total = loss if total is None else ad.add(total, loss)
        return ad.mul(total, 1.0 / len(batch)), records

    history = fit(videos, [opt], train_cfg.epochs, train_cfg.batch_size, rng, batch_loss)
    n = len(videos)
    trace = []
    for epoch, batches in enumerate(history):
        ce, tr, total = zip(*(r for records in batches for r in records))
        trace.append(TraceRow(epoch=epoch, ce=sum(ce) / n, tr=sum(tr) / n,
                              total=sum(total) / n))
    return trace

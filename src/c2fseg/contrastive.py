"""Contrastive representation learning over multi-resolution frame features.

The training signal needs no frame labels: clip features are clustered
per batch (k-means), a small set of frames is sampled per clip (one per
time partition plus an epsilon-shifted companion each), and frames are
pulled together when they share a label and are close in normalized time,
pushed apart when labels or video-level activities differ.  The same
machinery later reuses ground-truth or pseudo-labels in place of cluster
ids for the semi-supervised loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig
from .autodiff import Tape, Tensor
from .errors import NumericsError
from .metrics import SegReport
from .model import DecoderOutputs, Model, multires_feature, normalize_rows
from .optim import Adam
from .seeding import substream
from .supervised import PROB_FLOOR, check_schedule, cross_entropy, fit, pooled_clip


@dataclass(frozen=True)
class ContrastConfig:
    K: int = 12                    # time partitions sampled per clip
    epsilon: float | None = None   # companion offset; defaults to 1/(3K)
    delta: float = 0.05            # temporal proximity bound for positives
    tau: float = 0.1               # similarity temperature
    num_clusters: int = 12         # k for the per-batch clustering
    use_video_level: bool = True

    def validate(self) -> None:
        if self.K < 1:
            raise ValueError("need at least one partition")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0 / self.K:
            raise ValueError("epsilon must lie in (0, 1/K)")
        if self.num_clusters < 2:
            raise ValueError("need at least two clusters")

    @property
    def eps(self) -> float:
        return self.epsilon if self.epsilon is not None else 1.0 / (3.0 * self.K)


# ---------------------------------------------------------------------------
# Per-batch clustering
# ---------------------------------------------------------------------------

def kmeans(x: np.ndarray, k: int, rng: np.random.Generator,
           max_iters: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd iteration with k-means++ seeding.

    Runs to an assignment fixpoint or ``max_iters``; an emptied cluster is
    re-seeded with the point currently farthest from its own centroid.
    Returns (assignments [N], centers [k, D]).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if x.ndim != 2 or n == 0:
        raise ValueError("kmeans expects a non-empty [N, D] matrix")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")

    def dist2_to(c):
        d = (x * x).sum(axis=1, keepdims=True) + (c * c).sum(axis=1) - 2.0 * (x @ c.T)
        return np.maximum(d, 0.0)

    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    best = dist2_to(centers[:1])[:, 0]
    for i in range(1, k):
        total = best.sum()
        if total <= 0.0:
            centers[i] = x[rng.integers(n)]
        else:
            centers[i] = x[rng.choice(n, p=best / total)]
        best = np.minimum(best, dist2_to(centers[i:i + 1])[:, 0])

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        d2 = dist2_to(centers)
        new_assign = d2.argmin(axis=1)
        own = d2[np.arange(n), new_assign]
        for c in range(k):
            if not np.any(new_assign == c):
                j = int(own.argmax())
                centers[c] = x[j]
                new_assign[j] = c
                own[j] = 0.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = assign == c
            centers[c] = x[members].mean(axis=0)
    return assign, centers


# ---------------------------------------------------------------------------
# Frame sampling and positive/negative set construction
# ---------------------------------------------------------------------------

@dataclass
class SampledFrames:
    """2K sampled positions of one clip: normalized times plus frame indices."""

    times: np.ndarray    # [2K] floats in [0, 1]
    frames: np.ndarray   # [2K] indices into the clip


def sample_frames(t_n: int, cfg: ContrastConfig, rng: np.random.Generator) -> SampledFrames:
    """One uniform draw per partition [i/K, (i+1)/K) plus an epsilon-offset
    companion for each (random sign, clipped into [0, 1])."""
    cfg.validate()
    k = cfg.K
    if t_n < k:
        raise ValueError(f"clip too short: {t_n} frames for K={k} partitions")
    base = (np.arange(k) + rng.random(k)) / k
    signs = np.where(rng.random(k) < 0.5, -1.0, 1.0)
    companions = np.clip(base + signs * cfg.eps, 0.0, 1.0)
    times = np.concatenate([base, companions])
    frames = np.minimum((times * t_n).astype(np.int64), t_n - 1)
    return SampledFrames(times=times, frames=frames)


@dataclass
class PosNegSets:
    """[N, N] boolean pair masks over the flattened batch; row ``a`` is the
    anchor.  Index ``a`` ranges over all sampled frames of all clips,
    clip-major in batch order."""

    pos: np.ndarray
    neg: np.ndarray

    @property
    def total_positive_pairs(self) -> int:
        return int(self.pos.sum())


def build_sets(samples: list[SampledFrames], labels: list[np.ndarray],
               activities: list[int], delta: float,
               use_video_level: bool = True) -> PosNegSets:
    """Positive = same activity, same label, within ``delta`` in normalized
    time.  Negative = different activity, or same activity with a different
    label.  Same label but farther than ``delta`` apart: neither.  The
    activity clauses collapse away when video-level context is disabled.
    """
    times = np.concatenate([s.times for s in samples])
    labs = np.concatenate([np.asarray(l, dtype=np.int64) for l in labels])
    acts = np.repeat(np.asarray(activities, dtype=np.int64),
                     [len(s.times) for s in samples])
    if labs.shape != times.shape:
        raise ValueError("one label per sampled frame required")
    same_act = acts[:, None] == acts[None, :] if use_video_level else True
    same_label = labs[:, None] == labs[None, :]
    close = np.abs(times[None, :] - times[:, None]) < delta
    pos = same_act & same_label & close
    np.fill_diagonal(pos, False)
    neg = ~(same_act & same_label)
    return PosNegSets(pos=pos, neg=neg)


# ---------------------------------------------------------------------------
# The contrastive objective
# ---------------------------------------------------------------------------

def _masked_nce(rows: Tensor, pos_mask: np.ndarray, neg_mask: np.ndarray,
                tau: float) -> tuple[Tensor, int]:
    """Sum over positive pairs of -log( e_ij / (e_ij + sum_neg e_ik) ).

    ``rows`` must already be row-normalized; masks are [N, N] booleans with
    rows indexing anchors.  Returns (summed loss, number of pairs).
    """
    sim = ad.matmul(rows, ad.transpose2d(rows))
    e = ad.exp(ad.mul(sim, 1.0 / tau))
    neg_sum = ad.reduce_sum(ad.mul(e, Tensor(neg_mask.astype(np.float64))),
                            axis=1, keepdims=True)
    log_denom = ad.log(ad.clamp_min(ad.add(e, neg_sum), PROB_FLOOR))
    per_pair = ad.sub(log_denom, ad.mul(sim, 1.0 / tau))
    total = ad.reduce_sum(ad.mul(per_pair, Tensor(pos_mask.astype(np.float64))))
    return total, int(pos_mask.sum())


def contrastive_loss(features: list[Tensor], samples: list[SampledFrames],
                     labels: list[np.ndarray], activities: list[int],
                     cfg: ContrastConfig) -> Tensor:
    """Frame-level NCE over sampled frames plus (optionally) a video-level
    term over max-pooled clip features; each term is averaged over its own
    positive-pair count."""
    cfg.validate()
    sets = build_sets(samples, labels, activities, cfg.delta, cfg.use_video_level)
    gathered = [ad.take_rows(f, s.frames) for f, s in zip(features, samples)]
    rows = normalize_rows(ad.concat(gathered, axis=0))
    if not sets.pos.any():
        raise NumericsError("no positive pairs in batch; contrastive loss undefined")
    frame_total, frame_pairs = _masked_nce(rows, sets.pos, sets.neg, cfg.tau)
    loss = ad.mul(frame_total, 1.0 / frame_pairs)

    if cfg.use_video_level and len(features) > 1:
        acts = np.asarray(activities)
        v_pos = (acts[:, None] == acts[None, :]) & ~np.eye(len(acts), dtype=bool)
        v_neg = acts[:, None] != acts[None, :]
        if v_pos.any() and v_neg.any():
            pooled = [ad.reshape(ad.reduce_max(f, axis=0), (1, -1)) for f in features]
            clip_rows = normalize_rows(ad.concat(pooled, axis=0))
            video_total, video_pairs = _masked_nce(clip_rows, v_pos, v_neg, cfg.tau)
            loss = ad.add(loss, ad.mul(video_total, 1.0 / video_pairs))
    return loss


def sampled_view(outputs: DecoderOutputs, t: int, y: np.ndarray, cfg: ContrastConfig,
                 rng: np.random.Generator) -> tuple[Tensor, SampledFrames, np.ndarray]:
    """What ``contrastive_loss`` takes of one forwarded clip of ``t`` frames:
    its multi-resolution feature, the frames sampled from it, their labels."""
    feature = multires_feature(outputs, t, mode="linear")
    sf = sample_frames(t, cfg, rng)
    return feature, sf, np.asarray(y)[sf.frames]


# ---------------------------------------------------------------------------
# Training passes
# ---------------------------------------------------------------------------

@dataclass
class ContrastClip:
    vid: str
    features: np.ndarray
    labels: np.ndarray | None   # full-length ids, or None for cluster mode
    activity: int


@dataclass
class ContrastTrainConfig:
    lr: float = 1e-3
    weight_decay: float = 0.0
    epochs: int = 30
    batch_size: int = 8

    def validate(self) -> None:
        check_schedule(self.lr, self.epochs, self.batch_size)


def run_contrast_training(model: Model, clips: list[ContrastClip],
                          cfg: ContrastConfig, augment_cfg: AugmentConfig,
                          train_cfg: ContrastTrainConfig, seed: int,
                          stream: str = "contrast") -> list[float]:
    """Contrastive training of the backbone, for unsupervised pretraining
    and for the semi-supervised contrast steps.

    Each batch first pools every clip with a fresh window (labels too, when
    the clip has them), then clusters the pooled features of the clips
    with ``labels=None`` together so their k-means ids stand in for frame
    labels, then samples frames per clip for the loss.  Only backbone
    parameters are updated.  Returns per-epoch mean batch losses.
    """
    cfg.validate()
    rng = substream(seed, stream)
    opt = Adam(model.backbone_parameters(), lr=train_cfg.lr,
               weight_decay=train_cfg.weight_decay)

    def batch_loss(batch):
        pooled = [pooled_clip(c.features, c.labels, augment_cfg, rng, model.cfg.depth)
                  for c in batch]
        pooled_feats = [v for v, _ in pooled]
        pooled_labels = [y for _, y in pooled]
        cluster_needed = [i for i, y in enumerate(pooled_labels) if y is None]
        if cluster_needed:
            stacked = np.concatenate([pooled_feats[i] for i in cluster_needed], axis=0)
            assign, _ = kmeans(stacked, min(cfg.num_clusters, stacked.shape[0]), rng)
            cursor = 0
            for i in cluster_needed:
                t_i = pooled_feats[i].shape[0]
                pooled_labels[i] = assign[cursor:cursor + t_i]
                cursor += t_i
        views = [sampled_view(model.forward(v, train=True), v.shape[0], y, cfg, rng)
                 for v, y in zip(pooled_feats, pooled_labels)]
        loss = contrastive_loss(*zip(*views), [c.activity for c in batch], cfg)
        return loss, float(loss.data)

    history = fit(clips, [opt], train_cfg.epochs, train_cfg.batch_size, rng, batch_loss)
    return [sum(losses) / len(losses) for losses in history]


def pretrain_unsupervised(model: Model, clips: list, cfg: ContrastConfig,
                          augment_cfg: AugmentConfig, train_cfg: ContrastTrainConfig,
                          seed: int) -> list[float]:
    """Label-free pretraining: cluster ids stand in for frame labels."""
    bare = [ContrastClip(vid=c.vid, features=c.features, labels=None,
                         activity=c.activity) for c in clips]
    return run_contrast_training(model, bare, cfg, augment_cfg, train_cfg, seed,
                                 stream="pretrain")


# ---------------------------------------------------------------------------
# Linear probing of the learned representation
# ---------------------------------------------------------------------------

@dataclass
class LinearEvalConfig:
    lr: float = 1e-2
    epochs: int = 300

    def validate(self) -> None:
        check_schedule(self.lr, self.epochs)


def _clip_representation(model: Model | None, clip, raw: bool) -> np.ndarray:
    if raw or model is None:
        return np.asarray(clip.features, dtype=np.float64)
    outputs = model.forward(clip.features, train=False)
    return multires_feature(outputs, clip.features.shape[0], mode="linear").data


def linear_eval(model: Model | None, train_clips: list, test_clips: list,
                num_classes: int, raw: bool = False,
                cfg: LinearEvalConfig = LinearEvalConfig()) -> SegReport:
    """Freeze the backbone, fit one affine softmax classifier on per-frame
    representations of the training clips, and score the test clips.

    Deterministic by construction: the classifier starts at zero and trains
    full-batch.  ``raw=True`` probes the input features instead (the
    no-model baseline).
    """
    xs = [_clip_representation(model, c, raw) for c in train_clips]
    x = np.concatenate(xs, axis=0)
    y = np.concatenate([c.labels for c in train_clips])

    w = Tensor(np.zeros((num_classes, x.shape[1])), requires_grad=True)
    b = Tensor(np.zeros(num_classes), requires_grad=True)
    opt = Adam([w, b], lr=cfg.lr)
    x_const = Tensor(x)
    for _ in range(cfg.epochs):
        with Tape() as tape:
            logits = ad.add(ad.matmul(x_const, ad.transpose2d(w)), ad.reshape(b, (1, -1)))
            tape.backward(cross_entropy(ad.softmax(logits, axis=1), y))
        opt.step()
        opt.zero_grad()

    pairs = []
    for clip in test_clips:
        rep = _clip_representation(model, clip, raw)
        logits = rep @ w.data.T + b.data
        pairs.append((logits.argmax(axis=1), clip.labels))
    return SegReport.from_pairs(pairs)

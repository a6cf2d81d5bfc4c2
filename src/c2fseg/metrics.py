"""Segmentation metrics: frame accuracy, edit distance, segmental F1,
confidence calibration, and the entropy profile of wrong predictions.

Conventions (deliberately the common ones so numbers are comparable):
* MoF pools all frames across videos.
* Edit works on the deduplicated segment-label strings and is averaged
  over videos at the dataset level.
* F1@k matches each predicted segment greedily (in prediction order)
  against its best-IoU unmatched ground-truth segment of the same label,
  requiring IoU strictly above k; TP/FP/FN pool across videos by default.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Segment:
    label: int
    start: int   # inclusive frame index
    end: int     # exclusive frame index

    def __len__(self) -> int:
        return self.end - self.start


def segments_from_labels(y: np.ndarray) -> list[Segment]:
    """Run-length decomposition of a frame labeling."""
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("expected a non-empty 1-D label sequence")
    boundaries = np.flatnonzero(np.diff(y)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [y.size]])
    return [Segment(int(y[s]), int(s), int(e)) for s, e in zip(starts, ends)]


def mof(pred: np.ndarray, gt: np.ndarray) -> float:
    """Percentage of frames labeled correctly."""
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {gt.shape}")
    return 100.0 * float(np.mean(pred == gt))


def levenshtein(a: list, b: list) -> int:
    """Classic O(len(a)*len(b)) edit distance over two symbol sequences."""
    m, n = len(a), len(b)
    row = np.arange(n + 1)
    for i in range(1, m + 1):
        prev_diag = row[0]
        row[0] = i
        for j in range(1, n + 1):
            keep = row[j]
            cost = 0 if a[i - 1] == b[j - 1] else 1
            row[j] = min(row[j] + 1, row[j - 1] + 1, prev_diag + cost)
            prev_diag = keep
    return int(row[n])


def edit_score(pred: np.ndarray, gt: np.ndarray) -> float:
    """100 * (1 - edit distance between segment-label strings / max length)."""
    p = [s.label for s in segments_from_labels(pred)]
    g = [s.label for s in segments_from_labels(gt)]
    return 100.0 * (1.0 - levenshtein(p, g) / max(len(p), len(g)))


def _iou(a: Segment, b: Segment) -> float:
    inter = max(0, min(a.end, b.end) - max(a.start, b.start))
    union = max(a.end, b.end) - min(a.start, b.start)
    return inter / union if union else 0.0


def f1_counts(pred: np.ndarray, gt: np.ndarray, k: float) -> tuple[int, int, int]:
    """(TP, FP, FN) at overlap threshold ``k`` (a fraction, e.g. 0.25).

    Each predicted segment claims the not-yet-claimed ground-truth segment
    with the highest IoU among those sharing its label; the claim counts
    only when that IoU is strictly greater than ``k``.
    """
    p_segs = segments_from_labels(pred)
    g_segs = segments_from_labels(gt)
    used = np.zeros(len(g_segs), dtype=bool)
    tp = fp = 0
    for ps in p_segs:
        ious = np.array([_iou(ps, gs) if gs.label == ps.label and not taken else 0.0
                         for gs, taken in zip(g_segs, used)])
        best = int(ious.argmax())
        if ious[best] > k:
            tp += 1
            used[best] = True
        else:
            fp += 1
    return tp, fp, int((~used).sum())


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 100.0 * 2.0 * precision * recall / (precision + recall)


def f1_at_k(pred: np.ndarray, gt: np.ndarray, k: float) -> float:
    return f1_from_counts(*f1_counts(pred, gt, k))


F1_THRESHOLDS = (0.10, 0.25, 0.50)


@dataclass
class SegReport:
    mof: float
    edit: float
    f1_10: float
    f1_25: float
    f1_50: float
    frames: int
    videos: int

    @classmethod
    def from_pairs(cls, pairs: list[tuple[np.ndarray, np.ndarray]],
                   per_video_f1: bool = False) -> "SegReport":
        """Aggregate over (pred, gt) pairs.

        ``per_video_f1`` switches from pooled TP/FP/FN to an unweighted
        mean of per-video F1 scores.
        """
        if not pairs:
            raise ValueError("no prediction/label pairs to score")
        correct = total = 0
        edits = []
        counts = {k: [0, 0, 0] for k in F1_THRESHOLDS}
        per_video = {k: [] for k in F1_THRESHOLDS}
        for pred, gt in pairs:
            pred, gt = np.asarray(pred), np.asarray(gt)
            correct += int((pred == gt).sum())
            total += gt.size
            edits.append(edit_score(pred, gt))
            for k in F1_THRESHOLDS:
                tp, fp, fn = f1_counts(pred, gt, k)
                counts[k][0] += tp
                counts[k][1] += fp
                counts[k][2] += fn
                per_video[k].append(f1_from_counts(tp, fp, fn))
        if per_video_f1:
            f1s = {k: float(np.mean(per_video[k])) for k in F1_THRESHOLDS}
        else:
            f1s = {k: f1_from_counts(*counts[k]) for k in F1_THRESHOLDS}
        return cls(mof=100.0 * correct / total, edit=float(np.mean(edits)),
                   f1_10=f1s[0.10], f1_25=f1s[0.25], f1_50=f1s[0.50],
                   frames=total, videos=len(pairs))

    def to_dict(self) -> dict:
        return {"mof": self.mof, "edit": self.edit, "f1_10": self.f1_10,
                "f1_25": self.f1_25, "f1_50": self.f1_50,
                "frames": self.frames, "videos": self.videos}


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

@dataclass
class CalibrationBin:
    lo: float
    hi: float
    count: int
    acc: float    # fraction correct among frames whose confidence fell here
    conf: float   # mean confidence of those frames
    gap: float    # acc - conf


@dataclass
class CalibrationReport:
    bins: list[CalibrationBin]
    frames: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("bin_lo,bin_hi,count,acc,conf,gap\n")
        for b in self.bins:
            buf.write(f"{b.lo:.6f},{b.hi:.6f},{b.count},{b.acc:.6f},{b.conf:.6f},{b.gap:.6f}\n")
        return buf.getvalue()

    def expected_calibration_error(self) -> float:
        if self.frames == 0:
            return 0.0
        return sum(b.count * abs(b.gap) for b in self.bins) / self.frames


def calibration(probs: np.ndarray, gt: np.ndarray, num_bins: int = 15) -> CalibrationReport:
    """Bin frames by argmax confidence into (n/N, (n+1)/N] half-open bins.

    Empty bins are kept with zero counts so the CSV always has N rows.
    """
    probs, gt = np.asarray(probs), np.asarray(gt, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[0] != gt.shape[0]:
        raise ValueError("probs [T, C] must align with gt [T]")
    if num_bins < 1:
        raise ValueError("need at least one bin")
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == gt
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    # index n collects conf in (n/N, (n+1)/N]; ceil(conf*N)-1 does exactly that
    idx = np.clip(np.ceil(conf * num_bins).astype(np.int64) - 1, 0, num_bins - 1)
    bins = []
    for n in range(num_bins):
        mask = idx == n
        count = int(mask.sum())
        acc = float(correct[mask].mean()) if count else 0.0
        mean_conf = float(conf[mask].mean()) if count else 0.0
        bins.append(CalibrationBin(lo=float(edges[n]), hi=float(edges[n + 1]),
                                   count=count, acc=acc, conf=mean_conf,
                                   gap=acc - mean_conf))
    return CalibrationReport(bins=bins, frames=int(gt.size))


def wrong_prediction_entropy(probs: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of the predictive distribution at wrong frames."""
    probs, gt = np.asarray(probs), np.asarray(gt, dtype=np.int64)
    wrong = probs.argmax(axis=1) != gt
    p = probs[wrong]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -terms.sum(axis=1)


def entropy_histogram_csv(entropies: np.ndarray, num_classes: int,
                          num_bins: int = 15) -> str:
    """Histogram of wrong-prediction entropies over [0, ln C], as CSV text."""
    hi = float(np.log(num_classes)) if num_classes > 1 else 1.0
    edges = np.linspace(0.0, hi, num_bins + 1)
    counts, _ = np.histogram(np.asarray(entropies), bins=edges)
    buf = io.StringIO()
    buf.write("bin_lo,bin_hi,count\n")
    for n in range(num_bins):
        buf.write(f"{edges[n]:.6f},{edges[n + 1]:.6f},{int(counts[n])}\n")
    return buf.getvalue()

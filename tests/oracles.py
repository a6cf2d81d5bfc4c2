"""Reference implementations the tests compare the package against.

Each one is the plain, slow transcription of a definition: central finite
differences, the sampler's exact window distribution, per-anchor
contrastive probabilities, and the inverse of run-length segmentation.
"""

import numpy as np

from c2fseg.augment import AugmentConfig, window_support
from c2fseg.contrastive import PosNegSets
from c2fseg.metrics import Segment


def finite_difference_gradient(fn, arrays, step: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient of a scalar function of several arrays.

    The inputs are copied; ``fn`` is re-invoked with the perturbed copies, so
    callers may pass scalars or arrays they do not want mutated.
    """
    work = [np.array(a, dtype=np.float64) for a in arrays]
    grads = []
    for base in work:
        grad = np.zeros_like(base)
        flat = base.ravel()
        gflat = grad.ravel()
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + step
            hi = fn(*work)
            flat[j] = keep - step
            lo = fn(*work)
            flat[j] = keep
            gflat[j] = (hi - lo) / (2.0 * step)
        grads.append(grad)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute difference over the max numeric magnitude (floored)."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = max(float(np.abs(numeric).max(initial=0.0)), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0)) / denom


def window_probabilities(cfg: AugmentConfig) -> np.ndarray:
    """Exact sampling distribution over ``window_support``."""
    support = window_support(cfg.w0)
    others = len(support) - 1
    probs = np.full(len(support), (1.0 - cfg.pi0) / others if others else 0.0)
    probs[support == cfg.w0] = cfg.pi0 if others else 1.0
    return probs


def frame_contrast_probabilities(rows: np.ndarray, sets: PosNegSets,
                                 tau: float) -> list[np.ndarray]:
    """p_ij for each anchor's positives, one anchor (mask row) at a time."""
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    sim = rows @ rows.T
    e = np.exp(sim / tau)
    out = []
    for a in range(len(sets.pos)):
        denom_neg = e[a, sets.neg[a]].sum()
        out.append(e[a, sets.pos[a]] / (e[a, sets.pos[a]] + denom_neg))
    return out


def labels_from_segments(segments: list[Segment]) -> np.ndarray:
    out = np.empty(segments[-1].end, dtype=np.int64)
    for seg in segments:
        out[seg.start:seg.end] = seg.label
    return out

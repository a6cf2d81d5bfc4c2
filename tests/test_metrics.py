"""Metric tests against independent brute-force oracles.

The oracles below deliberately share no code with the package: plain-python
run-length extraction, a full DP edit-distance table, and quadratic matching
loops.  Random (pred, gt) pairs must agree to 1e-9.
"""

import itertools

import numpy as np
import pytest

from c2fseg.metrics import (SegReport, calibration, edit_score,
                            entropy_histogram_csv, f1_at_k, f1_counts,
                            levenshtein, mof, segments_from_labels,
                            wrong_prediction_entropy)

from oracles import labels_from_segments


# ---------------------------------------------------------------------------
# Oracles (straight-line, quadratic, no cleverness)
# ---------------------------------------------------------------------------

def oracle_segments(labels):
    segs = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            segs.append((int(labels[start]), start, i))
            start = i
    return segs


def oracle_mof(pred, gt):
    return 100.0 * sum(int(p == g) for p, g in zip(pred, gt)) / len(gt)


def oracle_levenshtein(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + cost)
    return table[len(a)][len(b)]


def oracle_edit(pred, gt):
    a = [s[0] for s in oracle_segments(pred)]
    b = [s[0] for s in oracle_segments(gt)]
    return 100.0 * (1.0 - oracle_levenshtein(a, b) / max(len(a), len(b)))


def oracle_f1_counts(pred, gt, k):
    pred_segs = oracle_segments(pred)
    gt_segs = oracle_segments(gt)
    used = [False] * len(gt_segs)
    tp = fp = 0
    for label, ps, pe in pred_segs:
        best_iou, best_j = -1.0, -1
        for j, (glabel, gs, ge) in enumerate(gt_segs):
            if glabel != label or used[j]:
                continue
            inter = max(0, min(pe, ge) - max(ps, gs))
            union = max(pe, ge) - min(ps, gs)
            iou = inter / union
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou > k:
            tp += 1
            used[best_j] = True
        else:
            fp += 1
    fn = used.count(False)
    return tp, fp, fn


def oracle_f1(tp, fp, fn):
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 100.0 * 2 * precision * recall / (precision + recall)


def random_pairs(rng, n, max_t=50, max_c=5):
    pairs = []
    for _ in range(n):
        t = int(rng.integers(1, max_t + 1))
        c = int(rng.integers(2, max_c + 1))
        # blocky sequences so segment structure is non-trivial
        gt = np.repeat(rng.integers(c, size=max_t),
                       rng.integers(1, 8, size=max_t))[:t]
        pred = gt.copy()
        flips = rng.random(t) < rng.uniform(0.05, 0.6)
        pred[flips] = rng.integers(c, size=int(flips.sum()))
        pairs.append((pred, gt))
    return pairs


# ---------------------------------------------------------------------------
# Hand cases
# ---------------------------------------------------------------------------

def test_segments_roundtrip():
    y = np.array([0, 0, 1, 1, 1, 0, 2])
    segs = segments_from_labels(y)
    assert [(s.label, s.start, s.end) for s in segs] == [(0, 0, 2), (1, 2, 5),
                                                         (0, 5, 6), (2, 6, 7)]
    assert np.array_equal(labels_from_segments(segs), y)


def test_single_frame_video():
    segs = segments_from_labels(np.array([3]))
    assert [(s.label, s.start, s.end) for s in segs] == [(3, 0, 1)]


def test_mof_hand_case():
    assert np.isclose(mof(np.array([0, 1, 1]), np.array([0, 0, 1])),
                      100.0 * 2 / 3)


def test_mof_rejects_length_mismatch():
    with pytest.raises(ValueError):
        mof(np.array([0, 1]), np.array([0, 1, 2]))


def test_report_pools_mof_across_videos():
    # 1/2 on a short video, 4/4 on a longer one: pooled 5/6, not mean of 50,100
    pairs = [(np.array([0, 1]), np.array([0, 0])),
             (np.array([1, 1, 1, 1]), np.array([1, 1, 1, 1]))]
    report = SegReport.from_pairs(pairs)
    assert np.isclose(report.mof, 100.0 * 5 / 6)


def test_levenshtein_hand_cases():
    assert levenshtein([0, 1, 2], [0, 1, 2]) == 0
    assert levenshtein([0, 1], [1, 0]) == 2
    assert levenshtein([], [1, 2]) == 2
    assert levenshtein([0, 1, 2, 1], [0, 2, 1]) == 1


def test_edit_perfect_and_disjoint():
    gt = np.array([0, 0, 1, 1, 2, 2])
    assert np.isclose(edit_score(gt, gt), 100.0)
    assert np.isclose(edit_score(np.array([3, 3, 3, 3, 3, 3]), gt), 0.0)


def test_f1_perfect_prediction():
    gt = np.array([0, 0, 1, 1, 2, 2])
    for k in (0.10, 0.25, 0.50):
        assert np.isclose(f1_at_k(gt.copy(), gt, k), 100.0)


def test_f1_overlap_threshold_is_strict():
    # first predicted segment overlaps its gt segment with IoU exactly 0.5
    gt = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    pred = np.array([0, 0, 1, 1, 1, 1, 1, 1])
    tp, fp, fn = f1_counts(pred, gt, 0.50)
    # pred seg 0: IoU 2/4 = 0.5, not > 0.5 -> FP; pred seg 1: IoU 4/6 -> TP
    assert (tp, fp, fn) == (1, 1, 1)


def test_f1_label_must_match():
    gt = np.array([0, 0, 0, 0])
    pred = np.array([1, 1, 1, 1])
    assert f1_counts(pred, gt, 0.1) == (0, 1, 1)


def test_f1_gt_segment_matched_once():
    # two predicted halves over one gt segment: only one can claim it
    gt = np.array([0] * 8)
    pred = np.array([0, 0, 0, 0, 1, 0, 0, 0])
    tp, fp, fn = f1_counts(pred, gt, 0.1)
    assert tp == 1
    assert fp == 2  # second 0-segment + the 1-segment
    assert fn == 0


def test_f1_greedy_takes_best_unmatched():
    # prediction order matters: the first prediction claims the best match,
    # the second falls back to the remaining segment
    gt = np.array([0, 0, 0, 1, 0, 0, 0, 0])
    pred = np.array([0, 0, 0, 0, 0, 0, 0, 0])
    tp, fp, fn = f1_counts(pred, gt, 0.10)
    assert (tp, fp, fn) == (1, 0, 2)


# ---------------------------------------------------------------------------
# Oracle agreement on random pairs
# ---------------------------------------------------------------------------

def test_metrics_match_oracles_on_1000_random_pairs():
    rng = np.random.default_rng(123)
    pairs = random_pairs(rng, 1000)
    for pred, gt in pairs:
        assert abs(mof(pred, gt) - oracle_mof(pred, gt)) < 1e-9
        assert abs(edit_score(pred, gt) - oracle_edit(pred, gt)) < 1e-9
        for k in (0.10, 0.25, 0.50):
            counts = oracle_f1_counts(pred, gt, k)
            assert f1_counts(pred, gt, k) == counts
            assert abs(f1_at_k(pred, gt, k) - oracle_f1(*counts)) < 1e-9


def test_report_aggregates_match_oracles():
    rng = np.random.default_rng(7)
    pairs = random_pairs(rng, 60)
    report = SegReport.from_pairs(pairs)
    pooled_hits = sum(int((p == g).sum()) for p, g in pairs)
    total = sum(len(g) for _, g in pairs)
    assert abs(report.mof - 100.0 * pooled_hits / total) < 1e-9
    edit_mean = float(np.mean([oracle_edit(p, g) for p, g in pairs]))
    assert abs(report.edit - edit_mean) < 1e-9
    for k, field in ((0.10, "f1_10"), (0.25, "f1_25"), (0.50, "f1_50")):
        tp = fp = fn = 0
        for pred, gt in pairs:
            a, b, c = oracle_f1_counts(pred, gt, k)
            tp, fp, fn = tp + a, fp + b, fn + c
        assert abs(getattr(report, field) - oracle_f1(tp, fp, fn)) < 1e-9
    assert report.frames == total
    assert report.videos == len(pairs)


def test_per_video_f1_flag_averages_instead_of_pooling():
    rng = np.random.default_rng(8)
    pairs = random_pairs(rng, 40)
    report = SegReport.from_pairs(pairs, per_video_f1=True)
    per_video = [oracle_f1(*oracle_f1_counts(p, g, 0.25)) for p, g in pairs]
    assert abs(report.f1_25 - float(np.mean(per_video))) < 1e-9


def test_greedy_matching_never_beats_optimal():
    """Greedy best-IoU matching in prediction order vs. a maximum bipartite
    matching: greedy TP can only be <= optimal, and rarely differs."""

    def optimal_tp(pred, gt, k):
        pred_segs = oracle_segments(pred)
        gt_segs = oracle_segments(gt)
        edges = []
        for i, (label, ps, pe) in enumerate(pred_segs):
            for j, (glabel, gs, ge) in enumerate(gt_segs):
                if glabel != label:
                    continue
                inter = max(0, min(pe, ge) - max(ps, gs))
                iou = inter / (max(pe, ge) - min(ps, gs))
                if iou > k:
                    edges.append((i, j))
        best = 0
        for size in range(min(len(pred_segs), len(gt_segs)), 0, -1):
            if size <= best:
                break
            for combo in itertools.combinations(edges, size):
                if (len({i for i, _ in combo}) == size
                        and len({j for _, j in combo}) == size):
                    best = size
                    break
        return best

    rng = np.random.default_rng(9)
    pairs = random_pairs(rng, 120, max_t=30, max_c=3)
    mismatches = 0
    for pred, gt in pairs:
        tp, _, _ = f1_counts(pred, gt, 0.25)
        opt = optimal_tp(pred, gt, 0.25)
        assert tp <= opt
        mismatches += int(tp != opt)
    assert mismatches <= 6


# ---------------------------------------------------------------------------
# Calibration and wrong-prediction entropy
# ---------------------------------------------------------------------------

def test_calibration_counts_and_bin_edges():
    rng = np.random.default_rng(21)
    t, c = 400, 5
    logits = rng.normal(size=(t, c)) * 2.0
    probs = np.exp(logits) / np.exp(logits).sum(1, keepdims=True)
    gt = rng.integers(c, size=t)
    report = calibration(probs, gt, num_bins=15)
    assert report.frames == t
    assert sum(b.count for b in report.bins) == t
    conf = probs.max(axis=1)
    # bin n collects confidence in (n/N, (n+1)/N]
    expect = np.ceil(conf * 15).astype(int) - 1
    for n, b in enumerate(report.bins):
        assert b.count == int((expect == n).sum())
        assert np.isclose(b.lo, n / 15) and np.isclose(b.hi, (n + 1) / 15)


def test_calibration_oracle_predictor_zero_gap():
    gt = np.array([0, 1, 2, 1, 0, 2, 2, 1])
    probs = np.eye(3)[gt]
    report = calibration(probs, gt, num_bins=15)
    for b in report.bins:
        if b.count:
            assert abs(b.gap) < 1e-12
    assert report.expected_calibration_error() < 1e-12


def test_calibration_known_two_bin_case():
    # 4 frames at conf 0.6 (2 right), 2 frames at conf 0.9 (both right)
    probs = np.array([[0.6, 0.4], [0.6, 0.4], [0.6, 0.4], [0.6, 0.4],
                      [0.9, 0.1], [0.9, 0.1]])
    gt = np.array([0, 0, 1, 1, 0, 0])
    report = calibration(probs, gt, num_bins=10)
    by_count = {b.count: b for b in report.bins if b.count}
    assert set(by_count) == {4, 2}
    assert np.isclose(by_count[4].acc, 0.5)
    assert np.isclose(by_count[4].conf, 0.6)
    assert np.isclose(by_count[2].acc, 1.0)
    ece = (4 / 6) * abs(0.5 - 0.6) + (2 / 6) * abs(1.0 - 0.9)
    assert np.isclose(report.expected_calibration_error(), ece)


def test_calibration_boundary_confidence_goes_to_lower_bin():
    # conf exactly 0.2 belongs to (0.1, 0.2], i.e. bin 1 of 10
    probs = np.array([[0.2, 0.2, 0.2, 0.2, 0.2]])
    gt = np.array([0])
    report = calibration(probs, gt, num_bins=10)
    assert report.bins[1].count == 1


def test_calibration_csv_shape():
    report = calibration(np.array([[0.7, 0.3]]), np.array([0]), num_bins=15)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,acc,conf,gap"
    assert len(lines) == 16


def test_wrong_prediction_entropy_uniform_is_ln_c():
    probs = np.full((3, 4), 0.25)
    gt = np.array([1, 2, 3])  # argmax ties resolve to 0, so all are wrong
    ent = wrong_prediction_entropy(probs, gt)
    assert len(ent) == 3
    assert np.allclose(ent, np.log(4.0), atol=1e-9)


def test_wrong_prediction_entropy_near_one_hot():
    eps = 1e-9
    row = np.array([1.0 - 3 * eps, eps, eps, eps])
    probs = np.stack([row, row])
    gt = np.array([1, 1])  # confidently wrong
    ent = wrong_prediction_entropy(probs, gt)
    assert np.all(ent < 1e-6)


def test_wrong_prediction_entropy_skips_correct_frames():
    probs = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
    gt = np.array([0, 1, 0])
    ent = wrong_prediction_entropy(probs, gt)
    assert len(ent) == 2  # frames 1 (tie -> argmax 0) and 2 are wrong
    assert np.isclose(ent[0], np.log(2.0))


def test_entropy_histogram_csv_covers_range():
    ent = np.array([0.0, 0.3, 1.0, 1.3])
    csv = entropy_histogram_csv(ent, num_classes=4, num_bins=4)
    lines = csv.strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert np.isclose(float(rows[-1][1]), np.log(4.0))
    assert sum(int(r[2]) for r in rows) == 4

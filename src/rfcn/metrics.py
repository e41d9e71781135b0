"""Segmentation metrics as reductions of one confusion matrix:
precision/recall/F-measure, IoU, mean-class IoU, and category IoU.

Zero-denominator conventions (documented and test-pinned): an empty
prediction matched against an empty truth scores 1.0; a non-empty prediction
against an empty truth scores 0.0.
"""

import numpy as np

from .data import MAX_CLASS_ID
from .errors import DataError, ShapeError

FOREGROUND = 1


class ConfusionCounts:
    """An int64 confusion matrix: matrix[truth id, predicted id] counts the
    pixels with that pair. It is K x K, K the largest id seen plus 1, and
    0 x 0 until a mask pair is added."""

    def __init__(self):
        self.matrix = np.zeros((0, 0), dtype=np.int64)

    def classes(self):
        """The ids present in a prediction or a truth, ascending."""
        return list(_ious(self.matrix))

    def get(self, cls):
        """(tp, fp, fn) of one class id, as Python ints."""
        if not 0 <= cls < len(self.matrix):
            return 0, 0, 0
        tp = int(self.matrix[cls, cls])
        return tp, int(self.matrix[:, cls].sum()) - tp, int(self.matrix[cls].sum()) - tp


def _ious(matrix):
    """{id: IoU} for every id with a non-zero union: its row and column sums
    less the diagonal, tp + fp + fn."""
    tp = np.diag(matrix)
    union = matrix.sum(0) + matrix.sum(1) - tp
    return {int(c): int(tp[c]) / int(union[c]) for c in np.flatnonzero(union)}


def accumulate(pred, truth, counts=None):
    """Add a per-pixel comparison of two class-id masks to the counts: one
    bincount of truth * K + pred. Masks must hold integer ids in
    0..MAX_CLASS_ID."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeError(f"pred shape {pred.shape} != truth shape {truth.shape}")
    if not all(np.issubdtype(m.dtype, np.integer) for m in (pred, truth)):
        raise DataError(f"masks of dtype {pred.dtype}, {truth.dtype} do not hold class ids")
    lo = min(pred.min(initial=0), truth.min(initial=0))
    hi = max(pred.max(initial=0), truth.max(initial=0))
    if lo < 0 or hi > MAX_CLASS_ID:
        raise DataError(f"class ids span {lo}..{hi}, outside 0..{MAX_CLASS_ID}")
    counts = ConfusionCounts() if counts is None else counts
    n = len(counts.matrix)
    k = max(int(hi) + 1, n)
    flat = truth.ravel().astype(np.intp) * k
    flat += pred.ravel().astype(np.intp, copy=False)
    tally = np.bincount(flat, minlength=k * k).reshape(k, k)
    tally[:n, :n] += counts.matrix
    counts.matrix = tally
    return counts


def _pooled_counts(pairs):
    """Counts accumulated over all (pred, truth) pairs; no pairs is a
    DataError, so an empty evaluation set cannot score 1.0."""
    counts = ConfusionCounts()
    for pred, truth in pairs:
        accumulate(pred, truth, counts)
    if not counts.matrix.size:
        raise DataError("no mask pairs to evaluate")
    return counts


def precision_recall_f(counts):
    tp, fp, fn = counts.get(FOREGROUND)
    p = tp / (tp + fp) if tp + fp else 1.0
    r = tp / (tp + fn) if tp + fn else 1.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def iou(counts):
    tp, fp, fn = counts.get(FOREGROUND)
    return tp / (tp + fp + fn) if tp + fp + fn else 1.0


def _mean(ious):
    return float(np.mean(ious)) if ious else 1.0


def mean_class_iou(counts):
    """Arithmetic mean of per-class IoUs; classes absent from both pred and
    truth across the eval set are excluded."""
    return _mean(list(_ious(counts.matrix).values()))


def category_iou(pairs, category_map):
    """Per-category and mean IoU: the pooled matrix's rows and columns are
    summed by category, so confusions within a category count as true
    positives. Every class id present must be in category_map.

    pairs is a non-empty iterable of (pred, truth) mask pairs.
    """
    counts = _pooled_counts(pairs)
    present = counts.classes()
    missing = set(present) - set(category_map)
    if missing:
        raise DataError(f"class ids {sorted(missing)} missing from category map")
    cats = sorted({category_map[c] for c in present})
    idx = [cats.index(category_map[c]) for c in present]
    tally = np.zeros((len(cats), len(cats)), dtype=np.int64)
    np.add.at(tally, np.ix_(idx, idx), counts.matrix[np.ix_(present, present)])
    per_category = {cats[j]: v for j, v in _ious(tally).items()}
    return per_category, _mean(list(per_category.values()))


def binary_report(counts):
    p, r, f = precision_recall_f(counts)
    return {"precision": p, "recall": r, "f_measure": f, "iou": iou(counts)}


def evaluate_masks(pairs, per_frame=False):
    """Binary metrics over (pred, truth) pairs: pooled counts by default, or
    the per-frame average of frame-level metrics. No pairs is a DataError:
    an empty evaluation set has no score."""
    if not per_frame:
        return binary_report(_pooled_counts(pairs))
    rows = [binary_report(accumulate(pred, truth)) for pred, truth in pairs]
    if not rows:
        raise DataError("no mask pairs to evaluate")
    return {k: float(np.mean([r[k] for r in rows])) for k in rows[0]}

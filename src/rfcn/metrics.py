"""Segmentation metrics: confusion accumulation, precision/recall/F-measure,
IoU, mean-class IoU, and category IoU.

Zero-denominator conventions (documented and test-pinned): an empty
prediction matched against an empty truth scores 1.0; a non-empty prediction
against an empty truth scores 0.0.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError

FOREGROUND = 1


@dataclass
class ConfusionCounts:
    """Per-class tp/fp/fn accumulators."""

    tp: dict = field(default_factory=dict)
    fp: dict = field(default_factory=dict)
    fn: dict = field(default_factory=dict)

    def classes(self):
        return sorted(set(self.tp) | set(self.fp) | set(self.fn))

    def get(self, cls):
        return (self.tp.get(cls, 0), self.fp.get(cls, 0), self.fn.get(cls, 0))


def accumulate(pred, truth, counts=None, category_map=None):
    """Add a per-pixel comparison of two class-id masks to the counts.

    With category_map, both masks are remapped to categories before tallying
    (within-category confusions count as true positives).
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeError(f"pred shape {pred.shape} != truth shape {truth.shape}")
    if counts is None:
        counts = ConfusionCounts()
    if category_map is not None:
        pred = remap(pred, category_map)
        truth = remap(truth, category_map)
    for cls in np.union1d(np.unique(pred), np.unique(truth)):
        cls = int(cls)
        p = pred == cls
        t = truth == cls
        counts.tp[cls] = counts.tp.get(cls, 0) + int(np.sum(p & t))
        counts.fp[cls] = counts.fp.get(cls, 0) + int(np.sum(p & ~t))
        counts.fn[cls] = counts.fn.get(cls, 0) + int(np.sum(~p & t))
    return counts


def _pooled_counts(pairs, category_map=None):
    """Counts accumulated over all (pred, truth) pairs; no pairs is a
    DataError, so an empty evaluation set cannot score 1.0."""
    counts = ConfusionCounts()
    n = 0
    for n, (pred, truth) in enumerate(pairs, 1):
        accumulate(pred, truth, counts, category_map=category_map)
    if not n:
        raise DataError("no mask pairs to evaluate")
    return counts


def remap(mask, category_map):
    """Map class ids to category ids; every id present must be mapped. The
    result is int64, so a category id need not fit the mask's dtype."""
    mask = np.asarray(mask)
    ids = np.unique(mask)
    for cls in ids:
        if int(cls) not in category_map:
            raise DataError(f"class id {int(cls)} missing from category map")
    cats = np.array([category_map[int(cls)] for cls in ids], dtype=np.int64)
    return cats[np.searchsorted(ids, mask)]


def precision_recall_f(counts, cls=FOREGROUND):
    tp, fp, fn = counts.get(cls)
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0, 1.0, 1.0
    p = tp / (tp + fp) if tp + fp else 1.0
    r = tp / (tp + fn) if tp + fn else 1.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def iou(counts, cls=FOREGROUND):
    tp, fp, fn = counts.get(cls)
    denom = tp + fp + fn
    return tp / denom if denom else 1.0


def mean_class_iou(counts, class_set=None):
    """Arithmetic mean of per-class IoUs; classes absent from both pred and
    truth across the eval set are excluded."""
    if class_set is None:
        class_set = counts.classes()
    vals = []
    for cls in class_set:
        tp, fp, fn = counts.get(cls)
        if tp + fp + fn == 0:
            continue
        vals.append(tp / (tp + fp + fn))
    return float(np.mean(vals)) if vals else 1.0


def category_iou(pairs, category_map):
    """Per-category and mean IoU, tallied after remapping both masks.

    pairs is a non-empty iterable of (pred, truth) mask pairs.
    """
    counts = _pooled_counts(pairs, category_map)
    per_category = {}
    for cat in counts.classes():
        tp, fp, fn = counts.get(cat)
        if tp + fp + fn == 0:
            continue
        per_category[cat] = tp / (tp + fp + fn)
    mean = float(np.mean(list(per_category.values()))) if per_category else 1.0
    return per_category, mean


def binary_report(counts):
    p, r, f = precision_recall_f(counts)
    return {"precision": p, "recall": r, "f_measure": f, "iou": iou(counts)}


def evaluate_masks(pairs, per_frame=False):
    """Binary metrics over (pred, truth) pairs: pooled counts by default, or
    the per-frame average of frame-level metrics. No pairs is a DataError:
    an empty evaluation set has no score."""
    if not per_frame:
        return binary_report(_pooled_counts(pairs))
    rows = []
    for pred, truth in pairs:
        rows.append(binary_report(accumulate(pred, truth)))
    if not rows:
        raise DataError("no mask pairs to evaluate")
    return {k: float(np.mean([r[k] for r in rows])) for k in rows[0]}

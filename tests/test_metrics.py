"""Metric tests: brute-force per-pixel oracles and edge-case conventions."""

import numpy as np
import numpy.testing as npt
import pytest

from rfcn.errors import DataError, ShapeError
from rfcn.metrics import (ConfusionCounts, accumulate, binary_report,
                          category_iou, evaluate_masks, iou, mean_class_iou,
                          precision_recall_f, remap)
from rfcn.tensor import Rng


def brute_counts(pred, truth, cls):
    tp = fp = fn = 0
    for p, t in zip(pred.ravel(), truth.ravel()):
        if p == cls and t == cls:
            tp += 1
        elif p == cls:
            fp += 1
        elif t == cls:
            fn += 1
    return tp, fp, fn


def test_accumulate_matches_brute_force():
    rng = Rng(300)
    for _ in range(30):
        pred = (rng.uniform(0, 1, (9, 11)) > 0.5).astype(np.int64)
        truth = (rng.uniform(0, 1, (9, 11)) > 0.5).astype(np.int64)
        counts = accumulate(pred, truth)
        for cls in (0, 1):
            assert counts.get(cls) == brute_counts(pred, truth, cls)


def test_accumulate_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        accumulate(np.zeros((3, 3)), np.zeros((4, 4)))


def test_precision_recall_f_invariants():
    rng = Rng(301)
    for _ in range(50):
        pred = (rng.uniform(0, 1, (8, 8)) > rng.uniform(0.1, 0.9)).astype(int)
        truth = (rng.uniform(0, 1, (8, 8)) > rng.uniform(0.1, 0.9)).astype(int)
        counts = accumulate(pred, truth)
        p, r, f = precision_recall_f(counts)
        j = iou(counts)
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12
        assert f >= j - 1e-12


def test_empty_vs_empty_scores_one():
    counts = accumulate(np.zeros((4, 4), int), np.zeros((4, 4), int))
    assert precision_recall_f(counts) == (1.0, 1.0, 1.0)
    assert iou(counts) == 1.0


def test_nonempty_vs_empty_scores_zero():
    pred = np.ones((4, 4), int)
    counts = accumulate(pred, np.zeros((4, 4), int))
    p, r, f = precision_recall_f(counts)
    assert p == 0.0 and f == 0.0
    assert iou(counts) == 0.0


def test_merge_equals_joint_accumulation():
    rng = Rng(302)
    a_pred = (rng.uniform(0, 1, (6, 6)) > 0.5).astype(int)
    a_tr = (rng.uniform(0, 1, (6, 6)) > 0.5).astype(int)
    b_pred = (rng.uniform(0, 1, (6, 6)) > 0.5).astype(int)
    b_tr = (rng.uniform(0, 1, (6, 6)) > 0.5).astype(int)
    joint = accumulate(b_pred, b_tr, accumulate(a_pred, a_tr))
    merged = accumulate(a_pred, a_tr).merge(accumulate(b_pred, b_tr))
    for cls in joint.classes():
        assert joint.get(cls) == merged.get(cls)


def test_remap_requires_complete_map():
    mask = np.array([[0, 1], [2, 0]])
    out = remap(mask, {0: 0, 1: 7, 2: 7})
    assert set(np.unique(out)) == {0, 7}
    with pytest.raises(DataError):
        remap(mask, {0: 0, 1: 7})


def test_category_iou_remaps_before_tallying():
    # classes 1 and 2 belong to one category: confusing them is not an error
    pred = np.array([[1, 1], [0, 0]])
    truth = np.array([[2, 2], [0, 0]])
    cmap = {0: 0, 1: 1, 2: 1}
    per_cat, mean = category_iou([(pred, truth)], cmap)
    assert per_cat[1] == 1.0
    assert per_cat[0] == 1.0
    assert mean == 1.0
    # without the category view the same pair scores zero on class 1
    counts = accumulate(pred, truth)
    assert iou(counts, 1) == 0.0


def test_category_iou_takes_category_ids_beyond_the_mask_dtype():
    """A uint8 mask maps to category ids it cannot hold itself."""
    pred = np.array([[1, 2], [0, 0]], dtype=np.uint8)
    truth = np.array([[1, 1], [0, 2]], dtype=np.uint8)
    cmap = {0: 0, 1: 300, 2: 300}
    npt.assert_array_equal(remap(pred, cmap), [[300, 300], [0, 0]])
    per_cat, mean = category_iou([(pred, truth)], cmap)
    assert per_cat == {0: 0.5, 300: 2 / 3}
    assert mean == pytest.approx((0.5 + 2 / 3) / 2)


def test_mean_class_iou_skips_absent_classes():
    counts = ConfusionCounts(tp={1: 5, 3: 0}, fp={1: 0, 3: 0}, fn={1: 5, 3: 0})
    assert mean_class_iou(counts) == 0.5  # class 3 never occurred


def test_evaluate_masks_pooled_vs_per_frame():
    rng = Rng(303)
    pairs = []
    for _ in range(5):
        pairs.append(((rng.uniform(0, 1, (5, 5)) > 0.5).astype(int),
                      (rng.uniform(0, 1, (5, 5)) > 0.5).astype(int)))
    pooled = evaluate_masks(pairs)
    counts = ConfusionCounts()
    for p, t in pairs:
        accumulate(p, t, counts)
    assert pooled == binary_report(counts)
    per_frame = evaluate_masks(pairs, per_frame=True)
    frames = [binary_report(accumulate(p, t)) for p, t in pairs]
    for key in pooled:
        assert per_frame[key] == pytest.approx(
            np.mean([fr[key] for fr in frames]))


def test_evaluate_masks_empty_per_frame_raises():
    with pytest.raises(DataError):
        evaluate_masks([], per_frame=True)


def test_no_pairs_is_data_error():
    """An empty evaluation set has no score; pooled metrics used to read 1.0."""
    for pairs in ([], iter(())):
        with pytest.raises(DataError):
            evaluate_masks(pairs)
    with pytest.raises(DataError):
        category_iou([], {0: 0, 1: 1})

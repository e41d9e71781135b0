"""Metric tests: brute-force per-pixel oracles and edge-case conventions."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rfcn.errors import DataError, ShapeError
from rfcn.metrics import (ConfusionCounts, accumulate, binary_report,
                          category_iou, evaluate_masks, iou, mean_class_iou,
                          precision_recall_f)
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


def test_accumulate_rejects_masks_that_are_not_class_ids():
    ids = np.zeros((2, 2), np.int64)
    for bad in (np.zeros((2, 2)), np.zeros((2, 2), bool),
                np.array([[0, -1], [0, 0]]), np.array([[0, 256], [0, 0]])):
        for pred, truth in ((bad, ids), (ids, bad)):
            with pytest.raises(DataError):
                accumulate(pred, truth)
    counts = accumulate(np.full((2, 2), 255, np.uint8), ids.astype(np.uint64))
    assert counts.get(255) == (0, 4, 0) and counts.get(0) == (0, 0, 4)


def tally(pairs, category_map=None):
    """Per-pixel reference: remap each id through category_map (when given),
    then count tp per id, fp per predicted id and fn per true id."""
    tp, fp, fn = Counter(), Counter(), Counter()
    for pred, truth in pairs:
        for p, t in zip(pred.ravel().tolist(), truth.ravel().tolist()):
            if category_map is not None:
                p, t = category_map[p], category_map[t]
            if p == t:
                tp[p] += 1
            else:
                fp[p] += 1
                fn[t] += 1
    classes = sorted(set(tp) | set(fp) | set(fn))
    return {c: (tp[c], fp[c], fn[c]) for c in classes}


def reference_ious(counts):
    return {c: tp / (tp + fp + fn) for c, (tp, fp, fn) in counts.items()}


@st.composite
def mask_pairs(draw):
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    hi = draw(st.sampled_from([1, 3, 255]))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 6)))
    masks = arrays(dtype, shape, elements=st.integers(0, hi))
    return [(draw(masks), draw(masks)) for _ in range(draw(st.integers(1, 3)))]


@given(mask_pairs(), st.lists(st.integers(0, 300), min_size=256, max_size=256))
def test_confusion_matrix_matches_per_pixel_tally(pairs, categories):
    """get, mean_class_iou and category_iou against a per-pixel tally over
    uint8 and int64 masks with ids up to 255; category ids may exceed 255."""
    counts = ConfusionCounts()
    for pred, truth in pairs:
        accumulate(pred, truth, counts)
    ref = tally(pairs)
    assert counts.classes() == list(ref)
    for cls in range(257):
        assert counts.get(cls) == ref.get(cls, (0, 0, 0))
    ious = reference_ious(ref)
    assert mean_class_iou(counts) == float(np.mean(list(ious.values())))
    cmap = dict(enumerate(categories))
    per_cat, mean = category_iou(iter(pairs), cmap)
    ref_cat = reference_ious(tally(pairs, cmap))
    assert per_cat == ref_cat
    assert mean == float(np.mean(list(ref_cat.values())))


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
    assert iou(counts) == 0.0


def test_remap_requires_complete_map():
    # every class id present needs a category, in the prediction or the truth
    mask = np.array([[0, 1], [2, 0]])
    assert category_iou([(mask, mask)], {0: 0, 1: 7, 2: 7}) == ({0: 1.0, 7: 1.0}, 1.0)
    for pair in ((mask, mask), (mask, np.zeros_like(mask)),
                 (np.zeros_like(mask), mask)):
        with pytest.raises(DataError):
            category_iou([pair], {0: 0, 1: 7})


def test_category_iou_takes_category_ids_beyond_the_mask_dtype():
    """A uint8 mask maps to category ids it cannot hold itself."""
    pred = np.array([[1, 2], [0, 0]], dtype=np.uint8)
    truth = np.array([[1, 1], [0, 2]], dtype=np.uint8)
    cmap = {0: 0, 1: 300, 2: 300}
    per_cat, mean = category_iou([(pred, truth)], cmap)
    assert per_cat == {0: 0.5, 300: 2 / 3}
    assert mean == pytest.approx((0.5 + 2 / 3) / 2)


def test_mean_class_iou_skips_absent_classes():
    # class 1: tp 5, fn 5; class 0: fp 5; class 4: tp 1; 2 and 3 never occur
    truth = np.array([1] * 10 + [4])
    pred = np.array([1] * 5 + [0] * 5 + [4])
    counts = accumulate(pred, truth)
    assert counts.classes() == [0, 1, 4]
    assert mean_class_iou(counts) == 0.5


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

"""Training tests: loss oracles, Adadelta against a scalar reference, the
epoch loop, freezing, and early stopping."""

import numpy as np
import numpy.testing as npt
import pytest

from rfcn import data as D
from rfcn import metrics
from rfcn.errors import ConfigError, DataError, DivergenceError
from rfcn.model import (ArchitectureConfig, LayerSpec, RecurrentSpec,
                        init_model)
from rfcn.tensor import Rng, sigmoid
from rfcn.training import (AdadeltaState, SgdState, TrainConfig, TrainLog,
                           adadelta_step, binary_target, evaluate,
                           logistic_loss, logits_to_mask,
                           multiclass_cross_entropy, predict, sgd_step, train)


def tiny_config(window=2):
    return ArchitectureConfig(
        name="tiny", input_shape=(1, 6, 6), num_classes=1, window=window,
        pre=[LayerSpec("conv", size=3, pad=1, depth=2),
             LayerSpec("relu"),
             LayerSpec("flatten")],
        recurrent=RecurrentSpec("gru", hidden=36),
        post=[LayerSpec("unflatten", target_shape=(1, 6, 6))],
    )


def tiny_samples(n, rng, length=4, window=2):
    digits, labels = D.builtin_digits()
    small = digits[:, ::5, ::5][:, :6, :6]  # crop glyphs to 6x6
    samples = []
    for r in rng.split(n):
        seq = D.gen_moving_mnist(small, labels, None, length, r, max_offset=2.0)
        samples.extend(D.sliding_windows(seq, window))
    return samples


# ---------------------------------------------------------------------------
# Losses


def test_logistic_loss_matches_naive_formula():
    rng = Rng(500)
    logits = rng.uniform(-4, 4, (5, 5))
    target = (rng.uniform(0, 1, (5, 5)) > 0.5).astype(np.int64)
    loss, grad = logistic_loss(logits, target)
    p = sigmoid(logits)
    naive = -(target * np.log(p) + (1 - target) * np.log(1 - p)).mean()
    assert loss == pytest.approx(naive, rel=1e-10)
    npt.assert_allclose(grad, (p - target) / logits.size, atol=1e-12)


def test_logistic_loss_stable_for_huge_logits():
    logits = np.array([[1000.0, -1000.0]])
    target = np.array([[1, 0]])
    loss, grad = logistic_loss(logits, target)
    assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(grad))


def test_logistic_loss_gradient_finite_difference():
    rng = Rng(501)
    logits = rng.uniform(-2, 2, (4, 4))
    target = (rng.uniform(0, 1, (4, 4)) > 0.5).astype(np.int64)
    _, grad = logistic_loss(logits, target)
    eps = 1e-6
    for idx in [(0, 0), (1, 2), (3, 3)]:
        orig = logits[idx]
        logits[idx] = orig + eps
        fp, _ = logistic_loss(logits, target)
        logits[idx] = orig - eps
        fm, _ = logistic_loss(logits, target)
        logits[idx] = orig
        npt.assert_allclose(grad[idx], (fp - fm) / (2 * eps), rtol=1e-5)


def test_logistic_loss_accepts_leading_class_axis():
    rng = Rng(502)
    logits = rng.uniform(-1, 1, (1, 3, 3))
    target = np.ones((3, 3), dtype=np.int64)
    loss, grad = logistic_loss(logits, target)
    assert grad.shape == (1, 3, 3)


def test_logistic_loss_rejects_nonbinary_targets():
    with pytest.raises(DataError):
        logistic_loss(np.zeros((2, 2)), np.full((2, 2), 3))


def test_cross_entropy_matches_naive_and_fd():
    rng = Rng(503)
    logits = rng.uniform(-2, 2, (4, 3, 3))
    target = np.array([[0, 1, 2], [3, 0, 1], [2, 3, 0]])
    loss, grad = multiclass_cross_entropy(logits, target)
    ex = np.exp(logits - logits.max(axis=0))
    sm = ex / ex.sum(axis=0)
    picked = np.take_along_axis(sm, target[None], axis=0)[0]
    assert loss == pytest.approx(-np.log(picked).mean(), rel=1e-10)
    eps = 1e-6
    orig = logits[1, 1, 1]
    logits[1, 1, 1] = orig + eps
    fp, _ = multiclass_cross_entropy(logits, target)
    logits[1, 1, 1] = orig - eps
    fm, _ = multiclass_cross_entropy(logits, target)
    logits[1, 1, 1] = orig
    npt.assert_allclose(grad[1, 1, 1], (fp - fm) / (2 * eps), rtol=1e-5)


def test_cross_entropy_rejects_out_of_range_class():
    with pytest.raises(DataError):
        multiclass_cross_entropy(np.zeros((2, 2, 2)), np.full((2, 2), 5))


# ---------------------------------------------------------------------------
# Optimizers


def scalar_adadelta(grads, rho=0.95, eps=1e-6):
    """Independent scalar Adadelta, accumulated step by step."""
    eg = ed = 0.0
    xs = []
    x = 0.0
    for g in grads:
        eg = rho * eg + (1 - rho) * g * g
        dx = -np.sqrt(ed + eps) / np.sqrt(eg + eps) * g
        ed = rho * ed + (1 - rho) * dx * dx
        x += dx
        xs.append(x)
    return xs


def test_adadelta_first_step_magnitude():
    # g=1, rho=0.95, eps=1e-6: dx = -sqrt(1e-6)/sqrt(0.05+1e-6) ~ -4.4721e-3
    params = {"x": np.zeros(1, dtype=np.float64)}
    state = AdadeltaState()
    adadelta_step(params, {"x": np.ones(1)}, state)
    assert params["x"][0] == pytest.approx(-4.4721e-3, rel=1e-4)


def test_adadelta_trajectory_matches_scalar_oracle():
    """Quadratic f(x) = (x-3)^2/2 minimized for 100 steps."""
    params = {"x": np.zeros(1, dtype=np.float64)}
    state = AdadeltaState()
    ref_grads = []
    xs = []
    for _ in range(100):
        g = params["x"][0] - 3.0
        ref_grads.append(g)
        adadelta_step(params, {"x": np.array([g])}, state)
        xs.append(params["x"][0])
    ref = scalar_adadelta(ref_grads)
    npt.assert_allclose(xs, ref, atol=1e-12)


def test_adadelta_shape_mismatch_raises():
    from rfcn.errors import ShapeError
    with pytest.raises(ShapeError):
        adadelta_step({"x": np.zeros(3)}, {"x": np.zeros(4)}, AdadeltaState())


def test_sgd_step():
    params = {"x": np.array([1.0, 2.0])}
    sgd_step(params, {"x": np.array([0.5, -0.5])}, SgdState(lr=0.2))
    npt.assert_allclose(params["x"], [0.9, 2.1])


# ---------------------------------------------------------------------------
# Train config and log


def test_train_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"max_epochs": 5, "learning_rat": 0.1})


def test_train_config_rejects_bad_mode_and_loss():
    with pytest.raises(ConfigError):
        TrainConfig(mode="sideways")
    with pytest.raises(ConfigError):
        TrainConfig(loss="hinge")


def test_train_config_rejects_out_of_range_counts():
    """A batch of 0 used to mean 1, a patience of -1 acted like 1, a phase 1
    of -1 epochs ran max_epochs + 1 epochs in decoupled mode and one longer
    than max_epochs ran phase1_epochs epochs; a count that is not an integer
    failed later with a TypeError."""
    for field, value in (("max_epochs", -1), ("batch_size", 0), ("patience", -1),
                         ("phase1_epochs", -1), ("max_epochs", "3"),
                         ("patience", None)):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({field: value})
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=2, phase1_epochs=5, mode="decoupled")
    TrainConfig(max_epochs=0, batch_size=1, patience=0, phase1_epochs=0)
    TrainConfig(max_epochs=2, phase1_epochs=2, mode="decoupled")


def test_train_log_csv_layout():
    log = TrainLog()
    log.append(0, 0.5, {"precision": 1.0, "recall": 0.5, "f_measure": 2 / 3,
                        "iou": 0.5}, 1.23)
    text = log.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,loss,precision,recall,f_measure,iou"
    assert lines[1].startswith("0,0.500000,1.000000,0.500000,")
    assert "1.23" not in text  # wall clock stays out of the log


# ---------------------------------------------------------------------------
# Train loop


def test_train_reduces_loss_and_is_deterministic():
    rng = Rng(504)
    samples = tiny_samples(6, rng)
    cfg = TrainConfig(max_epochs=5, patience=0, seed=3)
    m1, log1 = train(init_model(tiny_config(), Rng(0)), samples, cfg)
    m2, log2 = train(init_model(tiny_config(), Rng(0)), samples, cfg)
    assert log1.to_csv() == log2.to_csv()
    for k in m1.params:
        assert m1.params[k].tobytes() == m2.params[k].tobytes()
    assert log1.rows[-1]["loss"] < log1.rows[0]["loss"]


def test_train_empty_dataset_raises():
    with pytest.raises(DataError):
        train(init_model(tiny_config(), Rng(0)), [], TrainConfig(max_epochs=1))


def test_train_freeze_pattern_must_match():
    rng = Rng(505)
    samples = tiny_samples(2, rng)
    cfg = TrainConfig(max_epochs=1, freeze=["nonexistent.*"])
    with pytest.raises(ConfigError):
        train(init_model(tiny_config(), Rng(0)), samples, cfg)


def test_train_frozen_tensors_do_not_move():
    rng = Rng(506)
    samples = tiny_samples(3, rng)
    m = init_model(tiny_config(), Rng(0))
    before = {k: v.copy() for k, v in m.params.items()}
    cfg = TrainConfig(max_epochs=2, patience=0, freeze=["pre.0.*"])
    m, _ = train(m, samples, cfg)
    npt.assert_array_equal(m.params["pre.0.conv.weights"],
                           before["pre.0.conv.weights"])
    assert m.params["cell.w_h"].tobytes() != before["cell.w_h"].tobytes()


def test_decoupled_phase1_freezes_trunk():
    rng = Rng(507)
    samples = tiny_samples(3, rng)
    m = init_model(tiny_config(), Rng(0))
    before = {k: v.copy() for k, v in m.params.items()}
    # phase 2 gets zero epochs, so only the cell may move
    cfg = TrainConfig(max_epochs=2, patience=0, mode="decoupled",
                      phase1_epochs=2)
    m, _ = train(m, samples, cfg)
    for k, v in m.params.items():
        if k.startswith("cell."):
            continue
        assert v.tobytes() == before[k].tobytes(), k
    assert m.params["cell.w_h"].tobytes() != before["cell.w_h"].tobytes()


def test_decoupled_needs_recurrent_node():
    cfg_arch = tiny_config()
    cfg_arch.recurrent = None
    cfg_arch.pre = cfg_arch.pre[:2]
    cfg_arch.post = [LayerSpec("conv1x1", depth=1)]
    samples = tiny_samples(2, Rng(508))
    with pytest.raises(ConfigError):
        train(init_model(cfg_arch, Rng(0)), samples,
              TrainConfig(max_epochs=1, mode="decoupled"))


def test_early_stopping_cuts_epochs():
    rng = Rng(509)
    samples = tiny_samples(3, rng)
    cfg = TrainConfig(max_epochs=50, patience=2, seed=1)
    _, log = train(init_model(tiny_config(), Rng(0)), samples, cfg)
    assert len(log.rows) < 50


def test_divergence_raises_with_model_attached():
    rng = Rng(510)
    samples = tiny_samples(2, rng)
    m = init_model(tiny_config(), Rng(0))
    m.params["cell.b"] = np.full_like(m.params["cell.b"], np.nan)
    with pytest.raises((DivergenceError, Exception)):
        train(m, samples, TrainConfig(max_epochs=1))


def test_predict_and_evaluate_shapes():
    rng = Rng(511)
    samples = tiny_samples(2, rng)
    m = init_model(tiny_config(), Rng(0))
    mask = predict(m, samples[0].frames)
    assert mask.shape == samples[0].target.shape
    assert set(np.unique(mask)) <= {0, 1}
    report = evaluate(m, samples)
    assert set(report) == {"precision", "recall", "f_measure", "iou"}


def test_masks_are_uint8_class_maps():
    """binary_target, logits_to_mask and predict make uint8 masks, for a
    binary and for a 5-class model."""
    target = np.array([[0, 3], [1, 0]], dtype=np.int64)
    bt = binary_target(target)
    assert bt.dtype == np.uint8
    npt.assert_array_equal(bt, [[0, 1], [1, 0]])
    samples = tiny_samples(1, Rng(512))
    binary = init_model(tiny_config(), Rng(0))
    five = init_model(ArchitectureConfig(
        name="tiny-5", input_shape=(1, 6, 6), num_classes=5, window=2,
        pre=[LayerSpec("conv", size=3, pad=1, depth=5)], recurrent=None, post=[]),
        Rng(0))
    logits = Rng(513).uniform(-3, 3, (5, 6, 6))
    mask = logits_to_mask(five, logits)
    assert mask.dtype == np.uint8
    npt.assert_array_equal(mask, np.argmax(logits, axis=0))
    assert logits_to_mask(binary, logits[:1]).dtype == np.uint8
    for model, classes in ((binary, 2), (five, 5)):
        mask = predict(model, samples[0].frames)
        assert mask.dtype == np.uint8
        assert mask.shape == samples[0].target.shape
        assert mask.max() < classes


def test_evaluate_matches_evaluate_masks_on_listed_pairs():
    samples = tiny_samples(2, Rng(514))
    m = init_model(tiny_config(), Rng(1))
    pairs = [(predict(m, s.frames), binary_target(s.target)) for s in samples]
    for per_frame in (False, True):
        assert evaluate(m, samples, per_frame=per_frame) == \
            metrics.evaluate_masks(pairs, per_frame=per_frame)


def test_evaluate_without_samples_is_data_error():
    m = init_model(tiny_config(), Rng(1))
    for per_frame in (False, True):
        with pytest.raises(DataError):
            evaluate(m, [], per_frame=per_frame)


def test_evaluate_runs_each_frames_trunk_once(monkeypatch):
    """Sliding windows over two sequences of L frames run the first trunk
    conv once per frame (2L), not T times per window; one predict call
    still runs it T times."""
    import rfcn.model as model_mod
    length, window = 6, 3
    m = init_model(tiny_config(window=window), Rng(2))
    samples = tiny_samples(2, Rng(515), length=length, window=window)
    calls = []
    real = model_mod.conv2d_forward

    def counted(x, k):
        if k.weights is m.params["pre.0.conv.weights"]:
            calls.append(x.shape)
        return real(x, k)

    monkeypatch.setattr(model_mod, "conv2d_forward", counted)
    evaluate(m, samples)
    assert len(calls) == 2 * length
    calls.clear()
    predict(m, samples[0].frames)
    assert len(calls) == window

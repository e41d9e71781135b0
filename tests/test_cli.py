"""End-to-end CLI tests: gen-data / train / eval / predict round trips and
exit codes."""

import itertools
import json
import os
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest

from rfcn.cli import EXIT_VERIFY, main
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


def tiny_ckpt(tmp_path):
    """An untrained checkpoint of tiny_arch's net."""
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(init_model(ArchitectureConfig.from_json(
        open(tiny_arch(tmp_path)).read()), Rng(4)), path)
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


def test_predict_rejects_frames_of_the_wrong_size(tmp_path, capsys):
    """Windowed and streamed predict both exit 1 on frames the checkpoint's
    input shape does not take, name the first such frame by its index in the
    sequence, and create no output directory. The nets are fully
    convolutional, so nothing but the frame check stops a 56x56 frame."""
    from rfcn import data
    sequences = {"all": [56] * 4, "fourth": [28, 28, 28, 56, 28, 28]}
    for tag, sizes in sequences.items():
        os.makedirs(tmp_path / tag)
        for t, size in enumerate(sizes):
            data.write_pgm(str(tmp_path / tag / f"frame_{t:04d}.pgm"),
                           np.zeros((size, size), dtype=np.float32))
    for recurrent in (None, RecurrentSpec("conv_gru", hidden=2, kernel=3)):
        cfg = ArchitectureConfig(
            name="cli-conv", input_shape=(1, 28, 28), num_classes=1, window=3,
            pre=[LayerSpec("conv", size=3, pad=1, depth=2), LayerSpec("relu")],
            recurrent=recurrent, post=[LayerSpec("conv1x1", depth=1)])
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(init_model(cfg, Rng(4)), ckpt)
        for (tag, sizes), flags in itertools.product(sequences.items(),
                                                      ([], ["--stream"])):
            case = (recurrent, tag, flags)
            out = str(tmp_path / "masks")
            capsys.readouterr()
            rc = main(["predict", "--ckpt", ckpt, "--frames", str(tmp_path / tag),
                       "--out", out] + flags)
            assert rc == 1, case
            assert f"frame {sizes.index(56)} shape" in capsys.readouterr().err, case
            assert not os.path.exists(out), case


def test_predict_rejects_frame_directories_it_cannot_read(tmp_path, capsys):
    """Frames that are not 8-bit PGM/PPM images of the checkpoint's shape
    exit 1 with one error line, windowed or streamed, and create no output
    directory: a non-image file, a subdirectory, a 16-bit PGM, a colour
    frame among grey ones, an empty directory and a missing one."""
    from rfcn import data
    ckpt = tiny_ckpt(tmp_path)
    grey = np.zeros((28, 28), dtype=np.uint8)

    def frames(tag, extra=None):
        d = tmp_path / tag
        os.makedirs(d)
        for t in range(3):
            data.write_pgm(str(d / f"frame_{t:04d}.pgm"), grey)
        if extra is not None:
            extra(d / "frame_0001b")
        return d

    cases = {
        "text": frames("text", lambda p: p.with_suffix(".txt").write_text("hi\n")),
        "subdir": frames("subdir", os.makedirs),
        "maxval": frames("maxval", lambda p: p.with_suffix(".pgm").write_bytes(
            b"P5\n28 28\n65535\n" + bytes(2 * 28 * 28))),
        "colour": frames("colour", lambda p: data.write_ppm(
            str(p.with_suffix(".ppm")), np.zeros((3, 28, 28), dtype=np.uint8))),
        "empty": tmp_path / "empty",
        "missing": tmp_path / "missing",
    }
    os.makedirs(cases["empty"])
    for (tag, d), flags in itertools.product(cases.items(), ([], ["--stream"])):
        out = tmp_path / "masks"
        capsys.readouterr()
        rc = main(["predict", "--ckpt", ckpt, "--frames", str(d),
                   "--out", str(out)] + flags)
        err = capsys.readouterr().err
        assert rc == 1, (tag, flags)
        assert err.startswith("error: ") and err.count("\n") == 1, (tag, err)
        assert not out.exists(), (tag, flags)


def test_malformed_manifest_exits_1(tmp_path, dataset, capsys):
    """A manifest that is not an object holding a list of well-formed
    sequence entries is one error line and exit 1, not a traceback, and a
    misspelt split is not silently dropped from both splits. So is a
    manifest that is not UTF-8, such as a checkpoint given as --data."""
    doc = json.load(open(dataset))
    base = os.path.dirname(dataset)
    ckpt = tiny_ckpt(tmp_path)

    def entry(**edit):
        seqs = [dict(s) for s in doc["sequences"]]
        seqs[0].update(edit)
        for k in [k for k, v in edit.items() if v is None]:
            del seqs[0][k]
        return dict(doc, sequences=seqs)

    cases = {
        "list": [1], "string-sequences": dict(doc, sequences="seq_00000"),
        "no-sequences": {"mode": "binary"},
        "entry-not-object": dict(doc, sequences=[1]),
        "no-id": entry(id=None), "int-id": entry(id=3),
        "no-dir": entry(dir=None), "list-dir": entry(dir=["seq_00000"]),
        "no-length": entry(length=None), "negative-length": entry(length=-1),
        "string-length": entry(length="3"), "float-length": entry(length=3.0),
        "bool-length": entry(length=True), "misspelt-split": entry(split="tset"),
        "utf16-bom": b"\xff\xfe{}", "checkpoint": open(ckpt, "rb").read(),
    }
    for tag, bad in cases.items():
        manifest = os.path.join(base, f"{tag}.json")
        with open(manifest, "wb") as f:
            f.write(bad if isinstance(bad, bytes) else json.dumps(bad).encode())
        report = tmp_path / f"{tag}.report.json"
        rc = main(["eval", "--ckpt", ckpt, "--data", manifest, "--report", str(report),
                   "--split", "train"])
        err = capsys.readouterr().err
        assert rc == 1, tag
        assert err.startswith("error: ") and err.count("\n") == 1, (tag, err)
        assert not report.exists(), tag


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
    ckpt = tiny_ckpt(tmp_path)
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


def test_eval_scores_multiclass_ids_as_foreground(tmp_path, monkeypatch):
    """A multiclass model's ids are scored foreground (id > 0) against
    background on both sides: logits one-hot on every pixel's true id of a
    semantic set score 1.0, pooled and per frame."""
    from rfcn import data, training
    out = str(tmp_path / "data")
    assert main(["gen-data", "--out", out, "--sequences", "4", "--length", "3",
                 "--seed", "5", "--train", "3", "--mode", "semantic"]) == 0
    manifest = os.path.join(out, "manifest.json")
    truth = {f.tobytes(): m for s in data.load_manifest_sequences(manifest)
             for f, m in zip(s.frames, s.masks)}
    assert len({int(c) for m in truth.values() for c in np.unique(m)}) > 2

    def one_hot(model, windows):
        for frames in windows:
            ids = truth[frames[-1].tobytes()]
            yield np.eye(11, dtype=np.float32)[ids].transpose(2, 0, 1)

    monkeypatch.setattr(training, "forward_windows", one_hot)
    cfg = ArchitectureConfig(
        name="semantic", input_shape=(1, 28, 28), num_classes=11, window=3,
        pre=[LayerSpec("conv1x1", depth=11)], recurrent=None, post=[])
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(init_model(cfg, Rng(5)), ckpt)
    report = str(tmp_path / "r.json")
    for split, flags in itertools.product(("train", "test"), ([], ["--per-frame"])):
        assert main(["eval", "--ckpt", ckpt, "--data", manifest, "--report", report,
                     "--split", split] + flags) == 0
        assert json.load(open(report)) == dict.fromkeys(
            ("f_measure", "iou", "precision", "recall"), 1.0), (split, flags)


def test_train_on_a_semantic_set_needs_no_train_config(tmp_path):
    """The loss follows num_classes: a multiclass net trains on a semantic
    set's class ids with no train config file, and a train config that
    still names a loss fails as an unknown key."""
    out = str(tmp_path / "data")
    assert main(["gen-data", "--out", out, "--sequences", "3", "--length", "3",
                 "--seed", "5", "--train", "2", "--mode", "semantic"]) == 0
    cfg = ArchitectureConfig(
        name="semantic", input_shape=(1, 28, 28), num_classes=11, window=3,
        pre=[LayerSpec("conv", size=3, pad=1, depth=11)], recurrent=None, post=[])
    arch, train_cfg = str(tmp_path / "arch.json"), str(tmp_path / "train.json")
    with open(arch, "w") as f:
        f.write(cfg.to_json())
    with open(train_cfg, "w") as f:
        json.dump({"loss": "multiclass-cross-entropy"}, f)
    ckpt = str(tmp_path / "m.ckpt")
    args = ["train", "--arch", arch, "--data", os.path.join(out, "manifest.json"),
            "--out", ckpt, "--max-epochs", "1", "--patience", "0"]
    assert main(args) == 0
    assert load_checkpoint(ckpt).config.num_classes == 11
    assert main(args + ["--config", train_cfg]) == 2


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
    # eval without a checkpoint: argparse exits
    with pytest.raises(SystemExit) as info:
        main(["eval", "--data", dataset, "--report", str(tmp_path / "r.json")])
    assert info.value.code == 2
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


def test_malformed_architecture_file_exits_2(tmp_path, dataset, capsys):
    """A malformed --arch file is one error line and exit 2: no traceback,
    and no key the config does not have is dropped without a word. So is a
    layer whose parameters have an empty dimension or more elements than a
    float64 array can index."""
    doc = json.load(open(tiny_arch(tmp_path)))
    no_name = {k: v for k, v in doc.items() if k != "name"}

    def changed(**first_conv):
        d = json.loads(json.dumps(doc))
        d["pre"][0].update(first_conv)
        return json.dumps(d)

    huge = dict(doc, input_shape=[2 ** 31, 4, 4],
                pre=[{"kind": "conv", "size": 4, "depth": 2 ** 31},
                     {"kind": "deconv", "size": 4, "depth": 1}],
                recurrent=None, post=[])
    for name, text in (("invalid", '{"name": "cli-tiny",'), ("list", "[1, 2]"),
                       ("no-name", json.dumps(no_name)),
                       ("string-size", changed(size="3")),
                       ("misspelt-stride", changed(strides=2)),
                       ("zero-depth", changed(depth=0)),
                       ("zero-size", changed(size=0, stride=2, pad=13)),
                       ("too-many-weights", json.dumps(huge))):
        arch = tmp_path / f"{name}.json"
        arch.write_text(text)
        out = tmp_path / f"{name}.ckpt"
        rc = main(["train", "--arch", str(arch), "--data", dataset,
                   "--out", str(out), "--max-epochs", "1"])
        err = capsys.readouterr().err
        assert rc == 2, name
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
        assert not out.exists()


def test_gradcheck_prints_every_group_and_exits_4_over_tolerance(capsys, monkeypatch):
    from rfcn import gradcheck
    reports = []
    run_audit = gradcheck.run_audit
    monkeypatch.setattr(gradcheck, "run_audit",
                        lambda **kw: reports.append(run_audit(**kw)) or reports[-1])
    assert main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == sorted(reports[0][0])
    assert all(line.endswith("  ok") for line in lines[:-1])
    assert lines[-1].startswith("max relative error: ")
    assert lines[-1].endswith("(tolerance 0.0001)")
    assert main(["gradcheck", "--tol", "0"]) == EXIT_VERIFY


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


def test_checkpoint_with_a_non_utf8_name_exits_1(tmp_path, dataset, capsys):
    cfg = ArchitectureConfig.from_json(open(tiny_arch(tmp_path)).read())
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(init_model(cfg, Rng(3)), ckpt)
    blob = bytearray(open(ckpt, "rb").read())
    blob[blob.index(b"pre.0.conv.weights")] = 0xFF
    open(ckpt, "wb").write(bytes(blob))
    rc = main(["eval", "--ckpt", ckpt, "--data", dataset,
               "--report", str(tmp_path / "r.json")])
    assert rc == 1
    assert "unexpected tensor" in capsys.readouterr().err


def test_poisoned_checkpoint_fails_cleanly(tmp_path, dataset, capsys):
    """A NaN in an --init-ckpt is a fault of the input: exit 1 naming the
    tensor before training, with no checkpoint and no debug checkpoint. The
    poisoned file itself still loads, as a diverged run's debug checkpoint
    must."""
    arch = tiny_arch(tmp_path)
    ckpt = str(tmp_path / "m.ckpt")
    # train once, poison a cell bias with NaN, resume from the checkpoint
    rc = main(["train", "--arch", arch, "--data", dataset, "--out", ckpt,
               "--max-epochs", "1", "--patience", "0", "--seed", "1"])
    assert rc == 0
    m = load_checkpoint(ckpt)
    m.params["cell.b"] = np.full_like(m.params["cell.b"], np.nan)
    save_checkpoint(m, ckpt)
    assert np.isnan(load_checkpoint(ckpt).params["cell.b"]).all()
    out = tmp_path / "m2.ckpt"
    capsys.readouterr()
    rc = main(["train", "--arch", arch, "--data", dataset, "--out", str(out),
               "--init-ckpt", ckpt, "--max-epochs", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "cell.b" in captured.err and "epoch" not in captured.out
    assert not out.exists() and not (tmp_path / "m2.ckpt.debug").exists()


def test_out_of_range_counts_exit_2_and_write_nothing(tmp_path, dataset, capsys):
    """gen-data with fewer than one sequence or frame, or more training
    sequences than sequences, each exit 2 with one error line and write no
    directory."""
    for flags in (["--sequences", "-1"], ["--sequences", "0"],
                  ["--sequences", "3", "--train", "5"],
                  ["--sequences", "3", "--train", "-1"],
                  ["--sequences", "2", "--length", "0"]):
        out = tmp_path / "gen"
        capsys.readouterr()
        rc = main(["gen-data", "--out", str(out)] + flags)
        err = capsys.readouterr().err
        assert rc == 2, flags
        assert err.startswith("error: ") and err.count("\n") == 1, (flags, err)
        assert not out.exists(), flags


def test_threshold_or_tolerance_out_of_range_exits_2_and_writes_nothing(
        tmp_path, dataset, capsys):
    """A --threshold outside [0, 1] for eval or predict, and a gradcheck
    --tol that is negative or not finite, exit 2 with one error line and
    write nothing. A NaN threshold used to score F = 0 and exit 0, and a NaN
    tolerance failed every audit row."""
    ckpt = tiny_ckpt(tmp_path)
    frames = os.path.join(os.path.dirname(dataset), "seq_00000", "frames")
    out = tmp_path / "out"
    runs = [["gradcheck", f"--tol={tol}"] for tol in ("nan", "inf", "-1e-4")]
    for threshold in ("nan", "-0.1", "1.5"):
        runs += [["eval", "--ckpt", ckpt, "--data", dataset, "--report", str(out),
                  f"--threshold={threshold}"],
                 ["predict", "--ckpt", ckpt, "--frames", frames, "--out", str(out),
                  f"--threshold={threshold}"]]
    for argv in runs:
        capsys.readouterr()
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2, argv
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        assert captured.out == "" and not out.exists(), argv


def test_diverging_training_exits_3_with_a_debug_checkpoint(tmp_path, capsys, monkeypatch):
    """An optimizer step that scales every parameter by 1e30 drives
    fc-lenet's logits to inf. That fails check_finite before any loss is
    non-finite, and used to exit 1 with no debug checkpoint."""
    from rfcn import training
    step = training.adadelta_step

    def exploding_step(params, grads, state):
        step(params, grads, state)
        for v in params.values():
            v *= np.float32(1e30)

    monkeypatch.setattr(training, "adadelta_step", exploding_step)
    data = str(tmp_path / "d")
    assert main(["gen-data", "--out", data, "--sequences", "3", "--length", "4"]) == 0
    out = str(tmp_path / "m.ckpt")
    capsys.readouterr()
    rc = main(["train", "--arch", "fc-lenet", "--data", os.path.join(data, "manifest.json"),
               "--out", out, "--max-epochs", "3", "--patience", "0"])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err
    assert not os.path.exists(out)
    debug = load_checkpoint(out + ".debug")
    assert debug.config.name == "fc-lenet"
    # the diverged weights, not the initial ones
    assert max(np.abs(v).max() for v in debug.params.values()) > 1e6


def test_train_config_of_the_wrong_type_or_range_exits_2(tmp_path, capsys):
    """Each bad train config is one error line and exit 2 before any data
    loads (the manifest does not exist), where it used to end in a numpy
    traceback after set-up, train on a string seed, or end in a
    UnicodeDecodeError traceback for a file that is not UTF-8. The optimizer,
    rho, eps, lr, threshold and freeze settings are gone: a config naming one
    is an unknown key."""
    cfg = tmp_path / "c.json"
    out = str(tmp_path / "m.ckpt")
    removed = ({"rho": "0.9"}, {"threshold": "x"}, {"eps": None},
               {"optimizer": "sgd", "lr": "0.1"}, {"freeze": "pre.*"}, {"eps": 0},
               {"eps": -1}, {"rho": 1.5}, {"lr": 0}, {"optimizer": "adam"})
    for config in removed + ({"seed": "3"}, {"max_epochs": True}, {"batch_size": 0},
                             b"\xff\xfe{}"):
        cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        capsys.readouterr()
        rc = main(["train", "--arch", "fc-lenet", "--data", str(tmp_path / "none.json"),
                   "--config", str(cfg), "--out", out])
        err = capsys.readouterr().err
        assert rc == 2, config
        assert err.startswith("error: ") and err.count("\n") == 1, (config, err)
        assert ("unknown keys" in err) == (config in removed), (config, err)
        assert not os.path.exists(out), config


def test_divergence_exit_3(tmp_path, dataset, monkeypatch):
    from rfcn import cli
    from rfcn.errors import DivergenceError

    def boom(*args, **kwargs):
        raise DivergenceError("loss exploded")

    monkeypatch.setattr(cli, "train", boom)
    rc = main(["train", "--arch", tiny_arch(tmp_path), "--data", dataset,
               "--out", str(tmp_path / "m.ckpt"), "--max-epochs", "1"])
    assert rc == 3

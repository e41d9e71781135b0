"""Command-line entry point.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error,
3 training divergence, 4 verification (gradient audit) failure.
"""

import argparse
import json
import math
import os
import sys

from . import data as data_mod
from . import gradcheck
from .errors import ConfigError, DataError, DivergenceError, RfcnError
from .model import (ArchitectureConfig, PRESET_NAMES, check_frames,
                    forward_stream, forward_windows, init_model, load_checkpoint,
                    load_matching, preset, save_checkpoint, shape_check)
from .tensor import Rng
from .training import MODES, TrainConfig, evaluate, logits_to_mask, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4


def _atomic_write_text(path, text):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _load_arch(spec, window=None):
    if spec in PRESET_NAMES:
        cfg = preset(spec)
    else:
        try:
            with open(spec, "rb") as f:
                cfg = ArchitectureConfig.from_json(f.read())
        except OSError as e:
            raise ConfigError(f"unknown preset and unreadable config file: {e}") from e
    if window is not None:
        cfg.window = window
    shape_check(cfg)
    return cfg


def _check_threshold(threshold):
    if not 0 <= threshold <= 1:
        raise ConfigError(f"--threshold must be in [0, 1], got {threshold}")


def _samples_for(manifest, split, window):
    seqs = data_mod.load_manifest_sequences(manifest, split=split)
    samples = []
    for seq in seqs:
        samples.extend(data_mod.sliding_windows(seq, window))
    return samples


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_data(args):
    digits = labels = None
    if args.mnist_images:
        if not args.mnist_labels:
            raise ConfigError("--mnist-images requires --mnist-labels")
        digits, labels = data_mod.load_mnist_idx(args.mnist_images, args.mnist_labels)
    manifest = data_mod.generate_dataset(
        args.out, args.sequences, args.length, args.seed, n_train=args.train,
        mode=args.mode, digits=digits, labels=labels)
    print(f"wrote {args.sequences} sequences to {args.out} (manifest {manifest})")
    return EXIT_OK


def _train_config(args):
    """The train config file's fields with the CLI flags laid over them,
    validated once as a whole."""
    d = {}
    if args.config:
        try:
            with open(args.config) as f:
                d = json.load(f)
        except (OSError, ValueError) as e:  # bad JSON or not UTF-8
            raise ConfigError(f"cannot read train config: {e}") from e
        if not isinstance(d, dict):
            raise ConfigError("train config must be a JSON object")
    for flag in ("max_epochs", "seed", "mode", "batch_size", "patience"):
        v = getattr(args, flag)
        if v is not None:
            d[flag] = v
    return TrainConfig.from_dict(d)


def cmd_train(args):
    arch = _load_arch(args.arch, window=args.window)
    cfg = _train_config(args)
    model = init_model(arch, Rng(cfg.seed))
    if args.init_ckpt:
        copied = load_matching(model, args.init_ckpt)
        print(f"loaded {len(copied)} tensors from {args.init_ckpt}")
    train_samples = _samples_for(args.data, "train", arch.window)
    val_samples = _samples_for(args.data, "test", arch.window) or None

    def on_epoch(row):
        print("epoch {epoch}: loss {loss:.4f} f {f_measure:.4f} iou {iou:.4f}"
              .format(**row))

    try:
        model, log = train(model, train_samples, cfg, val_samples=val_samples,
                           on_epoch=on_epoch)
    except DivergenceError as e:
        if e.model is not None and args.out:
            save_checkpoint(e.model, args.out + ".debug")
            print(f"divergence: debug checkpoint at {args.out}.debug", file=sys.stderr)
        raise
    save_checkpoint(model, args.out)
    if args.log:
        _atomic_write_text(args.log, log.to_csv())
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_eval(args):
    _check_threshold(args.threshold)
    model = load_checkpoint(args.ckpt)
    samples = _samples_for(args.data, args.split, model.config.window)
    if not samples:
        raise DataError(f"no {args.split!r} samples in {args.data}")
    report = evaluate(model, samples, threshold=args.threshold, per_frame=args.per_frame)
    _atomic_write_text(args.report, json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_predict(args):
    _check_threshold(args.threshold)
    model = load_checkpoint(args.ckpt)
    seq_dir = args.frames
    names = sorted(os.listdir(seq_dir))
    if not names:
        raise DataError(f"no frames in {seq_dir}")
    frames = [data_mod.read_frame(os.path.join(seq_dir, n)) for n in names]
    T = model.config.window
    if len(frames) < T:
        raise DataError(f"need at least {T} frames, got {len(frames)}")
    # every frame before any output, so a bad frame leaves no partial masks
    check_frames(model, frames)
    os.makedirs(args.out, exist_ok=True)
    if args.stream:
        outputs = forward_stream(model, frames)
    else:
        # one window per end index; each frame's trunk runs once
        ends = range(T - 1, len(frames))
        outputs = zip(ends, forward_windows(
            model, (frames[end - T + 1:end + 1] for end in ends)))
    for t, logits in outputs:
        mask = logits_to_mask(model, logits, args.threshold)
        data_mod.write_pgm(os.path.join(args.out, f"mask_{t:04d}.pgm"), mask)
    print(f"wrote {len(frames) - T + 1} masks to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args):
    if not 0 <= args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol}")
    report, ok = gradcheck.run_audit(seed=args.seed, tol=args.tol)
    width = max(len(k) for k in report)
    for name, err in sorted(report.items()):
        status = "ok" if err <= args.tol else "FAIL"
        print(f"{name:<{width}}  {err:.3e}  {status}")
    print(f"max relative error: {max(report.values()):.3e} (tolerance {args.tol:g})")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_preset(args):
    cfg = preset(args.name)
    text = json.dumps(cfg.to_dict(), indent=1, sort_keys=True) + "\n"
    if args.out:
        _atomic_write_text(args.out, text)
        print(f"wrote {args.name} config to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rfcn",
        description="Recurrent fully-convolutional networks for video segmentation")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="synthesize a moving-digit dataset")
    g.add_argument("--mnist-images", help="IDX image file (built-in glyphs if omitted)")
    g.add_argument("--mnist-labels")
    g.add_argument("--out", required=True)
    g.add_argument("--sequences", type=int, required=True)
    g.add_argument("--length", type=int, default=3)
    g.add_argument("--mode", choices=data_mod.MASK_MODES, default="binary")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--train", type=int, default=None,
                   help="number of training sequences (default 70%%)")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train an architecture on a dataset")
    t.add_argument("--arch", required=True,
                   help=f"preset ({', '.join(PRESET_NAMES)}) or config JSON path")
    t.add_argument("--data", required=True, help="dataset manifest")
    t.add_argument("--config", help="train config JSON")
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--log", help="CSV log path")
    t.add_argument("--init-ckpt", help="seed matching tensors from a checkpoint")
    t.add_argument("--max-epochs", dest="max_epochs", type=int)
    t.add_argument("--batch-size", dest="batch_size", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--mode", choices=MODES)
    t.add_argument("--patience", type=int)
    t.add_argument("--window", type=int, default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--report", required=True)
    e.add_argument("--split", choices=data_mod.SPLITS, default="test")
    e.add_argument("--per-frame", action="store_true")
    e.add_argument("--threshold", type=float, default=0.5)
    e.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="segment a directory of frames")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stream", action="store_true",
                   help="carry hidden state across all frames")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_predict)

    c = sub.add_parser("gradcheck", help="finite-difference audit of backwards")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--tol", type=float, default=1e-4)
    c.set_defaults(func=cmd_gradcheck)

    r = sub.add_parser("preset", help="emit a preset architecture config")
    r.add_argument("--name", required=True, choices=PRESET_NAMES)
    r.add_argument("--out")
    r.set_defaults(func=cmd_preset)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (RfcnError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Run one fixed list of rfcn commands on two source trees and compare every
file the runs leave, byte for byte.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree runs the list in a fresh temporary directory, one process per
command (`python3 -m rfcn.cli ...` with PYTHONPATH=<tree>/src,
OPENBLAS_NUM_THREADS=1 and PYTHONDONTWRITEBYTECODE=1). The list:

- gen-data: a binary set, a semantic set, and a binary set drawn from an
  IDX digit pair this script writes;
- train for 2 epochs, with a CSV log: fc-lenet, rfc-lenet, a conv-GRU net
  and a dense LSTM net with a tanh candidate on the binary set, and an
  11-class conv-GRU net on the semantic set (softmax cross-entropy; 10
  epochs); plus rfc-lenet in decoupled mode, seeded from the fc-lenet
  checkpoint, and the conv-GRU net at batch size 2 (6 epochs);
- for each checkpoint but the batch-size-2 one: windowed and streamed
  predict on one sequence of its set, and eval on its test split; one more
  eval of the decoupled checkpoint with --per-frame;
- preset for every name; gradcheck at seed 3.

Every command's stdout and exit status are kept as files beside its
outputs; stderr is not compared, since warnings name the tree's paths.
Prints each output that differs or that one tree lacks, and each command
that exited non-zero, then exits 1 if there was any, 0 otherwise.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile

# Named here, not imported: the script runs each tree and imports neither.
PRESETS = ("fc-lenet", "rfc-lenet", "fc-12s", "rfc-12s", "rfc-vgg", "rfcn-8s-sketch")

# Architecture files written beside the data: a conv-GRU net, a dense LSTM
# net whose candidate activation is tanh, and a conv-GRU net with a class for
# each semantic id (background and the ten digits).
ARCHS = {
    "conv_gru.json": {
        "name": "conv-gru", "input_shape": [1, 28, 28], "num_classes": 1, "window": 3,
        "pre": [{"kind": "conv", "size": 3, "pad": 1, "depth": 4}, {"kind": "relu"},
                {"kind": "pool", "size": 2}],
        "recurrent": {"kind": "conv_gru", "hidden": 4, "kernel": 3},
        "post": [{"kind": "conv1x1", "depth": 1},
                 {"kind": "deconv", "size": 2, "stride": 2, "depth": 1}],
        "skip_links": []},
    "lstm.json": {
        "name": "lstm", "input_shape": [1, 28, 28], "num_classes": 1, "window": 3,
        "pre": [{"kind": "conv", "size": 3, "pad": 1, "depth": 2}, {"kind": "relu"},
                {"kind": "conv1x1", "depth": 1}, {"kind": "pool", "size": 2},
                {"kind": "flatten"}],
        "recurrent": {"kind": "lstm", "hidden": 196, "candidate_activation": "tanh"},
        "post": [{"kind": "unflatten", "target_shape": [1, 14, 14]},
                 {"kind": "deconv", "size": 2, "stride": 2, "depth": 1}],
        "skip_links": []},
    "multiclass.json": {
        "name": "multiclass", "input_shape": [1, 28, 28], "num_classes": 11, "window": 3,
        "pre": [{"kind": "conv", "size": 3, "pad": 1, "depth": 4}, {"kind": "relu"},
                {"kind": "pool", "size": 2}],
        "recurrent": {"kind": "conv_gru", "hidden": 4, "kernel": 3},
        "post": [{"kind": "conv1x1", "depth": 11},
                 {"kind": "deconv", "size": 2, "stride": 2, "depth": 11}],
        "skip_links": []},
}

# net tag -> (architecture, the dataset directory it trains and runs on)
NETS = {"fc-lenet": ("fc-lenet", "binary"), "rfc-lenet": ("rfc-lenet", "binary"),
        "conv_gru": ("conv_gru.json", "binary"), "lstm": ("lstm.json", "binary"),
        "multiclass": ("multiclass.json", "semantic"),
        "decoupled": ("rfc-lenet", "binary")}

# Epochs of a training run, 2 unless named here, so that the multiclass
# eval, the per-frame eval and the batch-size-2 log score some foreground.
# Patience equals the epochs: no run stops early. The semantic set's seed
# puts a digit 0, the class the F-measure scores, in both of its splits.
EPOCHS = {"multiclass": 10, "batch2": 6}


def _train(tag, arch, data, *extra):
    epochs = str(EPOCHS.get(tag, 2))
    return (f"train_{tag}", [
        "train", "--arch", arch, "--data", f"{data}/manifest.json", "--out", f"{tag}.ckpt",
        "--log", f"{tag}.csv", "--max-epochs", epochs, "--patience", epochs,
        "--seed", "1", *extra])


def commands():
    """(tag, rfcn arguments) in the order they run."""
    cmds = [
        ("gen_binary", ["gen-data", "--out", "binary", "--sequences", "4",
                        "--length", "5", "--seed", "2", "--train", "3"]),
        ("gen_semantic", ["gen-data", "--out", "semantic", "--sequences", "5",
                          "--length", "5", "--seed", "25", "--mode", "semantic"]),
        ("gen_idx", ["gen-data", "--out", "idx", "--sequences", "3", "--length", "4",
                     "--seed", "4", "--mnist-images", "images.idx",
                     "--mnist-labels", "labels.idx"]),
    ]
    extra = {"decoupled": ["--mode", "decoupled", "--init-ckpt", "fc-lenet.ckpt"]}
    cmds += [_train(tag, arch, data, *extra.get(tag, ()))
             for tag, (arch, data) in NETS.items()]
    cmds.append(_train("batch2", "conv_gru.json", "binary", "--batch-size", "2"))
    for tag, (_, data) in NETS.items():
        frames = ["--ckpt", f"{tag}.ckpt", "--frames", f"{data}/seq_00000/frames"]
        cmds += [(f"predict_{tag}", ["predict"] + frames + ["--out", f"masks_{tag}"]),
                 (f"stream_{tag}", ["predict"] + frames + ["--out", f"stream_{tag}",
                                                           "--stream"]),
                 (f"eval_{tag}", ["eval", "--ckpt", f"{tag}.ckpt", "--data",
                                  f"{data}/manifest.json", "--report", f"eval_{tag}.json"])]
    cmds.append(("eval_per_frame", ["eval", "--ckpt", "decoupled.ckpt", "--data",
                                    "binary/manifest.json", "--report", "eval_per_frame.json",
                                    "--per-frame"]))
    cmds += [(f"preset_{name}", ["preset", "--name", name, "--out", f"preset_{name}.json"])
             for name in PRESETS]
    cmds.append(("gradcheck", ["gradcheck", "--seed", "3"]))
    return cmds


def write_inputs(work):
    """The architecture files and a 10-digit IDX pair with 28x28 images of a
    fixed pattern, identical for both trees."""
    for name, doc in ARCHS.items():
        with open(os.path.join(work, name), "w") as f:
            json.dump(doc, f)
    n = 10
    pixels = bytes((3 * r * r + 5 * c + 17 * i) % 256
                   for i in range(n) for r in range(28) for c in range(28))
    with open(os.path.join(work, "images.idx"), "wb") as f:
        f.write(struct.pack(">IIII", 0x803, n, 28, 28) + pixels)
    with open(os.path.join(work, "labels.idx"), "wb") as f:
        f.write(struct.pack(">II", 0x801, n) + bytes(range(n)))


def run_tree(tree, work):
    """Run every command on tree's src/ in work; returns the tags of the
    commands that exited non-zero."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    write_inputs(work)
    os.makedirs(os.path.join(work, "stdout"))
    failed = []
    for i, (tag, args) in enumerate(commands()):
        proc = subprocess.run([sys.executable, "-m", "rfcn.cli"] + args, cwd=work, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with open(os.path.join(work, "stdout", f"{i:02d}_{tag}.txt"), "wb") as f:
            f.write(proc.stdout + b"exit %d\n" % proc.returncode)
        if proc.returncode:
            failed.append(tag)
            sys.stderr.write(f"{tree}: {tag} exited {proc.returncode}\n"
                             + proc.stderr.decode(errors="replace")[-2000:])
    return failed


def digests(root):
    """relative path -> sha256 of every file under root."""
    out = {}
    for d, _, names in os.walk(root):
        for n in names:
            path = os.path.join(d, n)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return out


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        sums, failed = [], []
        for side, tree in zip(("parent", "change"), argv[1:]):
            work = os.path.join(tmp, side)
            os.makedirs(work)
            failed += run_tree(tree, work)
            sums.append(digests(work))
    parent, change = sums
    differ = sorted(p for p in set(parent) | set(change) if parent.get(p) != change.get(p))
    for path in differ:
        where = ("only in the change" if path not in parent else
                 "only in the parent" if path not in change else "differs")
        print(f"{where}: {path}")
    print(f"{len(parent)} outputs compared, {len(differ)} differ, "
          f"{len(failed)} commands exited non-zero")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

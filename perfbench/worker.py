"""One workload process: set up, run timed rounds, check outputs, report.

Started by run.py, which generates the inputs first:

    python3 perfbench/worker.py --workload NAME --workdir DIR --setup-only
    python3 perfbench/worker.py --workload NAME --workdir DIR \
        --seconds S --trace 0|1 --result PATH

The worker prints "ready" once set-up (importing rfcn, loading and windowing
the sequences, building or loading the model) is done; the parent times
process start to that line. It then repeats identical rounds of the
workload's job until S seconds have passed, checks the first round's outputs
and that every later round reproduced them, and writes a JSON result. With
--trace 1 it alternates untraced and traced rounds and reports per-layer
metrics from the traced ones.
"""

import argparse
import copy
import json
import os
import sys
import time
import traceback

import numpy as np

import measure
import trace
from workloads import (EPOCHS, INIT_SEED, TRAIN_SEED, VAL_WINDOWS, WINDOW,
                       WORKLOADS)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Share of pixels on which every float32 mask must agree with the float64
# run of the same checkpoint.
AGREE_MIN = 0.995

clock = time.perf_counter


def import_rfcn():
    """Import the checkout's rfcn, never an installed copy."""
    sys.path.insert(0, SRC)
    import rfcn
    import rfcn.cells
    import rfcn.data
    import rfcn.layers
    import rfcn.metrics
    import rfcn.model
    import rfcn.tensor
    import rfcn.training
    if not os.path.abspath(rfcn.__file__).startswith(SRC + os.sep):
        raise ImportError(f"rfcn imported from {rfcn.__file__}, not {SRC}")
    return rfcn


def windows(rf, seqs):
    out = []
    for seq in seqs:
        out.extend(rf.data.sliding_windows(seq, WINDOW))
    return out


def run_inference(rf, ckpt, seqs, seq_windows, dtype=np.float32):
    """Segment each sequence as `rfcn predict` does, loading the checkpoint
    once per sequence: one training.predict call per window, then one
    model.forward_stream call over the whole sequence. A fresh load per
    sequence and the alternation of the two modes spread both sets of timings
    over many weight placements in memory and over the whole phase, so
    neither rests on one placement or one slow spell of the machine.

    Returns (masks, ms per predict call, per-sequence [(t, logits)] lists,
    ms per frame of each forward_stream call)."""
    masks, window_ms, outs, stream_ms = [], [], [], []
    for seq, samples in zip(seqs, seq_windows):
        model = rf.model.load_checkpoint(ckpt, dtype=dtype)
        for s in samples:
            t = clock()
            masks.append(rf.training.predict(model, s.frames))
            window_ms.append((clock() - t) * 1e3)
        t = clock()
        outs.append(rf.model.forward_stream(model, seq.frames))
        stream_ms.append((clock() - t) * 1e3 / len(seq.frames))
    return masks, window_ms, outs, stream_ms


def logits_to_mask(rf, logits):
    if logits.shape[0] == 1:
        return (rf.tensor.sigmoid(logits[0]) > 0.5).astype(np.int64)
    return np.argmax(logits, axis=0).astype(np.int64)


class Checks:
    """Tallies output checks; a failed check marks its ops as failed."""

    def __init__(self):
        self.failed = 0
        self.messages = []

    def require(self, ok, what, ops=1):
        if not ok:
            self.failed += ops
            self.messages.append(f"FAIL {what}")


def check_stream_matches_window(rf, model, seqs, outs, checks):
    """Streamed logits at t = T-1 come from the same arithmetic as
    forward_window on frames[0:T], so they must be bitwise equal."""
    for seq, out in zip(seqs, outs):
        t, logits = out[0]
        ref, _ = rf.model.forward_window(model, seq.frames[:WINDOW])
        checks.require(t == WINDOW - 1 and np.array_equal(logits, ref),
                       f"{seq.source_id}: streamed logits at t={WINDOW - 1} "
                       "differ from forward_window")


def check_masks(masks, targets, num_classes, checks, what):
    for i, (m, target) in enumerate(zip(masks, targets)):
        checks.require(m.shape == target.shape and m.min() >= 0
                       and m.max() < max(num_classes, 2), f"{what} mask {i} invalid")


class TrainJob:
    """train-*: BPTT training with Adadelta, then evaluation of the saved and
    reloaded checkpoint on held-out windows, windowed and streamed."""

    def __init__(self, rf, spec, workdir):
        self.rf = rf
        self.ckpt = os.path.join(workdir, "trained.ckpt")
        manifest = os.path.join(workdir, "data", "manifest.json")
        self.train_w = windows(rf, rf.data.load_manifest_sequences(manifest, "train"))
        self.test_seqs = rf.data.load_manifest_sequences(manifest, "test")
        self.test_by_seq = [windows(rf, [q]) for q in self.test_seqs]
        self.test_w = [w for ws in self.test_by_seq for w in ws]
        self.val_w = self.test_w[:VAL_WINDOWS]
        self.model = rf.model.init_model(rf.model.preset(spec["preset"], window=WINDOW),
                                         rf.tensor.Rng(INIT_SEED))

    def ops(self):
        stream_masks = sum(len(s) - WINDOW + 1 for s in self.test_seqs)
        return (EPOCHS * (len(self.train_w) + len(self.val_w)) + len(self.test_w)
                + stream_masks)

    def round(self):
        rf = self.rf
        model = copy.deepcopy(self.model)
        cfg = rf.training.TrainConfig(max_epochs=EPOCHS, patience=0, batch_size=1,
                                      seed=TRAIN_SEED)
        stamps = [clock()]
        model, log = rf.training.train(model, self.train_w, cfg, val_samples=self.val_w,
                                       on_epoch=lambda row: stamps.append(clock()))
        rf.model.save_checkpoint(model, self.ckpt)
        masks, window_ms, outs, stream_ms = run_inference(rf, self.ckpt, self.test_seqs,
                                                          self.test_by_seq)
        t = clock()
        report = rf.metrics.evaluate_masks(
            [(m, (s.target > 0).astype(np.int64)) for m, s in zip(masks, self.test_w)])
        eval_s = clock() - t + sum(window_ms) / 1e3
        epoch_s = [b - a for a, b in zip(stamps, stamps[1:])]
        return {
            "ops_per_s": measure.p50([len(self.train_w) / s for s in epoch_s]),
            "window_ms": window_ms,
            "stream_ms": stream_ms,
            "info": {"train_windows_per_s": EPOCHS * len(self.train_w) / (stamps[-1] - stamps[0]),
                     "epoch_s_p50": measure.p50(epoch_s),
                     "eval_windows_per_s": len(self.test_w) / eval_s,
                     "eval_f_measure": report["f_measure"]},
            "losses": [row["loss"] for row in log.rows],
            "masks": masks,
            "stream_masks": [logits_to_mask(rf, lg) for out in outs for _, lg in out],
            "outs": outs,
        }

    def check(self, first, checks):
        losses = first["losses"]
        per_epoch = len(self.train_w) + len(self.val_w)
        for i, loss in enumerate(losses):
            checks.require(np.isfinite(loss), f"epoch {i} mean loss {loss} not finite",
                           per_epoch)
        checks.require(len(losses) == EPOCHS and losses[-1] < losses[0],
                       f"training loss did not fall: {losses}", EPOCHS * per_epoch)
        # test_w lists each sequence's windows in time order, as streaming emits
        targets = [s.target for s in self.test_w]
        check_masks(first["masks"], targets, 1, checks, "windowed")
        check_masks(first["stream_masks"], targets, 1, checks, "streamed")
        check_stream_matches_window(self.rf, self.rf.model.load_checkpoint(self.ckpt),
                                    self.test_seqs, first["outs"], checks)


class SegmentJob:
    """segment-*: forward-only segmentation of long sequences with a loaded
    checkpoint, once per window end (windowed) and once streamed."""

    def __init__(self, rf, spec, workdir):
        self.rf = rf
        self.ckpt = os.path.join(workdir, "model.ckpt")
        manifest = os.path.join(workdir, "data", "manifest.json")
        self.seqs = rf.data.load_manifest_sequences(manifest)
        self.by_seq = [windows(rf, [q]) for q in self.seqs]
        self.windows = [w for ws in self.by_seq for w in ws]
        self.model = rf.model.load_checkpoint(self.ckpt)

    def ops(self):
        return len(self.windows) + sum(len(s) - WINDOW + 1 for s in self.seqs)

    def round(self):
        rf = self.rf
        t = clock()
        masks, window_ms, outs, stream_ms = run_inference(rf, self.ckpt, self.seqs,
                                                          self.by_seq)
        wall_s = clock() - t
        return {
            "ops_per_s": self.ops() / wall_s,
            "window_ms": window_ms,
            "stream_ms": stream_ms,
            "info": {},
            "losses": [],
            "masks": masks,
            "stream_masks": [logits_to_mask(rf, lg) for out in outs for _, lg in out],
            "outs": outs,
        }

    def check(self, first, checks):
        rf = self.rf
        ncls = self.model.config.num_classes
        check_masks(first["masks"], [s.target for s in self.windows], ncls, checks,
                    "windowed")
        check_stream_matches_window(rf, self.model, self.seqs, first["outs"], checks)
        ref_masks, _, ref_outs, _ = run_inference(rf, self.ckpt, self.seqs, self.by_seq,
                                                  dtype=np.float64)
        ref_stream = [logits_to_mask(rf, lg) for out in ref_outs for _, lg in out]
        shares = []
        for what, got, want in (("windowed", first["masks"], ref_masks),
                                ("streamed", first["stream_masks"], ref_stream)):
            for i, (a, b) in enumerate(zip(got, want)):
                share = float(np.mean(a == b))
                shares.append(share)
                checks.require(share >= AGREE_MIN,
                               f"{what} mask {i} agrees with float64 on {share:.4f} "
                               f"of pixels (< {AGREE_MIN})")
        return {"float64_agreement_min": min(shares)}


JOBS = {"train": TrainJob, "segment": SegmentJob}


def same_outputs(a, b):
    return (a["losses"] == b["losses"]
            and len(a["masks"]) == len(b["masks"])
            and all(np.array_equal(x, y) for x, y in zip(a["masks"], b["masks"]))
            and all(np.array_equal(x, y) for x, y in zip(a["stream_masks"],
                                                         b["stream_masks"])))


def layer_metrics(job, spans, setup_spans, traced_walls, untraced_walls):
    """Per-layer metrics from the traced rounds' spans, normalised per op."""
    ops = job.ops() * len(traced_walls)
    rows = trace.summarize(spans)
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "flops": 0, "bytes": 0}

    def row(name):
        return rows.get(name, zero)

    def per_op(name):
        return row(name)["self_s"] * 1e3 / ops

    def rate(name, key):
        r = row(name)
        return r[key] / r["self_s"] / 1e9 if r["self_s"] > 0 else 0.0

    out = {}
    for name in ("layers.conv2d_forward", "layers.conv2d_backward",
                 "layers.deconv2d_forward", "layers.deconv2d_backward",
                 "layers.maxpool2d_forward", "layers.maxpool2d_backward",
                 "layers.relu_forward", "layers.relu_backward",
                 "cells.gru_step", "cells.gru_backward", "training.adadelta_step",
                 "training.logistic_loss", "metrics.evaluate_masks"):
        out[f"{name}.ms_per_op"] = per_op(name)
    for name in ("layers.conv2d_forward", "layers.conv2d_backward",
                 "layers.deconv2d_backward", "cells.gru_backward"):
        out[f"{name}.gflops"] = rate(name, "flops")
    for name in ("layers.conv2d_forward", "layers.conv2d_backward",
                 "training.adadelta_step"):
        out[f"{name}.gbytes_per_s"] = rate(name, "bytes")
    for name in ("cells.conv_gru_step", "model.forward_window", "model.backward_window",
                 "model.forward_stream", "training.train", "training.predict"):
        out[f"{name}.self_ms_per_op"] = per_op(name)

    # A trunk run is one call of the first pre-chain layer on a frame.
    trunk = next(k for k in job.model.params if k.startswith("pre."))
    windowed = streamed = 0
    for i, s in enumerate(spans):
        if isinstance(s[trace.TAG], tuple) and s[trace.TAG][0] == trunk:
            a = trace.ancestor(spans, i, ("model.forward_window", "model.forward_stream"))
            if a >= 0 and spans[a][trace.NAME] == "model.forward_stream":
                streamed += 1
            elif a >= 0 and ancestor_name(spans, a) == "training.predict":
                windowed += 1
    stream_masks = sum(s[trace.TAG] for s in spans if s[trace.NAME] == "model.forward_stream")
    out["model.trunk_runs_per_mask.windowed"] = windowed / max(row("training.predict")["calls"], 1)
    out["model.trunk_runs_per_mask.streamed"] = streamed / max(stream_masks, 1)

    setup = trace.summarize(setup_spans)
    out["data.load_manifest_sequences.s"] = setup.get(
        "data.load_manifest_sequences", zero)["incl_s"]
    loads = [r.get("model.load_checkpoint", zero) for r in (setup, rows)]
    calls = sum(r["calls"] for r in loads)
    out["model.load_checkpoint.ms"] = sum(r["incl_s"] for r in loads) * 1e3 / max(calls, 1)
    roots = sum(s[trace.END] - s[trace.START] for s in spans if s[trace.PARENT] < 0)
    out["trace.overhead_frac"] = measure.p50(traced_walls) / measure.p50(untraced_walls) - 1.0
    out["trace.coverage_frac"] = roots / sum(traced_walls)
    return out


def training_split(spans):
    """Per trained window: forward_window, backward_window and Adadelta
    inclusive ms: the forward, backward and optimizer split of a training step."""
    tot = {"model.forward_window": 0.0, "model.backward_window": 0.0,
           "training.adadelta_step": 0.0}
    windows = 0
    for i, s in enumerate(spans):
        if s[trace.NAME] in tot and ancestor_name(spans, i) == "training.train":
            tot[s[trace.NAME]] += s[trace.END] - s[trace.START]
            windows += s[trace.NAME] == "model.backward_window"
    return {f"train_{k.split('.')[1]}_ms_per_window": v * 1e3 / windows
            for k, v in tot.items()} if windows else {}


def ancestor_name(spans, i):
    p = spans[i][trace.PARENT]
    return spans[p][trace.NAME] if p >= 0 else None


def timings(res):
    """The parts of a round's result kept for every round."""
    return {k: res[k] for k in ("ops_per_s", "window_ms", "stream_ms", "info")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]

    rf = import_rfcn()
    tracer = trace.Tracer()
    if args.trace:
        tracer.install()
    job = JOBS[spec["job"]](rf, spec, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer.uninstall()
    setup_spans = list(tracer.spans)
    tracer.spans.clear()

    # Rounds repeat until the time is up; a traced run alternates untraced
    # and traced rounds and needs at least one of each.
    checks = Checks()
    first, rounds, walls = None, [], {False: [], True: []}
    attempted, rss = 0, None
    start = clock()
    while (clock() - start < args.seconds or not walls[False]
           or (args.trace and not walls[True])):
        traced = bool(args.trace) and len(walls[True]) < len(walls[False])
        if traced:
            tracer.install()
        attempted += job.ops()
        t = clock()
        try:
            res = job.round()
        except Exception:
            traceback.print_exc()
            checks.require(False, f"round {len(rounds)} raised", job.ops())
            break
        finally:
            tracer.uninstall()
        walls[traced].append(clock() - t)
        if first is None:
            first, rss = res, measure.peak_rss_mb()
        elif not same_outputs(first, res):
            checks.require(False, f"round {len(rounds)} did not reproduce round 0",
                           job.ops())
        rounds.append(timings(res))

    extra = {}
    if first is not None:
        try:
            extra = job.check(first, checks) or {}
        except Exception:
            traceback.print_exc()
            checks.require(False, "output checks raised", job.ops())

    metrics, info = {}, {}
    if rounds:
        window_ms = [m for r in rounds for m in r["window_ms"]]
        metrics = {
            "peak_rss_mb": rss,
            "ops_per_s": measure.p50([r["ops_per_s"] for r in rounds]),
            "window_ms_p50": measure.p50(window_ms),
            "window_ms_p90": measure.p90(window_ms),
            "stream_ms_per_frame": measure.p50([m for r in rounds for m in r["stream_ms"]]),
        }
        info = {k: measure.p50([r["info"][k] for r in rounds]) for k in rounds[0]["info"]}
        info.update(extra, rounds=len(rounds), window_calls=len(window_ms))
        if args.trace and walls[True]:
            metrics = layer_metrics(job, tracer.spans, setup_spans, walls[True], walls[False])
            info["backward_top"] = trace.backward_breakdown(tracer.spans)[:6]
            info.update(training_split(tracer.spans))
            ops = job.ops() * len(walls[True])
            info["accounted_ms_per_op"] = sum(trace.self_times(tracer.spans)) * 1e3 / ops
            info["traced_ms_per_op"] = sum(walls[True]) * 1e3 / ops
            info["untraced_ms_per_op"] = sum(walls[False]) * 1e3 / (job.ops() * len(walls[False]))
    result = {
        "correct": first is not None and checks.failed == 0,
        "attempted": attempted,
        "failed": min(checks.failed, attempted),
        "metrics": metrics,
        "info": info,
        "checks": checks.messages,
        "env": measure.environment(),
    }
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Losses, the Adadelta optimizer, the epoch loop, and evaluation-time inference.

Adadelta follows the standard recurrence
    E[g^2]   <- rho E[g^2] + (1 - rho) g^2
    dx        = -(RMS[dx] / RMS[g]) g,  RMS[v] = sqrt(E[v^2] + eps)
    E[dx^2]  <- rho E[dx^2] + (1 - rho) dx^2
with rho = 0.95, eps = 1e-6, the values train uses.

Training modes: "end-to-end" updates all parameters each step; "decoupled"
first trains only the recurrent cell with everything else frozen, then
fine-tunes the whole network.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import metrics as metrics_mod
from .data import MASK_DTYPE
from .errors import ConfigError, DataError, DivergenceError, NumericsError, ShapeError
from .model import _checked, backward_window, forward_window, forward_windows
from .tensor import Rng, sigmoid

LOG_COLUMNS = ("epoch", "loss", "precision", "recall", "f_measure", "iou")


def logistic_loss(logits, target):
    """Mean pixel-wise binary logistic loss; returns (loss, grad_logits)."""
    logits = np.asarray(logits)
    target = np.asarray(target)
    squeeze = logits.ndim == target.ndim + 1 and logits.shape[0] == 1
    l2 = logits[0] if squeeze else logits
    if l2.shape != target.shape:
        raise ShapeError(f"logits shape {logits.shape} vs target {target.shape}")
    if np.any(target != target.astype(bool)):
        raise DataError(f"binary targets must be 0/1, got values {np.unique(target)}")
    t = target.astype(l2.dtype)
    # stable: max(l,0) - l*y + log(1 + exp(-|l|))
    loss = np.maximum(l2, 0) - l2 * t + np.log1p(np.exp(-np.abs(l2)))
    n = l2.size
    grad = (sigmoid(l2) - t) / n
    if squeeze:
        grad = grad[None]
    return float(loss.sum() / n), grad.astype(logits.dtype)


def multiclass_cross_entropy(logits, target):
    """Mean pixel-wise softmax cross-entropy over a (C, H, W) logit map."""
    logits = np.asarray(logits)
    target = np.asarray(target)
    c = logits.shape[0]
    if logits.shape[1:] != target.shape:
        raise ShapeError(f"logits shape {logits.shape} vs target {target.shape}")
    if target.min() < 0 or target.max() >= c:
        raise DataError(f"class ids must be in [0, {c}), got max {target.max()}")
    m = logits.max(axis=0, keepdims=True)
    ex = np.exp(logits - m)
    sm = ex / ex.sum(axis=0, keepdims=True)
    logsm = (logits - m) - np.log(ex.sum(axis=0, keepdims=True))
    n = target.size
    onehot = (np.arange(c)[:, None, None] == target[None]).astype(logits.dtype)
    loss = -(onehot * logsm).sum() / n
    grad = (sm - onehot) / n
    return float(loss), grad.astype(logits.dtype)


# ---------------------------------------------------------------------------
# Optimizer


# Elements per slice of an optimizer step: a slice of the parameter, its
# gradient, both accumulators and the two scratch buffers stay in cache across
# the step's expressions (16K- and 4K-element slices measured slower).
CHUNK = 1 << 16


@dataclass
class AdadeltaState:
    rho: float = 0.95
    eps: float = 1e-6
    acc_grad: dict = field(default_factory=dict)    # E[g^2]
    acc_update: dict = field(default_factory=dict)  # E[dx^2]


def _target(params, name, g):
    """The parameter a step writes in place. Raises ShapeError for a gradient
    whose shape or dtype is not the parameter's, and for a parameter that is
    not C-contiguous or not writable (reshape(-1) would copy it and the
    update would be lost)."""
    p = params[name]
    if p.shape != g.shape:
        raise ShapeError(f"grad shape {g.shape} != param {p.shape} for {name}")
    if p.dtype != g.dtype:
        raise ShapeError(f"grad dtype {g.dtype} != param {p.dtype} for {name}")
    if not (p.flags.c_contiguous and p.flags.writeable):
        raise ShapeError(f"param {name} is not a writable C-contiguous array")
    return p


def adadelta_step(params, grads, state):
    """Apply one Adadelta update in place to each parameter in grads and its
    two accumulators (created lazily, in the parameter's dtype). Each tensor
    is run CHUNK elements at a time through two scratch buffers that every
    tensor of the step reuses; each chunk goes through the module
    docstring's recurrence, operation by operation as the comments group it,
    so the result is bitwise that of the whole-tensor expressions."""
    rho, eps = float(state.rho), float(state.eps)
    n = min(CHUNK, max((g.size for g in grads.values()), default=0))
    scratch = {}  # dtype -> two buffers of n elements
    for name, g in grads.items():
        p = _target(params, name, g)
        if name not in state.acc_grad:
            state.acc_grad[name] = np.zeros_like(p)
            state.acc_update[name] = np.zeros_like(p)
        if p.dtype not in scratch:
            scratch[p.dtype] = (np.empty(n, p.dtype), np.empty(n, p.dtype))
        flat = (p.reshape(-1), g.reshape(-1), state.acc_grad[name].reshape(-1),
                state.acc_update[name].reshape(-1))
        for start in range(0, p.size, CHUNK):
            ps, gs, eg, ed = (a[start:start + CHUNK] for a in flat)
            t, u = (b[:ps.size] for b in scratch[p.dtype])
            # eg = rho*eg + ((1-rho)*g)*g
            np.multiply(1 - rho, gs, out=t)
            np.multiply(t, gs, out=t)
            np.multiply(rho, eg, out=eg)
            np.add(eg, t, out=eg)
            # dx = (-sqrt(ed+eps) / sqrt(eg+eps))*g, into t
            np.add(ed, eps, out=t)
            np.sqrt(t, out=t)
            np.negative(t, out=t)
            np.add(eg, eps, out=u)
            np.sqrt(u, out=u)
            np.divide(t, u, out=t)
            np.multiply(t, gs, out=t)
            # ed = rho*ed + ((1-rho)*dx)*dx
            np.multiply(1 - rho, t, out=u)
            np.multiply(u, t, out=u)
            np.multiply(rho, ed, out=ed)
            np.add(ed, u, out=ed)
            np.add(ps, t, out=ps)
    return params, state


# ---------------------------------------------------------------------------
# Training loop


MODES = ("end-to-end", "decoupled")


@dataclass
class TrainConfig:
    """Training settings, judged by the architecture config's rule,
    model._checked: counts are non-negative integers and mode a string; then
    batch_size >= 1 and mode one of MODES."""

    max_epochs: int = 500
    batch_size: int = 1
    mode: str = "end-to-end"
    phase1_epochs: int = 0    # decoupled only, at most max_epochs; 0 = half of it
    seed: int = 0
    patience: int = 20

    def __post_init__(self):
        _checked(type(self), {f.name: getattr(self, f.name) for f in fields(self)},
                 "train config")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "decoupled" and self.phase1_epochs > self.max_epochs:
            raise ConfigError(f"phase1_epochs {self.phase1_epochs} exceeds "
                              f"max_epochs {self.max_epochs}")


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)  # dicts keyed by LOG_COLUMNS

    def append(self, epoch, loss, report):
        self.rows.append({
            "epoch": epoch, "loss": loss,
            "precision": report["precision"], "recall": report["recall"],
            "f_measure": report["f_measure"], "iou": report["iou"],
        })

    def to_csv(self):
        lines = [",".join(LOG_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(
                str(row["epoch"]) if c == "epoch" else f"{row[c]:.6f}"
                for c in LOG_COLUMNS))
        return "\n".join(lines) + "\n"


def binary_target(target):
    """The binary mask of a target: 1 wherever its label is positive."""
    return (np.asarray(target) > 0).astype(MASK_DTYPE)


def _loss(model, logits, target):
    """The loss follows the model's classes: logistic loss on the binary
    target for one, softmax cross-entropy on the class ids for more."""
    if model.config.num_classes == 1:
        return logistic_loss(logits, binary_target(target))
    return multiclass_cross_entropy(logits, target)


def logits_to_mask(model, logits, threshold=0.5):
    """Turn (C,H,W) logits into a MASK_DTYPE mask: sigmoid-threshold for
    binary models, per-pixel argmax for multiclass (shape_check caps the
    classes at what a mask holds)."""
    if model.config.num_classes == 1:
        return (sigmoid(logits[0]) > threshold).astype(MASK_DTYPE)
    return np.argmax(logits, axis=0).astype(MASK_DTYPE)


def predict(model, frames):
    """Segment the last frame of a window."""
    logits, _ = forward_window(model, frames)
    return logits_to_mask(model, logits)


def evaluate(model, samples, threshold=0.5, per_frame=False):
    """Binary report over SequenceSamples, foreground (id > 0) against
    background on both sides; each window's masks are tallied and dropped
    before the next runs, and consecutive windows share their frames' trunk
    features (model.forward_windows). No samples is a DataError."""
    logits = forward_windows(model, (s.frames for s in samples))
    pairs = ((binary_target(logits_to_mask(model, lg, threshold)), binary_target(s.target))
             for s, lg in zip(samples, logits))
    return metrics_mod.evaluate_masks(pairs, per_frame=per_frame)


def _run_epoch(model, samples, order, cfg, frozen, opt_state):
    total = 0.0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start:start + cfg.batch_size]
        grads = None
        for idx in batch:
            s = samples[idx]
            logits, cache = forward_window(model, s.frames)
            loss, grad_logits = _loss(model, logits, s.target)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss {loss}", model=model)
            total += loss
            g = backward_window(model, grad_logits, cache)
            if grads is None:
                grads = g
            else:
                for k in grads:
                    grads[k] += g[k]
        if len(batch) > 1:
            for k in grads:
                grads[k] /= len(batch)
        for k in frozen:
            grads.pop(k, None)
        # looked up by name at each call, so a rebound module attribute (as
        # a tracer installs) sees every step
        adadelta_step(model.params, grads, opt_state)
    return total / max(len(order), 1)


def train(model, train_samples, cfg, val_samples=None, on_epoch=None):
    """Train a model; returns (model, TrainLog).

    Deterministic for a fixed seed in single-threaded execution. Decoupled
    mode runs phase 1 with everything but the cell frozen, then fine-tunes
    all parameters; phase-1 frozen tensors are never touched. With early
    stopping enabled (patience > 0) each phase ends with the parameters
    restored to the epoch with the best evaluation F-measure; with patience 0
    the phase runs to completion and keeps the final parameters.

    The arrays of model.params are updated and restored in place, never
    rebound: a caller that keeps one across train must copy it. A
    non-finite loss or logit while training raises DivergenceError carrying
    the model.
    """
    if not train_samples and cfg.max_epochs > 0:
        raise DataError("training set is empty")
    log = TrainLog()
    if cfg.mode == "decoupled":
        if model.config.recurrent is None:
            raise ConfigError("decoupled mode needs a recurrent node")
        p1 = cfg.phase1_epochs or cfg.max_epochs // 2
        non_cell = {n for n in model.params if not n.startswith("cell.")}
        phases = [(p1, non_cell), (cfg.max_epochs - p1, set())]
    else:
        phases = [(cfg.max_epochs, set())]

    rng = Rng(cfg.seed)
    epoch = 0
    eval_samples = val_samples if val_samples else train_samples
    for n_epochs, frozen in phases:
        # fresh optimizer state per phase so fine-tuning starts cleanly
        opt_state = AdadeltaState()
        best_f = -1.0
        best_params = None
        since_best = 0
        for _ in range(n_epochs):
            order = rng.permutation(len(train_samples))
            try:
                mean_loss = _run_epoch(model, train_samples, order, cfg, frozen,
                                       opt_state)
                report = evaluate(model, eval_samples)
            except NumericsError as e:
                raise DivergenceError(str(e), model=model) from e
            log.append(epoch, mean_loss, report)
            if on_epoch is not None:
                on_epoch(log.rows[-1])
            epoch += 1
            if report["f_measure"] > best_f + 1e-6:
                best_f = report["f_measure"]
                if cfg.patience:
                    best_params = {k: v.copy() for k, v in model.params.items()}
                since_best = 0
            else:
                since_best += 1
                if cfg.patience and since_best >= cfg.patience:
                    break
        if cfg.patience and best_params is not None:
            for k, v in best_params.items():
                model.params[k][...] = v
    return model, log

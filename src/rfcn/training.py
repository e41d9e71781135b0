"""Losses, optimizers, the epoch loop, and evaluation-time inference.

Adadelta follows the standard recurrence
    E[g^2]   <- rho E[g^2] + (1 - rho) g^2
    dx        = -(RMS[dx] / RMS[g]) g,  RMS[v] = sqrt(E[v^2] + eps)
    E[dx^2]  <- rho E[dx^2] + (1 - rho) dx^2
with rho = 0.95, eps = 1e-6 by default.

Training modes: "end-to-end" updates all parameters each step; "decoupled"
first trains only the recurrent cell with everything else frozen, then
fine-tunes the whole network.
"""

import fnmatch
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from .data import MASK_DTYPE
from .errors import ConfigError, DataError, DivergenceError, ShapeError
from .model import backward_window, forward_window, forward_windows
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
    vals = np.unique(target)
    if not np.all(np.isin(vals, (0, 1))):
        raise DataError(f"binary targets must be 0/1, got values {vals}")
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
# Optimizers


@dataclass
class AdadeltaState:
    rho: float = 0.95
    eps: float = 1e-6
    acc_grad: dict = field(default_factory=dict)    # E[g^2]
    acc_update: dict = field(default_factory=dict)  # E[dx^2]


def adadelta_step(params, grads, state):
    """Apply one Adadelta update in place; accumulators are created lazily."""
    for name, g in grads.items():
        p = params[name]
        if p.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} != param {p.shape} for {name}")
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
    return params, state


@dataclass
class SgdState:
    lr: float = 0.1


def sgd_step(params, grads, state):
    for name, g in grads.items():
        params[name] = params[name] - state.lr * g.astype(params[name].dtype)
    return params, state


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainConfig:
    max_epochs: int = 500
    batch_size: int = 1
    mode: str = "end-to-end"  # end-to-end | decoupled
    phase1_epochs: int = 0    # decoupled only, at most max_epochs; 0 = half of it
    freeze: list = field(default_factory=list)  # fnmatch patterns
    loss: str = "binary-logistic"  # binary-logistic | multiclass-cross-entropy
    seed: int = 0
    patience: int = 20
    threshold: float = 0.5
    optimizer: str = "adadelta"  # adadelta | sgd
    rho: float = 0.95
    eps: float = 1e-6
    lr: float = 0.1

    def __post_init__(self):
        for name, low in (("max_epochs", 0), ("batch_size", 1), ("patience", 0),
                          ("phase1_epochs", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.mode not in ("end-to-end", "decoupled"):
            raise ConfigError(f"unknown training mode {self.mode!r}")
        if self.mode == "decoupled" and self.phase1_epochs > self.max_epochs:
            raise ConfigError(f"phase1_epochs {self.phase1_epochs} exceeds "
                              f"max_epochs {self.max_epochs}")
        if self.loss not in ("binary-logistic", "multiclass-cross-entropy"):
            raise ConfigError(f"unknown loss {self.loss!r}")

    @classmethod
    def from_dict(cls, d):
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown train config keys {sorted(unknown)}")
        return cls(**d)


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)  # dicts keyed by LOG_COLUMNS
    wall_clock: list = field(default_factory=list)

    def append(self, epoch, loss, report, seconds):
        self.rows.append({
            "epoch": epoch, "loss": loss,
            "precision": report["precision"], "recall": report["recall"],
            "f_measure": report["f_measure"], "iou": report["iou"],
        })
        self.wall_clock.append(seconds)

    def to_csv(self):
        # wall clock deliberately excluded so logs are reproducible run to run
        lines = [",".join(LOG_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(
                str(row["epoch"]) if c == "epoch" else f"{row[c]:.6f}"
                for c in LOG_COLUMNS))
        return "\n".join(lines) + "\n"


def _resolve_freeze(patterns, names):
    frozen = set()
    for pat in patterns:
        hits = fnmatch.filter(names, pat)
        if not hits:
            raise ConfigError(f"freeze pattern {pat!r} matches no parameter")
        frozen.update(hits)
    return frozen


def _loss_fn(cfg):
    if cfg.loss == "binary-logistic":
        return logistic_loss
    return multiclass_cross_entropy


def binary_target(target):
    """The binary mask of a target: 1 wherever its label is positive."""
    return (np.asarray(target) > 0).astype(MASK_DTYPE)


def logits_to_mask(model, logits, threshold=0.5):
    """Turn (C,H,W) logits into a MASK_DTYPE mask: sigmoid-threshold for
    binary models, per-pixel argmax for multiclass (shape_check caps the
    classes at what a mask holds)."""
    if model.config.num_classes == 1:
        return (sigmoid(logits[0]) > threshold).astype(MASK_DTYPE)
    return np.argmax(logits, axis=0).astype(MASK_DTYPE)


def predict(model, frames, threshold=0.5):
    """Segment the last frame of a window."""
    logits, _ = forward_window(model, frames)
    return logits_to_mask(model, logits, threshold)


def evaluate(model, samples, threshold=0.5, per_frame=False):
    """Binary metric report over a list of SequenceSamples; each window's
    masks are tallied and dropped before the next window runs. Consecutive
    windows share their frames' trunk features (model.forward_windows), so
    sliding windows run each frame's trunk once. No samples is a DataError."""
    logits = forward_windows(model, (s.frames for s in samples))
    pairs = ((logits_to_mask(model, lg, threshold), binary_target(s.target))
             for s, lg in zip(samples, logits))
    return metrics_mod.evaluate_masks(pairs, per_frame=per_frame)


def _run_epoch(model, samples, order, cfg, frozen, opt_state, opt_step, loss_fn):
    total = 0.0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start:start + cfg.batch_size]
        grads = None
        for idx in batch:
            s = samples[idx]
            target = s.target if cfg.loss == "multiclass-cross-entropy" \
                else binary_target(s.target)
            logits, cache = forward_window(model, s.frames)
            loss, grad_logits = loss_fn(logits, target)
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
        opt_step(model.params, grads, opt_state)
    return total / max(len(order), 1)


def train(model, train_samples, cfg, val_samples=None, on_epoch=None):
    """Train a model; returns (model, TrainLog).

    Deterministic for a fixed seed in single-threaded execution. Decoupled
    mode runs phase 1 with everything but the cell frozen, then fine-tunes
    all parameters; phase-1 frozen tensors are never touched. With early
    stopping enabled (patience > 0) each phase ends with the parameters
    restored to the epoch with the best evaluation F-measure; with patience 0
    the phase runs to completion and keeps the final parameters.
    """
    if not train_samples and cfg.max_epochs > 0:
        raise DataError("training set is empty")
    names = list(model.params.keys())
    loss_fn = _loss_fn(cfg)
    log = TrainLog()
    if cfg.mode == "decoupled":
        if model.config.recurrent is None:
            raise ConfigError("decoupled mode needs a recurrent node")
        p1 = cfg.phase1_epochs or cfg.max_epochs // 2
        non_cell = {n for n in names if not n.startswith("cell.")}
        phases = [
            (p1, non_cell | _resolve_freeze(cfg.freeze, names)),
            (cfg.max_epochs - p1, _resolve_freeze(cfg.freeze, names)),
        ]
    else:
        phases = [(cfg.max_epochs, _resolve_freeze(cfg.freeze, names))]

    rng = Rng(cfg.seed)
    if cfg.optimizer == "adadelta":
        opt_step = adadelta_step
    elif cfg.optimizer == "sgd":
        opt_step = sgd_step
    else:
        raise ConfigError(f"unknown optimizer {cfg.optimizer!r}")

    epoch = 0
    eval_samples = val_samples if val_samples else train_samples
    for n_epochs, frozen in phases:
        # fresh optimizer state per phase so fine-tuning starts cleanly
        opt_state = AdadeltaState(rho=cfg.rho, eps=cfg.eps) \
            if cfg.optimizer == "adadelta" else SgdState(lr=cfg.lr)
        best_f = -1.0
        best_params = None
        since_best = 0
        for _ in range(n_epochs):
            t0 = time.monotonic()
            order = rng.permutation(len(train_samples))
            mean_loss = _run_epoch(model, train_samples, order, cfg, frozen,
                                   opt_state, opt_step, loss_fn)
            report = evaluate(model, eval_samples, threshold=cfg.threshold)
            log.append(epoch, mean_loss, report, time.monotonic() - t0)
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
            model.params.update(best_params)
    return model, log

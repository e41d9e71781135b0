"""Recurrent cells: GRU, convolutional GRU, and LSTM.

Each cell exposes a pure step function over (input, state) plus an exact
backward for one unrolled step, from the gradient state at the step's output
to the gradient state at its input; the caller chains the backwards over a
window for BPTT and accumulates parameter gradients across steps. CELLS
describes each kind to the executor in one shape, so model.py never asks
which kind it runs: the table checks a kind's spec fields and input, draws
its initial and random weights, and runs its step and backward.

Every cell runs on CHW maps. A gate's pre-activation is
conv(u, W_u) + conv(v, W_v) + b (_gate) over the hidden map and the input,
each conv stride-1 and "same"-padded, so hidden maps keep their spatial
dims. A dense cell (GRU, LSTM) is such a cell with 1x1 kernels on the
(D, 1, 1) map a flatten gives: a 1x1 conv on a 1x1 map is a matrix-vector
product. The GRU's rule:
    z = sigma(W_hz h + W_xz x + b_z)
    r = sigma(W_hr h + W_xr x + b_r)
    hcand = tanh(W_h (r*h) + W_x x + b)
    h' = (1 - z)*h + z*hcand
The LSTM's rule, dense only, with a sigmoid or, if configured, tanh
candidate g:
    i, f, o = sigma(W_h* h + W_x* x + b_*)
    g = sigma or tanh(W_hc h + W_xc x + b_c)
    c' = f*c + i*g,  h' = o*tanh(c')
"""

from collections import OrderedDict
from dataclasses import dataclass, make_dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import ConvKernel, conv2d_backward, conv2d_forward, identity_kernel
from .tensor import fill_random, sigmoid

GRU, CONV_GRU, LSTM = "gru", "conv_gru", "lstm"

# Each gate's weights (W_u, W_v, b) in the order the step runs the gates, and
# so the order weights are drawn and stored in: a GRU gate maps (h, x) and an
# LSTM gate (x, h).
GRU_GATES = (("w_hz", "w_xz", "b_z"), ("w_hr", "w_xr", "b_r"), ("w_h", "w_x", "b"))
LSTM_GATES = tuple((f"w_x{t}", f"w_h{t}", f"b_{t}") for t in "ifoc")
GRU_WEIGHT_NAMES = sum(GRU_GATES, ())
LSTM_WEIGHT_NAMES = sum(LSTM_GATES, ())


@dataclass
class RecurrentCellState:
    """Hidden map carried across the frames of one window; in a backward,
    the gradient with respect to it."""

    h: np.ndarray
    c: np.ndarray = None  # LSTM only


# A kind's weights bound as attributes named like them (shapes in
# CellKind.param_shapes); the LSTM's also carry its candidate activation.
GruParams = make_dataclass("GruParams", GRU_WEIGHT_NAMES)
LstmParams = make_dataclass(
    "LstmParams", LSTM_WEIGHT_NAMES + (("candidate_activation", str, "sigmoid"),))


# ---------------------------------------------------------------------------
# The gate: one body for every cell kind


def _conv_same(x_chw, w):
    """Stride-1 same-padded conv on a CHW map; returns (chw, cache)."""
    k = ConvKernel(w, np.zeros(w.shape[0], dtype=w.dtype), stride=1, pad=w.shape[2] // 2)
    y, cache = conv2d_forward(x_chw[None], k)
    return y[0], cache


def _conv_same_backward(g_chw, cache, w):
    k = ConvKernel(w, np.zeros(w.shape[0], dtype=w.dtype), stride=1, pad=w.shape[2] // 2)
    gx, gw, _ = conv2d_backward(g_chw[None], cache, k)
    return gx[0], gw


def _gate(p, names, u, v, caches):
    """A gate's pre-activation conv(u, W_u) + conv(v, W_v) + b, where names =
    (W_u, W_v, b) are attributes of p; appends the two convs' caches to
    caches. A step applies the gate's activation to the returned array at
    once, so no pre-activation outlives its gate."""
    w_u, w_v, b = (getattr(p, n) for n in names)
    au, cache_u = _conv_same(u, w_u)
    av, cache_v = _conv_same(v, w_v)
    caches.append((cache_u, cache_v))
    return au + av + b.reshape(-1, 1, 1)


def _gate_backward(p, names, d, cache):
    """Backward of _gate from d, the gradient at its pre-activation: returns
    (grad_u, grad_v, {name: gradient} for the gate's three parameters)."""
    w_u, w_v, b = names
    grad_u, gw_u = _conv_same_backward(d, cache[0], getattr(p, w_u))
    grad_v, gw_v = _conv_same_backward(d, cache[1], getattr(p, w_v))
    return grad_u, grad_v, {w_u: gw_u, w_v: gw_v, b: d.sum(axis=(1, 2))}


def _gru_step(x, state, p):
    h = state.h
    if (x.shape[1:] != h.shape[1:] or h.shape[0] != p.w_h.shape[0]
            or x.shape[0] != p.w_x.shape[1]):
        raise ShapeError(f"GRU dims mismatch: x {x.shape}, h {h.shape}")
    gates = []
    z = sigmoid(_gate(p, GRU_GATES[0], h, x, gates))
    r = sigmoid(_gate(p, GRU_GATES[1], h, x, gates))
    hcand = np.tanh(_gate(p, GRU_GATES[2], r * h, x, gates))
    h_new = (1 - z) * h + z * hcand
    cache = {"h": h, "z": z, "r": r, "hcand": hcand, "gates": gates}
    return RecurrentCellState(h_new), cache


def _gru_backward(grad, cache, p):
    h, z, r, hcand, gates = (cache[k] for k in ("h", "z", "r", "hcand", "gates"))
    g = grad.h
    grad_h = g * (1 - z)
    d_rh, grad_x, grads = _gate_backward(p, GRU_GATES[2], g * z * (1 - hcand * hcand), gates[2])
    grad_h = grad_h + d_rh * r
    for names, d, gate in zip(GRU_GATES, (g * (hcand - h) * z * (1 - z),
                                          d_rh * h * r * (1 - r)), gates):
        gh, gx, gw = _gate_backward(p, names, d, gate)
        grads.update(gw)
        grad_h = grad_h + gh
        grad_x = grad_x + gx
    return grad_x, RecurrentCellState(grad_h), grads


# The dense and the conv GRU run one body under two names, which a profiler
# tells apart.


def gru_step(x, state, p):
    """One dense GRU step on a (D, 1, 1) input; returns (state, cache)."""
    return _gru_step(x, state, p)


def gru_backward(grad, cache, p):
    """Backward through one dense GRU step from the gradient state at its
    output; returns (grad_x, the gradient state at its input, grads dict
    keyed like the params)."""
    return _gru_backward(grad, cache, p)


def conv_gru_step(x, state, p):
    """One Conv-GRU step on a CHW input with a CHW hidden map."""
    return _gru_step(x, state, p)


def conv_gru_backward(grad, cache, p):
    return _gru_backward(grad, cache, p)


def lstm_step(x, state, p):
    """One dense LSTM step on a (D, 1, 1) input over state (h, c)."""
    h, c = state.h, state.c
    gates = []
    i, f, o = (sigmoid(_gate(p, names, x, h, gates)) for names in LSTM_GATES[:3])
    cand = sigmoid if p.candidate_activation == "sigmoid" else np.tanh
    g = cand(_gate(p, LSTM_GATES[3], x, h, gates))
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    cache = {"c": c, "i": i, "f": f, "o": o, "g": g, "tc": tc, "gates": gates}
    return RecurrentCellState(o * tc, c=c_new), cache


def lstm_backward(grad, cache, p):
    """Backward through one LSTM step from the gradient state (grad_h,
    grad_c or None) at its output; returns (grad_x, the gradient state at
    its input, grads dict)."""
    c, i, f, o, g, tc = (cache[k] for k in ("c", "i", "f", "o", "g", "tc"))
    d_c = grad.h * o * (1 - tc * tc)
    if grad.c is not None:
        d_c = d_c + grad.c
    d_g = d_c * i
    d_ag = d_g * g * (1 - g) if p.candidate_activation == "sigmoid" else d_g * (1 - g * g)
    grads, grad_x, grad_h = {}, 0, 0
    for names, d, gate in zip(LSTM_GATES, (d_c * g * i * (1 - i), d_c * c * f * (1 - f),
                                           grad.h * tc * o * (1 - o), d_ag),
                              cache["gates"]):
        gx, gh, gw = _gate_backward(p, names, d, gate)
        grads.update(gw)
        grad_h = grad_h + gh
        grad_x = grad_x + gx
    return grad_x, RecurrentCellState(grad_h, c=d_c * f), grads


# ---------------------------------------------------------------------------
# Initial weights

# A GRU whose hidden state is decoded into logits starts out with the tanh
# candidate saturated toward the majority class, which annihilates the
# gradients that could pull it out of it. A fresh GRU therefore starts as a
# pass-through of its input: identity input-path candidate weights (when
# square), a positive update-gate bias (the update gate nearly open), and
# zero recurrent-path weights, so recurrence only engages once the optimizer
# finds it useful.
CELL_INPUT_IDENTITY = 1.0
CELL_UPDATE_BIAS = 4.0


def _random(name, shape, rng, dtype):
    """A zero bias or a scaled-fan-in weight."""
    if name.startswith("b"):
        return np.zeros(shape, dtype=dtype)
    return fill_random(shape, rng, dtype)


def _gru_init(name, shape, rng, dtype):
    if name == "b_z":
        return np.full(shape, CELL_UPDATE_BIAS, dtype=dtype)
    if name in ("w_h", "w_hz", "w_hr"):
        return np.zeros(shape, dtype=dtype)
    if name == "w_x" and shape[0] == shape[1]:
        return identity_kernel(shape, CELL_INPUT_IDENTITY, dtype)
    return _random(name, shape, rng, dtype)


# ---------------------------------------------------------------------------
# The cell table


def _as_kernels(w):
    """A dense kind's stored (hidden, d) weights as (hidden, d, 1, 1) views."""
    return {n: v if n.startswith("b") else v[:, :, None, None] for n, v in w.items()}


@dataclass(frozen=True)
class CellKind:
    """What the executor needs to know about one cell kind.

    Every kind steps on CHW maps. A dense kind runs 1x1 kernels on the
    (d, 1, 1) map a flatten gives and takes no kernel in its spec; it stores
    each weight as a (hidden, d) matrix and binds a view of it, so writes
    into the stored arrays reach the bound ones. bind is (RecurrentSpec, {weight
    name: array}) -> params; step is (x, state, p) -> (state, cache);
    backward is (grad_state, cache, p) -> (grad_x, grad_state_prev, grads),
    where a gradient state carries grad_h in .h and, for the LSTM, grad_c in
    .c, and each weight's gradient has its bound shape. step and backward
    look the cell functions above up by name at call time, so rebinding a
    module attribute (as a tracer does) sees every call. init is (weight
    name, shape, rng, dtype) -> a fresh model's weight, and candidates lists
    the candidate activations a spec may choose.
    """

    dense: bool
    weight_names: tuple
    bind: object
    step: object
    backward: object
    init: object = _random
    carries_c: bool = False
    candidates: tuple = ("sigmoid",)

    def check(self, spec):
        """Raise ConfigError for a spec field this kind rejects or ignores:
        a map cell needs an odd kernel, a dense cell takes none."""
        if not self.dense and spec.kernel % 2 != 1:
            raise ConfigError(f"{spec.kind} kernel must be odd")
        if self.dense and spec.kernel:
            raise ConfigError(f"a {spec.kind} cell takes no kernel, got {spec.kernel}")
        if spec.candidate_activation not in self.candidates:
            raise ConfigError(f"a {spec.kind} cell's candidate activation is one of "
                              f"{self.candidates}, got {spec.candidate_activation!r}")

    def hidden_dims(self, spec, in_dims):
        """The hidden map's dims for an input map (c, h, w); a dense kind
        takes only a 1x1 map."""
        if self.dense and in_dims[1:] != (1, 1):
            raise ConfigError(f"a {spec.kind} cell needs a (D, 1, 1) input, as a "
                              f"flatten gives, got {in_dims}")
        return (spec.hidden,) + in_dims[1:]

    def param_shapes(self, spec, in_dims):
        """Stored weight shapes for an input map (c, h, w): biases (hidden,),
        hidden-path weights (hidden, hidden) and input-path weights
        (hidden, c), each weight of a map kind with a trailing (k, k)."""
        h = spec.hidden
        tail = () if self.dense else (spec.kernel, spec.kernel)
        return OrderedDict(
            (n, (h,) if n.startswith("b")
             else (h, h if n.startswith("w_h") else in_dims[0]) + tail)
            for n in self.weight_names)

    def random_params(self, spec, in_dims, rng, dtype=np.float32):
        """Zero biases and scaled-fan-in weights, drawn in weight_names order."""
        return OrderedDict((n, _random(n, shape, rng, dtype))
                           for n, shape in self.param_shapes(spec, in_dims).items())

    def zero_state(self, shape, dtype):
        """The state at a window start, with hidden maps of the given shape."""
        c = np.zeros(shape, dtype=dtype) if self.carries_c else None
        return RecurrentCellState(np.zeros(shape, dtype=dtype), c=c)


CELLS = {
    GRU: CellKind(True, GRU_WEIGHT_NAMES,
                  lambda spec, w: GruParams(**_as_kernels(w)),
                  lambda x, state, p: gru_step(x, state, p),
                  lambda g, cache, p: gru_backward(g, cache, p),
                  init=_gru_init),
    CONV_GRU: CellKind(False, GRU_WEIGHT_NAMES,
                       lambda spec, w: GruParams(**w),
                       lambda x, state, p: conv_gru_step(x, state, p),
                       lambda g, cache, p: conv_gru_backward(g, cache, p),
                       init=_gru_init),
    LSTM: CellKind(True, LSTM_WEIGHT_NAMES,
                   lambda spec, w: LstmParams(
                       candidate_activation=spec.candidate_activation, **_as_kernels(w)),
                   lambda x, state, p: lstm_step(x, state, p),
                   lambda g, cache, p: lstm_backward(g, cache, p),
                   carries_c=True, candidates=("sigmoid", "tanh")),
}

"""Recurrent cells: GRU, convolutional GRU, and LSTM.

Each cell exposes a pure step function over (input, state) plus an exact
backward for one unrolled step, from the gradient state at the step's output
to the gradient state at its input; the caller chains the backwards over a
window for BPTT and accumulates parameter gradients across steps. CELLS
describes each kind to the executor in one shape, so model.py never asks
which kind it runs: the table checks a kind's spec fields, draws its
initial and random weights, and runs its step and backward.

Every cell is a set of gates plus an elementwise rule. A gate's
pre-activation is lin(u, W_u) + lin(v, W_v) + b (_gate) over the hidden map
and the input, where lin is the cell's linear map: a matrix-vector product
for a dense cell, a stride-1 "same"-padded convolution for a map cell, so
hidden maps keep their spatial dims. The GRU's rule:
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
# The linear maps: lin(v, w) -> (w v, cache) and lin_backward(g, cache, w) ->
# (w^T g, dL/dw).


def _matvec(v, w):
    return w @ v, v


def _matvec_backward(g, v, w):
    return w.T @ g, np.outer(g, v)


def _conv_same(x_chw, w):
    """Stride-1 same-padded conv on a CHW map; returns (chw, cache)."""
    k = ConvKernel(w, np.zeros(w.shape[0], dtype=w.dtype), stride=1, pad=w.shape[2] // 2)
    y, cache = conv2d_forward(x_chw[None], k)
    return y[0], cache


def _conv_same_backward(g_chw, cache, w):
    k = ConvKernel(w, np.zeros(w.shape[0], dtype=w.dtype), stride=1, pad=w.shape[2] // 2)
    gx, gw, _ = conv2d_backward(g_chw[None], cache, k)
    return gx[0], gw


# ---------------------------------------------------------------------------
# The gate: one body for every cell kind


def _gate(lin, p, names, u, v, caches):
    """A gate's pre-activation lin(u, W_u) + lin(v, W_v) + b, where names =
    (W_u, W_v, b) are attributes of p; appends the two maps' caches to
    caches. A step applies the gate's activation to the returned array at
    once, so no pre-activation outlives its gate."""
    w_u, w_v, b = (getattr(p, n) for n in names)
    au, cache_u = lin(u, w_u)
    av, cache_v = lin(v, w_v)
    caches.append((cache_u, cache_v))
    return au + av + b.reshape(-1, *(1,) * (u.ndim - 1))


def _gate_backward(lin_backward, p, names, d, cache):
    """Backward of _gate from d, the gradient at its pre-activation: returns
    (grad_u, grad_v, {name: gradient} for the gate's three parameters)."""
    w_u, w_v, b = names
    grad_u, gw_u = lin_backward(d, cache[0], getattr(p, w_u))
    grad_v, gw_v = lin_backward(d, cache[1], getattr(p, w_v))
    gb = d.copy() if d.ndim == 1 else d.sum(axis=(1, 2))
    return grad_u, grad_v, {w_u: gw_u, w_v: gw_v, b: gb}


def _gru_step(x, state, p, lin):
    h = state.h
    if (x.shape[1:] != h.shape[1:] or h.shape[0] != p.w_h.shape[0]
            or x.shape[0] != p.w_x.shape[1]):
        raise ShapeError(f"GRU dims mismatch: x {x.shape}, h {h.shape}")
    gates = []
    z = sigmoid(_gate(lin, p, GRU_GATES[0], h, x, gates))
    r = sigmoid(_gate(lin, p, GRU_GATES[1], h, x, gates))
    hcand = np.tanh(_gate(lin, p, GRU_GATES[2], r * h, x, gates))
    h_new = (1 - z) * h + z * hcand
    cache = {"h": h, "z": z, "r": r, "hcand": hcand, "gates": gates}
    return RecurrentCellState(h_new), cache


def _gru_backward(grad, cache, p, lin_backward):
    h, z, r, hcand, gates = (cache[k] for k in ("h", "z", "r", "hcand", "gates"))
    g = grad.h
    grad_h = g * (1 - z)
    d_rh, grad_x, grads = _gate_backward(lin_backward, p, GRU_GATES[2],
                                         g * z * (1 - hcand * hcand), gates[2])
    grad_h = grad_h + d_rh * r
    for names, d, gate in zip(GRU_GATES, (g * (hcand - h) * z * (1 - z),
                                          d_rh * h * r * (1 - r)), gates):
        gh, gx, gw = _gate_backward(lin_backward, p, names, d, gate)
        grads.update(gw)
        grad_h = grad_h + gh
        grad_x = grad_x + gx
    return grad_x, RecurrentCellState(grad_h), grads


def gru_step(x, state, p):
    """One dense GRU step; returns (new state, cache for the backward)."""
    return _gru_step(x, state, p, _matvec)


def gru_backward(grad, cache, p):
    """Backward through one dense GRU step from the gradient state at its
    output; returns (grad_x, the gradient state at its input, grads dict
    keyed like the params)."""
    return _gru_backward(grad, cache, p, _matvec_backward)


def conv_gru_step(x, state, p):
    """One Conv-GRU step on a CHW input with a CHW hidden map."""
    return _gru_step(x, state, p, _conv_same)


def conv_gru_backward(grad, cache, p):
    return _gru_backward(grad, cache, p, _conv_same_backward)


def lstm_step(x, state, p):
    """One dense LSTM step over state (h, c)."""
    h, c = state.h, state.c
    gates = []
    i, f, o = (sigmoid(_gate(_matvec, p, names, x, h, gates)) for names in LSTM_GATES[:3])
    cand = sigmoid if p.candidate_activation == "sigmoid" else np.tanh
    g = cand(_gate(_matvec, p, LSTM_GATES[3], x, h, gates))
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
        gx, gh, gw = _gate_backward(_matvec_backward, p, names, d, gate)
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


@dataclass(frozen=True)
class CellKind:
    """What the executor needs to know about one cell kind.

    input_form is "vec" for a cell on flattened features and "chw" for one
    on a feature map. bind is (RecurrentSpec, {weight name: array}) ->
    params; step is (x, state, p) -> (state, cache); backward is
    (grad_state, cache, p) -> (grad_x, grad_state_prev, grads), where a
    gradient state carries grad_h in .h and, for the LSTM, grad_c in .c.
    step and backward look the cell functions above up by name at call
    time, so rebinding a module attribute (as a tracer does) sees every call.
    init is (weight name, shape, rng, dtype) -> a fresh model's weight, and
    candidates lists the candidate activations a spec may choose.
    """

    input_form: str
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
        if self.input_form == "chw" and spec.kernel % 2 != 1:
            raise ConfigError(f"{spec.kind} kernel must be odd")
        if self.input_form != "chw" and spec.kernel:
            raise ConfigError(f"a {spec.kind} cell takes no kernel, got {spec.kernel}")
        if spec.candidate_activation not in self.candidates:
            raise ConfigError(f"a {spec.kind} cell's candidate activation is one of "
                              f"{self.candidates}, got {spec.candidate_activation!r}")

    def param_shapes(self, spec, in_dims):
        """Weight shapes for input dims (d,) or (c, h, w): biases (hidden,),
        hidden-path weights (hidden, hidden) and input-path weights
        (hidden, d or c), each weight with a trailing (k, k) on a map."""
        h = spec.hidden
        tail = (spec.kernel, spec.kernel) if self.input_form == "chw" else ()
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
    GRU: CellKind("vec", GRU_WEIGHT_NAMES,
                  lambda spec, w: GruParams(**w),
                  lambda x, state, p: gru_step(x, state, p),
                  lambda g, cache, p: gru_backward(g, cache, p),
                  init=_gru_init),
    CONV_GRU: CellKind("chw", GRU_WEIGHT_NAMES,
                       lambda spec, w: GruParams(**w),
                       lambda x, state, p: conv_gru_step(x, state, p),
                       lambda g, cache, p: conv_gru_backward(g, cache, p),
                       init=_gru_init),
    LSTM: CellKind("vec", LSTM_WEIGHT_NAMES,
                   lambda spec, w: LstmParams(
                       candidate_activation=spec.candidate_activation, **w),
                   lambda x, state, p: lstm_step(x, state, p),
                   lambda g, cache, p: lstm_backward(g, cache, p),
                   carries_c=True, candidates=("sigmoid", "tanh")),
}

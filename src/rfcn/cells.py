"""Recurrent cells: GRU, convolutional GRU, and LSTM.

Each cell exposes a pure step function over (input, state) plus an exact
backward for one unrolled step; the caller chains the backwards over a
window for BPTT and accumulates parameter gradients across steps. CELLS
describes each kind to the executor in one shape, so model.py never asks
which kind it runs, and draws any kind's random weights.

GRU gate equations:
    z = sigma(W_hz h + W_xz x + b_z)
    r = sigma(W_hr h + W_xr x + b_r)
    hcand = tanh(W_h (r*h) + W_x x + b)
    h' = (1 - z)*h + z*hcand
The convolutional variant replaces every matrix product with a stride-1
"same"-padded convolution, so hidden maps keep their spatial dims. One GRU
step body and one backward body serve both: they take the linear map as an
argument. The LSTM's candidate is a sigmoid or, if configured, a tanh.
"""

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .layers import ConvKernel, conv2d_backward, conv2d_forward
from .tensor import fill_random, sigmoid

GRU_WEIGHT_NAMES = ("w_hz", "w_xz", "b_z", "w_hr", "w_xr", "b_r", "w_h", "w_x", "b")
LSTM_WEIGHT_NAMES = ("w_xi", "w_hi", "b_i", "w_xf", "w_hf", "b_f",
                     "w_xo", "w_ho", "b_o", "w_xc", "w_hc", "b_c")


@dataclass
class RecurrentCellState:
    """Hidden map carried across the frames of one window; in a backward,
    the gradient with respect to it."""

    h: np.ndarray
    c: np.ndarray = None  # LSTM only


@dataclass
class GruParams:
    """The nine GRU weights, for the dense and the convolutional cell.

    Dense: (hidden, hidden) hidden-path and (hidden, input) input-path
    matrices. Conv: (f, f, k, k) hidden-path and (f, c_in, k, k) input-path
    kernels, odd-sized, stride 1, "same"-padded. Biases are (hidden,).
    """

    w_hz: np.ndarray
    w_xz: np.ndarray
    b_z: np.ndarray
    w_hr: np.ndarray
    w_xr: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    w_x: np.ndarray
    b: np.ndarray


@dataclass
class LstmParams:
    w_xi: np.ndarray
    w_hi: np.ndarray
    b_i: np.ndarray
    w_xf: np.ndarray
    w_hf: np.ndarray
    b_f: np.ndarray
    w_xo: np.ndarray
    w_ho: np.ndarray
    b_o: np.ndarray
    w_xc: np.ndarray
    w_hc: np.ndarray
    b_c: np.ndarray
    candidate_activation: str = "sigmoid"


# ---------------------------------------------------------------------------
# GRU: one body for the dense and the convolutional cell. The linear map is
# an argument: lin(v, w) -> (w v, cache) and lin_backward(g, cache, w) ->
# (w^T g, dL/dw). The dense cell passes a matrix-vector product, the conv
# cell a stride-1 "same"-padded convolution.


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


def _bias_grad(d):
    return d.copy() if d.ndim == 1 else d.sum(axis=(1, 2))


def _gru_step(x, state, p, lin):
    h = state.h
    if (x.shape[1:] != h.shape[1:] or h.shape[0] != p.w_h.shape[0]
            or x.shape[0] != p.w_x.shape[1]):
        raise ShapeError(f"GRU dims mismatch: x {x.shape}, h {h.shape}")
    lin_caches = {}

    def affine(tag, v, w_v, w_x, b):
        av, lin_caches["h" + tag] = lin(v, w_v)
        ax, lin_caches["x" + tag] = lin(x, w_x)
        return av + ax + b.reshape(-1, *(1,) * (h.ndim - 1))

    z = sigmoid(affine("z", h, p.w_hz, p.w_xz, p.b_z))
    r = sigmoid(affine("r", h, p.w_hr, p.w_xr, p.b_r))
    rh = r * h
    hcand = np.tanh(affine("h", rh, p.w_h, p.w_x, p.b))
    h_new = (1 - z) * h + z * hcand
    cache = {"x": x, "h": h, "z": z, "r": r, "hcand": hcand, "lin": lin_caches}
    return RecurrentCellState(h_new), cache


def _gru_backward(grad_h_new, cache, p, lin_backward):
    x, h, z, r, hcand, lc = (cache[k] for k in ("x", "h", "z", "r", "hcand", "lin"))
    g = grad_h_new
    grad_h = g * (1 - z)
    d_a = g * z * (1 - hcand * hcand)
    d_rh, gw_h = lin_backward(d_a, lc["hh"], p.w_h)
    grad_x, gw_x = lin_backward(d_a, lc["xh"], p.w_x)
    grad = {"w_h": gw_h, "w_x": gw_x, "b": _bias_grad(d_a)}
    grad_h = grad_h + d_rh * r
    for tag, d in (("z", g * (hcand - h) * z * (1 - z)),
                   ("r", d_rh * h * r * (1 - r))):
        gh, grad["w_h" + tag] = lin_backward(d, lc["h" + tag], getattr(p, "w_h" + tag))
        gx, grad["w_x" + tag] = lin_backward(d, lc["x" + tag], getattr(p, "w_x" + tag))
        grad["b_" + tag] = _bias_grad(d)
        grad_h = grad_h + gh
        grad_x = grad_x + gx
    return grad_x, grad_h, grad


def gru_step(x, state, p):
    """One dense GRU step; returns (new state, cache for the backward)."""
    return _gru_step(x, state, p, _matvec)


def gru_backward(grad_h_new, cache, p):
    """Backward through one dense GRU step.

    Returns (grad_x, grad_h_prev, grads dict keyed like the params).
    """
    return _gru_backward(grad_h_new, cache, p, _matvec_backward)


def conv_gru_step(x, state, p):
    """One Conv-GRU step on a CHW input with a CHW hidden map."""
    return _gru_step(x, state, p, _conv_same)


def conv_gru_backward(grad_h_new, cache, p):
    return _gru_backward(grad_h_new, cache, p, _conv_same_backward)


# ---------------------------------------------------------------------------
# LSTM


def lstm_step(x, state, p):
    """One dense LSTM step over state (h, c)."""
    h, c = state.h, state.c
    i = sigmoid(p.w_xi @ x + p.w_hi @ h + p.b_i)
    f = sigmoid(p.w_xf @ x + p.w_hf @ h + p.b_f)
    o = sigmoid(p.w_xo @ x + p.w_ho @ h + p.b_o)
    a_g = p.w_xc @ x + p.w_hc @ h + p.b_c
    g = sigmoid(a_g) if p.candidate_activation == "sigmoid" else np.tanh(a_g)
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    cache = {"x": x, "h": h, "c": c, "i": i, "f": f, "o": o, "g": g,
             "c_new": c_new, "tc": tc}
    return RecurrentCellState(h_new, c=c_new), cache


def lstm_backward(grad_h_new, grad_c_new, cache, p):
    """Backward through one LSTM step.

    Returns (grad_x, grad_h_prev, grad_c_prev, grads dict).
    """
    x, h, c, i, f, o, g, c_new, tc = (
        cache[k] for k in ("x", "h", "c", "i", "f", "o", "g", "c_new", "tc"))
    gh = grad_h_new
    d_o = gh * tc
    d_c = gh * o * (1 - tc * tc)
    if grad_c_new is not None:
        d_c = d_c + grad_c_new
    d_f = d_c * c
    d_i = d_c * g
    d_g = d_c * i
    grad_c_prev = d_c * f

    if p.candidate_activation == "sigmoid":
        d_ag = d_g * g * (1 - g)
    else:
        d_ag = d_g * (1 - g * g)
    d_ai = d_i * i * (1 - i)
    d_af = d_f * f * (1 - f)
    d_ao = d_o * o * (1 - o)

    grad = {}
    grad_x = np.zeros_like(x)
    grad_h = np.zeros_like(h)
    for tag, d in (("i", d_ai), ("f", d_af), ("o", d_ao), ("c", d_ag)):
        grad[f"w_x{tag}"] = np.outer(d, x)
        grad[f"w_h{tag}"] = np.outer(d, h)
        grad[f"b_{tag}"] = d.copy()
        grad_x = grad_x + getattr(p, f"w_x{tag}").T @ d
        grad_h = grad_h + getattr(p, f"w_h{tag}").T @ d
    return grad_x, grad_h, grad_c_prev, grad


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
    """

    input_form: str
    weight_names: tuple
    bind: object
    step: object
    backward: object
    carries_c: bool = False

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
        return OrderedDict(
            (n, np.zeros(shape, dtype=dtype) if n.startswith("b")
             else fill_random(shape, rng, "scaled-fan-in", dtype=dtype))
            for n, shape in self.param_shapes(spec, in_dims).items())

    def zero_state(self, shape, dtype):
        """The state at a window start, with hidden maps of the given shape."""
        c = np.zeros(shape, dtype=dtype) if self.carries_c else None
        return RecurrentCellState(np.zeros(shape, dtype=dtype), c=c)


def _gru_backward_state(grad, cache, p, backward):
    gx, gh, grads = backward(grad.h, cache, p)
    return gx, RecurrentCellState(gh), grads


def _lstm_backward(grad, cache, p):
    gx, gh, gc, grads = lstm_backward(grad.h, grad.c, cache, p)
    return gx, RecurrentCellState(gh, c=gc), grads


CELLS = {
    "gru": CellKind("vec", GRU_WEIGHT_NAMES,
                    lambda spec, w: GruParams(**w),
                    lambda x, state, p: gru_step(x, state, p),
                    lambda g, cache, p: _gru_backward_state(g, cache, p, gru_backward)),
    "conv_gru": CellKind("chw", GRU_WEIGHT_NAMES,
                         lambda spec, w: GruParams(**w),
                         lambda x, state, p: conv_gru_step(x, state, p),
                         lambda g, cache, p: _gru_backward_state(
                             g, cache, p, conv_gru_backward)),
    "lstm": CellKind("vec", LSTM_WEIGHT_NAMES,
                     lambda spec, w: LstmParams(
                         candidate_activation=spec.candidate_activation, **w),
                     lambda x, state, p: lstm_step(x, state, p), _lstm_backward,
                     carries_c=True),
}

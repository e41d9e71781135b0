"""Recurrent cells: GRU, convolutional GRU, and LSTM.

Each cell exposes a pure step function over (input, state) plus an exact
backward for one unrolled step; the caller chains the backwards over a
window for BPTT and accumulates parameter gradients across steps. CELLS
describes each kind to the executor in one shape, so model.py never asks
which kind it runs.

Gate equations (sigma gates, tanh candidate unless configured otherwise):
    z = sigma(W_hz h + W_xz x + b_z)
    r = sigma(W_hr h + W_xr x + b_r)
    hcand = tanh(W_h (r*h) + W_x x + b)
    h' = (1 - z)*h + z*hcand
The convolutional variant replaces every matrix product with a stride-1
"same"-padded convolution, so hidden maps keep their spatial dims.
"""

from collections import OrderedDict
from dataclasses import dataclass, fields

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


def _params_dict(p):
    return {f.name: getattr(p, f.name) for f in fields(p)}


@dataclass
class DenseGruParams:
    w_hz: np.ndarray
    w_xz: np.ndarray
    b_z: np.ndarray
    w_hr: np.ndarray
    w_xr: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    w_x: np.ndarray
    b: np.ndarray

    @classmethod
    def init(cls, hidden, input_dim, rng, dtype=np.float32):
        def wh():
            return fill_random((hidden, hidden), rng, "scaled-fan-in", dtype=dtype)

        def wx():
            return fill_random((hidden, input_dim), rng, "scaled-fan-in", dtype=dtype)

        z = lambda: np.zeros(hidden, dtype=dtype)
        return cls(wh(), wx(), z(), wh(), wx(), z(), wh(), wx(), z())

    def as_dict(self):
        return _params_dict(self)


@dataclass
class ConvGruParams:
    """Same nine parameter roles as DenseGruParams with conv kernels.

    Hidden-path weights are (f, f, k, k); input-path weights are (f, c_in, k, k).
    Kernels are odd-sized, stride 1, "same"-padded.
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

    @classmethod
    def init(cls, hidden_channels, input_channels, kernel, rng, dtype=np.float32):
        if kernel % 2 != 1:
            raise ShapeError(f"conv-GRU kernel must be odd for same padding, got {kernel}")

        def wh():
            return fill_random((hidden_channels, hidden_channels, kernel, kernel),
                               rng, "scaled-fan-in", dtype=dtype)

        def wx():
            return fill_random((hidden_channels, input_channels, kernel, kernel),
                               rng, "scaled-fan-in", dtype=dtype)

        z = lambda: np.zeros(hidden_channels, dtype=dtype)
        return cls(wh(), wx(), z(), wh(), wx(), z(), wh(), wx(), z())

    def as_dict(self):
        return _params_dict(self)


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

    @classmethod
    def init(cls, hidden, input_dim, rng, dtype=np.float32,
             candidate_activation="sigmoid"):
        def wh():
            return fill_random((hidden, hidden), rng, "scaled-fan-in", dtype=dtype)

        def wx():
            return fill_random((hidden, input_dim), rng, "scaled-fan-in", dtype=dtype)

        z = lambda: np.zeros(hidden, dtype=dtype)
        return cls(wx(), wh(), z(), wx(), wh(), z(), wx(), wh(), z(), wx(), wh(), z(),
                   candidate_activation=candidate_activation)

    def as_dict(self):
        d = _params_dict(self)
        d.pop("candidate_activation")
        return d




# ---------------------------------------------------------------------------
# Dense GRU


def gru_step(x, state, p):
    """One dense GRU step; returns (new state, cache for the backward)."""
    h = state.h
    if h.shape[0] != p.w_h.shape[0] or x.shape[0] != p.w_x.shape[1]:
        raise ShapeError(f"GRU dims mismatch: h {h.shape}, x {x.shape}")
    z = sigmoid(p.w_hz @ h + p.w_xz @ x + p.b_z)
    r = sigmoid(p.w_hr @ h + p.w_xr @ x + p.b_r)
    rh = r * h
    hcand = np.tanh(p.w_h @ rh + p.w_x @ x + p.b)
    h_new = (1 - z) * h + z * hcand
    cache = {"x": x, "h": h, "z": z, "r": r, "rh": rh, "hcand": hcand}
    return RecurrentCellState(h_new), cache


def gru_backward(grad_h_new, cache, p):
    """Backward through one dense GRU step.

    Returns (grad_x, grad_h_prev, grads dict keyed like the params).
    """
    x, h, z, r, rh, hcand = (cache[k] for k in ("x", "h", "z", "r", "rh", "hcand"))
    g = grad_h_new
    d_hcand = g * z
    d_z = g * (hcand - h)
    grad_h = g * (1 - z)

    d_a = d_hcand * (1 - hcand * hcand)
    grad = {
        "w_h": np.outer(d_a, rh),
        "w_x": np.outer(d_a, x),
        "b": d_a.copy(),
    }
    d_rh = p.w_h.T @ d_a
    grad_x = p.w_x.T @ d_a
    d_r = d_rh * h
    grad_h = grad_h + d_rh * r

    d_az = d_z * z * (1 - z)
    grad["w_hz"] = np.outer(d_az, h)
    grad["w_xz"] = np.outer(d_az, x)
    grad["b_z"] = d_az.copy()
    grad_h = grad_h + p.w_hz.T @ d_az
    grad_x = grad_x + p.w_xz.T @ d_az

    d_ar = d_r * r * (1 - r)
    grad["w_hr"] = np.outer(d_ar, h)
    grad["w_xr"] = np.outer(d_ar, x)
    grad["b_r"] = d_ar.copy()
    grad_h = grad_h + p.w_hr.T @ d_ar
    grad_x = grad_x + p.w_xr.T @ d_ar
    return grad_x, grad_h, grad


# ---------------------------------------------------------------------------
# Convolutional GRU


def _conv_same(x_chw, w):
    """Stride-1 same-padded conv on a CHW map; returns (chw, cache)."""
    k = ConvKernel(w, np.zeros(w.shape[0], dtype=w.dtype), stride=1, pad=w.shape[2] // 2)
    y, cache = conv2d_forward(x_chw[None], k)
    return y[0], cache


def _conv_same_backward(g_chw, cache, w):
    k = ConvKernel(w, np.zeros(w.shape[0], dtype=w.dtype), stride=1, pad=w.shape[2] // 2)
    gx, gw, _ = conv2d_backward(g_chw[None], cache, k)
    return gx[0], gw


def conv_gru_step(x, state, p):
    """One Conv-GRU step on a CHW input with a CHW hidden map."""
    h = state.h
    if x.shape[1:] != h.shape[1:]:
        raise ShapeError(f"spatial dims differ: x {x.shape}, h {h.shape}")
    if h.shape[0] != p.w_h.shape[0] or x.shape[0] != p.w_x.shape[1]:
        raise ShapeError(f"channel dims mismatch: x {x.shape}, h {h.shape}")
    bz = p.b_z.reshape(-1, 1, 1)
    br = p.b_r.reshape(-1, 1, 1)
    bh = p.b.reshape(-1, 1, 1)
    hz, c_hz = _conv_same(h, p.w_hz)
    xz, c_xz = _conv_same(x, p.w_xz)
    z = sigmoid(hz + xz + bz)
    hr, c_hr = _conv_same(h, p.w_hr)
    xr, c_xr = _conv_same(x, p.w_xr)
    r = sigmoid(hr + xr + br)
    rh = r * h
    hh, c_hh = _conv_same(rh, p.w_h)
    xh, c_xh = _conv_same(x, p.w_x)
    hcand = np.tanh(hh + xh + bh)
    h_new = (1 - z) * h + z * hcand
    cache = {"x": x, "h": h, "z": z, "r": r, "rh": rh, "hcand": hcand,
             "conv": {"hz": c_hz, "xz": c_xz, "hr": c_hr, "xr": c_xr,
                      "hh": c_hh, "xh": c_xh}}
    return RecurrentCellState(h_new), cache


def conv_gru_backward(grad_h_new, cache, p):
    x, h, z, r, rh, hcand = (cache[k] for k in ("x", "h", "z", "r", "rh", "hcand"))
    cc = cache["conv"]
    g = grad_h_new
    d_hcand = g * z
    d_z = g * (hcand - h)
    grad_h = g * (1 - z)

    d_a = d_hcand * (1 - hcand * hcand)
    d_rh, gw_h = _conv_same_backward(d_a, cc["hh"], p.w_h)
    gx, gw_x = _conv_same_backward(d_a, cc["xh"], p.w_x)
    grad = {"w_h": gw_h, "w_x": gw_x, "b": d_a.sum(axis=(1, 2))}
    d_r = d_rh * h
    grad_h = grad_h + d_rh * r

    d_az = d_z * z * (1 - z)
    gh, gw = _conv_same_backward(d_az, cc["hz"], p.w_hz)
    grad["w_hz"] = gw
    gxz, gw = _conv_same_backward(d_az, cc["xz"], p.w_xz)
    grad["w_xz"] = gw
    grad["b_z"] = d_az.sum(axis=(1, 2))
    grad_h = grad_h + gh
    gx = gx + gxz

    d_ar = d_r * r * (1 - r)
    gh, gw = _conv_same_backward(d_ar, cc["hr"], p.w_hr)
    grad["w_hr"] = gw
    gxr, gw = _conv_same_backward(d_ar, cc["xr"], p.w_xr)
    grad["w_xr"] = gw
    grad["b_r"] = d_ar.sum(axis=(1, 2))
    grad_h = grad_h + gh
    gx = gx + gxr
    return gx, grad_h, grad


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

    def zero_state(self, shape, dtype):
        """The state at a window start, with hidden maps of the given shape."""
        c = np.zeros(shape, dtype=dtype) if self.carries_c else None
        return RecurrentCellState(np.zeros(shape, dtype=dtype), c=c)


def _gru_backward(grad, cache, p):
    gx, gh, grads = gru_backward(grad.h, cache, p)
    return gx, RecurrentCellState(gh), grads


def _conv_gru_backward(grad, cache, p):
    gx, gh, grads = conv_gru_backward(grad.h, cache, p)
    return gx, RecurrentCellState(gh), grads


def _lstm_backward(grad, cache, p):
    gx, gh, gc, grads = lstm_backward(grad.h, grad.c, cache, p)
    return gx, RecurrentCellState(gh, c=gc), grads


CELLS = {
    "gru": CellKind("vec", GRU_WEIGHT_NAMES,
                    lambda spec, w: DenseGruParams(**w),
                    lambda x, state, p: gru_step(x, state, p), _gru_backward),
    "conv_gru": CellKind("chw", GRU_WEIGHT_NAMES,
                         lambda spec, w: ConvGruParams(**w),
                         lambda x, state, p: conv_gru_step(x, state, p),
                         _conv_gru_backward),
    "lstm": CellKind("vec", LSTM_WEIGHT_NAMES,
                     lambda spec, w: LstmParams(
                         candidate_activation=spec.candidate_activation, **w),
                     lambda x, state, p: lstm_step(x, state, p), _lstm_backward,
                     carries_c=True),
}

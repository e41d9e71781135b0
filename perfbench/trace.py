"""Span tracing of the rfcn library from outside the program.

The tracer replaces public functions of rfcn's modules with timing wrappers.
model.py and cells.py import the layer functions by name, so a function is
replaced at every module attribute bound to it, not only where it is
defined: wrapping rfcn.layers.conv2d_forward alone would miss every call the
executor makes through rfcn.model.conv2d_forward.

Spans are kept in memory as [name, start, end, parent, tag] lists; a span's
self time is its duration minus the time covered by its child spans.
"""

import sys
import time

# module -> the public functions the workloads reach, which are wrapped.
# tensor (sigmoid and friends) is counted inside its callers; cli and
# gradcheck are not on a measured path. No preset has a dense layer or an
# LSTM, no workload trains a multiclass model, and the conv-GRU preset only
# runs forward, so those functions are left out.
TRACED = {
    "data": ("load_manifest_sequences", "sliding_windows"),
    "model": ("forward_window", "backward_window", "forward_stream", "init_model",
              "load_checkpoint", "save_checkpoint"),
    "layers": ("conv2d_forward", "conv2d_backward", "deconv2d_forward",
               "deconv2d_backward", "maxpool2d_forward", "maxpool2d_backward",
               "relu_forward", "relu_backward"),
    "cells": ("gru_step", "gru_backward", "conv_gru_step"),
    "training": ("train", "evaluate", "predict", "adadelta_step", "logistic_loss"),
    "metrics": ("evaluate_masks",),
}

# Entry points that take the model as their first argument.
EXECUTOR = ("model.forward_window", "model.backward_window", "model.forward_stream")

NAME, START, END, PARENT, TAG = range(5)


# ---------------------------------------------------------------------------
# Work formulas. Shapes are NCHW; weights are (f, c, kh, kw) as in
# rfcn.layers.ConvKernel. FLOPs count a multiply-add as two operations and
# cover the GEMMs only (bias adds, im2col copies and col2im adds are not
# arithmetic on the critical path). Bytes count each operand read once and
# each result written once, at the arrays' item size.


def _out_hw(h, w, kh, kw, stride, pad):
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def conv_flops(x_shape, w_shape, stride, pad, backward=False):
    """conv2d forward: one GEMM (f x c*kh*kw) @ (c*kh*kw x ho*wo) per image.
    Backward: two GEMMs of the same size (weight gradient, column gradient)."""
    n, c, h, w = x_shape
    f, _, kh, kw = w_shape
    ho, wo = _out_hw(h, w, kh, kw, stride, pad)
    gemm = 2 * n * f * c * kh * kw * ho * wo
    return 2 * gemm if backward else gemm


def conv_bytes(x_shape, w_shape, stride, pad, itemsize, backward=False):
    """Forward reads x, weights, bias and writes y. Backward reads grad_y,
    the saved columns and the weights, and writes grad_x, grad_w, grad_b."""
    n, c, h, w = x_shape
    f, _, kh, kw = w_shape
    ho, wo = _out_hw(h, w, kh, kw, stride, pad)
    x, wt, y = n * c * h * w, f * c * kh * kw, n * f * ho * wo
    if backward:
        cols = n * c * kh * kw * ho * wo
        elems = y + cols + wt + x + wt + f
    else:
        elems = x + wt + f + y
    return elems * itemsize


def deconv_flops(x_shape, w_shape, backward=False):
    """deconv2d forward: (c*kh*kw x f) @ (f x h*w) per image. Backward: the
    input gradient and the weight gradient, each a GEMM of that size."""
    n, f, h, w = x_shape
    _, c, kh, kw = w_shape
    gemm = 2 * n * f * c * kh * kw * h * w
    return 2 * gemm if backward else gemm


def gru_backward_flops(hidden, inputs):
    """Dense GRU step backward: six outer products (one multiply per entry)
    and six transposed matrix-vector products over the three gates."""
    return 3 * hidden * (hidden + inputs) + 6 * hidden * (hidden + inputs)


def adadelta_bytes(n_elements, itemsize):
    """Per element: read parameter, gradient and both accumulators; write
    the parameter and both accumulators."""
    return 7 * n_elements * itemsize


# ---------------------------------------------------------------------------
# Tags: extra facts recorded per call, from its arguments and result.


def _conv_tag(tracer, backward, deconv):
    def tag(args, result):
        k = args[-1]
        x_shape = args[1].input_shape if backward else args[0].shape
        wshape, item = k.weights.shape, k.weights.dtype.itemsize
        name = tracer.param_names.get(id(k.weights), "?")
        if deconv:
            return name, deconv_flops(x_shape, wshape, backward), 0
        return (name, conv_flops(x_shape, wshape, k.stride, k.pad, backward),
                conv_bytes(x_shape, wshape, k.stride, k.pad, item, backward))
    return tag


def _gru_backward_tag(args, result):
    p = args[2]
    return None, gru_backward_flops(p.w_h.shape[0], p.w_x.shape[1]), 0


def _adadelta_tag(args, result):
    params, grads = args[0], args[1]
    n = sum(g.size for g in grads.values())
    item = next(iter(params.values())).dtype.itemsize if params else 4
    return None, 0, adadelta_bytes(n, item)


def _count_tag(args, result):
    return len(result)


class Tracer:
    """Records spans for every call of the TRACED functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []          # (module, attribute, original)
        self.param_names = {}     # id(array) -> parameter name

    def _refresh(self, args):
        """Map the model's current parameter arrays to their names. Called on
        entry to each executor function (args[0] is the model), because
        Adadelta replaces the arrays every step."""
        self.param_names = {id(v): k for k, v in args[0].params.items()}

    def _tags(self):
        return {
            "layers.conv2d_forward": _conv_tag(self, False, False),
            "layers.conv2d_backward": _conv_tag(self, True, False),
            "layers.deconv2d_forward": _conv_tag(self, False, True),
            "layers.deconv2d_backward": _conv_tag(self, True, True),
            "cells.gru_backward": _gru_backward_tag,
            "training.adadelta_step": _adadelta_tag,
            "model.forward_stream": _count_tag,
        }

    def _wrap(self, name, fn, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        enter = self._refresh if name in EXECUTOR else None

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            try:
                rec[START] = clock()
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[END] = clock()
                stack.pop()
                if tag is not None and result is not None:
                    rec[TAG] = tag(args, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Wrap each TRACED function at every rfcn module attribute bound to it."""
        if self._saved:
            return
        mods = {k[len("rfcn."):]: m for k, m in sys.modules.items()
                if k.startswith("rfcn.") and m is not None}
        tags = self._tags()
        for modname, funcs in TRACED.items():
            for fname in funcs:
                original = getattr(mods[modname], fname)
                qual = f"{modname}.{fname}"
                wrapper = self._wrap(qual, original, tags.get(qual))
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []


# ---------------------------------------------------------------------------
# Analysis


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def ancestor(spans, i, names):
    """Index of the nearest ancestor of span i whose name is in names, or -1."""
    p = spans[i][PARENT]
    while p >= 0 and spans[p][NAME] not in names:
        p = spans[p][PARENT]
    return p


def summarize(spans):
    """Per function name: calls, total inclusive and self seconds, FLOPs and
    bytes (from the tags that carry them)."""
    selfs = self_times(spans)
    out = {}
    for s, st in zip(spans, selfs):
        row = out.setdefault(s[NAME], {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                       "flops": 0, "bytes": 0})
        row["calls"] += 1
        row["incl_s"] += s[END] - s[START]
        row["self_s"] += st
        if isinstance(s[TAG], tuple):
            row["flops"] += s[TAG][1]
            row["bytes"] += s[TAG][2]
    return out


def backward_breakdown(spans):
    """Share of model.backward_window time per item: conv and deconv calls by
    parameter name, every other traced function by its name, and the
    executor's own time as model.backward_window."""
    selfs = self_times(spans)
    total = 0.0
    cost = {}
    for i, s in enumerate(spans):
        if s[NAME] == "model.backward_window":
            total += s[END] - s[START]
            key = s[NAME]
        elif ancestor(spans, i, ("model.backward_window",)) >= 0:
            tag = s[TAG]
            key = tag[0] if isinstance(tag, tuple) and tag[0] else s[NAME]
        else:
            continue
        cost[key] = cost.get(key, 0.0) + selfs[i]
    if total <= 0:
        return []
    return sorted(((k, v / total) for k, v in cost.items()), key=lambda kv: -kv[1])

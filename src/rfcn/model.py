"""Declarative architectures, presets, the frame-by-frame executor, and
checkpoint serialization.

An architecture is a pre-recurrent layer chain applied to every frame, at
most one recurrent node, and a post-recurrent chain applied to the hidden
state of each frame whose segmentation is asked for. Skip links route an
early post-chain feature map through a 1x1 score conv and add it to a later
layer's output. Both chains and the score convs run through one forward and
one backward walker.

One forward loop serves all inference and training: a window
(forward_window, for BPTT) is a stream that starts from the zero state and
emits its last frame only; a series of windows (forward_windows) runs that
loop once per window, sharing the pre-chain features of frame objects that
consecutive windows hold; a stream (forward_stream) carries the state across
the whole sequence and emits every frame from window-1 on. Layer functions
are called through this module's attributes, which profilers and the
gradient audit's kink probe rebind.
"""

import io
import json
import math
import os
import struct
from collections import OrderedDict
from dataclasses import dataclass, field, fields

import numpy as np

from . import cells
from .data import FRAME_DTYPE, MAX_CLASS_ID, frame_values
from .errors import CheckpointError, ConfigError, DataError, ShapeError
from .layers import (ConvKernel, bilinear_kernel, conv2d_backward, conv2d_forward,
                     conv_output_dim, deconv2d_backward, deconv2d_forward,
                     deconv_output_dim, flatten, identity_kernel, maxpool2d_backward,
                     maxpool2d_forward, relu_backward, relu_forward, unflatten)
from .tensor import check_finite, fill_random

CHECKPOINT_MAGIC = b"RFCN"
CHECKPOINT_VERSION = 1

LAYER_KINDS = ("conv", "conv1x1", "deconv", "pool", "relu", "flatten", "unflatten")


def _is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


# What the JSON value of a config field must be, by the field's annotated
# type; a field of another type (the recurrent node) has its own from_dict.
_JSON_TYPES = {
    int: ("a non-negative integer", _is_count),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of non-negative integers",
            lambda v: isinstance(v, list) and all(map(_is_count, v))),
    list: ("a list", lambda v: isinstance(v, list)),
    list[str]: ("a list of strings",
                lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
}


def _checked(cls, d, where, required):
    """Return the JSON object d (or a dataclass's field values by name) once
    it fits the dataclass cls: every key names a field, every name in
    required is present, and every value has its field's JSON type. Raises
    ConfigError naming where otherwise."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(d) - set(types))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"{where} lacks keys {missing}")
    for k, v in d.items():
        what, ok = _JSON_TYPES.get(types[k], (None, None))
        if ok and not ok(v):
            raise ConfigError(f"{where}: {k} must be {what}, got {v!r}")
    return d


@dataclass
class LayerSpec:
    """One layer in Table-1 notation: size F(n), stride S(n), pad P(n), depth D(n)."""

    kind: str
    size: int = 0
    stride: int = 0  # 0 = default (1 for conv/deconv, window size for pool)
    pad: int = 0
    depth: int = 0
    target_shape: tuple = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.target_shape is not None:
            self.target_shape = tuple(int(s) for s in self.target_shape)

    def effective_stride(self):
        if self.stride:
            return self.stride
        return self.size if self.kind == "pool" else 1

    def to_dict(self):
        d = {"kind": self.kind}
        for k in ("size", "stride", "pad", "depth"):
            v = getattr(self, k)
            if v:
                d[k] = v
        if self.target_shape is not None:
            d["target_shape"] = list(self.target_shape)
        return d

    @classmethod
    def from_dict(cls, d, where):
        return cls(**_checked(cls, d, where, ("kind",)))


@dataclass
class RecurrentSpec:
    """The single recurrent node: cell kind and its dimensions. Which fields
    a kind takes is the cell table's rule (cells.CellKind.check)."""

    kind: str
    hidden: int
    kernel: int = 0  # map cells only
    candidate_activation: str = "sigmoid"

    def __post_init__(self):
        if self.kind not in cells.CELLS:
            raise ConfigError(f"unknown cell kind {self.kind!r}")
        cells.CELLS[self.kind].check(self)

    def to_dict(self):
        d = {"kind": self.kind, "hidden": self.hidden}
        if self.kernel:
            d["kernel"] = self.kernel
        # an unknown kind still serializes, and then fails to load
        cell = cells.CELLS.get(self.kind)
        if cell is not None and len(cell.candidates) > 1:
            d["candidate_activation"] = self.candidate_activation
        return d

    @classmethod
    def from_dict(cls, d):
        if d is None:
            return None
        return cls(**_checked(cls, d, "recurrent", ("kind", "hidden")))


@dataclass
class SkipLink:
    """Add a 1x1-scored copy of post-layer `source`'s output to `target`'s output."""

    source: int
    target: int

    def to_dict(self):
        return {"source": self.source, "target": self.target}

    @classmethod
    def from_dict(cls, d, where):
        return cls(**_checked(cls, d, where, ("source", "target")))


@dataclass
class ArchitectureConfig:
    name: str
    input_shape: tuple  # (c, h, w)
    num_classes: int
    pre: list
    recurrent: RecurrentSpec
    post: list
    skip_links: list = field(default_factory=list)
    window: int = 3

    def __post_init__(self):
        self.input_shape = tuple(int(s) for s in self.input_shape)

    def to_dict(self):
        return {
            "name": self.name,
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "window": self.window,
            "pre": [s.to_dict() for s in self.pre],
            "recurrent": self.recurrent.to_dict() if self.recurrent else None,
            "post": [s.to_dict() for s in self.post],
            "skip_links": [s.to_dict() for s in self.skip_links],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d):
        """The one judge of a malformed config: raises ConfigError for a
        non-object, missing or unknown keys at any level, and values of the
        wrong JSON type."""
        _checked(cls, d, "config", ("name", "input_shape", "num_classes", "pre", "post"))
        chains = {k: [parse(s, f"{k}[{i}]") for i, s in enumerate(d.get(k, []))]
                  for k, parse in (("pre", LayerSpec.from_dict),
                                   ("post", LayerSpec.from_dict),
                                   ("skip_links", SkipLink.from_dict))}
        return cls(**dict(d, recurrent=RecurrentSpec.from_dict(d.get("recurrent")),
                          **chains))

    @classmethod
    def from_json(cls, text):
        """Parse JSON text, a str or UTF-8 bytes, through from_dict."""
        try:
            d = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"config is not valid JSON: {e}") from e
        return cls.from_dict(d)


# ---------------------------------------------------------------------------
# Shape checking


def _layer_output_shape(spec, shape):
    """shape is ('chw', (c,h,w)) or ('vec', (n,)). Returns the output shape and
    the layer's parameter shapes keyed by suffix.

    conv, conv1x1, deconv and pool slide a window over a spatial input: the
    output dims follow conv_output_dim (deconv_output_dim for a deconv) at the
    effective stride, with pad 0 for a pool, and must be positive."""
    kind, dims = shape
    if spec.kind in ("conv", "conv1x1", "deconv", "pool"):
        if kind != "chw":
            raise ConfigError(f"{spec.kind} needs a spatial input, got {shape}")
        c, h, w = dims
        size = 1 if spec.kind == "conv1x1" else spec.size
        s = spec.effective_stride()
        if spec.kind == "pool" and (not 1 <= size <= min(h, w) or s < 1):
            raise ConfigError(f"pool window {size}, stride {s} do not fit input {h}x{w}")
        out_dim = deconv_output_dim if spec.kind == "deconv" else conv_output_dim
        pad = 0 if spec.kind == "pool" else spec.pad
        ho, wo = out_dim(h, size, s, pad), out_dim(w, size, s, pad)
        if ho < 1 or wo < 1:
            raise ConfigError(f"{spec.kind} output dims {ho}x{wo} not positive")
        if spec.kind == "pool":
            return ("chw", (c, ho, wo)), {}
        io_dims = (c, spec.depth) if spec.kind == "deconv" else (spec.depth, c)
        return (("chw", (spec.depth, ho, wo)),
                {"weights": io_dims + (size, size), "bias": (spec.depth,)})
    if spec.kind == "relu":
        return shape, {}
    if spec.kind == "flatten":
        return ("vec", (math.prod(dims),)), {}
    # unflatten
    if kind != "vec":
        raise ConfigError("unflatten needs a vector input")
    target = spec.target_shape
    if target is None or len(target) != 3 or math.prod(target) != dims[0]:
        raise ConfigError(f"unflatten target {target} is not a (C, H, W) "
                          f"of the vector's {dims[0]} values")
    return ("chw", target), {}


def _cell_param_shapes(rec, in_shape):
    cell = cells.CELLS[rec.kind]
    form, dims = in_shape
    if form != cell.input_form:
        raise ConfigError(f"{rec.kind} needs a {cell.input_form!r} input, got {in_shape}")
    return (form, (rec.hidden,) + dims[1:]), cell.param_shapes(rec, dims)


@dataclass
class ShapeReport:
    recurrent_input: tuple
    output_shape: tuple    # (c, h, w) logits
    param_shapes: OrderedDict  # canonical name -> shape


# The most elements a float64 parameter array can hold and still be indexed
MAX_PARAM_ELEMENTS = np.iinfo(np.intp).max // 8


def _chain_shapes(section, specs, shape, param_shapes):
    """Shape-check the pre or post chain from `shape`, recording its parameter
    shapes; returns the output shape and the shape after each layer."""
    shapes = []
    for i, spec in enumerate(specs):
        shape, pshapes = _layer_output_shape(spec, shape)
        for suffix, ps in pshapes.items():
            param_shapes[f"{section}.{i}.{spec.kind}.{suffix}"] = ps
        shapes.append(shape)
    return shape, shapes


def shape_check(config):
    """Walk the config, validating every layer and collecting parameter shapes.

    Raises ConfigError on any inconsistency, including a window that is not
    a positive integer, a parameter with an empty dimension or more elements
    than MAX_PARAM_ELEMENTS, logits whose spatial dims differ from the input
    or whose channel count differs from num_classes, and more classes than a
    mask's ids can name.
    """
    window = config.window
    if isinstance(window, bool) or not isinstance(window, int) or window < 1:
        raise ConfigError(f"window must be a positive integer, got {window!r}")
    if len(config.input_shape) != 3:
        raise ConfigError(f"input_shape must be (C, H, W), got {config.input_shape}")
    param_shapes = OrderedDict()
    shape, _ = _chain_shapes("pre", config.pre, ("chw", config.input_shape), param_shapes)
    rec_in = shape
    if config.recurrent is not None:
        shape, cshapes = _cell_param_shapes(config.recurrent, shape)
        for suffix, ps in cshapes.items():
            param_shapes[f"cell.{suffix}"] = ps
    shape, post_shapes = _chain_shapes("post", config.post, shape, param_shapes)
    for j, link in enumerate(config.skip_links):
        if not (0 <= link.source < len(config.post)) or not (0 <= link.target < len(config.post)):
            raise ConfigError(f"skip link {j} indexes outside the post chain")
        if link.source >= link.target:
            raise ConfigError(f"skip link {j} must go forward")
        # the score conv maps the source to the target's shape
        target = post_shapes[link.target]
        scored, pshapes = _layer_output_shape(
            LayerSpec("conv1x1", depth=target[1][0]), post_shapes[link.source])
        if scored != target:
            raise ConfigError(f"skip link {j} scores to {scored}, not the target's {target}")
        for suffix, ps in pshapes.items():
            param_shapes[f"skip.{j}.score.{suffix}"] = ps
    for name, ps in param_shapes.items():
        if not 0 < math.prod(ps) <= MAX_PARAM_ELEMENTS:
            raise ConfigError(f"parameter {name} of shape {ps} is empty or has more "
                              f"than {MAX_PARAM_ELEMENTS} elements")
    kind, dims = shape
    if kind != "chw":
        raise ConfigError(f"network output must be a spatial map, got {shape}")
    if dims[0] != config.num_classes:
        raise ConfigError(f"output channels {dims[0]} != num_classes {config.num_classes}")
    if dims[0] > MAX_CLASS_ID + 1:
        raise ConfigError(f"num_classes {dims[0]} exceeds {MAX_CLASS_ID + 1}, "
                          f"the class ids a mask holds")
    if dims[1:] != config.input_shape[1:]:
        raise ConfigError(
            f"output spatial dims {dims[1:]} != input {config.input_shape[1:]}")
    return ShapeReport(rec_in, dims, param_shapes)


# ---------------------------------------------------------------------------
# Model instantiation


@dataclass
class ModelInstance:
    config: ArchitectureConfig
    params: "OrderedDict[str, np.ndarray]"
    dtype: object = np.float32

    def cell_params(self):
        rec = self.config.recurrent
        d = {k.split(".", 1)[1]: v for k, v in self.params.items()
             if k.startswith("cell.")}
        return cells.CELLS[rec.kind].bind(rec, d)


# Square conv1x1 layers placed after a cell, which starts as a pass-through
# of its input (cells.CellKind.init), get an identity gain > 1 so the bounded
# hidden state can be stretched back into unbounded logits.
POST_CELL_GAIN = 2.0


def init_model(config, rng, dtype=np.float32):
    """Instantiate a config: the cell kind's initial weights, fan-in-scaled
    conv weights, bilinear deconv weights, zero biases."""
    report = shape_check(config)
    params = OrderedDict()
    for name, shape in report.param_shapes.items():
        kind = name.split(".")[-2]
        leaf = name.split(".")[-1]
        if name.startswith("cell."):
            params[name] = cells.CELLS[config.recurrent.kind].init(
                name.split(".", 1)[1], shape, rng, dtype)
        elif leaf == "bias":
            params[name] = np.zeros(shape, dtype=dtype)
        elif kind == "deconv":
            f, c, kh, kw = shape
            params[name] = bilinear_kernel(f, c, kh, dtype=dtype)
        elif (name.startswith("post.") and kind == "conv1x1"
              and config.recurrent is not None and shape[0] == shape[1]):
            params[name] = identity_kernel(shape, POST_CELL_GAIN, dtype)
        else:
            params[name] = fill_random(shape, rng, dtype)
    return ModelInstance(config=config, params=params, dtype=dtype)


# ---------------------------------------------------------------------------
# Layer execution


def _kernel(spec, params, prefix):
    return ConvKernel(params[f"{prefix}.weights"], params[f"{prefix}.bias"],
                      spec.effective_stride(), spec.pad)


def _layer_forward(spec, params, prefix, x):
    kind = spec.kind
    if kind in ("conv", "conv1x1", "deconv"):
        forward = deconv2d_forward if kind == "deconv" else conv2d_forward
        return forward(x, _kernel(spec, params, prefix))
    if kind == "pool":
        return maxpool2d_forward(x, spec.size, spec.effective_stride())
    if kind == "relu":
        return relu_forward(x)
    if kind == "flatten":
        return flatten(x), x.shape
    # unflatten
    return unflatten(x, (1,) + spec.target_shape), x.shape


def _add_grad(grads, params, name, g):
    """Sum g into grads[name] as into zeros of params[name]'s dtype: a
    parameter's first gradient array becomes its sum (cast if its dtype is
    another, as float frames in a float32 net give), and later ones are
    added into it in place. Every backward returns fresh arrays it holds
    nowhere else, so the sum may take one over."""
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g.astype(params[name].dtype, copy=False)


def _layer_backward(spec, params, prefix, grad, cache, grads):
    """Returns the gradient at one layer's input and adds its weight
    gradients into grads. Only kinds `_layer_forward` accepted reach here."""
    kind = spec.kind
    if kind == "pool":
        return maxpool2d_backward(grad, cache)
    if kind == "relu":
        return relu_backward(grad, cache)
    if kind in ("flatten", "unflatten"):
        return grad.reshape(cache)
    backward = deconv2d_backward if kind == "deconv" else conv2d_backward
    gx, gw, gb = backward(grad, cache, _kernel(spec, params, prefix))
    _add_grad(grads, params, f"{prefix}.weights", gw)
    _add_grad(grads, params, f"{prefix}.bias", gb)
    return gx


def _skips_into(model, section, i):
    """(link index, link) for each skip link that merges into layer i of the
    chain; only the post chain has them."""
    links = model.config.skip_links if section == "post" else []
    return [(j, link) for j, link in enumerate(links) if link.target == i]


def _chain_forward(model, section, x, skip_caches=None):
    """Run the pre or post chain on x; returns (output, per-layer caches).
    Each skip link's score-conv cache goes into skip_caches by link index."""
    specs = getattr(model.config, section)
    caches, outputs = [], []
    for i, spec in enumerate(specs):
        x, cache = _layer_forward(spec, model.params, f"{section}.{i}.{spec.kind}", x)
        for j, link in _skips_into(model, section, i):
            scored, skip_caches[j] = _layer_forward(
                LayerSpec("conv1x1"), model.params, f"skip.{j}.score",
                outputs[link.source])
            x = x + scored
        caches.append(cache)
        outputs.append(x)
    return x, caches


def _chain_backward(model, section, g, caches, grads, skip_caches=None):
    """Backward through the pre or post chain from the gradient g at its
    output; returns the gradient at its input."""
    specs = getattr(model.config, section)
    pending = {}  # skip source layer -> summed gradient at its output
    for i in range(len(specs) - 1, -1, -1):
        if i in pending:
            g = pending.pop(i) + g
        for j, link in _skips_into(model, section, i):
            gsrc = _layer_backward(LayerSpec("conv1x1"), model.params,
                                   f"skip.{j}.score", g, skip_caches[j], grads)
            if link.source in pending:
                gsrc = pending[link.source] + gsrc
            pending[link.source] = gsrc
        spec = specs[i]
        g = _layer_backward(spec, model.params, f"{section}.{i}.{spec.kind}",
                            g, caches[i], grads)
    return g


# ---------------------------------------------------------------------------
# Window forward / backward


@dataclass
class WindowCache:
    pre: list          # per frame: list of layer caches (fc: last frame only)
    cell: list         # per step cell caches
    post: list
    skip: dict         # link index -> score-conv cache


def check_frames(model, frames):
    """Raise ShapeError naming the first frame whose shape is not the input's,
    and DataError for one that is neither FRAME_DTYPE pixels nor floats."""
    shape = model.config.input_shape
    if len(frames) < 1:
        raise ShapeError("window must contain at least one frame")
    for t, f in enumerate(frames):
        if f.shape != shape:
            raise ShapeError(f"frame {t} shape {f.shape} != input {shape}")
        if f.dtype != FRAME_DTYPE and f.dtype.kind != "f":
            raise DataError(f"frame {t} dtype {f.dtype} is neither "
                            f"{np.dtype(FRAME_DTYPE)} pixels nor floats")


def _forward(model, frames, emit_from, cache=None, features=None):
    """The one forward loop: frame by frame, run the pre chain on the frame's
    values (data.frame_values), step the cell from the zero state, and for
    every t >= emit_from run the post chain and yield (t, logits (C,H,W)). A
    net without a cell skips the frames before emit_from.

    Given a WindowCache, each frame's layer and cell caches and the last
    emission's post-chain caches go into it. Given a features dict
    (id(frame) -> (frame, pre-chain output)), a frame object found in it
    reuses its features, and a frame that runs the pre chain adds its entry.
    An entry holds its frame object, so its id cannot be taken by another
    array while the entry lives."""
    check_frames(model, frames)
    rec = model.config.recurrent
    if rec is not None:
        cell = cells.CELLS[rec.kind]
        # spatial pre-chain outputs and post-chain inputs carry a batch dim of 1
        spatial = cell.input_form == "chw"
        p = model.cell_params()
        state = None
    for t in range(0 if rec else emit_from, len(frames)):
        f = frames[t]
        if features is not None and id(f) in features:
            x = features[id(f)][1]
        else:
            x, layer_caches = _chain_forward(model, "pre", frame_values(f)[None])
            if cache is not None:
                cache.pre.append(layer_caches)
            if features is not None:
                features[id(f)] = (f, x)
        if rec is not None:
            x = x[0] if spatial else x
            if state is None:
                state = cell.zero_state((rec.hidden,) + x.shape[1:], model.dtype)
            state, step_cache = cell.step(x, state, p)
            if cache is not None:
                cache.cell.append(step_cache)
            x = state.h[None] if spatial else state.h
        # a suspended generator keeps its locals alive: unbind the caches
        # once stored, so a stream holds none of them across frames
        layer_caches = step_cache = None
        if t >= emit_from:
            # shape_check guarantees a (1, C, H, W) post-chain output
            x, layer_caches = _chain_forward(
                model, "post", x, {} if cache is None else cache.skip)
            if cache is not None:
                cache.post = layer_caches
            layer_caches = None
            yield t, check_finite(x[0], f"logits of frame {t}")


def forward_window(model, frames):
    """Run T frames through the network; returns (logits (C,H,W), WindowCache)."""
    cache = WindowCache(pre=[], cell=[], post=[], skip={})
    ((_, logits),) = _forward(model, frames, len(frames) - 1, cache)
    return logits, cache


def forward_windows(model, windows):
    """Inference over a series of windows: yields each window's (C,H,W)
    logits, bitwise equal to forward_window(model, frames)[0].

    The pre-chain runs once per distinct frame object across consecutive
    windows: a frame object the previous window also held reuses its
    features, so sliding windows over one list of frames run each frame's
    trunk once. Frames must not change in place while the windows run. The
    cell still starts from the zero state in every window. Logits of two
    windows may share memory; treat them as read-only."""
    features = {}
    for frames in windows:
        ((_, logits),) = _forward(model, frames, len(frames) - 1, features=features)
        # the next window can share only this window's frames
        features = {id(f): features[id(f)] for f in frames if id(f) in features}
        yield logits


def backward_window(model, grad_logits, cache):
    """BPTT over one window; returns a dict of gradients for every parameter,
    in model.params' order. The arrays are the caller's to keep or change."""
    grads = {}
    grad_node = _chain_backward(model, "post", grad_logits[None], cache.post,
                                grads, cache.skip)
    feat_grads = [grad_node]  # without a cell, the node is the last frame's features
    rec = model.config.recurrent
    if rec is not None:
        cell = cells.CELLS[rec.kind]
        spatial = cell.input_form == "chw"
        p = model.cell_params()
        grad = cells.RecurrentCellState(grad_node[0] if spatial else grad_node)
        feat_grads = []
        for cell_cache in reversed(cache.cell):
            gx, grad, cgrads = cell.backward(grad, cell_cache, p)
            for name, gval in cgrads.items():
                _add_grad(grads, model.params, f"cell.{name}", gval)
            feat_grads.insert(0, gx[None] if spatial else gx)
    for g, pre_caches in zip(feat_grads, cache.pre):
        _chain_backward(model, "pre", g, pre_caches, grads)
    return OrderedDict((k, grads[k]) for k in model.params)


def forward_stream(model, frames):
    """Streaming inference: carry the hidden state across all frames and
    return [(t, logits (C,H,W))] for every frame index t >= window-1."""
    window = model.config.window
    if len(frames) < window:
        raise ShapeError(f"need at least {window} frames, got {len(frames)}")
    return list(_forward(model, frames, window - 1))


# ---------------------------------------------------------------------------
# Presets


def _trunk(pads, stride):
    """The LeNet trunk the lenet and 12s presets share: the three convs' pads
    and the first conv's stride (0 = default) are theirs."""
    return [
        LayerSpec("conv", size=5, stride=stride, pad=pads[0], depth=20),
        LayerSpec("relu"),
        LayerSpec("pool", size=2),
        LayerSpec("conv", size=5, pad=pads[1], depth=50),
        LayerSpec("relu"),
        LayerSpec("pool", size=2),
        LayerSpec("conv", size=3, pad=pads[2], depth=500),
        LayerSpec("relu"),
        LayerSpec("conv1x1", depth=1),
    ]


def _presets():
    """name -> (input_shape, num_classes, pre, recurrent, post, skip_links),
    with fresh specs on every call, since callers change the configs built
    from them. A baseline FCN (fc-*) and its recurrent twin (rfc-*) share
    one trunk."""
    lenet = _trunk((10, 0, 0), 0) + [LayerSpec("deconv", size=10, stride=4, pad=3, depth=1)]
    # Pads chosen so the coarse map is exactly input/12 (10x15 at 120x180);
    # the deconv then restores the input size in one stride-12 hop.
    trunk_12s = _trunk((1, 2, 1), 3)
    deconv_12 = LayerSpec("deconv", size=12, stride=12, depth=1)
    vgg = [
        LayerSpec("conv", size=11, stride=4, pad=40, depth=64),
        LayerSpec("relu"),
        LayerSpec("pool", size=3),
        LayerSpec("conv", size=5, pad=2, depth=256),
        LayerSpec("relu"),
        LayerSpec("pool", size=3),
        LayerSpec("conv", size=3, pad=1, depth=256),
        LayerSpec("relu"),
        LayerSpec("conv", size=3, pad=1, depth=256),
        LayerSpec("relu"),
        LayerSpec("conv", size=3, pad=1, depth=256),
        LayerSpec("relu"),
        LayerSpec("conv", size=3, pad=1, depth=512),
        LayerSpec("conv", size=3, pad=1, depth=128),
    ]
    # Reduced FCN-8s-style config: the recurrent cell sits before the
    # pooling stage where the skip connection branches. Shape-checked but
    # intended as a documented starting point, not a tuned network.
    sketch_pre = [
        LayerSpec("conv", size=3, pad=1, depth=16),
        LayerSpec("relu"),
        LayerSpec("pool", size=2),
        LayerSpec("conv", size=3, pad=1, depth=32),
        LayerSpec("relu"),
        LayerSpec("pool", size=2),
        LayerSpec("conv", size=3, pad=1, depth=64),
        LayerSpec("relu"),
    ]
    sketch_post = [
        LayerSpec("pool", size=2),
        LayerSpec("conv", size=3, pad=1, depth=128),
        LayerSpec("relu"),
        LayerSpec("pool", size=2),
        LayerSpec("conv", size=3, pad=1, depth=128),
        LayerSpec("relu"),
        LayerSpec("conv1x1", depth=5),
        LayerSpec("deconv", size=2, stride=2, depth=5),
        LayerSpec("deconv", size=8, stride=8, depth=5),
    ]
    return {
        "fc-lenet": ((1, 28, 28), 1, lenet, None, [], []),
        "rfc-lenet": ((1, 28, 28), 1, lenet + [LayerSpec("flatten")],
                      RecurrentSpec(cells.GRU, hidden=784),
                      [LayerSpec("unflatten", target_shape=(1, 28, 28)),
                       LayerSpec("conv1x1", depth=1)], []),
        "fc-12s": ((1, 120, 180), 1, trunk_12s, None, [deconv_12], []),
        "rfc-12s": ((1, 120, 180), 1, trunk_12s + [LayerSpec("flatten")],
                    RecurrentSpec(cells.GRU, hidden=150),
                    [LayerSpec("unflatten", target_shape=(1, 10, 15)), deconv_12], []),
        "rfc-vgg": ((3, 240, 360), 1, vgg, RecurrentSpec(cells.CONV_GRU, hidden=128, kernel=3),
                    [LayerSpec("conv1x1", depth=1),
                     LayerSpec("deconv", size=30, stride=30, depth=1)], []),
        "rfcn-8s-sketch": ((3, 96, 96), 5, sketch_pre,
                           RecurrentSpec(cells.CONV_GRU, hidden=64, kernel=3),
                           sketch_post, [SkipLink(source=0, target=7)]),
    }


PRESET_NAMES = tuple(_presets())


def preset(name, window=3):
    """Build one of the named architectures; all shape-check at their declared
    input sizes."""
    table = _presets()
    if name not in table:
        raise ConfigError(f"unknown preset {name!r}")
    cfg = ArchitectureConfig(name, *table[name], window=window)
    shape_check(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(model, path):
    """Serialize a model: magic, version, canonical config JSON, then
    length-prefixed named f32 tensors."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    cfg = model.config.to_json().encode("utf-8")
    buf.write(struct.pack("<I", len(cfg)))
    buf.write(cfg)
    buf.write(struct.pack("<I", len(model.params)))
    for name, arr in model.params.items():
        nb = name.encode("utf-8")
        buf.write(struct.pack("<I", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            buf.write(struct.pack("<I", d))
        buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    data = buf.getvalue()
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def _read(f, n, what):
    # a corrupt length cannot make the read ask for more than the file has left
    data = f.read(min(n, os.fstat(f.fileno()).st_size - f.tell()))
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path, dtype=np.float32):
    """Load and validate a checkpoint; shapes and the name set must match the
    embedded config exactly, and nothing may follow the last tensor."""
    with open(path, "rb") as f:
        if _read(f, 4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError("bad magic bytes; not a checkpoint file")
        (version,) = struct.unpack("<I", _read(f, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (clen,) = struct.unpack("<I", _read(f, 4, "config length"))
        text = _read(f, clen, "config")
        try:
            config = ArchitectureConfig.from_json(text)
            report = shape_check(config)
        except ConfigError as e:
            raise CheckpointError(f"embedded config invalid: {e}") from e
        (count,) = struct.unpack("<I", _read(f, 4, "tensor count"))
        params = OrderedDict()
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read(f, 4, "name length"))
            # a name that is not UTF-8 decodes to one no config has
            name = _read(f, nlen, "name").decode("utf-8", "replace")
            (rank,) = struct.unpack("<B", _read(f, 1, "rank"))
            dims = struct.unpack(f"<{rank}I", _read(f, 4 * rank, "dims"))
            if name not in report.param_shapes:
                raise CheckpointError(f"unexpected tensor {name!r} in checkpoint")
            if tuple(dims) != report.param_shapes[name]:
                raise CheckpointError(
                    f"tensor {name!r} dims {dims} != config shape "
                    f"{report.param_shapes[name]}")
            n = math.prod(dims)
            arr = np.frombuffer(_read(f, 4 * n, f"data of {name}"), dtype="<f4")
            params[name] = arr.reshape(dims).astype(dtype)
        missing = set(report.param_shapes) - set(params)
        if missing:
            raise CheckpointError(f"checkpoint missing tensors: {sorted(missing)}")
        if f.read(1):
            raise CheckpointError("trailing bytes after the last tensor")
    ordered = OrderedDict((k, params[k]) for k in report.param_shapes)
    return ModelInstance(config=config, params=ordered, dtype=dtype)


def load_matching(model, path):
    """Copy tensors from a checkpoint into an existing model where names and
    shapes agree (used to seed a recurrent net from its non-recurrent
    baseline). Returns the copied names. A non-finite tensor anywhere in
    the checkpoint is a CheckpointError, raised before any is copied."""
    other = load_checkpoint(path, dtype=model.dtype)
    for name, arr in other.params.items():
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: tensor {name} holds a non-finite value")
    copied = []
    for name, arr in other.params.items():
        if name in model.params and model.params[name].shape == arr.shape:
            model.params[name] = arr.astype(model.dtype)
            copied.append(name)
    return copied

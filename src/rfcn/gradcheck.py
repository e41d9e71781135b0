"""Central finite-difference audits for every backward pass.

All audits run at float64 with step 1e-5 and report the max relative error
per parameter group, sampling coordinates for large groups. The relative
error uses a small denominator floor so finite-difference noise on
near-zero gradients cannot dominate.
"""

from functools import partial

import numpy as np

from . import cells
from .errors import RfcnError
from .layers import (ConvKernel, _pool_taps, conv2d_backward, conv2d_forward,
                     deconv2d_backward, deconv2d_forward, maxpool2d_backward,
                     maxpool2d_forward, relu_backward, relu_forward)
from .model import (ArchitectureConfig, LayerSpec, RecurrentSpec, SkipLink,
                    backward_window, forward_window, init_model, shape_check)
from .tensor import Rng

STEP = 1e-5
DENOM_FLOOR = 1e-3


def rel_err(analytic, numeric):
    a, n = abs(analytic), abs(numeric)
    if a < 1e-9 and n < 1e-9:
        return 0.0
    return abs(analytic - numeric) / max(a, n, DENOM_FLOOR)


def fd_check(loss_fn, arrays, analytic, rng, n_samples=24):
    """Compare analytic gradients against central differences.

    arrays maps group name -> float64 array (mutated in place during
    probing); analytic maps the same names to gradient arrays. Returns
    {name: max relative error} over sampled coordinates.
    """
    results = {}
    for name, arr in arrays.items():
        flat = arr.reshape(-1)
        g = np.asarray(analytic[name]).reshape(-1)
        k = min(n_samples, flat.size)
        coords = rng.permutation(flat.size)[:k]
        worst = 0.0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + STEP
            fp = loss_fn()
            flat[i] = orig - STEP
            fm = loss_fn()
            flat[i] = orig
            worst = max(worst, rel_err(g[i], (fp - fm) / (2 * STEP)))
        results[name] = worst
    return results


def _audit_op(rng, forward, backward, arrays, n_samples=24):
    """FD-audit one op through the loss sum(y * wout) for a random wout.

    forward(*arrays.values()) returns (y, cache) and backward(wout, cache)
    one gradient per array, in arrays' order; arrays maps group names to
    float64 arrays that forward reads (fd_check probes them in place)."""
    y, cache = forward(*arrays.values())
    wout = rng.uniform(-1, 1, y.shape)
    grads = dict(zip(arrays, backward(wout, cache)))

    def loss_fn():
        return float((forward(*arrays.values())[0] * wout).sum())

    return fd_check(loss_fn, arrays, grads, rng, n_samples=n_samples)


def _prefixed(out, prefix, report):
    out.update((f"{prefix}.{k}", v) for k, v in report.items())


# ---------------------------------------------------------------------------
# Layer audits


def audit_conv(rng, deconv=False):
    x = rng.uniform(-1, 1, (2, 3, 6, 6))
    w = rng.uniform(-1, 1, (3, 2, 3, 3) if deconv else (4, 3, 3, 3))
    b = rng.uniform(-1, 1, w.shape[1 if deconv else 0])
    fwd, bwd = ((deconv2d_forward, deconv2d_backward) if deconv
                else (conv2d_forward, conv2d_backward))
    return _audit_op(rng, lambda x, w, b: fwd(x, ConvKernel(w, b, stride=2, pad=1)),
                     lambda g, cache: bwd(g, cache, ConvKernel(w, b, stride=2, pad=1)),
                     {"input": x, "weights": w, "bias": b})


def audit_pool(rng):
    x = rng.uniform(-1, 1, (2, 2, 6, 6))
    return _audit_op(rng, lambda x: maxpool2d_forward(x, 3, 3),
                     lambda g, cache: [maxpool2d_backward(g, cache)], {"input": x})


def audit_relu(rng):
    x = rng.uniform(-1, 1, (2, 3, 4, 4))
    # keep probes away from the kink
    x[np.abs(x) < 1e-3] += 0.01
    return _audit_op(rng, relu_forward, lambda g, cache: [relu_backward(g, cache)],
                     {"input": x})


def audit_layers(rng):
    out = {}
    for tag, audit in (("conv", audit_conv),
                       ("deconv", partial(audit_conv, deconv=True)),
                       ("pool", audit_pool),
                       ("relu", audit_relu)):
        _prefixed(out, tag, audit(rng))
    return out


# ---------------------------------------------------------------------------
# Cell audits (two-step unroll so grad_h_prev chains are exercised)

# Audit sizes for a dense kind and a map kind: spec fields and input dims.
CELL_AUDIT_SIZES = {True: ({"hidden": 5}, (4, 1, 1)),
                    False: ({"hidden": 3, "kernel": 3}, (2, 5, 5))}


def _unroll2(rng, spec, in_dims):
    """Audit the cell table's step and backward for spec's kind over two
    steps from a random state (with a cell state when the kind carries one),
    against every weight and both inputs."""
    cell = cells.CELLS[spec.kind]
    weights = cell.random_params(spec, in_dims, rng, np.float64)
    x1 = rng.uniform(-1, 1, in_dims)
    x2 = rng.uniform(-1, 1, in_dims)
    h0 = rng.uniform(-0.5, 0.5, (spec.hidden,) + in_dims[1:])
    state0 = cells.RecurrentCellState(
        h0, c=rng.uniform(-0.5, 0.5, h0.shape) if cell.carries_c else None)
    p = cell.bind(spec, weights)

    def forward(*_):
        s1, c1 = cell.step(x1, state0, p)
        s2, c2 = cell.step(x2, s1, p)
        return s2.h, (c1, c2)

    def backward(g, cache):
        gx2, grad, g2 = cell.backward(cells.RecurrentCellState(g), cache[1], p)
        gx1, _, g1 = cell.backward(grad, cache[0], p)
        return [g1[k] + g2[k] for k in weights] + [gx1, gx2]

    return _audit_op(rng, forward, backward, dict(weights, x1=x1, x2=x2))


def audit_cells(rng):
    """Every kind in cells.CELLS with each candidate activation it takes,
    tagged by the kind, and past its first candidate kind_candidate."""
    out = {}
    for kind, cell in cells.CELLS.items():
        fields, in_dims = CELL_AUDIT_SIZES[cell.dense]
        for i, candidate in enumerate(cell.candidates):
            spec = RecurrentSpec(kind, candidate_activation=candidate, **fields)
            _prefixed(out, f"{kind}_{candidate}" if i else kind,
                      _unroll2(rng, spec, in_dims))
    return out


# ---------------------------------------------------------------------------
# Whole-network audits


def tiny_lenet_config():
    """Miniature of the Lenet-style recurrent net: every layer kind it uses,
    at desk-check sizes, window 3."""
    return ArchitectureConfig(
        name="tiny-rfc-lenet", input_shape=(1, 12, 12), num_classes=1, window=3,
        pre=[
            LayerSpec("conv", size=3, pad=1, depth=4),
            LayerSpec("relu"),
            LayerSpec("pool", size=2),
            LayerSpec("conv", size=3, depth=6),
            LayerSpec("relu"),
            LayerSpec("conv1x1", depth=1),
            LayerSpec("deconv", size=3, stride=3, depth=1),
            LayerSpec("flatten"),
        ],
        recurrent=RecurrentSpec("gru", hidden=144),
        post=[LayerSpec("unflatten", target_shape=(1, 12, 12))],
    )


def tiny_convgru_config():
    return ArchitectureConfig(
        name="tiny-conv-gru-net", input_shape=(1, 8, 8), num_classes=1, window=3,
        pre=[
            LayerSpec("conv", size=3, pad=1, depth=3),
            LayerSpec("relu"),
        ],
        recurrent=RecurrentSpec("conv_gru", hidden=4, kernel=3),
        post=[LayerSpec("conv1x1", depth=1)],
    )


def tiny_lstm_config():
    """A dense LSTM between a conv trunk and an unflatten, so the audit
    covers BPTT with the cell-state gradient chained across the window."""
    return ArchitectureConfig(
        name="tiny-lstm-net", input_shape=(1, 6, 6), num_classes=1, window=3,
        pre=[
            LayerSpec("conv", size=3, pad=1, depth=2),
            LayerSpec("relu"),
            LayerSpec("flatten"),
        ],
        recurrent=RecurrentSpec("lstm", hidden=36),
        post=[LayerSpec("unflatten", target_shape=(1, 6, 6))],
    )


def tiny_skip_config():
    """A conv-GRU net with a skip link. The post chain halves the cell's map
    with a pool, convolves it, scores it with a 1x1 conv and upsamples it;
    the link adds a scored copy of the pool's output to the 1x1 score."""
    return ArchitectureConfig(
        name="tiny-skip-net", input_shape=(1, 8, 8), num_classes=2, window=3,
        pre=[
            LayerSpec("conv", size=3, pad=1, depth=3),
            LayerSpec("relu"),
        ],
        recurrent=RecurrentSpec("conv_gru", hidden=3, kernel=3),
        post=[
            LayerSpec("pool", size=2),
            LayerSpec("conv", size=3, pad=1, depth=4),
            LayerSpec("relu"),
            LayerSpec("conv1x1", depth=2),
            LayerSpec("deconv", size=2, stride=2, depth=2),
        ],
        skip_links=[SkipLink(source=0, target=3)],
    )


def _kink_clearance(model, frames):
    """Smallest distance of any relu input (or contested max-pool margin) from
    a nondifferentiable point during one window forward pass.

    Central differences are meaningless when a probe pushes an activation
    across a relu kink or flips a pool argmax, so audit draws are rejected
    when this clearance is within a few FD steps of zero. Tied zeros in a
    pool window are ignored only when the pool's input is a relu's output:
    the relu has cut the gradient there. Any other tie counts.
    """
    from . import model as model_mod
    clearance = [np.inf]
    relu_out = [None]
    real_relu = model_mod.relu_forward
    real_pool = model_mod.maxpool2d_forward

    def relu_probe(x, out=None):
        clearance[0] = min(clearance[0], float(np.abs(x).min()))
        y, cache = real_relu(x, out=out)
        relu_out[0] = y
        return y, cache

    def pool_probe(x, window, stride):
        y, cache = real_pool(x, window, stride)
        taps = np.stack(list(_pool_taps(x, window, stride, *y.shape[2:])), axis=-1)
        top2 = np.sort(taps, axis=-1)[..., -2:]
        margin = top2[..., 1] - top2[..., 0]
        if x is relu_out[0]:
            margin = margin[top2[..., 1] > 0]
        if margin.size:
            clearance[0] = min(clearance[0], float(margin.min()))
        return y, cache

    model_mod.relu_forward = relu_probe
    model_mod.maxpool2d_forward = pool_probe
    try:
        forward_window(model, frames, cache=False)
    finally:
        model_mod.relu_forward = real_relu
        model_mod.maxpool2d_forward = real_pool
    return clearance[0]


def _draw_frames(model, config, rng):
    for _ in range(16):
        frames = [rng.uniform(0, 1, config.input_shape)
                  for _ in range(config.window)]
        if _kink_clearance(model, frames) > 50 * STEP:
            return frames
    raise RfcnError("could not draw audit frames clear of relu/pool kinks")


def audit_model(config, rng, n_samples=16):
    """FD-audit every parameter group through a full window forward/backward.

    The cell gets random weights, not init_model's pass-through init: a
    pass-through cell hands the trunk relu's exact zeros to whatever follows
    it, and a pool there ties at them on every draw."""
    model = init_model(config, rng, dtype=np.float64)
    spec = config.recurrent
    if spec is not None:
        in_dims = shape_check(config).recurrent_input[1]
        weights = cells.CELLS[spec.kind].random_params(spec, in_dims, rng, np.float64)
        model.params.update((f"cell.{k}", v) for k, v in weights.items())
    frames = _draw_frames(model, config, rng)
    return _audit_op(rng, lambda *_: forward_window(model, frames),
                     lambda g, cache: backward_window(model, g, cache).values(),
                     dict(model.params), n_samples=n_samples)


def run_audit(seed=0, tol=1e-4):
    """Full audit used by the CLI; returns (report dict, ok flag)."""
    rng = Rng(seed)
    report = {}
    for prefix, audit in (("layer", audit_layers), ("cell", audit_cells)):
        _prefixed(report, prefix, audit(rng))
    # each net is tagged by its fixture's name, tiny_<tag>_config
    for config in (tiny_lenet_config, tiny_convgru_config, tiny_lstm_config,
                   tiny_skip_config):
        tag = config.__name__.removeprefix("tiny_").removesuffix("_config")
        _prefixed(report, f"net.{tag}", audit_model(config(), rng))
    ok = all(v <= tol for v in report.values())
    return report, ok

"""Central finite-difference audits for every backward pass.

All audits run at float64 with step 1e-5 and report the max relative error
per parameter group, sampling coordinates for large groups. The relative
error uses a small denominator floor so finite-difference noise on
near-zero gradients cannot dominate.
"""

import numpy as np

from . import cells
from .errors import RfcnError
from .layers import (ConvKernel, conv2d_backward, conv2d_forward,
                     deconv2d_backward, deconv2d_forward, dense_backward,
                     dense_forward, maxpool2d_backward, maxpool2d_forward,
                     relu_backward, relu_forward)
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


def fd_check(loss_fn, arrays, analytic, rng, n_samples=24, step=STEP):
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
            flat[i] = orig + step
            fp = loss_fn()
            flat[i] = orig - step
            fm = loss_fn()
            flat[i] = orig
            worst = max(worst, rel_err(g[i], (fp - fm) / (2 * step)))
        results[name] = worst
    return results


def _weighted_sum(shape, rng):
    return rng.uniform(-1, 1, shape)


# ---------------------------------------------------------------------------
# Layer audits


def audit_conv(rng, deconv=False):
    x = rng.uniform(-1, 1, (2, 3, 6, 6))
    if deconv:
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, 2)
    else:
        w = rng.uniform(-1, 1, (4, 3, 3, 3))
        b = rng.uniform(-1, 1, 4)
    fwd = deconv2d_forward if deconv else conv2d_forward
    bwd = deconv2d_backward if deconv else conv2d_backward

    def kernel():
        return ConvKernel(w, b, stride=2, pad=1)

    y0, _ = fwd(x, kernel())
    wout = _weighted_sum(y0.shape, rng)

    def loss_fn():
        y, _ = fwd(x, kernel())
        return float((y * wout).sum())

    _, cache = fwd(x, kernel())
    gx, gw, gb = bwd(wout, cache, kernel())
    return fd_check(loss_fn, {"input": x, "weights": w, "bias": b},
                    {"input": gx, "weights": gw, "bias": gb}, rng)


def audit_pool(rng):
    x = rng.uniform(-1, 1, (2, 2, 6, 6))
    y0, _ = maxpool2d_forward(x, 3, 3)
    wout = _weighted_sum(y0.shape, rng)

    def loss_fn():
        y, _ = maxpool2d_forward(x, 3, 3)
        return float((y * wout).sum())

    _, cache = maxpool2d_forward(x, 3, 3)
    gx = maxpool2d_backward(wout, cache)
    return fd_check(loss_fn, {"input": x}, {"input": gx}, rng)


def audit_relu(rng):
    x = rng.uniform(-1, 1, (2, 3, 4, 4))
    # keep probes away from the kink
    x[np.abs(x) < 1e-3] += 0.01
    y0, _ = relu_forward(x)
    wout = _weighted_sum(y0.shape, rng)

    def loss_fn():
        y, _ = relu_forward(x)
        return float((y * wout).sum())

    _, cache = relu_forward(x)
    gx = relu_backward(wout, cache)
    return fd_check(loss_fn, {"input": x}, {"input": gx}, rng)


def audit_dense(rng):
    x = rng.uniform(-1, 1, 7)
    w = rng.uniform(-1, 1, (5, 7))
    b = rng.uniform(-1, 1, 5)
    wout = _weighted_sum(5, rng)

    def loss_fn():
        y, _ = dense_forward(x, w, b)
        return float((y * wout).sum())

    _, cache = dense_forward(x, w, b)
    gx, gw, gb = dense_backward(wout, cache, w)
    return fd_check(loss_fn, {"input": x, "weights": w, "bias": b},
                    {"input": gx, "weights": gw, "bias": gb}, rng)


def audit_layers(rng):
    out = {}
    for tag, res in (("conv", audit_conv(rng)),
                     ("deconv", audit_conv(rng, deconv=True)),
                     ("pool", audit_pool(rng)),
                     ("relu", audit_relu(rng)),
                     ("dense", audit_dense(rng))):
        for k, v in res.items():
            out[f"{tag}.{k}"] = v
    return out


# ---------------------------------------------------------------------------
# Cell audits (two-step unroll so grad_h_prev chains are exercised)


def _unroll2(spec, weights, x1, x2, state0, rng):
    """Audit the cell table's step and backward for one kind, which run the
    module-level cell functions."""
    cell = cells.CELLS[spec.kind]
    p = cell.bind(spec, weights)
    s1, _ = cell.step(x1, state0, p)
    s2, _ = cell.step(x2, s1, p)
    wout = _weighted_sum(s2.h.shape, rng)

    def loss_fn():
        a, _ = cell.step(x1, state0, p)
        b, _ = cell.step(x2, a, p)
        return float((b.h * wout).sum())

    s1, c1 = cell.step(x1, state0, p)
    _, c2 = cell.step(x2, s1, p)
    gx2, grad, g2 = cell.backward(cells.RecurrentCellState(wout), c2, p)
    gx1, _, g1 = cell.backward(grad, c1, p)
    grads = {k: g1[k] + g2[k] for k in g1}
    grads["x1"] = gx1
    grads["x2"] = gx2
    return fd_check(loss_fn, dict(weights, x1=x1, x2=x2), grads, rng)


def audit_gru(rng):
    spec = RecurrentSpec("gru", hidden=5)
    w = cells.CELLS[spec.kind].random_params(spec, (4,), rng, np.float64)
    x1 = rng.uniform(-1, 1, 4)
    x2 = rng.uniform(-1, 1, 4)
    s0 = cells.RecurrentCellState(rng.uniform(-0.5, 0.5, 5))
    return _unroll2(spec, w, x1, x2, s0, rng)


def audit_conv_gru(rng):
    spec = RecurrentSpec("conv_gru", hidden=3, kernel=3)
    w = cells.CELLS[spec.kind].random_params(spec, (2, 5, 5), rng, np.float64)
    x1 = rng.uniform(-1, 1, (2, 5, 5))
    x2 = rng.uniform(-1, 1, (2, 5, 5))
    s0 = cells.RecurrentCellState(rng.uniform(-0.5, 0.5, (3, 5, 5)))
    return _unroll2(spec, w, x1, x2, s0, rng)


def audit_lstm(rng, candidate_activation="sigmoid"):
    spec = RecurrentSpec("lstm", hidden=5, candidate_activation=candidate_activation)
    w = cells.CELLS[spec.kind].random_params(spec, (4,), rng, np.float64)
    x1 = rng.uniform(-1, 1, 4)
    x2 = rng.uniform(-1, 1, 4)
    s0 = cells.RecurrentCellState(rng.uniform(-0.5, 0.5, 5),
                                  c=rng.uniform(-0.5, 0.5, 5))
    return _unroll2(spec, w, x1, x2, s0, rng)


def audit_cells(rng):
    out = {}
    for tag, res in (("gru", audit_gru(rng)),
                     ("conv_gru", audit_conv_gru(rng)),
                     ("lstm", audit_lstm(rng)),
                     ("lstm_tanh", audit_lstm(rng, "tanh"))):
        for k, v in res.items():
            out[f"{tag}.{k}"] = v
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

    def relu_probe(x):
        clearance[0] = min(clearance[0], float(np.abs(x).min()))
        y, cache = real_relu(x)
        relu_out[0] = y
        return y, cache

    def pool_probe(x, window, stride):
        n, c, h, w = x.shape
        ho = (h - window) // stride + 1
        wo = (w - window) // stride + 1
        sn, sc, sh, sw = x.strides
        win = np.lib.stride_tricks.as_strided(
            x, (n, c, ho, wo, window, window),
            (sn, sc, sh * stride, sw * stride, sh, sw)).reshape(n, c, ho, wo, -1)
        top2 = np.sort(win, axis=-1)[..., -2:]
        margin = top2[..., 1] - top2[..., 0]
        if x is relu_out[0]:
            margin = margin[top2[..., 1] > 0]
        if margin.size:
            clearance[0] = min(clearance[0], float(margin.min()))
        return real_pool(x, window, stride)

    model_mod.relu_forward = relu_probe
    model_mod.maxpool2d_forward = pool_probe
    try:
        forward_window(model, frames)
    finally:
        model_mod.relu_forward = real_relu
        model_mod.maxpool2d_forward = real_pool
    return clearance[0]


def _draw_frames(model, config, rng, step=STEP, attempts=16):
    for _ in range(attempts):
        frames = [rng.uniform(0, 1, config.input_shape)
                  for _ in range(config.window)]
        if _kink_clearance(model, frames) > 50 * step:
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
    logits0, _ = forward_window(model, frames)
    wout = _weighted_sum(logits0.shape, rng)

    def loss_fn():
        logits, _ = forward_window(model, frames)
        return float((logits * wout).sum())

    _, cache = forward_window(model, frames)
    grads = backward_window(model, wout, cache)
    return fd_check(loss_fn, dict(model.params), grads, rng, n_samples=n_samples)


def run_audit(seed=0, tol=1e-4):
    """Full audit used by the CLI; returns (report dict, ok flag)."""
    rng = Rng(seed)
    report = {}
    for prefix, res in (("layer", audit_layers(rng)),
                        ("cell", audit_cells(rng)),
                        ("net.lenet", audit_model(tiny_lenet_config(), rng)),
                        ("net.convgru", audit_model(tiny_convgru_config(), rng)),
                        ("net.lstm", audit_model(tiny_lstm_config(), rng)),
                        ("net.skip", audit_model(tiny_skip_config(), rng))):
        for k, v in res.items():
            report[f"{prefix}.{k}"] = v
    ok = all(v <= tol for v in report.values())
    return report, ok

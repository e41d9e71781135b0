"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import filecmp
import os

import numpy as np
import pytest

import inputs
import measure
import trace
import worker
from workloads import WORKLOADS


def test_p90_needs_100_samples():
    assert measure.p90([1.0] * 99) is None
    values = [float(v) for v in range(100)]
    # statistics.quantiles' exclusive method: rank 0.9 * (n + 1) = 90.9
    assert measure.p90(values) == pytest.approx(89.9)
    assert measure.p50(values) == pytest.approx(49.5)


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 5.0, 9.0, 0),
        span("b.child", 6.0, 7.0, 2),
    ]
    assert trace.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    rows = trace.summarize(spans)
    assert rows["b"]["incl_s"] == pytest.approx(4.0)
    assert rows["b"]["self_s"] == pytest.approx(3.0)
    assert trace.ancestor(spans, 3, ("root",)) == 0
    assert trace.ancestor(spans, 0, ("root",)) == -1


def test_conv_flops_and_bytes_hand_count():
    # x (1, 2, 5, 5), w (3, 2, 3, 3), stride 1, pad 1 -> y (1, 3, 5, 5).
    # GEMM (3 x 18) @ (18 x 25): 3 * 18 * 25 multiply-adds.
    assert trace.conv_flops((1, 2, 5, 5), (3, 2, 3, 3), 1, 1) == 2 * 3 * 18 * 25
    assert trace.conv_flops((1, 2, 5, 5), (3, 2, 3, 3), 1, 1, backward=True) == 4 * 3 * 18 * 25
    # forward: x 50 + w 54 + b 3 + y 75 = 182 floats
    assert trace.conv_bytes((1, 2, 5, 5), (3, 2, 3, 3), 1, 1, 4) == 182 * 4
    # backward: grad_y 75 + cols 450 + w 54 + grad_x 50 + grad_w 54 + grad_b 3
    assert trace.conv_bytes((1, 2, 5, 5), (3, 2, 3, 3), 1, 1, 4, backward=True) == 686 * 4
    # strided, unpadded, two images: x (2, 1, 7, 7), w (4, 1, 3, 3) -> 3x3 output
    assert trace.conv_flops((2, 1, 7, 7), (4, 1, 3, 3), 2, 0) == 2 * 2 * 4 * 9 * 9


def test_adadelta_and_gru_formulas():
    assert trace.adadelta_bytes(10, 4) == 280
    # H=2, D=3: outer products 3*(4+6)=30 multiplies, mat-vecs 2*3*(4+6)=60
    assert trace.gru_backward_flops(2, 3) == 90


def test_same_seed_same_inputs(tmp_path):
    spec = WORKLOADS["segment-rfcn-8s"]["data"]
    spec = dict(spec, test=(1, 4))
    a = inputs.write_dataset(str(tmp_path / "a"), np.random.default_rng(5), spec, 3)
    b = inputs.write_dataset(str(tmp_path / "b"), np.random.default_rng(5), spec, 3)
    c = inputs.write_dataset(str(tmp_path / "c"), np.random.default_rng(6), spec, 3)
    frame = os.path.join("seq_0000", "frames", "frame_0002.ppm")
    assert filecmp.cmp(a, b, shallow=False)
    da, db, dc = (os.path.dirname(p) for p in (a, b, c))
    assert filecmp.cmp(os.path.join(da, frame), os.path.join(db, frame), shallow=False)
    assert not filecmp.cmp(os.path.join(da, frame), os.path.join(dc, frame), shallow=False)


@pytest.fixture(scope="module")
def rf():
    return worker.import_rfcn()


def test_tracer_wraps_every_binding_and_names_params(rf):
    original = rf.layers.conv2d_forward
    cfg = rf.model.preset("rfcn-8s-sketch")
    model = rf.model.init_model(cfg, rf.tensor.Rng(0))
    frames = [np.zeros(cfg.input_shape, dtype=np.float32)] * cfg.window
    tracer = trace.Tracer()
    tracer.install()
    try:
        for mod in (rf.layers, rf.model, rf.cells):
            assert mod.conv2d_forward is not original
            assert mod.conv2d_forward.__wrapped__ is original
        rf.training.predict(model, frames)
    finally:
        tracer.uninstall()
    for mod in (rf.layers, rf.model, rf.cells):
        assert mod.conv2d_forward is original

    spans = tracer.spans
    names = [s[trace.NAME] for s in spans]
    assert names[0] == "training.predict"
    assert names.count("cells.conv_gru_step") == cfg.window
    step = names.index("cells.conv_gru_step")
    children = {s[trace.TAG][0] for s in spans
                if s[trace.PARENT] == step and s[trace.NAME] == "layers.conv2d_forward"}
    assert children == {"cell.w_hz", "cell.w_xz", "cell.w_hr", "cell.w_xr",
                        "cell.w_h", "cell.w_x"}
    trunk = [s for s in spans if isinstance(s[trace.TAG], tuple)
             and s[trace.TAG][0] == "pre.0.conv.weights"]
    assert len(trunk) == cfg.window
    assert sum(trace.self_times(spans)) == pytest.approx(spans[0][trace.END] - spans[0][trace.START])

"""Layer tests: nested-loop convolution oracles, adjointness, pooling,
property tests over random geometry, and the scratch workspace's contract."""

import itertools
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rfcn import layers
from rfcn.errors import ShapeError
from rfcn.layers import (ConvKernel, bilinear_kernel, conv2d_backward,
                         conv2d_forward, conv_output_dim, deconv2d_backward,
                         deconv2d_forward, deconv_output_dim, flatten,
                         maxpool2d_backward, maxpool2d_forward, relu_backward,
                         relu_forward, unflatten)
from rfcn.tensor import Rng


def conv2d_oracle(x, w, b, stride, pad):
    """Direct quadruple-loop cross-correlation, the reference semantics."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = conv_output_dim(h, kh, stride, pad)
    wo = conv_output_dim(wd, kw, stride, pad)
    y = np.zeros((n, f, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[ni, :, i * stride:i * stride + kh,
                               j * stride:j * stride + kw]
                    y[ni, fi, i, j] = np.sum(patch * w[fi]) + b[fi]
    return y


def deconv2d_oracle(x, w, b, stride, pad):
    """Scatter-add transposed convolution, one input pixel at a time."""
    n, f, h, wd = x.shape
    _, c, kh, kw = w.shape
    ho = deconv_output_dim(h, kh, stride, pad)
    wo = deconv_output_dim(wd, kw, stride, pad)
    yp = np.zeros((n, c, ho + 2 * pad, wo + 2 * pad), dtype=x.dtype)
    for ni in range(n):
        for fi in range(f):
            for i in range(h):
                for j in range(wd):
                    yp[ni, :, i * stride:i * stride + kh,
                       j * stride:j * stride + kw] += x[ni, fi, i, j] * w[fi]
    y = yp[:, :, pad:-pad, pad:-pad] if pad else yp
    return y + b.reshape(1, c, 1, 1)


def col2im_loop(cols, n, c, hp, wp, kh, kw, stride):
    """Scatter-add patch columns into an image one kernel offset at a time:
    the reference for every geometry _col2im handles."""
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            x[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += cols[:, :, i, j]
    return x


def weight_grad_oracle(g, x, kh, kw, stride, pad):
    """grad_w[f, c, a, b] = sum_n sum_ij g[n, f, i, j] * xp[n, c, i*S + a, j*S + b]
    with xp = x zero-padded by `pad`, summed one sample and one kernel tap
    at a time. For conv, g is grad_out and x the input; for deconv, g is the
    input and x grad_out."""
    n, f, ho, wo = g.shape
    c = x.shape[1]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gw = np.zeros((f, c, kh, kw), dtype=g.dtype)
    for ni in range(n):
        gn = g[ni].reshape(f, ho * wo)
        for a in range(kh):
            for b in range(kw):
                patch = xp[ni, :, a:a + stride * ho:stride, b:b + stride * wo:stride]
                gw[:, :, a, b] += gn @ patch.reshape(c, ho * wo).T
    return gw


# (kernel, stride, pad, h, w) at the edges of _col2im's tiling path: stride
# == kernel with and without pad, stride > kernel, and (conv input only) a
# padded size that is not a multiple of the stride, which takes the loop
EDGE_GEOMETRIES = [(2, 2, 0, 6, 8), (3, 3, 0, 6, 9), (4, 4, 0, 8, 12),
                   (2, 2, 1, 6, 8), (3, 3, 1, 7, 4), (4, 4, 1, 6, 10),
                   (2, 3, 0, 8, 8), (2, 3, 1, 7, 7),
                   (3, 3, 0, 8, 7), (4, 4, 1, 7, 9)]


def random_conv_case(rng):
    n = rng.integers(1, 3)
    c = rng.integers(1, 4)
    f = rng.integers(1, 4)
    k = rng.integers(1, 4)
    stride = rng.integers(1, 3)
    pad = rng.integers(0, k)
    h = rng.integers(k, k + 5)
    w = rng.integers(k, k + 5)
    x = rng.uniform(-1, 1, (n, c, h, w))
    weights = rng.uniform(-1, 1, (f, c, k, k))
    bias = rng.uniform(-1, 1, f)
    return x, weights, bias, stride, pad


def test_conv2d_forward_matches_oracle():
    rng = Rng(100)
    for _ in range(25):
        x, w, b, stride, pad = random_conv_case(rng)
        y, _ = conv2d_forward(x, ConvKernel(w, b, stride, pad))
        npt.assert_allclose(y, conv2d_oracle(x, w, b, stride, pad), atol=1e-12)


def test_deconv2d_forward_matches_oracle():
    rng = Rng(101)
    for _ in range(25):
        x, w, b, stride, pad = random_conv_case(rng)
        f, c = w.shape[:2]
        # transposed kernel: input channels are the conv's filter axis
        xin = rng.uniform(-1, 1, (x.shape[0], f) + x.shape[2:])
        bias = rng.uniform(-1, 1, c)
        if deconv_output_dim(xin.shape[2], w.shape[2], stride, pad) < 1:
            continue
        if deconv_output_dim(xin.shape[3], w.shape[3], stride, pad) < 1:
            continue
        y, _ = deconv2d_forward(xin, ConvKernel(w, bias, stride, pad))
        npt.assert_allclose(y, deconv2d_oracle(xin, w, bias, stride, pad),
                            atol=1e-12)
    for k, stride, pad, h, wd in EDGE_GEOMETRIES:
        xin = rng.uniform(-1, 1, (2, 3, h, wd)).astype(np.float32)
        w = rng.uniform(-1, 1, (3, 2, k, k)).astype(np.float32)
        bias = rng.uniform(-1, 1, 2).astype(np.float32)
        y, _ = deconv2d_forward(xin, ConvKernel(w, bias, stride, pad))
        npt.assert_allclose(y, deconv2d_oracle(xin, w, bias, stride, pad),
                            rtol=1e-5, atol=1e-5)
        ho = deconv_output_dim(h, k, stride, pad)
        wo = deconv_output_dim(wd, k, stride, pad)
        cols = np.matmul(w.reshape(3, 2 * k * k).T, xin.reshape(2, 3, h * wd))
        yp = col2im_loop(cols, 2, 2, ho + 2 * pad, wo + 2 * pad, k, k, stride)
        ref = yp[:, :, pad:pad + ho, pad:pad + wo] + bias.reshape(1, 2, 1, 1)
        assert np.array_equal(y, ref), (k, stride, pad, h, wd)


def tiling_conv_case(rng):
    """A random case where the stride tiles the padded input exactly, the
    geometry the executor uses; only there is deconv the exact adjoint."""
    while True:
        x, w, b, stride, pad = random_conv_case(rng)
        k = w.shape[2]
        h, wd = x.shape[2:]
        if (h + 2 * pad - k) % stride == 0 and (wd + 2 * pad - k) % stride == 0:
            return x, w, b, stride, pad


def test_deconv_is_adjoint_of_conv():
    """<conv(x), y> == <x, deconv(y)> with shared zero-bias weights."""
    rng = Rng(102)
    for _ in range(20):
        x, w, _, stride, pad = tiling_conv_case(rng)
        f = w.shape[0]
        kc = ConvKernel(w, np.zeros(f), stride, pad)
        y, _ = conv2d_forward(x, kc)
        g = rng.uniform(-1, 1, y.shape)
        kd = ConvKernel(w, np.zeros(w.shape[1]), stride, pad)
        gx, _ = deconv2d_forward(g, kd)
        assert gx.shape == x.shape
        lhs = float(np.sum(y * g))
        rhs = float(np.sum(x * gx))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_conv_backward_input_equals_deconv_forward():
    rng = Rng(103)
    for _ in range(10):
        x, w, b, stride, pad = tiling_conv_case(rng)
        k = ConvKernel(w, b, stride, pad)
        y, cache = conv2d_forward(x, k)
        g = rng.uniform(-1, 1, y.shape)
        gx, _, _ = conv2d_backward(g, cache, k)
        kd = ConvKernel(w, np.zeros(w.shape[1]), stride, pad)
        via_deconv, _ = deconv2d_forward(g, kd)
        npt.assert_allclose(gx, via_deconv, atol=1e-12)
    # at the edges of _col2im's tiling path, grad_x equals the offset-by-
    # offset scatter bit for bit and stays the adjoint of the forward conv
    for k, stride, pad, h, wd in EDGE_GEOMETRIES:
        x = rng.uniform(-1, 1, (2, 2, h, wd)).astype(np.float32)
        w = rng.uniform(-1, 1, (3, 2, k, k)).astype(np.float32)
        kc = ConvKernel(w, np.zeros(3, dtype=np.float32), stride, pad)
        y, cache = conv2d_forward(x, kc)
        g = rng.uniform(-1, 1, y.shape).astype(np.float32)
        gx, _, _ = conv2d_backward(g, cache, kc)
        ho, wo = y.shape[2:]
        gcols = np.matmul(w.reshape(3, 2 * k * k).T, g.reshape(2, 3, ho * wo))
        ref = col2im_loop(gcols, 2, 2, h + 2 * pad, wd + 2 * pad, k, k, stride)
        assert np.array_equal(gx, ref[:, :, pad:pad + h, pad:pad + wd]), \
            (k, stride, pad, h, wd)
        lhs = float(np.sum(y.astype(np.float64) * g))
        rhs = float(np.sum(x.astype(np.float64) * gx))
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))


def test_conv_backward_bias_and_weight_shapes():
    rng = Rng(104)
    x, w, b, stride, pad = random_conv_case(rng)
    k = ConvKernel(w, b, stride, pad)
    y, cache = conv2d_forward(x, k)
    gx, gw, gb = conv2d_backward(np.ones_like(y), cache, k)
    assert gx.shape == x.shape
    assert gw.shape == w.shape
    assert gb.shape == b.shape
    # bias gradient of an all-ones upstream is the output pixel count
    npt.assert_allclose(gb, y[:, 0].size)


def test_weight_gradients_match_loop_oracle():
    """conv and deconv grad_w contract over batch and pixels at once; check
    them against a per-sample, per-tap sum for batch sizes 1 to 3."""
    rng = Rng(110)
    for n in (1, 2, 3):
        for _ in range(6):
            x, w, b, stride, pad = random_conv_case(rng)
            x = rng.uniform(-1, 1, (n,) + x.shape[1:])
            f, c, kh, kw = w.shape
            kc = ConvKernel(w, b, stride, pad)
            y, cache = conv2d_forward(x, kc)
            g = rng.uniform(-1, 1, y.shape)
            _, gw, _ = conv2d_backward(g, cache, kc)
            npt.assert_allclose(gw, weight_grad_oracle(g, x, kh, kw, stride, pad),
                                rtol=0, atol=1e-12)

            xin = rng.uniform(-1, 1, (n, f) + x.shape[2:])
            kd = ConvKernel(w, rng.uniform(-1, 1, c), stride, pad)
            yd, cache = deconv2d_forward(xin, kd)
            gd = rng.uniform(-1, 1, yd.shape)
            _, gw, _ = deconv2d_backward(gd, cache, kd)
            npt.assert_allclose(gw, weight_grad_oracle(xin, gd, kh, kw, stride, pad),
                                rtol=0, atol=1e-12)


def test_conv_cache_holds_no_column_matrix():
    rng = Rng(109)
    x = rng.uniform(-1, 1, (2, 4, 8, 8))
    k = ConvKernel(rng.uniform(-1, 1, (5, 4, 3, 3)), rng.uniform(-1, 1, 5), 1, 1)
    _, cache = conv2d_forward(x, k)
    padded = 2 * 4 * 10 * 10
    for name, v in cache.data.items():
        assert np.size(v) <= padded, (name, np.shape(v))


def test_maxpool_forward_matches_oracle():
    rng = Rng(105)
    for _ in range(20):
        k = rng.integers(1, 4)
        stride = rng.integers(1, 3)
        h = rng.integers(k, k + 6)
        w = rng.integers(k, k + 6)
        x = rng.uniform(-1, 1, (2, 3, h, w))
        y, _ = maxpool2d_forward(x, k, stride)
        ho = (h - k) // stride + 1
        wo = (w - k) // stride + 1
        ref = np.zeros((2, 3, ho, wo))
        for i in range(ho):
            for j in range(wo):
                ref[:, :, i, j] = x[:, :, i * stride:i * stride + k,
                                    j * stride:j * stride + k].max(axis=(2, 3))
        npt.assert_array_equal(y, ref)


def test_maxpool_backward_routes_to_argmax():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    y, cache = maxpool2d_forward(x, 2, 2)
    g = maxpool2d_backward(np.array([[[[5.0]]]]), cache)
    npt.assert_array_equal(g, [[[[0, 0], [0, 5.0]]]])


def test_maxpool_tie_breaks_to_first_in_scan_order():
    x = np.full((1, 1, 2, 2), 7.0)
    _, cache = maxpool2d_forward(x, 2, 2)
    g = maxpool2d_backward(np.ones((1, 1, 1, 1)), cache)
    npt.assert_array_equal(g, [[[[1, 0], [0, 0]]]])
    # -0.0 == +0.0, so the first of the pair is the maximum, sign bit and all
    y, _ = maxpool2d_forward(np.array([[[[-0.0, 0.0], [-1.0, -1.0]]]]), 2, 2)
    assert y[0, 0, 0, 0] == 0 and np.signbit(y[0, 0, 0, 0])
    y, _ = maxpool2d_forward(np.array([[[[0.0, -0.0], [-1.0, -1.0]]]]), 2, 2)
    assert y[0, 0, 0, 0] == 0 and not np.signbit(y[0, 0, 0, 0])


def maxpool_backward_oracle(x, g, window, stride):
    """Send each window's gradient to its first maximum in row-major order."""
    n, c, _, _ = x.shape
    grad_x = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    win = x[ni, ci, i * stride:i * stride + window,
                            j * stride:j * stride + window]
                    a, b = divmod(int(np.argmax(win.reshape(-1))), window)
                    grad_x[ni, ci, i * stride + a, j * stride + b] += g[ni, ci, i, j]
    return grad_x


def test_maxpool_backward_matches_loop_oracle():
    rng = Rng(108)
    for _ in range(30):
        window = rng.integers(1, 4)
        stride = rng.integers(1, 4)
        h = rng.integers(window, window + 7)
        w = rng.integers(window, window + 7)
        # a few integer levels, so windows often hold tied maxima
        x = np.floor(rng.uniform(0, 3, (2, 3, h, w)))
        y, cache = maxpool2d_forward(x, window, stride)
        g = rng.uniform(-1, 1, y.shape)
        gx = maxpool2d_backward(g, cache)
        ref = maxpool_backward_oracle(x, g, window, stride)
        assert gx.dtype == np.float64
        if stride >= window:
            npt.assert_array_equal(gx, ref)
        else:
            # overlapping windows sum into shared pixels in another order
            npt.assert_allclose(gx, ref, rtol=0, atol=1e-12)


def test_relu_forward_backward():
    rng = Rng(106)
    x = rng.uniform(-1, 1, (2, 3, 4, 4))
    y, cache = relu_forward(x)
    npt.assert_array_equal(y, np.maximum(x, 0))
    g = rng.uniform(-1, 1, x.shape)
    npt.assert_array_equal(relu_backward(g, cache), g * (x > 0))


def test_flatten_unflatten_roundtrip():
    rng = Rng(108)
    x = rng.uniform(-1, 1, (2, 3, 4, 5))
    v = flatten(x)
    assert v.shape == (2, 60, 1, 1)
    npt.assert_array_equal(unflatten(v, (2, 3, 4, 5)), x)
    with pytest.raises(ShapeError):
        unflatten(v, (5, 5))


def test_bilinear_kernel_even_stride_interpolates():
    # stride-2 upsample of a constant map stays constant away from borders
    w = bilinear_kernel(1, 1, 4, dtype=np.float64)
    x = np.ones((1, 1, 5, 5))
    y, _ = deconv2d_forward(x, ConvKernel(w, np.zeros(1), stride=2, pad=1))
    npt.assert_allclose(y[0, 0, 2:-2, 2:-2], 1.0, atol=1e-12)


def test_conv_shape_validation():
    x = np.zeros((1, 3, 5, 5))
    w = np.zeros((2, 4, 3, 3))
    with pytest.raises(ShapeError):
        conv2d_forward(x, ConvKernel(w, np.zeros(2), 1, 0))
    big = np.zeros((2, 3, 9, 9))
    with pytest.raises(ShapeError):
        conv2d_forward(x, ConvKernel(big, np.zeros(2), 1, 0))


# ---------------------------------------------------------------------------
# Property tests over random geometry. The exact oracles pad with np.pad and
# gather or scatter patches one kernel offset at a time; they hand the same
# operands to the same GEMMs as the layers, so the results must agree bit
# for bit. Their meaning is pinned by the nested-loop oracles above.


def im2col_loop(x, kh, kw, stride, pad):
    """np.pad, then the patch matrix one kernel offset (i, j) at a time."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = conv_output_dim(h, kh, stride, pad)
    wo = conv_output_dim(w, kw, stride, pad)
    cols = np.zeros((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    return cols.reshape(n, c * kh * kw, ho * wo)


def conv_exact_oracle(x, w, b, stride, pad, g, im2col=im2col_loop):
    """(y, grad_x, grad_w, grad_b) of a conv with upstream gradient g."""
    f, c, kh, kw = w.shape
    n, _, h, wd = x.shape
    cols = im2col(x, kh, kw, stride, pad)
    w2 = w.reshape(f, c * kh * kw)
    y = np.matmul(w2, cols).reshape(g.shape) + b.reshape(1, f, 1, 1)
    gy = g.reshape(n, f, -1)
    grad_w = np.tensordot(gy, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
    gxp = col2im_loop(np.matmul(w2.T, gy), n, c, h + 2 * pad, wd + 2 * pad,
                      kh, kw, stride)
    return y, gxp[:, :, pad:pad + h, pad:pad + wd], grad_w, gy.sum(axis=(0, 2))


def deconv_exact_oracle(x, w, b, stride, pad, g):
    """(y, grad_x, grad_w, grad_b) of a transposed conv with upstream g."""
    f, c, kh, kw = w.shape
    n, _, h, wd = x.shape
    ho, wo = g.shape[2:]
    w2 = w.reshape(f, c * kh * kw)
    xf = x.reshape(n, f, h * wd)
    yp = col2im_loop(np.matmul(w2.T, xf), n, c, ho + 2 * pad, wo + 2 * pad,
                     kh, kw, stride)
    y = yp[:, :, pad:pad + ho, pad:pad + wo] + b.reshape(1, c, 1, 1)
    gcols = im2col_loop(g, kh, kw, stride, pad)
    grad_x = np.matmul(w2, gcols).reshape(x.shape)
    grad_w = np.tensordot(xf, gcols, axes=([0, 2], [0, 2])).reshape(w.shape)
    return y, grad_x, grad_w, g.sum(axis=(0, 2, 3))


@st.composite
def conv_geometries(draw):
    """(n, c, f, kh, kw, stride, pad, h, w, dtype, seed) with a valid conv."""
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pad = draw(st.integers(0, 3))
    h = draw(st.integers(max(1, kh - 2 * pad), kh + 6))
    w = draw(st.integers(max(1, kw - 2 * pad), kw + 6))
    return (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4)),
            kh, kw, draw(st.integers(1, 3)), pad, h, w,
            draw(st.sampled_from([np.float32, np.float64])),
            draw(st.integers(0, 2 ** 32 - 1)))


def _draw_arrays(seed, dtype, *shapes):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, s).astype(dtype) for s in shapes]


@given(conv_geometries())
def test_conv2d_matches_exact_oracle_over_random_geometry(geom):
    n, c, f, kh, kw, stride, pad, h, wd, dtype, seed = geom
    ho = conv_output_dim(h, kh, stride, pad)
    wo = conv_output_dim(wd, kw, stride, pad)
    x, w, b, g = _draw_arrays(seed, dtype, (n, c, h, wd), (f, c, kh, kw), f,
                              (n, f, ho, wo))
    k = ConvKernel(w, b, stride, pad)
    y, cache = conv2d_forward(x, k)
    got = (y,) + conv2d_backward(g, cache, k)
    want = conv_exact_oracle(x, w, b, stride, pad, g)
    for name, a, e in zip(("y", "grad_x", "grad_w", "grad_b"), got, want):
        assert a.dtype == dtype and np.array_equal(a, e), name
    tol = 1e-4 if dtype == np.float32 else 1e-12
    npt.assert_allclose(y, conv2d_oracle(x, w, b, stride, pad), rtol=0, atol=tol)


@given(conv_geometries())
def test_deconv2d_matches_exact_oracle_over_random_geometry(geom):
    n, c, f, kh, kw, stride, pad, h, wd, dtype, seed = geom
    ho = deconv_output_dim(h, kh, stride, pad)
    wo = deconv_output_dim(wd, kw, stride, pad)
    assume(ho >= 1 and wo >= 1)
    x, w, b, g = _draw_arrays(seed, dtype, (n, f, h, wd), (f, c, kh, kw), c,
                              (n, c, ho, wo))
    k = ConvKernel(w, b, stride, pad)
    y, cache = deconv2d_forward(x, k)
    got = (y,) + deconv2d_backward(g, cache, k)
    want = deconv_exact_oracle(x, w, b, stride, pad, g)
    for name, a, e in zip(("y", "grad_x", "grad_w", "grad_b"), got, want):
        assert a.dtype == dtype and np.array_equal(a, e), name
    tol = 1e-4 if dtype == np.float32 else 1e-12
    npt.assert_allclose(y, deconv2d_oracle(x, w, b, stride, pad), rtol=0, atol=tol)


@given(conv_geometries())
def test_conv_backward_input_is_deconv_forward_over_random_geometry(geom):
    """Adjointness: the transposed conv of g is the conv's input gradient,
    cropped where the windows leave a remainder of the padded input (the
    transposed conv cannot know about it) and whole where they do not."""
    n, c, f, kh, kw, stride, pad, h, wd, dtype, seed = geom
    ho = conv_output_dim(h, kh, stride, pad)
    wo = conv_output_dim(wd, kw, stride, pad)
    hd = deconv_output_dim(ho, kh, stride, pad)
    wdd = deconv_output_dim(wo, kw, stride, pad)
    assume(hd >= 1 and wdd >= 1)
    x, w, b, g = _draw_arrays(seed, dtype, (n, c, h, wd), (f, c, kh, kw), f,
                              (n, f, ho, wo))
    kc = ConvKernel(w, b, stride, pad)
    _, cache = conv2d_forward(x, kc)
    gx, _, _ = conv2d_backward(g, cache, kc)
    via_deconv, _ = deconv2d_forward(g, ConvKernel(w, np.zeros(c, dtype), stride, pad))
    assert np.array_equal(gx[:, :, :hd, :wdd], via_deconv)
    if (h + 2 * pad - kh) % stride == 0 and (wd + 2 * pad - kw) % stride == 0:
        assert via_deconv.shape == x.shape


def same_cols_loop(x, kh, kw, stride, pad):
    """The columns of a stride-1 conv whose output is its input's size, one
    output pixel and tap at a time: +0.0 wherever the tap leaves the image."""
    n, c, h, w = x.shape
    cols = np.zeros((n, c, kh, kw, h, w), dtype=x.dtype)
    for i, j, r, q in itertools.product(range(kh), range(kw), range(h), range(w)):
        if 0 <= r + i - pad < h and 0 <= q + j - pad < w:
            cols[:, :, i, j, r, q] = x[:, :, r + i - pad, q + j - pad]
    return cols.reshape(n, c * kh * kw, h * w)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("k", (3, 5, 7))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_same_conv_columns_and_gradients_match_a_pixel_loop_bitwise(k, dtype):
    """Stride 1, a k x k kernel and pad (k-1)/2 take the flat-padded im2col:
    its columns, and the conv's output and gradients built on them, are
    those of a loop over pixels, signed zeros included, on maps smaller than
    the kernel as well as larger ones."""
    p = k // 2
    for n, (h, w) in itertools.product((1, 2), ((1, 1), (2, 3), (3, 7), (7, 2), (6, 9))):
        x, wt, b, g = _draw_arrays(k * 100 + h * 10 + w, dtype, (n, 3, h, w),
                                   (2, 3, k, k), 2, (n, 2, h, w))
        for a in (x, wt, g):
            a[a < -0.6] = -0.0
        cols, ho, wo = layers._im2col(x, k, k, 1, p)
        assert (ho, wo) == (h, w)
        assert _same_bits(cols, same_cols_loop(x, k, k, 1, p)), (n, h, w)
        kern = ConvKernel(wt, b, 1, p)
        y, cache = conv2d_forward(x, kern)
        got = (y,) + conv2d_backward(g, cache, kern)
        want = conv_exact_oracle(x, wt, b, 1, p, g, im2col=same_cols_loop)
        for name, a, e in zip(("y", "grad_x", "grad_w", "grad_b"), got, want):
            assert a.dtype == dtype and _same_bits(a, e), (name, n, h, w)


# ---------------------------------------------------------------------------
# The workspace: layers keep column-space scratch in per-thread buffers that
# the next call overwrites, so nothing a layer hands out may live there.


def _arrays_in(obj):
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for o in obj for a in _arrays_in(o)]
    if isinstance(obj, layers.LayerActivationCache):
        return _arrays_in(list(obj.data.values()))
    return []


def _layer_round(rng, dtype):
    """Forward and backward of every layer that takes a kernel or pools, at
    padded, unpadded and 1x1 geometries; returns everything they hand out."""
    out = []
    x = rng.uniform(-1, 1, (2, 3, 9, 8)).astype(dtype)
    for shape, stride, pad in (((4, 3, 3, 3), 1, 1), ((4, 3, 3, 2), 2, 0),
                               ((4, 3, 1, 1), 1, 0), ((4, 3, 2, 2), 2, 2)):
        k = ConvKernel(rng.uniform(-1, 1, shape).astype(dtype),
                       rng.uniform(-1, 1, 4).astype(dtype), stride, pad)
        y, cache = conv2d_forward(x, k)
        out += [y, cache, conv2d_backward(np.ones_like(y), cache, k)]
        kd = ConvKernel(k.weights, rng.uniform(-1, 1, 3).astype(dtype), stride, pad)
        yd, cache = deconv2d_forward(y, kd)
        out += [yd, cache, deconv2d_backward(np.ones_like(yd), cache, kd)]
    y, cache = maxpool2d_forward(x, 2)
    out += [y, cache, maxpool2d_backward(np.ones_like(y), cache)]
    y, cache = relu_forward(x)
    out += [y, cache, relu_backward(np.ones_like(y), cache)]
    return _arrays_in(out)


def test_nothing_a_layer_returns_or_caches_lives_in_the_workspace():
    rng = np.random.default_rng(120)
    for dtype in (np.float32, np.float64):
        _layer_round(rng, dtype)  # grows every buffer to its size for the round
        handed_out = _layer_round(rng, dtype)
        scratch = list(layers._workspace.buffers.values())
        assert {"padded", "cols"} <= {s for s, _ in layers._workspace.buffers}
        for a in handed_out:
            assert not any(np.shares_memory(a, buf) for buf in scratch), a.shape


def test_a_later_conv_leaves_an_earlier_output_and_cache_intact():
    rng = np.random.default_rng(121)
    x1 = rng.uniform(-1, 1, (1, 2, 6, 5))
    k1 = ConvKernel(rng.uniform(-1, 1, (3, 2, 3, 3)), rng.uniform(-1, 1, 3), 1, 1)
    y1, cache1 = conv2d_forward(x1, k1)
    g1 = rng.uniform(-1, 1, y1.shape)
    grads1 = conv2d_backward(g1, cache1, k1)
    kept = [a.copy() for a in (y1,) + grads1]
    x2 = rng.uniform(-1, 1, (2, 4, 11, 13))
    k2 = ConvKernel(rng.uniform(-1, 1, (5, 4, 5, 4)), rng.uniform(-1, 1, 5), 2, 3)
    y2, cache2 = conv2d_forward(x2, k2)
    conv2d_backward(np.ones_like(y2), cache2, k2)
    assert np.array_equal(y1, kept[0])
    for a, b in zip(conv2d_backward(g1, cache1, k1), kept[1:]):
        assert np.array_equal(a, b)


def test_threads_running_different_convs_get_the_single_thread_result():
    """More threads than cores, each on its own geometry, switching often:
    a workspace shared between threads would hand one thread's columns to
    another."""
    rng = np.random.default_rng(122)
    cases = []
    for xs, ws, stride, pad in (((2, 3, 17, 15), (6, 3, 3, 3), 1, 1),
                                ((1, 5, 12, 20), (4, 5, 5, 4), 2, 2),
                                ((3, 2, 9, 9), (3, 2, 2, 2), 1, 3)):
        x = rng.uniform(-1, 1, xs).astype(np.float32)
        k = ConvKernel(rng.uniform(-1, 1, ws).astype(np.float32),
                       rng.uniform(-1, 1, ws[0]).astype(np.float32), stride, pad)
        y, cache = conv2d_forward(x, k)
        g = rng.uniform(-1, 1, y.shape).astype(np.float32)
        cases.append((x, k, g, (y,) + conv2d_backward(g, cache, k)))
    start = threading.Barrier(len(cases))
    finished, mismatches = [], []

    def run(x, k, g, want):
        start.wait()
        for _ in range(40):
            y, cache = conv2d_forward(x, k)
            got = (y,) + conv2d_backward(g, cache, k)
            if not all(np.array_equal(a, b) for a, b in zip(got, want)):
                mismatches.append(x.shape)
        finished.append(x.shape)

    threads = [threading.Thread(target=run, args=case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(finished) == len(cases) and mismatches == []

"""Layer tests: nested-loop convolution oracles, adjointness, pooling, dense."""

import numpy as np
import numpy.testing as npt
import pytest

from rfcn.errors import ShapeError
from rfcn.layers import (ConvKernel, bilinear_kernel, conv2d_backward,
                         conv2d_forward, conv_output_dim, deconv2d_backward,
                         deconv2d_forward, deconv_output_dim, dense_backward,
                         dense_forward, flatten, maxpool2d_backward,
                         maxpool2d_forward, relu_backward, relu_forward,
                         unflatten)
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


def test_dense_forward_backward_oracle():
    rng = Rng(107)
    x = rng.uniform(-1, 1, 7)
    w = rng.uniform(-1, 1, (5, 7))
    b = rng.uniform(-1, 1, 5)
    y, cache = dense_forward(x, w, b)
    npt.assert_allclose(y, w @ x + b, atol=1e-12)
    g = rng.uniform(-1, 1, 5)
    gx, gw, gb = dense_backward(g, cache, w)
    npt.assert_allclose(gx, w.T @ g, atol=1e-12)
    npt.assert_allclose(gw, np.outer(g, x), atol=1e-12)
    npt.assert_allclose(gb, g, atol=1e-12)


def test_flatten_unflatten_roundtrip():
    rng = Rng(108)
    x = rng.uniform(-1, 1, (2, 3, 4))
    v = flatten(x)
    assert v.shape == (24,)
    npt.assert_array_equal(unflatten(v, (2, 3, 4)), x)
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

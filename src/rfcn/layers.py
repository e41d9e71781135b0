"""Feed-forward layer primitives with explicit forward and backward passes.

All spatial ops use NCHW tensors and the cross-correlation convention (no
kernel flip). Convolution is implemented as im2col + matmul; transposed
convolution is the exact adjoint of convolution with the same kernel, so
deconv_forward(g) equals the grad_x that conv2d_backward would produce for
grad_out = g (plus an output-channel bias).

Conv and deconv weight gradients are one GEMM each, contracting the batch and
pixel axes together. The col2im scatter of a transposed conv whose patches
tile the image (stride equal to the kernel size, no remainder) is a transpose
of the columns instead of a loop over kernel offsets.

Forward passes do only forward work. Conv caches its unpadded input, deconv
its input, relu its output, and conv2d_backward rebuilds the padded
im2col columns from the input. Max-pool keeps its input and output; its
backward finds each window's first maximum again by comparing them. Relu
writes into out when given one: relu_forward(x, out=x) overwrites an input
that its caller owns and no one else reads.

Column-space temporaries (the zero-padded input, the im2col columns, the
column GEMM products that col2im scatters) live in a
private per-thread workspace of grow-only buffers, so steady-state calls
reuse the same memory instead of faulting in fresh pages. A forward pass
allocates only what it returns or caches. For a "same" conv (stride 1, a
square odd kernel, pad (k-1)/2) the padded slot holds the flat-padded
image that its columns are copied from in one pass (_im2col_same).
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass
class ConvKernel:
    """Convolution weights of shape (f, c, k_h, k_w) with stride and zero-pad.

    Used by conv2d (c input channels -> f output channels, bias length f) and
    by deconv2d in transposed orientation (f input channels -> c output
    channels, bias length c).
    """

    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ShapeError(f"kernel weights must be rank 4, got {self.weights.shape}")
        f, c, kh, kw = self.weights.shape
        if min(f, c, kh, kw) < 1:
            raise ShapeError(f"degenerate kernel shape {self.weights.shape}")
        if self.stride < 1 or self.pad < 0:
            raise ShapeError(f"invalid stride {self.stride} / pad {self.pad}")
        if self.bias.ndim != 1 or self.bias.shape[0] not in (f, c):
            raise ShapeError(
                f"bias shape {self.bias.shape} fits neither {f} nor {c} channels")


@dataclass
class LayerActivationCache:
    """Values saved by a forward pass for the matching backward call."""

    input_shape: tuple
    data: dict = field(default_factory=dict)


class _Workspace(threading.local):
    """Per-thread, grow-only scratch buffers keyed by slot name and dtype.

    get(slot, shape, dtype) returns a C-contiguous view of the slot's buffer
    with that shape and uninitialized contents. The view is valid only until
    the next get of the same slot on the same thread, so a layer consumes
    everything it takes from here before it returns; nothing it returns or
    caches may be such a view, and every view is written in full before it
    is read. The workspace is per thread rather than per model because the
    layers never see the model; threads never share scratch memory.
    """

    def __init__(self):
        self.buffers = {}

    def get(self, slot, shape, dtype):
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        buf = self.buffers.get((slot, dtype))
        if buf is None or buf.size < size:
            buf = self.buffers[(slot, dtype)] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


_workspace = _Workspace()


def _im2col(x, kh, kw, stride, pad):
    """(n, c, h, w) -> (n, c*kh*kw, ho*wo) patch matrix of x zero-padded by
    pad, in the workspace. The padding is fused into the copy: x goes into
    the interior of a workspace image whose border strips are zeroed. A 1x1,
    stride-1, unpadded conv reads a contiguous x in place; a "same" conv
    takes _im2col_same."""
    n, c, h, w = x.shape
    ho = conv_output_dim(h, kh, stride, pad)
    wo = conv_output_dim(w, kw, stride, pad)
    if kh == kw == stride == 1 and pad == 0:
        return np.ascontiguousarray(x).reshape(n, c, h * w), ho, wo
    if kh == kw == 2 * pad + 1 and stride == 1:
        return _im2col_same(x, pad), ho, wo
    if pad:
        xp = _workspace.get("padded", (n, c, h + 2 * pad, w + 2 * pad), x.dtype)
        xp[:, :, :pad] = 0
        xp[:, :, pad + h:] = 0
        xp[:, :, pad:pad + h, :pad] = 0
        xp[:, :, pad:pad + h, pad + w:] = 0
        xp[:, :, pad:pad + h, pad:pad + w] = x
        x = xp
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (n, c, kh, kw, ho, wo), (sn, sc, sh, sw, sh * stride, sw * stride))
    cols = _workspace.get("cols", windows.shape, x.dtype)
    np.copyto(cols, windows)
    return cols.reshape(n, c * kh * kw, ho * wo), ho, wo


def _im2col_same(x, p):
    """The columns of a stride-1, k x k conv with k = 2p + 1, whose output
    has the input's size, as one copy whose inner run is a whole h*w map.

    Each channel's pixels, flattened, sit in the workspace's padded slot
    between p*w + p zeros on either side, so tap (i, j) of output pixel q
    reads flat index q + i*w + j. A row above or below the image lands in
    those zeros; a column left or right of it wraps to the neighbouring row
    instead, so the |j - p| output columns at that edge of each tap column
    j != p are zeroed after the copy."""
    n, c, h, w = x.shape
    k, hw, lead = 2 * p + 1, h * w, p * w + p
    flat = _workspace.get("padded", (n, c, hw + 2 * lead), x.dtype)
    flat[:, :, :lead] = 0
    flat[:, :, lead + hw:] = 0
    flat[:, :, lead:lead + hw] = x.reshape(n, c, hw)
    sn, sc, s = flat.strides
    windows = np.lib.stride_tricks.as_strided(
        flat, (n, c, k, k, hw), (sn, sc, w * s, s, s))
    cols = _workspace.get("cols", windows.shape, x.dtype)
    np.copyto(cols, windows)
    grid = cols.reshape(n, c, k, k, h, w)
    for j in range(p):
        grid[:, :, :, j, :, :p - j] = 0
        grid[:, :, :, k - 1 - j, :, max(w - p + j, 0):] = 0
    return cols.reshape(n, c * k * k, hw)


def _col2im(cols, x, kh, kw, stride):
    """Adjoint of _im2col without padding: scatter-add the patches in cols
    into the (n, c, hp, wp) image x, in place."""
    n, c, hp, wp = x.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    if stride == kh == kw and (hp, wp) == (ho * kh, wo * kw):
        # the patches tile the image: each pixel takes exactly one value, so
        # the scatter-add is a transpose of the columns into the image
        tiles = x.reshape(n, c, ho, kh, wo, kw)
        tiles += cols.transpose(0, 1, 4, 2, 5, 3)
        return
    for i in range(kh):
        for j in range(kw):
            x[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += cols[:, :, i, j]


def _column_gemm(a, b):
    """a (m, k) @ b (n, k, p) into the workspace's column slot, for col2im to
    scatter. It overwrites the columns _im2col returned last."""
    out = _workspace.get("cols", (b.shape[0], a.shape[0], b.shape[2]),
                         np.result_type(a, b))
    return np.matmul(a, b, out=out)


def conv_output_dim(h, k, stride, pad):
    return (h + 2 * pad - k) // stride + 1


def deconv_output_dim(h, k, stride, pad):
    return (h - 1) * stride + k - 2 * pad


def conv2d_forward(x, k):
    """Cross-correlate x (n, c, h, w) with k, adding bias per output channel."""
    f, c, kh, kw = k.weights.shape
    n, cx, h, w = x.shape
    if cx != c:
        raise ShapeError(f"input has {cx} channels, kernel expects {c}")
    if h + 2 * k.pad < kh or w + 2 * k.pad < kw:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h}x{w} (pad {k.pad})")
    if k.bias.shape[0] != f:
        raise ShapeError(f"conv bias length {k.bias.shape[0]} != {f} filters")
    cols, ho, wo = _im2col(x, kh, kw, k.stride, k.pad)
    w2 = k.weights.reshape(f, c * kh * kw)
    y = np.matmul(w2, cols).reshape(n, f, ho, wo)
    y += k.bias.reshape(1, f, 1, 1)
    cache = LayerActivationCache(x.shape, {"x": x, "out_hw": (ho, wo)})
    return y, cache


def conv2d_backward(grad_out, cache, k):
    """Gradients of conv2d_forward w.r.t. input, weights, and bias."""
    f, c, kh, kw = k.weights.shape
    n, _, h, w = cache.input_shape
    ho, wo = cache.data["out_hw"]
    if grad_out.shape != (n, f, ho, wo):
        raise ShapeError(f"grad_out shape {grad_out.shape} != {(n, f, ho, wo)}")
    cols, _, _ = _im2col(cache.data["x"], kh, kw, k.stride, k.pad)
    gy = grad_out.reshape(n, f, ho * wo)
    grad_b = gy.sum(axis=(0, 2))
    # the (f, n*ho*wo) by (n*ho*wo, K) GEMM on views, which for one image
    # copy nothing: tensordot's layout, without its overhead
    grad_w = np.dot(gy.transpose(1, 0, 2).reshape(f, -1),
                    cols.transpose(0, 2, 1).reshape(-1, c * kh * kw)).reshape(f, c, kh, kw)
    w2 = k.weights.reshape(f, c * kh * kw)
    grad_cols = _column_gemm(w2.T, gy)  # the columns are consumed: reuse them
    p = k.pad
    gx = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=grad_cols.dtype)
    _col2im(grad_cols, gx, kh, kw, k.stride)
    if p:
        gx = gx[:, :, p:-p, p:-p]
    return gx, grad_w, grad_b


def deconv2d_forward(x, k):
    """Transposed convolution: x (n, f, h, w) -> (n, c, (h-1)S + k_h - 2P, ...)."""
    f, c, kh, kw = k.weights.shape
    n, fx, h, w = x.shape
    if fx != f:
        raise ShapeError(f"input has {fx} channels, transposed kernel expects {f}")
    if k.bias.shape[0] != c:
        raise ShapeError(f"deconv bias length {k.bias.shape[0]} != {c} output channels")
    ho = deconv_output_dim(h, kh, k.stride, k.pad)
    wo = deconv_output_dim(w, kw, k.stride, k.pad)
    if ho < 1 or wo < 1:
        raise ShapeError(f"deconv output dims {ho}x{wo} not positive")
    w2 = k.weights.reshape(f, c * kh * kw)
    xf = x.reshape(n, f, h * w)
    cols = _column_gemm(w2.T, xf)
    p = k.pad
    yp = np.zeros((n, c, ho + 2 * p, wo + 2 * p), dtype=cols.dtype)
    _col2im(cols, yp, kh, kw, k.stride)
    y = np.ascontiguousarray(yp[:, :, p:p + ho, p:p + wo])  # copies only if padded
    y += k.bias.reshape(1, c, 1, 1)
    cache = LayerActivationCache(x.shape, {"xf": xf, "out_hw": (ho, wo)})
    return y, cache


def deconv2d_backward(grad_out, cache, k):
    f, c, kh, kw = k.weights.shape
    n, _, h, w = cache.input_shape
    ho, wo = cache.data["out_hw"]
    if grad_out.shape != (n, c, ho, wo):
        raise ShapeError(f"grad_out shape {grad_out.shape} != {(n, c, ho, wo)}")
    grad_b = grad_out.sum(axis=(0, 2, 3))
    gcols, _, _ = _im2col(grad_out, kh, kw, k.stride, k.pad)
    w2 = k.weights.reshape(f, c * kh * kw)
    grad_x = np.matmul(w2, gcols).reshape(n, f, h, w)
    xf = cache.data["xf"]
    grad_w = np.dot(xf.transpose(1, 0, 2).reshape(f, -1),
                    gcols.transpose(0, 2, 1).reshape(-1, c * kh * kw)).reshape(f, c, kh, kw)
    return grad_x, grad_w, grad_b


def _pool_taps(x, window, stride, ho, wo):
    """The window*window strided views x[:, :, i::stride, j::stride], cropped
    to (ho, wo), in row-major scan order of the offset (i, j)."""
    for i in range(window):
        for j in range(window):
            yield x[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]


def maxpool2d_forward(x, window, stride=None):
    """Max pooling; ties break to the first maximum in row-major scan order."""
    stride = stride or window
    h, w = x.shape[2:]
    if window > h or window > w:
        raise ShapeError(f"pool window {window} exceeds input {h}x{w}")
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    taps = _pool_taps(x, window, stride, ho, wo)
    y = next(taps).copy()
    for tap in taps:
        # maximum(a, b) returns a only when a > b or a is NaN, so a later tap
        # equal to the running max (+0.0 after -0.0 included) leaves it alone
        np.maximum(tap, y, out=y)
    cache = LayerActivationCache(x.shape, {"x": x, "y": y, "window": window,
                                           "stride": stride})
    return y, cache


def maxpool2d_backward(grad_out, cache):
    """Route each window's gradient to its first maximum in scan order, found
    again here by comparing the taps with the pooled output."""
    x, y = cache.data["x"], cache.data["y"]
    window = cache.data["window"]
    stride = cache.data["stride"]
    if grad_out.shape != y.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} != {y.shape}")
    ho, wo = y.shape[2], y.shape[3]
    grad_x = np.zeros(x.shape, dtype=grad_out.dtype)
    still_open = np.ones(y.shape, dtype=bool)
    for tap, gtap in zip(_pool_taps(x, window, stride, ho, wo),
                         _pool_taps(grad_x, window, stride, ho, wo)):
        hit = still_open & (tap == y)
        gtap += np.where(hit, grad_out, 0)
        still_open &= ~hit
    return grad_x


def relu_forward(x, out=None):
    """max(x, 0), into out if given: out=x overwrites an input that no one
    else reads."""
    y = np.maximum(x, 0, out=out)
    return y, LayerActivationCache(x.shape, {"y": y})


def relu_backward(grad_out, cache):
    """y > 0 exactly where x > 0: y = max(x, 0), and a NaN x gives a NaN y."""
    if grad_out.shape != cache.input_shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} != {cache.input_shape}")
    return grad_out * (cache.data["y"] > 0)


def flatten(x):
    """Each image of x (n, c, h, w), row-major, as an (n, c*h*w, 1, 1) map."""
    return np.ascontiguousarray(x).reshape(len(x), -1, 1, 1)


def unflatten(v, shape):
    shape = tuple(int(s) for s in shape)
    if v.size != math.prod(shape):
        raise ShapeError(f"cannot unflatten {v.size} values into {shape}")
    return v.reshape(shape)


def bilinear_kernel(f, c, k, dtype=np.float32):
    """Bilinear-interpolation deconv weights (f, c, k, k), identity across
    matching channel pairs."""
    factor = (k + 1) // 2
    center = factor - 1 if k % 2 == 1 else factor - 0.5
    og = np.ogrid[:k, :k]
    filt = (1 - abs(og[0] - center) / factor) * (1 - abs(og[1] - center) / factor)
    w = np.zeros((f, c, k, k), dtype=dtype)
    for i in range(min(f, c)):
        w[i, i] = filt
    return w


def identity_kernel(shape, gain, dtype):
    """Zeros with gain at (i, i) and the centre tap of each trailing axis:
    a square matrix or conv kernel that scales its input by gain."""
    w = np.zeros(shape, dtype=dtype)
    i = np.arange(shape[0])
    w[(i, i) + tuple(k // 2 for k in shape[2:])] = gain
    return w

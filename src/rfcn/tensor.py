"""Tensor helpers: a finiteness check, a stable sigmoid, and seeded random
fills.

Tensors are plain numpy arrays in row-major layout; 4-d activations use the
NCHW convention. check_finite fails fast with the op name and the first
offending flat index; it guards every window's logits and every random
draw.
"""

import math

import numpy as np

from .errors import NumericsError, ShapeError


def check_finite(x, op):
    """Raise NumericsError naming the first non-finite entry of x."""
    if np.all(np.isfinite(x)):
        return x
    flat = np.asarray(x).ravel()
    idx = int(np.argmin(np.isfinite(flat)))
    raise NumericsError(f"{op}: non-finite value {flat[idx]!r} at flat index {idx}")


def sigmoid(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, from one
    e = exp(-|x|), which cannot overflow: the numerator max(e, x >= 0) is 1
    or e, and keeps a NaN. Float dtypes are kept; other inputs give float64."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1 + e)


def Rng(seed):
    """The library's PRNG: a numpy Generator on PCG64, pinned so identical
    seeds give identical streams on every platform; independent, reproducible
    children come from its spawn(n)."""
    return np.random.Generator(np.random.PCG64(seed))


def fill_random(shape, rng, dtype):
    """Draw U[-sqrt(6/fan_in), +sqrt(6/fan_in)), fan_in the product of all
    dims past the first (the only dim of a 1-d shape)."""
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape):
        raise ShapeError(f"negative extent in shape {shape}")
    fan_in = math.prod(shape[1:]) if len(shape) > 1 else shape[0]
    bound = np.sqrt(6.0 / fan_in)
    out = rng.uniform(-bound, bound, shape).astype(dtype)
    return check_finite(out, "fill_random")

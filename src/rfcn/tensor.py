"""Tensor helpers: a finiteness check, a stable sigmoid, and seeded random
fills.

Tensors are plain numpy arrays in row-major layout; 4-d activations use the
NCHW convention. check_finite fails fast with the op name and the first
offending flat index; it guards every window's logits and every random
draw.
"""

import numpy as np

from .errors import NumericsError, ShapeError

DEFAULT_DTYPE = np.float32


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


class Rng:
    """Deterministic PRNG (numpy PCG64) with a documented seed-split scheme.

    Identical seeds produce identical scalar streams on every platform.
    Children spawned via split() are independent and reproducible.
    """

    algorithm = "PCG64"

    def __init__(self, seed, _seq=None):
        self.seed = int(seed) if _seq is None else None
        self._seq = _seq if _seq is not None else np.random.SeedSequence(int(seed))
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def split(self, n):
        """Derive n independent child generators (SeedSequence.spawn)."""
        return [Rng(0, _seq=child) for child in self._seq.spawn(n)]

    def uniform(self, lo, hi, shape=None):
        return self._gen.uniform(lo, hi, shape)

    def integers(self, lo, hi):
        return int(self._gen.integers(lo, hi))

    def permutation(self, n):
        return self._gen.permutation(n)

    def choice(self, n):
        return int(self._gen.integers(0, n))


def fill_random(shape, rng, dist="uniform", lo=-1.0, hi=1.0, fan_in=None,
                dtype=DEFAULT_DTYPE):
    """Draw a tensor from the given distribution.

    dist="uniform" draws U[lo, hi); dist="scaled-fan-in" draws
    U[-sqrt(6/fan_in), +sqrt(6/fan_in)) with fan_in defaulting to the product
    of all dims past the first.
    """
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape):
        raise ShapeError(f"negative extent in shape {shape}")
    if dist == "scaled-fan-in":
        if fan_in is None:
            fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
        bound = np.sqrt(6.0 / fan_in)
        lo, hi = -bound, bound
    elif dist != "uniform":
        raise ValueError(f"unknown distribution {dist!r}")
    out = rng.uniform(lo, hi, shape).astype(dtype)
    return check_finite(out, "fill_random")

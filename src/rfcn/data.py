"""Moving-MNIST synthesis, MNIST IDX ingestion, PGM/PPM datasets, and
sliding-window sampling.

Sequences are synthesized by translating a digit image with a constant
per-sequence velocity (sub-pixel bilinear sampling); segmentation labels are
the thresholded frames, so labels stay consistent with the imagery by
construction.
"""

import json
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

DEFAULT_THRESHOLD = 0.5
DEFAULT_MAX_OFFSET = 8.0


@dataclass
class MotionSpec:
    """Constant per-sequence velocity in pixels/frame plus a boundary policy."""

    velocity: tuple  # (dx, dy)
    boundary: str = "bounce"  # bounce | clamp

    def __post_init__(self):
        if self.boundary not in ("bounce", "clamp"):
            raise DataError(f"unknown boundary policy {self.boundary!r}")


@dataclass
class VideoSequence:
    frames: list  # CHW float arrays in [0, 1]
    masks: list   # HW MASK_DTYPE class maps, 0 = background
    source_id: str = ""

    def __post_init__(self):
        if len(self.frames) != len(self.masks):
            raise DataError(
                f"{len(self.frames)} frames vs {len(self.masks)} masks")

    def __len__(self):
        return len(self.frames)


@dataclass
class SequenceSample:
    """T consecutive frames plus the mask of the last frame."""

    frames: list
    target: np.ndarray
    sequence_id: str = ""
    end_index: int = 0


# ---------------------------------------------------------------------------
# MNIST IDX


def _read_be32(f, what):
    data = f.read(4)
    if len(data) != 4:
        raise DataError(f"truncated IDX file while reading {what}")
    return struct.unpack(">I", data)[0]


def load_mnist_idx(images_path, labels_path):
    """Load an IDX image/label pair; pixels scaled to [0, 1].

    Returns (images (N, 28, 28) float32, labels (N,) int).
    """
    with open(images_path, "rb") as f:
        magic = _read_be32(f, "image magic")
        if magic != IDX_IMAGES_MAGIC:
            raise DataError(f"bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        count = _read_be32(f, "image count")
        rows = _read_be32(f, "rows")
        cols = _read_be32(f, "cols")
        raw = f.read(count * rows * cols)
        if len(raw) != count * rows * cols:
            raise DataError("truncated IDX image payload")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    with open(labels_path, "rb") as f:
        magic = _read_be32(f, "label magic")
        if magic != IDX_LABELS_MAGIC:
            raise DataError(f"bad label magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        lcount = _read_be32(f, "label count")
        raw = f.read(lcount)
        if len(raw) != lcount:
            raise DataError("truncated IDX label payload")
        labels = np.frombuffer(raw, dtype=np.uint8)
    if count != lcount:
        raise DataError(f"image count {count} != label count {lcount}")
    return images.astype(np.float32) / 255.0, labels.astype(np.int64)


def save_mnist_idx(images_path, labels_path, images, labels):
    """Write an IDX pair (inverse of load_mnist_idx); images in [0, 1]."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(np.clip(np.round(images * 255), 0, 255).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Built-in digit glyphs (used when no MNIST files are supplied)

_FONT_5X7 = {
    0: ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("11110", "00001", "00001", "01110", "00001", "00001", "11110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}


def builtin_digits():
    """Synthetic 28x28 digit glyphs (10 classes), values in {0, 1}.

    Stand-in for MNIST when the IDX files are not available; segmentation
    labels are thresholded frames either way, so the task is unchanged.
    """
    images = np.zeros((10, 28, 28), dtype=np.float32)
    for d, rows in _FONT_5X7.items():
        bitmap = np.array([[int(ch) for ch in r] for r in rows], dtype=np.float32)
        glyph = np.kron(bitmap, np.ones((3, 3), dtype=np.float32))  # 21x15
        gh, gw = glyph.shape
        y0 = (28 - gh) // 2
        x0 = (28 - gw) // 2
        images[d, y0:y0 + gh, x0:x0 + gw] = glyph
    return images, np.arange(10)


# ---------------------------------------------------------------------------
# Moving MNIST synthesis


def bilinear_translate(img, dy, dx):
    """Shift a 2-d image by a (possibly fractional) offset; zeros outside."""
    h, w = img.shape
    ys = np.arange(h) - dy
    xs = np.arange(w) - dx
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]

    def sample(yi, xi):
        vy = (yi >= 0) & (yi < h)
        vx = (xi >= 0) & (xi < w)
        vals = img[np.clip(yi, 0, h - 1)[:, None], np.clip(xi, 0, w - 1)[None, :]]
        return vals * (vy[:, None] & vx[None, :])

    return (sample(y0, x0) * (1 - fy) * (1 - fx)
            + sample(y0, x0 + 1) * (1 - fy) * fx
            + sample(y0 + 1, x0) * fy * (1 - fx)
            + sample(y0 + 1, x0 + 1) * fy * fx)


def sample_motion(rng, min_speed=0.5, max_speed=2.0, boundary="bounce"):
    """Uniform direction, speed uniform in [min_speed, max_speed] px/frame."""
    angle = rng.uniform(0, 2 * np.pi)
    speed = rng.uniform(min_speed, max_speed)
    return MotionSpec((speed * np.cos(angle), speed * np.sin(angle)), boundary)


MASK_MODES = ("binary", "semantic")


def _check_mode(mode):
    if mode not in MASK_MODES:
        raise DataError(f"mask mode must be one of {MASK_MODES}, got {mode!r}")


def gen_moving_mnist(digits, labels, motion, length, rng, mode="binary",
                     threshold=DEFAULT_THRESHOLD, max_offset=DEFAULT_MAX_OFFSET,
                     source_id=""):
    """Synthesize one sequence by translating a randomly chosen digit with a
    constant velocity; masks are the thresholded frames.

    mode="binary" labels foreground as class 1; mode="semantic" labels it as
    digit class + 1, which must fit a mask (at most MAX_CLASS_ID).
    """
    digits = np.asarray(digits)
    if digits.ndim != 3 or digits.shape[0] == 0:
        raise DataError("digit set must be a non-empty (N, H, W) array")
    if length < 1:
        raise DataError("sequence length must be >= 1")
    _check_mode(mode)
    if mode == "semantic" and int(np.max(labels)) + 1 > MAX_CLASS_ID:
        raise DataError(f"digit label {int(np.max(labels))} has class id above "
                        f"{MAX_CLASS_ID}, the largest a mask holds")
    idx = rng.choice(digits.shape[0])
    base = digits[idx]
    cls = 1 if mode == "binary" else int(labels[idx]) + 1
    if motion is None:
        motion = sample_motion(rng)
    dx, dy = motion.velocity
    ox = rng.uniform(-max_offset, max_offset)
    oy = rng.uniform(-max_offset, max_offset)
    frames = []
    masks = []
    for _ in range(length):
        frame = bilinear_translate(base, oy, ox).astype(np.float32)
        frames.append(frame[None])
        masks.append(np.where(frame > threshold, cls, 0).astype(MASK_DTYPE))
        ox, dx = _advance(ox, dx, max_offset, motion.boundary)
        oy, dy = _advance(oy, dy, max_offset, motion.boundary)
    return VideoSequence(frames, masks, source_id=source_id)


def _advance(pos, vel, bound, policy):
    pos = pos + vel
    # a range of zero width has no walls to bounce between: pin the position
    if policy == "clamp" or bound <= 0:
        return float(np.clip(pos, -bound, bound)), vel
    # bounce: reflect off the offset bounds, flipping velocity
    while pos > bound or pos < -bound:
        if pos > bound:
            pos = 2 * bound - pos
        else:
            pos = -2 * bound - pos
        vel = -vel
    return pos, vel


# ---------------------------------------------------------------------------
# PGM / PPM raster IO

MASK_DTYPE = np.uint8
"""The dtype of every mask the library makes: a map of class ids, 0 =
background. Ids run 0-255 because masks are stored as 8-bit PGM files."""
MAX_CLASS_ID = int(np.iinfo(MASK_DTYPE).max)


def _to_bytes(path, data, what):
    """Samples for an 8-bit netpbm file: floats in [0, 1] are scaled and
    rounded, integers must already lie in 0-255."""
    data = np.asarray(data)
    if data.dtype.kind == "f":
        data = np.clip(np.round(data * 255), 0, 255)
    elif data.size and (data.min() < 0 or data.max() > 255):
        raise DataError(f"{path}: {what} pixel values must be in 0-255, got "
                        f"{data.min()}..{data.max()}")
    return data.astype(np.uint8, copy=False)


def write_pgm(path, data):
    """8-bit binary PGM; data is (H, W) float in [0, 1], or integers in
    0-255 (a mask), written as they are."""
    data = _to_bytes(path, data, "PGM")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def write_ppm(path, data):
    """8-bit binary PPM; data is (3, H, W) float in [0, 1], or integers in
    0-255, written as they are."""
    data = _to_bytes(path, data, "PPM")
    c, h, w = data.shape
    if c != 3:
        raise DataError(f"PPM needs 3 channels, got {c}")
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.transpose(data, (1, 2, 0)).tobytes())


def _read_netpbm(path, magic):
    with open(path, "rb") as f:
        data = f.read()
    m = re.match(rb"(P[56])\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s", data)
    if not m or m.group(1).decode() != magic:
        raise DataError(f"{path}: not a binary {magic} file")
    w, h, maxval = (int(m.group(i)) for i in (2, 3, 4))
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported")
    depth = 1 if magic == "P5" else 3
    raw = data[m.end():]
    if len(raw) < w * h * depth:
        raise DataError(f"{path}: truncated pixel data")
    arr = np.frombuffer(raw[:w * h * depth], dtype=np.uint8)
    if depth == 1:
        return arr.reshape(h, w)
    return np.transpose(arr.reshape(h, w, 3), (2, 0, 1))


def read_pgm(path):
    return _read_netpbm(path, "P5")


def read_ppm(path):
    return _read_netpbm(path, "P6")


def read_frame(path):
    """One frame file as a (C, H, W) float32 array in [0, 1]: a .ppm file is
    read as RGB, any other as a PGM."""
    if path.endswith(".ppm"):
        return read_ppm(path).astype(np.float32) / 255.0
    return read_pgm(path)[None].astype(np.float32) / 255.0


# ---------------------------------------------------------------------------
# Sequence directories


def save_sequence(seq, directory):
    """Write a sequence as frames/*.pgm|ppm plus masks/*.pgm (mask pixel value
    == class id)."""
    fdir = os.path.join(directory, "frames")
    mdir = os.path.join(directory, "masks")
    os.makedirs(fdir, exist_ok=True)
    os.makedirs(mdir, exist_ok=True)
    for i, (frame, mask) in enumerate(zip(seq.frames, seq.masks)):
        if frame.shape[0] == 1:
            write_pgm(os.path.join(fdir, f"frame_{i:04d}.pgm"), frame[0])
        else:
            write_ppm(os.path.join(fdir, f"frame_{i:04d}.ppm"), frame)
        write_pgm(os.path.join(mdir, f"mask_{i:04d}.pgm"), mask)


def load_frame_directory(frames_dir, masks_dir, source_id=""):
    """Pair lexicographically sorted frame and mask files into a sequence."""
    fnames = sorted(os.listdir(frames_dir)) if os.path.isdir(frames_dir) else None
    mnames = sorted(os.listdir(masks_dir)) if os.path.isdir(masks_dir) else None
    if fnames is None or mnames is None:
        raise DataError(f"missing directory: {frames_dir} / {masks_dir}")
    if len(fnames) != len(mnames):
        raise DataError(
            f"{len(fnames)} frames vs {len(mnames)} masks in {frames_dir}")
    frames = []
    masks = []
    for fn, mn in zip(fnames, mnames):
        frame = read_frame(os.path.join(frames_dir, fn))
        # an owned, writable copy: the reader returns a read-only view
        mask = read_pgm(os.path.join(masks_dir, mn)).astype(MASK_DTYPE)
        if frame.shape[1:] != mask.shape:
            raise DataError(f"frame {fn} dims {frame.shape[1:]} != mask {mask.shape}")
        frames.append(frame)
        masks.append(mask)
    if frames:
        shapes = {f.shape for f in frames}
        if len(shapes) != 1:
            raise DataError(f"inconsistent frame shapes {shapes} in {frames_dir}")
    return VideoSequence(frames, masks, source_id=source_id)


# ---------------------------------------------------------------------------
# Windows and splits


def sliding_windows(seq, window, stride=1):
    """All length-T windows in order; each sample targets its last frame's mask."""
    if window > len(seq):
        raise DataError(f"window {window} exceeds sequence length {len(seq)}")
    samples = []
    for end in range(window - 1, len(seq), stride):
        samples.append(SequenceSample(
            frames=seq.frames[end - window + 1:end + 1],
            target=seq.masks[end],
            sequence_id=seq.source_id,
            end_index=end,
        ))
    return samples


def split_train_test(sequences, fraction, window, stride=1):
    """Temporal per-sequence split: the first `fraction` of each sequence's
    windows go to train, the rest to test. No shuffling across time."""
    if not 0 < fraction < 1:
        raise DataError(f"fraction must be in (0, 1), got {fraction}")
    train = []
    test = []
    for seq in sequences:
        windows = sliding_windows(seq, window, stride)
        k = int(fraction * len(windows))
        if k < 1 or k >= len(windows):
            raise DataError(
                f"sequence {seq.source_id!r} too short to split at {fraction}")
        train.extend(windows[:k])
        test.extend(windows[k:])
    return train, test


# ---------------------------------------------------------------------------
# Dataset manifest


@dataclass
class ManifestEntry:
    sequence_id: str
    directory: str  # relative to the manifest file
    length: int
    split: str  # train | test


def write_manifest(path, entries, mode="binary", window=3):
    doc = {
        "mode": mode,
        "window": window,
        "sequences": [
            {"id": e.sequence_id, "dir": e.directory, "length": e.length,
             "split": e.split}
            for e in entries
        ],
    }
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")
    os.replace(tmp, path)


def read_manifest(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read manifest {path}: {e}") from e
    entries = [ManifestEntry(s["id"], s["dir"], s["length"], s.get("split", "train"))
               for s in doc.get("sequences", [])]
    return doc.get("mode", "binary"), doc.get("window", 3), entries


def load_manifest_sequences(path, split=None):
    """Load sequences listed in a manifest, optionally filtered by split."""
    base = os.path.dirname(os.path.abspath(path))
    _, _, entries = read_manifest(path)
    out = []
    for e in entries:
        if split is not None and e.split != split:
            continue
        d = os.path.join(base, e.directory)
        out.append(load_frame_directory(
            os.path.join(d, "frames"), os.path.join(d, "masks"),
            source_id=e.sequence_id))
    return out


def generate_dataset(out_dir, n_sequences, length, seed, n_train=None,
                     mode="binary", window=3, digits=None, labels=None,
                     threshold=DEFAULT_THRESHOLD):
    """Generate a moving-digit dataset on disk plus its manifest.

    Deterministic for a fixed seed: per-sequence RNGs are split from the root
    seed, so the output tree is byte-identical across runs.
    """
    from .tensor import Rng

    _check_mode(mode)
    if digits is None:
        digits, labels = builtin_digits()
    os.makedirs(out_dir, exist_ok=True)
    root = Rng(seed)
    rngs = root.split(max(n_sequences, 1))
    if n_train is None:
        n_train = int(round(0.7 * n_sequences))
    entries = []
    for i in range(n_sequences):
        sid = f"seq_{i:05d}"
        seq = gen_moving_mnist(digits, labels, None, length, rngs[i], mode=mode,
                               threshold=threshold, source_id=sid)
        save_sequence(seq, os.path.join(out_dir, sid))
        entries.append(ManifestEntry(
            sid, sid, length, "train" if i < n_train else "test"))
    manifest = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest, entries, mode=mode, window=window)
    return manifest

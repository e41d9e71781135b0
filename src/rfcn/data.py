"""Moving-MNIST synthesis, MNIST IDX ingestion, PGM/PPM datasets, and
sliding-window sampling.

Sequences are synthesized by translating a digit image with a constant
per-sequence velocity (sub-pixel bilinear sampling); segmentation labels are
the thresholded frames, so labels stay consistent with the imagery by
construction.
"""

import json
import math
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .tensor import Rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

DEFAULT_THRESHOLD = 0.5
DEFAULT_MAX_OFFSET = 8.0


@dataclass
class VideoSequence:
    frames: list  # CHW FRAME_DTYPE pixels, or floats in [0, 1]
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


# ---------------------------------------------------------------------------
# MNIST IDX


def _read_idx(path, magic, rank):
    """An IDX file's uint8 payload, shaped by the rank big-endian uint32 dims
    its header gives after the magic number."""
    with open(path, "rb") as f:
        header = f.read(4 * (rank + 1))
        if len(header) != 4 * (rank + 1):
            raise DataError(f"{path}: truncated IDX header")
        found, *dims = struct.unpack(f">{rank + 1}I", header)
        if found != magic:
            raise DataError(f"{path}: bad IDX magic 0x{found:08x}, expected 0x{magic:08x}")
        n = math.prod(dims)
        # a corrupt header cannot make the read ask for more than the file holds
        raw = f.read(min(n, os.fstat(f.fileno()).st_size))
    if len(raw) != n:
        raise DataError(f"{path}: truncated IDX payload")
    return np.frombuffer(raw, dtype=np.uint8).reshape(dims)


def load_mnist_idx(images_path, labels_path):
    """Load an IDX image/label pair; pixels scaled to [0, 1].

    Returns (images (N, rows, cols) float32, labels (N,) int), with N, rows
    and cols as the files' headers give them.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if len(images) != len(labels):
        raise DataError(f"image count {len(images)} != label count {len(labels)}")
    return images.astype(np.float32) / 255.0, labels.astype(np.int64)


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


def sample_motion(rng):
    """A (dx, dy) velocity: uniform direction, speed uniform in [0.5, 2]
    px/frame."""
    angle = rng.uniform(0, 2 * np.pi)
    speed = rng.uniform(0.5, 2.0)
    return speed * np.cos(angle), speed * np.sin(angle)


MASK_MODES = ("binary", "semantic")


def _check_mode(mode):
    if mode not in MASK_MODES:
        raise DataError(f"mask mode must be one of {MASK_MODES}, got {mode!r}")


def gen_moving_mnist(digits, labels, velocity, length, rng, mode="binary",
                     max_offset=DEFAULT_MAX_OFFSET, source_id=""):
    """Synthesize one sequence by translating a randomly chosen digit with a
    constant (dx, dy) velocity (sample_motion's when None) that bounces off
    the offset bounds; masks are the frames thresholded at
    DEFAULT_THRESHOLD.

    mode="binary" labels foreground as class 1; mode="semantic" labels it as
    digit class + 1, which must fit a mask (at most MAX_CLASS_ID).
    """
    digits = np.asarray(digits)
    if digits.ndim != 3 or digits.size == 0:
        raise DataError(f"digit set must be a non-empty (N, H, W) array, got {digits.shape}")
    if length < 1:
        raise DataError("sequence length must be >= 1")
    _check_mode(mode)
    if mode == "semantic" and int(np.max(labels)) + 1 > MAX_CLASS_ID:
        raise DataError(f"digit label {int(np.max(labels))} has class id above "
                        f"{MAX_CLASS_ID}, the largest a mask holds")
    idx = int(rng.integers(digits.shape[0]))
    base = digits[idx]
    cls = 1 if mode == "binary" else int(labels[idx]) + 1
    dx, dy = sample_motion(rng) if velocity is None else velocity
    ox = rng.uniform(-max_offset, max_offset)
    oy = rng.uniform(-max_offset, max_offset)
    frames = []
    masks = []
    for _ in range(length):
        frame = bilinear_translate(base, oy, ox).astype(np.float32)
        frames.append(frame[None])
        masks.append(np.where(frame > DEFAULT_THRESHOLD, cls, 0).astype(MASK_DTYPE))
        ox, dx = _advance(ox, dx, max_offset)
        oy, dy = _advance(oy, dy, max_offset)
    return VideoSequence(frames, masks, source_id=source_id)


def _advance(pos, vel, bound):
    pos = pos + vel
    # a range of zero width has no walls to bounce between: pin the position
    if bound <= 0:
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

FRAME_DTYPE = np.uint8
"""The dtype of every frame the library loads: (C, H, W) pixels as the
8-bit PGM/PPM file holds them, scaled to [0, 1] only at the network input
(frame_values)."""


def frame_values(frame):
    """The network's view of a frame: a FRAME_DTYPE frame scaled to float32
    in [0, 1], or a float frame unchanged. The scale is float32 whatever the
    model's dtype, so a float64 model sees the values a float32 one does."""
    if frame.dtype == FRAME_DTYPE:
        return frame.astype(np.float32) / 255.0
    return frame


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


def _read_netpbm(path, magics):
    """An 8-bit binary netpbm file whose magic number is one of magics, as a
    read-only (C, H, W) uint8 view of its bytes: one channel for P5, three
    for P6."""
    with open(path, "rb") as f:
        data = f.read()
    m = re.match(rb"(P[56])\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s", data)
    if not m or m.group(1).decode() not in magics:
        raise DataError(f"{path}: not a binary {' or '.join(magics)} file")
    w, h, maxval = (int(m.group(i)) for i in (2, 3, 4))
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported")
    depth = 1 if m.group(1) == b"P5" else 3
    raw = data[m.end():]
    if len(raw) < w * h * depth:
        raise DataError(f"{path}: truncated pixel data")
    arr = np.frombuffer(raw[:w * h * depth], dtype=np.uint8)
    return np.transpose(arr.reshape(h, w, depth), (2, 0, 1))


def read_pgm(path):
    return _read_netpbm(path, ("P5",))[0]


def read_frame(path):
    """One frame file as an owned, writable, C-contiguous (C, H, W)
    FRAME_DTYPE array: its magic number decides, P5 grey or P6 RGB,
    whatever the file is named."""
    pixels = _read_netpbm(path, ("P5", "P6"))
    # a copy: the reader returns a read-only view of the file's bytes
    return np.array(pixels, dtype=FRAME_DTYPE, order="C")


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
# Windows


def sliding_windows(seq, window):
    """All length-T windows in order; each sample targets its last frame's mask."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    if window > len(seq):
        raise DataError(f"window {window} exceeds sequence length {len(seq)}")
    return [SequenceSample(frames=seq.frames[end - window + 1:end + 1],
                           target=seq.masks[end])
            for end in range(window - 1, len(seq))]


# ---------------------------------------------------------------------------
# Dataset manifest


@dataclass
class ManifestEntry:
    sequence_id: str
    directory: str  # relative to the manifest file
    length: int
    split: str  # train | test


def write_manifest(path, entries, mode="binary"):
    doc = {
        "mode": mode,
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


SPLITS = ("train", "test")


def _manifest_entry(path, i, s):
    """Entry i of a manifest's "sequences", checked field by field; a
    missing "split" means train."""
    if not isinstance(s, dict):
        raise DataError(f"manifest {path}: sequence {i} is not an object")
    for key in ("id", "dir"):
        if not isinstance(s.get(key), str):
            raise DataError(f"manifest {path}: sequence {i} needs a string {key!r}")
    length = s.get("length")
    if isinstance(length, bool) or not isinstance(length, int) or length < 0:
        raise DataError(f"manifest {path}: sequence {i} needs a non-negative "
                        f"integer 'length', got {length!r}")
    split = s.get("split", "train")
    if split not in SPLITS:
        raise DataError(f"manifest {path}: sequence {i} split must be one of "
                        f"{SPLITS}, got {split!r}")
    return ManifestEntry(s["id"], s["dir"], length, split)


def read_manifest(path):
    """The entries of a manifest. Keys it does not use are ignored: the
    "mode" writers keep as a record of how the masks were made, and the
    "window" older manifests hold."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:  # bad JSON or not UTF-8
        raise DataError(f"cannot read manifest {path}: {e}") from e
    if not isinstance(doc, dict):
        raise DataError(f"manifest {path} must be a JSON object")
    sequences = doc.get("sequences")
    if not isinstance(sequences, list):
        raise DataError(f"manifest {path}: 'sequences' must be a list")
    return [_manifest_entry(path, i, s) for i, s in enumerate(sequences)]


def load_manifest_sequences(path, split=None):
    """Load sequences listed in a manifest, optionally filtered by split;
    each must hold as many frames as its entry's length says."""
    base = os.path.dirname(os.path.abspath(path))
    out = []
    for e in read_manifest(path):
        if split is not None and e.split != split:
            continue
        d = os.path.join(base, e.directory)
        seq = load_frame_directory(os.path.join(d, "frames"), os.path.join(d, "masks"),
                                   source_id=e.sequence_id)
        if len(seq) != e.length:
            raise DataError(f"manifest {path}: sequence {e.sequence_id!r} holds "
                            f"{len(seq)} frames, its entry says {e.length}")
        out.append(seq)
    return out


def generate_dataset(out_dir, n_sequences, length, seed, n_train=None,
                     mode="binary", digits=None, labels=None):
    """Generate a moving-digit dataset on disk plus its manifest.

    Deterministic for a fixed seed: per-sequence RNGs are spawned from the
    root seed, so the output tree is byte-identical across runs. Counts out
    of range (fewer than one sequence or frame, n_train outside
    0..n_sequences) are a ConfigError raised before out_dir is made.
    """
    _check_mode(mode)
    if n_train is None:
        n_train = int(round(0.7 * n_sequences))
    if n_sequences < 1 or length < 1:
        raise ConfigError(f"need at least one sequence of at least one frame, "
                          f"got {n_sequences} of {length}")
    if not 0 <= n_train <= n_sequences:
        raise ConfigError(f"training sequences must be in 0..{n_sequences}, "
                          f"got {n_train}")
    if digits is None:
        digits, labels = builtin_digits()
    os.makedirs(out_dir, exist_ok=True)
    rngs = Rng(seed).spawn(n_sequences)
    entries = []
    for i in range(n_sequences):
        sid = f"seq_{i:05d}"
        seq = gen_moving_mnist(digits, labels, None, length, rngs[i], mode=mode,
                               source_id=sid)
        save_sequence(seq, os.path.join(out_dir, sid))
        entries.append(ManifestEntry(
            sid, sid, length, "train" if i < n_train else "test"))
    manifest = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest, entries, mode=mode)
    return manifest

"""Seeded input generation for the benchmark workloads.

Everything here depends only on numpy and the seed: the program under test
receives the files this module writes (binary PGM/PPM frames and masks, a
manifest, and for the segmentation workload a checkpoint), never the
generator's arrays.
"""

import json
import os

import numpy as np

# 5x7 digit bitmaps, one string per row.
FONT_5X7 = (
    ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    ("01110", "10001", "00001", "00110", "01000", "10000", "11111"),
    ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
)

# Colours of the four foreground classes of the segmentation workload.
CLASS_COLOURS = np.array([[0.9, 0.2, 0.2], [0.2, 0.9, 0.2],
                          [0.25, 0.35, 0.95], [0.9, 0.85, 0.2]], dtype=np.float32)


def glyph(digit, scale):
    """Boolean (7*scale, 5*scale) bitmap of one digit, nearest-neighbour scaled."""
    bitmap = np.array([[c == "1" for c in row] for row in FONT_5X7[digit]])
    return np.kron(bitmap, np.ones((scale, scale), dtype=bool))


def _track(rng, length, canvas, size, max_speed):
    """Integer top-left positions of a box bouncing inside the canvas."""
    span = np.array(canvas) - np.array(size)
    pos = rng.uniform(0, 1, 2) * span
    vel = rng.uniform(-max_speed, max_speed, 2)
    out = []
    for _ in range(length):
        out.append(np.round(pos).astype(int))
        pos = pos + vel
        for d in range(2):
            if pos[d] < 0 or pos[d] > span[d]:
                vel[d] = -vel[d]
                pos[d] = np.clip(pos[d], 0, span[d])
    return out


def moving_digit_sequence(rng, length, canvas, scale, max_speed, noise):
    """One grey sequence: a bright digit moving over a noisy dark background.

    Returns (frames (T, 1, H, W) float32 in [0, 1], masks (T, H, W) uint8)."""
    g = glyph(int(rng.integers(0, 10)), scale)
    h, w = canvas
    frames = rng.uniform(0.0, noise, (length, 1, h, w)).astype(np.float32)
    masks = np.zeros((length, h, w), dtype=np.uint8)
    level = rng.uniform(0.7, 1.0)
    for t, (y, x) in enumerate(_track(rng, length, canvas, g.shape, max_speed)):
        region = (slice(y, y + g.shape[0]), slice(x, x + g.shape[1]))
        frames[t, 0][region][g] = level
        masks[t][region][g] = 1
    return frames, masks


def coloured_objects_sequence(rng, length, canvas, scale, max_speed, n_objects):
    """One colour sequence: digits of up to four classes, each in its class
    colour, moving and occluding one another. Mask pixel = class id (0 is
    background)."""
    h, w = canvas
    frames = rng.uniform(0.0, 0.2, (length, 3, h, w)).astype(np.float32)
    masks = np.zeros((length, h, w), dtype=np.uint8)
    classes = rng.permutation(len(CLASS_COLOURS))[:n_objects] + 1
    for cls in classes:
        g = glyph(int(rng.integers(0, 10)), scale)
        colour = CLASS_COLOURS[cls - 1]
        for t, (y, x) in enumerate(_track(rng, length, canvas, g.shape, max_speed)):
            region = (slice(y, y + g.shape[0]), slice(x, x + g.shape[1]))
            for c in range(3):
                frames[t, c][region][g] = colour[c]
            masks[t][region][g] = cls
    return frames, masks


def _write_netpbm(path, data):
    """Binary PGM for (H, W), binary PPM for (3, H, W); floats in [0, 1]."""
    if data.dtype.kind == "f":
        data = np.clip(np.round(data * 255), 0, 255).astype(np.uint8)
    if data.ndim == 2:
        header, pixels = b"P5\n%d %d\n255\n" % (data.shape[1], data.shape[0]), data
    else:
        header = b"P6\n%d %d\n255\n" % (data.shape[2], data.shape[1])
        pixels = np.transpose(data, (1, 2, 0))
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(pixels).tobytes())


def write_sequence(directory, frames, masks):
    fdir = os.path.join(directory, "frames")
    mdir = os.path.join(directory, "masks")
    os.makedirs(fdir)
    os.makedirs(mdir)
    for t, (frame, mask) in enumerate(zip(frames, masks)):
        ext = "pgm" if frame.shape[0] == 1 else "ppm"
        _write_netpbm(os.path.join(fdir, f"frame_{t:04d}.{ext}"),
                      frame[0] if frame.shape[0] == 1 else frame)
        _write_netpbm(os.path.join(mdir, f"mask_{t:04d}.pgm"), mask)


def write_dataset(out_dir, rng, spec, window):
    """Write the sequences of a workload's data spec and their manifest;
    returns the manifest path.

    spec maps "train" and "test" to (sequence count, frames per sequence) and
    holds the generator's settings; see workloads.WORKLOADS."""
    os.makedirs(out_dir)
    entries = []
    for split in ("train", "test"):
        count, length = spec[split]
        for _ in range(count):
            sid = f"seq_{len(entries):04d}"
            if spec["kind"] == "grey":
                frames, masks = moving_digit_sequence(
                    rng, length, spec["canvas"], spec["scale"], spec["max_speed"],
                    spec["noise"])
            else:
                frames, masks = coloured_objects_sequence(
                    rng, length, spec["canvas"], spec["scale"], spec["max_speed"],
                    spec["objects"])
            write_sequence(os.path.join(out_dir, sid), frames, masks)
            entries.append({"id": sid, "dir": sid, "length": length, "split": split})
    path = os.path.join(out_dir, "manifest.json")
    mode = "binary" if spec["kind"] == "grey" else "semantic"
    with open(path, "w") as f:
        json.dump({"mode": mode, "window": window, "sequences": entries}, f, indent=1)
    return path

"""Data pipeline tests: IDX files, sub-pixel motion, raster IO, windows,
manifests."""

import json
import os
import struct
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rfcn import data as D
from rfcn.errors import ConfigError, DataError
from rfcn.tensor import Rng


def save_mnist_idx(images_path, labels_path, images, labels):
    """Write an IDX pair (inverse of load_mnist_idx); images in [0, 1]."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", D.IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(np.clip(np.round(images * 255), 0, 255).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", D.IDX_LABELS_MAGIC, n))
        f.write(labels.astype(np.uint8).tobytes())


def test_mnist_idx_roundtrip(tmp_path):
    rng = Rng(400)
    images = rng.uniform(0, 1, (7, 28, 28)).astype(np.float32)
    labels = np.arange(7) % 10
    ip = str(tmp_path / "imgs.idx")
    lp = str(tmp_path / "lbls.idx")
    save_mnist_idx(ip, lp, images, labels)
    back_i, back_l = D.load_mnist_idx(ip, lp)
    assert back_i.shape == (7, 28, 28)
    assert back_i.dtype == np.float32
    npt.assert_allclose(back_i, np.round(images * 255) / 255.0, atol=1e-7)
    npt.assert_array_equal(back_l, labels)


def test_mnist_idx_bad_magic(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"\x00\x00\x00\x99" + b"\x00" * 16)
    with pytest.raises(DataError):
        D.load_mnist_idx(str(p), str(p))


def test_mnist_idx_truncated(tmp_path):
    rng = Rng(401)
    ip = str(tmp_path / "imgs.idx")
    lp = str(tmp_path / "lbls.idx")
    save_mnist_idx(ip, lp, rng.uniform(0, 1, (3, 28, 28)), np.zeros(3, int))
    data = open(ip, "rb").read()
    open(ip, "wb").write(data[:-10])
    with pytest.raises(DataError):
        D.load_mnist_idx(ip, lp)
    # a header whose dims ask for more bytes than any file holds
    open(ip, "wb").write(struct.pack(">IIII", D.IDX_IMAGES_MAGIC, *[2 ** 32 - 1] * 3))
    with pytest.raises(DataError):
        D.load_mnist_idx(ip, lp)


def test_bilinear_translate_integer_shift_is_roll():
    rng = Rng(402)
    img = rng.uniform(0, 1, (10, 10))
    out = D.bilinear_translate(img, 2, -3)
    ref = np.zeros_like(img)
    ref[2:, :7] = img[:8, 3:]
    npt.assert_allclose(out, ref, atol=1e-12)


def test_bilinear_translate_fractional_shift_oracle():
    rng = Rng(403)
    img = rng.uniform(0, 1, (8, 8))
    dy, dx = 0.25, 0.5
    out = D.bilinear_translate(img, dy, dx)
    # interior pixels: direct bilinear mix of the four source neighbours
    for y in range(1, 7):
        for x in range(1, 7):
            sy, sx = y - dy, x - dx
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            fy, fx = sy - y0, sx - x0
            ref = (img[y0, x0] * (1 - fy) * (1 - fx)
                   + img[y0, x0 + 1] * (1 - fy) * fx
                   + img[y0 + 1, x0] * fy * (1 - fx)
                   + img[y0 + 1, x0 + 1] * fy * fx)
            assert out[y, x] == pytest.approx(ref, abs=1e-12)


def test_bilinear_translate_mass_conservation_away_from_border():
    img = np.zeros((12, 12))
    img[5, 5] = 1.0
    out = D.bilinear_translate(img, 0.3, 0.7)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_advance_bounce_stays_in_bounds_and_reflects():
    pos, vel = 7.5, 2.0
    for _ in range(100):
        pos, vel = D._advance(pos, vel, 8.0)
        assert -8.0 <= pos <= 8.0
    # one explicit reflection
    p, v = D._advance(7.5, 2.0, 8.0)
    assert p == pytest.approx(6.5)
    assert v == -2.0


def test_gen_moving_mnist_zero_offset_bound_returns():
    """With no room to move, a bouncing digit stays put instead of
    reflecting off the zero-width range forever."""
    digits, labels = D.builtin_digits()
    seq = D.gen_moving_mnist(digits, labels, (1.5, -0.5), 4, Rng(405), max_offset=0)
    assert len(seq) == 4
    for frame in seq.frames[1:]:
        npt.assert_array_equal(frame, seq.frames[0])


def test_gen_moving_mnist_masks_are_thresholded_frames():
    digits, labels = D.builtin_digits()
    rng = Rng(404)
    seq = D.gen_moving_mnist(digits, labels, None, 5, rng)
    assert len(seq) == 5
    for frame, mask in zip(seq.frames, seq.masks):
        assert frame.shape == (1, 28, 28)
        assert mask.dtype == D.MASK_DTYPE == np.uint8
        npt.assert_array_equal(mask, (frame[0] > 0.5).astype(np.int64))


def test_gen_moving_mnist_semantic_mode_uses_digit_class():
    digits, labels = D.builtin_digits()
    rng = Rng(405)
    seq = D.gen_moving_mnist(digits, labels, None, 3, rng, mode="semantic")
    fg = set()
    for mask in seq.masks:
        assert mask.dtype == np.uint8
        fg |= set(np.unique(mask)) - {0}
    assert len(fg) == 1
    cls = fg.pop()
    assert 1 <= cls <= 10


def test_gen_moving_mnist_semantic_rejects_class_ids_above_a_byte():
    """Class id = label + 1 must fit a uint8 mask; 256 would wrap to 0."""
    digits, _ = D.builtin_digits()
    top = D.gen_moving_mnist(digits, np.full(10, 254), None, 2, Rng(410),
                             mode="semantic")
    assert {int(v) for m in top.masks for v in np.unique(m)} == {0, 255}
    with pytest.raises(DataError):
        D.gen_moving_mnist(digits, np.full(10, 255), None, 2, Rng(410),
                           mode="semantic")


def test_gen_moving_mnist_rejects_an_empty_digit_set():
    """No digits, 0x0 digits (as an IDX header of 0 rows and 0 cols gives)
    and digits of the wrong rank draw no sequence."""
    for shape in ((0, 28, 28), (2, 0, 0), (2, 28, 0), (2, 28)):
        with pytest.raises(DataError):
            D.gen_moving_mnist(np.zeros(shape), np.zeros(2, int), None, 2, Rng(411))


def test_unknown_mask_mode_is_data_error(tmp_path):
    """Only "binary" and "semantic" name a labelling; a near miss such as
    "Binary" must not fall through to the semantic one."""
    digits, labels = D.builtin_digits()
    for mode in ("Binary", "instance", ""):
        with pytest.raises(DataError):
            D.gen_moving_mnist(digits, labels, None, 2, Rng(411), mode=mode)
        out = tmp_path / f"set{mode}"
        with pytest.raises(DataError):
            D.generate_dataset(str(out), 2, 2, seed=0, mode=mode)
        assert not out.exists()


def test_pgm_ppm_roundtrip(tmp_path):
    rng = Rng(406)
    gray = (rng.uniform(0, 1, (9, 7)) * 255).astype(np.uint8)
    p = str(tmp_path / "img.pgm")
    D.write_pgm(p, gray)
    npt.assert_array_equal(D.read_pgm(p), gray)
    color = (rng.uniform(0, 1, (3, 5, 6)) * 255).astype(np.uint8)
    p2 = str(tmp_path / "img.ppm")
    D.write_ppm(p2, color)
    npt.assert_array_equal(D.read_frame(p2), color)


def test_write_pgm_rejects_integers_outside_a_byte(tmp_path):
    p = str(tmp_path / "m.pgm")
    ids = np.array([[0, 1], [200, 255]], dtype=np.int64)
    D.write_pgm(p, ids)
    npt.assert_array_equal(D.read_pgm(p), ids)
    for bad in (256, -1, 300):
        with pytest.raises(DataError):
            D.write_pgm(p, np.array([[0, bad]]))


def test_write_ppm_writes_one_byte_per_sample(tmp_path):
    """Integer input is range-checked and cast to bytes as write_pgm does,
    so the file matches its 8-bit header."""
    p = str(tmp_path / "c.ppm")
    sevens = np.full((3, 2, 2), 7, dtype=np.int64)
    D.write_ppm(p, sevens)
    assert os.path.getsize(p) == len(b"P6\n2 2\n255\n") + sevens.size
    npt.assert_array_equal(D.read_frame(p), sevens)
    for bad in (300, -1):
        with pytest.raises(DataError):
            D.write_ppm(p, np.full((3, 2, 2), bad, dtype=np.int64))


def test_read_frame_decodes_by_magic_number_not_by_name(tmp_path):
    """A P6 file named .PPM or .pnm and a P5 file named .ppm read as what
    they hold; a mask must still be a P5 file."""
    rng = np.random.default_rng(413)
    colour = rng.integers(0, 256, (3, 4, 5), dtype=np.uint8)
    grey = rng.integers(0, 256, (4, 5), dtype=np.uint8)
    for name, write, pixels in (("x.PPM", D.write_ppm, colour),
                                ("x.pnm", D.write_ppm, colour),
                                ("g.ppm", D.write_pgm, grey)):
        p = str(tmp_path / name)
        write(p, pixels)
        frame = D.read_frame(p)
        assert frame.flags.owndata and frame.flags.c_contiguous, name
        npt.assert_array_equal(frame, pixels.reshape((-1, 4, 5)), err_msg=name)
    with pytest.raises(DataError):
        D.read_pgm(str(tmp_path / "x.pnm"))


def test_read_pgm_rejects_garbage(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"not a pgm at all")
    with pytest.raises(DataError):
        D.read_pgm(str(p))


def test_save_load_sequence_roundtrip(tmp_path):
    digits, labels = D.builtin_digits()
    seq = D.gen_moving_mnist(digits, labels, None, 4, Rng(407))
    d = str(tmp_path / "seq")
    D.save_sequence(seq, d)
    back = D.load_frame_directory(d + "/frames", d + "/masks", source_id="s")
    assert len(back) == 4
    for f1, f2 in zip(seq.frames, back.frames):
        assert np.abs(f1 - D.frame_values(f2)).max() <= 1 / 255 + 1e-7
    for m1, m2 in zip(seq.masks, back.masks):
        npt.assert_array_equal(m1, m2)
    # owned and writable, not read-only views of the files' bytes
    for a in back.frames + back.masks:
        assert a.dtype == np.uint8
        assert a.flags.owndata and a.flags.writeable


def test_load_frame_directory_keeps_owned_contiguous_pixels(tmp_path):
    """Frames load as the file's bytes: an owned, writable, C-contiguous
    (C, H, W) uint8 array, for a grey PGM and an RGB PPM sequence (a PPM's
    samples are interleaved in the file, planar in the frame)."""
    rng = np.random.default_rng(412)
    for channels in (1, 3):
        pixels = rng.integers(0, 256, (2, channels, 5, 7), dtype=np.uint8)
        seq = D.VideoSequence(list(pixels), list(pixels[:, 0] % 2))
        d = str(tmp_path / f"c{channels}")
        D.save_sequence(seq, d)
        back = D.load_frame_directory(d + "/frames", d + "/masks")
        for want, frame in zip(pixels, back.frames):
            assert frame.dtype == D.FRAME_DTYPE == np.uint8, channels
            assert frame.flags.owndata and frame.flags.writeable, channels
            assert frame.flags.c_contiguous, channels
            npt.assert_array_equal(frame, want)


def test_frame_values_of_every_level_is_the_float_frame_bitwise(tmp_path):
    """frame_values scales each 8-bit level exactly as frames were once
    loaded (float32, then / 255.0), and leaves float frames as they are."""
    levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    p = str(tmp_path / "levels.pgm")
    D.write_pgm(p, levels)
    got = D.frame_values(D.read_frame(p))
    want = np.array([[[np.float32(v) / np.float32(255.0) for v in row]
                      for row in levels]], dtype=np.float32)
    assert got.dtype == np.float32 and got.shape == (1, 16, 16)
    assert got.tobytes() == want.tobytes()
    for floats in (want, want.astype(np.float64)):
        assert D.frame_values(floats) is floats


@st.composite
def mask_sequences(draw):
    """A short sequence of 1- or 3-channel frames on the 8-bit grid, with
    masks of arbitrary class ids 0-255."""
    length = draw(st.integers(1, 3))
    channels = draw(st.sampled_from((1, 3)))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pixels = draw(arrays(np.uint8, (length, channels, h, w)))
    masks = draw(arrays(np.uint8, (length, h, w)))
    frames = [(f / 255.0).astype(np.float32) for f in pixels]
    return D.VideoSequence(frames, list(masks))


@given(mask_sequences())
def test_save_load_sequence_roundtrips_masks_bitwise(seq):
    with tempfile.TemporaryDirectory() as d:
        D.save_sequence(seq, d)
        back = D.load_frame_directory(os.path.join(d, "frames"),
                                      os.path.join(d, "masks"))
    assert len(back) == len(seq)
    for f1, f2, m1, m2 in zip(seq.frames, back.frames, seq.masks, back.masks):
        assert f2.dtype == np.uint8
        assert f2.flags.owndata and f2.flags.writeable
        npt.assert_array_equal(D.frame_values(f2), f1)
        assert m2.dtype == np.uint8
        npt.assert_array_equal(m2, m1)


def test_sliding_windows_targets_last_frame():
    digits, labels = D.builtin_digits()
    seq = D.gen_moving_mnist(digits, labels, None, 6, Rng(408))
    samples = D.sliding_windows(seq, 3)
    assert len(samples) == 4
    for end, s in enumerate(samples, start=2):
        assert len(s.frames) == 3
        npt.assert_array_equal(s.target, seq.masks[end])
        assert s.frames[-1] is seq.frames[end]
    with pytest.raises(DataError):
        D.sliding_windows(seq, 7)
    for window in (0, -2):
        with pytest.raises(ConfigError):
            D.sliding_windows(seq, window)


def test_generate_dataset_manifest_and_determinism(tmp_path):
    d1 = str(tmp_path / "a")
    d2 = str(tmp_path / "b")
    m1 = D.generate_dataset(d1, 4, 3, seed=9, n_train=3)
    m2 = D.generate_dataset(d2, 4, 3, seed=9, n_train=3)
    entries = D.read_manifest(m1)
    # the mask mode stays in the file as a record; no reader needs it
    assert json.load(open(m1))["mode"] == "binary"
    assert [e.split for e in entries] == ["train"] * 3 + ["test"]
    # byte-identical regeneration
    for e in entries:
        b1 = open(f"{d1}/{e.directory}/frames/frame_0000.pgm", "rb").read()
        b2 = open(f"{d2}/{e.directory}/frames/frame_0000.pgm", "rb").read()
        assert b1 == b2
    train = D.load_manifest_sequences(m1, split="train")
    test = D.load_manifest_sequences(m1, split="test")
    assert len(train) == 3 and len(test) == 1
    # a manifest still holding the "window" key gen-data once wrote loads
    doc = json.load(open(m1))
    assert "window" not in doc
    with open(m1, "w") as f:
        json.dump(dict(doc, window=5), f)
    assert D.read_manifest(m1) == entries


def test_manifest_length_must_match_the_sequence(tmp_path):
    """A sequence directory that holds another number of frames than its
    entry's length, such as a truncated copy, is a DataError."""
    m = D.generate_dataset(str(tmp_path / "d"), 2, 4, seed=3, n_train=1)
    assert [len(s) for s in D.load_manifest_sequences(m)] == [4, 4]
    doc = json.load(open(m))
    doc["sequences"][1]["length"] = 5
    json.dump(doc, open(m, "w"))
    assert len(D.load_manifest_sequences(m, split="train")) == 1
    with pytest.raises(DataError, match="seq_00001.*4 frames.*says 5"):
        D.load_manifest_sequences(m)
    doc["sequences"][1]["length"] = 4
    json.dump(doc, open(m, "w"))
    seq_dir = tmp_path / "d" / doc["sequences"][0]["dir"]
    for sub, name in (("frames", "frame_0003.pgm"), ("masks", "mask_0003.pgm")):
        os.remove(seq_dir / sub / name)
    with pytest.raises(DataError, match="seq_00000.*3 frames.*says 4"):
        D.load_manifest_sequences(m, split="train")

"""Model tests: shape checking, presets, the window executor, streaming,
and checkpoint serialization."""

import hashlib
import itertools
import json
import struct
from collections import OrderedDict
from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rfcn import cells
from rfcn.data import frame_values
from rfcn.errors import CheckpointError, ConfigError, DataError, ShapeError
from rfcn.model import (LAYER_KINDS, ArchitectureConfig, LayerSpec, ModelInstance,
                        PRESET_NAMES, RecurrentSpec, SkipLink, _layer_backward,
                        _layer_forward, _layer_output_shape, backward_window,
                        forward_stream, forward_window, forward_windows, init_model,
                        load_checkpoint, load_matching, preset,
                        save_checkpoint, shape_check)
from rfcn.tensor import Rng


# cell kind (None: no cell) -> (recurrent node, pre-chain tail, post chain)
SMALL_NETS = {
    "gru": (RecurrentSpec("gru", hidden=64), [LayerSpec("flatten")],
            [LayerSpec("unflatten", target_shape=(1, 8, 8))]),
    "lstm": (RecurrentSpec("lstm", hidden=64), [LayerSpec("flatten")],
             [LayerSpec("unflatten", target_shape=(1, 8, 8))]),
    "conv_gru": (RecurrentSpec("conv_gru", hidden=2, kernel=3), [],
                 [LayerSpec("conv1x1", depth=1)]),
    None: (None, [], [LayerSpec("conv1x1", depth=1)]),
}


def small_config(window=3, kind="gru"):
    recurrent, tail, post = SMALL_NETS[kind]
    return ArchitectureConfig(
        name="small", input_shape=(1, 8, 8), num_classes=1, window=window,
        pre=[LayerSpec("conv", size=3, pad=1, depth=3),
             LayerSpec("relu")] + tail,
        recurrent=recurrent, post=post,
    )


def test_all_presets_shape_check_at_declared_sizes():
    for name in PRESET_NAMES:
        cfg = preset(name)
        report = shape_check(cfg)
        assert report.output_shape[1:] == cfg.input_shape[1:]
        assert report.output_shape[0] == cfg.num_classes


# sha256 of each preset's config JSON, which every checkpoint of it embeds
PRESET_SHA256 = {
    "fc-lenet": "d0bc389f98876dabf5adfea28562d989fe9029f776666097a130250b4e1fa503",
    "rfc-lenet": "d441e50c72f17d72ffd72ffd088929c30cef7294e8ac03ec42b7182f593d8e9f",
    "fc-12s": "7405d7023af2a4d55d256515fe7d0ed4b4a9747ea1cef96117318b61709c9604",
    "rfc-12s": "1a3a1dec2fdf765c609741b4caffff61aa8b68ed6b0d6b1e5e86d8ad65d7456f",
    "rfc-vgg": "7c3754b83d10194adb10aaee76dea43099a807b6e1019ff60947f47b0000e56b",
    "rfcn-8s-sketch": "83d91e9d86314adf5dc279cd3897e4850745d5fe5b66dd247d6af520f7ce3389",
}


def test_every_preset_architecture_is_pinned():
    """A preset's JSON is part of every checkpoint of it: it may not drift.
    Each call builds fresh specs, so changing one config leaves the next."""
    assert tuple(PRESET_SHA256) == PRESET_NAMES
    for name in PRESET_NAMES:
        cfg = preset(name)
        assert hashlib.sha256(cfg.to_json().encode()).hexdigest() == PRESET_SHA256[name]
        cfg.pre[0].depth += 1
    assert preset("rfc-12s", window=5).window == 5


def test_rfc_lenet_recurrent_vector_is_784():
    report = shape_check(preset("rfc-lenet"))
    assert report.recurrent_input == ("chw", (784, 1, 1))
    assert report.param_shapes["cell.w_h"] == (784, 784)


def test_shape_check_rejects_a_dense_cell_on_a_spatial_map():
    """A dense cell takes only the (D, 1, 1) map a flatten gives: without the
    flatten it sits on the trunk's (3, 8, 8) map, and the error names it."""
    for kind in ("gru", "lstm"):
        cfg = small_config(kind=kind)
        shape_check(cfg)
        cfg.pre = cfg.pre[:-1]
        with pytest.raises(ConfigError, match=rf"a {kind} cell needs a \(D, 1, 1\) input"):
            shape_check(cfg)


def test_shape_check_rejects_wrong_output_channels():
    cfg = small_config()
    cfg.num_classes = 3
    with pytest.raises(ConfigError):
        shape_check(cfg)


def classes_model(n):
    """A 1x1-conv net scoring n classes, built without shape_check."""
    cfg = ArchitectureConfig(
        name="classes", input_shape=(1, 4, 4), num_classes=n, window=1,
        pre=[LayerSpec("conv1x1", depth=n)], recurrent=None, post=[])
    params = OrderedDict((("pre.0.conv1x1.weights", np.zeros((n, 1, 1, 1), np.float32)),
                          ("pre.0.conv1x1.bias", np.zeros(n, np.float32))))
    return ModelInstance(cfg, params)


def test_shape_check_rejects_more_classes_than_a_mask_holds():
    """Class ids 0-255 fit a uint8 mask; a 257th class would wrap to 0."""
    ok = classes_model(256)
    assert dict(shape_check(ok.config).param_shapes) == \
        {k: v.shape for k, v in ok.params.items()}
    with pytest.raises(ConfigError):
        shape_check(classes_model(257).config)


def test_checkpoint_with_too_many_classes_is_checkpoint_error(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(classes_model(256), path)
    assert load_checkpoint(path).config.num_classes == 256
    save_checkpoint(classes_model(257), path)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_shape_check_rejects_spatial_mismatch():
    cfg = small_config()
    cfg.post = [LayerSpec("unflatten", target_shape=(1, 4, 16))]
    with pytest.raises(ConfigError):
        shape_check(cfg)


def test_shape_check_rejects_backward_skip_link():
    cfg = preset("rfcn-8s-sketch")
    cfg.skip_links = [SkipLink(source=7, target=0)]
    with pytest.raises(ConfigError):
        shape_check(cfg)


def test_config_json_roundtrip():
    cfg = preset("rfc-12s")
    back = ArchitectureConfig.from_json(cfg.to_json())
    assert back.to_json() == cfg.to_json()
    # canonical form: sorted keys, no whitespace
    assert json.loads(cfg.to_json())["name"] == "rfc-12s"
    assert " " not in cfg.to_json().split('"name"')[0]


def test_config_from_json_rejects_malformed_configs_at_any_level():
    """from_json is the one judge of a malformed config: each of these is a
    ConfigError, not a KeyError, a TypeError or a silently dropped key."""
    good = json.loads(preset("rfcn-8s-sketch").to_json())
    edits = (lambda d: d.update(pre=5),
             lambda d: d.update(input_shape=[3, "96", 96]),
             lambda d: d.update(num_classes=True),
             lambda d: d.update(recurrent=[]),
             lambda d: d["recurrent"].update(kernal=3),
             lambda d: d["recurrent"].pop("hidden"),
             lambda d: d["recurrent"].update(kind=["gru"]),
             lambda d: d["post"][1].update(depth=128.0),
             lambda d: d["pre"][0].update(pad=-1),
             lambda d: d["post"].append("relu"),
             lambda d: d["skip_links"][0].pop("target"),
             lambda d: d["skip_links"][0].update(source="0"))
    for edit in edits:
        d = json.loads(json.dumps(good))
        edit(d)
        with pytest.raises(ConfigError):
            ArchitectureConfig.from_json(json.dumps(d))
        with pytest.raises(ConfigError):
            ArchitectureConfig.from_json(json.dumps(d).encode("utf-8"))
    for text in ("", "{", b"\xff", "null", '"rfc-12s"'):
        with pytest.raises(ConfigError):
            ArchitectureConfig.from_json(text)


counts = st.integers(0, 4)
layer_specs = st.builds(LayerSpec, st.sampled_from(LAYER_KINDS), size=counts,
                        stride=counts, pad=counts, depth=counts,
                        target_shape=st.none() | st.lists(counts, max_size=3).map(tuple))


@st.composite
def cell_specs(draw):
    """A recurrent spec its kind accepts, any field of it off its default."""
    kind = draw(st.sampled_from(sorted(cells.CELLS)))
    cell = cells.CELLS[kind]
    kernel = 0 if cell.dense else draw(st.sampled_from((1, 3, 5)))
    return RecurrentSpec(kind, hidden=draw(st.integers(1, 9)), kernel=kernel,
                         candidate_activation=draw(st.sampled_from(cell.candidates)))


@given(st.lists(layer_specs, max_size=4), st.none() | cell_specs(),
       st.lists(layer_specs, max_size=4), st.lists(st.builds(SkipLink, counts, counts),
                                                   max_size=2), counts)
def test_config_json_roundtrips_and_names_only_fields_off_their_defaults(
        pre, rec, post, links, window):
    """A config's JSON loads back as an equal config, and each layer, cell
    and skip spec in it names exactly its fields that differ from their
    defaults (a field with no default always differs)."""
    cfg = ArchitectureConfig("drawn", (1, 2, 3), 2, pre, post, rec, links, window)
    doc = json.loads(cfg.to_json())
    assert ArchitectureConfig.from_json(cfg.to_json()) == cfg
    cell = [(rec, doc["recurrent"])] if rec else []
    for spec, d in cell + list(zip(pre + post + links,
                                   doc["pre"] + doc["post"] + doc["skip_links"],
                                   strict=True)):
        defaults = {f.name: f.default for f in fields(spec)}
        assert set(d) == {k for k, v in vars(spec).items() if v != defaults[k]}, (spec, d)


def test_shape_check_rejects_an_unflatten_without_a_chw_target():
    for target in (None, (64,), (1, 1, 8, 8)):
        cfg = small_config()
        cfg.post = [LayerSpec("unflatten", target_shape=target)]
        with pytest.raises(ConfigError):
            shape_check(cfg)


@st.composite
def sliding_layers(draw):
    """A small conv, conv1x1, deconv or pool spec (stride 0 is the default)
    and a (c, h, w) input, not all of which the shape rule accepts."""
    spec = LayerSpec(draw(st.sampled_from(("conv", "conv1x1", "deconv", "pool"))),
                     size=draw(st.integers(1, 4)), stride=draw(st.integers(0, 3)),
                     pad=draw(st.integers(0, 2)), depth=draw(st.integers(1, 3)))
    return spec, (draw(st.integers(1, 3)), draw(st.integers(1, 7)), draw(st.integers(1, 7)))


@given(sliding_layers())
def test_the_shape_rule_agrees_with_the_layers(case):
    """Where _layer_output_shape accepts a spec and input, the layer run on a
    zero input of that shape, with parameters of the shapes it reports,
    returns the output shape it reports, and its backward gives the input's
    shape and one gradient of each reported parameter shape."""
    spec, dims = case
    try:
        out, pshapes = _layer_output_shape(spec, dims)
    except ConfigError:
        reject()
    params = {f"l.{k}": np.zeros(v, np.float32) for k, v in pshapes.items()}
    x = np.zeros((1,) + dims, np.float32)
    y, cache = _layer_forward(spec, params, "l", x)
    assert y.shape == (1,) + out
    grads = {}
    assert _layer_backward(spec, params, "l", np.zeros_like(y), cache, grads).shape == x.shape
    assert {k: g.shape for k, g in grads.items()} == {k: v.shape for k, v in params.items()}


def test_init_model_is_deterministic():
    m1 = init_model(small_config(), Rng(42))
    m2 = init_model(small_config(), Rng(42))
    assert list(m1.params) == list(m2.params)
    for k in m1.params:
        npt.assert_array_equal(m1.params[k], m2.params[k])


def test_init_model_biases_zero_and_deconv_bilinear():
    cfg = preset("fc-12s")
    m = init_model(cfg, Rng(0))
    for name, arr in m.params.items():
        if name.endswith(".bias"):
            assert not arr.any()
    w = m.params["post.0.deconv.weights"]
    assert w.shape == (1, 1, 12, 12)
    # even-sized bilinear kernel: peak is (1 - 0.5/factor)^2 at the 4 centre taps
    assert w.max() == pytest.approx((1 - 0.5 / 6) ** 2, abs=1e-6)
    npt.assert_allclose(w[0, 0], w[0, 0][::-1], atol=1e-7)  # symmetric


def test_forward_window_logits_shape_and_window_use():
    cfg = small_config()
    m = init_model(cfg, Rng(1))
    rng = Rng(2)
    frames = [rng.uniform(0, 1, (1, 8, 8)).astype(np.float32) for _ in range(3)]
    logits, cache = forward_window(m, frames)
    assert logits.shape == (1, 8, 8)
    assert len(cache.pre) == 3
    assert len(cache.cell) == 3
    # earlier frames influence the output through the hidden state
    frames2 = [rng.uniform(0, 1, (1, 8, 8)).astype(np.float32),
               frames[1], frames[2]]
    logits2, _ = forward_window(m, frames2)
    assert np.abs(logits - logits2).max() > 0


def test_forward_window_validates_frame_shape():
    m = init_model(small_config(), Rng(1))
    with pytest.raises(ShapeError):
        forward_window(m, [np.zeros((1, 9, 9), dtype=np.float32)])


def test_backward_window_covers_every_parameter():
    for kind in SMALL_NETS:
        m = init_model(small_config(kind=kind), Rng(3), dtype=np.float64)
        rng = Rng(4)
        frames = [rng.uniform(0, 1, (1, 8, 8)) for _ in range(3)]
        logits, cache = forward_window(m, frames)
        grads = backward_window(m, np.ones_like(logits), cache)
        assert list(grads) == list(m.params), kind
        for k, g in grads.items():
            assert g.shape == m.params[k].shape, (kind, k)
        # weight gradients are generically nonzero
        cell_grads = [g for k, g in grads.items() if k.startswith("cell.")]
        assert (kind is None) == (not cell_grads), kind
        assert kind is None or any(np.abs(g).max() > 0 for g in cell_grads), kind
        assert np.abs(grads["pre.0.conv.weights"]).max() > 0, kind


def test_backward_window_hands_over_fresh_gradients_in_param_order():
    """Each gradient is an array of its parameter's shape and dtype that
    shares memory with no parameter and no other gradient, so optimizers and
    batch sums may write into it; keys follow model.params."""
    from rfcn.gradcheck import tiny_skip_config
    configs = [small_config(kind=kind) for kind in SMALL_NETS] + [tiny_skip_config()]
    for config, dtype in itertools.product(configs, (np.float32, np.float64)):
        m = init_model(config, Rng(3), dtype=dtype)
        rng = Rng(4)
        frames = [rng.uniform(0, 1, config.input_shape) for _ in range(config.window)]
        logits, cache = forward_window(m, frames)
        grads = backward_window(m, np.ones_like(logits), cache)
        assert list(grads) == list(m.params), config.name
        arrays = list(grads.values()) + list(m.params.values())
        for i, (k, g) in enumerate(grads.items()):
            assert g.shape == m.params[k].shape and g.dtype == dtype, (config.name, k)
            assert g.flags.writeable, (config.name, k)
            for other in arrays[i + 1:]:
                assert not np.shares_memory(g, other), (config.name, k)


def test_forward_stream_first_emission_matches_window():
    for kind in SMALL_NETS:
        m = init_model(small_config(kind=kind), Rng(5))
        rng = Rng(6)
        frames = [rng.uniform(0, 1, (1, 8, 8)).astype(np.float32)
                  for _ in range(6)]
        stream = forward_stream(m, frames)
        assert [t for t, _ in stream] == [2, 3, 4, 5], kind
        # the first streamed emission saw exactly frames 0..2 from zero
        # state, the same computation as one window
        win_logits, _ = forward_window(m, frames[:3])
        assert np.array_equal(stream[0][1], win_logits), kind
        # later emissions differ when a cell carries state further back; a
        # net without a cell sees the last frame only
        win4, _ = forward_window(m, frames[3:6])
        assert np.array_equal(stream[-1][1], win4) == (kind is None), kind


def test_forward_stream_needs_enough_frames():
    m = init_model(small_config(), Rng(7))
    with pytest.raises(ShapeError):
        forward_stream(m, [np.zeros((1, 8, 8), dtype=np.float32)] * 2)


def test_forward_stream_validates_frame_shape():
    """Streaming runs the same frame checks as a window: a frame of the
    wrong size is a ShapeError wherever it sits in the sequence, for a net
    with a cell and one without."""
    good = np.zeros((1, 8, 8), dtype=np.float32)
    for kind in ("gru", "conv_gru", None):
        m = init_model(small_config(kind=kind), Rng(7))
        for bad in (np.zeros((1, 16, 16), dtype=np.float32),
                    np.zeros((3, 8, 8), dtype=np.float32)):
            for at in (0, 4):
                frames = [good] * 5
                frames[at] = bad
                with pytest.raises(ShapeError):
                    forward_stream(m, frames)


def test_forward_windows_equal_forward_window_bitwise():
    """Windows that share frame objects in every pattern the feature reuse
    must survive: two interleaved sequences, a repeated window, windows in
    reverse order, one frame object twice in a window, and equal-valued
    copies of frames already seen."""
    nets = [(f"small-{kind}", small_config(kind=kind)) for kind in SMALL_NETS]
    nets.append(("rfcn-8s-sketch", preset("rfcn-8s-sketch")))
    for name, cfg in nets:
        m = init_model(cfg, Rng(20))
        rng = Rng(21)
        a, b = ([rng.uniform(0, 1, cfg.input_shape).astype(np.float32)
                 for _ in range(5)] for _ in range(2))
        windows = [w for t in range(3) for w in (a[t:t + 3], b[t:t + 3])]
        windows += [a[1:4], a[1:4], a[2:5], a[1:4], a[0:3]]
        windows += [[a[0], a[0], a[1]], [a[1], a[0], a[0]]]
        windows += [[f.copy() for f in a[0:3]], a[0:3]]
        got = list(forward_windows(m, windows))
        assert len(got) == len(windows), name
        for i, (frames, logits) in enumerate(zip(windows, got)):
            ref, _ = forward_window(m, frames)
            assert np.array_equal(logits, ref), (name, i)


def test_forward_windows_validates_frame_shape():
    m = init_model(small_config(), Rng(1))
    good = [np.zeros((1, 8, 8), dtype=np.float32)] * 3
    for bad in ([np.zeros((1, 9, 9), dtype=np.float32)], []):
        with pytest.raises(ShapeError):
            list(forward_windows(m, [good, bad]))


def test_pixel_frames_give_the_logits_of_their_values_bitwise():
    """uint8 frames are scaled at the network input: every forward path
    gives the logits, values and dtype, it gives on frame_values of those
    frames, for a net with a cell and one without, at either model dtype."""
    rng = np.random.default_rng(30)
    pixels = [rng.integers(0, 256, (1, 8, 8), dtype=np.uint8) for _ in range(5)]
    values = [frame_values(f) for f in pixels]
    assert all(v.dtype == np.float32 for v in values)

    def runs(m, frames):
        yield forward_window(m, frames[:3])[0]
        yield from forward_windows(m, [frames[t:t + 3] for t in range(3)])
        yield from (logits for _, logits in forward_stream(m, frames))

    for kind, dtype in itertools.product(("conv_gru", None), (np.float32, np.float64)):
        m = init_model(small_config(kind=kind), Rng(31), dtype=dtype)
        got, ref = list(runs(m, pixels)), list(runs(m, values))
        assert len(got) == len(ref) == 7
        for i, (a, b) in enumerate(zip(got, ref)):
            assert a.dtype == b.dtype == dtype, (kind, dtype, i)
            assert np.array_equal(a, b), (kind, dtype, i)


def test_check_frames_rejects_frames_neither_pixels_nor_floats():
    """An int64 frame would run as floats 0-255 and a bool frame as 0/1:
    both are DataErrors, wherever they sit in the window."""
    m = init_model(small_config(), Rng(1))
    good = np.zeros((1, 8, 8), dtype=np.uint8)
    for dtype in (np.int64, np.bool_):
        for at in (0, 2):
            frames = [good] * 3
            frames[at] = np.zeros((1, 8, 8), dtype=dtype)
            with pytest.raises(DataError, match=f"frame {at} dtype"):
                forward_window(m, frames)


def test_skip_link_contributes_to_output():
    cfg = preset("rfcn-8s-sketch")
    m = init_model(cfg, Rng(8))
    rng = Rng(9)
    frames = [rng.uniform(0, 1, cfg.input_shape).astype(np.float32)
              for _ in range(cfg.window)]
    logits, _ = forward_window(m, frames)
    m.params["skip.0.score.weights"] = \
        m.params["skip.0.score.weights"] + np.float32(0.1)
    logits2, _ = forward_window(m, frames)
    assert np.abs(logits - logits2).max() > 0


def test_layer_calls_go_through_model_attributes(monkeypatch):
    """perfbench's tracer and gradcheck's kink probe rebind the layer
    functions on rfcn.model; every layer the executor runs must reach them.
    rfcn-8s-sketch over a window of 3: conv = 3 pre convs x 3 frames + 3 post
    convs + 1 skip score; deconv 2; pool = 2 x 3 + 2; relu = 3 x 3 + 2. The
    cell's convs go through rfcn.cells and are not counted here."""
    import rfcn.model as model_mod
    counts = {}

    def counted(name):
        real = getattr(model_mod, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapper

    expected = {"conv2d": 13, "deconv2d": 2, "maxpool2d": 8, "relu": 11}
    for kind in expected:
        for half in ("forward", "backward"):
            name = f"{kind}_{half}"
            monkeypatch.setattr(model_mod, name, counted(name))
    cfg = preset("rfcn-8s-sketch")
    m = init_model(cfg, Rng(18))
    rng = Rng(19)
    frames = [rng.uniform(0, 1, cfg.input_shape).astype(np.float32)
              for _ in range(cfg.window)]
    logits, cache = forward_window(m, frames)
    backward_window(m, np.ones_like(logits), cache)
    assert counts == {f"{kind}_{half}": n for kind, n in expected.items()
                      for half in ("forward", "backward")}


def test_checkpoint_roundtrip_bitwise(tmp_path):
    m = init_model(small_config(), Rng(10))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    assert back.config.to_json() == m.config.to_json()
    assert list(back.params) == list(m.params)
    for k in m.params:
        assert m.params[k].tobytes() == back.params[k].tobytes()
    # saving the loaded model reproduces the file byte for byte
    path2 = str(tmp_path / "m2.ckpt")
    save_checkpoint(back, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_checkpoint_bad_magic_fails_cleanly(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(p))


def test_checkpoint_truncation_fails_cleanly(tmp_path):
    m = init_model(small_config(), Rng(11))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(m, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_corrupted_version_fails_cleanly(tmp_path):
    m = init_model(small_config(), Rng(12))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(m, path)
    blob = bytearray(open(path, "rb").read())
    blob[4] = 0xFF  # version field
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def write_with_config(path, model, edit):
    """Save `model`, then swap its embedded config for edit(config dict)."""
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    (clen,) = struct.unpack("<I", blob[8:12])  # after magic and version
    doc = json.loads(blob[12:12 + clen])
    edit(doc)
    cfg = json.dumps(doc).encode("utf-8")
    open(path, "wb").write(blob[:8] + struct.pack("<I", len(cfg)) + cfg
                           + blob[12 + clen:])


def test_checkpoint_unknown_cell_kind_is_checkpoint_error(tmp_path):
    path = str(tmp_path / "m.ckpt")
    write_with_config(path, init_model(small_config(), Rng(15)),
                      lambda d: d["recurrent"].update(kind="rnn"))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_non_list_input_shape_is_checkpoint_error(tmp_path):
    path = str(tmp_path / "m.ckpt")
    for shape in (7, [1, 8]):
        write_with_config(path, init_model(small_config(), Rng(16)),
                          lambda d: d.update(input_shape=shape))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_checkpoint_mistyped_layer_field_is_checkpoint_error(tmp_path):
    path = str(tmp_path / "m.ckpt")
    write_with_config(path, init_model(small_config(), Rng(17)),
                      lambda d: d["pre"][0].update(size="3"))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_non_int_window_is_checkpoint_error(tmp_path):
    path = str(tmp_path / "m.ckpt")
    write_with_config(path, init_model(small_config(), Rng(20)),
                      lambda d: d.update(window="3"))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_pool_of_size_zero_is_checkpoint_error(tmp_path):
    """A pool layer whose size is lost has a zero window and stride."""
    cfg = small_config(kind=None)
    cfg.pre.append(LayerSpec("pool", size=2))
    cfg.post.append(LayerSpec("deconv", size=2, stride=2, depth=1))
    path = str(tmp_path / "m.ckpt")
    write_with_config(path, init_model(cfg, Rng(21)),
                      lambda d: d["pre"][2].pop("size"))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_name_and_trailing_bytes_are_checkpoint_errors(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(init_model(small_config(), Rng(22)), path)
    blob = open(path, "rb").read()
    (clen,) = struct.unpack("<I", blob[8:12])
    first_name = 12 + clen + 8  # after the config, tensor count and name length
    assert blob[first_name:first_name + 4] == b"pre."
    for bad in (blob[:first_name] + b"\xff" + blob[first_name + 1:], blob + b"\0"):
        open(path, "wb").write(bad)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_checkpoint_whose_dims_overflow_int64_is_checkpoint_error(tmp_path):
    """A conv of 2**31 x 2**31 x 4 x 4 weights, with a record declaring those
    dims and no data: their product overflows int64, and the config asks
    for more than a float64 array can index."""
    doc = {"name": "huge", "input_shape": [2 ** 31, 4, 4], "num_classes": 1,
           "window": 1, "pre": [{"kind": "conv", "size": 4, "depth": 2 ** 31},
                                {"kind": "deconv", "size": 4, "depth": 1}],
           "recurrent": None, "post": [], "skip_links": []}
    cfg = json.dumps(doc).encode()
    name = b"pre.0.conv.weights"
    blob = (b"RFCN" + struct.pack("<II", 1, len(cfg)) + cfg + struct.pack("<II", 1, len(name))
            + name + struct.pack("<B4I", 4, 2 ** 31, 2 ** 31, 4, 4))
    path = tmp_path / "huge.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def tiny_checkpoint():
    cfg = ArchitectureConfig(
        name="t", input_shape=(1, 6, 6), num_classes=1, window=2,
        pre=[LayerSpec("conv", size=3, pad=1, depth=2), LayerSpec("relu"),
             LayerSpec("pool", size=2)],
        recurrent=RecurrentSpec("conv_gru", hidden=2, kernel=3),
        post=[LayerSpec("conv1x1", depth=1),
              LayerSpec("deconv", size=2, stride=2, depth=1)])
    return init_model(cfg, Rng(23))


@settings(max_examples=200)
@given(st.data())
def test_checkpoint_byte_flip_or_truncation_loads_or_is_checkpoint_error(
        tmp_path_factory, data):
    """After one flipped byte or a truncation, a tiny checkpoint either loads
    or raises CheckpointError; no other exception escapes."""
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    save_checkpoint(tiny_checkpoint(), path)
    blob = bytearray(path.read_bytes())
    (clen,) = struct.unpack("<I", blob[8:12])
    if data.draw(st.booleans(), "truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), "length")]
    else:
        # half the flips land in the header, config and first tensor's name
        pos = data.draw(st.integers(0, 12 + clen + 30) | st.integers(0, len(blob) - 1),
                        "position")
        blob[pos] ^= data.draw(st.integers(1, 255), "xor")
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(str(path))
    except CheckpointError:
        pass


def test_load_matching_copies_shared_trunk(tmp_path):
    base = init_model(preset("fc-lenet"), Rng(13))
    path = str(tmp_path / "base.ckpt")
    save_checkpoint(base, path)
    rec = init_model(preset("rfc-lenet"), Rng(14))
    copied = load_matching(rec, path)
    assert copied  # the shared trunk layers transferred
    for name in copied:
        npt.assert_array_equal(rec.params[name], base.params[name])
    assert not any(n.startswith("cell.") for n in copied)


def test_unknown_preset_raises():
    with pytest.raises(ConfigError):
        preset("no-such-net")

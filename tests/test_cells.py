"""Recurrent cell tests: gate-equation oracles, the dense GRU as a conv-GRU
on 1x1 maps, and the cell table."""

import numpy as np
import numpy.testing as npt
import pytest

from rfcn import cells, model
from rfcn.errors import ConfigError, ShapeError
from rfcn.model import RecurrentSpec
from rfcn.tensor import Rng, sigmoid


def mat(w):
    """A dense cell's bound (hidden, d, 1, 1) kernel as its (hidden, d) matrix."""
    return w[:, :, 0, 0]


def gru_oracle(x, h, p):
    """Gate equations written out directly, on vectors."""
    z = sigmoid(mat(p.w_hz) @ h + mat(p.w_xz) @ x + p.b_z)
    r = sigmoid(mat(p.w_hr) @ h + mat(p.w_xr) @ x + p.b_r)
    hc = np.tanh(mat(p.w_h) @ (r * h) + mat(p.w_x) @ x + p.b)
    return (1 - z) * h + z * hc


def gru_oracle_backward(g, x, h, p):
    """The step's gradients at x, h and every weight from the gradient g at
    its output, derived by hand from the gate equations, on vectors."""
    z = sigmoid(mat(p.w_hz) @ h + mat(p.w_xz) @ x + p.b_z)
    r = sigmoid(mat(p.w_hr) @ h + mat(p.w_xr) @ x + p.b_r)
    hc = np.tanh(mat(p.w_h) @ (r * h) + mat(p.w_x) @ x + p.b)
    d_c = g * z * (1 - hc * hc)
    d_z = g * (hc - h) * z * (1 - z)
    d_rh = mat(p.w_h).T @ d_c
    d_r = d_rh * h * r * (1 - r)
    gx = mat(p.w_x).T @ d_c + mat(p.w_xz).T @ d_z + mat(p.w_xr).T @ d_r
    gh = g * (1 - z) + d_rh * r + mat(p.w_hz).T @ d_z + mat(p.w_hr).T @ d_r
    gw = {"w_hz": np.outer(d_z, h), "w_xz": np.outer(d_z, x), "b_z": d_z,
          "w_hr": np.outer(d_r, h), "w_xr": np.outer(d_r, x), "b_r": d_r,
          "w_h": np.outer(d_c, r * h), "w_x": np.outer(d_c, x), "b": d_c}
    return gx, gh, gw


def random_params(spec, in_dims, rng):
    """Zero biases and scaled-fan-in weights at float64, bound for the kind."""
    w = cells.CELLS[spec.kind].random_params(spec, in_dims, rng, np.float64)
    return cells.CELLS[spec.kind].bind(spec, w)


def test_gru_step_matches_gate_equations():
    rng = Rng(200)
    for _ in range(10):
        p = random_params(RecurrentSpec("gru", hidden=6), (4, 1, 1), rng)
        x = rng.uniform(-1, 1, (4, 1, 1))
        h = rng.uniform(-1, 1, (6, 1, 1))
        state, _ = cells.gru_step(x, cells.RecurrentCellState(h), p)
        npt.assert_allclose(state.h[:, 0, 0], gru_oracle(x[:, 0, 0], h[:, 0, 0], p),
                            atol=1e-14)


def test_gru_rejects_mismatched_dims():
    rng = Rng(202)
    p = random_params(RecurrentSpec("gru", hidden=3), (2, 1, 1), rng)
    with pytest.raises(ShapeError):
        cells.gru_step(np.zeros((5, 1, 1)), cells.RecurrentCellState(np.zeros((3, 1, 1))), p)


def test_conv_gru_1x1_degenerates_to_dense_gru():
    """The dense GRU is the conv-GRU on 1x1 maps: its kind binds each stored
    (hidden, d) weight as a (hidden, d, 1, 1) view of it, and its step and
    backward on (d, 1, 1) maps match the gate equations written as
    matrix-vector products, |difference| <= 1e-12 over 10 chained random
    steps (input, hidden and weight gradients)."""
    rng = Rng(203)
    hidden, cin = 5, 3
    spec = RecurrentSpec("gru", hidden=hidden)
    w = cells.CELLS["gru"].random_params(spec, (cin, 1, 1), rng, np.float64)
    p = cells.CELLS["gru"].bind(spec, w)
    assert all(np.shares_memory(getattr(p, k), v) for k, v in w.items())
    hd = rng.uniform(-1, 1, hidden)
    sc = cells.RecurrentCellState(hd.reshape(hidden, 1, 1).copy())
    for _ in range(10):
        x = rng.uniform(-1, 1, cin)
        h = sc.h[:, 0, 0]
        sc, cache = cells.gru_step(x.reshape(cin, 1, 1), sc, p)
        assert np.abs(sc.h[:, 0, 0] - gru_oracle(x, h, p)).max() <= 1e-12
        g = rng.uniform(-1, 1, hidden)
        gxc, ghc, gwc = cells.gru_backward(
            cells.RecurrentCellState(g.reshape(hidden, 1, 1)), cache, p)
        gxd, ghd, gwd = gru_oracle_backward(g, x, h, p)
        assert np.abs(gxc.reshape(-1) - gxd).max() <= 1e-12
        assert np.abs(ghc.h.reshape(-1) - ghd).max() <= 1e-12
        assert sorted(gwc) == sorted(gwd)
        for k in gwd:
            assert np.abs(gwc[k].reshape(gwd[k].shape) - gwd[k]).max() <= 1e-12, k


def test_conv_gru_preserves_spatial_dims():
    rng = Rng(204)
    p = random_params(RecurrentSpec("conv_gru", hidden=4, kernel=3), (2, 7, 9), rng)
    x = rng.uniform(-1, 1, (2, 7, 9))
    s = cells.RecurrentCellState(np.zeros((4, 7, 9)))
    s2, _ = cells.conv_gru_step(x, s, p)
    assert s2.h.shape == (4, 7, 9)


def test_conv_gru_requires_odd_kernel():
    with pytest.raises(ConfigError):
        RecurrentSpec("conv_gru", hidden=4, kernel=2)


def test_lstm_step_matches_gate_equations():
    rng = Rng(206)
    for act in ("sigmoid", "tanh"):
        p = random_params(RecurrentSpec("lstm", hidden=5, candidate_activation=act),
                          (3, 1, 1), rng)
        x = rng.uniform(-1, 1, 3)
        h = rng.uniform(-1, 1, 5)
        c = rng.uniform(-1, 1, 5)
        s, _ = cells.lstm_step(x.reshape(3, 1, 1), cells.RecurrentCellState(
            h.reshape(5, 1, 1), c=c.reshape(5, 1, 1)), p)
        i = sigmoid(mat(p.w_xi) @ x + mat(p.w_hi) @ h + p.b_i)
        f = sigmoid(mat(p.w_xf) @ x + mat(p.w_hf) @ h + p.b_f)
        o = sigmoid(mat(p.w_xo) @ x + mat(p.w_ho) @ h + p.b_o)
        a = mat(p.w_xc) @ x + mat(p.w_hc) @ h + p.b_c
        g = sigmoid(a) if act == "sigmoid" else np.tanh(a)
        c_new = f * c + i * g
        npt.assert_allclose(s.c[:, 0, 0], c_new, atol=1e-14)
        npt.assert_allclose(s.h[:, 0, 0], o * np.tanh(c_new), atol=1e-14)


def test_cell_table_binds_the_lstm_candidate_activation():
    spec = RecurrentSpec("lstm", hidden=5, candidate_activation="tanh")
    assert random_params(spec, (3,), Rng(207)).candidate_activation == "tanh"


def test_lstm_rejects_an_unknown_candidate_activation():
    with pytest.raises(ConfigError):
        RecurrentSpec("lstm", hidden=4, candidate_activation="relu")


def test_cells_reject_fields_their_kind_ignores():
    for kind in ("gru", "lstm"):
        with pytest.raises(ConfigError):
            RecurrentSpec(kind, hidden=4, kernel=3)
    for kind, kernel in (("gru", 0), ("conv_gru", 3)):
        with pytest.raises(ConfigError):
            RecurrentSpec(kind, hidden=4, kernel=kernel, candidate_activation="tanh")
    assert model._to_json(RecurrentSpec("gru", hidden=4)) == {"kind": "gru", "hidden": 4}


def test_cell_table_init_starts_a_gru_as_a_pass_through():
    """Both GRU kinds start with zero recurrent-path weights, an update-gate
    bias of 4 and an identity candidate input map when it is square; the
    LSTM's initial weights are the table's random ones."""
    for kind, kernel, dims in (("gru", 0, (4,)), ("conv_gru", 3, (4, 5, 5)),
                               ("lstm", 0, (3,))):
        spec = RecurrentSpec(kind, hidden=4, kernel=kernel)
        cell = cells.CELLS[kind]
        rng = Rng(210)
        w = {n: cell.init(n, shape, rng, np.float64)
             for n, shape in cell.param_shapes(spec, dims).items()}
        if kind == "lstm":
            ref = cell.random_params(spec, dims, Rng(210), np.float64)
            assert all(np.array_equal(w[n], ref[n]) for n in ref)
            continue
        assert not any(w[n].any() for n in ("w_hz", "w_hr", "w_h", "b_r", "b"))
        assert (w["b_z"] == 4.0).all()
        centre = (slice(None), slice(None)) + (kernel // 2,) * (len(dims) - 1)
        npt.assert_array_equal(w["w_x"][centre], np.eye(4))
        assert np.abs(w["w_x"]).sum() == 4 and w["w_xz"].any() and w["w_xr"].any()


def test_gru_backward_consistent_with_finite_difference():
    """Spot-check one analytic gradient against central differences here;
    the exhaustive audit lives in the gradcheck module."""
    rng = Rng(209)
    p = random_params(RecurrentSpec("gru", hidden=4), (3, 1, 1), rng)
    x = rng.uniform(-1, 1, (3, 1, 1))
    h0 = rng.uniform(-0.5, 0.5, (4, 1, 1))
    wout = rng.uniform(-1, 1, (4, 1, 1))

    def loss():
        s, _ = cells.gru_step(x, cells.RecurrentCellState(h0), p)
        return float((s.h * wout).sum())

    _, cache = cells.gru_step(x, cells.RecurrentCellState(h0), p)
    gx, gh, grads = cells.gru_backward(cells.RecurrentCellState(wout), cache, p)
    eps = 1e-6
    for i in range(3):
        orig = x[i, 0, 0]
        x[i, 0, 0] = orig + eps
        fp = loss()
        x[i, 0, 0] = orig - eps
        fm = loss()
        x[i, 0, 0] = orig
        npt.assert_allclose(gx[i, 0, 0], (fp - fm) / (2 * eps), rtol=1e-5, atol=1e-8)

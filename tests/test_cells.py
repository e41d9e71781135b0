"""Recurrent cell tests: gate-equation oracles, the conv/dense GRU
degeneracy, and the cell table."""

import numpy as np
import numpy.testing as npt
import pytest

from rfcn import cells, model
from rfcn.errors import ConfigError, ShapeError
from rfcn.model import RecurrentSpec
from rfcn.tensor import Rng, sigmoid


def gru_oracle(x, h, p):
    """Gate equations written out directly."""
    z = sigmoid(p.w_hz @ h + p.w_xz @ x + p.b_z)
    r = sigmoid(p.w_hr @ h + p.w_xr @ x + p.b_r)
    hc = np.tanh(p.w_h @ (r * h) + p.w_x @ x + p.b)
    return (1 - z) * h + z * hc


def random_params(spec, in_dims, rng):
    """Zero biases and scaled-fan-in weights at float64, bound for the kind."""
    w = cells.CELLS[spec.kind].random_params(spec, in_dims, rng, np.float64)
    return cells.CELLS[spec.kind].bind(spec, w)


def test_gru_step_matches_gate_equations():
    rng = Rng(200)
    for _ in range(10):
        p = random_params(RecurrentSpec("gru", hidden=6), (4,), rng)
        x = rng.uniform(-1, 1, 4)
        h = rng.uniform(-1, 1, 6)
        state, _ = cells.gru_step(x, cells.RecurrentCellState(h), p)
        npt.assert_allclose(state.h, gru_oracle(x, h, p), atol=1e-14)


def test_gru_rejects_mismatched_dims():
    rng = Rng(202)
    p = random_params(RecurrentSpec("gru", hidden=3), (2,), rng)
    with pytest.raises(ShapeError):
        cells.gru_step(np.zeros(5), cells.RecurrentCellState(np.zeros(3)), p)


def test_conv_gru_1x1_degenerates_to_dense_gru():
    """On 1x1 spatial maps with 1x1 kernels, the convolutional GRU is the
    dense GRU exactly: |difference| <= 1e-12 over 10 chained random steps,
    in the step and in its backward (input, hidden and weight gradients)."""
    rng = Rng(203)
    hidden, cin = 5, 3
    w = cells.CELLS["gru"].random_params(RecurrentSpec("gru", hidden=hidden), (cin,),
                                         rng, np.float64)
    dp = cells.GruParams(**w)
    cp = cells.GruParams(**{k: (v.reshape(v.shape + (1, 1)) if v.ndim == 2
                                else v.copy()) for k, v in w.items()})
    hd = rng.uniform(-1, 1, hidden)
    sd = cells.RecurrentCellState(hd)
    sc = cells.RecurrentCellState(hd.reshape(hidden, 1, 1).copy())
    for _ in range(10):
        x = rng.uniform(-1, 1, cin)
        sd, cache_d = cells.gru_step(x, sd, dp)
        sc, cache_c = cells.conv_gru_step(x.reshape(cin, 1, 1), sc, cp)
        assert np.abs(sc.h[:, 0, 0] - sd.h).max() <= 1e-12
        g = rng.uniform(-1, 1, hidden)
        gxd, ghd, gwd = cells.gru_backward(cells.RecurrentCellState(g), cache_d, dp)
        gxc, ghc, gwc = cells.conv_gru_backward(
            cells.RecurrentCellState(g.reshape(hidden, 1, 1)), cache_c, cp)
        assert np.abs(gxc.reshape(-1) - gxd).max() <= 1e-12
        assert np.abs(ghc.h.reshape(-1) - ghd.h).max() <= 1e-12
        assert list(gwc) == list(gwd)
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
                          (3,), rng)
        x = rng.uniform(-1, 1, 3)
        h = rng.uniform(-1, 1, 5)
        c = rng.uniform(-1, 1, 5)
        s, _ = cells.lstm_step(x, cells.RecurrentCellState(h, c=c), p)
        i = sigmoid(p.w_xi @ x + p.w_hi @ h + p.b_i)
        f = sigmoid(p.w_xf @ x + p.w_hf @ h + p.b_f)
        o = sigmoid(p.w_xo @ x + p.w_ho @ h + p.b_o)
        a = p.w_xc @ x + p.w_hc @ h + p.b_c
        g = sigmoid(a) if act == "sigmoid" else np.tanh(a)
        c_new = f * c + i * g
        npt.assert_allclose(s.c, c_new, atol=1e-14)
        npt.assert_allclose(s.h, o * np.tanh(c_new), atol=1e-14)


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
    p = random_params(RecurrentSpec("gru", hidden=4), (3,), rng)
    x = rng.uniform(-1, 1, 3)
    h0 = rng.uniform(-0.5, 0.5, 4)
    wout = rng.uniform(-1, 1, 4)

    def loss():
        s, _ = cells.gru_step(x, cells.RecurrentCellState(h0), p)
        return float(s.h @ wout)

    _, cache = cells.gru_step(x, cells.RecurrentCellState(h0), p)
    gx, gh, grads = cells.gru_backward(cells.RecurrentCellState(wout), cache, p)
    eps = 1e-6
    for i in range(3):
        orig = x[i]
        x[i] = orig + eps
        fp = loss()
        x[i] = orig - eps
        fm = loss()
        x[i] = orig
        npt.assert_allclose(gx[i], (fp - fm) / (2 * eps), rtol=1e-5, atol=1e-8)

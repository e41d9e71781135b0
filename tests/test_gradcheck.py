"""Tests for the finite-difference audit machinery itself."""

import numpy as np

from rfcn import cells
from rfcn.gradcheck import (DENOM_FLOOR, STEP, _kink_clearance, audit_model,
                            fd_check, rel_err, run_audit, tiny_convgru_config,
                            tiny_lenet_config, tiny_lstm_config,
                            tiny_skip_config)
from rfcn.model import (ArchitectureConfig, LayerSpec, RecurrentSpec, SkipLink,
                        init_model, shape_check)
from rfcn.tensor import Rng


def test_rel_err_zero_for_matching_tiny_values():
    assert rel_err(1e-12, -1e-12) == 0.0


def test_rel_err_uses_denominator_floor():
    # absolute difference 1e-4 against near-zero values: floored denominator
    assert rel_err(1e-4, 0.0) == 1e-4 / DENOM_FLOOR


def test_rel_err_large_values():
    assert rel_err(2.0, 1.0) == 0.5


def test_fd_check_accepts_correct_gradient():
    rng = Rng(600)
    w = rng.uniform(-1, 1, (4, 4))
    x = rng.uniform(-1, 1, 4)

    def loss():
        return float(x @ w @ x)

    analytic = {"x": (w + w.T) @ x}
    res = fd_check(loss, {"x": x}, analytic, rng)
    assert res["x"] <= 1e-8


def test_fd_check_flags_wrong_gradient():
    rng = Rng(601)
    x = rng.uniform(0.5, 1.5, 5)

    def loss():
        return float(np.sum(x * x))

    res = fd_check(loss, {"x": x}, {"x": 3 * x}, rng)  # true grad is 2x
    assert res["x"] > 0.3


def test_fd_check_restores_probed_values():
    rng = Rng(602)
    x = rng.uniform(-1, 1, 6)
    before = x.copy()
    fd_check(lambda: float(x.sum()), {"x": x}, {"x": np.ones(6)}, rng)
    np.testing.assert_array_equal(x, before)


def test_tiny_audit_configs_are_valid():
    for cfg in (tiny_lenet_config(), tiny_convgru_config(), tiny_lstm_config(),
                tiny_skip_config()):
        report = shape_check(cfg)
        assert report.output_shape[0] == cfg.num_classes
    # the skip net audits a pool right after its cell
    assert tiny_skip_config().post[0].kind == "pool"


def test_kink_clearance_sees_relu_and_pool():
    """The clearance probes the relu and pool calls the executor makes; if
    they stopped reaching it, it would stay infinite and the audit would
    stop rejecting frames that sit on a kink."""
    cfg = tiny_lenet_config()
    rng = Rng(603)
    model = init_model(cfg, rng, dtype=np.float64)
    frames = [rng.uniform(0, 1, cfg.input_shape) for _ in range(cfg.window)]
    assert np.isfinite(_kink_clearance(model, frames))


def pool_after_cell_config():
    return ArchitectureConfig(
        name="pool-after-cell", input_shape=(1, 8, 8), num_classes=2, window=3,
        pre=[LayerSpec("conv", size=3, pad=1, depth=3), LayerSpec("relu")],
        recurrent=RecurrentSpec("conv_gru", hidden=3, kernel=3),
        post=[LayerSpec("pool", size=2), LayerSpec("conv1x1", depth=2),
              LayerSpec("deconv", size=2, stride=2, depth=2)],
        skip_links=[SkipLink(source=0, target=1)])


def test_kink_clearance_counts_tied_zeros_after_a_cell():
    """A pool right after a fresh conv-GRU sees the trunk relu's exact zeros
    with no relu of its own in between, so its tied zeros are real argmax
    ties: every draw must read within the rejection distance."""
    cfg = pool_after_cell_config()
    model = init_model(cfg, Rng(0), dtype=np.float64)
    for seed in range(4):
        rng = Rng(seed)
        frames = [rng.uniform(0, 1, cfg.input_shape) for _ in range(cfg.window)]
        assert _kink_clearance(model, frames) <= 50 * STEP, seed


def test_audit_model_audits_a_pool_after_a_cell():
    """audit_model draws random cell weights, so a pool after the cell no
    longer sees the pass-through cell's tied zeros and the audit passes."""
    for seed in range(3):
        report = audit_model(pool_after_cell_config(), Rng(seed))
        assert "skip.0.score.weights" in report
        assert max(report.values()) <= 1e-6, seed


def test_audit_covers_every_kind_and_candidate_in_the_cell_table(monkeypatch):
    """The cell audits walk cells.CELLS: a kind added to the table is audited
    with no change to gradcheck, against each of its weights and both
    inputs; every (kind, candidate) is tagged by the kind, or past the kind's
    first candidate by kind_candidate."""
    monkeypatch.setitem(cells.CELLS, "gru_copy", cells.CELLS[cells.GRU])
    report, ok = run_audit(seed=0)
    assert ok
    assert {k for k in report if k.startswith("cell.gru_copy.")} == {
        f"cell.gru_copy.{w}" for w in cells.CELLS[cells.GRU].weight_names + ("x1", "x2")}
    for kind, cell in cells.CELLS.items():
        for i, candidate in enumerate(cell.candidates):
            tag = f"{kind}_{candidate}" if i else kind
            assert f"cell.{tag}.x1" in report, tag

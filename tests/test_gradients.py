"""Finite-difference verification of every backward implementation."""

import numpy as np
import pytest

from shiftstereo import ops
from shiftstereo.gradcheck import (CheckCase, composite_cases, fault_case,
                                   op_cases, run_case, run_suite)
from shiftstereo.tensor import HIGH, Tape, Tensor, backward


@pytest.mark.parametrize("case", op_cases(), ids=lambda c: c.name)
def test_op_gradients(case):
    for result in run_case(case):
        assert result.passed, (f"{result.case}::{result.param} "
                               f"rel_err={result.max_rel_err:.3e}")


@pytest.mark.parametrize("case", composite_cases(), ids=lambda c: c.name)
def test_composite_gradients(case):
    for result in run_case(case):
        assert result.passed, (f"{result.case}::{result.param} "
                               f"rel_err={result.max_rel_err:.3e}")


def test_conv_bn_relu_chain_meets_strict_tolerance():
    """The stated composite example: conv -> norm -> relu -> sum stays
    below 1e-5 relative error with step 1e-4 in high precision."""
    [case] = [c for c in composite_cases() if c.name == "composite_conv_bn_relu_sum"]
    for result in run_case(case):
        if result.param == "b1":
            # bias cancels against the normalization mean; its gradient is
            # structurally zero and compares only against the noise floor
            continue
        assert result.max_rel_err < 1e-5, (result.param, result.max_rel_err)


def test_corrupted_backward_is_detected():
    results = run_case(fault_case())
    assert any(not r.passed for r in results)


def test_suite_report_lines_and_failures():
    results = run_suite([fault_case()])
    assert any(not r.passed for r in results)
    assert all(r.line().startswith("pass  " if r.passed else "FAIL  ") for r in results)


def test_loss_gradient_matches_finite_differences_away_from_knee():
    """Loss gradient w.r.t. predictions at < 1e-6 relative error."""
    rng = np.random.default_rng(3)
    gt = rng.uniform(2.0, 8.0, (5, 6)).astype(np.float64)
    mask = rng.random((5, 6)) < 0.8
    mask[0, 0] = True
    # predictions offset so |pred - gt| stays away from the |x| = 1 knee
    pred_c = gt + rng.choice([-0.5, 0.4, 2.0, -1.8], size=gt.shape)
    pred_r = gt + rng.choice([0.3, -0.6, 1.7, -2.2], size=gt.shape)

    from shiftstereo.training import LossConfig, total_loss

    coarse = Tensor(pred_c[None, None], requires_grad=True, dtype=HIGH)
    refined = Tensor(pred_r[None, None], requires_grad=True, dtype=HIGH)
    with Tape() as tape:
        loss = total_loss(coarse, refined, gt, mask, LossConfig(), max_disparity=24)
    backward(loss, tape)

    def loss_value():
        return total_loss(coarse, refined, gt, mask, LossConfig(), max_disparity=24).item()

    for leaf in (coarse, refined):
        flat = leaf.data.reshape(-1)
        grad = leaf.grad.reshape(-1)
        for idx in range(0, flat.size, 7):
            saved = flat[idx]
            flat[idx] = saved + 1e-5
            plus = loss_value()
            flat[idx] = saved - 1e-5
            minus = loss_value()
            flat[idx] = saved
            numeric = (plus - minus) / 2e-5
            denom = max(abs(numeric), abs(grad[idx]), 1e-9)
            assert abs(grad[idx] - numeric) / denom < 1e-6


def test_masked_pixels_get_zero_gradient():
    rng = np.random.default_rng(4)
    gt = rng.uniform(0, 5, (4, 4)).astype(np.float64)
    gt[1, 1] = np.inf          # non-finite truth
    gt[2, 2] = 50.0            # above the disparity cap
    mask = np.ones((4, 4), bool)
    mask[3, 3] = False         # explicitly masked
    from shiftstereo.training import LossConfig, total_loss
    coarse = Tensor(rng.uniform(0, 5, (1, 1, 4, 4)), requires_grad=True, dtype=HIGH)
    refined = Tensor(rng.uniform(0, 5, (1, 1, 4, 4)), requires_grad=True, dtype=HIGH)
    with Tape() as tape:
        loss = total_loss(coarse, refined, gt, mask, LossConfig(), max_disparity=24)
    backward(loss, tape)
    for leaf in (coarse, refined):
        assert leaf.grad[0, 0, 1, 1] == 0.0
        assert leaf.grad[0, 0, 2, 2] == 0.0
        assert leaf.grad[0, 0, 3, 3] == 0.0
        assert np.count_nonzero(leaf.grad) == 13

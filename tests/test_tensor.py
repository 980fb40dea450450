"""Tensor container, tape mechanics, and the backward driver."""

import numpy as np
import pytest

from conftest import backward_reference
from shiftstereo import ops
from shiftstereo.datasets import RdsConfig, gen_rds
from shiftstereo.errors import ShapeError
from shiftstereo.model import ModelConfig, ModelWeights, forward_tensors
from shiftstereo.tensor import HIGH, STANDARD, Tape, Tensor, backward
from shiftstereo.training import total_loss


class TestTensor:
    def test_shape_is_four_part(self):
        t = Tensor(np.zeros((2, 3, 4, 5)))
        assert t.shape == (2, 3, 4, 5)
        assert t.data.size == 2 * 3 * 4 * 5

    def test_rejects_other_ranks(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((3, 4)))

    def test_grad_starts_empty(self):
        t = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        assert t.grad is None

    def test_scalar_modes(self):
        assert STANDARD == np.float32 and HIGH == np.float64
        assert Tensor(np.ones((1, 1, 1, 1), dtype=np.float64), dtype=HIGH).dtype == HIGH
        assert Tensor(np.ones((1, 1, 1, 1)), dtype=STANDARD).dtype == STANDARD
        # integer data is stored in the standard precision
        assert Tensor(np.ones((1, 1, 1, 1), dtype=np.int64)).dtype == STANDARD


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(12, dtype=np.float64).reshape(1, 3, 2, 2), requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_all(x)
        backward(loss, tape)
        assert np.array_equal(x.grad, np.ones_like(x.data))

    def test_sum_of_squares_gradient_is_2x(self):
        x = Tensor(np.linspace(-2, 2, 8).reshape(1, 2, 2, 2), requires_grad=True, dtype=HIGH)
        with Tape() as tape:
            loss = ops.sum_all(ops.mul(x, x))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=0, atol=0)

    def test_rejects_non_scalar_loss(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        with Tape() as tape:
            y = ops.scalar_mul(x, 2.0)
        with pytest.raises(ShapeError):
            backward(y, tape)

    def test_shared_input_accumulates(self):
        # y = x + x: the two returned grads alias the upstream buffer; the
        # driver must still produce grad(x) = 2 without corrupting anything.
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_all(ops.add(x, x))
        backward(loss, tape)
        assert np.array_equal(x.grad, np.full_like(x.data, 2.0))

    def test_fanout_does_not_alias_grads(self):
        # z = relu(x); loss = sum(z + w) with w also fed elsewhere; grads of
        # independent leaves must live in independent buffers.
        x = Tensor(np.full((1, 1, 2, 2), 3.0), requires_grad=True)
        w = Tensor(np.full((1, 1, 2, 2), 2.0), requires_grad=True)
        with Tape() as tape:
            z = ops.relu(x)
            loss = ops.sum_all(ops.add(ops.add(z, w), w))
        backward(loss, tape)
        assert np.array_equal(x.grad, np.ones_like(x.data))
        assert np.array_equal(w.grad, np.full_like(w.data, 2.0))
        assert x.grad is not w.grad

    def test_no_tape_records_nothing(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        y = ops.relu(x)
        assert not y.requires_grad

    def test_reverse_order_replay(self):
        x = Tensor(np.ones((1, 1, 1, 2)), requires_grad=True, dtype=HIGH)
        with Tape() as tape:
            a = ops.scalar_mul(x, 3.0)
            b = ops.mul(a, a)
            loss = ops.sum_all(b)
        ops_seen = [n.op for n in tape.nodes]
        assert ops_seen == ["scalar_mul", "mul", "sum_all"]
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, 18.0 * x.data)

    def test_determinism_across_runs(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=True, dtype=HIGH)
            w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True, dtype=HIGH)
            with Tape() as tape:
                y = ops.conv2d(x, w, stride=1, padding=1)
                loss = ops.sum_all(ops.mul(y, y))
            backward(loss, tape)
            return y.data.copy(), x.grad.copy(), w.grad.copy()

        first = run()
        second = run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestTapeConsumption:
    def test_backward_empties_the_tape_and_drops_intermediate_grads(self):
        x = Tensor(np.linspace(-1, 1, 4).reshape(1, 1, 2, 2), requires_grad=True, dtype=HIGH)
        with Tape() as tape:
            a = ops.scalar_mul(x, 3.0)
            b = ops.mul(a, x)
            loss = ops.sum_all(b)
        backward(loss, tape)
        assert tape.nodes == []
        assert a.grad is None and b.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, 6.0 * x.data, rtol=1e-15)

    def test_training_step_leaf_grads_equal_a_replay_that_keeps_the_tape(self):
        """A tiny-profile training step on a 48x48 stereogram: after
        backward the tape is empty and no op output holds a gradient, and
        every leaf gradient (parameters and the left image) is bit-equal
        to that of ``backward_reference``, which consumes nothing."""
        cfg = ModelConfig.tiny()
        [sample] = gen_rds(RdsConfig(width=48, height=48, seed=1), 1)
        runs = []
        for replay in (backward, backward_reference):
            weights = ModelWeights.initialize(cfg, seed=0)
            tail = weights.params["refine.out.w"]
            tail.data[...] = np.random.default_rng(5).standard_normal(tail.shape) * 0.1
            left = Tensor(sample.left[None], requires_grad=True)
            with Tape() as tape:
                out = forward_tensors(left, Tensor(sample.right[None]), weights, cfg,
                                      training=True)
                loss = total_loss(out["coarse"], out["refined"], sample.gt, sample.valid,
                                  max_disparity=cfg.max_disparity)
            outputs = [node.output for node in tape.nodes]
            replay(loss, tape)
            if replay is backward:
                assert tape.nodes == []
                assert all(t.grad is None for t in outputs)
            runs.append({"left": left.grad, **{k: p.grad for k, p in weights.params.items()}})
        consumed, kept = runs
        assert set(consumed) == set(kept)
        for name, grad in kept.items():
            assert grad is not None and np.array_equal(consumed[name], grad), name


class TestElementwiseContracts:
    def test_add_zero_identity(self, rng):
        a = Tensor(rng.standard_normal((1, 2, 3, 3)))
        z = Tensor(np.zeros(a.shape, dtype=a.dtype))
        assert np.array_equal(ops.add(a, z).data, a.data)

    def test_mul_one_identity(self, rng):
        a = Tensor(rng.standard_normal((1, 2, 3, 3)))
        one = Tensor(np.ones(a.shape, dtype=a.dtype))
        assert np.array_equal(ops.mul(a, one).data, a.data)

    def test_product_rule(self, rng):
        a = Tensor(rng.standard_normal((1, 1, 2, 2)), requires_grad=True, dtype=HIGH)
        b = Tensor(rng.standard_normal((1, 1, 2, 2)), dtype=HIGH)
        with Tape() as tape:
            loss = ops.sum_all(ops.mul(a, b))
        backward(loss, tape)
        assert np.array_equal(a.grad, b.data)

    def test_shape_mismatch_rejected(self):
        a = Tensor(np.ones((1, 1, 2, 2)))
        b = Tensor(np.ones((1, 1, 2, 3)))
        for fn in (ops.add, ops.sub, ops.mul):
            with pytest.raises(ShapeError):
                fn(a, b)

"""Tensor container, tape mechanics, and the backward driver."""

import weakref

import numpy as np
import pytest

from conftest import backward_reference, batch_norm_kept
from shiftstereo import model, ops, tensor
from shiftstereo.datasets import RdsConfig, gen_rds
from shiftstereo.errors import ShapeError
from shiftstereo.model import (ModelConfig, ModelWeights, all_layer_specs,
                               feature_layer_specs, forward_tensors)
from shiftstereo.tensor import HIGH, STANDARD, Tape, Tensor, backward, segment
from shiftstereo.training import AdamState, adam_step, total_loss


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

    def test_a_conv_input_keeps_the_gradient_its_grad_fn_returned(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 6, 7)), requires_grad=True, dtype=HIGH)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True, dtype=HIGH)
        with Tape() as tape:
            y = ops.conv2d(x, w, padding=1)
            loss = ops.sum_all(ops.mul(y, y))
        conv = tape.nodes[0]
        returned, grad_fn = [], conv.grad_fn
        conv.grad_fn = lambda g: returned.extend(grad_fn(g)) or returned
        backward(loss, tape)
        assert x.grad is returned[0] and w.grad is returned[1]

    @pytest.mark.parametrize("op", [ops.concat_channels, ops.stack_batch])
    def test_views_of_the_output_grad_are_copied(self, rng, op):
        # a layout op hands each input a view of its output's gradient
        a, b = (Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True, dtype=HIGH)
                for _ in range(2))
        with Tape() as tape:
            loss = ops.sum_all(ops.scalar_mul(op([a, b]), 2.0))
        layout = tape.nodes[0]
        out_grads, grad_fn = [], layout.grad_fn
        layout.grad_fn = lambda g: out_grads.append(g) or grad_fn(g)
        backward(loss, tape)
        [g] = out_grads
        assert not any(np.may_share_memory(t.grad, g) for t in (a, b))
        assert np.array_equal(a.grad, np.full(a.shape, 2.0))
        assert np.array_equal(b.grad, np.full(b.shape, 2.0))

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

    def test_the_last_rebuildable_output_dies_with_its_last_reader(self, rng):
        """Backward holds no output it dropped: once the conv that reads a
        norm's output and the norm itself have replayed, the array the
        conv's weight gradient rebuilt is dead before the next node runs. A
        loop variable over the tape's ``rebuildable`` kept it alive through
        the whole replay."""
        c = (1, 2, 1, 1)
        x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        gamma, beta = (Tensor(np.full(c, v), requires_grad=True) for v in (1.0, 0.0))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        rebuilt, alive = [], []

        def probe(g):
            alive.extend(ref() is not None for ref in rebuilt)
            return (g,)

        with Tape() as tape:
            first = tensor.record_op("probe", Tensor(x.data.copy()), (x,), probe)
            y = ops.batch_norm(first, gamma, beta, Tensor(np.zeros(c)), Tensor(np.ones(c)))
            loss = ops.sum_all(ops.conv2d(y, w, padding=1))

        def recorded(rebuild=y.rebuild):
            array = rebuild()
            rebuilt.append(weakref.ref(array))
            return array

        y.rebuild = recorded
        del y
        backward(loss, tape)
        assert len(rebuilt) == 1 and alive == [False]

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


class TestSegment:
    """``segment`` keeps only its output on the tape and re-runs its
    function in backward; off a tape it is the plain call."""

    @staticmethod
    def _graph(rng):
        """Leaves x and w, a projection, and ``fn(x)``, which reads x twice
        and logs a weak reference to its conv's output per call."""
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True, dtype=HIGH)
        w = Tensor(rng.standard_normal((3, 3, 3, 3)), requires_grad=True, dtype=HIGH)
        proj = Tensor(rng.standard_normal((2, 3, 4, 4)), dtype=HIGH)
        calls = []

        def fn(t):
            h = ops.conv2d(ops.add(t, t), w, padding=1)
            calls.append(weakref.ref(h.data))
            return ops.relu(h)

        return x, w, proj, fn, calls

    def test_off_a_tape_it_is_the_plain_call(self, rng):
        x, _, _, fn, calls = self._graph(rng)
        assert np.array_equal(segment("s", fn, (x,)).data, fn(x).data)
        assert len(calls) == 2

    def test_with_no_input_requiring_a_gradient_it_is_the_plain_call(self, rng):
        x, _, _, fn, calls = self._graph(rng)
        x.requires_grad = False
        with Tape() as tape:
            segment("s", fn, (x,))
        assert [n.op for n in tape.nodes] == ["conv2d", "relu"] and len(calls) == 1

    def test_one_node_that_keeps_only_the_output(self, rng):
        """The ReLU's closure keeps the conv's output on a plain tape; the
        segment's forward tape dies with it, so the outer tape holds one node
        and the output array, and backward re-runs fn once."""
        x, _, proj, fn, calls = self._graph(rng)
        with Tape() as tape:
            fn(x)
            y = segment("s", fn, (x,))
            loss = ops.sum_all(ops.mul(y, proj))
        assert [n.op for n in tape.nodes] == ["add", "conv2d", "relu", "s", "mul", "sum_all"]
        assert calls[0]() is not None and calls[1]() is None
        backward(loss, tape)
        assert len(calls) == 3 and tape.nodes == []

    def test_gradients_are_the_plain_call_s_bit_for_bit(self):
        grads = []
        for segmented in (True, False):
            x, w, proj, fn, _ = self._graph(np.random.default_rng(3))
            with Tape() as tape:
                y = segment("s", fn, (x,)) if segmented else fn(x)
                loss = ops.sum_all(ops.mul(y, proj))
            backward(loss, tape)
            grads.append((x.grad, w.grad))
        (sx, sw), (px, pw) = grads
        assert np.array_equal(sx, px) and np.array_equal(sw, pw)


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


def _count_rebuilds(tensors):
    """Wrap the ``rebuild`` of every tensor in ``tensors`` (a tape's
    ``rebuildable``, say) in a counter; list them as ``[tensor, copy of its
    forward bits, rebuild count]``. A tensor that forward code dropped
    already (refine's conv1 norms) gives its bits by a rebuild that is not
    counted."""
    outputs = []
    for t in tensors:
        entry = [t, t.rebuild() if t._data is None else t.data.copy(), 0]
        outputs.append(entry)

        def counted(rebuild=t.rebuild, entry=entry):
            entry[2] += 1
            return rebuild()
        t.rebuild = counted
    return outputs


class TestRebuiltNormOutputs:
    """A taped norm keeps no output array: backward drops it and a read of
    ``.data`` rebuilds it, bit for bit and at most once."""

    @staticmethod
    def _step(seed=4):
        """One tiny training step on a 48x48 stereogram with every gamma,
        beta and the refine tail drawn; returns the weights, the loss and
        the left image's gradient."""
        cfg = ModelConfig.tiny()
        [sample] = gen_rds(RdsConfig(width=48, height=48, seed=1), 1)
        weights = ModelWeights.initialize(cfg, seed=0)
        rng = np.random.default_rng(seed)
        for name, p in weights.params.items():
            if name.endswith((".gamma", ".beta")) or name == "refine.out.w":
                p.data = (rng.uniform(0.5, 1.5, p.shape) if name.endswith(".gamma")
                          else rng.uniform(-0.1, 0.1, p.shape)).astype(p.dtype)
        left = Tensor(sample.left[None], requires_grad=True)
        with Tape() as tape:
            out = forward_tensors(left, Tensor(sample.right[None]), weights, cfg,
                                  training=True)
            loss = total_loss(out["coarse"], out["refined"], sample.gt, sample.valid,
                              max_disparity=cfg.max_disparity)
        backward(loss, tape)
        return weights, loss.item(), left.grad

    def test_a_taped_forward_keeps_only_what_backward_reads(self, monkeypatch):
        """The tape holds slots, not maps: after a taped tiny forward the
        matching net's per-level ``stack_batch`` and ``gather_columns`` maps,
        which no gradient closure reads, are dead, and refine's conv1 norm
        outputs hold no array. Backward rebuilds each of those once."""
        per_level, conv1, inside = [], [], []

        def watched(op):
            def wrapper(*args, **kwargs):
                out = op(*args, **kwargs)
                if inside:
                    per_level.append(weakref.ref(out.data))
                return out
            return wrapper

        def match_levels(*args, inner=model._match_levels):
            inside.append(True)
            try:
                return inner(*args)
            finally:
                inside.pop()

        def block(x, name, *args, inner=model._block, **kwargs):
            out = inner(x, name, *args, **kwargs)
            if name.startswith("refine.block") and name.endswith(".conv1"):
                conv1.append((out, out.data.copy(), weakref.ref(out.data)))
            return out

        for name in ("stack_batch", "gather_columns"):
            monkeypatch.setattr(ops, name, watched(getattr(ops, name)))
        monkeypatch.setattr(model, "_match_levels", match_levels)
        monkeypatch.setattr(model, "_block", block)
        cfg = ModelConfig.tiny()
        [sample] = gen_rds(RdsConfig(width=48, height=48, seed=1), 1)
        weights = ModelWeights.initialize(cfg, seed=0)
        with Tape() as tape:
            out = forward_tensors(Tensor(sample.left[None], requires_grad=True),
                                  Tensor(sample.right[None]), weights, cfg, training=True)
            loss = total_loss(out["coarse"], out["refined"], sample.gt, sample.valid,
                              max_disparity=cfg.max_disparity)
        # all 8 levels run as one batch: two stacks and two gathers
        assert len(per_level) == 4 and all(ref() is None for ref in per_level)
        assert len(conv1) == len(cfg.refine_blocks)
        assert all(ref() is None for _, _, ref in conv1)
        counts = {id(entry[0]): entry for entry in _count_rebuilds(tape.rebuildable)}
        backward(loss, tape)
        for t, forward_bits, _ in conv1:
            assert counts[id(t)][2] == 1
            assert np.array_equal(t.data, forward_bits)

    @staticmethod
    def _assert_bit_equal(step, kept_step):
        """Two ``_step`` results have the same loss, left image gradient,
        parameter gradients and running buffers, bit for bit."""
        (weights, loss, left_grad), (kept, kept_loss, kept_left_grad) = step, kept_step
        assert loss == kept_loss
        assert np.array_equal(left_grad, kept_left_grad)
        for name, p in weights.params.items():
            assert np.array_equal(p.grad, kept.params[name].grad), name
        for name, t in weights.buffers.items():
            assert np.array_equal(t.data, kept.buffers[name].data), name

    def test_training_step_bit_equal_to_a_norm_that_keeps_its_output(self, monkeypatch):
        step = self._step()
        monkeypatch.setattr(ops, "batch_norm", batch_norm_kept)
        self._assert_bit_equal(step, self._step())

    def test_training_step_bit_equal_to_refine_keeping_its_conv_sums(self, monkeypatch):
        """Refine's head and conv1 sums hold no array once forward ends, and
        backward rebuilds each once; the loss, every parameter gradient, the
        left image's gradient and every running buffer are bit for bit those
        of the same step with the sums kept."""
        outputs, entries = [], []
        conv2d, consume = ops.conv2d, tensor._consume

        class Kept(Tensor):
            __slots__ = ()

            def drop(self):
                pass

        def recorded(*args, **kwargs):
            out = conv2d(*args, **kwargs)
            outputs.append(out)
            return out

        def counted(tape, output, grad):
            if not entries:  # the step's own tape, before any segment's
                entries.extend(_count_rebuilds([t for t in outputs if t._data is None]))
            consume(tape, output, grad)

        monkeypatch.setattr(ops, "conv2d", recorded)
        monkeypatch.setattr(tensor, "_consume", counted)
        step = self._step()
        assert len(entries) == 1 + len(ModelConfig.tiny().refine_blocks)
        for t, forward_bits, count in entries:
            assert count == 1 and np.array_equal(t.data, forward_bits)

        def kept_conv2d(*args, **kwargs):
            out = conv2d(*args, **kwargs)
            out.__class__ = Kept
            return out

        monkeypatch.setattr(ops, "conv2d", kept_conv2d)
        self._assert_bit_equal(step, self._step())

    def test_each_norm_output_is_rebuilt_at_most_once(self, monkeypatch):
        """Counts the norm outputs of every tape that backward consumes: the
        step's own, and the re-run of each level-batch segment, whose norm
        outputs live on the re-run's tape only."""
        outputs = []
        consume = tensor._consume

        def counted(tape, output, grad):
            outputs.extend(_count_rebuilds(tape.rebuildable))
            consume(tape, output, grad)

        monkeypatch.setattr(tensor, "_consume", counted)
        self._step()
        # a normed layer runs once per pass (all levels are one batch), and
        # once per image in the feature net
        cfg = ModelConfig.tiny()
        assert len(outputs) == sum(s.norm for s in all_layer_specs(cfg)
                                   + feature_layer_specs(cfg))
        assert all(count <= 1 for _, _, count in outputs)
        for t, forward_bits, _ in outputs:
            assert t.shape == forward_bits.shape and t.dtype == forward_bits.dtype
            assert np.array_equal(t.data, forward_bits)
            assert t.data is t.data
        assert all(count == 1 for _, _, count in outputs)

    @staticmethod
    def _pooled_norm():
        """A taped norm without ReLU that only a pooling reads, so backward
        needs neither its output array nor a mask. Returns the output, the
        norm's gamma and beta, and the ``_count_rebuilds`` entry of the
        output, after backward."""
        rng = np.random.default_rng(9)
        c = (1, 3, 1, 1)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        params = {"gamma": Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True),
                  "beta": Tensor(rng.uniform(-0.1, 0.1, c), requires_grad=True)}
        proj = Tensor(rng.standard_normal((2, 3, 4, 4)))
        with Tape() as tape:
            y = ops.batch_norm(x, params["gamma"], params["beta"],
                               Tensor(np.zeros(c)), Tensor(np.ones(c)))
            loss = ops.sum_all(ops.mul(ops.avg_pool(y, 2), proj))
        [entry] = _count_rebuilds(tape.rebuildable)
        backward(loss, tape)
        return y, params, entry

    def test_a_shape_check_rebuilds_nothing(self):
        y, _, entry = self._pooled_norm()
        assert entry[2] == 0  # avg_pool's backward checked y's shape
        assert y.shape == entry[1].shape and y.dtype == entry[1].dtype
        assert entry[2] == 0
        assert np.array_equal(y.data, entry[1]) and entry[2] == 1

    def test_a_read_after_adam_step_gives_the_forward_bits(self):
        y, params, entry = self._pooled_norm()
        before = {k: p.data.copy() for k, p in params.items()}
        adam_step(params, AdamState.for_params(params))
        assert all(not np.array_equal(params[k].data, v) for k, v in before.items())
        assert entry[2] == 0
        assert np.array_equal(y.data, entry[1]) and entry[2] == 1

    def test_an_untaped_norm_output_has_no_rebuild(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        c = (1, 2, 1, 1)
        out = ops.batch_norm(x, *(Tensor(np.ones(c)) for _ in range(4)), relu=True)
        assert out.rebuild is None and out.data is out.data

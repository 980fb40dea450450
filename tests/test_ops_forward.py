"""Forward-kernel oracles: hand-evaluated fixtures and naive-loop references."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (avg_pool_reference, avg_pool_strided_reference, batch_norm_reference,
                      conv2d_reference, resize_matrix_reference, traced_peak)
from shiftstereo import ops
from shiftstereo.errors import ShapeError
from shiftstereo.gradcheck import _conv_case, op_cases, run_case
from shiftstereo.tensor import HIGH, Tape, Tensor, backward


def _taped_conv(x, w, **kw):
    """A conv2d recorded on a tape of its own; returns the tape and the output."""
    with Tape() as tape:
        out = ops.conv2d(x, w, **kw)
    return tape, out


class TestConv2d:
    def test_scaled_identity_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = ops.conv2d(x, w)
        assert np.array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_center_one_kernel_is_exact_identity(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 6, 5)).astype(np.float32))
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = ops.conv2d(x, Tensor(w), stride=1, padding=1)
        assert np.array_equal(out.data, x.data)

    def test_matches_loop_oracle_strided_dilated(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal((1, 3, 1, 1))
        out = ops.conv2d(Tensor(x, dtype=HIGH), Tensor(w, dtype=HIGH),
                         Tensor(b, dtype=HIGH), stride=2, dilation=2, padding=2)
        expected = conv2d_reference(x, w, b, stride=2, dilation=2, padding=2)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 8), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2), st.integers(1, 2), st.sampled_from([1, 3]),
           st.integers(0, 2 ** 31 - 1))
    def test_matches_loop_oracle_randomized(self, batch, cin, cout, stride,
                                            padding, dilation, k, seed):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(k + (k - 1) * (dilation - 1), 17))
        w = int(rng.integers(k + (k - 1) * (dilation - 1), 17))
        x = rng.standard_normal((batch, cin, h, w))
        wgt = rng.standard_normal((cout, cin, k, k))
        out = ops.conv2d(Tensor(x, dtype=HIGH), Tensor(wgt, dtype=HIGH),
                         stride=stride, dilation=dilation, padding=padding)
        expected = conv2d_reference(x, wgt, stride=stride, dilation=dilation,
                                    padding=padding)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ops.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))

    def test_rejects_vanishing_output(self):
        with pytest.raises(ShapeError):
            ops.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))))

    @pytest.mark.parametrize("cin", [3, 32])
    @pytest.mark.parametrize("stride, dilation, padding", [(1, 2, 2), (2, 1, 1)])
    def test_batch_items_bit_identical_to_single_items(self, rng, cin, stride,
                                                       dilation, padding):
        """The parallel cost volume batches disparity levels through one
        conv; each item must come out as if it ran alone."""
        x = rng.standard_normal((5, cin, 13, 18)).astype(np.float32)
        w = Tensor(rng.standard_normal((8, cin, 3, 3)).astype(np.float32))
        b = Tensor(rng.standard_normal((1, 8, 1, 1)).astype(np.float32))
        batched = ops.conv2d(Tensor(x), w, b, stride=stride, dilation=dilation,
                             padding=padding).data
        for i in range(5):
            alone = ops.conv2d(Tensor(x[i:i + 1]), w, b, stride=stride,
                               dilation=dilation, padding=padding).data
            assert np.array_equal(batched[i:i + 1], alone)

    @pytest.mark.parametrize("cin", [3, 32])
    @pytest.mark.parametrize("stride, dilation, padding",
                             [(1, 2, 2), (2, 1, 1), (1, 1, 2), (3, 1, 1)])
    def test_batch_items_input_grads_bit_identical_to_single_items(self, rng, cin, stride,
                                                                   dilation, padding):
        """dX is a convolution of the output gradient, so it inherits the
        forward's independence of the batch."""
        x = rng.standard_normal((5, cin, 13, 18)).astype(np.float32)
        w = Tensor(rng.standard_normal((8, cin, 3, 3)).astype(np.float32))
        kw = dict(stride=stride, dilation=dilation, padding=padding)

        def dx_of(xs, g):
            with Tape() as tape:
                ops.conv2d(Tensor(xs, requires_grad=True), w, **kw)
            return tape.nodes[0].grad_fn(g)[0]

        oh, ow = ops.conv2d(Tensor(x[:1]), w, **kw).shape[2:]
        g = rng.standard_normal((5, 8, oh, ow)).astype(np.float32)
        batched = dx_of(x, g)
        for i in range(5):
            assert np.array_equal(batched[i:i + 1], dx_of(x[i:i + 1], g[i:i + 1]))

    @pytest.mark.parametrize("stride, padding", [(1, 1), (2, 1), (1, 2)])
    def test_input_without_grad_gets_no_dx_and_the_same_dw(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 9, 10)).astype(np.float32)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 4, 1, 1)).astype(np.float32), requires_grad=True)
        grads = []
        for requires_grad in (True, False):
            with Tape() as tape:
                out = ops.conv2d(Tensor(x, requires_grad=requires_grad), w, b,
                                 stride=stride, padding=padding)
            g = np.random.default_rng(1).standard_normal(out.shape).astype(np.float32)
            grads.append(tape.nodes[0].grad_fn(g))
        (dx, dw, db), (no_dx, dw_alone, db_alone) = grads
        assert dx is not None and no_dx is None
        assert np.array_equal(dw, dw_alone) and np.array_equal(db, db_alone)

    @pytest.mark.parametrize("stride, size", [(2, 8), (3, 10)])
    def test_unread_last_row_and_column_get_zero_dx(self, rng, stride, size):
        """A strided 3x3 conv without padding never reads the input's last
        row and column here; their dX is exactly zero, and no other is."""
        x = Tensor(rng.standard_normal((2, 3, size, size)), requires_grad=True, dtype=HIGH)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), dtype=HIGH)
        with Tape() as tape:
            out = ops.conv2d(x, w, stride=stride)
        assert (out.shape[2] - 1) * stride + 2 == size - 2
        (dx, _) = tape.nodes[0].grad_fn(rng.standard_normal(out.shape))
        assert not dx[:, :, -1].any() and not dx[:, :, :, -1].any()
        assert np.all(dx[:, :, :-1, :-1] != 0)

    def test_taped_conv_keeps_less_than_twice_its_operands(self, rng):
        """What a taped refine-size conv holds for backward stays near the
        size of its input, not a column matrix kh*kw times larger."""
        x = Tensor(rng.standard_normal((1, 32, 144, 240)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((32, 32, 3, 3)).astype(np.float32),
                   requires_grad=True)
        (tape, out), kept, _ = traced_peak(lambda: _taped_conv(x, w, dilation=4, padding=4))
        assert len(tape.nodes) == 1
        assert kept < 2 * (x.data.nbytes + out.data.nbytes)

    def test_taped_conv_keeps_little_more_than_its_output(self, rng):
        """Backward rebuilds the input copies from x, so a taped refine-size
        conv keeps its output and the repacked weight, no input copy."""
        x = Tensor(rng.standard_normal((1, 32, 144, 240)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((32, 32, 3, 3)).astype(np.float32),
                   requires_grad=True)
        (tape, out), kept, _ = traced_peak(lambda: _taped_conv(x, w, dilation=4, padding=4))
        assert len(tape.nodes) == 1
        assert kept < 1.25 * out.data.nbytes

    def test_taped_conv_backward_peaks_below_three_and_a_half_outputs(self, rng):
        """A taped 32->32 3x3 refine conv's backward at 96x96 frees its dW
        strip copies (2.06 MB) before dX builds its own: it peaks at about
        3.3 output maps with dX, 5.1 when the dW copies lived on."""
        x = Tensor(rng.standard_normal((1, 32, 96, 96)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((32, 32, 3, 3)).astype(np.float32),
                   requires_grad=True)
        with Tape() as tape:
            out = ops.conv2d(x, w, dilation=4, padding=4)
        g = rng.standard_normal(out.shape).astype(np.float32)
        (dx, _), _, peak = traced_peak(lambda: tape.nodes[0].grad_fn(g))
        assert dx.shape == x.shape
        assert peak < 3.5 * out.data.nbytes, peak

    def test_untaped_conv_peaks_below_three_and_a_half_outputs(self, rng):
        """An inference refine-size conv holds the phase buffer, one
        accumulator and the output at once: its scratch is freed before
        the cropped, biased output is allocated."""
        x = Tensor(rng.standard_normal((1, 32, 144, 240)).astype(np.float32))
        w = Tensor(rng.standard_normal((32, 32, 3, 3)).astype(np.float32))
        b = Tensor(rng.standard_normal((1, 32, 1, 1)).astype(np.float32))
        out, _, peak = traced_peak(lambda: ops.conv2d(x, w, b, dilation=4, padding=4))
        assert peak < 3.5 * out.data.nbytes


# (stride, dilation, padding, cin, kernel): per-kernel-row GEMMs at cin 11,
# 12 and 16, every tap in one GEMM at cin 3 and 8 and for the 1x1 kernel.
STRIP_GEOMETRIES = [(1, 1, 1, 8, 3), (1, 2, 2, 16, 3), (2, 1, 1, 16, 3),
                    (3, 1, 1, 3, 3), (1, 4, 4, 12, 3), (2, 2, 2, 11, 3), (1, 1, 0, 16, 1)]


def _split_into_strips(monkeypatch):
    """Make conv2d split a 13x18 map into several strips; returns the list
    of partitions it used."""
    monkeypatch.setattr(ops, "_STRIP_INPUT_RATIO", 0.5)
    monkeypatch.setattr(ops, "_MIN_STRIP_ELEMENTS", 0)
    seen = []
    row_strips = ops._row_strips

    def recording(*args):
        seen.append(row_strips(*args))
        return seen[-1]

    monkeypatch.setattr(ops, "_row_strips", recording)
    return seen


def _record_window_batches(monkeypatch):
    """The list that gets the batch size of each ``_kernel_row_windows``
    call."""
    batches = []
    windows = ops._kernel_row_windows

    def recording(x, *args):
        batches.append(x.shape[0])
        return windows(x, *args)

    monkeypatch.setattr(ops, "_kernel_row_windows", recording)
    return batches


class TestConvStrips:
    """conv2d in several strips of output rows, forced by a smaller budget."""

    @pytest.mark.parametrize("stride, dilation, padding, cin, k", STRIP_GEOMETRIES)
    def test_items_and_channel_blocks_bit_identical(self, rng, monkeypatch, stride,
                                                    dilation, padding, cin, k):
        seen = _split_into_strips(monkeypatch)
        x = rng.standard_normal((3, cin, 13, 18)).astype(np.float32)
        w = rng.standard_normal((16, cin, k, k)).astype(np.float32)
        b = rng.standard_normal((1, 16, 1, 1)).astype(np.float32)
        kw = dict(stride=stride, dilation=dilation, padding=padding)
        batched = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), **kw).data
        assert all(len(strips) >= 2 for strips in seen)
        for i in range(3):
            alone = ops.conv2d(Tensor(x[i:i + 1]), Tensor(w), Tensor(b), **kw).data
            assert np.array_equal(batched[i:i + 1], alone)
        # Blocks of 8 channels, like the model's weights stacked along Cout
        # (BLAS may round a 1- or 3-row GEMM differently, strips or not).
        for lo, hi in ((0, 8), (8, 16)):
            block = ops.conv2d(Tensor(x), Tensor(w[lo:hi]), Tensor(b[:, lo:hi]), **kw).data
            assert np.array_equal(batched[:, lo:hi], block)

    @pytest.mark.parametrize("stride, dilation, padding, cin, k", STRIP_GEOMETRIES)
    def test_matches_loop_oracle(self, rng, monkeypatch, stride, dilation, padding, cin, k):
        seen = _split_into_strips(monkeypatch)
        # At stride 1, KH*Cout < Cin would take kn2row instead of strips.
        cout = 4 if stride > 1 or k * 4 >= cin else cin
        x = rng.standard_normal((2, cin, 13, 18))
        w = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal((1, cout, 1, 1))
        kw = dict(stride=stride, dilation=dilation, padding=padding)
        out = ops.conv2d(Tensor(x, dtype=HIGH), Tensor(w, dtype=HIGH), Tensor(b, dtype=HIGH),
                         **kw)
        assert len(seen[0]) >= 2
        np.testing.assert_allclose(out.data, conv2d_reference(x, w, b, **kw), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride, dilation, padding, cin",
                             [(1, 1, 1, 3), (1, 2, 2, 11), (2, 1, 1, 11), (3, 1, 1, 2)])
    def test_gradients_match_finite_differences(self, monkeypatch, stride, dilation,
                                                padding, cin):
        seen = _split_into_strips(monkeypatch)
        # Cout 4 keeps the forward of the stride-1 cin-11 case on strips.
        case = _conv_case(f"strips_s{stride}_d{dilation}_c{cin}", stride, dilation, padding,
                          in_shape=(2, cin, 6, 7), cout=4)
        for result in run_case(case):
            assert result.passed, (result.param, result.max_rel_err)
        assert all(len(strips) >= 2 for strips in seen)

    @pytest.mark.parametrize("h, w, dilation, n_strips",
                             [(144, 240, 1, 4), (144, 240, 8, 5), (96, 96, 1, 2), (96, 96, 8, 2)])
    def test_strip_copies_fit_the_cap(self, rng, monkeypatch, h, w, dilation, n_strips):
        """A full-resolution refine conv's strip copies hold at most 2^20
        elements; a 96x96 map keeps the two strips its ratio gives it."""
        seen = []
        row_strips = ops._row_strips

        def recording(oh, row_elements, halo, input_elements):
            strips = row_strips(oh, row_elements, halo, input_elements)
            seen.append((len(strips), (strips[0][1] + halo) * row_elements))
            return strips

        monkeypatch.setattr(ops, "_row_strips", recording)
        x = rng.standard_normal((1, 32, h, w)).astype(np.float32)
        wgt = rng.standard_normal((32, 32, 3, 3)).astype(np.float32)
        ops.conv2d(Tensor(x), Tensor(wgt), dilation=dilation, padding=dilation)
        [(n, copies)] = seen
        assert n == n_strips and copies <= 1 << 20

    def test_batch_above_the_cap_runs_items_one_at_a_time(self, rng, monkeypatch):
        """A (4, 48, 48, 80) batch, ``matching.dec4``'s at 144x240 with 4
        levels per batch, would take 4 x 299,520 elements of strip copies,
        above 2^18: its items run one at a time, forward and dX,
        bit-identical to single items, also when the output is written over
        the residual. The dW copies take the whole batch."""
        batches = _record_window_batches(monkeypatch)
        x = rng.standard_normal((4, 48, 48, 80)).astype(np.float32)
        w = Tensor(0.1 * rng.standard_normal((48, 48, 3, 3)).astype(np.float32))
        g = rng.standard_normal(x.shape).astype(np.float32)

        def forward_and_dx(xs, gs):
            with Tape() as tape:
                out = ops.conv2d(Tensor(xs, requires_grad=True), w, padding=1)
            return out.data, tape.nodes[0].grad_fn(gs)[0]

        batched, batched_dx = forward_and_dx(x, g)
        # the forward, the dW copies, and dX
        assert batches == [1] * 4 + [4] + [1] * 4
        for i in range(4):
            alone, alone_dx = forward_and_dx(x[i:i + 1], g[i:i + 1])
            assert np.array_equal(batched[i:i + 1], alone)
            assert np.array_equal(batched_dx[i:i + 1], alone_dx)
        r = Tensor(rng.standard_normal(x.shape).astype(np.float32))
        expected = np.maximum(r.data + batched, 0)
        fused = ops.conv2d(Tensor(x), w, padding=1, residual=r, relu=True)
        assert np.shares_memory(fused.data, r.data)
        assert np.array_equal(fused.data, expected)

    @staticmethod
    def _out_dx_dw(x, w, g, **kw):
        """A conv's output, dX and dW for the output gradient g."""
        with Tape() as tape:
            out = ops.conv2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                             **kw)
        dx, dw = tape.nodes[0].grad_fn(g)
        return out.data, dx, dw

    @staticmethod
    def _level_batch(rng):
        """An (8, 24, 32, 32) batch, ``matching.dec4``'s at 96x96 with 8
        levels, its 3x3 weights and an output gradient. One item's copies
        take 78,336 elements in one strip."""
        x = rng.standard_normal((8, 24, 32, 32)).astype(np.float32)
        w = (0.1 * rng.standard_normal((24, 24, 3, 3))).astype(np.float32)
        return x, w, rng.standard_normal(x.shape).astype(np.float32)

    def test_level_batch_copies_as_many_items_as_fit(self, rng, monkeypatch):
        """8 x 78,336 elements of copies exceed 2^18, so the forward and
        dX each copy the levels in slices of 3, 3 and 2, and none of their
        shared buffers holds more than 2^18 elements; the dW copies take
        all 8 levels at once. Under a 2^20 threshold the forward and dX
        shared one 2.5 MB buffer too."""
        calls = []
        windows = ops._kernel_row_windows

        def recording(x, *args):
            calls.append((x.shape[0], args[-1].elements))
            return windows(x, *args)

        monkeypatch.setattr(ops, "_kernel_row_windows", recording)
        self._out_dx_dw(*self._level_batch(rng), padding=1)
        assert [b for b, _ in calls] == [3, 3, 2, 8, 3, 3, 2]
        # the forward's and dX's calls, around dW's
        assert max(b * elements for b, elements in calls[:3] + calls[4:]) <= 1 << 18

    def test_uneven_slices_are_bit_identical_to_single_items(self, rng, monkeypatch):
        """The 3, 3 and 2 level slices give each item's forward and dX bits
        of that item convolved alone, and forward, dX and dW equal those of
        the batch copied one item at a time."""
        x, w, g = self._level_batch(rng)
        sliced = self._out_dx_dw(x, w, g, padding=1)
        for i in range(8):
            out, dx, _ = self._out_dx_dw(x[i:i + 1], w, g[i:i + 1], padding=1)
            assert np.array_equal(sliced[0][i:i + 1], out)
            assert np.array_equal(sliced[1][i:i + 1], dx)
        monkeypatch.setattr(ops, "_batch_slices",
                            lambda b, plan: [slice(i, i + 1) for i in range(b)])
        for a, b in zip(sliced, self._out_dx_dw(x, w, g, padding=1)):
            assert np.array_equal(a, b)

    def test_level_batch_is_bit_identical_to_the_shared_buffer(self, rng, monkeypatch):
        """Forward and dX of the 3, 3 and 2 level slices equal those of
        the whole batch in one buffer, forced by a 2^20 threshold, bit for
        bit; dW copies the whole batch either way."""
        x, w, g = self._level_batch(rng)
        per_item = self._out_dx_dw(x, w, g, padding=1)
        monkeypatch.setattr(ops, "_MIN_STRIP_ELEMENTS", 1 << 20)
        assert ops._batch_slices(8, ops._strip_plan(24, 32, 32, 3, 3, 1, 1, 1)) == \
            [slice(None)]
        for a, b in zip(per_item, self._out_dx_dw(x, w, g, padding=1)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("stride, dilation, padding, cin, k", STRIP_GEOMETRIES)
    def test_shared_buffer_over_several_strips_is_bit_identical(
            self, rng, monkeypatch, stride, dilation, padding, cin, k):
        """A batch copied in several strips gives the same forward and dX
        bits one item at a time as in one shared buffer; dW copies the whole
        batch either way."""
        seen = _split_into_strips(monkeypatch)
        x = rng.standard_normal((3, cin, 13, 18)).astype(np.float32)
        w = rng.standard_normal((16, cin, k, k)).astype(np.float32)
        kw = dict(stride=stride, dilation=dilation, padding=padding)
        out = ops.conv2d(Tensor(x), Tensor(w), **kw).data
        g = rng.standard_normal(out.shape).astype(np.float32)
        per_item = self._out_dx_dw(x, w, g, **kw)
        monkeypatch.setattr(ops, "_batch_slices", lambda b, plan: [slice(None)])
        for a, b in zip(per_item, self._out_dx_dw(x, w, g, **kw)):
            assert np.array_equal(a, b)
        assert all(len(strips) >= 2 for strips in seen)


# (cin, cout, kernel, dilation, padding), stride 1 with KH*Cout < Cin:
# matching.out and refine.out (Cout 1), feature.out (1x1), and dilation 2
# at padding 0, 1 and 2.
KN2ROW_GEOMETRIES = [(32, 1, 3, 1, 1), (48, 16, 1, 1, 0), (8, 5, 1, 1, 1),
                     (16, 5, 3, 2, 2), (16, 3, 3, 2, 1), (16, 3, 3, 2, 0)]


def _record_kn2row(monkeypatch):
    """Count conv2d's kn2row calls; returns the list of their weight shapes."""
    calls = []
    kn2row = ops._kn2row

    def recording(x, weight, *args):
        calls.append(weight.shape)
        return kn2row(x, weight, *args)

    monkeypatch.setattr(ops, "_kn2row", recording)
    return calls


class TestKn2row:
    """conv2d's lowering for narrow outputs at stride 1."""

    @pytest.mark.parametrize("cin, cout, k, dilation, padding", KN2ROW_GEOMETRIES)
    def test_matches_loop_oracle(self, rng, monkeypatch, cin, cout, k, dilation, padding):
        calls = _record_kn2row(monkeypatch)
        x = rng.standard_normal((2, cin, 13, 18))
        w = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal((1, cout, 1, 1))
        kw = dict(dilation=dilation, padding=padding)
        out = ops.conv2d(Tensor(x, dtype=HIGH), Tensor(w, dtype=HIGH), Tensor(b, dtype=HIGH),
                         **kw)
        assert calls == [w.shape]
        np.testing.assert_allclose(out.data, conv2d_reference(x, w, b, **kw), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cin, cout, k, dilation, padding", KN2ROW_GEOMETRIES)
    def test_batch_items_bit_identical_to_single_items(self, rng, monkeypatch, cin, cout,
                                                       k, dilation, padding):
        calls = _record_kn2row(monkeypatch)
        x = rng.standard_normal((5, cin, 13, 18)).astype(np.float32)
        w = Tensor(rng.standard_normal((cout, cin, k, k)).astype(np.float32))
        b = Tensor(rng.standard_normal((1, cout, 1, 1)).astype(np.float32))
        kw = dict(dilation=dilation, padding=padding)
        batched = ops.conv2d(Tensor(x), w, b, **kw).data
        for i in range(5):
            alone = ops.conv2d(Tensor(x[i:i + 1]), w, b, **kw).data
            assert np.array_equal(batched[i:i + 1], alone)
        assert len(calls) == 6

    def test_wide_output_input_grads_bit_identical_to_single_items(self, rng, monkeypatch):
        """dX of a Cin-3, Cout-32 conv, like refine.head's, is a 32 -> 3
        convolution and takes kn2row."""
        calls = _record_kn2row(monkeypatch)
        x = rng.standard_normal((5, 3, 13, 18)).astype(np.float32)
        w = Tensor(rng.standard_normal((32, 3, 3, 3)).astype(np.float32))

        def dx_of(xs, g):
            with Tape() as tape:
                ops.conv2d(Tensor(xs, requires_grad=True), w, padding=1)
            return tape.nodes[0].grad_fn(g)[0]

        g = rng.standard_normal((5, 32, 13, 18)).astype(np.float32)
        batched = dx_of(x, g)
        for i in range(5):
            assert np.array_equal(batched[i:i + 1], dx_of(x[i:i + 1], g[i:i + 1]))
        assert calls == [(3, 32, 3, 3)] * 6

    def test_wide_output_gradients_match_finite_differences(self, monkeypatch):
        calls = _record_kn2row(monkeypatch)
        [case] = [c for c in op_cases() if c.name == "conv2d_cin3_cout32_kn2row_dx"]
        for result in run_case(case):
            assert result.passed, (result.param, result.max_rel_err)
        assert (3, 32, 3, 3) in calls


class TestBatchNorm:
    def _identity_stats(self, c, dtype=np.float64):
        gamma = Tensor(np.ones((1, c, 1, 1)), dtype=dtype)
        beta = Tensor(np.zeros((1, c, 1, 1)), dtype=dtype)
        rmean = Tensor(np.zeros((1, c, 1, 1)), dtype=dtype)
        rvar = Tensor(np.ones((1, c, 1, 1)), dtype=dtype)
        return gamma, beta, rmean, rvar

    def test_already_normalized_input_passes_through(self, rng):
        x = rng.standard_normal((4, 2, 8, 8))
        x -= x.mean(axis=(2, 3), keepdims=True)
        x /= x.std(axis=(2, 3), keepdims=True)
        gamma, beta, rmean, rvar = self._identity_stats(2)
        out = ops.batch_norm(Tensor(x, dtype=HIGH), gamma, beta, rmean, rvar)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_zero_gamma_gives_beta(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        gamma = Tensor(np.zeros((1, 3, 1, 1)), dtype=np.float32)
        beta = Tensor(np.full((1, 3, 1, 1), 0.25, dtype=np.float32))
        rmean = Tensor(np.zeros((1, 3, 1, 1)), dtype=np.float32)
        rvar = Tensor(np.ones((1, 3, 1, 1)), dtype=np.float32)
        out = ops.batch_norm(x, gamma, beta, rmean, rvar)
        assert np.array_equal(out.data, np.full(x.shape, 0.25, dtype=np.float32))

    def test_rejects_mixed_precision(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3)), dtype=HIGH)
        gamma = Tensor(np.ones((1, 2, 1, 1)), dtype=np.float32)
        beta = Tensor(np.zeros((1, 2, 1, 1)), dtype=np.float32)
        rmean = Tensor(np.zeros((1, 2, 1, 1)), dtype=np.float32)
        rvar = Tensor(np.ones((1, 2, 1, 1)), dtype=np.float32)
        with pytest.raises(ShapeError):
            ops.batch_norm(x, gamma, beta, rmean, rvar)

    def test_output_statistics(self, rng):
        # Population statistics of the output per item and channel.
        x = Tensor(3.0 + 2.5 * rng.standard_normal((2, 4, 16, 16)), dtype=HIGH)
        gamma, beta, rmean, rvar = self._identity_stats(4)
        out = ops.batch_norm(x, gamma, beta, rmean, rvar)
        mean = out.data.mean(axis=(2, 3))
        var = out.data.var(axis=(2, 3))
        assert np.all(np.abs(mean) < 1e-6)
        assert np.all(np.abs(var - 1.0) < 1e-4)

    def test_per_sample_statistics_decouple_items(self, rng):
        # Each batch item is normalized independently: prepending an extra
        # item must not change the result for the original one.
        x1 = rng.standard_normal((1, 3, 6, 6))
        x2 = rng.standard_normal((1, 3, 6, 6))
        gamma, beta, rmean, rvar = self._identity_stats(3)
        solo = ops.batch_norm(Tensor(x2, dtype=HIGH), gamma, beta, rmean, rvar)
        gamma2, beta2, rmean2, rvar2 = self._identity_stats(3)
        batched = ops.batch_norm(Tensor(np.concatenate([x1, x2]), dtype=HIGH),
                                 gamma2, beta2, rmean2, rvar2)
        assert np.array_equal(batched.data[1:], solo.data)

    def test_running_stats_update(self, rng):
        # The buffers move a tenth of the way toward the mean over items of
        # each item's mean and unbiased variance.
        x = rng.standard_normal((2, 1, 4, 4))
        gamma, beta, rmean, rvar = self._identity_stats(1)
        ops.batch_norm(Tensor(x, dtype=HIGH), gamma, beta, rmean, rvar)
        np.testing.assert_allclose(rmean.data.reshape(()), 0.1 * x.mean(), atol=1e-12)
        np.testing.assert_allclose(rvar.data.reshape(()),
                                   0.9 + 0.1 * (x[0].var(ddof=1) + x[1].var(ddof=1)) / 2,
                                   atol=1e-12)

    def test_rejects_empty_batch(self):
        gamma, beta, rmean, rvar = self._identity_stats(1)
        with pytest.raises(ShapeError):
            ops.batch_norm(Tensor(np.zeros((0, 1, 2, 2)), dtype=HIGH),
                           gamma, beta, rmean, rvar)


class TestBatchNormRelu:
    """``batch_norm(..., relu=True)``, one op, against the unfused chain it
    replaces: ``batch_norm_reference`` (tests/conftest.py) then ``ops.relu``."""

    # Each array of the fused op is within TOL * max|unfused| of the
    # unfused chain's: 1e-12 in float64; 1e-5 in float32, about 80 ulps at
    # the scale of the largest entry, for sums whose order changed.
    TOL = {np.float64: 1e-12, np.float32: 1e-5}

    @staticmethod
    def _step(norm_relu, dtype, batch):
        rng = np.random.default_rng(7)
        x = Tensor(3.0 + 2.0 * rng.standard_normal((batch, 5, 12, 13)),
                   requires_grad=True, dtype=dtype)
        gamma = Tensor(rng.standard_normal((1, 5, 1, 1)), requires_grad=True, dtype=dtype)
        beta = Tensor(0.3 * rng.standard_normal((1, 5, 1, 1)), requires_grad=True,
                      dtype=dtype)
        rmean = Tensor(3.0 + rng.standard_normal((1, 5, 1, 1)), dtype=dtype)
        rvar = Tensor(4.0 + rng.random((1, 5, 1, 1)), dtype=dtype)
        proj = Tensor(rng.standard_normal(x.shape), dtype=dtype)
        with Tape() as tape:
            out = norm_relu(x, gamma, beta, rmean, rvar)
            loss = ops.sum_all(ops.mul(out, proj))
        backward(loss, tape)
        return {"out": out.data, "dx": x.grad, "dgamma": gamma.grad, "dbeta": beta.grad,
                "running_mean": rmean.data, "running_var": rvar.data}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("training", [True])  # the reference's batch statistics
    def test_matches_the_unfused_chain(self, dtype, batch, training):
        fused = self._step(
            lambda x, g, b, m, v: ops.batch_norm(x, g, b, m, v, relu=True), dtype, batch)
        unfused = self._step(
            lambda x, g, b, m, v: ops.relu(batch_norm_reference(x, g, b, m, v, training)),
            dtype, batch)
        clipped = np.mean(unfused["out"] == 0)
        assert 0.2 < clipped < 0.8  # the ReLU is exercised both ways
        for key, ref in unfused.items():
            assert fused[key].dtype == dtype
            err = np.max(np.abs(fused[key] - ref))
            assert err <= self.TOL[dtype] * np.max(np.abs(ref)), (key, err)

    def test_records_one_node_and_keeps_only_its_output(self, rng):
        x = Tensor(rng.standard_normal((2, 16, 64, 64)).astype(np.float32),
                   requires_grad=True)
        gamma = Tensor(np.ones((1, 16, 1, 1), dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros((1, 16, 1, 1), dtype=np.float32), requires_grad=True)
        rmean = Tensor(np.zeros((1, 16, 1, 1), dtype=np.float32))
        rvar = Tensor(np.ones((1, 16, 1, 1), dtype=np.float32))
        with Tape() as tape:
            out, kept, peak = traced_peak(
                lambda: ops.batch_norm(x, gamma, beta, rmean, rvar, relu=True))
        assert [node.op for node in tape.nodes] == ["batch_norm"]
        assert peak < 1.1 * out.data.nbytes
        assert kept < 1.1 * out.data.nbytes

    def test_gradient_is_zero_where_the_output_is_clipped(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 6, 6)), requires_grad=True, dtype=HIGH)
        gamma = Tensor(np.ones((1, 3, 1, 1)), dtype=HIGH)
        beta = Tensor(np.zeros((1, 3, 1, 1)), dtype=HIGH)
        rmean = Tensor(np.zeros((1, 3, 1, 1)), dtype=HIGH)
        rvar = Tensor(np.ones((1, 3, 1, 1)), dtype=HIGH)
        with Tape() as tape:
            out = ops.batch_norm(x, gamma, beta, rmean, rvar, relu=True)
            loss = ops.sum_all(out)
        backward(loss, tape)
        fused, x.grad = x.grad, None
        # The clipped outputs pass no gradient: the norm alone, with the
        # output gradient zeroed where the ReLU clipped, gives the same dx.
        kept = Tensor((out.data > 0).astype(np.float64), dtype=HIGH)
        with Tape() as tape:
            loss = ops.sum_all(ops.mul(ops.batch_norm(x, gamma, beta, rmean, rvar), kept))
        backward(loss, tape)
        np.testing.assert_allclose(fused, x.grad, rtol=1e-15, atol=0)


class TestFusedEpilogue:
    """``conv2d`` and ``batch_norm`` with ``residual=`` and ``relu=True``,
    one tape node each, against the chain they replace, ``relu(add(residual,
    op(x)))``: the output and every gradient bit for bit."""

    @staticmethod
    def _run(op, leaves, proj):
        with Tape() as tape:
            out = op()
            loss = ops.sum_all(ops.mul(out, proj))
        nodes = [node.op for node in tape.nodes]
        backward(loss, tape)
        grads = {name: t.grad for name, t in leaves.items()}
        for t in leaves.values():
            t.grad = None
        return out.data, grads, nodes

    def _check(self, fused, chain, op):
        out, grads, nodes = fused
        assert nodes == [op, "mul", "sum_all"]
        assert chain[2] == [op, "add", "relu", "mul", "sum_all"]
        assert 0.2 < np.mean(out == 0) < 0.8  # the ReLU is exercised both ways
        assert np.array_equal(out, chain[0])
        for name, grad in grads.items():
            assert np.array_equal(grad, chain[1][name]), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cout, dilation", [(32, 2), (1, 1)])  # strips; kn2row
    def test_conv2d_matches_the_unfused_chain(self, rng, monkeypatch, dtype, cout, dilation):
        # Strips of two rows, so the residual is added strip by strip.
        monkeypatch.setattr(ops, "_MIN_STRIP_ELEMENTS", 1 << 11)
        calls = _record_kn2row(monkeypatch)
        x = Tensor(rng.standard_normal((2, 32, 9, 11)), requires_grad=True, dtype=dtype)
        w = Tensor(0.1 * rng.standard_normal((cout, 32, 3, 3)), requires_grad=True,
                   dtype=dtype)
        b = Tensor(0.1 * rng.standard_normal((1, cout, 1, 1)), requires_grad=True, dtype=dtype)
        r = Tensor(rng.standard_normal((2, cout, 9, 11)), requires_grad=True, dtype=dtype)
        proj = Tensor(rng.standard_normal(r.shape), dtype=dtype)
        kw = dict(dilation=dilation, padding=dilation)
        leaves = {"x": x, "w": w, "b": b, "residual": r}
        fused = self._run(lambda: ops.conv2d(x, w, b, residual=r, relu=True, **kw),
                          leaves, proj)
        chain = self._run(lambda: ops.relu(ops.add(r, ops.conv2d(x, w, b, **kw))),
                          leaves, proj)
        self._check(fused, chain, "conv2d")
        assert len(calls) == (2 if cout == 1 else 0)

    @staticmethod
    def _conv_operands(rng, cout):
        x = Tensor(rng.standard_normal((2, 32, 9, 11)).astype(np.float32))
        w = Tensor(0.1 * rng.standard_normal((cout, 32, 3, 3)).astype(np.float32))
        b = Tensor(0.1 * rng.standard_normal((1, cout, 1, 1)).astype(np.float32))
        r = rng.standard_normal((2, cout, 9, 11)).astype(np.float32)
        return x, w, b, r

    @pytest.mark.parametrize("cout, dilation", [(32, 2), (1, 1)])  # strips; kn2row
    def test_untaped_conv2d_writes_over_its_residual(self, rng, monkeypatch, cout, dilation):
        """Off a tape, the output is the residual's array, summed in place,
        bit-equal to the unfused chain run on a copy of the residual."""
        monkeypatch.setattr(ops, "_MIN_STRIP_ELEMENTS", 1 << 11)
        calls = _record_kn2row(monkeypatch)
        x, w, b, r_data = self._conv_operands(rng, cout)
        kw = dict(dilation=dilation, padding=dilation)
        chain = ops.relu(ops.add(Tensor(r_data.copy()), ops.conv2d(x, w, b, **kw)))
        r = Tensor(r_data)
        fused = ops.conv2d(x, w, b, residual=r, relu=True, **kw)
        assert np.shares_memory(fused.data, r.data)
        assert 0.2 < np.mean(fused.data == 0) < 0.8
        assert np.array_equal(fused.data, chain.data)
        assert len(calls) == (2 if cout == 1 else 0)

    @pytest.mark.parametrize("case, cout", [  # Cout 32 runs strips, Cout 1 kn2row
        ("taped", 32), ("taped", 1), ("residual_requires_grad", 32),
        ("residual_requires_grad", 1), ("residual_is_x", 32)])
    def test_conv2d_keeps_a_residual_that_is_still_read(self, rng, case, cout):
        """On a tape, with a residual that requires a gradient, or with the
        conv's own input as its residual, the residual's array is left as
        it was and the output is a new array."""
        x, w, b, r_data = self._conv_operands(rng, cout)
        if case == "residual_is_x":
            r, r_data = x, x.data.copy()
        else:
            r = Tensor(r_data.copy(), requires_grad=case == "residual_requires_grad")
        expected = ops.relu(ops.add(Tensor(r_data), ops.conv2d(x, w, b, padding=1)))
        with Tape() if case == "taped" else contextlib.nullcontext():
            out = ops.conv2d(x, w, b, residual=r, relu=True, padding=1)
        assert np.array_equal(r.data, r_data)
        assert not np.shares_memory(out.data, r.data)
        assert np.array_equal(out.data, expected.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_batch_norm_matches_the_unfused_chain(self, rng, dtype, batch):
        x = Tensor(1.0 + rng.standard_normal((batch, 5, 7, 8)), requires_grad=True,
                   dtype=dtype)
        gamma = Tensor(rng.uniform(0.5, 1.5, (1, 5, 1, 1)), requires_grad=True, dtype=dtype)
        beta = Tensor(0.1 * rng.standard_normal((1, 5, 1, 1)), requires_grad=True,
                      dtype=dtype)
        r = Tensor(rng.standard_normal(x.shape), requires_grad=True, dtype=dtype)
        proj = Tensor(rng.standard_normal(x.shape), dtype=dtype)
        leaves = {"x": x, "gamma": gamma, "beta": beta, "residual": r}

        def stats():
            return (Tensor(np.zeros((1, 5, 1, 1)), dtype=dtype),
                    Tensor(np.ones((1, 5, 1, 1)), dtype=dtype))

        fused_stats, chain_stats = stats(), stats()
        fused = self._run(lambda: ops.batch_norm(x, gamma, beta, *fused_stats, relu=True,
                                                 residual=r), leaves, proj)
        chain = self._run(lambda: ops.relu(ops.add(r, ops.batch_norm(x, gamma, beta,
                                                                     *chain_stats))),
                          leaves, proj)
        self._check(fused, chain, "batch_norm")
        for t, ref in zip(fused_stats, chain_stats):
            assert np.array_equal(t.data, ref.data)

    def test_rejects_a_residual_of_another_shape(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        with pytest.raises(ShapeError, match="residual"):
            ops.conv2d(x, w, residual=Tensor(np.zeros((1, 3, 5, 5))))
        ones = Tensor(np.ones((1, 2, 1, 1)))
        with pytest.raises(ShapeError):
            ops.batch_norm(x, ones, ones, ones, ones, residual=Tensor(np.zeros((1, 2, 4, 5))))


class TestRelu:
    def test_definition(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3))
        assert np.array_equal(ops.relu(x).data.reshape(-1), [0.0, 0.0, 2.0])

    def test_positive_identity(self, rng):
        x = Tensor(np.abs(rng.standard_normal((1, 2, 3, 3))) + 0.1)
        assert np.array_equal(ops.relu(x).data, x.data)

    def test_subgradient_zero_at_zero(self):
        from shiftstereo.tensor import Tape, backward
        x = Tensor(np.array([-1.0, 2.0]).reshape(1, 1, 1, 2), requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_all(ops.relu(x))
        backward(loss, tape)
        assert np.array_equal(x.grad.reshape(-1), [0.0, 1.0])

    def test_taped_gradient_is_upstream_times_positive_mask(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 5, 7)).astype(np.float32),
                   requires_grad=True)
        x.data[0, 0, 0, :3] = 0.0
        g = rng.standard_normal(x.shape).astype(np.float32)
        with Tape() as tape:
            out = ops.relu(x)
        (dx,) = tape.nodes[0].grad_fn(g)
        assert dx.dtype == g.dtype
        assert np.array_equal(dx, g * (x.data > 0))

    def test_untaped_relu_allocates_only_its_output(self, rng):
        x = Tensor(rng.standard_normal((1, 32, 144, 240)).astype(np.float32))
        out, _, peak = traced_peak(lambda: ops.relu(x))
        assert peak < 1.1 * out.data.nbytes


class TestAvgPool:
    def test_2x2_mean(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = ops.avg_pool(x, 2)
        assert out.data.reshape(()) == 2.5

    def test_full_extent_is_global_mean(self, rng):
        # the 7-pixel window is clipped to the map's 5 rows
        x = rng.standard_normal((1, 3, 5, 7))
        out = ops.avg_pool(Tensor(x, dtype=HIGH), 7)
        assert out.shape == (1, 3, 1, 1)
        np.testing.assert_allclose(out.data[0, :, 0, 0], x.mean(axis=(2, 3))[0])

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        out = ops.avg_pool(Tensor(x, dtype=HIGH), 4)
        assert np.array_equal(out.data, avg_pool_reference(x, 4, 4, 4, 4))

    def test_clipped_window_matches_oracle(self, rng):
        x = rng.standard_normal((2, 2, 5, 6))
        out = ops.avg_pool(Tensor(x, dtype=HIGH), 16)
        np.testing.assert_allclose(out.data, avg_pool_reference(x, 16, 16, 16, 16),
                                   atol=1e-15)

    def test_rejects_zero_window(self):
        with pytest.raises(ShapeError):
            ops.avg_pool(Tensor(np.ones((1, 1, 4, 4))), 0)

    # The feature net's two pooling branches on the full profile's 48x80
    # feature map: the 64-pixel window clipped to 48x64, and the 16-pixel one.
    @pytest.mark.parametrize("window,clipped", [(64, (48, 64)), (16, (16, 16))])
    def test_spp_shapes_bit_equal_to_strided_loop_float32(self, rng, window, clipped):
        x = rng.standard_normal((1, 32, 48, 80)).astype(np.float32)
        g = rng.standard_normal((1, 32, 48 // clipped[0], 80 // window)).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ops.avg_pool(xt, window)
        expected, expected_backward = avg_pool_strided_reference(x, *clipped, window, window)
        assert out.data.dtype == np.float32 and out.shape == g.shape
        assert np.array_equal(out.data, expected)
        (grad,) = tape.nodes[-1].grad_fn(g)
        assert np.array_equal(grad, expected_backward(g))


class TestBilinearResize:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matrix_matches_loop_oracle(self, dtype):
        sizes = list(range(1, 13)) + [16, 27, 32, 48, 80, 81, 144, 240]
        for n_in in sizes:
            for n_out in sizes:
                assert np.array_equal(ops._resize_matrix(n_in, n_out, dtype),
                                      resize_matrix_reference(n_in, n_out, dtype)), \
                    (n_in, n_out)

    def test_cached_matrix_is_read_only_and_shared(self):
        m = ops._resize_matrix(7, 12, np.dtype(np.float32))
        assert m is ops._resize_matrix(7, 12, np.dtype(np.float32))
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 2.0

    def test_same_size_is_exact_identity(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 7)).astype(np.float32))
        out = ops.bilinear_resize(x, 5, 7)
        assert np.array_equal(out.data, x.data)

    def test_constant_stays_constant(self):
        x = Tensor(np.full((1, 1, 3, 3), 4.25))
        out = ops.bilinear_resize(x, 8, 5)
        np.testing.assert_allclose(out.data, 4.25, rtol=1e-6)

    def test_hand_evaluated_2x2_to_4x4(self):
        # Half-pixel-center convention: source coordinate (i+0.5)/2 - 0.5
        # gives per-axis weights [1,0], [.75,.25], [.25,.75], [0,1].
        x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2), dtype=HIGH)
        expected = np.array([
            [0.00, 0.25, 0.75, 1.00],
            [0.50, 0.75, 1.25, 1.50],
            [1.50, 1.75, 2.25, 2.50],
            [2.00, 2.25, 2.75, 3.00],
        ])
        out = ops.bilinear_resize(x, 4, 4)
        np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-15)


class TestSoftmax:
    def test_uniform_input(self):
        x = Tensor(np.zeros((1, 5, 2, 2)))
        out = ops.softmax(x, axis=1)
        np.testing.assert_allclose(out.data, 0.2, rtol=1e-6)

    def test_hand_evaluated_distribution(self):
        logits = np.log(np.array([0.7, 0.2, 0.1])).reshape(1, 3, 1, 1)
        out = ops.softmax(Tensor(logits, dtype=HIGH), axis=1)
        np.testing.assert_allclose(out.data.reshape(-1), [0.7, 0.2, 0.1], atol=1e-12)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((1, 4, 3, 3))
        a = ops.softmax(Tensor(x, dtype=HIGH), axis=1)
        b = ops.softmax(Tensor(x + 123.0, dtype=HIGH), axis=1)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    def test_sums_to_one_and_nonnegative(self, channels, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, channels, 4, 4)) * 10, dtype=HIGH)
        p = ops.softmax(x, axis=1).data
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestLayoutOps:
    def test_concat_single_input_identity(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 2, 2)))
        assert np.array_equal(ops.concat_channels([x]).data, x.data)

    def test_concat_two_maps_slices(self, rng):
        a = Tensor(rng.standard_normal((1, 1, 3, 3)))
        b = Tensor(rng.standard_normal((1, 1, 3, 3)))
        out = ops.concat_channels([a, b])
        assert out.shape == (1, 2, 3, 3)
        assert np.array_equal(out.data[:, :1], a.data)
        assert np.array_equal(out.data[:, 1:], b.data)

    def test_concat_backward_partitions_upstream(self, rng):
        from shiftstereo.tensor import Tape, backward
        a = Tensor(rng.standard_normal((1, 2, 2, 2)), requires_grad=True, dtype=HIGH)
        b = Tensor(rng.standard_normal((1, 3, 2, 2)), requires_grad=True, dtype=HIGH)
        upstream = rng.standard_normal((1, 5, 2, 2))
        with Tape() as tape:
            out = ops.concat_channels([a, b])
            loss = ops.sum_all(ops.mul(out, Tensor(upstream, dtype=HIGH)))
        backward(loss, tape)
        assert np.array_equal(a.grad, upstream[:, :2])
        assert np.array_equal(b.grad, upstream[:, 2:])

    def test_concat_rejects_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            ops.concat_channels([Tensor(np.ones((1, 1, 2, 2))),
                                 Tensor(np.ones((1, 1, 3, 2)))])

    def test_shift_zero_is_identity(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 5)))
        assert np.array_equal(ops.shift_columns(x, 0).data, x.data)

    def test_shift_two_on_width_five(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 5)))
        out = ops.shift_columns(x, 2)
        assert np.array_equal(out.data[:, :, :, :2], np.zeros((1, 1, 2, 2)))
        assert np.array_equal(out.data[:, :, :, 2:], x.data[:, :, :, :3])

    def test_shift_boundary_cases(self, rng):
        # d = width - 1 (just below the boundary) keeps a single column;
        # d = width is the degenerate all-zero limit.
        x = Tensor(rng.standard_normal((1, 1, 2, 5)))
        almost = ops.shift_columns(x, 4)
        assert np.array_equal(almost.data[:, :, :, 4], x.data[:, :, :, 0])
        assert not almost.data[:, :, :, :4].any()
        assert np.array_equal(ops.shift_columns(x, 5).data, np.zeros_like(x.data))

    def test_shift_out_of_range_rejected(self, rng):
        x = Tensor(np.ones((1, 1, 2, 5)))
        with pytest.raises(ShapeError):
            ops.shift_columns(x, 6)
        with pytest.raises(ShapeError):
            ops.shift_columns(x, -1)

    def test_gather_columns_shifts_items_with_zero_fill(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 5)))
        out = ops.gather_columns(x, [1, 0, 1], [2, -1, 7], 6)
        assert out.shape == (3, 3, 4, 6)
        for i, (item, shift) in enumerate(((1, 2), (0, -1), (1, 7))):
            for j in range(6):
                k = j - shift
                want = x.data[item, :, :, k] if 0 <= k < 5 else np.zeros((3, 4))
                assert np.array_equal(out.data[i, :, :, j], want), (i, j)

    def test_gather_columns_edge_takes_last_column_from_second_block(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 3, 5)))
        out = ops.gather_columns(x, [0, 0, 0], [1, -1, 0], 5, edge=True)
        assert out.shape == (3, 2, 3, 5)
        assert np.array_equal(out.data[0, :, :, 1:4], x.data[0, :2, :, :3])
        assert np.array_equal(out.data[0, :, :, 4], x.data[0, 2:, :, 3])
        assert np.array_equal(out.data[1, :, :, :4], x.data[0, :2, :, 1:])
        assert not out.data[1, :, :, 4].any()  # column 5 is outside x
        assert np.array_equal(out.data[2, :, :, 4], x.data[0, 2:, :, 4])

    def test_gather_columns_backward_sums_shared_columns(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 4)), requires_grad=True, dtype=HIGH)
        g = rng.standard_normal((2, 2, 3, 3))
        with Tape() as tape:
            ops.gather_columns(x, [0, 0], [0, 1], 3)
        (grad,) = tape.nodes[-1].grad_fn(g)
        want = np.zeros_like(x.data)
        want[..., :3] += g[0]
        want[..., :2] += g[1, ..., 1:]
        np.testing.assert_allclose(grad, want, rtol=1e-15)

    def test_gather_columns_rejects_bad_rows(self):
        x = Tensor(np.ones((1, 3, 2, 3)))
        with pytest.raises(ShapeError):
            ops.gather_columns(x, [1], [0], 3)
        with pytest.raises(ShapeError):
            ops.gather_columns(x, [0, 0], [0], 3)
        with pytest.raises(ShapeError):
            ops.gather_columns(x, [0], [0], 3, edge=True)  # odd channel count

    def test_slice_channels(self, rng):
        x = Tensor(rng.standard_normal((2, 5, 3, 3)))
        assert np.array_equal(ops.slice_channels(x, 1, 4).data, x.data[:, 1:4])
        with pytest.raises(ShapeError):
            ops.slice_channels(x, 3, 3)
        with pytest.raises(ShapeError):
            ops.slice_channels(x, 0, 6)

    def test_stack_and_batch_to_channels_round_trip(self, rng):
        parts = [Tensor(rng.standard_normal((1, 1, 2, 3))) for _ in range(4)]
        stacked = ops.stack_batch(parts)
        assert stacked.shape == (4, 1, 2, 3)
        vol = ops.batch_to_channels(stacked)
        assert vol.shape == (1, 4, 2, 3)
        for i, p in enumerate(parts):
            assert np.array_equal(vol.data[0, i], p.data[0, 0])


class TestProjectionKernels:
    def test_index_expectation_uniform(self):
        p = Tensor(np.full((1, 4, 2, 2), 0.25))
        out = ops.index_expectation(p)
        np.testing.assert_allclose(out.data, 1.5, rtol=1e-6)

    def test_entropy_uniform_is_log_n(self):
        p = Tensor(np.full((1, 8, 2, 2), 0.125), dtype=HIGH)
        out = ops.channel_entropy(p)
        np.testing.assert_allclose(out.data, np.log(8), atol=1e-12)

    def test_entropy_handles_exact_zero(self):
        p = np.zeros((1, 3, 1, 1))
        p[0, 0] = 1.0
        out = ops.channel_entropy(Tensor(p, dtype=HIGH))
        assert out.data.reshape(()) == 0.0

    def test_entropy_hand_case(self):
        p = Tensor(np.array([0.7, 0.2, 0.1]).reshape(1, 3, 1, 1), dtype=HIGH)
        expected = -(0.7 * np.log(0.7) + 0.2 * np.log(0.2) + 0.1 * np.log(0.1))
        np.testing.assert_allclose(ops.channel_entropy(p).data.reshape(()),
                                   expected, atol=1e-12)

"""Forward-kernel oracles: hand-evaluated fixtures and naive-loop references."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (avg_pool_reference, avg_pool_strided_reference, conv2d_reference,
                      resize_matrix_reference)
from shiftstereo import ops
from shiftstereo.errors import ShapeError
from shiftstereo.tensor import HIGH, Tape, Tensor


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

    def test_taped_conv_keeps_less_than_twice_its_operands(self, rng):
        """What a taped refine-size conv holds for backward stays near the
        size of its input, not a column matrix kh*kw times larger."""
        x = Tensor(rng.standard_normal((1, 32, 144, 240)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((32, 32, 3, 3)).astype(np.float32),
                   requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ops.conv2d(x, w, dilation=4, padding=4)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 1
        assert kept < 2 * (x.data.nbytes + out.data.nbytes)

    def test_untaped_conv_peaks_below_three_and_a_half_outputs(self, rng):
        """An inference refine-size conv holds the phase buffer, one
        accumulator and the output at once: its scratch is freed before
        the cropped, biased output is allocated."""
        x = Tensor(rng.standard_normal((1, 32, 144, 240)).astype(np.float32))
        w = Tensor(rng.standard_normal((32, 32, 3, 3)).astype(np.float32))
        b = Tensor(rng.standard_normal((1, 32, 1, 1)).astype(np.float32))
        tracemalloc.start()
        try:
            out = ops.conv2d(x, w, b, dilation=4, padding=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * out.data.nbytes


class TestBatchNorm:
    def _identity_stats(self, c, dtype=np.float64):
        gamma = Tensor(np.ones((1, c, 1, 1)), dtype=dtype)
        beta = Tensor(np.zeros((1, c, 1, 1)), dtype=dtype)
        rmean = Tensor(np.zeros((1, c, 1, 1)), dtype=dtype)
        rvar = Tensor(np.ones((1, c, 1, 1)), dtype=dtype)
        return gamma, beta, rmean, rvar

    def test_already_normalized_input_passes_through(self, rng):
        x = rng.standard_normal((4, 2, 8, 8))
        x -= x.mean(axis=(0, 2, 3), keepdims=True)
        x /= x.std(axis=(0, 2, 3), keepdims=True)
        gamma, beta, rmean, rvar = self._identity_stats(2)
        out = ops.batch_norm(Tensor(x, dtype=HIGH), gamma, beta, rmean, rvar,
                             training=True)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_zero_gamma_gives_beta(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        gamma = Tensor(np.zeros((1, 3, 1, 1)), dtype=np.float32)
        beta = Tensor(np.full((1, 3, 1, 1), 0.25, dtype=np.float32))
        rmean = Tensor(np.zeros((1, 3, 1, 1)), dtype=np.float32)
        rvar = Tensor(np.ones((1, 3, 1, 1)), dtype=np.float32)
        out = ops.batch_norm(x, gamma, beta, rmean, rvar, training=True)
        assert np.array_equal(out.data, np.full(x.shape, 0.25, dtype=np.float32))

    def test_rejects_mixed_precision(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3)), dtype=HIGH)
        gamma = Tensor(np.ones((1, 2, 1, 1)), dtype=np.float32)
        beta = Tensor(np.zeros((1, 2, 1, 1)), dtype=np.float32)
        rmean = Tensor(np.zeros((1, 2, 1, 1)), dtype=np.float32)
        rvar = Tensor(np.ones((1, 2, 1, 1)), dtype=np.float32)
        with pytest.raises(ShapeError):
            ops.batch_norm(x, gamma, beta, rmean, rvar, training=True)

    def test_output_statistics(self, rng):
        # Population statistics of the training-mode output per channel.
        x = Tensor(3.0 + 2.5 * rng.standard_normal((2, 4, 16, 16)), dtype=HIGH)
        gamma, beta, rmean, rvar = self._identity_stats(4)
        out = ops.batch_norm(x, gamma, beta, rmean, rvar, training=True)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) < 1e-6)
        assert np.all(np.abs(var - 1.0) < 1e-4)

    def test_per_sample_statistics_decouple_items(self, rng):
        # Each batch item is normalized independently: prepending an extra
        # item must not change the result for the original one.
        x1 = rng.standard_normal((1, 3, 6, 6))
        x2 = rng.standard_normal((1, 3, 6, 6))
        gamma, beta, rmean, rvar = self._identity_stats(3)
        solo = ops.batch_norm(Tensor(x2, dtype=HIGH), gamma, beta, rmean, rvar,
                              training=True, per_sample=True)
        gamma2, beta2, rmean2, rvar2 = self._identity_stats(3)
        batched = ops.batch_norm(Tensor(np.concatenate([x1, x2]), dtype=HIGH),
                                 gamma2, beta2, rmean2, rvar2,
                                 training=True, per_sample=True)
        assert np.array_equal(batched.data[1:], solo.data)

    def test_inference_uses_running_stats(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3)), dtype=HIGH)
        gamma, beta, rmean, rvar = self._identity_stats(2)
        rmean.data[:] = 1.0
        rvar.data[:] = 4.0
        out = ops.batch_norm(x, gamma, beta, rmean, rvar, training=False)
        np.testing.assert_allclose(out.data, (x.data - 1.0) / np.sqrt(4.0 + 1e-5))

    def test_running_stats_update(self, rng):
        x = rng.standard_normal((2, 1, 4, 4))
        gamma, beta, rmean, rvar = self._identity_stats(1)
        ops.batch_norm(Tensor(x, dtype=HIGH), gamma, beta, rmean, rvar,
                       training=True, momentum=0.1)
        np.testing.assert_allclose(rmean.data.reshape(()), 0.1 * x.mean(), atol=1e-12)
        np.testing.assert_allclose(rvar.data.reshape(()),
                                   0.9 + 0.1 * x.var(ddof=1), atol=1e-12)

    def test_rejects_empty_batch(self):
        gamma, beta, rmean, rvar = self._identity_stats(1)
        with pytest.raises(ShapeError):
            ops.batch_norm(Tensor(np.zeros((0, 1, 2, 2)), dtype=HIGH),
                           gamma, beta, rmean, rvar, training=True)


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
        tracemalloc.start()
        try:
            out = ops.relu(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * out.data.nbytes


class TestAvgPool:
    def test_2x2_mean(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = ops.avg_pool(x, 2, 2, 2, 2)
        assert out.data.reshape(()) == 2.5

    def test_full_extent_is_global_mean(self, rng):
        x = rng.standard_normal((1, 3, 5, 7))
        out = ops.avg_pool(Tensor(x, dtype=HIGH), 5, 7, 5, 7)
        np.testing.assert_allclose(out.data[0, :, 0, 0], x.mean(axis=(2, 3))[0])

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        out = ops.avg_pool(Tensor(x, dtype=HIGH), 4, 4, 4, 4)
        assert np.array_equal(out.data, avg_pool_reference(x, 4, 4, 4, 4))

    def test_clipped_window_matches_oracle(self, rng):
        x = rng.standard_normal((2, 2, 5, 6))
        out = ops.avg_pool(Tensor(x, dtype=HIGH), 16, 16, 16, 16)
        np.testing.assert_allclose(out.data, avg_pool_reference(x, 16, 16, 16, 16),
                                   atol=1e-15)

    def test_rejects_zero_window(self):
        with pytest.raises(ShapeError):
            ops.avg_pool(Tensor(np.ones((1, 1, 4, 4))), 0, 2, 1, 1)

    # The feature net's two pooling branches on the full profile's 48x80
    # feature map: the 64-pixel window clipped to 48x64, and the 16-pixel one.
    @pytest.mark.parametrize("window,clipped", [(64, (48, 64)), (16, (16, 16))])
    def test_spp_shapes_bit_equal_to_strided_loop_float32(self, rng, window, clipped):
        x = rng.standard_normal((1, 32, 48, 80)).astype(np.float32)
        g = rng.standard_normal((1, 32, 48 // clipped[0], 80 // window)).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ops.avg_pool(xt, window, window, window, window)
        expected, expected_backward = avg_pool_strided_reference(x, *clipped, window, window)
        assert out.data.dtype == np.float32 and out.shape == g.shape
        assert np.array_equal(out.data, expected)
        (grad,) = tape.nodes[-1].grad_fn(g)
        assert np.array_equal(grad, expected_backward(g))

    def test_overlapping_windows_gradient_matches_strided_loop(self, rng):
        x = rng.standard_normal((2, 3, 9, 11))
        g = rng.standard_normal((2, 3, 4, 4))
        xt = Tensor(x, requires_grad=True, dtype=HIGH)
        with Tape() as tape:
            out = ops.avg_pool(xt, 3, 4, 2, 2)
        expected, expected_backward = avg_pool_strided_reference(x, 3, 4, 2, 2)
        assert np.array_equal(out.data, expected)
        (grad,) = tape.nodes[-1].grad_fn(g)
        np.testing.assert_allclose(grad, expected_backward(g), rtol=1e-15, atol=1e-15)


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

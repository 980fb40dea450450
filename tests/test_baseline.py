"""Hand-crafted SSD cost, winner-take-all, and the resource estimator."""

import numpy as np
import pytest

from conftest import LEVEL_BATCHES, set_level_batch, ssd_reference
from shiftstereo import baseline, model, ops
from shiftstereo.errors import ShapeError
from shiftstereo.tensor import HIGH, Tensor


class TestSsdCost:
    def test_identical_maps_zero_cost(self, rng):
        f = Tensor(rng.standard_normal((1, 3, 6, 8)), dtype=HIGH)
        out = baseline.ssd_cost(f, f, 0, baseline.SsdConfig(patch_radius=2))
        assert np.array_equal(out.data, np.zeros((1, 1, 6, 8)))

    def test_radius_zero_is_pointwise_squared_distance(self, rng):
        fl = Tensor(rng.standard_normal((1, 2, 4, 5)), dtype=HIGH)
        fr = Tensor(rng.standard_normal((1, 2, 4, 5)), dtype=HIGH)
        out = baseline.ssd_cost(fl, fr, 0, baseline.SsdConfig(patch_radius=0))
        diff = fl.data - fr.data
        np.testing.assert_allclose(out.data[:, 0], (diff * diff).sum(axis=1), atol=1e-15)

    def test_matches_triple_loop_reference(self, rng):
        fl = rng.standard_normal((1, 2, 7, 9))
        fr = rng.standard_normal((1, 2, 7, 9))
        for d in (0, 2, 5):
            out = baseline.ssd_cost(Tensor(fl, dtype=HIGH), Tensor(fr, dtype=HIGH),
                                    d, baseline.SsdConfig(patch_radius=1))
            np.testing.assert_allclose(out.data, ssd_reference(fl, fr, d, 1),
                                       atol=1e-10)

    def test_non_negative_and_zero_iff_match(self, rng):
        fl = rng.standard_normal((1, 1, 5, 6))
        fr = fl.copy()
        fr[0, 0, 2, 3] += 1.0
        out = baseline.ssd_cost(Tensor(fl, dtype=HIGH), Tensor(fr, dtype=HIGH), 0,
                                baseline.SsdConfig(patch_radius=1))
        assert np.all(out.data >= 0)
        # cost is zero exactly where the patch avoids the perturbed pixel
        touched = np.zeros((5, 6), bool)
        touched[1:4, 2:5] = True
        assert np.all(out.data[0, 0][touched] > 0)
        assert np.all(out.data[0, 0][~touched] == 0)

    def test_rejects_out_of_range_shift(self, rng):
        f = Tensor(rng.standard_normal((1, 1, 3, 4)), dtype=HIGH)
        with pytest.raises(ShapeError):
            baseline.ssd_cost(f, f, 4, baseline.SsdConfig())
        with pytest.raises(ShapeError):
            baseline.ssd_cost(f, f, -1, baseline.SsdConfig())


class TestWta:
    def test_one_hot_minimum(self):
        volume = np.ones((1, 5, 3, 3))
        volume[0, 2] = 0.0
        out = baseline.wta_disparity(Tensor(volume))
        assert out.dtype == np.float32
        assert np.array_equal(out, np.full((3, 3), 2.0))

    def test_all_equal_ties_to_zero(self):
        out = baseline.wta_disparity(Tensor(np.ones((1, 4, 2, 2))))
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_agrees_with_soft_argmin_on_dominant_volumes(self, rng):
        costs = rng.uniform(50, 60, (1, 6, 4, 4))
        winners = rng.integers(0, 6, (4, 4))
        for y in range(4):
            for x in range(4):
                costs[0, winners[y, x], y, x] = 0.0
        volume = Tensor(costs, dtype=HIGH)
        hard = baseline.wta_disparity(volume)
        soft = model.project(volume)[0].data[0, 0]
        assert np.array_equal(hard, winners.astype(np.float64))
        np.testing.assert_allclose(soft, hard, atol=1e-3)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_recovers_constructed_integer_shift(self, k, rng):
        """Right view built by shifting the left k columns; WTA over the
        raw-intensity SSD volume must return k wherever a true
        correspondence and a full patch exist."""
        h, w, levels, radius = 20, 40, 12, 1
        left = rng.random((h, w))
        right = np.zeros_like(left)
        right[:, :w - k] = left[:, k:]
        cfg = baseline.SsdConfig(patch_radius=radius)
        volume = baseline.build_ssd_volume(Tensor(left[None, None], dtype=HIGH),
                                           Tensor(right[None, None], dtype=HIGH),
                                           levels, cfg)
        wta = baseline.wta_disparity(volume)
        interior = wta[:, k + radius:]
        assert np.all(interior == k)


class TestResources:
    def test_single_conv_hand_count(self):
        assert baseline.conv_flops(3, 2, 4, 8, 8) == 9216

    def test_sequential_peak_formula(self):
        cfg = model.ModelConfig.full(max_disparity=192)
        report = baseline.estimate_resources(cfg, 540, 960)
        assert model.levels_per_batch(cfg, 180, 320) == 1
        assert list(report.peak_elements) == ["matching_batch"]
        assert report.peak_elements["matching_batch"] == 180 * 320 * 64 == 3_686_400

    @pytest.mark.parametrize("profile,height,width,levels_per_batch", [
        ("full", 144, 240, 2), ("tiny", 96, 96, 8)])
    def test_matching_batch_peak_counts_each_level_of_a_batch(
            self, profile, height, width, levels_per_batch):
        cfg = (model.ModelConfig.tiny(max_disparity=24) if profile == "tiny"
               else model.ModelConfig.full(max_disparity=48))
        report = baseline.estimate_resources(cfg, height, width)
        one_level = (height // 3) * (width // 3) * 2 * cfg.feature_channels
        assert report.peak_elements["matching_batch"] == levels_per_batch * one_level

    def test_params_agree_with_model_audit(self):
        cfg = model.ModelConfig.tiny()
        report = baseline.estimate_resources(cfg, 96, 96)
        assert report.params == model.count_parameters(cfg)

    def test_flops_scale_with_levels(self):
        cfg24 = model.ModelConfig.tiny(max_disparity=24)
        cfg48 = model.ModelConfig.tiny(max_disparity=48)
        r24 = baseline.estimate_resources(cfg24, 96, 96)
        r48 = baseline.estimate_resources(cfg48, 96, 96)
        assert r24.conv_flops["matching_per_level"] == r48.conv_flops["matching_per_level"]
        assert r48.conv_flops["matching_all_levels"] == \
            2 * r24.conv_flops["matching_all_levels"]

    def test_report_serializations(self):
        report = baseline.estimate_resources(model.ModelConfig.tiny(), 96, 96)
        text = report.text_table()
        assert "matching_batch" in text and "(H/3)(W/3)(2F)" in text
        kv = report.kv_lines()
        assert any(line.startswith("peak_elements_matching_batch=") for line in kv)
        assert any(line.startswith("params_total=") for line in kv)

    def test_rejects_bad_extents(self):
        with pytest.raises(ShapeError):
            baseline.estimate_resources(model.ModelConfig.tiny(), 0, 96)

    # params_total, conv_flops_total, aux_flops and the matching-batch peak of
    # the benchmark's two workloads, as the stride-3 rule gave them; aux_flops
    # counts no bias add for matching.out, one output element per level
    @pytest.mark.parametrize("profile,height,width,figures", [
        ("tiny", 96, 96, (310_329, 1_409_159_168, 17_187_584, 262_144)),
        ("full", 144, 240, (1_123_121, 16_563_503_104, 140_922_624, 491_520))])
    def test_benchmark_extents_keep_their_figures(self, profile, height, width, figures):
        make = model.ModelConfig.tiny if profile == "tiny" else model.ModelConfig.full
        cfg = make(in_channels=1, max_disparity=24 if profile == "tiny" else 48)
        report = baseline.estimate_resources(cfg, height, width)
        assert (report.params["total"], report.conv_flops["total"], report.aux_flops,
                report.peak_elements["matching_batch"]) == figures

    def test_a_refine_block_adds_13_aux_flops_per_output_element(self):
        """conv1: bias, norm, ReLU; conv2: bias, norm; the skip: sum, ReLU."""
        cfg = model.ModelConfig.tiny()
        more = model.ModelConfig.tiny(refine_blocks=cfg.refine_blocks + (2,))
        added = (baseline.estimate_resources(more, 48, 60).aux_flops
                 - baseline.estimate_resources(cfg, 48, 60).aux_flops)
        assert added == 13 * cfg.refine_channels * 48 * 60

    @pytest.mark.parametrize("height,width,max_disparity", [
        (20, 20, 24),    # 7x7 features, below the matching net's 16x16
        (8, 96, 24),     # 3x32 features: 16 feature rows need 46 image rows
        (45, 96, 24),    # 15x32 features
        (96, 48, 60)])   # 20 levels on 16 feature columns
    def test_refuses_the_extents_the_model_refuses(self, rng, height, width,
                                                   max_disparity):
        cfg = model.ModelConfig.tiny(max_disparity=max_disparity)
        with pytest.raises(ShapeError):
            baseline.estimate_resources(cfg, height, width)
        weights = model.ModelWeights.initialize(cfg, seed=0)
        image = Tensor(rng.standard_normal((1, 1, height, width)).astype(np.float32))
        with pytest.raises(ShapeError):
            model.forward_tensors(image, image, weights, cfg)


class TestConvMacsMatchWhatRuns:
    """``estimate_resources`` conv flops equal twice the multiply-accumulates
    of the conv2d calls one forward pass actually makes."""

    # Eleven pools: feature.spp10 and feature.spp11 run on the 2x2 pool's
    # grid, not on the first pool's.
    ELEVEN_POOLS = dict(spp_pools=((16, 4),) + ((2, 4),) * 10)

    # feature widths 16 (even) and 19 / 17 (odd)
    @pytest.mark.parametrize("profile,height,width", [
        ("tiny", 48, 48), ("tiny", 51, 57), ("full", 48, 48), ("full", 48, 51),
        ("tiny-11-pools", 96, 96)])
    @pytest.mark.parametrize("level_batch", LEVEL_BATCHES)
    def test_estimate_equals_counted_macs(self, monkeypatch, profile, height, width,
                                          level_batch):
        make = model.ModelConfig.full if profile == "full" else model.ModelConfig.tiny
        cfg = make(max_disparity=12,
                   **(self.ELEVEN_POOLS if profile == "tiny-11-pools" else {}))
        weights = model.ModelWeights.initialize(cfg, seed=0)
        macs = []
        conv2d = ops.conv2d

        def counting(x, weight, *args, **kwargs):
            out = conv2d(x, weight, *args, **kwargs)
            b, cout, oh, ow = out.shape
            _, cin, kh, kw = weight.shape
            macs.append(b * cout * oh * ow * cin * kh * kw)
            return out

        monkeypatch.setattr(ops, "conv2d", counting)
        set_level_batch(monkeypatch, level_batch)
        rng = np.random.default_rng(0)
        left, right = (Tensor(rng.standard_normal((1, cfg.in_channels, height, width))
                              .astype(np.float32)) for _ in range(2))
        model.forward_tensors(left, right, weights, cfg)
        report = baseline.estimate_resources(cfg, height, width)
        assert 2 * sum(macs) == report.conv_flops["total"]

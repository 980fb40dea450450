"""Network wiring, displacement invariance, projection oracles, refinement."""

import weakref

import numpy as np
import pytest

from conftest import (LEVEL_BATCHES, batch_norm_reference, refine_unfused, set_level_batch,
                      traced_peak)
from shiftstereo import model, ops
from shiftstereo.errors import ConfigError, ShapeError
from shiftstereo.gradcheck import CheckCase, run_case
from shiftstereo.tensor import HIGH, Tape, Tensor, backward


def tiny_weights(seed=0, **overrides):
    cfg = model.ModelConfig.tiny(**overrides)
    return cfg, model.ModelWeights.initialize(cfg, seed=seed)


def random_image(rng, h, w, c=1):
    return Tensor(rng.standard_normal((1, c, h, w)).astype(np.float32))


def cost_volume(fl, fr, weights, cfg, **kwargs):
    """``model.build_cost_volume`` with the pair blocks of ``weights``."""
    return model.build_cost_volume(fl, fr, weights, cfg, **kwargs,
                                   **model.pair_blocks(weights, cfg, fl.shape[3]))


def record_convs(monkeypatch):
    """Record every conv of the stages (``extract_features``,
    ``build_cost_volume``, ``refine``) as (layer, block, (stride, dilation,
    padding), output extent). A conv's layer is the ``<layer>.w`` key under
    which an argument of its stage holds the weight, None if none does;
    block is the keyword that passed that argument (``right_block`` and so
    on), None for a positional one."""
    named, convs = {}, []
    real_conv = ops.conv2d

    def stage(fn):
        def wrapper(*args, **kwargs):
            for block, arg in [(None, arg) for arg in args] + list(kwargs.items()):
                for key, t in getattr(arg, "params", {}).items():
                    if key.endswith(".w"):
                        named[id(t)] = (key[:-2], block)
            return fn(*args, **kwargs)
        return wrapper

    def conv2d(x, weight, *args, stride=1, dilation=1, padding=0, **kwargs):
        out = real_conv(x, weight, *args, stride=stride, dilation=dilation,
                        padding=padding, **kwargs)
        convs.append((*named.get(id(weight), (None, None)), (stride, dilation, padding),
                      out.shape[2:]))
        return out

    for name in ("extract_features", "build_cost_volume", "refine"):
        monkeypatch.setattr(model, name, stage(getattr(model, name)))
    monkeypatch.setattr(ops, "conv2d", conv2d)
    return convs


class TestConfig:
    def test_levels(self):
        assert model.ModelConfig.tiny(max_disparity=24).levels == 8

    def test_rejects_non_multiple_of_three(self):
        with pytest.raises(ConfigError):
            model.ModelConfig.tiny(max_disparity=25)

    def test_rejects_bad_channel_list(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(matching_channels=(8, 16, 32))

    @pytest.mark.parametrize("overrides", [
        dict(spp_pools=((16,), (8,))), dict(spp_pools=((16, 16, 3), (8, 16, 2))),
        dict(spp_pools=((0, 16), (8, 16))), dict(spp_pools=((16, 16), (8, 0))),
        dict(feature_channels=0), dict(matching_channels=(0, 32, 48, 64)),
        dict(refine_channels=-1), dict(refine_blocks=(1, 0, 4))],
        ids=["pool singles", "pool triples", "pool window 0", "pool branch 0",
             "feature 0", "matching 0", "refine -1", "rate 0"])
    def test_rejects_malformed_pools_and_sizes_below_one(self, overrides):
        """A zero matching width used to stop ``initialize`` with a
        ZeroDivisionError, and pools that are not pairs the layout with a
        bare ValueError."""
        with pytest.raises(ConfigError):
            model.ModelConfig.tiny(**overrides)

    def test_round_trips_through_dict(self):
        cfg = model.ModelConfig.tiny(max_disparity=48)
        assert model.ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestParameterAudit:
    def test_tiny_counts_match_hand_arithmetic(self):
        # A normed conv has a kernel and the norm's gamma and beta, no bias.
        # feature: down + 3 dilated + 2 branch 1x1 + fuse + bare out with bias
        feature = (1 * 16 * 9 + 32) \
            + 3 * (16 * 16 * 9 + 32) \
            + 2 * (16 * 16 * 1 + 32) \
            + (48 * 48 * 9 + 96) \
            + (48 * 16 * 1 + 16)
        # matching: 4 strided+filter encoder pairs, 4 decoder convs, bare out
        # without bias (the softmax over levels cancels it)
        matching = (32 * 24 * 9 + 48) + (24 * 24 * 9 + 48) \
            + (24 * 32 * 9 + 64) + (32 * 32 * 9 + 64) \
            + (32 * 48 * 9 + 96) + (48 * 48 * 9 + 96) \
            + (48 * 64 * 9 + 128) + (64 * 64 * 9 + 128) \
            + ((64 + 48) * 48 * 9 + 96) + ((48 + 32) * 32 * 9 + 64) \
            + ((32 + 24) * 24 * 9 + 48) + ((24 + 32) * 24 * 9 + 48) \
            + (24 * 1 * 9)
        # refine: head + 3 blocks of two convs + bare out with bias
        refine = (3 * 32 * 9 + 64) + 6 * (32 * 32 * 9 + 64) \
            + (32 * 1 * 9 + 1)
        counts = model.count_parameters(model.ModelConfig.tiny())
        assert counts["feature"] == feature
        assert counts["matching"] == matching
        assert counts["refine"] == refine
        assert counts["total"] == feature + matching + refine

    def test_full_counts_match_hand_arithmetic(self):
        counts = model.count_parameters(model.ModelConfig.full())
        assert counts["feature"] == 117_184
        assert counts["matching"] == 893_936
        assert counts["refine"] == 113_153
        # same order as the published 1.16M matching-net figure
        assert 0.5e6 < counts["matching"] < 2.0e6

    def test_parameter_count_independent_of_max_disparity(self):
        c24 = model.count_parameters(model.ModelConfig.tiny(max_disparity=24))
        c48 = model.count_parameters(model.ModelConfig.tiny(max_disparity=48))
        assert c24 == c48

    def test_initialize_matches_audit(self):
        cfg, weights = tiny_weights()
        total = sum(p.data.size for p in weights.params.values())
        assert total == model.count_parameters(cfg)["total"]


class TestFeatureNet:
    def test_output_shape_follows_stride3_rule(self, rng):
        cfg, weights = tiny_weights()
        for h, w in ((96, 96), (97, 100), (51, 66)):
            f = model.extract_features(random_image(rng, h, w), weights, cfg)
            assert f.shape == (1, cfg.feature_channels, -(-h // 3), -(-w // 3))

    def test_deterministic(self, rng):
        cfg, weights = tiny_weights()
        img = random_image(rng, 48, 51)
        a = model.extract_features(img, weights, cfg)
        b = model.extract_features(img, weights, cfg)
        assert np.array_equal(a.data, b.data)

    def test_exactly_eight_convolutions(self, rng):
        cfg, weights = tiny_weights()
        with Tape() as tape:
            model.extract_features(random_image(rng, 48, 48), weights, cfg)
        assert sum(node.op == "conv2d" for node in tape.nodes) == 8

    def test_rejects_tiny_images(self, rng):
        cfg, weights = tiny_weights()
        with pytest.raises(ShapeError):
            model.extract_features(random_image(rng, 8, 40), weights, cfg)

    def test_rejects_channel_mismatch(self, rng):
        cfg, weights = tiny_weights()
        with pytest.raises(ShapeError):
            model.extract_features(random_image(rng, 48, 48, c=3), weights, cfg)


class TestShiftFeatures:
    def test_identity_at_zero(self, rng):
        f = Tensor(rng.standard_normal((1, 4, 3, 5)).astype(np.float32))
        assert np.array_equal(ops.shift_columns(f, 0).data, f.data)

    def test_shift_two_on_width_five(self, rng):
        f = Tensor(rng.standard_normal((1, 2, 3, 5)).astype(np.float32))
        out = ops.shift_columns(f, 2)
        assert not out.data[:, :, :, :2].any()
        assert np.array_equal(out.data[:, :, :, 2:], f.data[:, :, :, :3])


class TestMatchingNet:
    def test_cost_map_shape(self, rng):
        cfg, weights = tiny_weights()
        fl = model.extract_features(random_image(rng, 96, 96), weights, cfg)
        fr = model.extract_features(random_image(rng, 96, 96), weights, cfg)
        volume = cost_volume(fl, fr, weights, cfg)
        assert volume.data[:, :1].shape == (1, 1, 32, 32)

    def test_pure_function_of_inputs(self, rng):
        # identical inputs in two separate calls produce bit-identical cost maps
        cfg, weights = tiny_weights()
        fl = model.extract_features(random_image(rng, 48, 48), weights, cfg)
        fr = model.extract_features(random_image(rng, 48, 48), weights, cfg)
        a = cost_volume(fl, fr, weights, cfg)
        b = cost_volume(fl, fr, weights, cfg)
        assert np.array_equal(a.data, b.data)

    def test_rejects_sub_16_extent(self, rng):
        cfg, weights = tiny_weights()
        fl = Tensor(rng.standard_normal((1, 16, 15, 20)).astype(np.float32))
        with pytest.raises(ShapeError):
            cost_volume(fl, fl, weights, cfg)

    def test_layer_by_layer_replay_oracle(self, rng):
        """Re-execute the matching net layer list step by step with raw ops,
        assembling each shifted pair term with numpy slices by the edge
        rules of ``model._pair_terms``, and compare against the packaged
        forward, at an even and an odd feature width."""
        for width in (16, 17):
            self._replay(rng, width)

    @staticmethod
    def _replay(rng, width):
        cfg, weights = tiny_weights()
        f, m0 = cfg.feature_channels, cfg.matching_channels[0]
        fl = Tensor(rng.standard_normal((1, f, 16, width)).astype(np.float32))
        fr = Tensor(rng.standard_normal((1, f, 16, width)).astype(np.float32))

        def norm_relu(y, name):
            y = ops.batch_norm(y, weights.params[name + ".gamma"],
                               weights.params[name + ".beta"])
            return ops.relu(y)

        def conv_bn_relu(x, name):
            spec = weights.specs[name]
            y = ops.conv2d(x, weights.params[name + ".w"], stride=spec.stride,
                           dilation=spec.dilation, padding=spec.padding)
            return norm_relu(y, name)

        def blocks(name, *bounds):
            w = weights.params[name + ".w"].data
            return [Tensor(w[:, a:b]) for a, b in zip(bounds[:-1], bounds[1:])]

        def masked(w):
            data = w.data.copy()
            data[..., -1] = 0
            return Tensor(data)

        w1_l, w1_r = blocks("matching.enc1", 0, f, 2 * f)
        w4_x, w4_l, w4_r = blocks("matching.dec4", 0, m0, m0 + f, m0 + 2 * f)
        shifted = Tensor(np.pad(fr.data, ((0, 0), (0, 0), (0, 0), (1, 0)))[..., :width])
        widened = Tensor(np.pad(fr.data, ((0, 0), (0, 0), (0, 0), (1, 0))))
        phases = [ops.conv2d(x, w, stride=2, padding=1).data
                  for w in (w1_r, masked(w1_r)) for x in (fr, shifted)]
        wide, wide_masked = (ops.conv2d(widened, w, padding=1).data
                             for w in (w4_r, masked(w4_r)))
        enc1_left = ops.conv2d(fl, w1_l, stride=2, padding=1)
        dec4_left = ops.conv2d(fl, w4_l, padding=1)
        volume = cost_volume(fl, fr, weights, cfg)

        for d in (0, 1, 4, 7):
            e, p = divmod(d, 2)
            w2 = enc1_left.shape[3]
            enc1_right = np.zeros_like(enc1_left.data)
            enc1_right[..., e:] = phases[p][..., :w2 - e]
            if width % 2:
                enc1_right[..., -1] = phases[2 + p][..., w2 - 1 - e]
            dec4_right = np.zeros_like(dec4_left.data)
            dec4_right[..., max(d - 1, 0):width - 1] = wide[..., max(1 - d, 0):width - d]
            dec4_right[..., -1] = wide_masked[..., width - d]

            e1 = norm_relu(ops.add(enc1_left, Tensor(enc1_right)), "matching.enc1")
            f1 = conv_bn_relu(e1, "matching.filt1")
            e2 = conv_bn_relu(f1, "matching.enc2")
            f2 = conv_bn_relu(e2, "matching.filt2")
            e3 = conv_bn_relu(f2, "matching.enc3")
            f3 = conv_bn_relu(e3, "matching.filt3")
            e4 = conv_bn_relu(f3, "matching.enc4")
            x = conv_bn_relu(e4, "matching.filt4")
            for i, skip in enumerate((f3, f2, f1), 1):
                x = ops.bilinear_resize(x, skip.shape[2], skip.shape[3])
                x = conv_bn_relu(ops.concat_channels([x, skip]), f"matching.dec{i}")
            x = ops.conv2d(ops.bilinear_resize(x, 16, width), w4_x, padding=1)
            x = norm_relu(ops.add(ops.add(x, dec4_left), Tensor(dec4_right)),
                          "matching.dec4")
            replay = ops.conv2d(x, weights.params["matching.out.w"], padding=1)
            assert np.array_equal(replay.data, volume.data[:, d:d + 1]), d


class TestCostVolume:
    def _features(self, rng, cfg, weights, h=96, w=96):
        fl = model.extract_features(random_image(rng, h, w), weights, cfg)
        fr = model.extract_features(random_image(rng, h, w), weights, cfg)
        return fl, fr

    def test_slice_equality_bit_exact(self, rng):
        # slice d of a volume does not depend on how many levels it holds
        cfg, weights = tiny_weights()
        fl, fr = self._features(rng, cfg, weights)
        volume = cost_volume(fl, fr, weights, cfg)
        for d in (0, 3, 6):
            fewer = model.ModelConfig.tiny(max_disparity=3 * (d + 1))
            short = cost_volume(
                fl, fr, model.ModelWeights(fewer, weights.params, weights.buffers), fewer)
            assert short.shape[1] == d + 1
            assert np.array_equal(volume.data[:, :d + 1], short.data)

    def test_sequential_parallel_bit_identical(self, rng, monkeypatch):
        """Every level batch gives the same bits: one level, the default,
        all levels, and 3 levels (batches of 3, 3 and 2)."""
        cfg, weights = tiny_weights()
        fl, fr = self._features(rng, cfg, weights)
        volumes = []
        for schedule in LEVEL_BATCHES:
            set_level_batch(monkeypatch, schedule)
            volumes.append(cost_volume(fl, fr, weights, cfg).data)
        monkeypatch.setattr(model, "_LEVEL_BATCH_PIXELS", 3 * 32 * 32)
        assert model.levels_per_batch(cfg, 32, 32) == 3
        volumes.append(cost_volume(fl, fr, weights, cfg).data)
        for volume in volumes[1:]:
            assert np.array_equal(volume, volumes[0])

    def test_level_permutation_invariance(self, rng):
        # run the levels as one batch in shuffled order, inverse-permute,
        # compare bits
        cfg, weights = tiny_weights()
        fl, fr = self._features(rng, cfg, weights)
        reference = cost_volume(fl, fr, weights, cfg)
        perm = np.random.default_rng(5).permutation(cfg.levels)
        terms = model._pair_terms(fl, fr, weights,
                                  **model.pair_blocks(weights, cfg, fl.shape[3]))
        shuffled = model._match_levels(terms, [int(d) for d in perm], weights)
        assert np.array_equal(shuffled.data[np.argsort(perm), 0], reference.data[0])

    @pytest.mark.parametrize("width", [96, 99])
    def test_refuses_pair_blocks_split_for_another_width(self, rng, width):
        # enc1's right block has a masked twin at odd feature widths only
        cfg, weights = tiny_weights()
        fl, fr = self._features(rng, cfg, weights, w=width)
        with pytest.raises(ShapeError):
            model.build_cost_volume(fl, fr, weights, cfg,
                                    **model.pair_blocks(weights, cfg, fl.shape[3] + 1))

    def test_volume_shape_and_level_cap(self, rng):
        cfg, weights = tiny_weights()
        fl, fr = self._features(rng, cfg, weights)
        volume = cost_volume(fl, fr, weights, cfg)
        assert volume.shape == (1, cfg.levels, 32, 32)
        wide_cfg = model.ModelConfig.tiny(max_disparity=120)
        wide_weights = model.ModelWeights.initialize(wide_cfg, seed=0)
        with pytest.raises(ShapeError):
            cost_volume(fl, fr, wide_weights, wide_cfg)

    @pytest.mark.parametrize("profile,max_disparity,fh,fw,expected", [
        ("full", 48, 48, 80, 2),     # 144x240, 16 levels
        ("tiny", 24, 32, 32, 8),     # 96x96, all 8 levels
        ("full", 192, 180, 320, 1),  # 540x960, 64 levels
    ])
    def test_levels_per_batch_follows_the_feature_size(self, profile, max_disparity,
                                                        fh, fw, expected):
        make = model.ModelConfig.tiny if profile == "tiny" else model.ModelConfig.full
        assert model.levels_per_batch(make(max_disparity=max_disparity), fh, fw) == expected

    def test_default_batch_keeps_the_one_level_peak(self, monkeypatch):
        """An untaped full-profile forward pass at 144x240 (16 levels, 2 per
        batch) peaks within 2 % of the one-level schedule, at about 15.9 MB;
        its peak lies in the refine net. 4 levels per batch move it into the
        matching net's activations, at about 17.9 MB, 8 to 26.0 MB, and all
        16 in one batch peak near three times as high, at 43.6 MB: each conv
        copies its input one level at a time, so only activations grow."""
        cfg = model.ModelConfig.full(max_disparity=48)
        weights = model.ModelWeights.initialize(cfg, seed=0)
        rng = np.random.default_rng(0)
        left, right = (Tensor(rng.standard_normal((1, 3, 144, 240)).astype(np.float32))
                       for _ in range(2))

        def peak_bytes():
            return traced_peak(lambda: model.forward_tensors(left, right, weights, cfg))[2]

        default = peak_bytes()
        set_level_batch(monkeypatch, "sequential")
        assert default <= 1.02 * peak_bytes()

    def test_untaped_forward_holds_only_live_maps(self):
        """The setup above peaks below 17.0 MB (about 16.1): each stage's
        weights, the features and the volume die once consumed, and each
        refine block writes its sum over its input. Keeping every stage's
        weights to the end of the pass reads about 19.9 MB."""
        cfg = model.ModelConfig.full(max_disparity=48)
        weights = model.ModelWeights.initialize(cfg, seed=0)
        rng = np.random.default_rng(0)
        left, right = (Tensor(rng.standard_normal((1, 3, 144, 240)).astype(np.float32))
                       for _ in range(2))
        out, _, peak = traced_peak(lambda: model.forward_tensors(left, right, weights, cfg))
        assert sorted(out) == ["coarse", "entropy", "refined"]
        assert peak < 17.0e6

    def test_untaped_tiny_forward_peaks_in_refine(self):
        """A tiny 96x96 pass (8 levels in one batch) peaks at about 5.96 MB,
        in ``refine.block3.conv2``. When the 8 levels' conv copies shared
        one buffer, ``matching.dec4``'s 2.5 MB of copies set the peak, at
        about 6.83 MB."""
        cfg = model.ModelConfig.tiny(max_disparity=24)
        weights = model.ModelWeights.initialize(cfg, seed=0)
        rng = np.random.default_rng(0)
        left, right = (Tensor(rng.standard_normal((1, 1, 96, 96)).astype(np.float32))
                       for _ in range(2))
        _, _, peak = traced_peak(lambda: model.forward_tensors(left, right, weights, cfg))
        assert peak < 6.3e6

    def test_refine_holds_only_its_own_weights(self, rng, monkeypatch):
        """forward_tensors splits the weights by stage and drops each view
        once its stage has run. Given the weights as a temporary, when
        refine runs it holds no feature or matching layer, and of the
        arrays handed over only those refine runs unfolded, ``refine.out``'s,
        are alive: the raw arrays of refine's normed layers die at the fold
        and every other stage's with its view."""
        cfg, weights = tiny_weights()
        run_refine, seen = model.refine, {}
        handed = {name: weakref.ref(t.data)
                  for store in (weights.params, weights.buffers) for name, t in store.items()}
        weights = [weights]

        def refine(disp, image, ent, stage, cfg):
            seen["layers"] = {name.split(".")[0] for name in stage.params}
            seen["alive"] = sorted(name for name, ref in handed.items() if ref() is not None)
            return run_refine(disp, image, ent, stage, cfg)

        monkeypatch.setattr(model, "refine", refine)
        model.forward_tensors(random_image(rng, 48, 48), random_image(rng, 48, 48),
                              weights.pop(), cfg)
        assert seen == {"layers": {"refine"}, "alive": ["refine.out.b", "refine.out.w"]}


def direct_cost(fl, source, d, weights):
    """The matching net on the concatenated pair ``[L, S_d source]``, layer
    by layer with raw ops: the form the decomposed cost volume replaces."""
    def conv_bn_relu(x, name):
        spec = weights.specs[name]
        y = ops.conv2d(x, weights.params[name + ".w"], stride=spec.stride,
                       dilation=spec.dilation, padding=spec.padding)
        y = ops.batch_norm(y, weights.params[name + ".gamma"],
                           weights.params[name + ".beta"])
        return ops.relu(y)

    pair = ops.concat_channels([fl, ops.shift_columns(source, d)])
    x, skips = pair, [pair]
    for i in range(1, 5):
        x = conv_bn_relu(x, f"matching.enc{i}")
        x = conv_bn_relu(x, f"matching.filt{i}")
        skips.append(x)
    for i, skip in enumerate((skips[3], skips[2], skips[1], skips[0]), 1):
        x = ops.bilinear_resize(x, skip.shape[2], skip.shape[3])
        x = conv_bn_relu(ops.concat_channels([x, skip]), f"matching.dec{i}")
    return ops.conv2d(x, weights.params["matching.out.w"], padding=1)


class TestDecomposition:
    """The cost volume, which convolves the feature pair once per volume,
    against the direct form, which convolves ``[L, S_d R]`` at every level."""

    def _features(self, rng, cfg, weights, dtype, h, w):
        return [model.extract_features(
            Tensor(rng.standard_normal((1, 1, h, w)), dtype=dtype), weights, cfg)
            for _ in range(2)]

    @staticmethod
    def _assert_close(out, ref, atol, rtol, label):
        assert np.all(np.abs(out - ref) <= atol + rtol * np.abs(ref)), \
            (label, float(np.max(np.abs(out - ref))))

    # |volume - direct| <= ATOL + RTOL * |direct| at every level and column.
    # Float32 stays 100x (atol) and 10x (rtol) inside the benchmark's
    # float32-vs-float64 limit of 1e-3 + 1e-4 |ref|. Measured max |d|:
    # 3.3e-16 in float64 and 1.8e-7 in float32, on costs of about 0.7.
    @pytest.mark.parametrize("dtype,atol,rtol", [(np.float64, 1e-12, 1e-12),
                                                 (np.float32, 1e-5, 1e-5)])
    @pytest.mark.parametrize("h,w", [(96, 96), (99, 105)])  # feature widths 32, 35
    def test_volume_matches_direct_form(self, rng, monkeypatch, dtype, atol, rtol, h, w):
        cfg = model.ModelConfig.tiny()
        weights = drawn_weights(cfg, 7, dtype)
        fl, fr = self._features(rng, cfg, weights, dtype, h, w)
        for schedule in LEVEL_BATCHES:
            set_level_batch(monkeypatch, schedule)
            volume = cost_volume(fl, fr, weights, cfg)
            assert volume.data.dtype == dtype
            for d in range(cfg.levels):
                ref = direct_cost(fl, fr, d, weights).data[0, 0]
                self._assert_close(volume.data[0, d], ref, atol, rtol, (schedule, d))

    def test_context_only_matches_direct_form(self, rng):
        cfg = model.ModelConfig.tiny()
        weights = drawn_weights(cfg, 8, np.float64)
        fl, fr = self._features(rng, cfg, weights, np.float64, 51, 57)
        volume = cost_volume(fl, fr, weights, cfg, context_only=True)
        for d in range(cfg.levels):
            ref = direct_cost(fl, fl, d, weights).data[0, 0]
            self._assert_close(volume.data[0, d], ref, 1e-12, 1e-12, d)

    def test_training_under_tape_matches_direct_form(self, rng):
        """Training-mode norms (per-item statistics of the summed conv) and
        the gradients of every matching parameter agree with the direct
        form in float64."""
        cfg = model.ModelConfig.tiny()
        ours, theirs = (drawn_weights(cfg, 9, np.float64) for _ in range(2))
        fl, fr = (Tensor(rng.standard_normal((1, 16, 17, 19)), dtype=HIGH)
                  for _ in range(2))
        proj = Tensor(rng.standard_normal((1, cfg.levels, 17, 19)), dtype=HIGH)
        with Tape() as tape:
            volume = cost_volume(fl, fr, ours, cfg)
            loss = ops.sum_all(ops.mul(volume, proj))
        backward(loss, tape)
        with Tape() as tape:
            direct = ops.concat_channels([direct_cost(fl, fr, d, theirs)
                                          for d in range(cfg.levels)])
            direct_loss = ops.sum_all(ops.mul(direct, proj))
        backward(direct_loss, tape)
        self._assert_close(volume.data, direct.data, 1e-12, 1e-12, "volume")
        for name in ours.specs:
            if not name.startswith("matching."):
                continue
            for key in (".w", ".b", ".gamma", ".beta"):
                if name + key in ours.params:
                    self._assert_close(ours.params[name + key].grad,
                                       theirs.params[name + key].grad,
                                       1e-10, 1e-9, name + key)

    def test_three_level_volume_gradcheck(self):
        """Finite differences through a 3-level training-mode volume at an
        odd feature width, in float64."""
        cfg = model.ModelConfig.tiny(max_disparity=9, feature_channels=4,
                                     matching_channels=(6, 8, 10, 12))
        weights = drawn_weights(cfg, 10, np.float64)
        rng = np.random.default_rng(31)
        fl, fr = (Tensor(rng.standard_normal((1, 4, 16, 17)), requires_grad=True,
                         dtype=HIGH) for _ in range(2))
        proj = Tensor(rng.standard_normal((1, 3, 16, 17)), dtype=HIGH)
        tracked = {"left": fl, "right": fr}
        tracked.update({name: weights.params[name] for name in (
            "matching.enc1.w", "matching.enc1.gamma", "matching.dec4.w",
            "matching.dec4.gamma", "matching.out.w")})

        def build():
            def loss():
                volume = cost_volume(fl, fr, weights, cfg)
                return ops.sum_all(ops.mul(volume, proj))
            return tracked, loss

        case = CheckCase("cost_volume", build, tolerance=1e-6, sample_elements=12)
        for result in run_case(case, step=1e-6):
            assert result.passed, (result.param, result.max_rel_err)

    @pytest.mark.parametrize("training", [False, True])
    def test_every_conv_weight_is_named_by_its_stage(self, rng, monkeypatch, training):
        """Each conv of a forward pass reads a ``<layer>.w`` tensor of the
        ``params`` of an argument of its stage (``extract_features``,
        ``build_cost_volume``, ``refine``), and every layer runs: the blocks
        of ``matching.enc1`` / ``matching.dec4`` come in as the
        ``pair_blocks`` arguments. Per-layer conv attribution relies on this
        (``perfbench/spans.py``). Each conv also runs at its layer's
        ``ConvSpec`` stride, dilation and padding."""
        cfg = model.ModelConfig.tiny()
        weights = drawn_weights(cfg, 11)
        convs = record_convs(monkeypatch)
        model.forward_tensors(random_image(rng, 48, 51), random_image(rng, 48, 51),
                              weights, cfg, training=training)
        layers = [layer for layer, *_ in convs]
        assert None not in layers
        assert set(layers) == set(weights.specs)
        for layer, _, geometry, _ in convs:
            spec = weights.specs[layer]
            assert geometry == (spec.stride, spec.dilation, spec.padding), layer


class TestLayerExtents:
    # feature widths 16 (even) and 19 / 17 (odd); eleven pools, as in
    # test_baseline.TestConvMacsMatchWhatRuns, of which ten run on a 2x2 pool's grid
    @pytest.mark.parametrize("profile,height,width", [
        ("tiny", 48, 48), ("tiny", 51, 57), ("full", 48, 48), ("full", 48, 51),
        ("tiny-11-pools", 96, 96)])
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("level_batch", LEVEL_BATCHES)
    def test_every_conv_runs_at_its_layer_extent(self, monkeypatch, profile, height, width,
                                                 training, level_batch):
        """Each conv of a forward pass outputs its layer's ``layer_extents``
        entry. Of the pair-term convs (``model._pair_terms``), enc1's run at
        enc1's extent and dec4's R term is one column wider."""
        make = model.ModelConfig.full if profile == "full" else model.ModelConfig.tiny
        pools = dict(spp_pools=((16, 4),) + ((2, 4),) * 10)
        cfg = make(max_disparity=12, **(pools if profile == "tiny-11-pools" else {}))
        weights = model.ModelWeights.initialize(cfg, seed=0)
        set_level_batch(monkeypatch, level_batch)
        convs = record_convs(monkeypatch)
        rng = np.random.default_rng(0)
        model.forward_tensors(random_image(rng, height, width, cfg.in_channels),
                              random_image(rng, height, width, cfg.in_channels),
                              weights, cfg, training=training)
        extents = model.layer_extents(cfg, height, width)
        assert {layer for layer, *_ in convs} == set(extents)
        for layer, block, _, extent in convs:
            oh, ow = extents[layer]
            wider = (layer, block) == ("matching.dec4", "right_block")
            assert extent == (oh, ow + wider), (layer, block)


class TestProjection:
    def test_soft_argmin_uniform_costs(self):
        volume = Tensor(np.zeros((1, 4, 2, 2)))
        out = model.project(volume)[0]
        np.testing.assert_allclose(out.data, 1.5, rtol=1e-6)

    def test_soft_argmin_hand_case(self):
        costs = -np.log(np.array([0.7, 0.2, 0.1])).reshape(1, 3, 1, 1)
        out = model.project(Tensor(costs, dtype=HIGH))[0]
        np.testing.assert_allclose(out.data.reshape(()), 0.4, atol=1e-12)

    def test_soft_argmin_dominant_level(self):
        costs = np.full((1, 5, 2, 2), 10.0)
        costs[0, 3] = 0.0
        out = model.project(Tensor(costs, dtype=HIGH))[0]
        np.testing.assert_allclose(out.data, 3.0, atol=1e-3)

    def test_soft_argmin_range_invariant(self, rng):
        volume = Tensor(rng.standard_normal((1, 8, 5, 5)) * 30, dtype=HIGH)
        out = model.project(volume)[0].data
        assert np.all(out >= 0.0) and np.all(out <= 7.0)

    def test_entropy_uniform_is_log_n(self):
        volume = Tensor(np.zeros((1, 6, 3, 3)), dtype=HIGH)
        np.testing.assert_allclose(model.project(volume)[1].data, np.log(6), atol=1e-12)

    def test_entropy_dominant_level_near_zero(self):
        costs = np.zeros((1, 4, 2, 2))
        costs[0, 1:] = 50.0
        out = model.project(Tensor(costs, dtype=HIGH))[1]
        assert np.all(out.data < 1e-6)

    def test_entropy_hand_case(self):
        costs = -np.log(np.array([0.7, 0.2, 0.1])).reshape(1, 3, 1, 1)
        out = model.project(Tensor(costs, dtype=HIGH))[1]
        np.testing.assert_allclose(out.data.reshape(()), 0.80182, atol=1e-4)

    def test_entropy_range_invariant(self, rng):
        volume = Tensor(rng.standard_normal((1, 8, 4, 4)) * 20, dtype=HIGH)
        out = model.project(volume)[1].data
        assert np.all(out >= 0.0) and np.all(out <= np.log(8) + 1e-12)


def as_map(values):
    return Tensor(np.asarray(values, dtype=np.float32)[None, None])


class TestUpsampleOutputs:
    def test_constant_disparity_scales_by_three(self):
        d, e = model._upsample_tensors(as_map(np.full((4, 4), 5.0)),
                                       as_map(np.full((4, 4), 0.3)), 12, 12)
        np.testing.assert_allclose(d.data, 15.0, rtol=1e-6)
        np.testing.assert_allclose(e.data, 0.3, rtol=1e-6)

    def test_entropy_stays_within_source_range(self, rng):
        ent_src = rng.random((6, 6)).astype(np.float32)
        _, e = model._upsample_tensors(as_map(np.zeros((6, 6))), as_map(ent_src), 17, 13)
        assert e.shape == (1, 1, 17, 13)
        assert e.data.min() >= ent_src.min() - 1e-6
        assert e.data.max() <= ent_src.max() + 1e-6

    def test_integer_ratio_preserves_aligned_samples(self):
        # with half-pixel centers, output pixel 3k+1 lands exactly on source k
        src = np.arange(16, dtype=np.float32).reshape(4, 4)
        d, _ = model._upsample_tensors(as_map(src), as_map(src), 12, 12)
        for k in range(4):
            assert d.data[0, 0, 3 * k + 1, 3 * k + 1] == pytest.approx(3.0 * src[k, k])


class TestRefine:
    def test_zero_initialized_residual_passes_disparity_through(self, rng):
        cfg, weights = tiny_weights()
        disp = Tensor(rng.uniform(-2, 20, (1, 1, 24, 24)).astype(np.float32))
        left = random_image(rng, 24, 24)
        ent = Tensor(rng.random((1, 1, 24, 24)).astype(np.float32))
        out = model.refine(disp, left, ent, weights, cfg)
        assert np.array_equal(out.data, np.maximum(disp.data, 0.0))

    def test_output_non_negative_with_trained_tail(self, rng):
        cfg, weights = tiny_weights()
        tail = weights.params["refine.out.w"]
        tail.data = rng.standard_normal(tail.shape).astype(np.float32)
        disp = Tensor(rng.uniform(0, 20, (1, 1, 24, 24)).astype(np.float32))
        out = model.refine(disp, random_image(rng, 24, 24),
                           Tensor(rng.random((1, 1, 24, 24)).astype(np.float32)),
                           weights, cfg)
        assert np.all(out.data >= 0.0)

    def test_gradient_reaches_all_three_inputs(self, rng):
        cfg = model.ModelConfig.tiny(refine_channels=8, refine_blocks=(1, 2))
        weights = model.ModelWeights.initialize(cfg, seed=2, dtype=HIGH)
        tail = weights.params["refine.out.w"]
        tail.data = np.random.default_rng(9).standard_normal(tail.shape) * 0.3
        disp = Tensor(rng.uniform(1, 9, (1, 1, 8, 8)), requires_grad=True, dtype=HIGH)
        left = Tensor(rng.standard_normal((1, 1, 8, 8)), requires_grad=True, dtype=HIGH)
        ent = Tensor(rng.random((1, 1, 8, 8)), requires_grad=True, dtype=HIGH)
        with Tape() as tape:
            out = model.refine(disp, left, ent, weights, cfg)
            loss = ops.sum_all(ops.mul(out, out))
        backward(loss, tape)
        for leaf in (disp, left, ent):
            assert leaf.grad is not None and np.any(leaf.grad != 0)

    def test_rejects_extent_mismatch(self, rng):
        cfg, weights = tiny_weights()
        with pytest.raises(ShapeError):
            model.refine(Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32)),
                         random_image(rng, 9, 8),
                         Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32)),
                         weights, cfg)


class TestFusedRefine:
    """Each refine block's skip sum and ReLU run inside conv2's norm (raw
    weights) or conv (folded weights); the results are bit-identical to
    the unfused chain of ``conftest.refine_unfused``."""

    @staticmethod
    def _step(cfg, left, right):
        from shiftstereo.training import LossConfig, total_loss

        weights = drawn_weights(cfg, 12)
        gt = np.random.default_rng(13).uniform(0, 20, left.shape[2:])
        with Tape() as tape:
            out = model.forward_tensors(left, right, weights, cfg, training=True)
            loss = total_loss(out["coarse"], out["refined"], gt, np.ones(gt.shape, bool),
                              LossConfig(), max_disparity=cfg.max_disparity)
        nodes = len(tape.nodes)
        backward(loss, tape)
        return loss.item(), nodes, weights

    def test_training_step_bit_identical_to_the_unfused_chain(self, rng, monkeypatch):
        cfg = model.ModelConfig.tiny()
        left, right = random_image(rng, 48, 48), random_image(rng, 48, 48)
        loss, nodes, weights = self._step(cfg, left, right)
        monkeypatch.setattr(model, "refine", refine_unfused)
        ref_loss, ref_nodes, ref_weights = self._step(cfg, left, right)
        assert loss == ref_loss
        # two nodes, the add and the relu, fewer per refine block
        assert nodes == ref_nodes - 2 * len(cfg.refine_blocks)
        for store, ref_store in ((weights.params, ref_weights.params),
                                 (weights.buffers, ref_weights.buffers)):
            for name, t in store.items():
                assert np.array_equal(t.data, ref_store[name].data), name
        for name, p in weights.params.items():
            assert np.array_equal(p.grad, ref_weights.params[name].grad), name
            assert np.any(p.grad) or not name.startswith("refine."), name

    def test_folded_pass_bit_identical_to_the_unfused_chain(self, rng, monkeypatch):
        cfg = model.ModelConfig.tiny()
        weights = drawn_weights(cfg, 14)
        left, right = random_image(rng, 48, 60), random_image(rng, 48, 60)
        fused = model.forward_tensors(left, right, weights, cfg)
        monkeypatch.setattr(model, "refine", refine_unfused)
        unfused = model.forward_tensors(left, right, weights, cfg)
        for key, t in unfused.items():
            assert np.array_equal(fused[key].data, t.data), key

    def test_folded_pass_runs_relu_only_for_the_clamp(self, rng, monkeypatch):
        """An untaped folded pass calls ``ops.relu`` only for refine's final
        clamp: every other ReLU runs inside a conv or a norm, also those of
        ``matching.enc1`` and ``matching.dec4``, whose pair terms are summed
        outside a conv, as their norms do not fold."""
        cfg = model.ModelConfig.tiny()
        shapes, real_relu = [], ops.relu

        def relu(x):
            shapes.append(x.shape)
            return real_relu(x)

        monkeypatch.setattr(ops, "relu", relu)
        set_level_batch(monkeypatch, "sequential")
        model.forward_tensors(random_image(rng, 48, 60), random_image(rng, 48, 60),
                              drawn_weights(cfg, 15), cfg)
        assert shapes == [(1, 1, 48, 60)]


class TestForward:
    @staticmethod
    def _maps(out):
        return {k: out[k].data[0, 0] for k in ("coarse", "refined", "entropy")}

    def test_output_shapes(self, rng):
        cfg, weights = tiny_weights()
        left = random_image(rng, 96, 93)
        right = random_image(rng, 96, 93)
        maps = self._maps(model.forward_tensors(left, right, weights, cfg))
        for values in maps.values():
            assert values.shape == (96, 93)

    def test_deterministic_across_calls(self, rng):
        cfg, weights = tiny_weights()
        left = random_image(rng, 48, 48)
        right = random_image(rng, 48, 48)
        a = self._maps(model.forward_tensors(left, right, weights, cfg))
        b = self._maps(model.forward_tensors(left, right, weights, cfg))
        assert np.array_equal(a["refined"], b["refined"])
        assert np.array_equal(a["entropy"], b["entropy"])

    def test_coarse_disparity_within_unit_range(self, rng):
        cfg, weights = tiny_weights()
        maps = self._maps(model.forward_tensors(random_image(rng, 48, 60),
                                                random_image(rng, 48, 60), weights, cfg))
        assert maps["coarse"].min() >= 0.0
        assert maps["coarse"].max() <= cfg.max_disparity - 3
        assert maps["entropy"].min() >= 0.0
        assert maps["entropy"].max() <= np.log(cfg.levels) + 1e-6

    def test_rejects_mismatched_pair(self, rng):
        cfg, weights = tiny_weights()
        with pytest.raises(ShapeError):
            model.forward_tensors(random_image(rng, 48, 48), random_image(rng, 48, 51),
                                  weights, cfg)


def drawn_weights(cfg, seed, dtype=np.float32):
    """Seed-initialised weights whose norms and refine tail are drawn too:
    gamma and var from U(0.5, 1.5), beta, mean and biases from
    U(-0.1, 0.1), so that no norm is the identity and refine is visible."""
    weights = model.ModelWeights.initialize(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1000)
    for name, t in list(weights.params.items()) + list(weights.buffers.items()):
        if name.endswith(".w"):
            if np.any(t.data):
                continue
            bound = 1.0 / np.sqrt(t.data[0].size)
            low, high = -bound, bound
        elif name.endswith((".gamma", ".var")):
            low, high = 0.5, 1.5
        else:
            low, high = -0.1, 0.1
        t.data = rng.uniform(low, high, size=t.shape).astype(dtype)
    return weights


class TestBatchNormFold:
    """Inference folds refine's norms into their convs, under a tape too;
    training does not, and the feature and matching nets' norms run per
    item in both modes."""

    def _pair(self, rng, dtype, h=48, w=60):
        return (Tensor(rng.standard_normal((1, 1, h, w)), dtype=dtype),
                Tensor(rng.standard_normal((1, 1, h, w)), dtype=dtype))

    # |folded - unfolded| <= ATOL + RTOL * |unfolded|. Float32 stays 100x
    # (atol) and 10x (rtol) inside the benchmark's float32-vs-float64 limit
    # of 1e-3 + 1e-4 |ref|; measured errors are at most 3.9e-7 of the
    # largest entry in float32 and 7.3e-16 in float64.
    @pytest.mark.parametrize("dtype,atol,rtol", [(np.float64, 1e-12, 1e-12),
                                                 (np.float32, 1e-5, 1e-5)])
    def test_inference_matches_unfused_chain(self, rng, monkeypatch, dtype, atol, rtol):
        """The reference runs the raw weights with each refine norm
        replaced by the textbook norm over the running statistics, then its
        residual sum and its ReLU as ops of their own. The feature and
        matching nets' norms, which keep no statistics, run
        ``ops.batch_norm``."""
        per_item = ops.batch_norm

        def running_norm(x, gamma, beta, mean=None, var=None, *, relu=False, residual=None):
            if mean is None:
                return per_item(x, gamma, beta, relu=relu, residual=residual)
            y = batch_norm_reference(x, gamma, beta, mean, var, training=False)
            if residual is not None:
                y = ops.add(residual, y)
            return ops.relu(y) if relu else y

        cfg = model.ModelConfig.tiny()
        for seed in (0, 1):
            weights = drawn_weights(cfg, seed, dtype)
            left, right = self._pair(rng, dtype)
            folded = model.forward_tensors(left, right, weights, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(ops, "batch_norm", running_norm)
                unfused = model.forward_tensors(left, right, weights, cfg, training=True)
            for key, ref in unfused.items():
                out = folded[key].data
                assert out.dtype == dtype
                assert np.all(np.abs(out - ref.data) <= atol + rtol * np.abs(ref.data)), key

    def test_inference_runs_batch_norm_on_all_but_refine(self, rng, monkeypatch):
        """An inference pass, untaped or under a tape, runs ``ops.batch_norm``
        with no buffers once per normed feature layer and image, and once
        per normed matching layer and level batch, and for no refine layer."""
        cfg = model.ModelConfig.tiny()
        weights = drawn_weights(cfg, 2)
        left, right = self._pair(rng, np.float32)
        per_item, calls = ops.batch_norm, []

        def record(x, gamma, beta, *stats, **kwargs):
            calls.append((gamma, stats))
            return per_item(x, gamma, beta, *stats, **kwargs)

        monkeypatch.setattr(ops, "batch_norm", record)
        feature, matching = ([weights.params[s.name + ".gamma"] for s in specs(cfg) if s.norm]
                             for specs in (model.feature_layer_specs,
                                           model.matching_layer_specs))
        model.forward_tensors(left, right, weights, cfg)
        with Tape():
            model.forward_tensors(left, right, weights, cfg)
        assert [gamma for gamma, _ in calls] == (feature * 2 + matching) * 2
        assert all(stats == () for _, stats in calls)

    @pytest.mark.parametrize("width", [48, 51])  # feature widths 16 and 17
    def test_inference_cost_volume_is_the_trained_one(self, rng, width):
        """Given the same features, the matching stage that an inference
        pass runs, the folded weights' untaped, gives the cost volume of the
        raw weights in a taped training step, bit for bit."""
        cfg = model.ModelConfig.tiny()
        weights = drawn_weights(cfg, 16)
        fl, fr = (model.extract_features(random_image(rng, 48, width), weights, cfg)
                  for _ in range(2))
        volume = cost_volume(fl, fr, weights.folded().stage("matching"), cfg)
        with Tape():
            trained = cost_volume(fl, fr, weights.stage("matching"), cfg)
        assert trained.requires_grad
        assert np.array_equal(volume.data, trained.data)

    @pytest.mark.parametrize("width", [48, 51])
    def test_inference_coarse_and_entropy_are_the_trained_ones(self, rng, width):
        """From the same weights and images, an untaped inference pass and a
        taped training pass give the same coarse disparity and entropy, bit
        for bit: only refine folds."""
        cfg = model.ModelConfig.tiny()
        weights = drawn_weights(cfg, 17)
        left, right = random_image(rng, 48, width), random_image(rng, 48, width)
        inferred = model.forward_tensors(left, right, weights, cfg)
        with Tape():
            trained = model.forward_tensors(left, right, weights, cfg, training=True)
        for key in ("coarse", "entropy"):
            assert trained[key].requires_grad
            assert np.array_equal(inferred[key].data, trained[key].data), key

    def test_weights_unchanged_by_inference(self, rng):
        cfg = model.ModelConfig.tiny()
        weights = drawn_weights(cfg, 3)
        stores = (weights.params, weights.buffers)
        before = [{k: (t, t.data.copy()) for k, t in store.items()} for store in stores]
        specs = dict(weights.specs)
        model.forward_tensors(*self._pair(rng, np.float32), weights, cfg)
        for store, saved in zip(stores, before):
            assert store.keys() == saved.keys()
            for k, (t, data) in saved.items():
                assert store[k] is t and t.data.dtype == data.dtype
                assert np.array_equal(t.data, data), k
        assert weights.specs == specs

    def test_folding_folded_weights_shares_every_tensor(self):
        cfg = model.ModelConfig.tiny()
        folded = drawn_weights(cfg, 5).folded()
        again = folded.folded()
        assert again.params.keys() == folded.params.keys()
        assert all(again.params[k] is t for k, t in folded.params.items())
        assert again.specs == folded.specs

    def test_folded_keeps_layer_keys_and_drops_norms(self):
        """Folding drops refine's norms and every buffer; the feature and
        matching nets keep their specs and share their tensors."""
        cfg = model.ModelConfig.tiny()
        weights = drawn_weights(cfg, 4)
        folded = weights.folded()
        refine = {name for name in weights.specs if name.startswith("refine.")}
        assert set(folded.params) == ({name + ".w" for name in refine}
                                      | {name + ".b" for name in refine}
                                      | {key for key in weights.params
                                         if not key.startswith("refine.")})
        assert folded.buffers == {}
        for name, spec in weights.specs.items():
            assert folded.specs[name].norm == (name not in refine and spec.norm), name
            same = folded.params[name + ".w"] is weights.params[name + ".w"]
            assert same == (name not in refine or not spec.norm), name
        for key, t in weights.params.items():
            if not key.startswith("refine."):
                assert folded.params[key] is t, key

    def test_folded_cost_slices_sequential_parallel_bit_identical(self, rng, monkeypatch):
        cfg = model.ModelConfig.tiny()
        weights = drawn_weights(cfg, 6)
        folded = weights.folded()
        fl = model.extract_features(random_image(rng, 96, 96), folded, cfg)
        fr = model.extract_features(random_image(rng, 96, 96), folded, cfg)
        volumes = []
        for schedule in LEVEL_BATCHES:
            set_level_batch(monkeypatch, schedule)
            volumes.append(cost_volume(fl, fr, folded, cfg).data)
        for volume in volumes[1:]:
            assert np.array_equal(volume, volumes[0])


class TestEndToEndGradients:
    def test_total_loss_finite_differences_on_sampled_parameters(self):
        """Micro profile, high precision, sampled parameter subset, 1e-3.

        The step is 1e-6 rather than the per-op 1e-4: a deep graph full of
        rectifier kinks flips activation states under coarser perturbations,
        which biases the numeric slope without any backward defect (at this
        step the worst relative error collapses to ~1e-8).
        """
        cfg = model.ModelConfig.tiny(
            max_disparity=6, feature_channels=4,
            matching_channels=(6, 8, 10, 12), spp_pools=((8, 4), (4, 4)),
            refine_blocks=(1, 2), refine_channels=6)
        weights = model.ModelWeights.initialize(cfg, seed=3, dtype=HIGH)
        tail = weights.params["refine.out.w"]
        tail.data = np.random.default_rng(17).standard_normal(tail.shape) * 0.2
        rng = np.random.default_rng(23)
        left = Tensor(rng.standard_normal((1, 1, 48, 48)), dtype=HIGH)
        right = Tensor(rng.standard_normal((1, 1, 48, 48)), dtype=HIGH)
        gt = rng.uniform(0, 3, (48, 48))
        mask = np.ones((48, 48), bool)

        from shiftstereo.training import LossConfig, total_loss

        tracked = {name: weights.params[name] for name in (
            "feature.down.w", "feature.fuse.w", "matching.enc1.w",
            "matching.dec4.w", "matching.out.w", "refine.head.w")}

        def build():
            def loss():
                out = model.forward_tensors(left, right, weights, cfg, training=True)
                return total_loss(out["coarse"], out["refined"], gt, mask,
                                  LossConfig(), max_disparity=cfg.max_disparity)
            return tracked, loss

        case = CheckCase("end_to_end", build, tolerance=1e-3, sample_elements=4)
        for result in run_case(case, step=1e-6):
            assert result.passed, (result.param, result.max_rel_err)

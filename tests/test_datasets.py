"""Stereogram generation, stereo constraint audits, and file format I/O."""

import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import render_views_reference, traced_peak
from shiftstereo import datasets
from shiftstereo.datasets import (RdsConfig, StereoSample, gen_rds, load_dataset,
                                  read_manifest, read_pfm, read_pnm, save_samples,
                                  valid_mask, write_pfm, write_pnm)
from shiftstereo.errors import ConfigError, ParseError, ShapeError, ShiftStereoError


class TestRdsGeneration:
    def test_deterministic_under_seed(self):
        cfg = RdsConfig(width=48, height=32, seed=9)
        a = gen_rds(cfg, 3)
        b = gen_rds(cfg, 3)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.left, sb.left)
            assert np.array_equal(sa.right, sb.right)
            assert np.array_equal(sa.gt, sb.gt)
            assert np.array_equal(sa.valid, sb.valid)

    def test_prefix_stability(self):
        cfg = RdsConfig(width=32, height=32, seed=4)
        short = gen_rds(cfg, 2)
        long = gen_rds(cfg, 5)
        assert np.array_equal(short[1].left, long[1].left)

    def test_zero_disparity_degenerate_case(self):
        cfg = RdsConfig(width=40, height=24, disparity_range=(0, 0), seed=1)
        for sample in gen_rds(cfg, 2):
            assert np.array_equal(sample.left, sample.right)
            assert np.array_equal(sample.gt, np.zeros_like(sample.gt))
            assert sample.valid.all()

    def test_raised_shapes_create_occlusions_and_bounded_gt(self):
        cfg = RdsConfig(width=96, height=96, disparity_range=(6, 20), seed=2)
        for sample in gen_rds(cfg, 3):
            assert (~sample.valid).sum() > 0
            finite = sample.gt[sample.valid]
            assert finite.min() >= 0
            assert finite.max() <= 20
            assert np.isinf(sample.gt[~sample.valid]).all()

    def test_disparities_are_even_integers(self):
        cfg = RdsConfig(width=64, height=64, disparity_range=(5, 19), seed=3)
        sample = gen_rds(cfg, 1)[0]
        values = np.unique(sample.gt[sample.valid])
        assert np.array_equal(values, np.round(values))
        assert np.all(values % 2 == 0)

    def test_stereo_constraint_exact(self):
        """Every valid left pixel finds its exact dot value in the right
        image at the disparity offset."""
        cfg = RdsConfig(width=80, height=60, disparity_range=(4, 16), seed=5)
        for sample in gen_rds(cfg, 3):
            ys, xs = np.nonzero(sample.valid)
            d = sample.gt[ys, xs].astype(int)
            assert np.all(xs - d >= 0)
            left_vals = sample.left[0, ys, xs]
            right_vals = sample.right[0, ys, xs - d]
            assert np.array_equal(left_vals, right_vals)

    def test_hand_audited_single_row_projection(self):
        """Width-12 row, columns 4..7 raised to disparity 2, worked by hand.

        Left view: the shape projects to columns 5..8, so column 4 has no
        source (a black hole). Background column 3 is visible on the left
        but hidden behind the shape in the right view, so it is invalid
        while still carrying texture.
        """
        texture = np.arange(12, dtype=np.float32).reshape(1, 12) / 11.0
        disp = np.zeros((1, 12), dtype=np.int64)
        disp[0, 4:8] = 2
        left, right, gt, valid = datasets._render_views(texture, disp)
        expected_valid = np.array([[1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1]], bool)
        assert np.array_equal(valid, expected_valid)
        assert left[0, 4] == 0.0  # hole renders black
        assert left[0, 3] == texture[0, 3]  # right-hidden pixel keeps texture
        np.testing.assert_array_equal(gt[0, 5:9], 2.0)
        np.testing.assert_array_equal(gt[0, :3], 0.0)
        np.testing.assert_array_equal(gt[0, 9:], 0.0)
        assert np.isinf(gt[0, 3]) and np.isinf(gt[0, 4])
        # right view: shape lands on 3..6, right column 7 is the right hole
        assert np.array_equal(right[0, 3:7], texture[0, 4:8])
        assert right[0, 7] == 0.0

    @pytest.mark.parametrize("height, width, disparity_range", [
        (48, 48, (6, 20)), (96, 96, (6, 18)), (144, 240, (6, 42)), (47, 53, (0, 21))],
        ids=["48x48", "96x96", "144x240", "47x53"])
    def test_render_views_equals_the_per_row_loop(self, height, width, disparity_range):
        """The renderer, which scatters each disparity value over all rows at
        once, is bit-identical to the per-row oracle on 20 seeds."""
        for seed in range(20):
            cfg = RdsConfig(width=width, height=height, disparity_range=disparity_range,
                            seed=seed)
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
            disp = datasets._disparity_field(cfg, rng)
            texture = (rng.random((height, width)) < cfg.dot_density).astype(np.float32)
            got = datasets._render_views(texture, disp)
            for a, b in zip(got, render_views_reference(texture, disp)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b), seed

    # sha256 of every sample's left, right, gt and valid bytes at seed 1, for
    # the stereo sets the benchmark workloads generate (perfbench/workloads.py):
    # (height, width, max_disparity, count, digest). A change to the
    # stereogram data must change these on purpose, and say so in CHANGES.md.
    BENCHMARK_SETS = {
        "infer-full": (144, 240, 48, 4,
                       "89c53c9c08fe9f3161f0ae18e62826f0bf4d658aff95d04355080486f95ca77a"),
        "infer-tiny": (96, 96, 24, 16,
                       "bbb46f64bdbc20dad01b42dbea90f2402713c29f638dc8b9ec162eeec0018fb1"),
        "train-tiny": (96, 96, 24, 10,
                       "5cd7e470b07f89efd57556365fbdfcd672cec4b7d956db9cabb01330e423d87d"),
    }

    @pytest.mark.parametrize("workload", sorted(BENCHMARK_SETS))
    def test_benchmark_stereograms_keep_their_bytes(self, workload):
        height, width, max_disparity, count, digest = self.BENCHMARK_SETS[workload]
        cfg = RdsConfig(width=width, height=height,
                        disparity_range=(6, max_disparity - 6), seed=1)
        h = hashlib.sha256()
        for s in gen_rds(cfg, count):
            for a in (s.left, s.right, s.gt, s.valid):
                h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == digest

    def test_rejects_bad_configs(self):
        with pytest.raises(ConfigError):
            RdsConfig(width=64, height=64, dot_density=0.0)
        with pytest.raises(ConfigError):
            RdsConfig(width=24, height=24, disparity_range=(0, 24))
        with pytest.raises(ConfigError):
            RdsConfig(width=8, height=8)
        with pytest.raises(ConfigError):
            gen_rds(RdsConfig(), 0)


class TestPfm:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        values = rng.standard_normal((7, 11)).astype(np.float32)
        values[2, 3] = np.inf
        path = str(tmp_path / "map.pfm")
        write_pfm(values, path)
        again = read_pfm(path)
        assert np.array_equal(again, values, equal_nan=True)
        write_pfm(again, path + ".2")
        assert open(path, "rb").read() == open(path + ".2", "rb").read()

    def test_hand_built_little_endian_fixture(self, tmp_path):
        # 2x2 map, bottom row stored first: payload rows are (3,4) then (1,2)
        path = str(tmp_path / "little.pfm")
        payload = struct.pack("<4f", 3.0, 4.0, 1.0, 2.0)
        with open(path, "wb") as f:
            f.write(b"Pf\n2 2\n-1.0\n" + payload)
        out = read_pfm(path)
        assert np.array_equal(out, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))

    def test_hand_built_big_endian_fixture(self, tmp_path):
        path = str(tmp_path / "big.pfm")
        payload = struct.pack(">4f", 3.0, 4.0, 1.0, 2.0)
        with open(path, "wb") as f:
            f.write(b"Pf\n2 2\n1.0\n" + payload)
        out = read_pfm(path)
        assert np.array_equal(out, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))

    def test_endianness_fixtures_agree(self, tmp_path):
        little = str(tmp_path / "l.pfm")
        big = str(tmp_path / "b.pfm")
        with open(little, "wb") as f:
            f.write(b"Pf\n2 1\n-1.0\n" + struct.pack("<2f", 5.5, -2.25))
        with open(big, "wb") as f:
            f.write(b"Pf\n2 1\n1.0\n" + struct.pack(">2f", 5.5, -2.25))
        assert np.array_equal(read_pfm(little), read_pfm(big))

    def test_distinct_parse_errors(self, tmp_path):
        bad_magic = tmp_path / "bad_magic.pfm"
        bad_magic.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 32)
        with pytest.raises(ParseError, match="magic"):
            read_pfm(str(bad_magic))
        truncated = tmp_path / "short.pfm"
        truncated.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 7)
        with pytest.raises(ParseError, match="truncated"):
            read_pfm(str(truncated))
        zero_scale = tmp_path / "zero.pfm"
        zero_scale.write_bytes(b"Pf\n2 2\n0.0\n" + b"\x00" * 16)
        with pytest.raises(ParseError, match="scale"):
            read_pfm(str(zero_scale))

    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf"])
    def test_non_finite_scale_is_refused(self, tmp_path, scale):
        """A NaN scale is not negative, so it used to select big-endian and
        return garbage values."""
        path = tmp_path / "scale.pfm"
        path.write_bytes(b"Pf\n2 1\n" + scale + b"\n" + struct.pack("<2f", 1.0, 2.0))
        with pytest.raises(ParseError, match=f"scale must be finite and non-zero, got "
                                             f"{float(scale)}"):
            read_pfm(str(path))

    def test_header_extents_beyond_the_file_allocate_no_payload(self, tmp_path):
        path = tmp_path / "huge.pfm"
        path.write_bytes(b"Pf\n5000 5000\n-1.0\n" + bytes(10))

        def read():
            with pytest.raises(ParseError, match="truncated"):
                read_pfm(str(path))

        _, _, peak = traced_peak(read)
        assert peak < 1 << 20


class TestPnm:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        image = (rng.integers(0, 256, (1, 5, 6)) / 255.0).astype(np.float32)
        path = str(tmp_path / "img.pgm")
        write_pnm(image, path)
        again = read_pnm(path)
        assert np.array_equal(again, image)

    def test_p5_gives_single_channel(self, tmp_path):
        path = str(tmp_path / "gray.pgm")
        with open(path, "wb") as f:
            f.write(b"P5\n3 2\n255\n" + bytes([0, 128, 255, 10, 20, 30]))
        out = read_pnm(path)
        assert out.shape == (1, 2, 3)
        assert out[0, 0, 1] == np.float32(128 / 255)

    def test_p6_pixel_order(self, tmp_path):
        path = str(tmp_path / "rgb.ppm")
        with open(path, "wb") as f:
            f.write(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
        out = read_pnm(path)
        assert out.shape == (3, 1, 2)
        assert np.array_equal(out[:, 0, 0], [1.0, 0.0, 0.0])
        assert np.array_equal(out[:, 0, 1], [0.0, 0.0, 1.0])

    def test_comment_and_whitespace_tolerant_header(self, tmp_path):
        path = str(tmp_path / "hdr.pgm")
        with open(path, "wb") as f:
            f.write(b"P5\n# made by hand\n 2 \n1\n255\n" + bytes([7, 9]))
        out = read_pnm(path)
        assert out.shape == (1, 1, 2)

    def test_unsupported_magic_and_maxval(self, tmp_path):
        ascii_pgm = tmp_path / "ascii.pgm"
        ascii_pgm.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(ParseError, match="magic"):
            read_pnm(str(ascii_pgm))
        deep = tmp_path / "deep.pgm"
        deep.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ParseError, match="maxval"):
            read_pnm(str(deep))

    @pytest.mark.parametrize("header", [
        b"P5\nab 4\n255\n", b"P5\n4 x4\n255\n", b"P5\n4.0 4\n255\n",
        b"P5\n-4 4\n255\n", b"P5\n4 -4\n255\n", b"P5\n0 4\n255\n",
        b"P5\n4 0\n255\n", b"P6\n4 4\nff\n"])
    def test_malformed_header_number(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + bytes(48))
        with pytest.raises(ParseError, match="positive integer"):
            read_pnm(str(path))

    def test_header_extents_beyond_the_file_allocate_no_payload(self, tmp_path):
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P5\n10000 10000\n255\n" + bytes(10))

        def read():
            with pytest.raises(ParseError, match="truncated"):
                read_pnm(str(path))

        _, _, peak = traced_peak(read)
        assert peak < 1 << 20

    @pytest.mark.parametrize("token", [b"9" * 5_000, b"a" * 200_000],
                             ids=["5,000-digit width", "200,000-byte token"])
    def test_overlong_header_token(self, tmp_path, token):
        """The digits used to reach int() and its 4,300-digit limit, a bare
        ValueError; a long token took time quadratic in its length."""
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n" + token + b" 4\n255\n" + bytes(16))
        with pytest.raises(ParseError, match="longer than 20 bytes"):
            read_pnm(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 5)
        with pytest.raises(ParseError, match="truncated"):
            read_pnm(str(path))


class TestDatasetRoundTrip:
    def test_samples_survive_disk_round_trip(self, tmp_path):
        cfg = RdsConfig(width=48, height=32, disparity_range=(4, 12), seed=11)
        samples = gen_rds(cfg, 3)
        manifest = save_samples(samples, str(tmp_path / "data"))
        loaded = load_dataset(manifest, max_disparity=24)
        assert len(loaded) == len(samples)
        for orig, back in zip(samples, loaded):
            assert np.array_equal(orig.left, back.left)
            assert np.array_equal(orig.right, back.right)
            assert np.array_equal(orig.gt, back.gt, equal_nan=True)
            assert np.array_equal(orig.valid, back.valid)

    def test_gt_at_or_above_cap_masked_invalid(self, tmp_path):
        gt = np.array([[1.0, 24.0], [30.0, 5.0]], dtype=np.float32)
        image = np.zeros((1, 2, 2), dtype=np.float32)
        d = tmp_path / "capped"
        d.mkdir()
        write_pnm(image, str(d / "l.pgm"))
        write_pnm(image, str(d / "r.pgm"))
        write_pfm(gt, str(d / "g.pfm"))
        manifest = d / "manifest.txt"
        manifest.write_text(f"{d / 'l.pgm'}\t{d / 'r.pgm'}\t{d / 'g.pfm'}\n")
        [sample] = load_dataset(str(manifest), max_disparity=24)
        assert np.array_equal(sample.valid, [[True, False], [False, True]])

    def test_all_finite_below_cap_fully_valid(self, tmp_path):
        gt = np.full((2, 2), 3.0, dtype=np.float32)
        image = np.zeros((1, 2, 2), dtype=np.float32)
        d = tmp_path / "ok"
        d.mkdir()
        write_pnm(image, str(d / "l.pgm"))
        write_pnm(image, str(d / "r.pgm"))
        write_pfm(gt, str(d / "g.pfm"))
        manifest = d / "m.txt"
        manifest.write_text(f"{d / 'l.pgm'}\t{d / 'r.pgm'}\t{d / 'g.pfm'}\n")
        [sample] = load_dataset(str(manifest), max_disparity=24)
        assert sample.valid.all()

    def test_valid_mask_keeps_finite_truth_below_the_cap(self):
        gt = np.array([[0.0, 23.5, 24.0], [np.inf, np.nan, 30.0]], dtype=np.float32)
        assert valid_mask(gt, 24).tolist() == [[True, True, False], [False, False, False]]

    def test_missing_file_names_the_culprit(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("a.pgm\tb.pgm\tc.pfm\n")
        with pytest.raises(ParseError, match="a.pgm"):
            load_dataset(str(manifest), max_disparity=24)

    def test_extent_mismatch_rejected(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        write_pnm(np.zeros((1, 2, 2), dtype=np.float32), str(d / "l.pgm"))
        write_pnm(np.zeros((1, 2, 3), dtype=np.float32), str(d / "r.pgm"))
        write_pfm(np.zeros((2, 2), dtype=np.float32), str(d / "g.pfm"))
        manifest = d / "m.txt"
        manifest.write_text(f"{d / 'l.pgm'}\t{d / 'r.pgm'}\t{d / 'g.pfm'}\n")
        with pytest.raises(ShapeError, match="extents differ"):
            load_dataset(str(manifest), max_disparity=24)

    def test_manifest_format_errors(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("only_two\tfields\n")
        with pytest.raises(ParseError, match="3 tab-separated"):
            read_manifest(str(manifest))

    def test_a_one_column_manifest_refuses_a_line_with_a_tab(self, tmp_path):
        manifest = tmp_path / "preds.txt"
        manifest.write_text("a.pfm\n\nb.pfm\n")
        assert read_manifest(str(manifest), columns=1) == [("a.pfm",), ("b.pfm",)]
        manifest.write_text("a.pfm\nb.pfm\tc.pfm\n")
        with pytest.raises(ParseError, match=r"preds.txt:2: expected 1 tab-separated"):
            read_manifest(str(manifest), columns=1)

    def test_unreadable_manifests_are_parse_errors(self, tmp_path):
        with pytest.raises(ParseError, match="absent.txt"):
            read_manifest(str(tmp_path / "absent.txt"))
        with pytest.raises(ParseError):
            read_manifest(str(tmp_path))  # a directory
        manifest = tmp_path / "latin1.txt"
        manifest.write_bytes("l\u00e9ft.pgm\tr.pgm\tg.pfm\n".encode("latin-1"))
        with pytest.raises(ParseError, match="latin1.txt"):
            read_manifest(str(manifest))


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    """A one-pair dataset on disk: its manifest's bytes, and a path the
    fuzzed manifests are written to."""
    d = tmp_path_factory.mktemp("fuzz")
    cfg = RdsConfig(width=16, height=16, disparity_range=(2, 6), seed=1)
    with open(save_samples(gen_rds(cfg, 1), str(d)), "rb") as f:
        blob = f.read()
    return blob, str(d / "fuzzed.txt")


# Arbitrary bytes, or a real file with 1-3 bytes XOR-ed or cut short.
_EDITS = st.one_of(
    st.tuples(st.just("bytes"), st.binary(max_size=200)),
    st.tuples(st.just("flip"), st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                                  st.integers(1, 255)),
                                        min_size=1, max_size=3)),
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)))


def _write_damaged(blob: bytes, edit, path: str) -> None:
    kind, how = edit
    if kind == "bytes":
        damaged = how
    elif kind == "truncate":
        damaged = blob[:int(how * len(blob))]
    else:
        damaged = bytearray(blob)
        for at, mask in how:
            damaged[int(at * len(blob))] ^= mask
    with open(path, "wb") as f:
        f.write(bytes(damaged))


@settings(max_examples=300, deadline=None)
@given(edit=_EDITS)
def test_fuzzed_manifests_raise_only_package_errors(fuzz_dataset, edit):
    """Arbitrary bytes, or a real manifest with flipped bytes or cut short:
    reading it, and loading the samples it names, either succeeds or
    raises a ShiftStereoError."""
    blob, path = fuzz_dataset
    _write_damaged(blob, edit, path)
    try:
        entries = read_manifest(path)
        assert all(len(entry) == 3 for entry in entries)
        load_dataset(path, max_disparity=24)
    except ShiftStereoError:
        pass


@pytest.mark.parametrize("reader", [read_pfm, read_pnm])
def test_unreadable_image_paths_are_parse_errors(tmp_path, reader):
    with pytest.raises(ParseError, match="absent"):
        reader(str(tmp_path / "absent"))
    with pytest.raises(ParseError, match="directory"):
        reader(str(tmp_path))


@pytest.mark.parametrize("reader", [read_pfm, read_pnm, read_manifest])
def test_a_path_with_a_nul_byte_is_a_parse_error(tmp_path, reader):
    # open() refuses such a path with a ValueError, not an OSError
    with pytest.raises(ParseError, match="null byte"):
        reader(str(tmp_path / "a\0b"))


@pytest.fixture(scope="module")
def image_files(tmp_path_factory):
    """Bytes of a small PFM, PGM and PPM, and a path fuzzed files go to."""
    d = tmp_path_factory.mktemp("images")
    rng = np.random.default_rng(2)
    write_pfm(rng.standard_normal((3, 4)).astype(np.float32), str(d / "map.pfm"))
    write_pnm(rng.random((1, 3, 4)).astype(np.float32), str(d / "gray.pgm"))
    write_pnm(rng.random((3, 3, 4)).astype(np.float32), str(d / "rgb.ppm"))
    blobs = {name: (d / name).read_bytes() for name in ("map.pfm", "gray.pgm", "rgb.ppm")}
    return blobs, str(d / "fuzzed")


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["map.pfm", "gray.pgm", "rgb.ppm"]), edit=_EDITS)
def test_fuzzed_images_raise_only_package_errors(image_files, name, edit):
    """A damaged or arbitrary PFM / PNM file either reads as a 2D map (PFM)
    or a 1- or 3-channel image (PNM) in float32, or raises a
    ShiftStereoError."""
    blobs, path = image_files
    _write_damaged(blobs[name], edit, path)
    try:
        if name.endswith(".pfm"):
            out = read_pfm(path)
            assert out.ndim == 2
        else:
            out = read_pnm(path)
            assert out.ndim == 3 and out.shape[0] in (1, 3)
        assert out.dtype == np.float32
    except ShiftStereoError:
        pass

"""The command-line entry point, driven through ``cli.main(argv)``."""

import os

import numpy as np
import pytest

from shiftstereo import cli
from shiftstereo.datasets import (RdsConfig, gen_rds, normalize_image, read_manifest,
                                  read_pfm, read_pnm, save_samples)
from shiftstereo.model import ModelConfig, ModelWeights, forward_tensors
from shiftstereo.tensor import Tensor
from shiftstereo.training import (Checkpoint, load_checkpoint, load_weights,
                                  save_checkpoint)


@pytest.fixture
def pair(tmp_path):
    """Paths of one 48x48 random-dot stereogram pair."""
    cfg = RdsConfig(width=48, height=48, num_shapes=2, disparity_range=(2, 12), seed=3)
    manifest = save_samples(gen_rds(cfg, 1), str(tmp_path / "data"))
    left, right, _ = read_manifest(manifest)[0]
    return left, right


def _checkpoint(path, poison: str | None = None) -> str:
    """Seed-initialised tiny-profile checkpoint. ``refine.out`` starts at zero,
    which would hide the refine net from the output, so it gets seeded
    values too; ``poison`` names a parameter to fill with NaN."""
    weights = ModelWeights.initialize(ModelConfig.tiny(), seed=4)
    ckpt = Checkpoint.from_weights(weights)
    tail = ckpt.params["refine.out.w"]
    tail[...] = np.random.default_rng(5).standard_normal(tail.shape) * 0.1
    if poison is not None:
        ckpt.params[poison][...] = np.nan
    save_checkpoint(ckpt, str(path))
    return str(path)


def _infer(ckpt, left, right, out):
    return cli.main(["infer", "--ckpt", ckpt, "--left", left, "--right", right,
                     "--out-disp", out])


def test_infer_writes_the_forward_pass(tmp_path, pair):
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    out = str(tmp_path / "disp.pfm")
    assert _infer(ckpt, *pair, out) == 0

    weights = load_weights(load_checkpoint(ckpt))
    left, right = (Tensor(normalize_image(read_pnm(p))[None]) for p in pair)
    expected = forward_tensors(left, right, weights, weights.config)["refined"].data[0, 0]
    assert np.array_equal(read_pfm(out), expected)


def test_infer_missing_input_is_a_usage_error(tmp_path, pair):
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    out = str(tmp_path / "disp.pfm")
    assert _infer(ckpt, str(tmp_path / "absent.pgm"), pair[1], out) == 2
    assert not os.path.exists(out)


def test_infer_malformed_image_header_is_a_usage_error(tmp_path, pair, capsys):
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\nab 4\n255\n" + bytes(16))
    out = str(tmp_path / "disp.pfm")
    assert _infer(ckpt, str(bad), pair[1], out) == 2
    assert not os.path.exists(out)
    assert "positive integer" in capsys.readouterr().err


def test_infer_rejects_a_config_file_with_mode(tmp_path, pair, capsys):
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    config = tmp_path / "infer.cfg"
    config.write_text("mode=sequential\n")
    out = str(tmp_path / "disp.pfm")
    assert cli.main(["infer", "--config", str(config), "--ckpt", ckpt, "--left", pair[0],
                     "--right", pair[1], "--out-disp", out]) == 2
    assert "unknown key 'mode'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_infer_non_finite_disparity_is_a_divergence(tmp_path, pair, capsys):
    ckpt = _checkpoint(tmp_path / "model.ckpt", poison="refine.out.b")
    out = str(tmp_path / "disp.pfm")
    assert _infer(ckpt, *pair, out) == 3
    assert not os.path.exists(out)
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "unknown config key"])
def test_infer_corrupt_checkpoint_is_a_usage_error(tmp_path, pair, capsys, damage):
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    with open(ckpt, "rb") as f:
        blob = f.read()
    if damage == "truncated":
        blob = blob[:len(blob) // 2]
    else:
        blob = blob.replace(b'"feature_channels"', b'"feature_channelZ"')
    with open(ckpt, "wb") as f:
        f.write(blob)
    out = str(tmp_path / "disp.pfm")
    assert _infer(ckpt, *pair, out) == 2
    assert not os.path.exists(out)
    assert ckpt in capsys.readouterr().err

"""``scripts/rds_quality.py``'s scoring, at toy size: two 48x48 pairs and
an untrained checkpoint."""

import importlib.util
import os

import numpy as np
import pytest

from shiftstereo.datasets import RdsConfig, gen_rds, save_samples, valid_mask
from shiftstereo.model import ModelConfig, ModelWeights, forward_tensors
from shiftstereo.tensor import Tensor
from shiftstereo.training import Checkpoint, load_checkpoint, load_weights, save_checkpoint

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "rds_quality.py")


def _script():
    spec = importlib.util.spec_from_file_location("rds_quality", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _epe(maps, gts, max_disparity):
    masks = [valid_mask(gt, max_disparity) for gt in gts]
    err = np.concatenate([np.abs(m[v].astype(np.float64) - g[v]) for m, g, v in
                          zip(maps, gts, masks)])
    return err.mean()


def test_scores_infer_the_per_item_pass_and_the_best_constant(tmp_path):
    """Each figure is the pooled EPE of its own pass over the held-out pairs,
    and the best constant scores no worse than constants beside it."""
    cfg = ModelConfig.tiny()
    weights = ModelWeights.initialize(cfg, seed=4)
    tail = weights.params["refine.out.w"]
    tail.data[...] = np.random.default_rng(6).standard_normal(tail.shape) * 0.1
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(Checkpoint.from_weights(weights), ckpt)
    samples = gen_rds(RdsConfig(width=48, height=48, disparity_range=(2, 12), seed=8), 2)
    manifest = save_samples(samples, str(tmp_path / "data"))
    result = _script().score(ckpt, manifest, str(tmp_path))

    gts = [s.gt for s in samples]
    runs = {"infer": [], "per_item": []}
    for s in samples:
        left, right = Tensor(s.left[None]), Tensor(s.right[None])
        fresh = load_weights(load_checkpoint(ckpt))
        runs["infer"].append(forward_tensors(left, right, fresh, cfg))
        runs["per_item"].append(forward_tensors(left, right, fresh, cfg, training=True))
    for name, outs in runs.items():
        for key in ("coarse", "refined"):
            expected = _epe([o[key].data[0, 0] for o in outs], gts, cfg.max_disparity)
            assert result[name][f"{key}_epe"] == pytest.approx(expected, abs=1e-6), (name, key)
    assert result["infer"] != result["per_item"]

    constant = result["best_constant"]
    assert constant["epe"] == pytest.approx(
        _epe([np.full(gt.shape, constant["disparity"]) for gt in gts], gts, cfg.max_disparity),
        abs=1e-6)
    for other in (constant["disparity"] - 0.5, constant["disparity"] + 0.5):
        assert constant["epe"] <= _epe([np.full(gt.shape, other) for gt in gts], gts,
                                       cfg.max_disparity)

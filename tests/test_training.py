"""Checkpoint round trips and the checks ``load_weights`` makes on them."""

import numpy as np
import pytest

from shiftstereo.errors import CheckpointShapeError
from shiftstereo.model import ModelConfig, ModelWeights
from shiftstereo.training import (Checkpoint, load_checkpoint, load_weights,
                                  save_checkpoint)


def _checkpoint(seed=1):
    weights = ModelWeights.initialize(ModelConfig.tiny(), seed=seed)
    rng = np.random.default_rng(seed)
    for t in list(weights.params.values()) + list(weights.buffers.values()):
        t.data = rng.standard_normal(t.shape).astype(np.float32)
    return weights, Checkpoint.from_weights(weights)


def test_round_trip_is_bit_equal(tmp_path):
    weights, ckpt = _checkpoint()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, path)
    loaded = load_weights(load_checkpoint(path))
    assert loaded.config == weights.config
    for store, got in ((weights.params, loaded.params), (weights.buffers, loaded.buffers)):
        assert list(got) == list(store)
        for name, t in store.items():
            assert got[name].data.dtype == np.float32
            assert np.array_equal(got[name].data, t.data), name
            assert got[name].requires_grad == t.requires_grad, name


def test_float64_entries_load_as_float32():
    _, ckpt = _checkpoint()
    expected = ckpt.params["feature.down.w"].astype(np.float32)
    ckpt.params["feature.down.w"] = ckpt.params["feature.down.w"].astype(np.float64)
    loaded = load_weights(ckpt)
    assert np.array_equal(loaded.params["feature.down.w"].data, expected)


def test_missing_entry_is_named():
    _, ckpt = _checkpoint()
    del ckpt.buffers["matching.enc2.var"]
    with pytest.raises(CheckpointShapeError,
                       match=r"^checkpoint is missing entry 'matching.enc2.var' "
                             r"required by config$"):
        load_weights(ckpt)


def test_extra_entry_is_named():
    _, ckpt = _checkpoint()
    ckpt.params["feature.out.gamma"] = np.ones((1, 16, 1, 1), np.float32)
    with pytest.raises(CheckpointShapeError,
                       match=r"^checkpoint entry 'feature.out.gamma' does not exist "
                             r"in the configured model$"):
        load_weights(ckpt)


def test_misshaped_entry_names_both_shapes():
    _, ckpt = _checkpoint()
    ckpt.params["refine.head.w"] = np.zeros((32, 4, 3, 3), np.float32)
    with pytest.raises(CheckpointShapeError,
                       match=r"^checkpoint entry 'refine.head.w' has shape \(32, 4, 3, 3\), "
                             r"config expects \(32, 3, 3, 3\)$"):
        load_weights(ckpt)

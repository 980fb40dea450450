"""Checkpoint round trips, the checks ``load_weights`` makes on them, and
the Adam update."""

import os

import numpy as np
import pytest

from conftest import adam_reference_trace
from shiftstereo import training
from shiftstereo.errors import CheckpointShapeError
from shiftstereo.model import ModelConfig, ModelWeights
from shiftstereo.tensor import HIGH, Tensor
from shiftstereo.training import (AdamState, Checkpoint, adam_step, load_checkpoint,
                                  load_weights, save_checkpoint)


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


def test_failed_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    weights, ckpt = _checkpoint(seed=1)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, path)
    written = []

    def failing(f, name, arr):
        if len(written) == 3:
            raise OSError("disk full")
        written.append(name)
        write_entry(f, name, arr)

    write_entry = training._write_entry
    monkeypatch.setattr(training, "_write_entry", failing)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(_checkpoint(seed=2)[1], path)
    assert os.listdir(tmp_path) == ["model.ckpt"]
    loaded = load_weights(load_checkpoint(path))
    for store, got in ((weights.params, loaded.params), (weights.buffers, loaded.buffers)):
        for name, t in store.items():
            assert np.array_equal(got[name].data, t.data), name


def test_adam_step_follows_the_reference_trace():
    rng = np.random.default_rng(4)
    theta0 = rng.standard_normal((1, 2, 3, 4))
    grads = [rng.standard_normal(theta0.shape) * scale for scale in (1.0, 0.1, 10.0, 0.0, 1.0)]
    param = Tensor(theta0, requires_grad=True, dtype=HIGH)
    state = AdamState.for_params({"p": param}, lr=0.01)
    expected = adam_reference_trace(theta0, grads, lr=0.01)
    for g, want in zip(grads, expected):
        adam_step({"p": param}, state, {"p": g})
        np.testing.assert_allclose(param.data, want, rtol=1e-12, atol=1e-15)

"""Checkpoint round trips, the layout checks ``load_checkpoint`` makes on
saved files, the Adam update, and the memory of one training step."""

import io
import json
import os
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import adam_reference_trace, rewrite_metadata, traced_peak
from shiftstereo import cli, model, training
from shiftstereo.datasets import RdsConfig, gen_rds, read_manifest, save_samples
from shiftstereo.errors import (CheckpointError, CheckpointFormatError, CheckpointShapeError,
                                CheckpointVersionError)
from shiftstereo.model import ModelConfig, ModelWeights, forward_tensors
from shiftstereo.tensor import HIGH, Tape, Tensor, backward
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


def _saved(ckpt, tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, path)
    return path


def test_missing_entry_is_named(tmp_path):
    _, ckpt = _checkpoint()
    del ckpt.buffers["refine.block2.conv1.var"]
    with pytest.raises(CheckpointShapeError,
                       match=r": checkpoint is missing entry 'b/refine.block2.conv1.var' "
                             r"required by config$"):
        load_checkpoint(_saved(ckpt, tmp_path))


def test_extra_entry_is_named(tmp_path):
    _, ckpt = _checkpoint()
    ckpt.params["feature.out.gamma"] = np.ones((1, 16, 1, 1), np.float32)
    with pytest.raises(CheckpointShapeError,
                       match=r": entry 'p/feature.out.gamma' is not in the configured "
                             r"model's layout$"):
        load_checkpoint(_saved(ckpt, tmp_path))


def test_misshaped_entry_names_both_shapes(tmp_path):
    _, ckpt = _checkpoint()
    ckpt.params["refine.head.w"] = np.zeros((32, 4, 3, 3), np.float32)
    with pytest.raises(CheckpointShapeError,
                       match=r": entry 'p/refine.head.w' has extents \(32, 4, 3, 3\), "
                             r"config expects \(32, 3, 3, 3\)$"):
        load_checkpoint(_saved(ckpt, tmp_path))


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
        param.grad = g
        adam_step({"p": param}, state)
        np.testing.assert_allclose(param.data, want, rtol=1e-12, atol=1e-15)


# A small config keeps the fuzzed file at 66 kB; with the Adam moments it
# still has every kind of entry a training checkpoint holds.
_SMALL = ModelConfig.tiny(feature_channels=4, matching_channels=(4, 4, 4, 4),
                          spp_pools=((16, 4),), refine_channels=4, refine_blocks=(1,),
                          max_disparity=6)


def _small_checkpoint():
    """A small checkpoint with Adam moments."""
    weights = ModelWeights.initialize(_SMALL, seed=3)
    return Checkpoint.from_weights(weights, epoch=2, rng_state={"state": 7},
                                   adam=AdamState.for_params(weights.params))


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """Path of a saved :func:`_small_checkpoint`."""
    return _saved(_small_checkpoint(), tmp_path_factory.mktemp("ckpt"))


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _load_bytes(path, blob):
    with open(path, "wb") as f:
        f.write(blob)
    return load_weights(load_checkpoint(path))


_DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("flip"), st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                                  st.integers(1, 255)),
                                        min_size=1, max_size=3)),
)


@pytest.mark.parametrize("name", ["absent.ckpt", "", "a\0b.ckpt"],
                         ids=["missing", "directory", "nul byte"])
def test_unopenable_checkpoint_paths_are_checkpoint_errors(tmp_path, name):
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(os.path.join(str(tmp_path), name))


@settings(max_examples=300, deadline=None)
@given(damage=_DAMAGE, header=st.booleans())
def test_damaged_checkpoints_raise_only_checkpoint_errors(small_checkpoint, damage,
                                                          header):
    """Truncated or byte-flipped files: loading either succeeds or raises a
    CheckpointError. ``header`` aims the damage at the first 2 kB, where the
    metadata block and the first entry headers lie."""
    path = small_checkpoint
    blob = _read(path)
    span = 2048 if header else len(blob)
    kind, where = damage
    if kind == "truncate":
        damaged = blob[:int(where * span)]
    else:
        damaged = bytearray(blob)
        for at, mask in where:
            damaged[int(at * span)] ^= mask
    try:
        _load_bytes(path + ".damaged", bytes(damaged))
    except CheckpointError:
        pass


def _header_end(blob):
    """Offset just past the metadata block and the entry count."""
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    return 12 + meta_len + 4


def _refused_allocating_nothing(path, blob, error, match):
    """Loading ``blob`` from ``path`` raises ``error`` and traces a peak
    below four times the file's size."""
    def load():
        with pytest.raises(error, match=match):
            _load_bytes(path, blob)

    _, _, peak = traced_peak(load)
    assert peak < 4 * len(blob)


def test_entry_claiming_more_bytes_than_the_file_allocates_nothing(small_checkpoint):
    path = small_checkpoint
    blob = _read(path)
    at = _header_end(blob)
    (name_len,) = struct.unpack_from("<H", blob, at)
    extents = at + 2 + name_len + 1
    damaged = bytearray(blob)
    struct.pack_into("<4I", damaged, extents, 65535, 65535, 65535, 65535)
    _refused_allocating_nothing(path + ".huge", bytes(damaged), CheckpointShapeError,
                                r"'p/feature.down.w' has extents \(65535, 65535, 65535, "
                                r"65535\), config expects")


def test_entry_rank_above_the_numpy_limit_is_rejected(small_checkpoint):
    """A rank of 65, above what numpy can shape, reads 65 extents, and the
    layout check refuses them: the entry's name needs 4."""
    path = small_checkpoint
    blob = _read(path)
    at = _header_end(blob)
    (name_len,) = struct.unpack_from("<H", blob, at)
    damaged = bytearray(blob)
    damaged[at + 2 + name_len] = 65
    _refused_allocating_nothing(path + ".rank", bytes(damaged), CheckpointShapeError,
                                "'p/feature.down.w' has extents")


def test_empty_entry_with_unindexable_extents_is_rejected(small_checkpoint):
    """Extents (0, 2**32 - 1, ...) claim zero bytes, but numpy cannot shape them."""
    path = small_checkpoint
    blob = _read(path)
    at = _header_end(blob)
    (name_len,) = struct.unpack_from("<H", blob, at)
    extents = at + 2 + name_len + 1
    damaged = bytearray(blob)
    struct.pack_into("<4I", damaged, extents, 0, 2**32 - 1, 2**32 - 1, 2**32 - 1)
    _refused_allocating_nothing(path + ".empty", bytes(damaged), CheckpointShapeError,
                                r"'p/feature.down.w' has extents \(0, 4294967295")


def test_a_version_1_checkpoint_is_refused(small_checkpoint):
    """Version 1 saved the Adam betas and epsilon, and the model config's
    ``dilations`` and ``profile``; version 2 the matching net's running
    statistics, and version 3 the feature net's. Their files are refused
    by version."""
    path = small_checkpoint
    blob = _read(path)
    assert struct.unpack_from("<I", blob, 4) == (training.CHECKPOINT_VERSION,) == (4,)
    for version in (1, 2, 3):
        old = blob[:4] + struct.pack("<I", version) + blob[8:]
        with pytest.raises(CheckpointVersionError, match=f"version {version}"):
            _load_bytes(path + f".v{version}", old)


def test_the_metadata_holds_only_what_load_reads(small_checkpoint):
    blob = _read(small_checkpoint)
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    meta = json.loads(blob[12:12 + meta_len])
    assert meta["adam"] == {"lr": 1e-3, "t": 0}
    assert sorted(meta["config"]) == ["feature_channels", "in_channels", "matching_channels",
                                      "max_disparity", "refine_blocks", "refine_channels",
                                      "spp_pools"]


@pytest.mark.parametrize("old, new", [(b'"epoch"', b'"epocH"'),
                                      (b'"feature_channels"', b'"feature_channelZ"'),
                                      (b'"feature_channels": 4', b'"feature_channels": 0')])
def test_bad_metadata_is_a_format_error(small_checkpoint, old, new):
    path = small_checkpoint
    blob = _read(path)
    assert blob.count(old) == 1
    with pytest.raises(CheckpointFormatError, match="metadata"):
        _load_bytes(path + ".meta", blob.replace(old, new))


def _rewrite_meta(blob, edit):
    """``blob`` with the metadata that ``edit`` makes of its own, in place."""
    def rewrite(encoded):
        meta = json.loads(encoded)
        edit(meta)
        return json.dumps(meta).encode("utf-8")

    return rewrite_metadata(blob, rewrite)


@pytest.mark.parametrize("field, value", [("max_disparity", 24.0), ("in_channels", True),
                                          ("matching_channels", [4, 4.0, 4, 4]),
                                          ("spp_pools", [[4, 2.5]]),
                                          ("refine_blocks", [1, "2"])])
def test_a_config_field_that_is_not_an_int_is_a_format_error(small_checkpoint, field,
                                                             value):
    """A float ``max_disparity`` used to load, then stop ``infer`` with a
    TypeError in the cost volume."""
    path = small_checkpoint
    damaged = _rewrite_meta(_read(path), lambda meta: meta["config"].update({field: value}))
    with pytest.raises(CheckpointFormatError, match=f"{field} must hold ints"):
        _load_bytes(path + ".float", damaged)


def test_metadata_that_is_not_an_object_is_a_format_error(small_checkpoint):
    path = small_checkpoint
    damaged = rewrite_metadata(_read(path), lambda _: b"[1, 2]")
    with pytest.raises(CheckpointFormatError, match="metadata"):
        _load_bytes(path + ".list", damaged)


def test_metadata_nested_past_the_recursion_limit_is_a_format_error(small_checkpoint):
    """200,000 opening brackets used to escape the reader as a
    RecursionError."""
    path = small_checkpoint
    damaged = rewrite_metadata(_read(path), lambda _: b"[" * 200_000)
    with pytest.raises(CheckpointFormatError, match="garbled metadata"):
        _load_bytes(path + ".deep", damaged)


@pytest.mark.parametrize("pools", [[[16], [8]], [[16, 16, 3], [8, 16, 2]]],
                         ids=["singles", "triples"])
def test_spp_pools_that_are_not_pairs_are_a_format_error(small_checkpoint, pools):
    """Such a config used to pass the metadata check, and the layout then
    stopped the load with a bare ValueError."""
    path = small_checkpoint
    damaged = _rewrite_meta(_read(path), lambda meta: meta["config"].update(spp_pools=pools))
    with pytest.raises(CheckpointFormatError, match="spp_pools must hold"):
        _load_bytes(path + ".pools", damaged)


def _entries(blob):
    """(name, offset of the extents, payload size) of each entry of a
    checkpoint."""
    at, out = _header_end(blob), []
    while at < len(blob):
        (name_len,) = struct.unpack_from("<H", blob, at)
        name = blob[at + 2:at + 2 + name_len].decode()
        rank = blob[at + 2 + name_len]
        extents = struct.unpack_from(f"<{rank}I", blob, at + 3 + name_len)
        tag = blob[at + 3 + name_len + 4 * rank]
        size = int(np.prod(extents)) * (4 if tag == 0 else 8)
        out.append((name, at + 3 + name_len, size))
        at += 4 + name_len + 4 * rank + size
    return out


def test_a_load_skips_the_moments_and_gives_the_trained_weights(tmp_path):
    """``load_checkpoint`` reads a 1-epoch training checkpoint's parameters
    and buffers bit for bit and leaves its Adam moments, which the file
    holds, unread."""
    path = str(tmp_path / "model.ckpt")
    weights, _, _ = training.train(gen_rds(RdsConfig(width=48, height=48, seed=2), 2),
                                   ModelConfig.tiny(), epochs=1, seed=0, checkpoint_path=path)
    blob = _read(path)
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    assert json.loads(blob[12:12 + meta_len])["adam"]["t"] == 2
    assert {name[:2] for name, _, _ in _entries(blob)} == {"p/", "b/", "m/", "v/"}
    loaded = load_checkpoint(path)
    assert loaded.adam is None
    for got, want in ((loaded.params, weights.params), (loaded.buffers, weights.buffers)):
        assert list(got) == list(want)
        for name, t in want.items():
            assert got[name].dtype == t.data.dtype and np.array_equal(got[name], t.data), name


@pytest.mark.parametrize("where", ["first moment", "end"])
def test_a_load_still_checks_every_moment_length(small_checkpoint, where):
    """A moment entry whose payload would run past the end of the file is
    refused although it is passed over unread: the first ``m/`` entry made
    to claim more bytes than the file holds, which its layout's extents
    refuse, or the file cut inside the last ``v/`` entry."""
    path = small_checkpoint
    blob = _read(path)
    entries = _entries(blob)
    assert entries[-1][0].startswith("v/") and entries[-1][2] > 0
    if where == "end":
        damaged, error, match = blob[:-1], CheckpointFormatError, "truncated"
    else:
        name, extents, _ = next(e for e in entries if e[0].startswith("m/"))
        damaged = bytearray(blob)
        struct.pack_into("<I", damaged, extents, 1 << 30)
        damaged, error, match = bytes(damaged), CheckpointShapeError, f"'{name}' has extents"
    _refused_allocating_nothing(path + ".cut", damaged, error, match)


def _appended(blob, name, arr):
    """``blob`` with one more entry, ``name`` holding ``arr``, at its end."""
    entry = io.BytesIO()
    training._write_entry(entry, name, arr)
    at = _header_end(blob) - 4
    (count,) = struct.unpack_from("<I", blob, at)
    return blob[:at] + struct.pack("<I", count + 1) + blob[at + 4:] + entry.getvalue()


def _malformed(case, tmp_path):
    """The bytes of a small checkpoint with Adam moments, damaged as ``case``
    says. A reader that checks no layout loads each of them."""
    ckpt = _small_checkpoint()
    moments = ckpt.adam.m
    if case == "unknown moment":
        moments["no.such.layer.w"] = np.zeros((1, 1, 1, 1), np.float32)
    elif case == "misshaped moment":
        moments["refine.out.w"] = np.zeros((1, 4, 3, 1), np.float32)
    elif case == "missing moment":
        del moments["refine.out.w"]
    blob = _read(_saved(ckpt, tmp_path))
    if case == "duplicated parameter":
        return _appended(blob, "p/refine.out.w", np.ones((1, 4, 3, 3), np.float32))
    if case == "moments without an Adam state":
        return _rewrite_meta(blob, lambda meta: meta.update(adam=None))
    return blob


_MALFORMED = {
    "duplicated parameter": r"entry 'p/refine.out.w' appears twice$",
    "unknown moment": r"entry 'm/no.such.layer.w' is not in the configured model's layout$",
    "misshaped moment": r"entry 'm/refine.out.w' has extents \(1, 4, 3, 1\), "
                        r"config expects \(1, 4, 3, 3\)$",
    "moments without an Adam state": r"entry 'm/feature.down.w' is not in the configured "
                                     r"model's layout$",
    "missing moment": r"checkpoint is missing entry 'm/refine.out.w' required by config$",
}


@pytest.fixture(scope="module")
def small_pair(tmp_path_factory):
    """Paths of one 48x48 stereogram pair the small config runs on."""
    out = str(tmp_path_factory.mktemp("pair"))
    return read_manifest(save_samples(gen_rds(RdsConfig(width=48, height=48, seed=5), 1),
                                      out))[0][:2]


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_the_reader_refuses_what_the_layout_lacks(tmp_path, small_pair, capsys, case):
    """Each file is refused with a CheckpointShapeError naming the entry,
    and ``infer`` on it exits 2 and writes no output."""
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as f:
        f.write(_malformed(case, tmp_path))
    with pytest.raises(CheckpointShapeError, match=_MALFORMED[case]):
        load_checkpoint(path)
    disp, entropy = str(tmp_path / "disp.pfm"), str(tmp_path / "entropy.pfm")
    assert cli.main(["infer", "--ckpt", path, "--left", small_pair[0], "--right",
                     small_pair[1], "--out-disp", disp, "--out-entropy", entropy]) == 2
    assert "bad.ckpt" in capsys.readouterr().err
    assert not os.path.exists(disp) and not os.path.exists(entropy)


def test_training_is_a_pure_function_of_data_config_and_seed(tmp_path):
    """Two runs on the same data, config and seed write byte-identical
    checkpoint and ``.best`` files and report equal epoch statistics; a
    different seed writes a different checkpoint."""
    samples = gen_rds(RdsConfig(width=48, height=48, seed=2), 4)
    runs = []
    for name, seed in (("first", 0), ("again", 0), ("other", 1)):
        path = str(tmp_path / f"{name}.ckpt")
        _, _, stats = training.train(samples[:3], ModelConfig.tiny(), epochs=2, seed=seed,
                                     val_samples=samples[3:], checkpoint_path=path)
        runs.append((_read(path), _read(path + ".best"), stats))
    assert runs[0] == runs[1]
    assert runs[2][0] != runs[0][0]


def test_the_returned_checkpoint_holds_the_weights_own_arrays():
    """``train`` keeps no second copy of the weights: its Checkpoint refers
    to the returned weights' own arrays."""
    samples = gen_rds(RdsConfig(width=48, height=48, seed=2), 2)
    weights, ckpt, _ = training.train(samples, ModelConfig.tiny(), epochs=1, seed=0)
    for store, saved in ((weights.params, ckpt.params), (weights.buffers, ckpt.buffers)):
        assert list(saved) == list(store)
        assert all(saved[name] is t.data for name, t in store.items())
    assert ckpt.epoch == 1 and ckpt.adam.t == 2


def test_a_step_outputs_are_gone_before_the_next_forward(monkeypatch):
    """``train`` drops step k's outputs and loss once backward has run, so
    none of them lives through step k+1's forward: the array of step k's
    refined disparity is gone when step k+1's forward starts."""
    refs, forward = [], training.forward_tensors

    def watched_forward(*args, **kwargs):
        assert all(ref() is None for ref in refs)
        out = forward(*args, **kwargs)
        refs.append(weakref.ref(out["refined"].data))
        return out

    monkeypatch.setattr(training, "forward_tensors", watched_forward)
    samples = gen_rds(RdsConfig(width=48, height=48, seed=2), 3)
    training.train(samples, ModelConfig.tiny(), epochs=1, seed=0)
    assert len(refs) == 3


def test_training_step_peak_memory_is_bounded():
    """One tiny-profile training step on a 48x48 stereogram, forward under
    a tape plus backward, peaks below 8.2 MB of traced allocations. A
    backward that keeps every node and gradient until it returns, with
    norms that save their normalized input beside a separate ReLU's
    output, peaked at 26.6 MB on this step; consuming the tape with fused
    norm + ReLU ops peaked at 11.7 MB, with the skip sums fused too at
    10.57 MB, and with norms that keep no output array on the tape at
    9.08 MB. A tape that holds slots, not tensors, so that each map dies
    after the last closure that reads it, peaks at 6.81 MB."""
    cfg = ModelConfig.tiny()
    weights = ModelWeights.initialize(cfg, seed=0)
    [sample] = gen_rds(RdsConfig(width=48, height=48, seed=1), 1)
    left, right = Tensor(sample.left[None]), Tensor(sample.right[None])

    def step():
        with Tape() as tape:
            out = forward_tensors(left, right, weights, cfg, training=True)
            loss = training.total_loss(out["coarse"], out["refined"], sample.gt,
                                       sample.valid, max_disparity=cfg.max_disparity)
        backward(loss, tape)
        weights.zero_grads()

    step()  # fills the resize-matrix cache
    _, _, peak = traced_peak(step)
    assert peak < 8.2e6, peak


def _tiny_step(cfg, sample, weights, left):
    """One training step under a tape; returns the loss and the number of
    nodes the tape held."""
    with Tape() as tape:
        out = forward_tensors(left, Tensor(sample.right[None]), weights, cfg, training=True)
        loss = training.total_loss(out["coarse"], out["refined"], sample.gt, sample.valid,
                                   max_disparity=cfg.max_disparity)
    nodes = len(tape.nodes)
    backward(loss, tape)
    return loss.item(), nodes


def test_a_segmented_step_is_bit_equal_to_the_plain_call(monkeypatch):
    """A tiny step at 48x48 whose 8 levels run as two batches of 4. With
    each batch a segment that backward re-runs, the loss, every parameter
    gradient, the left image's gradient and every running buffer are bit
    for bit those of the same step with the segment replaced by a plain
    call."""
    monkeypatch.setattr(model, "_LEVEL_BATCH_PIXELS", 4 * 16 * 16)
    cfg = ModelConfig.tiny()
    assert model.levels_per_batch(cfg, 16, 16) == 4
    [sample] = gen_rds(RdsConfig(width=48, height=48, seed=1), 1)
    runs = []
    for plain in (False, True):
        if plain:
            monkeypatch.setattr(model, "segment", lambda op, fn, inputs: fn(*inputs))
        weights = ModelWeights.initialize(cfg, seed=0)
        tail = weights.params["refine.out.w"]
        tail.data[...] = np.random.default_rng(5).standard_normal(tail.shape) * 0.1
        left = Tensor(sample.left[None], requires_grad=True)
        loss, nodes = _tiny_step(cfg, sample, weights, left)
        runs.append((weights, loss, nodes, left.grad))
    (weights, loss, nodes, left_grad), (kept, kept_loss, kept_nodes, kept_left_grad) = runs
    assert nodes < kept_nodes
    assert loss == kept_loss and np.array_equal(left_grad, kept_left_grad)
    for name, p in weights.params.items():
        assert p.grad is not None and np.array_equal(p.grad, kept.params[name].grad), name
    for name, t in weights.buffers.items():
        assert np.array_equal(t.data, kept.buffers[name].data), name
    initial = ModelWeights.initialize(cfg, seed=0).buffers
    assert not np.array_equal(weights.buffers["refine.head.mean"].data,
                              initial["refine.head.mean"].data)


def test_step_peak_does_not_grow_with_level_batches():
    """A tiny step on a 96x96 stereogram runs its levels in batches of 8: one
    batch at max_disparity 24, two at 48. Each batch is a segment that keeps
    only its cost maps to backward, so the step at 48 peaks within 0.5 MB
    of the step at 24 (15.9 and 16.0 MB). With every batch's maps on the
    tape to backward the two read 23.5 and 28.5 MB. Both peak below 17 MB
    because refine keeps no raw sum of its head or of a block's conv1 (they
    read 20.6 and 20.7 MB when it kept them and backward pinned the last
    block output)."""
    [sample] = gen_rds(RdsConfig(width=96, height=96, seed=1), 1)
    left = Tensor(sample.left[None])
    peaks = []
    for max_disparity in (24, 48):
        cfg = ModelConfig.tiny(max_disparity=max_disparity)
        assert model.levels_per_batch(cfg, 32, 32) == 8
        weights = ModelWeights.initialize(cfg, seed=0)
        _tiny_step(cfg, sample, weights, left)  # fills the resize-matrix cache
        weights.zero_grads()
        peaks.append(traced_peak(lambda: _tiny_step(cfg, sample, weights, left))[2])
    assert peaks[1] - peaks[0] < 0.5e6, peaks
    assert peaks[0] < 17.0e6, peaks

"""The command-line entry point, driven through ``cli.main(argv)``."""

import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_infer_writes_the_entropy_map(tmp_path, pair):
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    out = str(tmp_path / "entropy.pfm")
    assert cli.main(["infer", "--ckpt", ckpt, "--left", pair[0], "--right", pair[1],
                     "--out-disp", str(tmp_path / "disp.pfm"), "--out-entropy", out]) == 0

    weights = load_weights(load_checkpoint(ckpt))
    left, right = (Tensor(normalize_image(read_pnm(p))[None]) for p in pair)
    expected = forward_tensors(left, right, weights, weights.config)["entropy"].data[0, 0]
    entropy = read_pfm(out)
    assert np.array_equal(entropy, expected)
    # Seeded weights give near-uniform level distributions, whose float32
    # entropy can round one ulp above ln(levels).
    assert 0 <= entropy.min() and entropy.max() <= np.log(weights.config.levels) + 1e-6


def test_infer_holds_only_the_folded_weights(tmp_path, pair):
    """Once folded, the checkpoint's raw weights are dropped before the
    forward pass: a tiny 48x48 infer peaks at about 3.7 MB of traced
    memory, and about 5.0 MB while the raw copy stays alive beside it."""
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    out = str(tmp_path / "disp.pfm")
    assert _infer(ckpt, *pair, out) == 0  # warm-up: imports and cached matrices
    tracemalloc.start()
    try:
        assert _infer(ckpt, *pair, out) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.3e6


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 the caller's stack keeps a call's "
                           "arguments alive to its end, so the weights of every "
                           "stage live through refine")
def test_infer_frees_each_stage_s_weights_once_it_has_run(tmp_path):
    """A full-profile infer at 144x240 (16 levels) peaks at or below 17.0 MB
    of traced memory (about 16.2): the folded weights go to the forward pass
    as a temporary, so it frees each stage's weights once the stage has run.
    Keeping them all through refine reads about 20.3 MB."""
    cfg = ModelConfig.full(in_channels=1, max_disparity=48)
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(Checkpoint.from_weights(ModelWeights.initialize(cfg, seed=0)), ckpt)
    rds = RdsConfig(width=240, height=144, disparity_range=(6, 42), seed=1)
    left, right, _ = read_manifest(save_samples(gen_rds(rds, 1), str(tmp_path / "data")))[0]
    out = str(tmp_path / "disp.pfm")
    assert _infer(ckpt, left, right, out) == 0  # warm-up: imports and cached matrices
    tracemalloc.start()
    try:
        assert _infer(ckpt, left, right, out) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17.0e6


def test_infer_missing_input_is_a_usage_error(tmp_path, pair):
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    out = str(tmp_path / "disp.pfm")
    assert _infer(ckpt, str(tmp_path / "absent.pgm"), pair[1], out) == 2
    assert not os.path.exists(out)


def test_infer_missing_checkpoint_is_a_usage_error(tmp_path, pair, capsys):
    out = str(tmp_path / "disp.pfm")
    assert _infer(str(tmp_path / "absent.ckpt"), *pair, out) == 2
    assert not os.path.exists(out)
    assert "absent.ckpt" in capsys.readouterr().err


def test_infer_directory_input_is_a_usage_error(tmp_path, pair):
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    out = str(tmp_path / "disp.pfm")
    assert _infer(ckpt, str(tmp_path), pair[1], out) == 2
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


def test_infer_into_a_missing_directory_is_a_usage_error(tmp_path, pair, capsys):
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    out = str(tmp_path / "absent" / "disp.pfm")
    assert _infer(ckpt, *pair, out) == 2
    assert not os.path.exists(tmp_path / "absent")
    assert "absent" in capsys.readouterr().err


def test_infer_writes_both_outputs_or_neither(tmp_path, pair, capsys):
    """An unwritable entropy path used to leave the disparity PFM behind."""
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    out = str(tmp_path / "disp.pfm")
    assert cli.main(["infer", "--ckpt", ckpt, "--left", pair[0], "--right", pair[1],
                     "--out-disp", out,
                     "--out-entropy", str(tmp_path / "absent" / "ent.pfm")]) == 2
    assert not os.path.exists(out)
    assert "cannot write the output" in capsys.readouterr().err


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


def test_smoke_chain_gen_rds_train_infer_eval(tmp_path):
    """Every command a user chains, through ``cli.main``, exits 0."""
    data, ckpt = str(tmp_path / "data"), str(tmp_path / "model.ckpt")
    assert cli.main(["gen-rds", "--out", data, "--count", "4", "--width", "48",
                     "--height", "48", "--split", "0.75"]) == 0
    train_manifest = os.path.join(data, "manifest_train.txt")
    val_manifest = os.path.join(data, "manifest_val.txt")
    assert len(read_manifest(train_manifest)) == 3
    assert cli.main(["train", "--data", train_manifest, "--val-data", val_manifest,
                     "--profile", "tiny", "--epochs", "1", "--out", ckpt]) == 0
    [(left, right, gt)] = read_manifest(val_manifest)
    disp = str(tmp_path / "disp.pfm")
    assert _infer(ckpt, left, right, disp) == 0
    preds, gts = tmp_path / "preds.txt", tmp_path / "gts.txt"
    preds.write_text(disp + "\n")
    gts.write_text(gt + "\n")
    assert cli.main(["eval", "--pred-manifest", str(preds),
                     "--gt-manifest", str(gts)]) == 0


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("flags", [["--threads", "1"], ["--threads=1"]])
def test_entry_pins_blas_threads_from_either_flag_form(monkeypatch, flags):
    """The console-script entry sets the BLAS thread variables from
    ``--threads N`` and from ``--threads=N`` before ``main`` runs."""
    for var in _THREAD_VARS + (cli.THREADS_ENV,):
        monkeypatch.setenv(var, "")  # so that teardown also removes what entry sets
        monkeypatch.delenv(var)
    seen = {}

    def main(argv):
        seen.update((var, os.environ.get(var)) for var in _THREAD_VARS)
        return 0

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(sys, "argv", ["shiftstereo", "gradcheck"] + flags)
    with pytest.raises(SystemExit) as stop:
        cli.entry()
    assert stop.value.code == 0
    assert seen == dict.fromkeys(_THREAD_VARS, "1")


@pytest.mark.parametrize("split", ["-0.5", "1.5"])
def test_gen_rds_rejects_a_split_outside_zero_to_one(tmp_path, capsys, split):
    """A split below 0 named negative file indices in the val manifest, and
    one above 1 wrote an empty val set; both are refused before any file."""
    out = tmp_path / "data"
    assert cli.main(["gen-rds", "--out", str(out), "--count", "4", "--width", "48",
                     "--height", "48", "--split", split]) == 2
    assert not out.exists()
    assert "--split" in capsys.readouterr().err


def test_gen_rds_under_a_regular_file_is_a_usage_error(tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("x")
    assert cli.main(["gen-rds", "--out", str(plain / "sub"), "--count", "4", "--width",
                     "48", "--height", "48"]) == 2
    assert os.listdir(tmp_path) == ["plain"] and plain.read_text() == "x"
    assert str(plain / "sub") in capsys.readouterr().err


def test_eval_missing_prediction_is_a_usage_error(tmp_path, capsys):
    preds, gts = tmp_path / "preds.txt", tmp_path / "gts.txt"
    preds.write_text(str(tmp_path / "absent.pfm") + "\n")
    gts.write_text(str(tmp_path / "gt.pfm") + "\n")
    assert cli.main(["eval", "--pred-manifest", str(preds), "--gt-manifest", str(gts)]) == 2
    assert "absent.pfm" in capsys.readouterr().err


def test_gradcheck_reports_an_injected_fault():
    assert cli.main(["gradcheck", "--inject-fault", "1"]) == 1


def test_train_on_a_missing_manifest_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["train", "--data", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "model.ckpt")]) == 2
    assert "nope.txt" in capsys.readouterr().err


def test_train_into_a_missing_directory_is_a_usage_error(tmp_path, pair, capsys):
    manifest = os.path.join(os.path.dirname(pair[0]), "manifest.txt")
    out = str(tmp_path / "absent" / "model.ckpt")
    assert cli.main(["train", "--data", manifest, "--profile", "tiny",
                     "--epochs", "1", "--out", out]) == 2
    assert not os.path.exists(tmp_path / "absent")
    assert "absent" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--crop-height", "--crop-width"])
def test_train_with_half_a_crop_is_a_usage_error(tmp_path, pair, capsys, flag):
    """One crop extent without the other used to train uncropped, with exit 0."""
    manifest = os.path.join(os.path.dirname(pair[0]), "manifest.txt")
    out = tmp_path / "model.ckpt"
    assert cli.main(["train", "--data", manifest, "--profile", "tiny", "--epochs", "1",
                     "--out", str(out), flag, "32"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--crop-height" in err and "--crop-width" in err


_NOT_UTF8 = b"left_\xff.pgm\tright.pgm\tgt.pfm\n"


def test_train_on_a_non_utf8_manifest_is_a_usage_error(tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_bytes(_NOT_UTF8)
    assert cli.main(["train", "--data", str(manifest),
                     "--out", str(tmp_path / "model.ckpt")]) == 2


def test_eval_on_a_non_utf8_manifest_is_a_usage_error(tmp_path):
    preds, gts = tmp_path / "preds.txt", tmp_path / "gts.txt"
    preds.write_bytes(_NOT_UTF8)
    gts.write_text("gt.pfm\n")
    assert cli.main(["eval", "--pred-manifest", str(preds),
                     "--gt-manifest", str(gts)]) == 2


def test_non_utf8_config_file_is_a_usage_error(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"height=96\nwidth=\xff96\n")
    assert cli.main(["estimate-resources", "--config", str(config)]) == 2


@pytest.mark.parametrize("command", [
    ["estimate-resources"],
    ["train", "--data", "unread.txt", "--out", "unwritten.ckpt"]])
def test_unknown_profile_is_a_usage_error(capsys, command):
    assert cli.main(command + ["--profile", "tny"]) == 2
    assert "unknown profile 'tny'" in capsys.readouterr().err


def test_estimate_resources_refuses_what_the_model_refuses(capsys):
    # 20x20 gives 7x7 features: below the matching net's 16x16 and narrower
    # than the full profile's 64 disparity levels
    assert cli.main(["estimate-resources", "--height", "20", "--width", "20"]) == 2
    assert "16x16" in capsys.readouterr().err
    assert cli.main(["estimate-resources", "--profile", "tiny", "--height", "96",
                     "--width", "96", "--max-disp", "24", "--in-channels", "1"]) == 0


_CONFIG_KEYS = sorted(cli.RESOURCES_DEFAULTS) + ["bogus", "", "# note"]


def _config_text(entries):
    return "".join(f"{key}={value}\n" for key, value in entries).encode("utf-8")


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("config") / "fuzz.cfg")


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(
    st.binary(max_size=200),
    st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), st.text(max_size=12)),
             max_size=6).map(_config_text)))
def test_fuzzed_config_files_never_escape_main(config_path, blob):
    """A config overlay of arbitrary bytes, or of known keys with arbitrary
    values, makes ``main`` return an exit code; no exception escapes."""
    with open(config_path, "wb") as f:
        f.write(blob)
    assert cli.main(["estimate-resources", "--config", config_path]) in (0, 2)

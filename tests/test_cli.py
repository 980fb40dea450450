"""The command-line entry point, driven through ``cli.main(argv)``."""

import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from conftest import rewrite_metadata, traced_peak
from shiftstereo import cli, datasets
from shiftstereo.baseline import estimate_resources
from shiftstereo.datasets import (RdsConfig, gen_rds, normalize_image, read_manifest,
                                  read_pfm, read_pnm, save_samples, write_pfm)
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


def _infer_peak(ckpt, left, right, out) -> int:
    """Traced peak of an ``infer`` run after a warm-up run, which takes the
    imports and cached matrices out of the figure."""
    assert _infer(ckpt, left, right, out) == 0
    code, _, peak = traced_peak(lambda: _infer(ckpt, left, right, out))
    assert code == 0
    return peak


def test_infer_holds_only_the_folded_weights(tmp_path, pair):
    """The checkpoint's raw weights are dropped before the forward pass,
    and refine's raw arrays at its fold: a tiny 48x48 infer peaks at about
    2.7 MB of traced memory. A raw copy alive beside the folded one reads
    about 3.9 MB."""
    assert _infer_peak(_checkpoint(tmp_path / "model.ckpt"), *pair,
                       str(tmp_path / "disp.pfm")) < 3.3e6


def test_infer_frees_each_stage_s_weights_once_it_has_run(tmp_path):
    """A full-profile infer at 144x240 (16 levels) peaks at or below 17.0 MB
    of traced memory (about 16.2): the weights go to the forward pass as a
    temporary, so it frees each stage's weights once the stage has run.
    Keeping them all through refine reads about 20.3 MB."""
    cfg = ModelConfig.full(in_channels=1, max_disparity=48)
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(Checkpoint.from_weights(ModelWeights.initialize(cfg, seed=0)), ckpt)
    rds = RdsConfig(width=240, height=144, disparity_range=(6, 42), seed=1)
    left, right, _ = read_manifest(save_samples(gen_rds(rds, 1), str(tmp_path / "data")))[0]
    assert _infer_peak(ckpt, left, right, str(tmp_path / "disp.pfm")) <= 17.0e6


def test_validation_scores_what_infer_writes(tmp_path, capsys):
    """After a 1-epoch tiny ``train`` on a saved set, the logged ``val_epe``
    is ``eval``'s aggregate ``epe`` over what ``infer`` writes for the same
    validation pairs: validation and ``infer`` compute one function."""
    data = str(tmp_path / "data")
    assert cli.main(["gen-rds", "--out", data, "--count", "4", "--width", "48",
                     "--height", "48", "--split", "0.5"]) == 0
    train_manifest, val_manifest = capsys.readouterr().out.splitlines()[-2:]
    ckpt = str(tmp_path / "model.ckpt")
    assert cli.main(["train", "--data", train_manifest, "--val-data", val_manifest,
                     "--profile", "tiny", "--epochs", "1", "--out", ckpt]) == 0
    val_epe = float(re.search(r"val_epe=(\S+)", capsys.readouterr().out).group(1))
    preds, gts = tmp_path / "preds.txt", tmp_path / "gts.txt"
    pairs = read_manifest(val_manifest)
    assert len(pairs) == 2
    for i, (left, right, gt) in enumerate(pairs):
        out = str(tmp_path / f"disp_{i}.pfm")
        assert _infer(ckpt, left, right, out) == 0
        with open(preds, "a") as p, open(gts, "a") as g:
            p.write(out + "\n")
            g.write(gt + "\n")
    capsys.readouterr()
    assert cli.main(["eval", "--pred-manifest", str(preds), "--gt-manifest", str(gts)]) == 0
    epe = re.search(r"^aggregate: epe=(\S+)", capsys.readouterr().out, re.M).group(1)
    assert float(epe) == pytest.approx(val_epe, rel=1e-6)


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


def test_infer_overlong_image_header_token_is_a_usage_error(tmp_path, pair, capsys):
    """A 5,000-digit width used to stop infer with a ValueError traceback."""
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n" + b"9" * 5_000 + b" 4\n255\n" + bytes(16))
    out = str(tmp_path / "disp.pfm")
    assert _infer(ckpt, str(bad), pair[1], out) == 2
    assert not os.path.exists(out)
    assert "longer than" in capsys.readouterr().err


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


_DAMAGES = {
    "truncated": lambda blob: blob[:len(blob) // 2],
    "unknown config key": lambda blob: blob.replace(b'"feature_channels"',
                                                    b'"feature_channelZ"'),
    # Version 2 held the matching net's running statistics.
    "version 2": lambda blob: blob[:4] + struct.pack("<I", 2) + blob[8:],
    # Each of these two used to stop infer with a traceback.
    "deep metadata": lambda blob: rewrite_metadata(blob, lambda _: b"[" * 200_000),
    "spp_pools not pairs": lambda blob: rewrite_metadata(
        blob, lambda meta: meta.replace(b'"spp_pools": [[16, 16], [8, 16]]',
                                        b'"spp_pools": [[16], [8]]')),
}


@pytest.mark.parametrize("damage", list(_DAMAGES))
def test_infer_corrupt_checkpoint_is_a_usage_error(tmp_path, pair, capsys, damage):
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    with open(ckpt, "rb") as f:
        blob = f.read()
    damaged = _DAMAGES[damage](blob)
    assert damaged != blob
    with open(ckpt, "wb") as f:
        f.write(damaged)
    out = str(tmp_path / "disp.pfm")
    assert _infer(ckpt, *pair, out) == 2
    assert not os.path.exists(out)
    assert ckpt in capsys.readouterr().err


@pytest.mark.parametrize("older", [None, b"an older output"], ids=["new", "over an older"])
def test_infer_failing_mid_payload_leaves_no_file(tmp_path, pair, monkeypatch, capsys,
                                                  older):
    """A PFM write that fails in its payload, as on a full disk, used to
    leave the output truncated behind, or an older file there truncated."""
    ckpt = _checkpoint(tmp_path / "model.ckpt")
    out = tmp_path / "disp.pfm"
    if older is not None:
        out.write_bytes(older)

    class PayloadFails:
        """The file ``f``, but for writes longer than a PFM header line."""

        def __init__(self, f):
            self.f = f

        def __getattr__(self, name):
            return getattr(self.f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.f.__exit__(*exc)

        def write(self, data):
            if len(data) > 16:
                raise OSError(28, "No space left on device")
            return self.f.write(data)

    monkeypatch.setattr(datasets, "open", lambda *args: PayloadFails(open(*args)),
                        raising=False)
    assert _infer(ckpt, *pair, str(out)) == 2
    assert "No space left" in capsys.readouterr().err
    if older is None:
        assert sorted(os.listdir(tmp_path)) == ["data", "model.ckpt"]
    else:
        assert sorted(os.listdir(tmp_path)) == ["data", "disp.pfm", "model.ckpt"]
        assert out.read_bytes() == older


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
    assert _entry_thread_vars(monkeypatch, flags, {}) == dict.fromkeys(_THREAD_VARS, "1")


def _entry_thread_vars(monkeypatch, flags, preset):
    """The BLAS thread variables the command sees when ``entry`` runs
    ``gradcheck`` with ``flags`` under the environment ``preset``."""
    for var in _THREAD_VARS + ("SHIFTSTEREO_THREADS",):
        monkeypatch.setenv(var, "")  # so that teardown also removes what entry sets
        monkeypatch.delenv(var)
    for var, value in preset.items():
        monkeypatch.setenv(var, value)
    seen = {}

    def dispatch(args):
        assert args.command == "gradcheck"
        seen.update((var, os.environ.get(var)) for var in _THREAD_VARS)
        return 0

    monkeypatch.setattr(cli, "_dispatch", dispatch)
    monkeypatch.setattr(sys, "argv", ["shiftstereo", "gradcheck"] + flags)
    with pytest.raises(SystemExit) as stop:
        cli.entry()
    assert stop.value.code == 0
    return seen


def _count_parsers(monkeypatch):
    """The list that gets one entry per parser ``cli`` builds."""
    built = []
    build = cli._build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting)
    return built


def test_entry_parses_the_command_line_once(monkeypatch, capsys):
    """``entry`` used to build and run the parser once for ``--threads`` and
    again inside ``main``."""
    built = _count_parsers(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["shiftstereo", "estimate-resources", "--profile",
                                      "tiny", "--height", "96", "--width", "96",
                                      "--max-disp", "24"])
    with pytest.raises(SystemExit) as stop:
        cli.entry()
    assert stop.value.code == 0 and len(built) == 1
    assert "command=estimate-resources" in capsys.readouterr().out


def test_entry_refuses_a_bad_flag_with_exit_2(monkeypatch, capsys):
    built = _count_parsers(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["shiftstereo", "estimate-resources", "--height", "x"])
    with pytest.raises(SystemExit) as stop:
        cli.entry()
    assert stop.value.code == 2 and len(built) == 1
    assert "--height" in capsys.readouterr().err


def test_entry_threads_flag_overrides_the_environment(monkeypatch):
    """A preset variable used to win over ``--threads``, so a 1-thread run
    could use 4 BLAS threads."""
    preset = dict.fromkeys(_THREAD_VARS, "4")
    assert _entry_thread_vars(monkeypatch, ["--threads", "1"], preset) == \
        dict.fromkeys(_THREAD_VARS, "1")


def test_entry_without_threads_flag_leaves_the_environment(monkeypatch):
    """Without ``--threads`` nothing is set; SHIFTSTEREO_THREADS is not read."""
    preset = {"OPENBLAS_NUM_THREADS": "4", "SHIFTSTEREO_THREADS": "3"}
    assert _entry_thread_vars(monkeypatch, [], preset) == {
        "OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}


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


def test_eval_on_empty_manifests_is_a_usage_error(tmp_path, capsys):
    """Two empty manifests used to escape ``main`` as a ShapeError."""
    preds, gts = tmp_path / "preds.txt", tmp_path / "gts.txt"
    preds.write_text("")
    gts.write_text("\n")
    assert cli.main(["eval", "--pred-manifest", str(preds), "--gt-manifest", str(gts)]) == 2
    err = capsys.readouterr().err
    assert str(preds) in err and str(gts) in err


def test_eval_on_a_non_finite_prediction_is_a_usage_error(tmp_path, capsys):
    """NaN predictions at valid pixels used to score as good pixels in every
    bad-x rate, with exit 0."""
    gt = np.full((48, 48), 10.0, dtype=np.float32)
    pred = gt.copy()
    pred[:4] = np.nan  # 192 valid pixels
    write_pfm(gt, str(tmp_path / "gt.pfm"))
    write_pfm(pred, str(tmp_path / "pred.pfm"))
    (tmp_path / "preds.txt").write_text(str(tmp_path / "pred.pfm") + "\n")
    (tmp_path / "gts.txt").write_text(str(tmp_path / "gt.pfm") + "\n")
    assert cli.main(["eval", "--pred-manifest", str(tmp_path / "preds.txt"),
                     "--gt-manifest", str(tmp_path / "gts.txt")]) == 2
    assert "192 non-finite predictions" in capsys.readouterr().err


@pytest.mark.parametrize("thresholds", ["nan", "1,inf"])
def test_eval_non_finite_threshold_is_a_usage_error(tmp_path, capsys, thresholds):
    """A NaN threshold used to escape ``main`` as a ValueError, exit 1."""
    gt = np.full((4, 5), 10.0, dtype=np.float32)
    write_pfm(gt, str(tmp_path / "gt.pfm"))
    (tmp_path / "maps.txt").write_text(str(tmp_path / "gt.pfm") + "\n")
    assert cli.main(["eval", "--pred-manifest", str(tmp_path / "maps.txt"),
                     "--gt-manifest", str(tmp_path / "maps.txt"),
                     "--thresholds", thresholds]) == 2
    assert "thresholds must be finite" in capsys.readouterr().err


def test_eval_prints_each_figure_once(tmp_path, capsys):
    """One ``key=value`` line per map and one for the pooled aggregate."""
    rng = np.random.default_rng(0)
    preds, gts = [], []
    for i, extent in enumerate([(4, 5), (3, 6)]):
        gt = rng.uniform(0.0, 30.0, extent).astype(np.float32)  # some above the cap
        gt[0, 0] = np.inf
        gts.append(str(tmp_path / f"gt{i}.pfm"))
        preds.append(str(tmp_path / f"pred{i}.pfm"))
        write_pfm(gt, gts[-1])
        write_pfm(np.where(np.isfinite(gt), gt, 0.0) + rng.standard_normal(extent),
                  preds[-1])
    (tmp_path / "preds.txt").write_text("\n".join(preds))
    (tmp_path / "gts.txt").write_text("\n".join(gts))
    assert cli.main(["eval", "--pred-manifest", str(tmp_path / "preds.txt"),
                     "--gt-manifest", str(tmp_path / "gts.txt")]) == 0
    config, *rows = capsys.readouterr().out.splitlines()
    assert config.startswith("config: command=eval ")
    names = [row.partition(": ")[0] for row in rows]
    assert names == ["pred0.pfm", "pred1.pfm", "aggregate"]
    figures = [dict(kv.split("=") for kv in row.partition(": ")[2].split()) for row in rows]
    assert all(list(f) == ["epe", "rmse", "bad1", "bad2", "bad4", "a99", "n"]
               for f in figures)
    n = [int(f["n"]) for f in figures]
    assert n[2] == n[0] + n[1]
    pooled_epe = (n[0] * float(figures[0]["epe"]) + n[1] * float(figures[1]["epe"])) / n[2]
    assert float(figures[2]["epe"]) == pytest.approx(pooled_epe, abs=2e-6)


def test_estimate_resources_prints_each_figure_once(capsys):
    assert cli.main(["estimate-resources", "--profile", "tiny", "--height", "96",
                     "--width", "96", "--max-disp", "24"]) == 0
    config, *rows = capsys.readouterr().out.splitlines()
    assert config.startswith("config: command=estimate-resources ")
    cfg = ModelConfig.tiny(in_channels=3, max_disparity=24)
    assert rows == estimate_resources(cfg, 96, 96).kv_lines()


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


@pytest.mark.parametrize("crop, complaint", [
    ("60", "exceeds image 48x48"),
    ("20", "got 7x7"),
    ("-5", "must be positive")], ids=["above the image", "below the model", "negative"])
def test_train_with_a_crop_no_step_can_run_writes_nothing(tmp_path, pair, capsys, crop,
                                                          complaint):
    """Each of these crops used to exit 2 only at the first step, after the
    epoch-0 checkpoint was on disk."""
    manifest = os.path.join(os.path.dirname(pair[0]), "manifest.txt")
    out = tmp_path / "model.ckpt"
    assert cli.main(["train", "--data", manifest, "--profile", "tiny", "--epochs", "1",
                     "--out", str(out), "--crop-height", crop, "--crop-width", crop]) == 2
    assert os.listdir(tmp_path) == ["data"]  # no checkpoint, log or temporary file
    assert complaint in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, complaint", [
    ("--epochs", "0", "epochs must be at least 1"),
    ("--epochs", "-2", "epochs must be at least 1"),
    ("--lr", "-1", "lr must be finite and positive"),
    ("--lr", "nan", "lr must be finite and positive"),
    ("--lambda-weight", "nan", "lambda_weight must be finite and positive")])
def test_train_with_an_out_of_range_hyperparameter_writes_nothing(tmp_path, pair, capsys,
                                                                  flag, value, complaint):
    """Each of these used to train: no epoch wrote an untrained checkpoint
    with exit 0, a negative lr trained uphill, and a NaN weight wrote a
    checkpoint before it exited 3."""
    manifest = os.path.join(os.path.dirname(pair[0]), "manifest.txt")
    assert cli.main(["train", "--data", manifest, "--profile", "tiny", "--epochs", "1",
                     "--out", str(tmp_path / "model.ckpt"), flag, value]) == 2
    assert os.listdir(tmp_path) == ["data"]  # no checkpoint, log or temporary file
    assert complaint in capsys.readouterr().err


def test_a_divergence_exits_3_naming_the_last_checkpoint(tmp_path, monkeypatch, capsys):
    from shiftstereo import training
    from shiftstereo.errors import TrainingDiverged

    def train(*args, checkpoint_path, **kwargs):
        raise TrainingDiverged("non-finite loss at epoch 1", checkpoint_path)

    monkeypatch.setattr(training, "train", train)
    monkeypatch.setattr("shiftstereo.datasets.load_dataset", lambda path, max_disp: [])
    out = str(tmp_path / "model.ckpt")
    assert cli.main(["train", "--data", "unread.txt", "--out", out]) == 3
    assert capsys.readouterr().err == \
        f"error: non-finite loss at epoch 1; last checkpoint: {out}\n"


def test_train_on_images_of_another_channel_count_writes_nothing(tmp_path, pair, capsys):
    """A grayscale set under ``--in-channels 3`` used to exit 2 only at the
    first step, after the epoch-0 checkpoint was on disk."""
    manifest = os.path.join(os.path.dirname(pair[0]), "manifest.txt")
    assert cli.main(["train", "--data", manifest, "--profile", "tiny", "--epochs", "1",
                     "--in-channels", "3", "--out", str(tmp_path / "model.ckpt")]) == 2
    assert os.listdir(tmp_path) == ["data"]  # no checkpoint, log or temporary file
    assert "image has 1 channels, config expects 3" in capsys.readouterr().err


def test_train_on_an_empty_manifest_is_a_usage_error(tmp_path, capsys):
    manifest = tmp_path / "empty.txt"
    manifest.write_text("")
    out = tmp_path / "model.ckpt"
    assert cli.main(["train", "--data", str(manifest), "--out", str(out)]) == 2
    assert not out.exists()
    assert "empty dataset" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flags", [
    (["gen-rds"], "--out"),
    (["train", "--out", "unwritten.ckpt"], "--data"),
    (["infer", "--ckpt", "unread.ckpt"], "--left, --right, --out-disp"),
    (["eval"], "--pred-manifest, --gt-manifest")], ids=["gen-rds", "train", "infer", "eval"])
def test_missing_required_flags_are_named(capsys, argv, flags):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: missing required flags: {flags}\n"


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


def test_a_badly_typed_flag_is_refused_by_the_parser(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["estimate-resources", "--height", "x"])
    assert stop.value.code == 2
    assert "--height" in capsys.readouterr().err


def test_importing_the_cli_loads_no_numpy():
    """``entry`` sets the BLAS thread variables before numpy first loads."""
    probe = "import sys, shiftstereo.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout == "False\n"


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

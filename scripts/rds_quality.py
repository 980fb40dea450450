"""Held-out EPE of a model trained by the RDS recipe, through ``infer``.

The recipe: the tiny profile with max_disparity 24, trained on 48
``gen_rds`` pairs (RdsConfig seed 11) with training seed 3, lr 1e-3 and 12
epochs; 8 pairs (seed 1011) are held out. Training is a pure function of
these, so the figures reproduce bit for bit on one machine and BLAS.

The held-out pairs are scored three ways (:func:`score`):

- ``infer``: the refined maps that ``shiftstereo infer`` writes, scored by
  ``shiftstereo eval``; the coarse maps, which ``infer`` does not write,
  from the same ``forward_tensors(training=False)`` call that it makes.
- ``per_item``: ``forward_tensors(training=True)`` off a tape, on a fresh
  copy of the checkpoint's weights per pair, so that every norm runs on
  its item's own statistics: the function that training optimizes. It
  differs from ``infer`` only in refine, whose norms ``infer`` folds, so
  the two coarse EPEs are equal.
- ``best_constant``: the one disparity that scores best on every pixel,
  the median of the pooled ground truth.

Each EPE pools the valid pixels of all held-out pairs, as ``eval``'s
aggregate does, and is given to the 6 decimals that ``eval`` prints.

Run from the repository root (about 90 s at one BLAS thread)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/rds_quality.py \\
        --out RESULTS_rds.json

It writes the JSON, then exits 1 unless the refined EPE through ``infer``
is at least :data:`MARGIN_PX` below the best constant's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from shiftstereo import cli
from shiftstereo.datasets import (RdsConfig, gen_rds, normalize_image, read_manifest,
                                  read_pfm, read_pnm, save_samples, valid_mask)
from shiftstereo.evaluation import evaluate
from shiftstereo.model import ModelConfig, forward_tensors
from shiftstereo.tensor import Tensor
from shiftstereo.training import load_checkpoint, load_weights, train

RECIPE = dict(profile="tiny", max_disparity=24, train_pairs=48, train_data_seed=11,
              held_out_pairs=8, held_out_data_seed=1011, epochs=12, seed=3, lr=1e-3)
MARGIN_PX = 1.0


def _pooled_epe(preds: list[np.ndarray], gts: list[np.ndarray], max_disparity: int) -> float:
    masks = [valid_mask(gt, max_disparity) for gt in gts]
    pred = np.concatenate([p[m] for p, m in zip(preds, masks)])
    gt = np.concatenate([g[m] for g, m in zip(gts, masks)])
    return round(evaluate(pred, gt, np.ones(gt.shape, dtype=bool)).epe, 6)


def _run_cli(argv: list[str]) -> str:
    """``shiftstereo`` on argv in this process; its stdout, or RuntimeError
    naming the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"shiftstereo {argv[0]} exited {code}")
    return out.getvalue()


def score(ckpt: str, manifest: str, workdir: str) -> dict:
    """The refined and coarse EPE of the checkpoint on the manifest's pairs
    through ``infer`` and through the per-item pass, and the best constant's,
    as the module docstring describes. ``infer``'s maps go to ``workdir``."""
    config = load_checkpoint(ckpt).config
    pairs = read_manifest(manifest)
    gts = [read_pfm(gt) for _, _, gt in pairs]
    preds, coarse, per_item = [], [], {"coarse": [], "refined": []}
    for i, (left_path, right_path, _) in enumerate(pairs):
        out = os.path.join(workdir, f"disp_{i:05d}.pfm")
        _run_cli(["infer", "--ckpt", ckpt, "--left", left_path, "--right", right_path,
                  "--out-disp", out])
        preds.append(out)
        left, right = (Tensor(normalize_image(read_pnm(path))[None])
                       for path in (left_path, right_path))
        weights = load_weights(load_checkpoint(ckpt))
        coarse.append(forward_tensors(left, right, weights, config)["coarse"].data[0, 0])
        outputs = forward_tensors(left, right, weights, config, training=True)
        for key, maps in per_item.items():
            maps.append(outputs[key].data[0, 0])
    for name, paths in (("preds", preds), ("gts", [gt for _, _, gt in pairs])):
        with open(os.path.join(workdir, name + ".txt"), "w", encoding="utf-8") as f:
            f.write("".join(path + "\n" for path in paths))
    report = _run_cli(["eval", "--pred-manifest", os.path.join(workdir, "preds.txt"),
                       "--gt-manifest", os.path.join(workdir, "gts.txt"),
                       "--max-disp", str(config.max_disparity)])
    aggregate = report.strip().splitlines()[-1]
    refined = float(aggregate.split("epe=")[1].split()[0])
    constant = float(np.median(np.concatenate([gt[valid_mask(gt, config.max_disparity)]
                                               for gt in gts])))
    return {
        "infer": {"refined_epe": refined,
                  "coarse_epe": _pooled_epe(coarse, gts, config.max_disparity)},
        "per_item": {f"{key}_epe": _pooled_epe(maps, gts, config.max_disparity)
                     for key, maps in per_item.items()},
        "best_constant": {"disparity": constant,
                          "epe": _pooled_epe([np.full(gt.shape, constant) for gt in gts],
                                             gts, config.max_disparity)},
    }


def run_recipe(workdir: str) -> dict:
    """Train by :data:`RECIPE` in ``workdir`` and :func:`score` the held-out pairs."""
    r = RECIPE
    config = ModelConfig.tiny(max_disparity=r["max_disparity"])
    ckpt = os.path.join(workdir, "model.ckpt")
    _, _, stats = train(gen_rds(RdsConfig(seed=r["train_data_seed"]), r["train_pairs"]),
                        config, epochs=r["epochs"], seed=r["seed"], lr=r["lr"],
                        checkpoint_path=ckpt)
    manifest = save_samples(gen_rds(RdsConfig(seed=r["held_out_data_seed"]),
                                    r["held_out_pairs"]), os.path.join(workdir, "held_out"))
    return {"recipe": r, "final_mean_loss": round(stats[-1].mean_loss, 6),
            **score(ckpt, manifest, workdir)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="RESULTS_rds.json", help="JSON file to write")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        results = run_recipe(workdir)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=2)
        f.write("\n")
    refined, constant = results["infer"]["refined_epe"], results["best_constant"]["epe"]
    print(f"infer refined_epe={refined:.4f} best_constant_epe={constant:.4f}")
    if refined > constant - MARGIN_PX:
        print(f"refined EPE through infer is not {MARGIN_PX} px below "
              f"the best constant", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

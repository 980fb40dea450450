"""Command-line entry point wiring all modules into reproducible workflows.

Exit codes: 0 success, 1 check failure, 2 usage/input error, 3 runtime
divergence. argparse types every flag from its default, and ``_dispatch``,
which ``main`` and ``entry`` run on the parsed flags, maps the package's
errors to exit codes: ``TrainingDiverged`` to 3, naming the last
checkpoint, and any other ``ShiftStereoError`` to 2. Every command
prints its resolved settings as ``key=value`` lines before doing work, so a
run is reproducible from its own log; ``eval`` and ``estimate-resources``
print each figure once, in the same ``key=value`` form.

Module-scope imports are the stdlib and ``errors``, which imports nothing:
``entry`` must be able to set the BLAS thread variables from ``--threads``
before numpy is first loaded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, ShiftStereoError, TrainingDiverged

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _model_config(args: argparse.Namespace):
    """The ModelConfig of ``--profile``, ``--in-channels`` and ``--max-disp``;
    ConfigError on a profile other than ``tiny`` or ``full``."""
    from .model import ModelConfig

    make = {"tiny": ModelConfig.tiny, "full": ModelConfig.full}.get(args.profile)
    if make is None:
        raise ConfigError(f"unknown profile {args.profile!r}; expected 'tiny' or 'full'")
    return make(in_channels=args.in_channels, max_disparity=args.max_disp)


def _echo_settings(command: str, args: argparse.Namespace, defaults: dict) -> None:
    parts = [f"command={command}"]
    for key in sorted(defaults):
        parts.append(f"{key}={getattr(args, key)}")
    print("config: " + " ".join(parts))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

GEN_RDS_DEFAULTS = dict(out=None, count=2000, width=96, height=96, density=0.5,
                        max_disp=24, min_disp=6, num_shapes=6, seed=0, split=0.9)


def cmd_gen_rds(args) -> int:
    from .datasets import RdsConfig, gen_rds, save_samples

    if not 0 <= args.split <= 1:
        return _fail(f"--split must lie in [0, 1], got {args.split}")
    cfg = RdsConfig(width=args.width, height=args.height, dot_density=args.density,
                    num_shapes=args.num_shapes,
                    disparity_range=(args.min_disp, args.max_disp), seed=args.seed)
    samples = gen_rds(cfg, args.count)
    n_train = int(round(args.split * args.count))
    try:
        train_manifest = save_samples(samples[:n_train], args.out,
                                      manifest_name="manifest_train.txt")
        val_manifest = save_samples(samples[n_train:], args.out,
                                    manifest_name="manifest_val.txt",
                                    start_index=n_train)
    except OSError as e:
        return _fail(f"cannot write the dataset: {e}")
    print(train_manifest)
    print(val_manifest)
    return 0


TRAIN_DEFAULTS = dict(data=None, val_data="", profile="tiny", epochs=10, lr=1e-3,
                      lambda_weight=1.25, seed=0, out=None, max_disp=24,
                      in_channels=1, crop_height=0, crop_width=0,
                      log="", context_only=0)


def cmd_train(args) -> int:
    from .datasets import load_dataset
    from .training import LossConfig, train

    if bool(args.crop_height) != bool(args.crop_width):
        return _fail("--crop-height and --crop-width go together: give both or neither")
    config = _model_config(args)
    train_samples = load_dataset(args.data, config.max_disparity)
    val_samples = load_dataset(args.val_data, config.max_disparity) \
        if args.val_data else None
    crop = (args.crop_height, args.crop_width) if args.crop_height else None
    log_path = args.log or (args.out + ".log")
    try:
        train(train_samples, config, LossConfig(lambda_weight=args.lambda_weight),
              epochs=args.epochs, seed=args.seed, lr=args.lr,
              val_samples=val_samples, crop=crop,
              checkpoint_path=args.out, log_path=log_path,
              context_only=bool(args.context_only),
              progress=lambda s: print(s.log_line(), flush=True))
    except OSError as e:
        return _fail(f"cannot write the checkpoint or log: {e}")
    print(f"checkpoint: {args.out}")
    return 0


INFER_DEFAULTS = dict(ckpt=None, left=None, right=None, out_disp=None,
                      out_entropy="")


def cmd_infer(args) -> int:
    import numpy as np

    from .datasets import normalize_image, read_pnm, write_pfm
    from .model import forward_tensors
    from .tensor import Tensor
    from .training import load_checkpoint, load_weights

    # The one-item list lets the call below hand the weights over with no
    # name here bound to them, after the checkpoint is dropped: the callee
    # then holds their only reference, so the raw arrays it folds die at the
    # fold and each stage's weights once the stage has run. A name kept
    # bound here would hold every stage's weights through refine.
    ckpt = load_checkpoint(args.ckpt)
    config, weights = ckpt.config, [load_weights(ckpt)]
    del ckpt
    left = Tensor(normalize_image(read_pnm(args.left))[None])
    right = Tensor(normalize_image(read_pnm(args.right))[None])
    out = forward_tensors(left, right, weights.pop(), config)
    refined = out["refined"].data[0, 0]
    if not np.all(np.isfinite(refined)):
        return _fail(f"refined disparity has {int(np.sum(~np.isfinite(refined)))} "
                     f"non-finite values; no output written", code=3)
    outputs = {args.out_disp: refined}
    if args.out_entropy:
        outputs[args.out_entropy] = out["entropy"].data[0, 0]
    written = []  # both outputs or neither: a failed write removes the others
    try:
        for path, values in outputs.items():
            write_pfm(values, path)
            written.append(path)
    except OSError as e:
        for path in written:
            os.remove(path)
        return _fail(f"cannot write the output: {e}")
    print(args.out_disp)
    return 0


EVAL_DEFAULTS = dict(pred_manifest=None, gt_manifest=None, max_disp=24,
                     thresholds="1,2,4")


def cmd_eval(args) -> int:
    import numpy as np

    from .datasets import read_manifest, read_pfm, valid_mask
    from .evaluation import evaluate

    preds = [path for (path,) in read_manifest(args.pred_manifest, columns=1)]
    gts = [path for (path,) in read_manifest(args.gt_manifest, columns=1)]
    if len(preds) != len(gts):
        return _fail(f"manifest length mismatch: {len(preds)} predictions "
                     f"vs {len(gts)} ground truths")
    try:
        thresholds = [float(t) for t in args.thresholds.split(",") if t]
    except ValueError:
        return _fail(f"bad --thresholds value {args.thresholds!r}")
    if not preds:
        return _fail(f"no maps to score: {args.pred_manifest} and "
                     f"{args.gt_manifest} are empty")
    # The aggregate row scores the valid pixels of every map as one pool.
    lines, pooled_pred, pooled_gt = [], [], []
    for pred_path, gt_path in zip(preds, gts):
        pred = read_pfm(pred_path)
        gt = read_pfm(gt_path)
        mask = valid_mask(gt, args.max_disp)
        report = evaluate(pred, gt, mask, thresholds)
        lines.append(f"{os.path.basename(pred_path)}: {report.kv_line()}")
        pooled_pred.append(pred[mask])
        pooled_gt.append(gt[mask])
    pooled_gt = np.concatenate(pooled_gt)
    overall = evaluate(np.concatenate(pooled_pred), pooled_gt,
                       np.ones(pooled_gt.shape, dtype=bool), thresholds)
    print("\n".join(lines + [f"aggregate: {overall.kv_line()}"]))
    return 0


GRADCHECK_DEFAULTS = dict(inject_fault=0)


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_suite, standard_suite

    results = run_suite(standard_suite(inject_fault=bool(args.inject_fault)))
    for r in results:
        print(r.line())
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"gradcheck: {len(failures)} failing checks: "
              + ", ".join(sorted({r.case for r in failures})))
        return 1
    print("gradcheck: all checks passed")
    return 0


RESOURCES_DEFAULTS = dict(profile="full", height=540, width=960, max_disp=192,
                          in_channels=3)


def cmd_estimate_resources(args) -> int:
    from .baseline import estimate_resources

    for line in estimate_resources(_model_config(args), args.height, args.width).kv_lines():
        print(line)
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "gen-rds": (cmd_gen_rds, GEN_RDS_DEFAULTS,
                "generate a random-dot stereogram dataset with train/val manifests"),
    "train": (cmd_train, TRAIN_DEFAULTS,
              "train a model on a manifest dataset"),
    "infer": (cmd_infer, INFER_DEFAULTS,
              "run a trained model on one stereo pair"),
    "eval": (cmd_eval, EVAL_DEFAULTS,
             "score predicted disparity maps against ground truth"),
    "gradcheck": (cmd_gradcheck, GRADCHECK_DEFAULTS,
                  "verify analytic gradients against finite differences"),
    "estimate-resources": (cmd_estimate_resources, RESOURCES_DEFAULTS,
                           "report parameter/flop/peak-memory figures"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftstereo",
        description="Stereo matching via a shared 2D matching network applied "
                    "to every disparity-shifted feature pair.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--threads", type=int, default=None,
                       help="BLAS worker threads: sets " + ", ".join(_THREAD_VARS)
                       + " over any value they already have")
        for key, default in defaults.items():
            p.add_argument("--" + key.replace("_", "-"), default=default,
                           type=str if default is None else type(default),
                           help=f"default: {default!r}" if default is not None
                           else "required")
    return parser


def main(argv=None) -> int:
    return _dispatch(_build_parser().parse_args(argv))


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed command; the package's errors become exit codes."""
    handler, defaults, _ = _COMMANDS[args.command]
    _echo_settings(args.command, args, defaults)
    missing = [key for key, default in defaults.items()
               if default is None and getattr(args, key) is None]
    if missing:
        return _fail("missing required flags: "
                     + ", ".join("--" + key.replace("_", "-") for key in missing))
    try:
        return handler(args)
    except TrainingDiverged as e:
        print(f"error: {e}; last checkpoint: {e.checkpoint_path}", file=sys.stderr)
        return 3
    except ShiftStereoError as e:
        return _fail(str(e))


def entry() -> None:
    """Console-script entry: the command line is parsed once, and an
    explicit ``--threads`` sets the BLAS thread variables before numpy
    loads; without it they stay as they are."""
    args = _build_parser().parse_args(sys.argv[1:])
    if args.threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    sys.exit(_dispatch(args))


if __name__ == "__main__":
    entry()

"""Command-line entry point wiring all modules into reproducible workflows.

Exit codes: 0 success, 1 check failure, 2 usage/input error, 3 runtime
divergence. Every command prints its resolved settings as ``key=value``
lines before doing work, so a run is reproducible from its own log.

Only stdlib modules are imported at module scope: ``entry`` must be able
to cap BLAS worker threads (``--threads`` / ``SHIFTSTEREO_THREADS``)
before numpy is first loaded.
"""

from __future__ import annotations

import argparse
import os
import sys

THREADS_ENV = "SHIFTSTEREO_THREADS"
_UNSET = object()


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _apply_config_file(args: argparse.Namespace, defaults: dict) -> str | None:
    """Overlay key=value file entries under explicit flags (file < flags)."""
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                lines = f.readlines()
        except (OSError, UnicodeDecodeError) as e:
            return f"cannot read config file {args.config}: {e}"
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                return f"{args.config}:{lineno}: expected key=value, got {line!r}"
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in defaults:
                return f"{args.config}:{lineno}: unknown key {key!r}"
            if getattr(args, key) is _UNSET:
                setattr(args, key, value.strip())
    for key, default in defaults.items():
        if getattr(args, key) is _UNSET:
            setattr(args, key, default)
        else:
            value = getattr(args, key)
            if default is not None and not isinstance(value, type(default)):
                caster = type(default)
                try:
                    setattr(args, key, caster(value))
                except ValueError:
                    return f"bad value for --{key.replace('_', '-')}: {value!r}"
    return None


def _model_config(args: argparse.Namespace):
    """The ModelConfig of ``--profile``, ``--in-channels`` and ``--max-disp``;
    ConfigError on a profile other than ``tiny`` or ``full``."""
    from .errors import ConfigError
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
    from .errors import ConfigError

    if args.out is None:
        return _fail("--out is required")
    if not 0 <= args.split <= 1:
        return _fail(f"--split must lie in [0, 1], got {args.split}")
    try:
        cfg = RdsConfig(width=args.width, height=args.height, dot_density=args.density,
                        num_shapes=args.num_shapes,
                        disparity_range=(args.min_disp, args.max_disp), seed=args.seed)
        samples = gen_rds(cfg, args.count)
    except ConfigError as e:
        return _fail(str(e))
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
    from .errors import ConfigError, ParseError, ShapeError, TrainingDiverged
    from .training import LossConfig, train

    if args.data is None or args.out is None:
        return _fail("--data and --out are required")
    if bool(args.crop_height) != bool(args.crop_width):
        return _fail("--crop-height and --crop-width go together: give both or neither")
    try:
        config = _model_config(args)
        train_samples = load_dataset(args.data, config.max_disparity)
        val_samples = load_dataset(args.val_data, config.max_disparity) \
            if args.val_data else None
    except (ConfigError, ParseError, ShapeError) as e:
        return _fail(str(e))
    if not train_samples:
        return _fail(f"{args.data}: empty manifest")
    crop = (args.crop_height, args.crop_width) if args.crop_height else None
    log_path = args.log or (args.out + ".log")
    try:
        train(train_samples, config, LossConfig(lambda_weight=args.lambda_weight),
              epochs=args.epochs, seed=args.seed, lr=args.lr,
              val_samples=val_samples, crop=crop,
              checkpoint_path=args.out, log_path=log_path,
              context_only=bool(args.context_only),
              progress=lambda s: print(s.log_line(), flush=True))
    except TrainingDiverged as e:
        print(f"error: {e}; last checkpoint: {e.checkpoint_path}", file=sys.stderr)
        return 3
    except ShapeError as e:
        return _fail(str(e))
    except OSError as e:
        return _fail(f"cannot write the checkpoint or log: {e}")
    print(f"checkpoint: {args.out}")
    return 0


INFER_DEFAULTS = dict(ckpt=None, left=None, right=None, out_disp=None,
                      out_entropy="")


def cmd_infer(args) -> int:
    import numpy as np

    from .datasets import normalize_image, read_pnm, write_pfm
    from .errors import CheckpointError, ParseError, ShapeError
    from .model import forward_tensors
    from .tensor import Tensor
    from .training import load_checkpoint, load_weights

    for name in ("ckpt", "left", "right", "out_disp"):
        if getattr(args, name) is None:
            return _fail(f"--{name.replace('_', '-')} is required")
    try:
        # Only the folded weights run; the checkpoint's raw arrays are
        # dropped before the forward pass. The one-item list lets the call
        # below hand the weights over with no name here bound to them.
        ckpt = load_checkpoint(args.ckpt)
        config, folded = ckpt.config, [load_weights(ckpt).folded()]
        del ckpt
        left = Tensor(normalize_image(read_pnm(args.left))[None])
        right = Tensor(normalize_image(read_pnm(args.right))[None])
    except (CheckpointError, ParseError) as e:
        return _fail(str(e))
    try:
        # The weights go over as a temporary: on CPython 3.11+ the callee
        # then holds their only reference and frees each stage's weights
        # once the stage has run. On 3.10 the caller's stack keeps them
        # alive to the end of the call, with the same outputs.
        out = forward_tensors(left, right, folded.pop(), config)
    except ShapeError as e:
        return _fail(str(e))
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

    from .datasets import read_pfm
    from .errors import ParseError, ShapeError
    from .evaluation import aggregate, evaluate, report_table

    if args.pred_manifest is None or args.gt_manifest is None:
        return _fail("--pred-manifest and --gt-manifest are required")

    def read_list(path):
        with open(path, encoding="utf-8") as f:
            return [line.strip() for line in f if line.strip()]

    try:
        preds = read_list(args.pred_manifest)
        gts = read_list(args.gt_manifest)
    except (OSError, ValueError) as e:  # ValueError: undecodable text, a NUL byte
        return _fail(f"cannot read manifest: {e}")
    if len(preds) != len(gts):
        return _fail(f"manifest length mismatch: {len(preds)} predictions "
                     f"vs {len(gts)} ground truths")
    try:
        thresholds = [float(t) for t in args.thresholds.split(",") if t]
    except ValueError:
        return _fail(f"bad --thresholds value {args.thresholds!r}")
    rows = []
    try:
        for pred_path, gt_path in zip(preds, gts):
            pred = read_pfm(pred_path)
            gt = read_pfm(gt_path)
            mask = np.isfinite(gt) & (gt < args.max_disp)
            rows.append((os.path.basename(pred_path),
                         evaluate(pred, gt, mask, thresholds)))
    except (ParseError, ShapeError) as e:
        return _fail(str(e))
    overall = aggregate([r for _, r in rows])
    print(report_table(rows + [("aggregate", overall)]))
    for name, report in rows:
        print(f"{name}: {report.kv_line()}")
    print(f"aggregate: {overall.kv_line()}")
    return 0


GRADCHECK_DEFAULTS = dict(inject_fault=0)


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_suite, standard_suite

    report = run_suite(standard_suite(inject_fault=bool(args.inject_fault)))
    for line in report.lines():
        print(line)
    failures = report.failures()
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
    from .errors import ConfigError, ShapeError

    try:
        report = estimate_resources(_model_config(args), args.height, args.width)
    except (ConfigError, ShapeError) as e:
        return _fail(str(e))
    print(report.text_table())
    for line in report.kv_lines():
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
        p.add_argument("--config", default=None,
                       help="key=value overlay file (flags take precedence)")
        p.add_argument("--threads", type=int, default=None,
                       help="cap worker threads (or set $" + THREADS_ENV + ")")
        for key, default in defaults.items():
            p.add_argument("--" + key.replace("_", "-"), default=_UNSET,
                           help=f"default: {default!r}" if default is not None
                           else "required")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, defaults, _ = _COMMANDS[args.command]
    error = _apply_config_file(args, defaults)
    if error:
        return _fail(error)
    _echo_settings(args.command, args, defaults)
    return handler(args)


def entry() -> None:
    """Console-script entry: pins thread env vars before numpy loads."""
    argv = sys.argv[1:]
    threads = os.environ.get(THREADS_ENV)
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif arg.startswith("--threads="):
            threads = arg.partition("=")[2]
    if threads:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(threads))
    sys.exit(main(argv))


if __name__ == "__main__":
    entry()

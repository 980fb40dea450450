"""Supervised training: robust loss on both outputs, Adam, checkpoints.

The loss is the mean smooth-L1 penalty over valid pixels on the coarse
disparity plus ``lambda_weight`` times the same penalty on the refined
disparity. Pixels with non-finite ground truth, or truth at or above the
disparity cap, are excluded and contribute exactly zero gradient.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .datasets import BoundedReader, StereoSample, replacing, valid_mask
from .errors import (CheckpointFormatError, CheckpointShapeError, CheckpointVersionError,
                     ConfigError, ShapeError, TrainingDiverged)
from .model import (ModelConfig, ModelWeights, check_image_channels, forward_tensors,
                    layer_extents, weight_shapes)
from .tensor import STANDARD, Tape, Tensor, backward


@dataclass(frozen=True)
class LossConfig:
    lambda_weight: float = 1.25

    def __post_init__(self):
        if not 0 < self.lambda_weight < math.inf:
            raise ConfigError(f"lambda_weight must be finite and positive, "
                              f"got {self.lambda_weight}")


def total_loss(coarse: Tensor, refined: Tensor, gt: np.ndarray, mask: np.ndarray,
               cfg: LossConfig = LossConfig(), *, max_disparity: float) -> Tensor:
    """Scalar loss of the two supervised outputs against the ground truth,
    over the masked pixels whose truth is finite and below ``max_disparity``."""
    gt = np.asarray(gt, dtype=np.float32)
    mask = np.asarray(mask, dtype=bool)
    if coarse.shape != refined.shape or coarse.shape[2:] != gt.shape or gt.shape != mask.shape:
        raise ShapeError(f"total_loss: extents differ (coarse {coarse.shape}, "
                         f"refined {refined.shape}, gt {gt.shape}, mask {mask.shape})")
    effective = mask & valid_mask(gt, max_disparity)
    count = int(effective.sum())
    if count == 0:
        raise ShapeError("total_loss: no valid pixels under the mask")
    dtype = coarse.dtype
    gt_t = Tensor(np.where(effective, gt, 0.0)[None, None], dtype=dtype)
    mask_t = Tensor(effective.astype(dtype)[None, None])

    def term(pred: Tensor) -> Tensor:
        penalty = ops.smooth_l1(ops.sub(pred, gt_t))
        return ops.scalar_mul(ops.sum_all(ops.mul(penalty, mask_t)), 1.0 / count)

    return ops.add(term(coarse), ops.scalar_mul(term(refined), cfg.lambda_weight))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments, one pair of buffers per parameter, after
    ``t`` steps at rate ``lr``, with the module's betas and epsilon."""

    lr: float = 1e-3
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, Tensor], lr: float = 1e-3) -> "AdamState":
        state = cls(lr=lr)
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One in-place update from each parameter's ``.grad``; a missing
    gradient counts as zero."""
    state.t += 1
    bc1 = 1.0 - _BETA1 ** state.t
    bc2 = 1.0 - _BETA2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(f"adam_step: gradient shape {g.shape} != parameter "
                             f"shape {p.data.shape} for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)


# ---------------------------------------------------------------------------
# data augmentation
# ---------------------------------------------------------------------------

def random_crop(sample: StereoSample, crop_h: int, crop_w: int,
                rng: np.random.Generator) -> StereoSample:
    """The same window cut from left, right, ground truth, and mask; the
    caller checks that it fits, as :func:`train` does before any step."""
    h, w = sample.height, sample.width
    oy = int(rng.integers(0, h - crop_h + 1))
    ox = int(rng.integers(0, w - crop_w + 1))
    return StereoSample(
        left=np.ascontiguousarray(sample.left[:, oy:oy + crop_h, ox:ox + crop_w]),
        right=np.ascontiguousarray(sample.right[:, oy:oy + crop_h, ox:ox + crop_w]),
        gt=np.ascontiguousarray(sample.gt[oy:oy + crop_h, ox:ox + crop_w]),
        valid=np.ascontiguousarray(sample.valid[oy:oy + crop_h, ox:ox + crop_w]),
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"DICC"
CHECKPOINT_VERSION = 4
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@dataclass
class Checkpoint:
    """A model's config, parameters and buffers, plus a training run's
    epoch, data RNG state and Adam state. :meth:`from_weights` copies no
    array: save it before the weights or the moments move again. One that
    :func:`load_checkpoint` returns has no Adam state."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray]
    epoch: int = 0
    rng_state: dict | None = None
    adam: AdamState | None = None

    @classmethod
    def from_weights(cls, weights: ModelWeights, epoch: int = 0,
                     rng_state: dict | None = None,
                     adam: AdamState | None = None) -> "Checkpoint":
        return cls(config=weights.config,
                   params={k: v.data for k, v in weights.params.items()},
                   buffers={k: v.data for k, v in weights.buffers.items()},
                   epoch=epoch, rng_state=rng_state, adam=adam)


def _write_entry(f, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    f.write(struct.pack("<H", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<B", arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    tag = _DTYPE_TAGS[np.dtype(arr.dtype)]
    f.write(struct.pack("<B", tag))
    f.write(np.ascontiguousarray(arr, dtype=_TAG_DTYPES[tag]).tobytes())


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    meta = {
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "rng_state": ckpt.rng_state,
        "adam": None if ckpt.adam is None else {"lr": ckpt.adam.lr, "t": ckpt.adam.t},
    }
    entries: list[tuple[str, np.ndarray]] = []
    entries += [("p/" + k, v) for k, v in ckpt.params.items()]
    entries += [("b/" + k, v) for k, v in ckpt.buffers.items()]
    if ckpt.adam is not None:
        entries += [("m/" + k, v) for k, v in ckpt.adam.m.items()]
        entries += [("v/" + k, v) for k, v in ckpt.adam.v.items()]
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with replacing(path) as f:  # a crash mid-write leaves the previous checkpoint whole
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(meta_bytes)))
        f.write(meta_bytes)
        f.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            _write_entry(f, name, arr)


_ADAM_KEYS = ("lr", "t")


def _read_meta(r: BoundedReader) -> tuple[dict, ModelConfig]:
    (meta_len,) = r.unpack("<I")
    try:
        meta = json.loads(r.need(meta_len).decode("utf-8"))
    except (ValueError, RecursionError) as e:  # garbled bytes or JSON, or nested too deep
        raise CheckpointFormatError(f"{r.path}: garbled metadata block ({e})")
    if not isinstance(meta, dict) or "epoch" not in meta \
            or not isinstance(meta.get("config"), dict):
        raise CheckpointFormatError(f"{r.path}: metadata block lacks the checkpoint keys")
    adam = meta.get("adam")
    if adam is not None and not (isinstance(adam, dict) and all(k in adam for k in _ADAM_KEYS)):
        raise CheckpointFormatError(f"{r.path}: metadata block has a malformed Adam state")
    try:
        # ConfigError is a ValueError; an unknown key is a TypeError.
        config = ModelConfig.from_dict(meta["config"])
    except (TypeError, KeyError, ValueError) as e:
        raise CheckpointFormatError(f"{r.path}: bad model config in metadata ({e})")
    return meta, config


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint's weights; a path that cannot be opened or any
    malformed content raises a CheckpointError.

    Every entry is checked against the layout of the checkpoint's own
    config (:func:`model.weight_shapes`) before its payload is read: a name
    the layout lacks, a name given twice and extents other than the 4-D
    ones the name needs are CheckpointShapeErrors, and so is an entry of
    the layout that the file lacks. The layout holds Adam moments ``m/``
    and ``v/`` for exactly the parameters when the metadata holds an Adam
    state, and none otherwise. The moments' payloads are passed over
    unread, their lengths still checked, and the result has no Adam state:
    no caller resumes training.
    """
    with BoundedReader(path, CheckpointFormatError, "checkpoint") as r:
        if r.need(4) != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"{path}: bad checkpoint magic")
        (version,) = r.unpack("<I")
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(f"{path}: unsupported checkpoint version "
                                         f"{version} (expected {CHECKPOINT_VERSION})")
        meta, config = _read_meta(r)
        params, buffers = weight_shapes(config)
        moments = params if meta.get("adam") is not None else {}
        layout = {f"{kind}/{name}": shape
                  for kind, shapes in (("p", params), ("b", buffers), ("m", moments),
                                       ("v", moments))
                  for name, shape in shapes.items()}
        seen: set[str] = set()
        groups: dict[str, dict[str, np.ndarray]] = {"p": {}, "b": {}}
        (count,) = r.unpack("<I")
        for _ in range(count):
            (name_len,) = r.unpack("<H")
            try:
                name = r.need(name_len).decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointFormatError(f"{path}: garbled entry name ({e})")
            if name not in layout:
                raise CheckpointShapeError(f"{path}: entry {name!r} is not in the "
                                           f"configured model's layout")
            if name in seen:
                raise CheckpointShapeError(f"{path}: entry {name!r} appears twice")
            seen.add(name)
            (rank,) = r.unpack("<B")
            extents = r.unpack(f"<{rank}I")
            if extents != layout[name]:
                raise CheckpointShapeError(f"{path}: entry {name!r} has extents {extents}, "
                                           f"config expects {layout[name]}")
            (tag,) = r.unpack("<B")
            if tag not in _TAG_DTYPES:
                raise CheckpointFormatError(f"{path}: unknown scalar-type tag {tag}")
            dtype = _TAG_DTYPES[tag]
            size = math.prod(extents) * dtype.itemsize
            kind, _, base = name.partition("/")
            if kind not in groups:
                r.need(size, read=False)
                continue
            arr = np.frombuffer(r.need(size), dtype=dtype).reshape(extents)
            groups[kind][base] = arr.astype(arr.dtype.newbyteorder("="))
        if r.left:
            raise CheckpointFormatError(f"{path}: trailing bytes after last entry")
    missing = [name for name in layout if name not in seen]
    if missing:
        raise CheckpointShapeError(f"{path}: checkpoint is missing entry {missing[0]!r} "
                                   f"required by config")
    return Checkpoint(config=config, params=groups["p"], buffers=groups["b"],
                      epoch=meta["epoch"], rng_state=meta.get("rng_state"))


def load_weights(ckpt: Checkpoint) -> ModelWeights:
    """The checkpoint's arrays wrapped as float32 tensors, parameters with
    gradients; :func:`load_checkpoint` has checked them against the
    config's layout."""
    def wrap(arrays, requires_grad):
        return {name: Tensor(arr, requires_grad=requires_grad, dtype=STANDARD)
                for name, arr in arrays.items()}

    return ModelWeights(ckpt.config, wrap(ckpt.params, True), wrap(ckpt.buffers, False))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    val_epe: float

    def log_line(self) -> str:
        return f"epoch={self.epoch} loss={self.mean_loss:.6f} val_epe={self.val_epe:.6f}"


def _to_tensors(sample: StereoSample) -> tuple[Tensor, Tensor]:
    return Tensor(sample.left[None]), Tensor(sample.right[None])


def validation_epe(samples: list[StereoSample], weights: ModelWeights,
                   config: ModelConfig) -> float:
    """Pixel-weighted mean absolute error of the refined output that
    ``cli infer`` would write for each sample: :func:`model.forward_tensors`
    with ``training=False`` on the trained weights, which it folds."""
    total_err = 0.0
    total_count = 0
    for sample in samples:
        left, right = _to_tensors(sample)
        out = forward_tensors(left, right, weights, config, training=False)
        pred = out["refined"].data[0, 0]
        mask = sample.valid & valid_mask(sample.gt, config.max_disparity)
        n = int(mask.sum())
        if n == 0:
            continue
        total_err += float(np.abs(pred[mask] - sample.gt[mask]).sum())
        total_count += n
    return total_err / total_count if total_count else float("nan")


def train(train_samples: list[StereoSample], config: ModelConfig,
          loss_cfg: LossConfig = LossConfig(), *, epochs: int, seed: int = 0,
          lr: float = 1e-3, val_samples: list[StereoSample] | None = None,
          crop: tuple[int, int] | None = None,
          checkpoint_path: str | None = None, log_path: str | None = None,
          context_only: bool = False,
          progress: callable | None = None) -> tuple[ModelWeights, Checkpoint, list[EpochStats]]:
    """Deterministic training run: a pure function of (data, config, seed).

    Before anything is written, the inputs are checked: ``epochs`` below 1,
    an ``lr`` that is not finite and positive, and a non-positive crop are
    ConfigErrors, a crop larger than a sample a ShapeError; for every extent
    a step or the validation pass will run at, :func:`model.layer_extents`
    refuses what the model cannot run, and :func:`model.check_image_channels`
    an image of another channel count. Per epoch: shuffled iteration,
    optional random crop, forward, supervised loss on both outputs,
    backward, Adam step. Checkpoints are written every epoch (plus ``.best``
    on validation improvement); the returned one refers to the returned
    weights' own arrays. A non-finite loss aborts with TrainingDiverged.
    """
    if not train_samples:
        raise ConfigError("train: empty dataset")
    if epochs < 1:
        raise ConfigError(f"train: epochs must be at least 1, got {epochs}")
    if not 0 < lr < math.inf:
        raise ConfigError(f"train: lr must be finite and positive, got {lr}")
    extents = {(s.height, s.width) for s in train_samples}
    if crop is not None:
        if min(crop) <= 0:
            raise ConfigError(f"train: crop {crop[0]}x{crop[1]} must be positive")
        for h, w in extents:
            if crop[0] > h or crop[1] > w:
                raise ShapeError(f"train: crop {crop[0]}x{crop[1]} exceeds image {h}x{w}")
        extents = {tuple(crop)}
    for h, w in extents | {(s.height, s.width) for s in val_samples or ()}:
        layer_extents(config, h, w)
    for s in [*train_samples, *(val_samples or ())]:
        check_image_channels(config, s.left.shape[0])
        check_image_channels(config, s.right.shape[0])
    weights = ModelWeights.initialize(config, seed=seed)
    adam = AdamState.for_params(weights.params, lr=lr)
    data_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDA7A)))
    stats: list[EpochStats] = []
    best_val = float("inf")

    def snapshot(epoch: int) -> Checkpoint:
        return Checkpoint.from_weights(weights, epoch=epoch,
                                       rng_state=data_rng.bit_generator.state,
                                       adam=adam)

    ckpt = snapshot(0)
    if checkpoint_path:
        save_checkpoint(ckpt, checkpoint_path)

    for epoch in range(1, epochs + 1):
        order = data_rng.permutation(len(train_samples))
        losses = []
        for idx in order:
            sample = train_samples[int(idx)]
            if crop is not None:
                sample = random_crop(sample, crop[0], crop[1], data_rng)
            left, right = _to_tensors(sample)
            with Tape() as tape:
                out = forward_tensors(left, right, weights, config, training=True,
                                      context_only=context_only)
                loss = total_loss(out["coarse"], out["refined"], sample.gt,
                                  sample.valid, loss_cfg,
                                  max_disparity=config.max_disparity)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss {value} at epoch {epoch}",
                    checkpoint_path=checkpoint_path)
            backward(loss, tape)
            # Nothing of this step's forward outlives its backward, so the
            # next step's forward starts from the weights and the data only.
            del out, loss
            adam_step(weights.params, adam)
            weights.zero_grads()
            losses.append(value)
        val = validation_epe(val_samples, weights, config) if val_samples \
            else float("nan")
        entry = EpochStats(epoch=epoch, mean_loss=float(np.mean(losses)), val_epe=val)
        stats.append(entry)
        if log_path:
            with open(log_path, "a") as f:
                f.write(entry.log_line() + "\n")
        if progress is not None:
            progress(entry)
        ckpt = snapshot(epoch)
        if checkpoint_path:
            save_checkpoint(ckpt, checkpoint_path)
            if np.isfinite(val) and val < best_val:
                best_val = val
                save_checkpoint(ckpt, checkpoint_path + ".best")
    return weights, ckpt, stats

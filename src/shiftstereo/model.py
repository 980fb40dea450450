"""The four-stage stereo network, chained by :func:`forward_tensors`.

Features at 1/3 resolution (:func:`extract_features`); one shared 2D
matching net per disparity shift, whose pair-term and level-batching rules
:func:`build_cost_volume` owns; the soft-argmin and entropy projection
(:func:`project`); and entropy-guided refinement (:func:`refine`). Every
``ConvSpec`` layer runs through :func:`_block`, and its norm and ReLU
through :func:`_norm_act`: a norm over each batch item's own statistics.
Only refine's norms also keep running statistics, which inference folds
into their convs (:meth:`ModelWeights.folded`); the feature and matching
nets' keep none, so ``infer`` computes the coarse disparity and entropy
that training optimizes. :func:`layer_extents` owns each layer's output
extent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .tensor import STANDARD, Tensor, segment


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``max_disparity`` is in full-resolution pixels and must be a multiple
    of 3; the cost volume holds ``max_disparity // 3`` levels at 1/3
    resolution. ``spp_pools`` lists (window, branch_channels) pairs; the
    fusion convolution consumes the pre-pool map plus all branches. The
    :meth:`tiny` and :meth:`full` constructors give the two profiles.
    Every field holds Python ints of at least 1: a bool, a float or 0 is a ConfigError.
    """

    in_channels: int = 3
    feature_channels: int = 32
    max_disparity: int = 192
    matching_channels: tuple[int, int, int, int] = (48, 64, 96, 128)
    spp_pools: tuple[tuple[int, int], ...] = ((64, 32), (16, 32))
    refine_blocks: tuple[int, ...] = (1, 2, 4, 8, 1, 1)
    refine_channels: int = 32

    def __post_init__(self):
        for name, value in vars(self).items():
            values = np.ravel(np.array(value, dtype=object))
            if any(type(v) is not int for v in values):
                raise ConfigError(f"{name} must hold ints, got {value!r}")
            if min(values, default=1) < 1:
                raise ConfigError(f"{name} must hold values of at least 1, got {value!r}")
        if self.in_channels not in (1, 3):
            raise ConfigError(f"in_channels must be 1 or 3, got {self.in_channels}")
        if self.max_disparity % 3 != 0:
            raise ConfigError(f"max_disparity must be a multiple of 3, got {self.max_disparity}")
        if len(self.matching_channels) != 4:
            raise ConfigError("matching_channels needs exactly 4 entries")
        if any(np.shape(pool) != (2,) for pool in self.spp_pools):
            raise ConfigError(f"spp_pools must hold (window, channels) pairs, got {self.spp_pools}")

    @property
    def levels(self) -> int:
        return self.max_disparity // 3

    @classmethod
    def tiny(cls, in_channels: int = 1, max_disparity: int = 24, **overrides) -> "ModelConfig":
        """Desk-scale profile for tests and the synthetic-stereogram run."""
        base = dict(
            in_channels=in_channels,
            feature_channels=16,
            max_disparity=max_disparity,
            matching_channels=(24, 32, 48, 64),
            spp_pools=((16, 16), (8, 16)),
            refine_blocks=(1, 2, 4),
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def full(cls, in_channels: int = 3, max_disparity: int = 192, **overrides) -> "ModelConfig":
        return cls(in_channels=in_channels, max_disparity=max_disparity, **overrides)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["matching_channels"] = tuple(d["matching_channels"])
        d["spp_pools"] = tuple(tuple(p) for p in d["spp_pools"])
        d["refine_blocks"] = tuple(d["refine_blocks"])
        return cls(**d)


@dataclass(frozen=True)
class ConvSpec:
    """One convolution layer plus its optional normalization/activation.

    ``running_stats`` is whether a normed layer keeps running statistics,
    which inference folds into its conv; only refine's layers keep them.
    ``bias`` is whether a layer without a norm, or with a folded one, adds
    a bias; only ``matching.out``, whose bias the softmax over levels
    cancels, has none.
    """

    name: str
    cin: int
    cout: int
    k: int
    stride: int = 1
    dilation: int = 1
    padding: int = 0
    norm: bool = True
    act: bool = True
    zero_init: bool = False
    bias: bool = True
    running_stats: bool = False


def feature_layer_specs(cfg: ModelConfig) -> list[ConvSpec]:
    """The 8 feature-net convolutions: stride-3 downsampler, three convs
    dilated at rates 2, 4 and 8, one 1x1 per pooling branch, the fusion
    conv, and a bare 1x1. Its norms keep no running statistics: each
    image is normalized by its own, in training and inference alike."""
    f = cfg.feature_channels
    specs = [ConvSpec("feature.down", cfg.in_channels, f, 3, stride=3, padding=1)]
    for i, rate in enumerate((2, 4, 8), 1):
        specs.append(ConvSpec(f"feature.dil{i}", f, f, 3, dilation=rate, padding=rate))
    for i, (_, branch) in enumerate(cfg.spp_pools, 1):
        specs.append(ConvSpec(f"feature.spp{i}", f, branch, 1))
    fused = f + sum(branch for _, branch in cfg.spp_pools)
    specs.append(ConvSpec("feature.fuse", fused, fused, 3, padding=1))
    specs.append(ConvSpec("feature.out", fused, f, 1, norm=False, act=False))
    return specs


def matching_layer_specs(cfg: ModelConfig) -> list[ConvSpec]:
    """U-shaped matching net over one concatenated feature pair. Like the
    feature net's, its norms keep no running statistics: each disparity
    level is normalized by its own."""
    two_f = 2 * cfg.feature_channels
    m = cfg.matching_channels
    specs = []
    prev = two_f
    for i, ch in enumerate(m, 1):
        specs.append(ConvSpec(f"matching.enc{i}", prev, ch, 3, stride=2, padding=1))
        specs.append(ConvSpec(f"matching.filt{i}", ch, ch, 3, padding=1))
        prev = ch
    skips = (m[2], m[1], m[0], two_f)
    outs = (m[2], m[1], m[0], m[0])
    prev = m[3]
    for i, (skip, out_ch) in enumerate(zip(skips, outs), 1):
        specs.append(ConvSpec(f"matching.dec{i}", prev + skip, out_ch, 3, padding=1))
        prev = out_ch
    specs.append(ConvSpec("matching.out", m[0], 1, 3, padding=1, norm=False, act=False,
                          bias=False))
    return specs


def refine_layer_specs(cfg: ModelConfig) -> list[ConvSpec]:
    """Residual refinement over (image, normalized disparity, normalized
    entropy); the only layers whose norms keep running statistics."""
    r = cfg.refine_channels
    specs = [ConvSpec("refine.head", cfg.in_channels + 2, r, 3, padding=1)]
    for i, rate in enumerate(cfg.refine_blocks, 1):
        specs.append(ConvSpec(f"refine.block{i}.conv1", r, r, 3, dilation=rate, padding=rate))
        specs.append(ConvSpec(f"refine.block{i}.conv2", r, r, 3, dilation=rate, padding=rate,
                              act=False))
    specs.append(ConvSpec("refine.out", r, 1, 3, padding=1, norm=False, act=False,
                          zero_init=True))
    return [replace(s, running_stats=True) for s in specs]


def all_layer_specs(cfg: ModelConfig) -> list[ConvSpec]:
    return feature_layer_specs(cfg) + matching_layer_specs(cfg) + refine_layer_specs(cfg)


def weight_shapes(config: ModelConfig) -> tuple[dict[str, tuple], dict[str, tuple]]:
    """Names and shapes of the parameters and of the buffers, in layer order.

    Every layer has ``"<layer>.w"`` (Cout, Cin, K, K). A normed layer adds
    the parameters ``.gamma`` / ``.beta``, (1, Cout, 1, 1), and has no
    bias: the norm's mean subtraction cancels it and ``.beta`` does its
    job. A normed layer with ``running_stats``, in refine, also has the
    buffers ``.mean`` / ``.var`` (1, Cout, 1, 1). A layer without a norm
    has a bias ``.b`` (1, Cout, 1, 1), except ``matching.out``, whose bias
    the softmax over levels cancels.
    """
    params: dict[str, tuple] = {}
    buffers: dict[str, tuple] = {}
    for s in all_layer_specs(config):
        channel = (1, s.cout, 1, 1)
        params[s.name + ".w"] = (s.cout, s.cin, s.k, s.k)
        if s.norm:
            params[s.name + ".gamma"] = params[s.name + ".beta"] = channel
            if s.running_stats:
                buffers[s.name + ".mean"] = buffers[s.name + ".var"] = channel
        elif s.bias:
            params[s.name + ".b"] = channel
    return params, buffers


def count_parameters(cfg: ModelConfig) -> dict[str, int]:
    """Learnable scalars per subnetwork (weights, biases, norm affine)."""
    counts = {"feature": 0, "matching": 0, "refine": 0}
    for name, shape in weight_shapes(cfg)[0].items():
        counts[name.split(".", 1)[0]] += math.prod(shape)
    counts["total"] = sum(counts.values())
    return counts


@dataclass(eq=False)
class ModelWeights:
    """Named parameter and buffer tensors for the three subnetworks.

    One single matching-net parameter set serves all disparity levels;
    the cost-volume builder copies only the weight blocks of the two layers
    that read the feature pair (:func:`pair_blocks`). ``buffers`` holds the
    running statistics of refine's norms; the feature and matching nets
    have none. ``specs`` maps each layer name to its ConvSpec, by default
    every layer of ``config``. The views :meth:`folded` and :meth:`stage`
    are ``dataclasses.replace`` copies that share the tensors they keep.
    """

    config: ModelConfig
    params: dict[str, Tensor]
    buffers: dict[str, Tensor]
    specs: dict[str, ConvSpec] | None = None

    def __post_init__(self):
        if self.specs is None:
            self.specs = {s.name: s for s in all_layer_specs(self.config)}

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int = 0, dtype=STANDARD) -> "ModelWeights":
        """Fan-in-scaled uniform conv weights, zero biases, identity norms.

        The final refinement conv starts at zero so the refined output
        equals the clamped input disparity at initialization.
        """
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5157)))
        specs = {s.name: s for s in all_layer_specs(config)}

        def value(name, shape):
            layer, kind = name.rsplit(".", 1)
            s = specs[layer]
            if kind != "w":
                return np.full(shape, 1.0 if kind in ("gamma", "var") else 0.0)
            if s.zero_init:
                return np.zeros(shape)
            bound = 1.0 / math.sqrt(s.cin * s.k * s.k)
            return rng.uniform(-bound, bound, size=shape)

        param_shapes, buffer_shapes = weight_shapes(config)
        params = {name: Tensor(value(name, shape), requires_grad=True, dtype=dtype)
                  for name, shape in param_shapes.items()}
        buffers = {name: Tensor(value(name, shape), dtype=dtype)
                   for name, shape in buffer_shapes.items()}
        return cls(config, params, buffers)

    def folded(self) -> "ModelWeights":
        """Inference weights with every norm that keeps running statistics
        folded into its conv: refine's.

        For such a layer, ``scale = gamma / sqrt(var + eps)`` per output
        channel gives ``w' = w * scale`` and the bias ``b' = beta - mean *
        scale``, computed in the weights' own dtype with the epsilon of
        :func:`ops.batch_norm`. Its spec then carries ``norm=False``, so a
        conv and its norm become one conv. Every other layer, the feature and
        matching nets' included, keeps its spec and shares its tensors with
        ``self``, so folding folded weights copies nothing; nothing of
        ``self`` is modified. The result has no buffers.
        """
        params, specs = dict(self.params), dict(self.specs)
        for name, spec in self.specs.items():
            if not (spec.norm and spec.running_stats):
                continue
            var = self.buffers[name + ".var"].data
            scale = params.pop(name + ".gamma").data / np.sqrt(
                var + var.dtype.type(ops.BN_EPSILON))
            params[name + ".w"] = Tensor(params[name + ".w"].data * scale.reshape(-1, 1, 1, 1))
            params[name + ".b"] = Tensor(params.pop(name + ".beta").data
                                         - self.buffers[name + ".mean"].data * scale)
            specs[name] = replace(spec, norm=False)
        return replace(self, params=params, buffers={}, specs=specs)

    def stage(self, name: str) -> "ModelWeights":
        """The layers of subnetwork ``name`` (``"feature"``, ``"matching"``
        or ``"refine"``), sharing this object's tensors and specs."""
        def own(store):
            return {key: value for key, value in store.items()
                    if key.startswith(name + ".")}

        return replace(self, params=own(self.params), buffers=own(self.buffers),
                       specs=own(self.specs))

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None


def _norm_act(out: Tensor, name: str, weights: ModelWeights,
              residual: Tensor | None = None) -> Tensor:
    """The norm and activation of layer ``name`` on its convolutions' sum
    ``out``; with a residual, ``relu(norm(out) + residual)`` as one op. A
    norm with ``running_stats`` moves its layer's buffers."""
    spec = weights.specs[name]
    if not spec.norm:
        return ops.relu(out) if spec.act else out
    p, buffers = weights.params, weights.buffers
    stats = (buffers[name + ".mean"], buffers[name + ".var"]) if spec.running_stats else ()
    return ops.batch_norm(out, p[name + ".gamma"], p[name + ".beta"], *stats,
                          relu=spec.act or residual is not None, residual=residual)


def _block(x: Tensor, name: str, weights: ModelWeights,
           residual: Tensor | None = None) -> Tensor:
    """Layer ``name`` on x; with a residual, ``relu(layer(x) + residual)``.

    The epilogue, the residual and the ReLU, runs inside the op that makes
    the layer's output: its norm where it has one, its conv otherwise.
    """
    spec = weights.specs[name]
    w = weights.params[name + ".w"]
    geometry = dict(stride=spec.stride, dilation=spec.dilation, padding=spec.padding)
    if not spec.norm:
        return ops.conv2d(x, w, weights.params.get(name + ".b"), residual=residual,
                          relu=spec.act or residual is not None, **geometry)
    out = ops.conv2d(x, w, **geometry)
    if out.requires_grad and name.startswith("refine.") and residual is None:
        # Refine's head and conv1 sums, full-resolution maps that only their
        # norm reads, are dropped and rebuilt, by conv2d's own kernel, from an
        # input the tape keeps anyway: the head's concat, which its dW reads,
        # or a block input, conv2's residual. conv2's input is a dropped norm
        # output itself.
        xd, wd = x.data, w.data.copy()
        out.rebuild = lambda: ops._correlate(xd, wd, **geometry)
    y = _norm_act(out, name, weights, residual)
    out.drop()
    return y


# The smallest features the model runs on: the matching net halves its
# input four times, from 16x16 features, which takes a 46x46 image.
_MIN_FEATURES = 16


def check_feature_extents(cfg: ModelConfig, fh: int, fw: int) -> None:
    """Raise ShapeError on a feature map the matching net cannot run on:
    below 16x16, or narrower than the number of disparity levels."""
    if min(fh, fw) < _MIN_FEATURES:
        raise ShapeError(f"matching net needs >= {_MIN_FEATURES}x{_MIN_FEATURES} "
                         f"at 1/3 resolution, got {fh}x{fw}")
    if cfg.levels > fw:
        raise ShapeError(f"{cfg.levels} disparity levels exceed feature width {fw}")


def check_image_channels(cfg: ModelConfig, channels: int) -> None:
    """Raise ShapeError on an image whose channel count is not the model's."""
    if channels != cfg.in_channels:
        raise ShapeError(f"image has {channels} channels, config expects {cfg.in_channels}")


def layer_extents(cfg: ModelConfig, height: int, width: int) -> dict[str, tuple[int, int]]:
    """The output extent (rows, columns) of every ``ConvSpec`` layer of a
    forward pass on height x width images, in layer order.

    Each is :func:`ops.conv_out_extent` of the layer's input grid and its
    spec. A pooling branch's conv runs on the pool's grid, a window at its
    own stride as :func:`ops.avg_pool` runs it, and each decoder conv on its
    skip's grid. Raises ShapeError where :func:`check_feature_extents`
    refuses the features.
    """
    extents: dict[str, tuple[int, int]] = {}

    def run(spec: ConvSpec, grid) -> tuple[int, int]:
        extents[spec.name] = tuple(ops.conv_out_extent(n, spec.k, spec.stride, spec.dilation,
                                                       spec.padding) for n in grid)
        return extents[spec.name]

    pools = {f"feature.spp{i}": window for i, (window, _) in enumerate(cfg.spp_pools, 1)}
    grid = (height, width)
    for spec in feature_layer_specs(cfg):
        if spec.name in pools:
            window = pools[spec.name]
            run(spec, [ops.conv_out_extent(n, min(window, n), window, 1, 0) for n in grid])
        else:
            grid = run(spec, grid)
    check_feature_extents(cfg, *grid)
    skips = []  # the grid before each encoder conv; dec4's skip is the feature pair
    for spec in matching_layer_specs(cfg):
        if spec.name.startswith("matching.enc"):
            skips.append(grid)
        grid = run(spec, skips.pop() if spec.name.startswith("matching.dec") else grid)
    grid = (height, width)
    for spec in refine_layer_specs(cfg):
        grid = run(spec, grid)
    return extents


# ---------------------------------------------------------------------------
# feature net
# ---------------------------------------------------------------------------

def extract_features(image: Tensor, weights: ModelWeights, cfg: ModelConfig) -> Tensor:
    """Image (B, in_channels, H, W) -> features (B, F, ceil(H/3), ceil(W/3))."""
    check_image_channels(cfg, image.shape[1])
    x = _block(image, "feature.down", weights)
    check_feature_extents(cfg, *x.shape[2:])
    for i in range(1, 4):
        x = _block(x, f"feature.dil{i}", weights)
    _, _, fh, fw = x.shape
    branches = [x]
    for i, (window, _) in enumerate(cfg.spp_pools, 1):
        p = ops.avg_pool(x, window)
        p = _block(p, f"feature.spp{i}", weights)
        branches.append(ops.bilinear_resize(p, fh, fw))
    fused = _block(ops.concat_channels(branches), "feature.fuse", weights)
    return _block(fused, "feature.out", weights)


# ---------------------------------------------------------------------------
# matching net and cost volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockWeights:
    """Weights of ``matching.enc1`` and ``matching.dec4`` restricted to the
    channels of one of their input blocks (:func:`pair_blocks`).

    ``params`` is keyed like :attr:`ModelWeights.params`, by the layer each
    block belongs to, so a conv over a block reads a weight that is named
    by its layer.
    """

    params: dict[str, Tensor]


def _last_column_masked(w: Tensor) -> Tensor:
    """w with the kernel's last column zeroed."""
    mask = np.ones(w.shape, dtype=w.dtype)
    mask[..., -1] = 0
    return ops.mul(w, Tensor(mask))


def pair_blocks(weights: ModelWeights, cfg: ModelConfig,
                feature_width: int) -> dict[str, BlockWeights]:
    """The weights of the two layers that read the feature pair, split by
    input block, as the keyword arguments of :func:`build_cost_volume`.

    ``x_block``, ``left_block`` and ``right_block`` hold their blocks over
    x, L and R. Each R block is stacked along the output channels with its
    twin whose kernel's last column is zeroed, which gives the last output
    column (see :func:`_pair_terms`). enc1 has stride 2 and needs the twin
    only at an odd ``feature_width``, where its last output column reads
    padding.
    """
    f, m0 = cfg.feature_channels, cfg.matching_channels[0]
    enc1, dec4 = weights.params["matching.enc1.w"], weights.params["matching.dec4.w"]
    enc1_right = ops.slice_channels(enc1, f, 2 * f)
    dec4_right = ops.slice_channels(dec4, m0 + f, m0 + 2 * f)
    if feature_width % 2:
        enc1_right = ops.stack_batch([enc1_right, _last_column_masked(enc1_right)])
    return {
        "x_block": BlockWeights({"matching.dec4.w": ops.slice_channels(dec4, 0, m0)}),
        "left_block": BlockWeights({
            "matching.enc1.w": ops.slice_channels(enc1, 0, f),
            "matching.dec4.w": ops.slice_channels(dec4, m0, m0 + f)}),
        "right_block": BlockWeights({
            "matching.enc1.w": enc1_right,
            "matching.dec4.w": ops.stack_batch([dec4_right,
                                                _last_column_masked(dec4_right)])}),
    }


class _PairTerms(NamedTuple):
    """The matching net's convolutions of the feature pair, once per volume.

    ``enc1_left`` / ``dec4_left`` are ``conv(L, W_L)`` of ``matching.enc1``
    / ``matching.dec4``; ``enc1_right`` / ``dec4_right`` are the maps of the
    R blocks that :func:`_match_levels` shifts per level; ``dec4_x`` is
    dec4's weight block over the decoder input.
    """

    enc1_left: Tensor
    enc1_right: Tensor
    dec4_left: Tensor
    dec4_right: Tensor
    dec4_x: Tensor


def _pair_terms(left_features: Tensor, source: Tensor, weights: ModelWeights,
                x_block: BlockWeights, left_block: BlockWeights,
                right_block: BlockWeights) -> _PairTerms:
    """Precompute everything the matching net reads of ``[L, S_d source]``.

    With R = ``source`` and C = conv(R, W_R) at stride 1, padding 1, the
    direct form's ``conv(S_d R, W_R)`` is C shifted right by d, except at two
    edges. Column d - 1 reads ``R[0]`` through the kernel's last column, so
    ``dec4_right`` is taken over R widened by one zero column on the left,
    which holds that column. The last output column reads padding where the
    shifted map reads ``R[W - d]``; the masked twin's channel block gives
    it. ``matching.enc1`` has stride 2: ``enc1_right`` holds conv(R) and
    conv(S_1 R) as two batch items, for even and odd d, which shift by
    d // 2 with exact zero fill on the left; at an odd feature width its
    masked block gives the last output column.
    """
    w = left_features.shape[3]
    enc1, dec4 = ({"stride": s.stride, "dilation": s.dilation, "padding": s.padding}
                  for s in (weights.specs["matching.enc1"], weights.specs["matching.dec4"]))
    left = left_block.params
    return _PairTerms(
        enc1_left=ops.conv2d(left_features, left["matching.enc1.w"], **enc1),
        enc1_right=ops.conv2d(ops.stack_batch([source, ops.shift_columns(source, 1)]),
                              right_block.params["matching.enc1.w"], **enc1),
        dec4_left=ops.conv2d(left_features, left["matching.dec4.w"], **dec4),
        dec4_right=ops.conv2d(ops.gather_columns(source, [0], [1], w + 1),
                              right_block.params["matching.dec4.w"], **dec4),
        dec4_x=x_block.params["matching.dec4.w"])


def _match_levels(terms: _PairTerms, levels: list[int], weights: ModelWeights) -> Tensor:
    """Cost maps (len(levels), 1, H', W') of the given disparity levels,
    one batch item per level."""
    n = len(levels)
    _, _, h, w = terms.dec4_left.shape

    def per_level(t):
        return t if n == 1 else ops.stack_batch([t] * n)

    x = ops.add(per_level(terms.enc1_left),
                ops.gather_columns(terms.enc1_right, [d % 2 for d in levels],
                                   [d // 2 for d in levels], terms.enc1_left.shape[3],
                                   edge=w % 2 == 1))
    x = _block(_norm_act(x, "matching.enc1", weights), "matching.filt1", weights)
    skips = []
    for i in range(2, 5):
        skips.append(x)
        x = _block(x, f"matching.enc{i}", weights)
        x = _block(x, f"matching.filt{i}", weights)
    for i in range(1, 4):
        # Each skip is dropped once concatenated.
        _, _, sh, sw = skips[-1].shape
        x = _block(ops.concat_channels([ops.bilinear_resize(x, sh, sw), skips.pop()]),
                   f"matching.dec{i}", weights)
    dec4 = weights.specs["matching.dec4"]
    x = ops.conv2d(ops.bilinear_resize(x, h, w), terms.dec4_x, stride=dec4.stride,
                   dilation=dec4.dilation, padding=dec4.padding)
    # Two statements, so the conv's output is freed before the second sum.
    x = ops.add(x, per_level(terms.dec4_left))
    # dec4_right is one column wider on the left: level d reads it at d - 1.
    x = ops.add(x, ops.gather_columns(terms.dec4_right, [0] * n, [d - 1 for d in levels], w,
                                      edge=True))
    x = _norm_act(x, "matching.dec4", weights)
    return _block(x, "matching.out", weights)


def _level_batch(levels: list[int], weights: ModelWeights, *terms: Tensor) -> Tensor:
    """The cost maps of ``levels`` as one (1, len(levels), H', W') map, from
    the pair terms' tensors; it moves nothing, so backward may re-run it."""
    return ops.batch_to_channels(_match_levels(_PairTerms(*terms), levels, weights))


# Feature pixels of one matching-net batch. Batching levels saves the fixed
# cost of each op call, but a batch's activations grow with it; its forward
# conv copies do not, as a conv copies as many levels at a time as fit 1 MiB
# of copies, at least one (ops._batch_slices). In an untaped forward pass at
# 144x240 (48x80 features), whose stages hold only their own weights, 1 and
# 2 levels per batch peak at 15.9 MB, in refine; 4 levels move the peak into
# the matching net's activations, at 17.9 MB, and 8 to 26.0 MB. At 96x96 all
# 8 levels make one batch, and the pass peaks in refine, at 6.0 MB.
_LEVEL_BATCH_PIXELS = 1 << 13


def levels_per_batch(cfg: ModelConfig, fh: int, fw: int) -> int:
    """Disparity levels the matching net runs as one batch on fh x fw
    features: as many as fit in ``_LEVEL_BATCH_PIXELS`` feature pixels, and
    at least one; 2 of 16 at 48x80, all 8 at 32x32, 1 at 180x320."""
    return max(1, min(cfg.levels, _LEVEL_BATCH_PIXELS // (fh * fw)))


def build_cost_volume(left_features: Tensor, right_features: Tensor,
                      weights: ModelWeights, cfg: ModelConfig,
                      context_only: bool = False, *, x_block: BlockWeights,
                      left_block: BlockWeights, right_block: BlockWeights) -> Tensor:
    """Cost volume (1, D/3, H', W'); slice d is the matching net applied to
    the pair ``[L, S_d R]``: the left features and the right features
    shifted d columns to the right.

    The pair reaches two layers, ``matching.enc1`` and, through its skip
    input ``[x, L, S_d R]``, ``matching.dec4``. Convolution is linear, so
    ``conv([x, L, S_d R], W) = conv(x, W_x) + conv(L, W_L) + conv(S_d R, W_R)``.
    The L and R terms are computed once per volume (:func:`_pair_terms`)
    and each level shifts the R term, with its edge columns taken from
    maps that reproduce the direct form exactly there. A level thus runs
    no ``enc1`` conv and runs ``dec4`` over x only.

    The levels run through the net as batch items, :func:`levels_per_batch`
    consecutive levels at a time. Items do not interact (each norm uses its
    own item's statistics and keeps none), so the batch size is a choice of
    schedule only: every size gives bit-identical slices. The matching
    net's layers do not fold (:meth:`ModelWeights.folded`), so raw and
    folded weights give the same volume, bit for bit.

    On a tape each batch is a :func:`segment` whose inputs are the
    :class:`_PairTerms` tensors: the tape keeps the terms and each batch's
    cost maps, not its activations, and backward re-runs the batch just
    before it differentiates it. So a taped pass holds one batch's maps at
    a time, whatever the number of levels, for one more forward pass of the
    matching net in backward: on 2 cores it added about 8 % to a tiny 96x96
    step and 20-26 % to a 144x240 step at 48x80 features. The gradients are
    bit for bit those of the plain call.

    ``x_block``, ``left_block`` and ``right_block`` are :func:`pair_blocks`
    of ``weights``, so that every weight a conv of this stage reads is a
    tensor named among its arguments; the traced benchmark run
    (``perfbench/spans.py``) attributes conv time to layers by those names.

    ``context_only`` replaces the right features with the left features
    (the crippled control that cannot see the second view).
    """
    b, c, fh, fw = left_features.shape
    if b != 1:
        raise ShapeError("build_cost_volume: one image pair at a time (batch extent 1)")
    if left_features.shape != right_features.shape:
        raise ShapeError(f"build_cost_volume: feature shapes differ {left_features.shape} "
                         f"vs {right_features.shape}")
    if c != cfg.feature_channels:
        raise ShapeError(f"matching net expects {cfg.feature_channels}-channel features, "
                         f"got {c}")
    check_feature_extents(cfg, fh, fw)
    levels = cfg.levels
    source = left_features if context_only else right_features
    terms = _pair_terms(left_features, source, weights, x_block, left_block, right_block)
    n = levels_per_batch(cfg, fh, fw)
    batches = []
    for start in range(0, levels, n):
        batch = list(range(start, min(start + n, levels)))
        batches.append(segment("match_levels", partial(_level_batch, batch, weights), terms))
    return batches[0] if len(batches) == 1 else ops.concat_channels(batches)


# ---------------------------------------------------------------------------
# projection layer
# ---------------------------------------------------------------------------

def project(volume: Tensor) -> tuple[Tensor, Tensor]:
    """Softmax of the negated costs over the levels: its expected level (the
    soft-argmin disparity) and its Shannon entropy in nats."""
    probs = ops.softmax(ops.scalar_mul(volume, -1.0), axis=1)
    return ops.index_expectation(probs), ops.channel_entropy(probs)


def _upsample_tensors(disp_low: Tensor, ent_low: Tensor,
                      out_h: int, out_w: int) -> tuple[Tensor, Tensor]:
    """Resize to full resolution; disparity values convert from 1/3-resolution
    units to pixels (x3), entropy is resolution-independent."""
    disp = ops.scalar_mul(ops.bilinear_resize(disp_low, out_h, out_w), 3.0)
    ent = ops.bilinear_resize(ent_low, out_h, out_w)
    return disp, ent


# ---------------------------------------------------------------------------
# refine net
# ---------------------------------------------------------------------------

def refine(disp: Tensor, left_image: Tensor, ent: Tensor,
           weights: ModelWeights, cfg: ModelConfig) -> Tensor:
    """Residual correction of the disparity, clamped to be non-negative.

    A block is ``x' = relu(x + conv2(conv1(x)))``, whose sum and ReLU run
    inside the op that makes conv2's output (:func:`_block`). On a tape,
    refine keeps to backward its head's input concat, each block's input
    (as conv2's residual) and each conv2 sum. The raw sums of the head and
    of each conv1 are dropped once their norm has run (:func:`_block`), and
    a block's conv1 norm output once conv2 has read it; conv2's weight
    gradient rebuilds that output and, through it, the conv1 sum, each
    once. The block outputs are kept: each one's rebuild would read the
    previous one, rebuilt too. The blocks are not segments
    (:func:`segment`): re-running them in backward would add their taped
    forward, 28-31 ms of a tiny 96x96 step of about 180 ms, more than the
    15 % of step time that a cut in peak memory may cost.
    """
    if disp.shape[2:] != left_image.shape[2:] or disp.shape[2:] != ent.shape[2:]:
        raise ShapeError(f"refine: extents differ (disp {disp.shape}, "
                         f"image {left_image.shape}, entropy {ent.shape})")
    ent_scale = math.log(cfg.levels) if cfg.levels > 1 else 1.0
    x = ops.concat_channels([
        left_image,
        ops.scalar_mul(disp, 1.0 / cfg.max_disparity),
        ops.scalar_mul(ent, 1.0 / ent_scale),
    ])
    x = _block(x, "refine.head", weights)
    for i in range(1, len(cfg.refine_blocks) + 1):
        y = _block(x, f"refine.block{i}.conv1", weights)
        # Off a tape, conv2 writes its output over x's array.
        x = _block(y, f"refine.block{i}.conv2", weights, residual=x)
        y.drop()
        del y  # so that it is not alive beside the next block's conv1
    return ops.relu(ops.add(disp, _block(x, "refine.out", weights)))


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def forward_tensors(left: Tensor, right: Tensor, weights: ModelWeights,
                    cfg: ModelConfig, training: bool = False,
                    context_only: bool = False) -> dict[str, Tensor]:
    """Run the full pipeline, returning the upsampled coarse disparity
    (``"coarse"``), the entropy map (``"entropy"``) and the refined
    disparity (``"refined"``), all at the images' resolution.

    With ``training=False`` refine's norms are folded into their convs
    once per call (:meth:`ModelWeights.folded`), also under a tape;
    ``weights`` is not modified, and weights that are folded already are
    shared, not copied. With ``training=True`` they normalize each batch
    item by its own statistics and move their running statistics. The
    feature and matching nets' norms run per item in both modes, so both
    give the same coarse disparity and entropy, bit for bit. Every norm
    that runs passes gradients to gamma and beta.

    In both modes the weights are split into one :meth:`ModelWeights.stage`
    view per subnetwork, each dropped once its stage has run. An inference
    pass holds only what a later op reads: the features and the volume die
    once consumed, each matching skip once concatenated; and without a tape
    each refine block's conv2 writes its output over the block's input
    (:func:`ops.conv2d` consumes an untaped residual). Arrays this call
    folds die with their view. The weights passed in die with their views
    too when this call holds their only reference, as when the caller
    passes them as a temporary (``cli.cmd_infer`` does so); refine's raw
    arrays then die at the fold. The outputs are the same either way.

    A taped pass keeps to backward what its nodes' closures read: the
    weights, the feature maps (norm outputs dropped, to be rebuilt), of the
    matching net only the pair terms and each level batch's cost maps,
    since each batch is a segment that backward re-runs
    (:func:`build_cost_volume`), and of refine the head's input, each
    block's input and each conv2 sum; refine's other maps are rebuilt
    (:func:`refine`).
    """
    if left.shape != right.shape:
        raise ShapeError(f"forward: image shapes differ {left.shape} vs {right.shape}")
    if not training:
        weights = weights.folded()
    feature_w, matching_w, refine_w = (weights.stage(name)
                                       for name in ("feature", "matching", "refine"))
    del weights
    _, _, h, w = left.shape
    f_left = extract_features(left, feature_w, cfg)
    f_right = extract_features(right, feature_w, cfg)
    del feature_w
    volume = build_cost_volume(f_left, f_right, matching_w, cfg, context_only=context_only,
                               **pair_blocks(matching_w, cfg, f_left.shape[3]))
    del f_left, f_right, matching_w
    coarse, ent_full = _upsample_tensors(*project(volume), h, w)
    del volume
    refined = refine(coarse, left, ent_full, refine_w, cfg)
    return {"coarse": coarse, "entropy": ent_full, "refined": refined}


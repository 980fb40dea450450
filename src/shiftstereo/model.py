"""The four-stage stereo network.

Feature extraction at 1/3 resolution, a shared 2D matching network run
once per disparity shift (so every cost slice is a pure function of the
left features and the shifted right features), a projection layer that
turns the cost volume into a disparity and an entropy map, and an
entropy-guided refinement network on the full-resolution disparity.

The matching net reads the pair ``[L, S_d R]`` (the right features shifted
d columns to the right) in two layers, ``matching.enc1`` and the skip input
``[x, L, S_d R]`` of ``matching.dec4``. Convolution is linear, so
``conv([x, L, S_d R], W) = conv(x, W_x) + conv(L, W_L) + conv(S_d R, W_R)``:
the L term is the same at every level and the R term is one map shifted by
d (d // 2 at enc1's stride 2). Both are computed once per cost volume
(:func:`_pair_terms`), from the weights split by input block
(:func:`pair_blocks`). Each level shifts the R maps and so reproduces the
direct form exactly, also at its two edge columns: the column where the
kernel's last tap first reads ``R[0]`` (the R map is taken over R widened
by one zero column on the left), and the last column, which reads padding
in the direct form (a map made with the kernel's last column zeroed).

An inference pass of :func:`forward_tensors` with no tape recording first
folds every batch norm into the weights and bias of its conv
(:meth:`ModelWeights.folded`), so each normed layer runs as one conv and
one ReLU. Under a tape, and in training, the norms run as their own ops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .tensor import HIGH, STANDARD, Tensor, active_tape


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``max_disparity`` is in full-resolution pixels and must be a multiple
    of 3; the cost volume holds ``max_disparity // 3`` levels at 1/3
    resolution. ``spp_pools`` lists (window, branch_channels) pairs; the
    fusion convolution consumes the pre-pool map plus all branches.
    """

    in_channels: int = 3
    feature_channels: int = 32
    max_disparity: int = 192
    matching_channels: tuple[int, int, int, int] = (48, 64, 96, 128)
    spp_pools: tuple[tuple[int, int], ...] = ((64, 32), (16, 32))
    dilations: tuple[int, int, int] = (2, 4, 8)
    refine_blocks: tuple[int, ...] = (1, 2, 4, 8, 1, 1)
    refine_channels: int = 32
    profile: str = "full"

    def __post_init__(self):
        if self.in_channels not in (1, 3):
            raise ConfigError(f"in_channels must be 1 or 3, got {self.in_channels}")
        if self.feature_channels <= 0:
            raise ConfigError("feature_channels must be positive")
        if self.max_disparity <= 0 or self.max_disparity % 3 != 0:
            raise ConfigError(f"max_disparity must be a positive multiple of 3, "
                              f"got {self.max_disparity}")
        if len(self.matching_channels) != 4:
            raise ConfigError("matching_channels needs exactly 4 entries")
        if len(self.dilations) != 3:
            raise ConfigError("dilations needs exactly 3 entries")

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
            dilations=(2, 4, 8),
            refine_blocks=(1, 2, 4),
            refine_channels=32,
            profile="tiny",
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def full(cls, in_channels: int = 3, max_disparity: int = 192, **overrides) -> "ModelConfig":
        base = dict(in_channels=in_channels, max_disparity=max_disparity, profile="full")
        base.update(overrides)
        return cls(**base)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["matching_channels"] = tuple(d["matching_channels"])
        d["spp_pools"] = tuple(tuple(p) for p in d["spp_pools"])
        d["dilations"] = tuple(d["dilations"])
        d["refine_blocks"] = tuple(d["refine_blocks"])
        return cls(**d)


@dataclass(frozen=True)
class ConvSpec:
    """One convolution layer plus its optional normalization/activation."""

    name: str
    cin: int
    cout: int
    k: int
    stride: int = 1
    dilation: int = 1
    padding: int = 0
    norm: bool = True
    act: bool = True
    per_sample_norm: bool = False
    zero_init: bool = False


def feature_layer_specs(cfg: ModelConfig) -> list[ConvSpec]:
    """The 8 feature-net convolutions: stride-3 downsampler, three dilated
    convs, one 1x1 per pooling branch, the fusion conv, and a bare 1x1."""
    f = cfg.feature_channels
    specs = [ConvSpec("feature.down", cfg.in_channels, f, 3, stride=3, padding=1)]
    for i, rate in enumerate(cfg.dilations, 1):
        specs.append(ConvSpec(f"feature.dil{i}", f, f, 3, dilation=rate, padding=rate))
    for i, (_, branch) in enumerate(cfg.spp_pools, 1):
        specs.append(ConvSpec(f"feature.spp{i}", f, branch, 1))
    fused = f + sum(branch for _, branch in cfg.spp_pools)
    specs.append(ConvSpec("feature.fuse", fused, fused, 3, padding=1))
    specs.append(ConvSpec("feature.out", fused, f, 1, norm=False, act=False))
    return specs


def matching_layer_specs(cfg: ModelConfig) -> list[ConvSpec]:
    """U-shaped matching net over one concatenated feature pair.

    Normalization inside the matching net is per-sample so that batching
    disparity levels together cannot couple them; this is what makes the
    cost of each shift a pure function of that shift in every mode.
    """
    two_f = 2 * cfg.feature_channels
    m = cfg.matching_channels
    specs = []
    prev = two_f
    for i, ch in enumerate(m, 1):
        specs.append(ConvSpec(f"matching.enc{i}", prev, ch, 3, stride=2, padding=1,
                              per_sample_norm=True))
        specs.append(ConvSpec(f"matching.filt{i}", ch, ch, 3, padding=1,
                              per_sample_norm=True))
        prev = ch
    skips = (m[2], m[1], m[0], two_f)
    outs = (m[2], m[1], m[0], m[0])
    prev = m[3]
    for i, (skip, out_ch) in enumerate(zip(skips, outs), 1):
        specs.append(ConvSpec(f"matching.dec{i}", prev + skip, out_ch, 3, padding=1,
                              per_sample_norm=True))
        prev = out_ch
    specs.append(ConvSpec("matching.out", m[0], 1, 3, padding=1, norm=False, act=False))
    return specs


def refine_layer_specs(cfg: ModelConfig) -> list[ConvSpec]:
    """Residual refinement over (image, normalized disparity, normalized entropy)."""
    r = cfg.refine_channels
    specs = [ConvSpec("refine.head", cfg.in_channels + 2, r, 3, padding=1)]
    for i, rate in enumerate(cfg.refine_blocks, 1):
        specs.append(ConvSpec(f"refine.block{i}.conv1", r, r, 3, dilation=rate, padding=rate))
        specs.append(ConvSpec(f"refine.block{i}.conv2", r, r, 3, dilation=rate, padding=rate,
                              act=False))
    specs.append(ConvSpec("refine.out", r, 1, 3, padding=1, norm=False, act=False,
                          zero_init=True))
    return specs


def all_layer_specs(cfg: ModelConfig) -> list[ConvSpec]:
    return feature_layer_specs(cfg) + matching_layer_specs(cfg) + refine_layer_specs(cfg)


def weight_shapes(config: ModelConfig) -> tuple[dict[str, tuple], dict[str, tuple]]:
    """Names and shapes of the parameters and of the buffers, in layer order.

    Every layer has ``"<layer>.w"`` (Cout, Cin, K, K) and ``"<layer>.b"``;
    a normed layer adds the parameters ``.gamma`` / ``.beta`` and the
    running-statistics buffers ``.mean`` / ``.var``, all (1, Cout, 1, 1).
    """
    params: dict[str, tuple] = {}
    buffers: dict[str, tuple] = {}
    for s in all_layer_specs(config):
        channel = (1, s.cout, 1, 1)
        params[s.name + ".w"] = (s.cout, s.cin, s.k, s.k)
        params[s.name + ".b"] = channel
        if s.norm:
            params[s.name + ".gamma"] = params[s.name + ".beta"] = channel
            buffers[s.name + ".mean"] = buffers[s.name + ".var"] = channel
    return params, buffers


def count_parameters(cfg: ModelConfig) -> dict[str, int]:
    """Learnable scalars per subnetwork (weights, biases, norm affine)."""
    counts = {"feature": 0, "matching": 0, "refine": 0}
    for name, shape in weight_shapes(cfg)[0].items():
        counts[name.split(".", 1)[0]] += math.prod(shape)
    counts["total"] = sum(counts.values())
    return counts


class ModelWeights:
    """Named parameter and buffer tensors for the three subnetworks.

    One single matching-net parameter set serves all disparity levels;
    the cost-volume builder copies only the weight blocks of the two layers
    that read the feature pair (:func:`pair_blocks`). ``specs``
    maps each layer name to its ConvSpec; :meth:`folded` returns weights
    whose specs carry ``norm=False``.
    """

    def __init__(self, config: ModelConfig, params: dict[str, Tensor],
                 buffers: dict[str, Tensor]):
        self.config = config
        self.params = params
        self.buffers = buffers
        self.specs = {s.name: s for s in all_layer_specs(config)}

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
        """Inference weights with every batch norm folded into its conv.

        For a normed layer, ``scale = gamma / sqrt(var + eps)`` per output
        channel gives ``w' = w * scale`` and ``b' = (b - mean) * scale +
        beta``, computed in the weights' own dtype with the epsilon of
        :func:`ops.batch_norm`. Its spec then carries ``norm=False``, so a
        conv and its norm become one conv. Layers without a norm share
        their tensors with ``self``; nothing of ``self`` is modified. The
        result has the same ``"<layer>.w"`` / ``"<layer>.b"`` keys and no
        buffers.
        """
        params: dict[str, Tensor] = {}
        for name, spec in self.specs.items():
            w, b = self.params[name + ".w"], self.params[name + ".b"]
            if spec.norm:
                var = self.buffers[name + ".var"].data
                scale = self.params[name + ".gamma"].data / np.sqrt(
                    var + var.dtype.type(ops.BN_EPSILON))
                w = Tensor(w.data * scale.reshape(-1, 1, 1, 1))
                b = Tensor((b.data - self.buffers[name + ".mean"].data) * scale
                           + self.params[name + ".beta"].data)
            params[name + ".w"], params[name + ".b"] = w, b
        out = ModelWeights(self.config, params, {})
        out.specs = {name: replace(spec, norm=False) for name, spec in self.specs.items()}
        return out

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())


def _norm_act(out: Tensor, name: str, weights: ModelWeights, training: bool) -> Tensor:
    """The norm and activation that follow layer ``name``'s convolution."""
    spec = weights.specs[name]
    if spec.norm:
        out = ops.batch_norm(out, weights.params[name + ".gamma"],
                             weights.params[name + ".beta"],
                             weights.buffers[name + ".mean"],
                             weights.buffers[name + ".var"],
                             training=training, per_sample=spec.per_sample_norm)
    if spec.act:
        out = ops.relu(out)
    return out


def _block(x: Tensor, name: str, weights: ModelWeights, training: bool) -> Tensor:
    spec = weights.specs[name]
    out = ops.conv2d(x, weights.params[name + ".w"], weights.params[name + ".b"],
                     stride=spec.stride, dilation=spec.dilation, padding=spec.padding)
    return _norm_act(out, name, weights, training)


# ---------------------------------------------------------------------------
# feature net
# ---------------------------------------------------------------------------

def extract_features(image: Tensor, weights: ModelWeights, cfg: ModelConfig,
                     training: bool = False) -> Tensor:
    """Image (B, in_channels, H, W) -> features (B, F, ceil(H/3), ceil(W/3))."""
    b, c, h, w = image.shape
    if c != cfg.in_channels:
        raise ShapeError(f"extract_features: image has {c} channels, "
                         f"config expects {cfg.in_channels}")
    if h < 9 or w < 9:
        raise ShapeError(f"extract_features: image {h}x{w} is below the 9x9 minimum")
    x = _block(image, "feature.down", weights, training)
    for i in range(1, 4):
        x = _block(x, f"feature.dil{i}", weights, training)
    _, _, fh, fw = x.shape
    branches = [x]
    for i, (window, _) in enumerate(cfg.spp_pools, 1):
        p = ops.avg_pool(x, window, window, window, window)
        p = _block(p, f"feature.spp{i}", weights, training)
        branches.append(ops.bilinear_resize(p, fh, fw))
    fused = _block(ops.concat_channels(branches), "feature.fuse", weights, training)
    return ops.conv2d(fused, weights.params["feature.out.w"],
                      weights.params["feature.out.b"], padding=0)


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

    ``matching.enc1`` reads ``[L, S_d R]`` and ``matching.dec4`` reads
    ``[x, L, S_d R]``; ``x_block``, ``left_block`` and ``right_block`` hold
    their blocks over x, L and R. Each R block is stacked along the output
    channels with its twin whose kernel's last column is zeroed, which
    gives the last output column (see :func:`_pair_terms`). enc1 has stride
    2 and needs the twin only at an odd ``feature_width``, where its last
    output column reads padding.
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


@dataclass(frozen=True)
class _PairTerms:
    """The matching net's convolutions of the feature pair, once per volume.

    ``enc1_left`` / ``dec4_left`` are ``conv(L, W_L) + bias`` of
    ``matching.enc1`` / ``matching.dec4``; ``enc1_right`` / ``dec4_right``
    are the maps of the R blocks that :func:`_match_levels` shifts per
    level; ``dec4_x`` is dec4's weight block over the decoder input.
    """

    enc1_left: Tensor
    enc1_right: Tensor
    dec4_left: Tensor
    dec4_right: Tensor
    dec4_x: Tensor


def _pair_terms(left_features: Tensor, source: Tensor, weights: ModelWeights,
                cfg: ModelConfig, x_block: BlockWeights, left_block: BlockWeights,
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
    f, m0 = cfg.feature_channels, cfg.matching_channels[0]
    _, c, h, w = left_features.shape
    if c != f:
        raise ShapeError(f"matching net expects {f}-channel features, got {c}")
    if min(h, w) < 16:
        raise ShapeError(f"matching net needs >= 16x16 at 1/3 resolution, got {h}x{w}")
    if source.shape != left_features.shape:
        raise ShapeError(f"matching net: feature shapes differ "
                         f"{left_features.shape} vs {source.shape}")
    enc1_right = right_block.params["matching.enc1.w"]
    if enc1_right.shape[0] != m0 * (1 + w % 2):
        raise ShapeError(f"matching net: right_block was split for another "
                         f"feature width than {w}")
    left = left_block.params
    return _PairTerms(
        enc1_left=ops.conv2d(left_features, left["matching.enc1.w"],
                             weights.params["matching.enc1.b"], stride=2, padding=1),
        enc1_right=ops.conv2d(ops.stack_batch([source, ops.shift_columns(source, 1)]),
                              enc1_right, stride=2, padding=1),
        dec4_left=ops.conv2d(left_features, left["matching.dec4.w"],
                             weights.params["matching.dec4.b"], padding=1),
        dec4_right=ops.conv2d(ops.gather_columns(source, [0], [1], w + 1),
                              right_block.params["matching.dec4.w"], padding=1),
        dec4_x=x_block.params["matching.dec4.w"])


def _match_levels(terms: _PairTerms, levels: list[int], weights: ModelWeights,
                  training: bool) -> Tensor:
    """Cost maps (len(levels), 1, H', W') of the given disparity levels.

    Each batch item runs the matching net on its own level only: the
    per-sample norms and the convs keep batch items independent, so a
    level's cost is bit-identical however the levels are batched.
    """
    n = len(levels)
    _, _, h, w = terms.dec4_left.shape

    def per_level(t):
        return t if n == 1 else ops.stack_batch([t] * n)

    x = ops.add(per_level(terms.enc1_left),
                ops.gather_columns(terms.enc1_right, [d % 2 for d in levels],
                                   [d // 2 for d in levels], terms.enc1_left.shape[3],
                                   edge=w % 2 == 1))
    x = _block(_norm_act(x, "matching.enc1", weights, training), "matching.filt1",
               weights, training)
    skips = [x]
    for i in range(2, 5):
        x = _block(x, f"matching.enc{i}", weights, training)
        x = _block(x, f"matching.filt{i}", weights, training)
        skips.append(x)
    for i, skip in enumerate((skips[2], skips[1], skips[0]), 1):
        _, _, sh, sw = skip.shape
        x = ops.bilinear_resize(x, sh, sw)
        x = _block(ops.concat_channels([x, skip]), f"matching.dec{i}", weights, training)
    x = ops.conv2d(ops.bilinear_resize(x, h, w), terms.dec4_x, padding=1)
    # dec4_right is one column wider on the left: level d reads it at d - 1.
    x = ops.add(ops.add(x, per_level(terms.dec4_left)),
                ops.gather_columns(terms.dec4_right, [0] * n, [d - 1 for d in levels], w,
                                   edge=True))
    x = _norm_act(x, "matching.dec4", weights, training)
    return ops.conv2d(x, weights.params["matching.out.w"],
                      weights.params["matching.out.b"], padding=1)


def cost_level(left_features: Tensor, right_features: Tensor, d: int,
               weights: ModelWeights, cfg: ModelConfig, training: bool = False) -> Tensor:
    """Cost map (1, 1, H', W') of level d alone, bit-identical to slice d of
    :func:`build_cost_volume`."""
    if left_features.shape[0] != 1:
        raise ShapeError("cost_level: one image pair at a time (batch extent 1)")
    if not 0 <= d < left_features.shape[3]:
        raise ShapeError(f"cost_level: level {d} outside the feature width")
    terms = _pair_terms(left_features, right_features, weights, cfg,
                        **pair_blocks(weights, cfg, left_features.shape[3]))
    return _match_levels(terms, [d], weights, training)


def build_cost_volume(left_features: Tensor, right_features: Tensor,
                      weights: ModelWeights, cfg: ModelConfig,
                      mode: str = "parallel", training: bool = False,
                      context_only: bool = False, *,
                      x_block: BlockWeights | None = None,
                      left_block: BlockWeights | None = None,
                      right_block: BlockWeights | None = None) -> Tensor:
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

    ``x_block``, ``left_block`` and ``right_block`` are
    :func:`pair_blocks` of ``weights``, split here when not given.
    :func:`forward_tensors` passes them, so that every weight a conv of
    this stage reads is a tensor named among its arguments; the traced
    benchmark run (``perfbench/spans.py``) attributes conv time to layers
    by those names.

    ``sequential`` runs one level at a time so activations of one level can
    be recycled; ``parallel`` batches all levels through the net at once.
    Both produce bit-identical volumes. ``context_only`` replaces the right
    features with the left features (the crippled control that cannot
    see the second view).
    """
    if mode not in ("sequential", "parallel"):
        raise ShapeError(f"build_cost_volume: unknown mode {mode!r}")
    b, _, _, fw = left_features.shape
    if b != 1:
        raise ShapeError("build_cost_volume: one image pair at a time (batch extent 1)")
    if left_features.shape != right_features.shape:
        raise ShapeError("build_cost_volume: left/right feature shapes differ")
    levels = cfg.levels
    if levels > fw:
        raise ShapeError(f"build_cost_volume: {levels} levels exceed feature width {fw}")
    if any(block is None for block in (x_block, left_block, right_block)):
        blocks = pair_blocks(weights, cfg, fw)
    else:
        blocks = {"x_block": x_block, "left_block": left_block, "right_block": right_block}
    source = left_features if context_only else right_features
    terms = _pair_terms(left_features, source, weights, cfg, **blocks)
    if mode == "sequential":
        return ops.concat_channels([_match_levels(terms, [d], weights, training)
                                    for d in range(levels)])
    return ops.batch_to_channels(_match_levels(terms, list(range(levels)), weights,
                                               training))


# ---------------------------------------------------------------------------
# projection layer
# ---------------------------------------------------------------------------

def soft_argmin(volume: Tensor) -> Tensor:
    """Expected disparity level under the softmax of negated costs."""
    probs = ops.softmax(ops.scalar_mul(volume, -1.0), axis=1)
    return ops.index_expectation(probs)


def entropy(volume: Tensor) -> Tensor:
    """Per-pixel Shannon entropy (nats) of the softmax cost distribution."""
    probs = ops.softmax(ops.scalar_mul(volume, -1.0), axis=1)
    return ops.channel_entropy(probs)


def _project(volume: Tensor) -> tuple[Tensor, Tensor]:
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
           weights: ModelWeights, cfg: ModelConfig, training: bool = False) -> Tensor:
    """Residual correction of the disparity, clamped to be non-negative."""
    if disp.shape[2:] != left_image.shape[2:] or disp.shape[2:] != ent.shape[2:]:
        raise ShapeError(f"refine: extents differ (disp {disp.shape}, "
                         f"image {left_image.shape}, entropy {ent.shape})")
    ent_scale = math.log(cfg.levels) if cfg.levels > 1 else 1.0
    x = ops.concat_channels([
        left_image,
        ops.scalar_mul(disp, 1.0 / cfg.max_disparity),
        ops.scalar_mul(ent, 1.0 / ent_scale),
    ])
    x = _block(x, "refine.head", weights, training)
    for i in range(1, len(cfg.refine_blocks) + 1):
        y = _block(x, f"refine.block{i}.conv1", weights, training)
        y = _block(y, f"refine.block{i}.conv2", weights, training)
        x = ops.relu(ops.add(x, y))
    residual = ops.conv2d(x, weights.params["refine.out.w"],
                          weights.params["refine.out.b"], padding=1)
    return ops.relu(ops.add(disp, residual))


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

@dataclass
class DisparityMap:
    """Full-resolution disparities in pixels plus a validity mask."""

    values: np.ndarray
    valid: np.ndarray

    @classmethod
    def dense(cls, values: np.ndarray) -> "DisparityMap":
        return cls(np.asarray(values), np.ones(np.asarray(values).shape, dtype=bool))


@dataclass
class EntropyMap:
    """Per-pixel matching entropy in natural-log units."""

    values: np.ndarray


def upsample_outputs(disp: DisparityMap, ent: EntropyMap,
                     out_h: int, out_w: int) -> tuple[DisparityMap, EntropyMap]:
    """Map-level wrapper over the tensor upsampling used in the pipeline."""
    dt = Tensor(disp.values[None, None].astype(STANDARD))
    et = Tensor(ent.values[None, None].astype(STANDARD))
    d, e = _upsample_tensors(dt, et, out_h, out_w)
    return DisparityMap.dense(d.data[0, 0]), EntropyMap(e.data[0, 0])


def forward_tensors(left: Tensor, right: Tensor, weights: ModelWeights,
                    cfg: ModelConfig, mode: str = "parallel",
                    training: bool = False, context_only: bool = False) -> dict[str, Tensor]:
    """Run the full pipeline, returning all intermediate tensors by name.

    With ``training=False`` and no tape recording, the batch norms are
    folded into their convs once per call (:meth:`ModelWeights.folded`)
    and every stage runs on the folded copy; ``weights`` is not modified.
    Under an active tape the norms run as their own ops, so gradients
    still reach gamma and beta.
    """
    if left.shape != right.shape:
        raise ShapeError(f"forward: image shapes differ {left.shape} vs {right.shape}")
    if not training and active_tape() is None:
        weights = weights.folded()
    _, _, h, w = left.shape
    f_left = extract_features(left, weights, cfg, training)
    f_right = extract_features(right, weights, cfg, training)
    volume = build_cost_volume(f_left, f_right, weights, cfg, mode=mode,
                               training=training, context_only=context_only,
                               **pair_blocks(weights, cfg, f_left.shape[3]))
    disp_low, ent_low = _project(volume)
    coarse, ent_full = _upsample_tensors(disp_low, ent_low, h, w)
    refined = refine(coarse, left, ent_full, weights, cfg, training)
    return {"features_left": f_left, "features_right": f_right, "volume": volume,
            "coarse_low": disp_low, "entropy_low": ent_low,
            "coarse": coarse, "entropy": ent_full, "refined": refined}


def forward(left: Tensor, right: Tensor, weights: ModelWeights, cfg: ModelConfig,
            mode: str = "parallel") -> tuple[DisparityMap, DisparityMap, EntropyMap]:
    """Inference entry point: (coarse disparity, refined disparity, entropy)."""
    out = forward_tensors(left, right, weights, cfg, mode=mode, training=False)
    coarse = DisparityMap.dense(out["coarse"].data[0, 0].copy())
    refined = DisparityMap.dense(out["refined"].data[0, 0].copy())
    ent = EntropyMap(out["entropy"].data[0, 0].copy())
    return coarse, refined, ent

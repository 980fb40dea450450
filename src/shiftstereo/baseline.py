"""Hand-crafted matching costs, the winner-take-all oracle, and an
analytic estimator for parameters, flops, and peak activation memory."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError
from .model import (ConvSpec, ModelConfig, check_feature_extents,
                    check_image_extents, count_parameters, feature_layer_specs,
                    levels_per_batch, matching_layer_specs, refine_layer_specs)
from .ops import conv_out_extent
from .tensor import Tensor


@dataclass(frozen=True)
class SsdConfig:
    patch_radius: int = 1

    def __post_init__(self):
        if self.patch_radius < 0:
            raise ShapeError(f"patch_radius must be >= 0, got {self.patch_radius}")


def ssd_cost(left_features: Tensor, right_features: Tensor, d: int,
             cfg: SsdConfig = SsdConfig()) -> Tensor:
    """Patch-summed squared feature distance at one shift.

    The right map is displaced by ``d`` (zero-filled) and the per-pixel
    squared channel distance is summed over a (2r+1)^2 patch; patches are
    clipped at the image border so out-of-image positions contribute
    nothing.
    """
    if left_features.shape != right_features.shape:
        raise ShapeError(f"ssd_cost: feature shapes differ "
                         f"{left_features.shape} vs {right_features.shape}")
    b, c, h, w = left_features.shape
    if not 0 <= d < w:
        raise ShapeError(f"ssd_cost: shift {d} out of range [0, {w})")
    shifted = np.zeros_like(right_features.data)
    if d:
        shifted[:, :, :, d:] = right_features.data[:, :, :, :w - d]
    else:
        shifted[:] = right_features.data
    diff = left_features.data - shifted
    per_pixel = (diff * diff).sum(axis=1, keepdims=True)
    r = cfg.patch_radius
    if r == 0:
        return Tensor(per_pixel)
    padded = np.pad(per_pixel, ((0, 0), (0, 0), (r, r), (r, r)))
    out = np.zeros_like(per_pixel)
    for dy in range(2 * r + 1):
        for dx in range(2 * r + 1):
            out += padded[:, :, dy:dy + h, dx:dx + w]
    return Tensor(out)


def build_ssd_volume(left_features: Tensor, right_features: Tensor,
                     levels: int, cfg: SsdConfig = SsdConfig()) -> Tensor:
    """Stack ssd_cost over shifts 0..levels-1 into a (1, levels, H, W) volume."""
    if levels < 1:
        raise ShapeError(f"build_ssd_volume: need at least one level, got {levels}")
    slices = [ssd_cost(left_features, right_features, d, cfg).data
              for d in range(levels)]
    return Tensor(np.concatenate(slices, axis=1))


def wta_disparity(volume: Tensor) -> np.ndarray:
    """Per-pixel argmin over levels, as an (H, W) float32 map; ties break
    toward the smaller level."""
    if volume.shape[1] < 1:
        raise ShapeError("wta_disparity: empty volume")
    return np.argmin(volume.data[0], axis=0).astype(np.float32)


# ---------------------------------------------------------------------------
# resource estimation
# ---------------------------------------------------------------------------

def conv_flops(k: int, cin: int, cout: int, out_h: int, out_w: int) -> int:
    """Multiply-accumulates of one convolution, at 2 flops per MAC."""
    return 2 * k * k * cin * cout * out_h * out_w


@dataclass
class ResourceReport:
    """Parameter/flop counts per subnetwork and peak activation elements.

    Conventions: 1 multiply-accumulate = 2 flops; the conv figures cover
    kernel MACs only, while bias, normalization, activation, pooling, and
    resampling costs are collected separately under ``aux_flops`` (bias 1
    where the folded layer adds one, norm 4, relu 1 flop per output
    element; pooling 1 per input element; bilinear 8 per output element;
    a refinement block's skip sum and ReLU 2 per output element).
    ``matching_per_level`` counts the convs each disparity level runs and
    ``matching_per_volume`` the feature-pair convs run once per cost
    volume; ``total`` is every conv of one forward pass.
    ``peak_elements["matching_batch"]`` counts the elements of the
    matching-net input of one batch of levels, ``levels_per_batch`` (see
    :func:`model.levels_per_batch`) pairs of (H/3)(W/3) maps with 2F
    channels each.
    """

    height: int
    width: int
    levels: int
    feature_channels: int
    params: dict[str, int]
    conv_flops: dict[str, int]
    aux_flops: int
    peak_elements: dict[str, int]

    def kv_lines(self) -> list[str]:
        lines = []
        for section, count in self.params.items():
            lines.append(f"params_{section}={count}")
        for section, count in self.conv_flops.items():
            lines.append(f"conv_flops_{section}={count}")
        lines.append(f"aux_flops={self.aux_flops}")
        for name, count in self.peak_elements.items():
            lines.append(f"peak_elements_{name}={count}")
        return lines

    def text_table(self) -> str:
        rows = [
            f"input {self.height}x{self.width}, {self.levels} disparity levels "
            f"({self.levels * 3} px), {self.feature_channels} feature channels",
            "",
            "parameters:",
        ]
        rows += [f"  {k:<12} {v:>14,}" for k, v in self.params.items()]
        rows.append("conv flops (2 per multiply-accumulate):")
        rows += [f"  {k:<22} {v:>16,}" for k, v in self.conv_flops.items()]
        rows.append(f"  {'aux (bias/norm/act)':<22} {self.aux_flops:>16,}")
        rows.append("peak matching activation elements:")
        rows.append(f"  {'matching_batch':<16} {self.peak_elements['matching_batch']:>14,}"
                    f"   = (H/3)(W/3)(2F) x levels per batch")
        return "\n".join(rows)


def _section_cost(specs: list[ConvSpec], sizes: dict[str, tuple[int, int]]):
    """(conv flops, aux flops) of one subnet given per-layer output sizes."""
    conv_total = 0
    aux_total = 0
    for s in specs:
        oh, ow = sizes[s.name]
        conv_total += conv_flops(s.k, s.cin, s.cout, oh, ow)
        elements = s.cout * oh * ow
        if s.bias:  # added by the folded conv, also for a normed layer
            aux_total += elements
        if s.norm:
            aux_total += 4 * elements
        if s.act:
            aux_total += elements
    return conv_total, aux_total


def estimate_resources(config: ModelConfig, height: int, width: int) -> ResourceReport:
    """Analytic parameter/flop/memory figures at a given input size.

    Raises ShapeError on the extents the model refuses to run on.
    """
    check_image_extents(height, width)
    down = feature_layer_specs(config)[0]
    fh, fw = (conv_out_extent(n, down.k, down.stride, down.dilation, down.padding)
              for n in (height, width))
    check_feature_extents(config, fh, fw)
    f = config.feature_channels
    levels = config.levels

    # feature net: stride-3 conv to (fh, fw); everything after preserves size
    # except the pooled branches, whose convs run on the pooled grid.
    feat_sizes = {s.name: (fh, fw) for s in feature_layer_specs(config)}
    for i, (window, _) in enumerate(config.spp_pools, 1):
        feat_sizes[f"feature.spp{i}"] = ((fh - min(window, fh)) // window + 1,
                                         (fw - min(window, fw)) // window + 1)
    feat_conv, feat_aux = _section_cost(feature_layer_specs(config), feat_sizes)

    # matching net per level: encoder halves four times, decoder mirrors.
    scales = [(fh, fw)]
    for _ in range(4):
        h_prev, w_prev = scales[-1]
        scales.append(((h_prev - 1) // 2 + 1, (w_prev - 1) // 2 + 1))
    match_sizes = {"matching.out": scales[0]}
    for i in range(1, 5):
        match_sizes[f"matching.enc{i}"] = match_sizes[f"matching.filt{i}"] = scales[i]
        match_sizes[f"matching.dec{i}"] = scales[4 - i]
    # The feature pair's convolutions run once per volume (model._pair_terms):
    # enc1 reads L once and R twice (even and odd shifts), dec4 reads L once
    # and, with its last-column-masked twin, R twice over a map one column
    # wider; an odd feature width adds enc1's masked twin, two more maps.
    # Per level, enc1 runs no conv and dec4 reads only the decoder's channels.
    m0 = config.matching_channels[0]
    enc1_maps = 1 + (2 if fw % 2 == 0 else 4)
    per_volume = (enc1_maps * conv_flops(3, f, m0, *scales[1])
                  + conv_flops(3, f, m0, fh, fw) + 2 * conv_flops(3, f, m0, fh, fw + 1))
    per_level = [replace(s, cin=m0) if s.name == "matching.dec4" else s
                 for s in matching_layer_specs(config) if s.name != "matching.enc1"]
    match_conv, _ = _section_cost(per_level, match_sizes)
    _, match_aux = _section_cost(matching_layer_specs(config), match_sizes)

    refine_sizes = {s.name: (height, width) for s in refine_layer_specs(config)}
    ref_conv, ref_aux = _section_cost(refine_layer_specs(config), refine_sizes)
    # Each block's skip sum and its ReLU, which the epilogue of its conv2 runs.
    ref_aux += 2 * len(config.refine_blocks) * config.refine_channels * height * width

    params = count_parameters(config)
    conv = {
        "feature_per_image": feat_conv,
        "feature_both_images": 2 * feat_conv,
        "matching_per_level": match_conv,
        "matching_all_levels": match_conv * levels,
        "matching_per_volume": per_volume,
        "refine": ref_conv,
        "total": 2 * feat_conv + match_conv * levels + per_volume + ref_conv,
    }
    aux = 2 * feat_aux + match_aux * levels + ref_aux
    return ResourceReport(
        height=height, width=width, levels=levels, feature_channels=f,
        params=params, conv_flops=conv, aux_flops=aux,
        peak_elements={"matching_batch": levels_per_batch(config, fh, fw) * fh * fw * 2 * f},
    )

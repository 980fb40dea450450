"""Hand-crafted matching costs, the winner-take-all oracle, and an
analytic estimator for parameters, flops, and peak activation memory."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .model import (ModelConfig, all_layer_specs, count_parameters, layer_extents,
                    levels_per_batch)
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


def estimate_resources(config: ModelConfig, height: int, width: int) -> ResourceReport:
    """Analytic parameter/flop/memory figures at a given input size, over
    the extents of :func:`model.layer_extents`.

    Raises ShapeError on the extents the model refuses to run on.
    """
    extents = layer_extents(config, height, width)
    f, m0, levels = config.feature_channels, config.matching_channels[0], config.levels
    conv = dict.fromkeys(("feature", "matching", "refine"), 0)
    aux = dict(conv)
    for s in all_layer_specs(config):
        oh, ow = extents[s.name]
        subnet = s.name.split(".", 1)[0]
        # Per level, enc1 runs no conv and dec4 reads only the decoder's channels.
        if s.name != "matching.enc1":
            cin = m0 if s.name == "matching.dec4" else s.cin
            conv[subnet] += conv_flops(s.k, cin, s.cout, oh, ow)
        # The bias is added by the folded conv, also for a normed layer; a
        # refine block's conv2 also runs the block's skip sum and its ReLU.
        per_element = s.bias + 4 * s.norm + s.act + 2 * s.name.endswith(".conv2")
        aux[subnet] += per_element * s.cout * oh * ow

    # The feature pair's convolutions run once per volume (model._pair_terms):
    # enc1 reads L once and R twice (even and odd shifts), dec4 reads L once
    # and, with its last-column-masked twin, R twice over a map one column
    # wider; an odd feature width adds enc1's masked twin, two more maps.
    fh, fw = extents["matching.dec4"]
    enc1_maps = 1 + (2 if fw % 2 == 0 else 4)
    per_volume = (enc1_maps * conv_flops(3, f, m0, *extents["matching.enc1"])
                  + conv_flops(3, f, m0, fh, fw) + 2 * conv_flops(3, f, m0, fh, fw + 1))
    flops = {
        "feature_per_image": conv["feature"],
        "feature_both_images": 2 * conv["feature"],
        "matching_per_level": conv["matching"],
        "matching_all_levels": conv["matching"] * levels,
        "matching_per_volume": per_volume,
        "refine": conv["refine"],
        "total": 2 * conv["feature"] + conv["matching"] * levels + per_volume + conv["refine"],
    }
    return ResourceReport(
        height=height, width=width, levels=levels, feature_channels=f,
        params=count_parameters(config), conv_flops=flops,
        aux_flops=2 * aux["feature"] + aux["matching"] * levels + aux["refine"],
        peak_elements={"matching_batch": levels_per_batch(config, fh, fw) * fh * fw * 2 * f},
    )

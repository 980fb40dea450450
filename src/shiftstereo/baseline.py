"""An analytic estimator for parameters, flops, and peak activation memory."""

from __future__ import annotations

from dataclasses import dataclass

from .model import (ModelConfig, all_layer_specs, count_parameters, layer_extents,
                    levels_per_batch)


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
    channels each. :meth:`kv_lines` is the one printout; the inputs are
    the caller's to print.
    """

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
        # A normed layer's folded conv adds a bias, and a matching norm its
        # beta; a refine block's conv2 also runs the block's skip sum and ReLU.
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
        params=count_parameters(config), conv_flops=flops,
        aux_flops=2 * aux["feature"] + aux["matching"] * levels + aux["refine"],
        peak_elements={"matching_batch": levels_per_batch(config, fh, fw) * fh * fw * 2 * f},
    )

"""Disparity-map quality metrics over the valid pixels of one map or of a
pooled set: a split's aggregate is :func:`evaluate` of its pixels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class MetricReport:
    """Error statistics over the valid pixels of one map, or of several
    maps' pixels pooled into one set.

    ``bad`` maps a threshold (px) to the percentage of valid pixels whose
    absolute error strictly exceeds it. ``a99`` is the nearest-rank 99th
    percentile of the absolute error. :meth:`kv_line` is the one printout.
    """

    epe: float
    rmse: float
    bad: dict[float, float]
    a99: float
    valid_pixel_count: int

    def kv_line(self) -> str:
        parts = [f"epe={self.epe:.6f}", f"rmse={self.rmse:.6f}"]
        for t in sorted(self.bad):
            label = f"{t:g}".replace(".", "_") if t != int(t) else f"{int(t)}"
            parts.append(f"bad{label}={self.bad[t]:.6f}")
        parts.append(f"a99={self.a99:.6f}")
        parts.append(f"n={self.valid_pixel_count}")
        return " ".join(parts)


def nearest_rank_percentile(sorted_errors: np.ndarray, pct: float) -> float:
    """Smallest value with at least pct% of the samples at or below it."""
    n = len(sorted_errors)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(sorted_errors[rank - 1])


def evaluate(pred, gt, mask: np.ndarray,
             thresholds=(1.0, 2.0, 4.0)) -> MetricReport:
    """Metrics over ``mask``: mean, root-mean-square, bad-threshold rates,
    and the 99th-percentile absolute disparity error. ConfigError on a
    non-finite threshold; ShapeError on differing extents, an empty mask,
    or a non-finite prediction under the mask (a NaN error would count as
    a good pixel in every bad-x rate)."""
    if not all(math.isfinite(t) for t in thresholds):
        raise ConfigError(f"evaluate: thresholds must be finite, got {list(thresholds)}")
    pred_v = np.asarray(pred, dtype=np.float64)
    gt_v = np.asarray(gt, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if pred_v.shape != gt_v.shape or pred_v.shape != mask.shape:
        raise ShapeError(f"evaluate: extents differ (pred {pred_v.shape}, "
                         f"gt {gt_v.shape}, mask {mask.shape})")
    if not mask.any():
        raise ShapeError("evaluate: empty validity mask")
    pred_v = pred_v[mask]
    non_finite = int(np.sum(~np.isfinite(pred_v)))
    if non_finite:
        raise ShapeError(f"evaluate: {non_finite} non-finite predictions under the mask")
    err = np.abs(pred_v - gt_v[mask])
    bad = {float(t): 100.0 * float(np.mean(err > t)) for t in thresholds}
    return MetricReport(
        epe=float(err.mean()),
        rmse=float(np.sqrt(np.mean(err * err))),
        bad=bad,
        a99=nearest_rank_percentile(np.sort(err), 99.0),
        valid_pixel_count=int(err.size),
    )

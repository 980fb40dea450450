"""Disparity-map quality metrics and their dataset-level aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass
class MetricReport:
    """Error statistics over the valid pixels of one or more maps.

    ``bad`` maps a threshold (px) to the percentage of valid pixels whose
    absolute error strictly exceeds it. ``a99`` is the nearest-rank 99th
    percentile of the absolute error. ``errors`` holds the sorted absolute
    errors, so that aggregation recomputes the percentile exactly over
    the pooled pixels.
    """

    epe: float
    rmse: float
    bad: dict[float, float]
    a99: float
    valid_pixel_count: int
    errors: np.ndarray

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
    and the 99th-percentile absolute disparity error."""
    pred_v = np.asarray(pred, dtype=np.float64)
    gt_v = np.asarray(gt, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if pred_v.shape != gt_v.shape or pred_v.shape != mask.shape:
        raise ShapeError(f"evaluate: extents differ (pred {pred_v.shape}, "
                         f"gt {gt_v.shape}, mask {mask.shape})")
    if not mask.any():
        raise ShapeError("evaluate: empty validity mask")
    err = np.abs(pred_v[mask] - gt_v[mask])
    err_sorted = np.sort(err)
    bad = {float(t): 100.0 * float(np.mean(err > t)) for t in thresholds}
    return MetricReport(
        epe=float(err.mean()),
        rmse=float(np.sqrt(np.mean(err * err))),
        bad=bad,
        a99=nearest_rank_percentile(err_sorted, 99.0),
        valid_pixel_count=int(err.size),
        errors=err_sorted,
    )


def aggregate(reports: list[MetricReport]) -> MetricReport:
    """Valid-pixel-weighted combination of per-image reports.

    epe and bad rates are weighted means over the thresholds every report
    has, rmse is the root of the weighted mean square, and the 99th
    percentile is recomputed over the pooled errors.
    """
    if not reports:
        raise ShapeError("aggregate: empty report list")
    weights = np.array([r.valid_pixel_count for r in reports], dtype=np.float64)
    total = weights.sum()
    epe = float(np.dot(weights, [r.epe for r in reports]) / total)
    mse = float(np.dot(weights, [r.rmse ** 2 for r in reports]) / total)
    thresholds = set(reports[0].bad)
    for r in reports[1:]:
        thresholds &= set(r.bad)
    bad = {t: float(np.dot(weights, [r.bad[t] for r in reports]) / total)
           for t in sorted(thresholds)}
    pooled = np.sort(np.concatenate([r.errors for r in reports]))
    return MetricReport(epe=epe, rmse=float(np.sqrt(mse)), bad=bad,
                        a99=nearest_rank_percentile(pooled, 99.0),
                        valid_pixel_count=int(total), errors=pooled)


def report_table(rows: list[tuple[str, MetricReport]]) -> str:
    """Aligned plain-text table, one row per labeled report."""
    thresholds = sorted({t for _, r in rows for t in r.bad})
    header = ["name", "epe", "rmse"] + [f"bad-{t:g}" for t in thresholds] + ["a99", "pixels"]
    lines = [header]
    for name, r in rows:
        lines.append([name, f"{r.epe:.4f}", f"{r.rmse:.4f}"]
                     + [f"{r.bad.get(t, float('nan')):.3f}" for t in thresholds]
                     + [f"{r.a99:.4f}", str(r.valid_pixel_count)])
    widths = [max(len(row[i]) for row in lines) for i in range(len(header))]
    out = []
    for row in lines:
        out.append("  ".join(cell.rjust(w) if i else cell.ljust(w)
                             for i, (cell, w) in enumerate(zip(row, widths))))
    return "\n".join(out)

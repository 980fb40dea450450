"""Disparity metrics of one map and of several maps' pooled pixels,
checked against hand-computed values."""

import math

import numpy as np
import pytest

from shiftstereo.errors import ConfigError, ShapeError
from shiftstereo.evaluation import evaluate, nearest_rank_percentile


def _report(errors, thresholds=(1.0, 2.0, 4.0)):
    """evaluate() of a one-row map whose absolute errors are ``errors``."""
    errors = np.asarray(errors, dtype=np.float64)
    gt = np.full((1, errors.size), 10.0)
    return evaluate(gt + errors, gt, np.ones(gt.shape, dtype=bool), thresholds)


class TestEvaluate:
    def test_hand_computed_metrics(self):
        # errors 0, 1, 2, 3 over the valid pixels; the masked pixel is off by 50
        pred = np.array([[1.0, 3.0], [-1.0, 4.0], [60.0, 1.0]])
        gt = np.array([[1.0, 2.0], [1.0, 1.0], [10.0, 1.0]])
        mask = np.array([[True, True], [True, True], [False, False]])
        r = evaluate(pred, gt, mask)
        assert r.epe == 1.5
        assert r.rmse == math.sqrt(14 / 4)
        assert r.valid_pixel_count == 4
        # an error equal to the threshold is not bad: 2 and 3 exceed 1, 3 exceeds 2
        assert r.bad == {1.0: 50.0, 2.0: 25.0, 4.0: 0.0}
        # nearest rank ceil(0.99 * 4) = 4
        assert r.a99 == 3.0

    def test_a99_is_the_nearest_rank(self):
        # 200 errors 1..200: rank ceil(0.99 * 200) = 198, no interpolation
        r = _report(np.arange(200, 0, -1))
        assert r.a99 == 198.0
        assert nearest_rank_percentile(np.array([1.0, 2.0, 3.0]), 50.0) == 2.0
        assert nearest_rank_percentile(np.array([4.0]), 99.0) == 4.0

    def test_rejects_empty_mask_and_extent_mismatch(self):
        with pytest.raises(ShapeError):
            evaluate(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ShapeError):
            evaluate(np.zeros((2, 2)), np.zeros((2, 3)), np.ones((2, 2), dtype=bool))

    def test_rejects_non_finite_predictions_under_the_mask(self):
        """A NaN error is not above any threshold, so it used to score as a
        good pixel in every bad-x rate."""
        pred = np.array([[np.nan, np.inf, 1.0, np.nan]])
        mask = np.array([[True, True, True, False]])
        with pytest.raises(ShapeError, match="2 non-finite predictions"):
            evaluate(pred, np.ones(pred.shape), mask)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_thresholds(self, threshold):
        """A NaN threshold used to reach ``kv_line`` and fail there with a
        ValueError, an infinite one with an OverflowError."""
        with pytest.raises(ConfigError, match="thresholds must be finite"):
            _report([0.5, 3.0], thresholds=(1.0, threshold))

    def test_kv_line(self):
        r = _report([0.0, 1.0, 2.0, 3.0], thresholds=(0.5, 3.0))
        assert r.kv_line() == ("epe=1.500000 rmse=1.870829 bad0_5=75.000000 "
                               "bad3=0.000000 a99=3.000000 n=4")


class TestAggregate:
    """A split's aggregate is evaluate() over its maps' valid pixels, pooled."""

    def test_pixel_weighted_means_and_pooled_a99(self):
        # a 2x2 map with errors 0, 1, 2, 3, and a 1x2 map whose one valid
        # pixel is off by 5 (the masked one is off by 50)
        maps = [(np.array([[10.0, 11.0], [12.0, 13.0]]), np.full((2, 2), 10.0),
                 np.ones((2, 2), dtype=bool)),
                (np.array([[15.0, 60.0]]), np.full((1, 2), 10.0), np.array([[True, False]]))]
        pred = np.concatenate([p[m] for p, _, m in maps])
        gt = np.concatenate([g[m] for _, g, m in maps])
        total = evaluate(pred, gt, np.ones(gt.shape, dtype=bool), (2.0, 4.0))
        assert total.valid_pixel_count == 5
        assert total.epe == pytest.approx((4 * 1.5 + 5.0) / 5, abs=1e-15)
        # RMSE is the root of the pixel-weighted mean square: (0+1+4+9+25)/5
        assert total.rmse == pytest.approx(math.sqrt(39 / 5), abs=1e-15)
        assert total.bad[2.0] == pytest.approx((4 * 25.0 + 100.0) / 5, abs=1e-12)
        assert total.bad[4.0] == pytest.approx(100.0 / 5, abs=1e-12)
        # a99 of the pooled errors 0, 1, 2, 3, 5: rank ceil(0.99 * 5) = 5
        assert total.a99 == 5.0

    def test_a99_is_not_a_weighted_mean_of_the_parts(self):
        # 99 zeros and one 100 in one image, 100 ones in another: the pooled
        # 99th percentile is 1, while the parts' a99 are 0 and 1.
        a, b = [0.0] * 99 + [100.0], [1.0] * 100
        assert (_report(a).a99, _report(b).a99) == (0.0, 1.0)
        assert _report(a + b).a99 == 1.0

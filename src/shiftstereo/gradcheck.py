"""Central finite-difference verification of analytic gradients.

All checks run in high precision (float64). A check case builds a set of
leaf tensors and a loss closure; the closure is re-executed under small
per-element perturbations and the resulting slopes are compared against
the tape-computed gradients. The reported figure per parameter is

    max_i |analytic_i - numeric_i| / max(max_i |analytic_i|, max_i |numeric_i|, 1e-12)

so tensors whose gradients are uniformly tiny do not produce spurious
relative blowups on individual near-zero entries. The scale floor sits
just above central-difference round-off, so structurally-zero gradients
(for example a conv bias absorbed by training-mode normalization)
compare as equal instead of as 0/0 noise.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import ops
from .tensor import HIGH, Tape, Tensor, backward, record_op


# Central differences at step 1e-4 on O(1) losses carry ~1e-11 round-off;
# gradients below this scale are indistinguishable from zero.
_SCALE_FLOOR = 1e-5


@dataclass
class CheckCase:
    """One gradient check: a builder returning (leaf tensors, loss closure)."""

    name: str
    build: Callable[[], tuple[dict[str, Tensor], Callable[[], Tensor]]]
    tolerance: float = 1e-5
    # Limit the finite-difference sweep to this many elements per tensor
    # (None = all); used for deep composites where a full sweep is slow.
    sample_elements: int | None = None


@dataclass
class CheckResult:
    case: str
    param: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


@dataclass
class CheckReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            out.append(f"{status}  {r.case}::{r.param}  "
                       f"max_rel_err={r.max_rel_err:.3e}  tol={r.tolerance:.1e}")
        return out


def run_case(case: CheckCase, step: float = 1e-4, rng: np.random.Generator | None = None
             ) -> list[CheckResult]:
    params, loss_fn = case.build()
    with Tape() as tape:
        loss = loss_fn()
    backward(loss, tape)

    if rng is None:
        rng = np.random.default_rng(0)
    results = []
    for name, p in params.items():
        if not p.requires_grad:
            continue
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        flat = p.data.reshape(-1)
        n = flat.size
        if case.sample_elements is not None and case.sample_elements < n:
            indices = rng.choice(n, size=case.sample_elements, replace=False)
        else:
            indices = np.arange(n)
        numeric = np.zeros(len(indices))
        for k, idx in enumerate(indices):
            saved = flat[idx]
            flat[idx] = saved + step
            plus = loss_fn().item()
            flat[idx] = saved - step
            minus = loss_fn().item()
            flat[idx] = saved
            numeric[k] = (plus - minus) / (2.0 * step)
        ana = analytic.reshape(-1)[indices]
        scale = max(np.max(np.abs(ana), initial=0.0),
                    np.max(np.abs(numeric), initial=0.0), _SCALE_FLOOR)
        rel = float(np.max(np.abs(ana - numeric), initial=0.0) / scale)
        results.append(CheckResult(case.name, name, rel, case.tolerance))
    return results


def run_suite(cases: list[CheckCase], step: float = 1e-4) -> CheckReport:
    report = CheckReport()
    for case in cases:
        report.results.extend(run_case(case, step=step))
    return report


# ---------------------------------------------------------------------------
# standard case library
# ---------------------------------------------------------------------------

def _leaf(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True, dtype=HIGH)


def _projected_sum(out: Tensor, rng) -> Tensor:
    """Scalar loss sum(out * R) with a fixed random projection R."""
    r = Tensor(rng.standard_normal(out.shape), dtype=HIGH)
    return ops.sum_all(ops.mul(out, r))


def _seed(name: str) -> int:
    return zlib.crc32(name.encode())


def _conv_case(name, stride, dilation, padding, in_shape=(1, 2, 6, 6), cout=3, k=3):
    def build():
        rng = np.random.default_rng(_seed(name))
        x = _leaf(rng, in_shape)
        w = _leaf(rng, (cout, in_shape[1], k, k), scale=0.5)
        b = _leaf(rng, (1, cout, 1, 1), scale=0.1)

        def loss():
            out = ops.conv2d(x, w, b, stride=stride, dilation=dilation, padding=padding)
            return _projected_sum(out, np.random.default_rng(7))

        return {"x": x, "w": w, "b": b}, loss

    return CheckCase(name, build)


def _bn_case(name, training, per_sample=False):
    def build():
        rng = np.random.default_rng(11)
        x = _leaf(rng, (2, 3, 4, 5))
        gamma = Tensor(1.0 + 0.1 * rng.standard_normal((1, 3, 1, 1)),
                       requires_grad=True, dtype=HIGH)
        beta = _leaf(rng, (1, 3, 1, 1), scale=0.1)
        rmean = Tensor(rng.standard_normal((1, 3, 1, 1)) * 0.2, dtype=HIGH)
        rvar = Tensor(1.0 + 0.2 * rng.random((1, 3, 1, 1)), dtype=HIGH)

        def loss():
            out = ops.batch_norm(x, gamma, beta, rmean, rvar,
                                 training=training, per_sample=per_sample)
            return _projected_sum(out, np.random.default_rng(8))

        return {"x": x, "gamma": gamma, "beta": beta}, loss

    return CheckCase(name, build)


def _unary_case(name, fn, in_shape=(1, 3, 4, 5), offset=0.0):
    def build():
        rng = np.random.default_rng(_seed(name))
        data = rng.standard_normal(in_shape)
        # keep samples away from kinks (relu at 0, smooth-l1 at |x|=1)
        data = np.where(np.abs(data) < 0.05, 0.3, data)
        data = np.where(np.abs(np.abs(data) - 1.0) < 0.05, 1.3 * np.sign(data), data)
        x = Tensor(data + offset, requires_grad=True, dtype=HIGH)

        def loss():
            return _projected_sum(fn(x), np.random.default_rng(9))

        return {"x": x}, loss

    return CheckCase(name, build)


def _faulty_relu(x: Tensor) -> Tensor:
    """relu with a backward deliberately scaled by 2 (negative control)."""
    out = Tensor(np.maximum(x.data, 0))
    mask = x.data > 0
    return record_op("faulty_relu", out, (x,), lambda g: (2.0 * g * mask,))


def op_cases() -> list[CheckCase]:
    """Per-operation checks at tolerance 1e-5."""
    cases = [
        _conv_case("conv2d_s1_d1_p0", 1, 1, 0),
        _conv_case("conv2d_s1_d1_p1", 1, 1, 1),
        _conv_case("conv2d_s2_d1_p1", 2, 1, 1),
        _conv_case("conv2d_s2_d2_p2", 2, 2, 2, in_shape=(1, 2, 8, 7)),
        _conv_case("conv2d_s3_p1", 3, 1, 1, in_shape=(1, 1, 9, 9), cout=2),
        _conv_case("conv2d_1x1", 1, 1, 0, in_shape=(2, 3, 4, 4), cout=2, k=1),
        _conv_case("conv2d_s1_d4_p4", 1, 4, 4, in_shape=(1, 2, 9, 10)),
        _conv_case("conv2d_s2_p1_odd_batch2", 2, 1, 1, in_shape=(2, 2, 7, 9)),
        _conv_case("conv2d_s3_d2_p0", 3, 2, 0, in_shape=(1, 2, 11, 10)),
        _conv_case("conv2d_cin1_s3_p1_uneven", 3, 1, 1, in_shape=(1, 1, 10, 8), cout=4),
        # cin=4 stacks 8 taps per GEMM: one stacked group plus a lone tap
        _conv_case("conv2d_cin4_split_groups", 1, 1, 1, in_shape=(1, 4, 5, 6), cout=2),
        _conv_case("conv2d_cin33_one_tap_groups", 1, 1, 1, in_shape=(1, 33, 4, 5), cout=2),
        _bn_case("batch_norm_train", True),
        _bn_case("batch_norm_train_per_sample", True, per_sample=True),
        _bn_case("batch_norm_inference", False),
        _unary_case("relu", ops.relu),
        _unary_case("smooth_l1", ops.smooth_l1),
        _unary_case("softmax_axis1", lambda x: ops.softmax(x, axis=1)),
        _unary_case("softmax_axis3", lambda x: ops.softmax(x, axis=3)),
        _unary_case("avg_pool_2x2", lambda x: ops.avg_pool(x, 2, 2, 2, 2), in_shape=(1, 2, 6, 6)),
        _unary_case("avg_pool_clipped", lambda x: ops.avg_pool(x, 9, 9, 9, 9), in_shape=(1, 2, 5, 5)),
        _unary_case("avg_pool_overlap", lambda x: ops.avg_pool(x, 3, 2, 1, 2), in_shape=(1, 1, 5, 6)),
        _unary_case("bilinear_up", lambda x: ops.bilinear_resize(x, 7, 9), in_shape=(1, 2, 3, 4)),
        _unary_case("bilinear_down", lambda x: ops.bilinear_resize(x, 3, 3), in_shape=(1, 2, 6, 6)),
        _unary_case("shift_columns", lambda x: ops.shift_columns(x, 2), in_shape=(1, 2, 3, 5)),
        _unary_case("slice_channels", lambda x: ops.slice_channels(x, 1, 3), in_shape=(2, 4, 3, 3)),
        # both items, shifts either way, a row read twice, edge blocks
        _unary_case("gather_columns",
                    lambda x: ops.gather_columns(x, [1, 0, 1], [2, -1, 0], 6, edge=True),
                    in_shape=(2, 4, 3, 5)),
        _unary_case("soft_argmin_path",
                    lambda x: ops.index_expectation(ops.softmax(ops.scalar_mul(x, -1.0), axis=1)),
                    in_shape=(1, 4, 3, 3)),
        _unary_case("entropy_path",
                    lambda x: ops.channel_entropy(ops.softmax(ops.scalar_mul(x, -1.0), axis=1)),
                    in_shape=(1, 4, 3, 3)),
    ]

    def build_elementwise():
        rng = np.random.default_rng(21)
        a = _leaf(rng, (1, 2, 3, 3))
        b = _leaf(rng, (1, 2, 3, 3))

        def loss():
            out = ops.add(ops.mul(a, b), ops.scalar_mul(ops.sub(a, b), 0.5))
            return _projected_sum(out, np.random.default_rng(10))

        return {"a": a, "b": b}, loss

    cases.append(CheckCase("elementwise", build_elementwise))

    def build_concat():
        rng = np.random.default_rng(22)
        parts = {f"x{i}": _leaf(rng, (1, i + 1, 3, 4)) for i in range(3)}

        def loss():
            out = ops.concat_channels(list(parts.values()))
            return _projected_sum(out, np.random.default_rng(11))

        return parts, loss

    cases.append(CheckCase("concat_channels", build_concat))
    return cases


def composite_cases(tolerance: float = 1e-3) -> list[CheckCase]:
    """Deeper graphs: conv->bn->relu chains and the refine subnetwork."""
    def build_chain():
        rng = np.random.default_rng(31)
        x = _leaf(rng, (1, 2, 6, 6))
        w1 = _leaf(rng, (3, 2, 3, 3), scale=0.5)
        b1 = _leaf(rng, (1, 3, 1, 1), scale=0.1)
        gamma = Tensor(np.ones((1, 3, 1, 1)), requires_grad=True, dtype=HIGH)
        beta = _leaf(rng, (1, 3, 1, 1), scale=0.1)
        rmean = Tensor(np.zeros((1, 3, 1, 1)), dtype=HIGH)
        rvar = Tensor(np.ones((1, 3, 1, 1)), dtype=HIGH)

        def loss():
            h = ops.conv2d(x, w1, b1, stride=1, padding=1)
            h = ops.batch_norm(h, gamma, beta, rmean, rvar, training=True)
            h = ops.relu(h)
            return ops.sum_all(h)

        return {"x": x, "w1": w1, "b1": b1, "gamma": gamma, "beta": beta}, loss

    def build_refine():
        from .model import ModelConfig, ModelWeights, refine
        cfg = ModelConfig.tiny(max_disparity=12, refine_channels=8, refine_blocks=(1, 2))
        weights = ModelWeights.initialize(cfg, seed=5, dtype=HIGH)
        rng = np.random.default_rng(32)
        # The tail conv starts at zero, which would block gradient flow to
        # everything upstream; perturb it so the check is non-vacuous.
        tail = weights.params["refine.out.w"]
        tail.data = rng.standard_normal(tail.shape) * 0.3
        disp = Tensor(rng.random((1, 1, 6, 7)) * 9.0, requires_grad=True, dtype=HIGH)
        left = _leaf(rng, (1, 1, 6, 7))
        ent = Tensor(rng.random((1, 1, 6, 7)), requires_grad=True, dtype=HIGH)
        tracked = {"disp": disp, "left": left, "ent": ent,
                   "refine.head.w": weights.params["refine.head.w"],
                   "refine.block1.conv1.w": weights.params["refine.block1.conv1.w"]}

        def loss():
            out = refine(disp, left, ent, weights, cfg, training=True)
            return _projected_sum(out, np.random.default_rng(12))

        return tracked, loss

    return [
        CheckCase("composite_conv_bn_relu_sum", build_chain, tolerance=tolerance),
        CheckCase("composite_refine", build_refine, tolerance=tolerance,
                  sample_elements=24),
    ]


def fault_case() -> CheckCase:
    """Negative control: a backward scaled by 2 must be reported as a failure."""
    return _unary_case("relu_injected_fault", _faulty_relu)


def standard_suite(composite_tolerance: float = 1e-3,
                   inject_fault: bool = False) -> list[CheckCase]:
    cases = op_cases() + composite_cases(composite_tolerance)
    if inject_fault:
        cases.append(fault_case())
    return cases

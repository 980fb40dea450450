"""Span tracing for the benchmark's traced run.

``instrumented`` replaces public functions of the shiftstereo modules, as
module attributes, with wrappers that record one span per call, and puts
the originals back on exit. Nothing under ``src/`` changes. Spans live in
memory as ``[name, start, end, parent, info]`` lists; ``per_layer`` turns
them into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

_clock = time.perf_counter

# Op kinds reported on their own; every other op kind is pooled as "other".
OP_KINDS = ("conv2d", "batch_norm", "relu", "bilinear_resize", "avg_pool",
            "concat_channels", "stack_batch", "shift_columns", "softmax")
SECTIONS = ("feature", "matching", "refine")

# (module, attribute, span name) pairs wrapped with a plain span. An
# attribute the module does not have is skipped, so the benchmark keeps
# running when the program renames a helper; its metric then reads 0.
PLAIN_SPANS = (
    ("cli", "main", "cli.main"),
    ("datasets", "read_pnm", "datasets.read_pnm"),
    ("datasets", "write_pfm", "datasets.write_pfm"),
    ("training", "load_checkpoint", "training.load_checkpoint"),
    ("training", "load_weights", "training.load_weights"),
    ("training", "save_checkpoint", "training.save_checkpoint"),
    ("training", "forward_tensors", "training.forward_tensors"),
    ("training", "total_loss", "training.total_loss"),
    ("training", "adam_step", "training.adam_step"),
    ("training", "validation_epe", "training.validation_epe"),
    ("model", "project", "model.projection"),
    ("model", "_project", "model.projection"),
    ("model", "_upsample_tensors", "model.projection"),
)
# Stage functions that receive the model weights; each call also names the
# weight tensors so conv2d calls can be attributed to their ConvSpec layer.
STAGE_SPANS = (
    ("model", "extract_features", "model.extract_features"),
    ("model", "build_cost_volume", "model.build_cost_volume"),
    ("model", "refine", "model.refine"),
)
BACKWARD_BINDINGS = (("tensor", "backward"), ("training", "backward"))


class Tracer:
    """Spans of one traced phase, recorded by a strict call stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.layer_names: dict[int, str] = {}
        self._stack: list[int] = []

    def begin(self, name: str, info=None) -> int:
        """Open a span under the innermost open one; -1 outside any op.

        Calls the benchmark makes between ops (output checks, references)
        are not recorded, so only work inside a timed op is attributed.
        """
        if not self._stack:
            return -1
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, self._stack[-1], info])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if idx < 0:
            return
        self.spans[idx][2] = _clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    @contextmanager
    def op(self):
        """Root span around one benchmark op (one pair, or one train() call)."""
        idx = len(self.spans)
        self.spans.append(["op", _clock(), 0.0, -1, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.end(idx)

    def name_weights(self, weights) -> None:
        for key, tensor in weights.params.items():
            if key.endswith(".w"):
                self.layer_names[id(tensor)] = key[:-2]

    def layer_of(self, weight) -> str:
        return self.layer_names.get(id(weight), "unknown.unknown")

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def check(self, tol: float = 1e-6) -> list[str]:
        """Problems with the recorded spans; empty when they are consistent.

        Every span must be closed, lie inside its parent's interval, and
        have a non-negative self time, so that self time plus the
        children's time equals its own duration.
        """
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        for (name, start, end, parent, _), own in zip(self.spans, self.self_times()):
            if end < start:
                problems.append(f"{name}: ends before it starts")
            elif own < -tol:
                problems.append(f"{name}: children cover {-own:.3g} s more than the span")
            if parent >= 0:
                _, p_start, p_end, _, _ = self.spans[parent]
                if start < p_start - tol or end > p_end + tol:
                    problems.append(f"{name}: outside its parent {self.spans[parent][0]}")
            if len(problems) >= 5:
                break
        return problems


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _stage(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        for arg in list(args) + list(kwargs.values()):
            if isinstance(getattr(arg, "params", None), dict):
                tracer.name_weights(arg)
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _conv(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        weight = args[1] if len(args) > 1 else kwargs["weight"]
        idx = tracer.begin("conv." + tracer.layer_of(weight) + ".fwd")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if idx >= 0:
            cout, cin, kh, kw = weight.shape
            b, _, oh, ow = out.shape
            tracer.spans[idx][4] = b * cout * oh * ow * cin * kh * kw
        return out
    return wrapper


def _record_op(tracer: Tracer, fn):
    """Times each op's gradient closure as a backward span."""
    def wrapper(op, output, inputs, grad_fn):
        inputs = tuple(inputs)
        name = ("conv." + tracer.layer_of(inputs[1]) + ".bwd" if op == "conv2d"
                else "ops." + op + ".bwd")

        def timed(g):
            idx = tracer.begin(name)
            try:
                return grad_fn(g)
            finally:
                tracer.end(idx)
        return fn(op, output, inputs, timed)
    return wrapper


def _backward(tracer: Tracer, fn):
    def wrapper(loss, tape, *args, **kwargs):
        idx = tracer.begin("tensor.backward", len(tape.nodes))
        try:
            return fn(loss, tape, *args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


@contextmanager
def instrumented(tracer: Tracer, pkg):
    """Wrap the package's public functions for the duration of the block."""
    saved = []

    def patch(module_name, attr, make):
        module = getattr(pkg, module_name)
        if not hasattr(module, attr):
            return
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    try:
        for module_name, attr, name in PLAIN_SPANS:
            patch(module_name, attr, lambda fn, name=name: _spanned(tracer, name, fn))
        for module_name, attr, name in STAGE_SPANS:
            patch(module_name, attr, lambda fn, name=name: _stage(tracer, name, fn))
        ops = pkg.ops
        for attr, fn in list(vars(ops).items()):
            if attr.startswith("_") or not callable(fn) or isinstance(fn, type) \
                    or getattr(fn, "__module__", None) != ops.__name__:
                continue
            if attr == "conv2d":
                patch("ops", attr, lambda f: _conv(tracer, f))
            else:
                patch("ops", attr, lambda f, n="ops." + attr + ".fwd": _spanned(tracer, n, f))
        patch("ops", "record_op", lambda f: _record_op(tracer, f))
        for module_name, attr in BACKWARD_BINDINGS:
            patch(module_name, attr, lambda f: _backward(tracer, f))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


class _Index:
    """Self times and conv MACs grouped by span name."""

    def __init__(self, tracer: Tracer):
        self.by_name: dict[str, list[float]] = {}
        self.macs: dict[str, int] = {}
        self.tape_nodes: list[int] = []
        projection: dict[int, float] = {}
        for span, own in zip(tracer.spans, tracer.self_times()):
            name, _, _, parent, info = span
            if name == "model.projection":
                # The projection helpers run back to back in one forward
                # pass; their summed self time under one caller is one call.
                projection[parent] = projection.get(parent, 0.0) + own
                continue
            self.by_name.setdefault(name, []).append(own)
            if name.startswith("conv.") and name.endswith(".fwd"):
                self.macs[name] = self.macs.get(name, 0) + info
            elif name == "tensor.backward":
                self.tape_nodes.append(info)
        self.by_name["model.projection"] = list(projection.values())

    def select(self, pred) -> list[float]:
        out = []
        for name, values in self.by_name.items():
            if pred(name):
                out.extend(values)
        return out


def _op_kind_pred(kind: str, phase: str):
    if kind == "conv2d":
        return lambda n: n.startswith("conv.") and n.endswith("." + phase)
    if kind == "other":
        return lambda n: (n.startswith("ops.") and n.endswith("." + phase)
                          and n.split(".")[1] not in OP_KINDS)
    return lambda n: n == f"ops.{kind}.{phase}"


def per_layer(tracer: Tracer, ops_done: int, names) -> dict[str, tuple[float, str]]:
    """Span-derived per-layer metrics as {name: (value, unit)}.

    Times are the median self time per call in ms, and 0 for a layer that
    did not run. ``ops.<kind>.calls`` is forward calls per benchmark op
    (one pair, or one training step). ``names`` lists the requested
    metrics, so that conv layers absent from this workload's profile read 0.
    """
    idx = _Index(tracer)
    m: dict[str, tuple[float, str]] = {}
    for name in {n for _, _, n in PLAIN_SPANS + STAGE_SPANS} | {"tensor.backward"}:
        m[name + ".ms"] = (_median_ms(idx.by_name.get(name, [])), "ms")
    for kind in OP_KINDS + ("other",):
        fwd = idx.select(_op_kind_pred(kind, "fwd"))
        m[f"ops.{kind}.fwd_ms"] = (_median_ms(fwd), "ms")
        m[f"ops.{kind}.bwd_ms"] = (_median_ms(idx.select(_op_kind_pred(kind, "bwd"))), "ms")
        m[f"ops.{kind}.calls"] = (len(fwd) / max(ops_done, 1), "count")
    for name in names:
        if name.startswith("conv.") and name.endswith(".fwd_ms"):
            m[name] = (_median_ms(idx.by_name.get(name[:-3], [])), "ms")
    for section in SECTIONS:
        prefix = f"conv.{section}."
        m[prefix + "bwd_ms"] = (_median_ms(idx.select(
            lambda n: n.startswith(prefix) and n.endswith(".bwd"))), "ms")
        busy = sum(idx.select(lambda n: n.startswith(prefix) and n.endswith(".fwd")))
        macs = sum(v for n, v in idx.macs.items() if n.startswith(prefix))
        m[prefix + "gflops"] = (2 * macs / busy / 1e9 if busy > 0 else 0.0, "GFLOP/s")
    busy = sum(idx.select(lambda n: n.startswith("conv.") and n.endswith(".fwd")))
    m["conv.fwd_gflops_all"] = (2 * sum(idx.macs.values()) / busy / 1e9 if busy > 0
                                else 0.0, "GFLOP/s")
    m["conv.macs_total"] = (float(sum(idx.macs.values())), "count")
    m["tensor.tape_nodes"] = (float(statistics.median(idx.tape_nodes))
                              if idx.tape_nodes else 0.0, "count")
    return m

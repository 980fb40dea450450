"""Dense 4D tensors with tape-based reverse-mode differentiation.

Every tensor is a (batch, channel, height, width) array of float32
("standard" mode) or float64 ("high" mode, used by all numerical
oracles and gradient checks). Operations in :mod:`shiftstereo.ops`
record themselves onto the innermost active :class:`Tape`; calling
:func:`backward` on a scalar loss consumes the tape in exact reverse
execution order and accumulates gradients into the leaves' ``.grad``
buffers. Each node, and the gradient of its output, is released as soon as
backward has used it, so the memory of a step falls as backward runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

STANDARD = np.float32
HIGH = np.float64


class Tensor:
    """A dense (batch, channel, height, width) value with an optional gradient.

    ``data`` is always a contiguous row-major array (width fastest).
    ``grad`` is lazily created by :func:`backward` and has the same shape
    and dtype as ``data``. Leaf tensors (weights, inputs) are created
    directly and keep their gradient; op outputs are produced by
    :mod:`shiftstereo.ops`, and backward drops their gradient once used.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(STANDARD)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are (batch, channel, height, width); got ndim={arr.ndim}")
        self.data = np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{req})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))


class _Node:
    """One executed operation: output, inputs, and the gradient closure.

    ``grad_fn(out_grad)`` returns one gradient array (or None) per input,
    in input order. Returned arrays may alias ``out_grad``; the backward
    driver copies on first accumulation so aliasing stays safe.
    """

    __slots__ = ("op", "output", "inputs", "grad_fn")

    def __init__(self, op, output, inputs, grad_fn):
        self.op = op
        self.output = output
        self.inputs = inputs
        self.grad_fn = grad_fn


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of executed operations for one forward pass.

    Use as a context manager; ops executed inside record themselves here.
    A tape belongs to exactly one training step. :func:`backward` pops its
    nodes as it replays them, so it is replayed once and is empty after.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def record(self, op: str, output: Tensor, inputs, grad_fn) -> None:
        output.requires_grad = True
        self.nodes.append(_Node(op, output, tuple(inputs), grad_fn))


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def record_op(op: str, output: Tensor, inputs, grad_fn) -> Tensor:
    """Attach ``output`` to the active tape if any input is differentiable."""
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        tape.record(op, output, inputs, grad_fn)
    return output


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate into ``.grad`` of every leaf reachable from ``loss``.

    ``loss`` must have extent 1 in every dimension. Gradients accumulate;
    callers zero leaf grads between steps. The first contribution to a
    tensor is copied, so grad buffers never alias each other.

    The tape is consumed: nodes are popped in reverse execution order, and
    once a node's ``grad_fn`` has used its output's gradient that
    gradient is set to ``None`` and the node is dropped, together with the
    arrays its closure saved. Afterwards the tape is empty and only leaf
    tensors (those no op produced) hold a ``.grad``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    while nodes:
        _replay(nodes.pop())


def _replay(node: _Node) -> None:
    # A function of its own, so the node's gradients are released on return
    # and never live beside the next node's.
    out_grad, node.output.grad = node.output.grad, None
    if out_grad is None:
        return
    grads = node.grad_fn(out_grad)
    for tensor, grad in zip(node.inputs, grads):
        if grad is None or not tensor.requires_grad:
            continue
        if grad.shape != tensor.data.shape:
            raise ShapeError(
                f"{node.op} backward produced grad shape {grad.shape} "
                f"for input shape {tensor.data.shape}"
            )
        if tensor.grad is None:
            tensor.grad = np.array(grad)
        else:
            tensor.grad += grad

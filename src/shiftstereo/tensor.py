"""Dense 4D tensors with tape-based reverse-mode differentiation.

Every tensor is a (batch, channel, height, width) array of float32
("standard" mode) or float64 ("high" mode, used by all numerical
oracles and gradient checks). Operations in :mod:`shiftstereo.ops`
record themselves onto the innermost active :class:`Tape`; calling
:func:`backward` on a scalar loss consumes the tape in exact reverse
execution order and accumulates gradients into the leaves' ``.grad``
buffers. Each node, and the gradient of its output, is released as soon as
backward has used it, so the memory of a step falls as backward runs.

An op output on a tape may carry a ``rebuild``: a function that computes
the output array again, bit for bit, from what the op saved for its
backward anyway (:func:`shiftstereo.ops.batch_norm` sets one). Backward
drops the arrays of such outputs before it replays the tape, and reading
``Tensor.data`` rebuilds a dropped array once, when something needs it: a
conv's weight gradient reading its input, or a caller reading an output
after backward. Until then the tape holds no copy of them.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

STANDARD = np.float32
HIGH = np.float64


class Tensor:
    """A dense (batch, channel, height, width) value with an optional gradient.

    ``data`` is always a contiguous row-major array (width fastest).
    ``shape`` and ``dtype`` are kept beside it, so reading them never
    touches the array. ``grad`` is lazily created by :func:`backward` and
    has the same shape and dtype as ``data``. Leaf tensors (weights,
    inputs) are created directly and keep their gradient; op outputs are
    produced by :mod:`shiftstereo.ops`, and backward drops their gradient
    once used. ``rebuild``, None unless the op that recorded the tensor
    sets it, returns an array bit-identical to ``data`` at any later time,
    also after the op's inputs were updated in place; :func:`backward`
    then drops the array.
    """

    __slots__ = ("_data", "rebuild", "shape", "dtype", "grad", "requires_grad")

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
    def data(self) -> np.ndarray:
        """The array. One that :func:`backward` dropped is rebuilt by
        ``rebuild`` on the first read, and then kept. An array assigned
        here has no rebuild, so backward keeps it."""
        if self._data is None:
            self._data, self.rebuild = self.rebuild(), None
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data, self.rebuild = value, None
        self.shape, self.dtype = value.shape, value.dtype

    def __repr__(self):
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{req})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))


class _Node:
    """One executed operation: output, inputs, and the gradient closure.

    ``grad_fn(out_grad)`` returns one gradient array (or None) per input,
    in input order. Ownership: a returned array either is new, made by the
    call and kept by nothing else, or may alias ``out_grad`` or another
    array the same call returns (``add`` hands ``g`` to both inputs; a
    layout op hands out views of ``g``). The backward driver keeps a new
    array as the input's ``.grad`` and copies only one that may alias, so
    grad buffers never alias each other. A ``grad_fn`` must never return
    an array that it or the forward pass keeps.
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
    """Attach ``output`` to the active tape if any input is differentiable;
    a recorded output then requires a gradient."""
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        tape.record(op, output, inputs, grad_fn)
    return output


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate into ``.grad`` of every leaf reachable from ``loss``.

    ``loss`` must have extent 1 in every dimension. Gradients accumulate;
    callers zero leaf grads between steps.

    First, every output on the tape that has a ``rebuild`` drops its
    array; it is rebuilt on its first read. The tape is then consumed:
    nodes are popped in reverse execution order, and once a node's
    ``grad_fn`` has used its output's gradient that gradient is set to
    ``None`` and the node is dropped, together with the arrays its closure
    saved. Afterwards the tape is empty and only leaf tensors (those no op
    produced) hold a ``.grad``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    for node in nodes:
        if node.output.rebuild is not None:
            node.output._data = None
    while nodes:
        _replay(nodes.pop())


def _replay(node: _Node) -> None:
    """Run one node's ``grad_fn`` and accumulate into its inputs' grads.

    An input's first gradient is the returned array itself, unless it may
    share memory with ``out_grad`` or with a gradient already handed to an
    earlier input of this node; only then is it copied (see :class:`_Node`).
    Shapes are checked against the inputs' stored shapes, so the check
    rebuilds no dropped array.
    """
    # A function of its own, so the node's gradients are released on return
    # and never live beside the next node's.
    out_grad, node.output.grad = node.output.grad, None
    if out_grad is None:
        return
    handed = [out_grad]
    for tensor, grad in zip(node.inputs, node.grad_fn(out_grad)):
        if grad is None or not tensor.requires_grad:
            continue
        if grad.shape != tensor.shape:
            raise ShapeError(
                f"{node.op} backward produced grad shape {grad.shape} "
                f"for input shape {tensor.shape}"
            )
        if tensor.grad is not None:
            tensor.grad += grad
            continue
        if any(np.may_share_memory(grad, other) for other in handed):
            grad = np.array(grad)
        tensor.grad = grad
        handed.append(grad)

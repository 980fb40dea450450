"""Dense 4D tensors with tape-based reverse-mode differentiation.

A :class:`Tensor` is a (batch, channel, height, width) float32 ("standard")
or float64 ("high", for the numeric oracles) array. Ops record themselves
on the innermost active :class:`Tape` through :func:`record_op`, and
:func:`backward` replays it in reverse. What the tape keeps, so that each
map dies at its last use (liveness as in Chen et al. 2016, arXiv
1604.06174), is :class:`_Node`'s rule; how a dropped output is rebuilt is
:class:`Tensor`'s.

A taped pass thus keeps to backward the arrays its nodes' closures saved,
less the outputs with a ``rebuild``, which backward drops first and forward
code may drop sooner: of refine's full-resolution maps the tape keeps each
block's input and conv2 sum, while the head and conv1 sums and the conv1
norm outputs are rebuilt (``model.refine``). A :func:`segment`, Chen et
al.'s recompute, records a whole function as one node that keeps only its
inputs and its output; backward re-runs the function under a tape of its
own, one segment at a time, so the function must have no side effect.
The model's matching-net level batches, whose norms keep no running
statistics, are segments; see ``model.build_cost_volume`` and, for why refine's blocks are
not, ``model.refine``.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

STANDARD = np.float32
HIGH = np.float64


class _Slot:
    """What the tape keeps of a tensor: everything but its array."""

    __slots__ = ("grad", "requires_grad", "shape", "dtype")


def _slot_field(name: str) -> property:
    return property(lambda t: getattr(t._slot, name),
                    lambda t, value: setattr(t._slot, name, value))


class Tensor:
    """A dense (batch, channel, height, width) value with an optional gradient.

    ``data`` is always a contiguous row-major array (width fastest).
    ``shape``, ``dtype``, ``grad`` and ``requires_grad`` live in the
    :class:`_Slot` that the tape shares. ``grad`` is lazily created by
    :func:`backward`. Leaf tensors (weights, inputs) are created directly
    and keep their gradient; backward drops an op output's gradient once
    used. ``rebuild``, None unless the op that recorded the tensor sets it,
    returns an array bit-identical to ``data`` at any later time, also
    after the op's inputs were updated in place.
    """

    __slots__ = ("_data", "rebuild", "_slot")

    grad = _slot_field("grad")
    requires_grad = _slot_field("requires_grad")
    shape = property(lambda self: self._slot.shape)
    dtype = property(lambda self: self._slot.dtype)

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(STANDARD)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are (batch, channel, height, width); got ndim={arr.ndim}")
        self._slot = _Slot()
        self.data = np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def data(self) -> np.ndarray:
        """The array. One that was dropped is rebuilt by ``rebuild`` on the
        first read, and then kept. An array assigned here has no rebuild,
        so backward keeps it."""
        if self._data is None:
            self._data, self.rebuild = self.rebuild(), None
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data, self.rebuild = value, None
        self._slot.shape, self._slot.dtype = value.shape, value.dtype

    def drop(self) -> None:
        """Free the array if ``rebuild`` can make it again."""
        if self.rebuild is not None:
            self._data = None

    def __repr__(self):
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{req})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))


class _Node:
    """One executed operation: the slots of its output and inputs, and the
    gradient closure.

    Ownership: the node holds no array, so the only arrays that live to
    backward are those a ``grad_fn`` saved, itself or through a tensor.
    ``grad_fn(out_grad)`` returns one gradient array (or None) per input,
    in input order. A returned array either is new, made by the call and
    kept by nothing else, or may alias ``out_grad`` or another array the
    same call returns (``add`` hands ``g`` to both inputs; a layout op
    hands out views of ``g``). The backward driver keeps a new array as the
    input's ``.grad`` and copies only one that may alias, so grad buffers
    never alias each other. A ``grad_fn`` must never return an array that
    it or the forward pass keeps. A :func:`segment`'s ``grad_fn`` hands its
    inputs their gradients through a tape of its own and returns None.
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
    ``rebuildable`` lists the recorded outputs that have a ``rebuild``.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.rebuildable: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def record(self, op: str, output: Tensor, inputs, grad_fn) -> None:
        output.requires_grad = True
        self.nodes.append(_Node(op, output._slot, tuple(t._slot for t in inputs), grad_fn))


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

    First, every output in the tape's ``rebuildable`` drops its array, and
    the tape lets go of the list. The tape is then consumed: nodes are
    popped in reverse execution order, and once a node's ``grad_fn`` has
    used its output's gradient that gradient is set to ``None`` and the
    node is dropped, together with what its closure saved, so each map
    dies after the last node that reads it. Afterwards the tape is empty
    and only leaf tensors (those no op produced) hold a ``.grad``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    _consume(tape, loss, np.ones_like(loss.data))


def _consume(tape: Tape, output: Tensor, grad: np.ndarray) -> None:
    """Replay ``tape`` from ``grad``, the gradient of its last ``output``,
    as :func:`backward` describes. The rebuildable outputs are popped, not
    iterated, so that no name stays bound to the last one (refine's last
    block output) and keeps the array its reader rebuilds alive through the
    whole replay."""
    output.grad = grad
    while tape.rebuildable:
        tape.rebuildable.pop().drop()
    nodes = tape.nodes
    while nodes:
        _replay(nodes.pop())


def segment(op: str, fn, inputs) -> Tensor:
    """``fn(*inputs)`` as one tape node that keeps only the output array,
    and the inputs fn was given: segment checkpointing (Chen et al. 2016).

    Off a tape, or when no input requires a gradient, this is the plain
    call. On a tape, fn runs under a tape of its own, which dies with
    everything its closures saved once fn returns. The node's ``grad_fn``
    runs fn again on the same inputs under a fresh tape and consumes that
    tape from the output's gradient. So the inputs and the leaves fn reads
    receive their gradients from the same closures, in the same order, as
    from the plain call's nodes, and the node hands its inputs nothing
    more. fn must have no side effect, such as moving running statistics.
    """
    if active_tape() is None or not any(t.requires_grad for t in inputs):
        return fn(*inputs)
    with Tape():
        out = Tensor(fn(*inputs).data)

    def grad_fn(g):
        with Tape() as tape:
            again = fn(*inputs)
        _consume(tape, again, g)
        return (None,) * len(inputs)

    return record_op(op, out, inputs, grad_fn)


def _replay(node: _Node) -> None:
    """Run one node's ``grad_fn`` and accumulate into its inputs' grads.

    An input's first gradient is the returned array itself, unless it may
    share memory with ``out_grad`` or with a gradient already handed to an
    earlier input of this node; only then is it copied (see :class:`_Node`).
    Shapes are checked against the input slots' shapes, so the check
    reads no array.
    """
    # A function of its own, so the node's gradients are released on return
    # and never live beside the next node's.
    out_grad, node.output.grad = node.output.grad, None
    if out_grad is None:
        return
    handed = [out_grad]
    for slot, grad in zip(node.inputs, node.grad_fn(out_grad)):
        if grad is None or not slot.requires_grad:
            continue
        if grad.shape != slot.shape:
            raise ShapeError(
                f"{node.op} backward produced grad shape {grad.shape} "
                f"for input shape {slot.shape}"
            )
        if slot.grad is not None:
            slot.grad += grad
            continue
        if any(np.may_share_memory(grad, other) for other in handed):
            grad = np.array(grad)
        slot.grad = grad
        handed.append(grad)

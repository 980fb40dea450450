"""Forward kernels and their exact reverse-mode gradients.

Each rule is said once, by the function that owns it: :func:`conv2d`, how
a convolution is lowered by its shape and what its backward rebuilds;
:func:`_row_strips` and the constants above it, how large a strip of
copies gets; :func:`_batch_slices`, which batch items share one buffer of
forward copies; :func:`_epilogue`, the bias, residual and ReLU that end a
conv or a :func:`batch_norm` inside the op that makes the output;
:func:`_join`, the concatenation behind :func:`concat_channels` and
:func:`stack_batch`.
All reductions use a fixed order, so repeated runs are bit-identical, and a
batch item's result does not depend on the rest of the batch.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, active_tape, record_op


def _same_dtype(*tensors: Tensor):
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise ShapeError(f"mixed dtypes {dt} vs {t.dtype}")
    return dt


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ (no implicit broadcasting)")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    _same_dtype(a, b)
    out = Tensor(a.data + b.data)
    return record_op("add", out, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    _same_dtype(a, b)
    out = Tensor(a.data - b.data)
    return record_op("sub", out, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    _same_dtype(a, b)
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    return record_op("mul", out, (a, b), lambda g: (g * bd, g * ad))


def scalar_mul(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s)
    return record_op("scalar_mul", out, (a,), lambda g: (g * s,))


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))
    xd = x.data
    # The mask is built in backward only, so an untaped ReLU allocates
    # nothing but its output. The subgradient at 0 is 0.
    return record_op("relu", out, (x,), lambda g: (g * (xd > 0),))


def smooth_l1(x: Tensor) -> Tensor:
    """Elementwise 0.5*x^2 for |x| < 1, |x| - 0.5 otherwise."""
    ax = np.abs(x.data)
    inner = ax < 1
    out = Tensor(np.where(inner, 0.5 * x.data * x.data, ax - 0.5))
    grad_branch = np.where(inner, x.data, np.sign(x.data))
    return record_op("smooth_l1", out, (x,), lambda g: (g * grad_branch,))


def sum_all(x: Tensor) -> Tensor:
    """Sum every element into a (1, 1, 1, 1) scalar tensor."""
    out = Tensor(np.array(x.data.sum(), dtype=x.dtype).reshape(1, 1, 1, 1))
    shape = x.data.shape
    return record_op(
        "sum_all", out, (x,),
        lambda g: (np.full(shape, g.reshape(()), dtype=g.dtype),),
    )


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv_out_extent(extent: int, k: int, stride: int, dilation: int, padding: int) -> int:
    return (extent + 2 * padding - dilation * (k - 1) - 1) // stride + 1


# conv2d runs one GEMM per kernel row, with an inner dimension of KW*Cin.
# Below this size it copies every KH*KW tap and runs one GEMM per kernel,
# so that layers with one to five input channels stay BLAS-efficient.
_MIN_GEMM_K = 32

# conv2d copies its input one strip of output rows at a time. A strip's
# copies hold at most _STRIP_INPUT_RATIO times the elements of one batch
# item's input, or _MIN_STRIP_ELEMENTS (1 MiB of float32) where that is
# more: maps that small set no memory peak, and splitting them costs more
# in per-strip calls than it saves. They never hold more than
# _MAX_STRIP_ELEMENTS (4 MiB of float32, two cores' 2 MiB L2 caches), so
# that the GEMMs of a full-resolution layer read their operand from cache;
# an input of at most 2^19 elements (32 channels at 128x128) keeps the
# partition the ratio gives it. Forward and dX copy a batch in slices of
# as many items as fit _MIN_STRIP_ELEMENTS together, at least one
# (:func:`_batch_slices`): matching.dec4 at 96x96, 8 levels per batch,
# copies 3, 3 and 2 levels of 78k elements each instead of all 8, 627k.
# dW copies the whole batch; no measured peak lies in its copies.
_STRIP_INPUT_RATIO = 2
_MIN_STRIP_ELEMENTS = 1 << 18
_MAX_STRIP_ELEMENTS = 1 << 20


def _row_strips(oh: int, row_elements: int, halo: int,
                input_elements: int) -> list[tuple[int, int]]:
    """Equal strips ``(r0, rows)`` of ``oh`` output rows, where the copies
    of one output row take ``row_elements`` and a strip adds ``halo`` rows.

    Everything here describes one batch item and the kernel, never Cout or
    the batch size: a GEMM over other columns may round differently, and
    batch items and blocks of stacked weights must stay bit-identical to
    convolving them alone.
    """
    budget = min(max(_STRIP_INPUT_RATIO * input_elements, _MIN_STRIP_ELEMENTS),
                 _MAX_STRIP_ELEMENTS)
    return _equal_strips(oh, max(1, int(budget // row_elements) - halo))


def _equal_strips(n: int, most: int) -> list[tuple[int, int]]:
    """``n`` rows as the fewest strips ``(r0, rows)`` of at most ``most``
    rows, all of one height but the last, which may be shorter."""
    rows = -(-n // -(-n // most))
    return [(r0, min(rows, n - r0)) for r0 in range(0, n, rows)]


def _in_range(n: int, start: int, step: int, extent: int) -> tuple[int, int, slice]:
    """The run ``i0 <= i < i1`` of ``0 <= i < n`` where ``start + i * step``
    indexes an extent-long axis, and the slice of that axis it reads."""
    i0 = min(n, max(0, -(start // step)))
    i1 = max(i0, min(n, -((start - extent) // step)))
    if i1 == i0:
        return i0, i1, slice(0, 0)
    return i0, i1, slice(start + i0 * step, start + i1 * step - step + 1, step)


class _StripPlan(NamedTuple):
    """How :func:`_kernel_row_windows` copies one batch item's input. Copy
    t holds the padded input at tap offset ``copies[t]``; GEMM g reads the
    copies at the further row offset ``gemm_rows[g]``. ``elements`` is what
    one item's copies of one strip take."""

    copies: list[tuple[int, int]]
    gemm_rows: list[int]
    phases: list[int]
    halo: int
    strips: list[tuple[int, int]]
    elements: int


def _strip_plan(cin: int, h: int, w: int, kh: int, kw: int, stride: int, dilation: int,
                padding: int, rows: tuple[int, int] | None = None) -> _StripPlan:
    """The plan for a (Cin, H, W) item and a KH x KW kernel, whose strips
    cover the output rows ``rows[0] <= r < rows[1]``, by default all."""
    first, end = rows or (0, conv_out_extent(h, kh, stride, dilation, padding))
    ow = conv_out_extent(w, kw, stride, dilation, padding)
    every_tap = kw * cin < _MIN_GEMM_K
    copies = [(ki * dilation, kj * dilation)
              for ki in range(kh if every_tap else 1) for kj in range(kw)]
    gemm_rows = [0] if every_tap else [ki * dilation for ki in range(kh)]
    phases = sorted({r % stride for r in gemm_rows})
    halo = max(gemm_rows) // stride
    row_elements = len(phases) * len(copies) * cin * ow
    strips = [(first + r0, n) for r0, n in _row_strips(end - first, row_elements, halo,
                                                        cin * h * w)]
    return _StripPlan(copies, gemm_rows, phases, halo, strips,
                      (strips[0][1] + halo) * row_elements)


def _batch_slices(b: int, plan: _StripPlan) -> list[slice]:
    """The slices of a b-item batch whose forward (and so dX) strip copies
    share one buffer: as many items as fit ``_MIN_STRIP_ELEMENTS``
    together, at least one, so the first slice is the widest."""
    per = max(1, _MIN_STRIP_ELEMENTS // plan.elements)
    if b <= per:
        return [slice(None)]
    return [slice(i, min(i + per, b)) for i in range(0, b, per)]


def _kernel_row_windows(x: np.ndarray, kh: int, kw: int, stride: int, dilation: int,
                        padding: int, plan: _StripPlan):
    """Yield ``(r0, n_rows, windows)`` for each strip of output rows, where
    ``windows[g]`` is the (B, K, n_rows*ow) operand of GEMM g, read in place
    from the strip's input copies. The copies of all strips share one
    buffer, so a strip's windows are valid until the next one is yielded.
    ``plan`` is :func:`_strip_plan` of x's items.
    """
    b, cin, h, w = x.shape
    ow = conv_out_extent(w, kw, stride, dilation, padding)
    copies, gemm_rows, phases, halo, strips, _ = plan
    k = len(copies) * cin
    rows = strips[0][1]
    cols = [_in_range(ow, dv - padding, stride, w) for _, dv in copies]

    buf = np.empty((len(phases), b, k, (rows + halo) * ow), dtype=x.dtype)
    view = buf.reshape(len(phases), b, len(copies), cin, rows + halo, ow)
    # Columns outside the input are zeroed once: no strip writes them.
    for t, (j0, j1, _) in enumerate(cols):
        view[:, :, t, :, :, :j0] = 0
        view[:, :, t, :, :, j1:] = 0
    for r0, n_rows in strips:
        end = n_rows + halo
        for ai, a in enumerate(phases):
            for t, (du, _) in enumerate(copies):
                i0, i1, x_rows = _in_range(end, r0 * stride + a + du - padding, stride, h)
                j0, j1, x_cols = cols[t]
                copy = view[ai, :, t]
                if i0:
                    copy[:, :, :i0] = 0
                if i1 < end:
                    copy[:, :, i1:end] = 0
                copy[:, :, i0:i1, j0:j1] = x[:, :, x_rows, x_cols]
        n = n_rows * ow
        yield r0, n_rows, [buf[phases.index(r % stride), :, :,
                               (r // stride) * ow:(r // stride) * ow + n]
                           for r in gemm_rows]


def _epilogue(dst: np.ndarray, bias: np.ndarray | None, residual: np.ndarray | None,
              relu: bool, overwrite: bool) -> np.ndarray:
    """Add the bias, then the residual, then clamp at 0, on the (B, C, N)
    output block ``dst`` of a conv or a norm; ``residual`` is the same
    block. The result is ``dst``, or with ``overwrite`` the residual's
    block, written in place."""
    if bias is not None:
        dst += bias.reshape(1, -1, 1)
    if residual is not None:
        if overwrite:
            # residual + dst == dst + residual, bit for bit
            residual += dst
            dst = residual
        else:
            dst += residual
    if relu:
        np.maximum(dst, 0, out=dst)
    return dst


def _kn2row(x: np.ndarray, weight: np.ndarray, rows: tuple[int, int], ow: int, dilation: int,
            padding: int, bias: np.ndarray | None, residual: np.ndarray | None,
            relu: bool, overwrite: bool) -> np.ndarray:
    """The stride-1 forward kernel for narrow outputs, on the output rows
    ``rows[0] <= r < rows[1]``: one GEMM of every tap's weights with the
    unshifted input rows they read, then the taps' Cout-channel maps
    shifted into a zeroed output and added in kernel order, and the
    epilogue last, on the whole output."""
    b, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    first, end = rows
    oh = end - first
    lo = min(h, max(0, first - padding))
    hi = max(lo, min(h, end - padding + dilation * (kh - 1)))
    w_taps = weight.transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin)
    maps = np.matmul(w_taps, x[:, :, lo:hi].reshape(b, cin, (hi - lo) * w)).reshape(
        b, kh, kw, cout, hi - lo, w)
    out = np.zeros((b, cout, oh, ow), dtype=x.dtype)
    for ki in range(kh):
        i0, i1, rows = _in_range(oh, first + ki * dilation - padding - lo, 1, hi - lo)
        for kj in range(kw):
            j0, j1, cols = _in_range(ow, kj * dilation - padding, 1, w)
            out[:, :, i0:i1, j0:j1] += maps[:, ki, kj, :, rows, cols]
    return _epilogue(out.reshape(b, cout, oh * ow), bias, residual, relu, overwrite)


def _correlate(x: np.ndarray, weight: np.ndarray, stride: int, dilation: int,
               padding: int, bias: np.ndarray | None = None,
               residual: np.ndarray | None = None, relu: bool = False,
               overwrite: bool = False, rows: tuple[int, int] | None = None) -> np.ndarray:
    """The forward kernel of :func:`conv2d` on arrays, on the output rows
    ``rows[0] <= r < rows[1]`` (by default all) of the whole input at its
    padding; with ``overwrite`` the output is written over ``residual``'s
    array."""
    b, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    first, end = rows or (0, conv_out_extent(h, kh, stride, dilation, padding))
    oh = end - first
    ow = conv_out_extent(w, kw, stride, dilation, padding)
    if residual is not None:
        residual = residual.reshape(b, cout, oh * ow)
    if stride == 1 and kh * cout < cin:
        return _kn2row(x, weight, (first, end), ow, dilation, padding, bias, residual, relu,
                       overwrite).reshape(b, cout, oh, ow)
    w_taps = weight.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin)
    plan = _strip_plan(cin, h, w, kh, kw, stride, dilation, padding, (first, end))
    out = residual if overwrite else None
    scratch = None
    for item in _batch_slices(b, plan):
        for r0, n_rows, windows in _kernel_row_windows(x[item], kh, kw, stride, dilation,
                                                       padding, plan):
            m, n = windows[0].shape[0], n_rows * ow
            if scratch is None:
                # Allocated after the first strip's copies, which are freed
                # first, so the freed copies lie below the live output and
                # the next conv reuses them; with the output allocated
                # first, an infer-full pass took about twice the page
                # faults. The first slice is the widest and its first strip
                # the largest, so the scratch fits every strip: ``part``
                # takes the products after the first, ``acc`` the sum that
                # is added into the residual.
                if out is None:
                    out = np.empty((b, cout, oh * ow), dtype=x.dtype)
                shape = (m, cout, n)
                scratch = (np.empty(shape, dtype=x.dtype) if len(windows) > 1 else None,
                           np.empty(shape, dtype=x.dtype) if overwrite else None)
            part, acc = scratch
            span = slice((r0 - first) * ow, (r0 - first) * ow + n)
            dst = acc[:m, :, :n] if overwrite else out[item, :, span]
            k = windows[0].shape[1]
            np.matmul(w_taps[:, :k], windows[0], out=dst)
            for i, window in enumerate(windows[1:], 1):
                dst += np.matmul(w_taps[:, i * k:(i + 1) * k], window, out=part[:m, :, :n])
            _epilogue(dst, bias, None if residual is None else residual[item, :, span], relu,
                      overwrite)
    return out.reshape(b, cout, oh, ow)


def _input_grad(g: np.ndarray, weight: np.ndarray, h: int, w: int,
                stride: int, dilation: int, padding: int) -> np.ndarray:
    """dX of a conv2d: the output gradient, spread onto the input grid,
    correlated with the flipped, channel-transposed kernel."""
    b, cout, oh, ow = g.shape
    kh, kw = weight.shape[2:]
    flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    # g[i, j] lands on (i*stride + lead_h, j*stride + lead_w) of a grid
    # whose valid correlation with the dilated kernel is h x w.
    lead_h, lead_w = dilation * (kh - 1) - padding, dilation * (kw - 1) - padding
    if stride == 1 and lead_h == lead_w >= 0:
        return _correlate(g, flipped, 1, dilation, lead_h)
    grid = np.zeros((b, cout, h + dilation * (kh - 1), w + dilation * (kw - 1)), dtype=g.dtype)
    i0, i1, rows = _in_range(oh, lead_h, stride, grid.shape[2])
    j0, j1, cols = _in_range(ow, lead_w, stride, grid.shape[3])
    grid[:, :, rows, cols] = g[:, :, i0:i1, j0:j1]
    return _correlate(grid, flipped, 1, dilation, 0)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, dilation: int = 1, padding: int = 0,
           residual: Tensor | None = None, relu: bool = False,
           rows: tuple[int, int] | None = None) -> Tensor:
    """Cross-correlation of x (B,Cin,H,W) with weight (Cout,Cin,KH,KW),
    plus the bias, plus ``residual`` (B,Cout,OH,OW) where given, clamped at
    0 with ``relu``: one op and one output map for the whole layer.

    ``rows=(r0, r1)``, off a tape only, computes the output rows ``r0 <= r
    < r1`` from the whole input at the same padding; the output and a
    residual are then (B,Cout,r1-r0,OW). Its GEMMs span fewer columns, and
    BLAS may round a GEMM's last columns by another kernel (OpenBLAS's
    sgemm on an AVX-512 Xeon, in a GEMM of at most 100^3 multiply-adds: the
    last 1 to 8 of a 16-column panel), so an output width that is a
    multiple of 16 gives the whole output's rows bit for bit. Refine's
    depth-first blocks use it (``model.refine``).

    With no active tape, a residual that does not require a gradient is
    consumed: the output is written over its array, which the returned
    tensor shares, so the caller must not read the residual afterwards.
    Each strip's products and the bias are summed in a strip scratch and
    then added into the residual's rows (kn2row: its whole output into the
    residual); the sum commutes, so the result is bit-identical. On a tape,
    with a residual that requires a gradient (such as the leaves that
    finite differences re-evaluate) or one that shares memory with x, the
    residual is read only.

    The lowering follows the layer's shape. At stride 1 with ``KH*Cout <
    Cin`` (a narrow output, such as a Cout-1 layer or a 1x1 conv that
    shrinks its channels), kn2row runs: one (KH*KW*Cout, Cin) GEMM per batch
    item over the unshifted input gives every tap's Cout-channel map, and
    the output, zeroed, adds the maps in kernel order, each shifted by its
    tap's offset and cut where it reads padding. The epilogue (bias,
    residual, ReLU) runs last, once on the whole output.

    Every other layer is computed one strip of output rows at a time. For
    the strip that starts at output row ``r0``, the input is copied once
    per kernel column into ``buf[a, b, kj, c, i, j] = xpad[b, c, (r0 +
    i)*stride + a, j*stride + kj*dilation]``, where ``xpad`` is x
    zero-padded and ``a`` a row phase. Each copy is exactly ``ow`` wide.
    Kernel row ki reads, in place, the (KW*Cin, rows*ow) window of phase
    ``(ki*dilation) % stride`` that starts at row ``(ki*dilation) //
    stride``. The strip's output is the sum over kernel rows, in order, of
    ``weight[:, :, ki, :] @ window``: the first product is written into the
    output, the others pass through a strip-sized scratch, and the epilogue
    runs last, on the strip while it is in cache: the bias is added, then
    the residual's rows of the strip, then the strip is clamped at 0. Where
    KW*Cin is below ``_MIN_GEMM_K`` the copies take every tap, and one GEMM
    covers the kernel. The batch is copied and convolved in slices of as
    many items as fit ``_MIN_STRIP_ELEMENTS`` together, at least one
    (:func:`_batch_slices`); each slice shares one buffer of copies. Either
    lowering runs one GEMM per batch item, so an item comes out
    bit-identical to convolving it alone. Which lowering runs depends on
    Cout, so a block of output channels that takes the other lowering than
    the whole may round differently.

    Backward rebuilds the copies strip by strip from x, by the same rule
    but for the whole batch in one buffer, and runs one stacked dW GEMM,
    one product per item, per strip and kernel row; the tape keeps no copy,
    and dX runs once the dW copies are freed. The items' products of one
    strip and kernel row are summed in one ``sum(axis=0)``, strip after
    strip and row after row. dX is itself a convolution by the same kernel
    code, and so sliced as the forward is: the output gradient, placed at
    stride on a zero grid ``dilation*(k-1)`` larger than x on each axis,
    correlated with the flipped kernel with its channel axes swapped. At
    stride 1, with a square kernel and ``padding <= dilation*(k-1)``, that
    grid is the gradient zero-padded by ``dilation*(k-1) - padding`` on
    every side, so the gradient is convolved directly with that padding.
    That convolution picks its lowering by its own shape, so a layer with
    ``KH*Cin < Cout``, such as an image-reading head, gets its dX by kn2row.
    dX is not computed when x does not require a gradient. With ``relu``,
    backward first masks the output gradient by ``out > 0``; the residual
    receives that masked gradient, and dW, dX and the bias gradient are
    computed from it. The tape's inputs are ``(x, weight[, bias][,
    residual])``, the weight always second.
    """
    if stride < 1 or dilation < 1 or padding < 0:
        raise ShapeError(f"conv2d: bad stride/dilation/padding ({stride}, {dilation}, {padding})")
    b, cin, h, w = x.shape
    cout, wcin, kh, kw = weight.shape
    if cin != wcin:
        raise ShapeError(f"conv2d: input has {cin} channels, weight expects {wcin}")
    if bias is not None and bias.shape != (1, cout, 1, 1):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != (1, {cout}, 1, 1)")
    oh = conv_out_extent(h, kh, stride, dilation, padding)
    ow = conv_out_extent(w, kw, stride, dilation, padding)
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d: non-positive output extent ({oh}, {ow}) "
                         f"for input {h}x{w}, kernel {kh}x{kw}")
    if rows is not None:
        if not 0 <= rows[0] < rows[1] <= oh or active_tape() is not None:
            raise ShapeError(f"conv2d: output rows {rows} of {oh}, or rows on a tape")
        oh = rows[1] - rows[0]
    if residual is not None and residual.shape != (b, cout, oh, ow):
        raise ShapeError(f"conv2d: residual shape {residual.shape} != {(b, cout, oh, ow)}")
    inputs = (x, weight) + tuple(t for t in (bias, residual) if t is not None)
    _same_dtype(*inputs)
    overwrite = (residual is not None and active_tape() is None and not residual.requires_grad
                 and not np.may_share_memory(residual.data, x.data))
    out = Tensor(_correlate(x.data, weight.data, stride, dilation, padding,
                            None if bias is None else bias.data,
                            None if residual is None else residual.data, relu, overwrite,
                            rows))
    # Only a ReLU's mask reads the output in backward.
    mask_source = out.data if relu else None

    def grad_fn(g):
        if relu:
            g = g * (mask_source > 0)
        gflat = g.reshape(b, cout, oh * ow)
        dw = np.zeros((cout, kh * kw * cin), dtype=g.dtype)
        plan = _strip_plan(cin, h, w, kh, kw, stride, dilation, padding)
        for r0, n_rows, windows in _kernel_row_windows(x.data, kh, kw, stride, dilation,
                                                       padding, plan):
            g_strip = gflat[:, :, r0 * ow:(r0 + n_rows) * ow]
            k = windows[0].shape[1]
            for i, window in enumerate(windows):
                product = np.matmul(g_strip, window.transpose(0, 2, 1))
                dw[:, i * k:(i + 1) * k] += product.sum(axis=0)
        del windows, window, product  # the copies' views and a product, freed before dX
        dw = np.ascontiguousarray(dw.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))
        dx = (_input_grad(g, weight.data, h, w, stride, dilation, padding)
              if x.requires_grad else None)
        grads = (dx, dw)
        if bias is not None:
            grads += (g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1),)
        return grads if residual is None else grads + (g,)

    return record_op("conv2d", out, inputs, grad_fn)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

# The variance offset of batch_norm; the inference-time fold of a norm into
# its conv (model.ModelWeights.folded) uses the same value.
BN_EPSILON = 1e-5


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: Tensor | None = None, running_var: Tensor | None = None, *,
               relu: bool = False, residual: Tensor | None = None) -> Tensor:
    """Channelwise normalization with learned scale/shift, then optionally
    a residual of x's shape added and a ReLU.

    Each batch item is normalized by its own statistics, over its spatial
    extent only, so no item depends on the rest of the batch (batched
    disparity levels stay decoupled). Given running buffers, as refine's
    norms are, it moves them a tenth of the way toward the mean over items
    of those statistics (unbiased variance), for the inference fold
    (``model.ModelWeights.folded``) to read; without, it moves nothing.
    The variance offset is ``BN_EPSILON``.

    ``y = xhat * gamma``, then the conv's :func:`_epilogue` in place, with
    beta as its bias, the residual where given, and the ReLU with
    ``relu=True``, is one tape node that keeps no activation-sized array of
    its own. It saves the tensor x, no array of it: backward and the
    rebuild read ``x.data``, so an x that forward code dropped is rebuilt
    once, on the first such read (refine's head and conv1 sums). It also
    saves the per-item ``mu`` / ``inv``, copies of gamma and beta taken
    now, and the residual's array. On a tape, once recorded, its output
    gets a ``rebuild`` that repeats the forward's op sequence on them and
    joins the tape's ``rebuildable``, so
    :func:`shiftstereo.tensor.backward` (or forward code, by
    ``Tensor.drop``) drops the output and a read rebuilds it bit-identical
    to the forward's, also after an optimizer step changed gamma and beta.
    Backward recomputes ``xhat`` and, with ``relu``, takes the mask ``y >
    0`` from the output: where a conv reads y, its weight gradient has
    rebuilt y already.

    The result is bit-identical to ``relu(add(residual, batch_norm(x)))``,
    and the residual receives the masked output gradient ``g``. With ``k =
    gamma * inv``, and ``S1 = sum(g)``, ``S2 = sum(g * xhat)`` per item and
    channel over its ``n`` pixels, ``dx = k * (g - S1/n - xhat * S2/n)``.
    """
    b, c, h, w = x.shape
    stats = () if running_mean is None else (running_mean, running_var)
    for name, t in zip(("gamma", "beta", "running_mean", "running_var"), (gamma, beta) + stats):
        if t.shape != (1, c, 1, 1):
            raise ShapeError(f"batch_norm: {name} shape {t.shape} != (1, {c}, 1, 1)")
    if residual is not None:
        _check_same_shape(x, residual, "batch_norm")
    inputs = (x, gamma, beta) if residual is None else (x, gamma, beta, residual)
    dt = _same_dtype(*inputs)
    eps = dt.type(BN_EPSILON)
    xd = x.data
    n = h * w
    if n == 0 or b == 0:
        raise ShapeError("batch_norm: empty batch")

    mu = xd.mean(axis=(2, 3), keepdims=True)
    y = xd - mu
    var = np.einsum("bchw,bchw->bc", y, y).reshape(b, c, 1, 1) / n
    inv = 1.0 / np.sqrt(var + eps)
    for buffer, stat in zip(stats, (mu, var * (n / (n - 1) if n > 1 else 1.0))):
        buffer.data *= 0.9
        buffer.data += 0.1 * stat.mean(axis=0, keepdims=True).astype(dt)
    gd, bd = gamma.data.copy(), beta.data.copy()
    rd = None if residual is None else residual.data.reshape(b, c, n)

    def normalized():
        xhat = x.data - mu
        xhat *= inv
        return xhat

    def affine(xhat):
        """The scale, then the conv's epilogue, in place on xhat."""
        xhat *= gd
        _epilogue(xhat.reshape(b, c, n), bd, rd, relu, False)
        return xhat

    y *= inv
    out = Tensor(affine(y))

    def grad_fn(g):
        if relu:
            g = g * (out.data > 0)
        xhat = normalized()
        s1 = g.sum(axis=(2, 3), keepdims=True)
        s2 = np.einsum("bchw,bchw->bc", g, xhat).reshape(b, c, 1, 1)
        dx = xhat
        dx *= s2 / -n
        dx += g
        dx -= s1 / n
        dx *= gd * inv
        grads = (dx, s2.sum(axis=0, keepdims=True), s1.sum(axis=0, keepdims=True))
        return grads if residual is None else grads + (g,)

    record_op("batch_norm", out, inputs, grad_fn)
    if out.requires_grad:  # on a tape
        out.rebuild = lambda: affine(normalized())
        active_tape().rebuildable.append(out)
    return out


# ---------------------------------------------------------------------------
# pooling and resizing
# ---------------------------------------------------------------------------

def avg_pool(x: Tensor, window: int) -> Tensor:
    """Mean pooling over non-overlapping square windows, stride ``window``.

    A window larger than the input is clipped to it on that axis, so a
    window at least as large as the map gives its global mean. Each
    window's elements are flattened row-major and summed with
    ``np.add.accumulate``, which adds them one after another, so the
    result is bit-identical to a serial per-window loop. Backward writes
    each window's share through one strided view of the gradient.
    """
    if window < 1:
        raise ShapeError(f"avg_pool: window must be positive, got {window}")
    b, c, h, w = x.shape
    wh, ww = min(window, h), min(window, w)
    oh, ow = conv_out_extent(h, wh, window, 1, 0), conv_out_extent(w, ww, window, 1, 0)
    windows = np.lib.stride_tricks.sliding_window_view(
        x.data, (wh, ww), axis=(2, 3))[:, :, ::window, ::window]
    acc = np.add.accumulate(windows.reshape(b, c, oh, ow, wh * ww), axis=-1)[..., -1]
    out = Tensor(acc / (wh * ww))
    inv_area = 1.0 / (wh * ww)
    xshape = x.data.shape

    def grad_fn(g):
        dx = np.zeros(xshape, dtype=g.dtype)
        view = np.lib.stride_tricks.sliding_window_view(dx, (wh, ww), axis=(2, 3),
                                                        writeable=True)
        view[:, :, ::window, ::window] += (g * inv_area)[..., None, None]
        return (dx,)

    return record_op("avg_pool", out, (x,), grad_fn)


@functools.lru_cache(maxsize=64)
def _resize_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Row-stochastic bilinear sampling matrix, half-pixel-center convention.

    Row i puts weight 1 - t on source index floor(src) and t on the next
    one, both clamped to the input, where src = (i + 0.5) * n_in / n_out - 0.5
    and t = src - floor(src). Where the two indices clamp to one entry, the
    weights add in ``dtype`` arithmetic. Matrices are cached per
    ``(n_in, n_out, dtype)`` and returned read-only.
    """
    rows = np.arange(n_out)
    src = (rows + 0.5) * (n_in / n_out) - 0.5
    lo = np.floor(src)
    t = src - lo
    lo = lo.astype(np.intp)
    m = np.zeros((n_out, n_in), dtype=dtype)
    m[rows, np.clip(lo, 0, n_in - 1)] = (1.0 - t).astype(dtype)
    m[rows, np.clip(lo + 1, 0, n_in - 1)] += t.astype(dtype)
    m.flags.writeable = False
    return m


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resampling (align_corners=false) to (out_h, out_w): two
    :func:`_resize_matrix` matmuls, so backward is the exact transpose."""
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_resize: bad target extents ({out_h}, {out_w})")
    b, c, h, w = x.shape
    sy = _resize_matrix(h, out_h, x.dtype)
    sx = _resize_matrix(w, out_w, x.dtype)
    out = Tensor(np.matmul(np.matmul(sy, x.data), sx.T))

    def grad_fn(g):
        return (np.matmul(np.matmul(sy.T, g), sx),)

    return record_op("bilinear_resize", out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# softmax and channel reductions
# ---------------------------------------------------------------------------

def softmax(x: Tensor, axis: int) -> Tensor:
    """Softmax along one axis, computed with max-subtraction for stability."""
    if not 0 <= axis <= 3:
        raise ShapeError(f"softmax: axis {axis} out of range for 4D tensors")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(p)

    def grad_fn(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        return (p * (g - dot),)

    return record_op("softmax", out, (x,), grad_fn)


def index_expectation(probs: Tensor) -> Tensor:
    """Sum over channels of channel_index * probability, clipped to [0, C-1].

    The clip only trims float round-off; mathematically the expectation of
    indices under a distribution already lies in that interval.
    """
    b, c, h, w = probs.shape
    levels = np.arange(c, dtype=probs.dtype).reshape(1, c, 1, 1)
    raw = (probs.data * levels).sum(axis=1, keepdims=True)
    out = Tensor(np.clip(raw, 0.0, c - 1.0))

    def grad_fn(g):
        return (g * levels,)

    return record_op("index_expectation", out, (probs,), grad_fn)


def channel_entropy(probs: Tensor) -> Tensor:
    """Shannon entropy (natural log) across channels, with 0*ln(0) = 0."""
    p = probs.data
    logp = np.log(np.where(p > 0, p, 1.0))
    out = Tensor(-(p * logp).sum(axis=1, keepdims=True))

    def grad_fn(g):
        return (np.where(p > 0, -(logp + 1.0), 0.0) * g,)

    return record_op("channel_entropy", out, (probs,), grad_fn)


# ---------------------------------------------------------------------------
# layout ops
# ---------------------------------------------------------------------------

def _join(inputs: list[Tensor], axis: int, op: str) -> Tensor:
    """``inputs`` concatenated along ``axis``, recorded on the tape as ``op``;
    the other axes must agree. Each input's gradient is its slice of the
    output's."""
    if not inputs:
        raise ShapeError(f"{op}: empty input list")
    rest = inputs[0].shape[:axis] + inputs[0].shape[axis + 1:]
    for t in inputs[1:]:
        if t.shape[:axis] + t.shape[axis + 1:] != rest:
            raise ShapeError(f"{op}: {t.shape} incompatible with {inputs[0].shape} "
                             f"off axis {axis}")
    _same_dtype(*inputs)
    out = Tensor(np.concatenate([t.data for t in inputs], axis=axis))
    cuts = np.cumsum([t.shape[axis] for t in inputs])[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(part) for part in np.split(g, cuts, axis=axis))

    return record_op(op, out, tuple(inputs), grad_fn)


def concat_channels(inputs: list[Tensor]) -> Tensor:
    return _join(inputs, 1, "concat_channels")


def stack_batch(inputs: list[Tensor]) -> Tensor:
    """Concatenate along the batch axis (inverse of slicing per item)."""
    return _join(inputs, 0, "stack_batch")


def batch_to_channels(x: Tensor) -> Tensor:
    """Reinterpret a (B, 1, H, W) stack as one (1, B, H, W) tensor."""
    b, c, h, w = x.shape
    if c != 1:
        raise ShapeError(f"batch_to_channels: expected single-channel input, got C={c}")
    out = Tensor(np.ascontiguousarray(x.data.transpose(1, 0, 2, 3)))

    def grad_fn(g):
        return (np.ascontiguousarray(g.transpose(1, 0, 2, 3)),)

    return record_op("batch_to_channels", out, (x,), grad_fn)


def _shifted_items(x: Tensor, items, shifts, width: int, edge: bool, op: str) -> Tensor:
    """:func:`gather_columns`, recorded on the tape as ``op``."""
    b, c, h, w = x.shape
    items, shifts = [int(i) for i in items], [int(s) for s in shifts]
    if len(items) != len(shifts) or not all(0 <= i < b for i in items):
        raise ShapeError(f"{op}: items {items} with shifts {shifts} do not address "
                         f"{b} batch items")
    if width < 1 or (edge and c % 2):
        raise ShapeError(f"{op}: width {width}, or {c} channels for two edge blocks")
    cb = c // 2 if edge else c
    body = width - 1 if edge else width
    rows = [(i, item, s, max(s, 0), max(min(body, w + s), s, 0),
             edge and 0 <= width - 1 - s < w)
            for i, (item, s) in enumerate(zip(items, shifts))]
    out = np.zeros((len(rows), cb, h, width), dtype=x.dtype)
    for i, item, s, j0, j1, last in rows:
        out[i, :, :, j0:j1] = x.data[item, :cb, :, j0 - s:j1 - s]
        if last:
            out[i, :, :, -1] = x.data[item, cb:, :, width - 1 - s]
    shape = x.data.shape

    def grad_fn(g):
        dx = np.zeros(shape, dtype=g.dtype)
        for i, item, s, j0, j1, last in rows:
            dx[item, :cb, :, j0 - s:j1 - s] += g[i, :, :, j0:j1]
            if last:
                dx[item, cb:, :, width - 1 - s] += g[i, :, :, -1]
        return (dx,)

    return record_op(op, Tensor(out), (x,), grad_fn)


def shift_columns(x: Tensor, d: int) -> Tensor:
    """Shift content right by d columns; vacated columns are zero-filled.

    Output column j equals input column j - d for j >= d. d may equal the
    width (all-zero result); anything outside [0, width] is rejected.
    """
    b, c, h, w = x.shape
    if not 0 <= d <= w:
        raise ShapeError(f"shift_columns: shift {d} out of range [0, {w}]")
    return _shifted_items(x, range(b), [d] * b, w, False, "shift_columns")


def gather_columns(x: Tensor, items, shifts, width: int, edge: bool = False) -> Tensor:
    """Shifted batch items of x, zero-filled, as a (len(items), C', H, width)
    batch: row i is item ``items[i]`` shifted right by ``shifts[i]`` columns
    (left when negative), so its column j is x's column ``j - shifts[i]``.

    With ``edge``, x holds two channel blocks of C' = C / 2 channels and
    each row's last column comes from the second block, at the same shift;
    otherwise C' = C. The gradient scatters back, summing where rows read
    the same column.
    """
    return _shifted_items(x, items, shifts, width, edge, "gather_columns")


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Channels ``start:stop`` of x (axis 1) as a new tensor.

    The gradient is the upstream gradient zero-padded back to x's channels.
    """
    b, c, h, w = x.shape
    if not 0 <= start < stop <= c:
        raise ShapeError(f"slice_channels: range [{start}, {stop}) not inside [0, {c})")
    out = Tensor(x.data[:, start:stop])
    shape = x.data.shape

    def grad_fn(g):
        dx = np.zeros(shape, dtype=g.dtype)
        dx[:, start:stop] = g
        return (dx,)

    return record_op("slice_channels", out, (x,), grad_fn)

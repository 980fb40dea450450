"""Forward kernels and their exact reverse-mode gradients.

Convolutions build no column matrix. The input is copied once into a
zeroed buffer that is already padded and split into stride x stride
phase images, each flattened row-major with one slack row. Every kernel
tap is then a contiguous window of one phase, and the output is a sum of
BLAS GEMMs over taps, in a fixed tap order, whose few junk columns past
each row end are cropped once. Taps are stacked per GEMM until its inner
dimension reaches 32, so layers with few input channels stay
BLAS-efficient. Backward reuses the same windows. Bilinear resampling is
a pair of small interpolation-matrix matmuls, so its backward is the
exact transpose map. All reductions use a fixed order, which keeps
repeated runs bit-identical, and a batch item's result does not depend
on the rest of the batch.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, record_op


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

def _conv_out_extent(extent: int, k: int, stride: int, dilation: int, padding: int) -> int:
    return (extent + 2 * padding - dilation * (k - 1) - 1) // stride + 1


# conv2d stacks ceil(_MIN_GEMM_K / cin) taps into one GEMM, so that its inner
# dimension reaches this size (or the whole kernel) even for layers with one
# or three input channels, which run several times slower one tap per GEMM.
_MIN_GEMM_K = 32


def _phase_index(h: int, w: int, stride: int, padding: int) -> list[tuple]:
    """(phase-buffer index, input index) pairs that cover the input once.

    Padded row ``r = i * stride + a`` lives at row ``i`` of row phase ``a``
    (likewise for columns). Each pair addresses one (row phase, column
    phase) block in a (stride, stride, B, C, rows, cols) buffer and the
    input elements that land there.
    """
    def runs(extent):
        out = []
        for phase in range(stride):
            i0 = max(0, -((phase - padding) // stride))
            x0 = i0 * stride + phase - padding
            out.append((slice(i0, i0 + len(range(x0, extent, stride))),
                        slice(x0, None, stride)))
        return out

    return [((a, b, Ellipsis, rows, cols), (Ellipsis, x_rows, x_cols))
            for a, (rows, x_rows) in enumerate(runs(h))
            for b, (cols, x_cols) in enumerate(runs(w))]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, dilation: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of x (B,Cin,H,W) with weight (Cout,Cin,KH,KW).

    The input is written once into a zeroed buffer that is already padded
    and split into stride x stride phase images, each flattened row-major
    ``wq = ceil((W + 2*padding) / stride)`` wide with one slack row. Tap
    (ki, kj) then reads the contiguous window ``off : off + oh*wq`` of
    phase ((ki*dilation) % stride, (kj*dilation) % stride), where ``off =
    ((ki*dilation) // stride) * wq + (kj*dilation) // stride``, and the
    output is the sum over taps, in row-major tap order, of
    ``weight[:, :, ki, kj] @ window``. Output columns ``ow .. wq-1`` read
    past the row end; they are cropped once at the end. No column matrix
    is built: taps are stacked ``ceil(32 / Cin)`` per GEMM so that layers
    with few input channels still get an inner dimension of at least 32.
    Backward reuses the same windows, with the output gradient zero-padded
    to ``wq`` columns, and scatters into a phase-layout buffer.
    """
    if stride < 1 or dilation < 1 or padding < 0:
        raise ShapeError(f"conv2d: bad stride/dilation/padding ({stride}, {dilation}, {padding})")
    b, cin, h, w = x.shape
    cout, wcin, kh, kw = weight.shape
    if cin != wcin:
        raise ShapeError(f"conv2d: input has {cin} channels, weight expects {wcin}")
    if bias is not None and bias.shape != (1, cout, 1, 1):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != (1, {cout}, 1, 1)")
    oh = _conv_out_extent(h, kh, stride, dilation, padding)
    ow = _conv_out_extent(w, kw, stride, dilation, padding)
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d: non-positive output extent ({oh}, {ow}) "
                         f"for input {h}x{w}, kernel {kh}x{kw}")
    dt = _same_dtype(*([x, weight] + ([bias] if bias is not None else [])))

    hq = -(-(h + 2 * padding) // stride)
    wq = -(-(w + 2 * padding) // stride)
    index = _phase_index(h, w, stride, padding)
    phases = np.zeros((stride, stride, b, cin, hq + 1, wq), dtype=dt)
    for at_phase, at_x in index:
        phases[at_phase] = x.data[at_x]
    buf = phases.reshape(stride * stride, b, cin, (hq + 1) * wq)
    n = oh * wq
    taps = []
    for ki in range(kh):
        for kj in range(kw):
            (qi, ri), (qj, rj) = divmod(ki * dilation, stride), divmod(kj * dilation, stride)
            taps.append((ri * stride + rj, qi * wq + qj))
    w_taps = weight.data.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin)
    per_gemm = -(-_MIN_GEMM_K // cin)
    groups = [(w_taps[:, t * cin:(t + per_gemm) * cin], taps[t:t + per_gemm])
              for t in range(0, len(taps), per_gemm)]

    def window(group):
        if len(group) == 1:
            phase, off = group[0]
            return buf[phase, :, :, off:off + n]
        return np.concatenate([buf[phase, :, :, off:off + n] for phase, off in group], axis=1)

    acc = np.matmul(groups[0][0], window(groups[0][1]))
    part = np.empty_like(acc) if len(groups) > 1 else None
    for w_group, group in groups[1:]:
        acc += np.matmul(w_group, window(group), out=part)
    # Free the scratch before the output is allocated: a refine conv sets
    # the forward pass's memory peak.
    del part
    out_data = acc.reshape(b, cout, oh, wq)[:, :, :, :ow]
    out = Tensor(out_data + bias.data if bias is not None else out_data)

    inputs = (x, weight) if bias is None else (x, weight, bias)

    def grad_fn(g):
        gq = np.zeros((b, cout, oh, wq), dtype=g.dtype)
        gq[:, :, :, :ow] = g
        gq = gq.reshape(b, cout, n)
        dbuf = np.zeros_like(buf)
        dw = []
        for w_group, group in groups:
            dw.append(np.matmul(gq, window(group).transpose(0, 2, 1)).sum(axis=0))
            dwin = np.matmul(w_group.T, gq)
            for k, (phase, off) in enumerate(group):
                dbuf[phase, :, :, off:off + n] += dwin[:, k * cin:(k + 1) * cin]
        dw = np.ascontiguousarray(
            np.concatenate(dw, axis=1).reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))
        dphases = dbuf.reshape(phases.shape)
        dx = np.empty(x.shape, dtype=g.dtype)
        for at_phase, at_x in index:
            dx[at_x] = dphases[at_phase]
        if bias is None:
            return dx, dw
        db = g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1)
        return dx, dw, db

    return record_op("conv2d", out, inputs, grad_fn)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

# The variance offset of batch_norm; the inference-time fold of a norm into
# its conv (model.ModelWeights.folded) uses the same value.
BN_EPSILON = 1e-5


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: Tensor, running_var: Tensor, *,
               training: bool = False, momentum: float = 0.1,
               epsilon: float = BN_EPSILON, per_sample: bool = False) -> Tensor:
    """Channelwise normalization with learned scale/shift.

    Training mode normalizes by current statistics and updates the running
    buffers in place; inference mode uses the running buffers. With
    ``per_sample=True`` the statistics reduce over spatial dims only, so
    each batch item is normalized independently (keeps batched disparity
    levels decoupled).
    """
    b, c, h, w = x.shape
    for name, t in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        if t.shape != (1, c, 1, 1):
            raise ShapeError(f"batch_norm: {name} shape {t.shape} != (1, {c}, 1, 1)")
    if epsilon <= 0:
        raise ShapeError("batch_norm: epsilon must be > 0")
    dt = _same_dtype(x, gamma, beta)
    eps = dt.type(epsilon)

    if training:
        axes = (2, 3) if per_sample else (0, 2, 3)
        n = h * w if per_sample else b * h * w
        if n == 0 or b == 0:
            raise ShapeError("batch_norm: empty batch in training mode")
        mu = x.data.mean(axis=axes, keepdims=True)
        xc = x.data - mu
        var = np.mean(xc * xc, axis=axes, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv
        # Running buffers track per-batch statistics (unbiased variance).
        correction = n / (n - 1) if n > 1 else 1.0
        batch_mean = mu.mean(axis=0, keepdims=True) if per_sample else mu
        batch_var = (var * correction).mean(axis=0, keepdims=True) if per_sample \
            else var * correction
        running_mean.data *= (1.0 - momentum)
        running_mean.data += momentum * batch_mean.astype(dt)
        running_var.data *= (1.0 - momentum)
        running_var.data += momentum * batch_var.astype(dt)
    else:
        inv = 1.0 / np.sqrt(running_var.data + eps)
        xhat = (x.data - running_mean.data) * inv

    out = Tensor(gamma.data * xhat + beta.data)
    gdata = gamma.data

    if training:
        axes_ = axes

        def grad_fn(g):
            dgamma = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
            dbeta = g.sum(axis=(0, 2, 3), keepdims=True)
            dxhat = g * gdata
            dx = inv * (dxhat
                        - dxhat.mean(axis=axes_, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=axes_, keepdims=True))
            return dx, dgamma, dbeta
    else:
        def grad_fn(g):
            dgamma = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
            dbeta = g.sum(axis=(0, 2, 3), keepdims=True)
            dx = g * (gdata * inv)
            return dx, dgamma, dbeta

    return record_op("batch_norm", out, (x, gamma, beta), grad_fn)


# ---------------------------------------------------------------------------
# pooling and resizing
# ---------------------------------------------------------------------------

def avg_pool(x: Tensor, window_h: int, window_w: int,
             stride_h: int, stride_w: int) -> Tensor:
    """Mean pooling. Windows larger than the input are clipped to it.

    Each window's elements are flattened row-major and summed with
    ``np.add.accumulate``, which adds them one after another, so the result
    is bit-identical to a serial per-window loop. Backward writes each
    window's share through a strided view of the gradient, one pass per
    group of mutually disjoint windows (a single pass when the stride is at
    least the window, as in the feature net's pooling branches).
    """
    if window_h < 1 or window_w < 1 or stride_h < 1 or stride_w < 1:
        raise ShapeError("avg_pool: window and stride must be positive")
    b, c, h, w = x.shape
    wh = min(window_h, h)
    ww = min(window_w, w)
    oh = (h - wh) // stride_h + 1
    ow = (w - ww) // stride_w + 1
    windows = np.lib.stride_tricks.sliding_window_view(
        x.data, (wh, ww), axis=(2, 3))[:, :, ::stride_h, ::stride_w]
    acc = np.add.accumulate(windows.reshape(b, c, oh, ow, wh * ww), axis=-1)[..., -1]
    out = Tensor(acc / (wh * ww))
    inv_area = 1.0 / (wh * ww)
    xshape = x.data.shape
    # Windows p, p + groups_h, ... (likewise for columns) never overlap.
    groups_h = -(-wh // stride_h)
    groups_w = -(-ww // stride_w)

    def grad_fn(g):
        dx = np.zeros(xshape, dtype=g.dtype)
        spread = (g * inv_area)[..., None, None]
        view = np.lib.stride_tricks.sliding_window_view(dx, (wh, ww), axis=(2, 3),
                                                        writeable=True)
        for p in range(groups_h):
            for q in range(groups_w):
                view[:, :, p * stride_h::groups_h * stride_h,
                     q * stride_w::groups_w * stride_w] += spread[:, :, p::groups_h,
                                                                  q::groups_w]
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
    """Bilinear resampling (align_corners=false) to (out_h, out_w)."""
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

def concat_channels(inputs: list[Tensor]) -> Tensor:
    if not inputs:
        raise ShapeError("concat_channels: empty input list")
    b, _, h, w = inputs[0].shape
    for t in inputs[1:]:
        tb, _, th, tw = t.shape
        if (tb, th, tw) != (b, h, w):
            raise ShapeError(f"concat_channels: {t.shape} incompatible with "
                             f"(batch={b}, height={h}, width={w})")
    _same_dtype(*inputs)
    out = Tensor(np.concatenate([t.data for t in inputs], axis=1))
    sizes = [t.shape[1] for t in inputs]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        return tuple(np.ascontiguousarray(g[:, offsets[i]:offsets[i + 1]])
                     for i in range(len(sizes)))

    return record_op("concat_channels", out, tuple(inputs), grad_fn)


def stack_batch(inputs: list[Tensor]) -> Tensor:
    """Concatenate along the batch axis (inverse of slicing per item)."""
    if not inputs:
        raise ShapeError("stack_batch: empty input list")
    tail = inputs[0].shape[1:]
    for t in inputs[1:]:
        if t.shape[1:] != tail:
            raise ShapeError(f"stack_batch: {t.shape} incompatible with (*, {tail})")
    _same_dtype(*inputs)
    out = Tensor(np.concatenate([t.data for t in inputs], axis=0))
    sizes = [t.shape[0] for t in inputs]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        return tuple(np.ascontiguousarray(g[offsets[i]:offsets[i + 1]])
                     for i in range(len(sizes)))

    return record_op("stack_batch", out, tuple(inputs), grad_fn)


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

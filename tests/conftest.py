"""Shared fixtures and independent reference implementations.

The reference kernels here are deliberately written as plain nested loops
(or direct formula transcriptions) so they share no code path with the
package's vectorized implementations.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from shiftstereo import model, ops
from shiftstereo.ops import BN_EPSILON
from shiftstereo.tensor import Tensor, record_op

# ``pytest --hypothesis-profile=ci`` draws the same examples on every run,
# so a fuzz failure in CI reproduces locally, and sets no per-example
# deadline, which a loaded runner would trip.
settings.register_profile("ci", derandomize=True, deadline=None)


def conv2d_reference(x, w, b=None, stride=1, dilation=1, padding=0):
    """Six-nested-loop cross-correlation oracle."""
    bs, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    ow = (wdt + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    out = np.zeros((bs, cout, oh, ow), dtype=x.dtype)
    for n in range(bs):
        for co in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky * dilation - padding
                                ix = ox * stride + kx * dilation - padding
                                if 0 <= iy < h and 0 <= ix < wdt:
                                    acc += x[n, ci, iy, ix] * w[co, ci, ky, kx]
                    out[n, co, oy, ox] = acc
            if b is not None:
                out[n, co] += b[0, co, 0, 0]
    return out


def render_views_reference(texture, disp):
    """Per-row oracle of ``datasets._render_views``: one 1D z-buffer per
    row, filled by the row's distinct disparities in ascending order."""
    h, w = texture.shape
    left = np.zeros((h, w), dtype=np.float32)
    right = np.zeros((h, w), dtype=np.float32)
    gt = np.full((h, w), np.inf, dtype=np.float32)
    valid = np.zeros((h, w), dtype=bool)
    xc = np.arange(w)
    for y in range(h):
        drow = disp[y]
        trow = texture[y]
        left_src = np.full(w, -1, dtype=np.int64)
        right_src = np.full(w, -1, dtype=np.int64)
        left_d = np.zeros(w, dtype=np.int64)
        for d_val in np.unique(drow):
            half = int(d_val) // 2
            sel = drow == d_val
            xl = xc[sel] + half
            keep = xl < w
            left_src[xl[keep]] = xc[sel][keep]
            left_d[xl[keep]] = d_val
            xr = xc[sel] - half
            keep = xr >= 0
            right_src[xr[keep]] = xc[sel][keep]
        filled = left_src >= 0
        left[y, filled] = trow[left_src[filled]]
        right_filled = right_src >= 0
        right[y, right_filled] = trow[right_src[right_filled]]
        xr_corr = left_src - left_d // 2
        both = filled & (xr_corr >= 0)
        cols = np.nonzero(both)[0]
        agree = right_src[xr_corr[cols]] == left_src[cols]
        ok = cols[agree]
        valid[y, ok] = True
        gt[y, ok] = left_d[ok]
    return left, right, gt, valid


def avg_pool_reference(x, window_h, window_w, stride_h, stride_w):
    """Loop oracle including the clip-to-input rule for oversized windows."""
    bs, c, h, w = x.shape
    wh, ww = min(window_h, h), min(window_w, w)
    oh = (h - wh) // stride_h + 1
    ow = (w - ww) // stride_w + 1
    out = np.zeros((bs, c, oh, ow), dtype=x.dtype)
    for n in range(bs):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    total = 0.0
                    for dy in range(wh):
                        for dx in range(ww):
                            total += x[n, ch, i * stride_h + dy, j * stride_w + dx]
                    out[n, ch, i, j] = total / (wh * ww)
    return out


def avg_pool_strided_reference(x, wh, ww, sh, sw):
    """Pooling as one strided add per window offset, in the input's dtype:
    the serial order of ``avg_pool_reference`` at the dtype's precision.
    Windows are assumed to fit the input. Returns (output, backward of an
    upstream gradient g)."""
    b, c, h, w = x.shape
    oh, ow = (h - wh) // sh + 1, (w - ww) // sw + 1
    hspan, wspan = (oh - 1) * sh + 1, (ow - 1) * sw + 1
    acc = np.zeros((b, c, oh, ow), dtype=x.dtype)
    for dy in range(wh):
        for dx in range(ww):
            acc += x[:, :, dy:dy + hspan:sh, dx:dx + wspan:sw]

    def backward(g):
        grad = np.zeros_like(x)
        spread = g * (1.0 / (wh * ww))
        for dy in range(wh):
            for dx in range(ww):
                grad[:, :, dy:dy + hspan:sh, dx:dx + wspan:sw] += spread
        return grad

    return acc / (wh * ww), backward


def resize_matrix_reference(n_in, n_out, dtype):
    """Per-row loop oracle for the bilinear sampling matrix
    (half-pixel centers, source indices clamped to the input)."""
    m = np.zeros((n_out, n_in), dtype=dtype)
    scale = n_in / n_out
    for i in range(n_out):
        src = (i + 0.5) * scale - 0.5
        lo = int(np.floor(src))
        t = src - lo
        lo_c = min(max(lo, 0), n_in - 1)
        hi_c = min(max(lo + 1, 0), n_in - 1)
        m[i, lo_c] += 1.0 - t
        m[i, hi_c] += t
    return m


def adam_reference_trace(theta0, grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scripted textbook Adam: returns parameter values after each step."""
    theta = np.array(theta0, dtype=np.float64)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    history = []
    for t, g in enumerate(grads, 1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        history.append(theta.copy())
    return history


def batch_norm_reference(x, gamma, beta, running_mean, running_var, training=False):
    """Batch norm by the textbook formulas, as a tape op with no ReLU:
    ``xhat`` is computed and saved in the forward pass, the variance is the
    mean of ``(x - mu)**2``, and ``dx = inv * (dxhat - mean(dxhat)
    - xhat * mean(dxhat * xhat))`` with ``dxhat = g * gamma``. Follow it
    with ``ops.relu`` for the unfused chain that ``ops.batch_norm(...,
    relu=True)`` replaces."""
    b, c, h, w = x.shape
    dt = x.dtype
    eps = dt.type(BN_EPSILON)
    if training:
        n = h * w
        mu = x.data.mean(axis=(2, 3), keepdims=True)
        xc = x.data - mu
        var = np.mean(xc * xc, axis=(2, 3), keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv
        correction = n / (n - 1) if n > 1 else 1.0
        running_mean.data *= 0.9
        running_mean.data += 0.1 * mu.mean(axis=0, keepdims=True).astype(dt)
        running_var.data *= 0.9
        running_var.data += 0.1 * (var * correction).mean(axis=0, keepdims=True).astype(dt)
    else:
        inv = 1.0 / np.sqrt(running_var.data + eps)
        xhat = (x.data - running_mean.data) * inv

    out = Tensor(gamma.data * xhat + beta.data)
    gdata = gamma.data

    def grad_fn(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
        dbeta = g.sum(axis=(0, 2, 3), keepdims=True)
        if not training:
            return g * (gdata * inv), dgamma, dbeta
        dxhat = g * gdata
        dx = inv * (dxhat
                    - dxhat.mean(axis=(2, 3), keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=(2, 3), keepdims=True))
        return dx, dgamma, dbeta

    return record_op("batch_norm", out, (x, gamma, beta), grad_fn)


def batch_norm_kept(x, gamma, beta, running_mean=None, running_var=None, *, relu=False,
                    residual=None):
    """``ops.batch_norm`` as it was before its output could be rebuilt: the
    tape keeps the output array, backward reads the ReLU mask from it and
    the live gamma, and no rebuild is recorded. Buffers, where given, move
    as in ``ops.batch_norm``."""
    b, c, h, w = x.shape
    inputs = (x, gamma, beta) if residual is None else (x, gamma, beta, residual)
    dt = x.dtype
    eps = dt.type(BN_EPSILON)
    xd = x.data
    n = h * w
    mu = xd.mean(axis=(2, 3), keepdims=True)
    y = xd - mu
    var = np.einsum("bchw,bchw->bc", y, y).reshape(b, c, 1, 1) / n
    inv = 1.0 / np.sqrt(var + eps)
    if running_mean is not None:
        correction = n / (n - 1) if n > 1 else 1.0
        running_mean.data *= 0.9
        running_mean.data += 0.1 * mu.mean(axis=0, keepdims=True).astype(dt)
        running_var.data *= 0.9
        running_var.data += 0.1 * (var * correction).mean(axis=0, keepdims=True).astype(dt)
    y *= inv
    y *= gamma.data
    y += beta.data
    if residual is not None:
        y += residual.data
    if relu:
        np.maximum(y, 0, out=y)
    out = Tensor(y)
    gdata = gamma.data

    def grad_fn(g):
        if relu:
            g = g * (y > 0)
        xhat = xd - mu
        xhat *= inv
        s1 = g.sum(axis=(2, 3), keepdims=True)
        s2 = np.einsum("bchw,bchw->bc", g, xhat).reshape(b, c, 1, 1)
        dx = xhat
        dx *= s2 / -n
        dx += g
        dx -= s1 / n
        dx *= gdata * inv
        grads = (dx, s2.sum(axis=0, keepdims=True), s1.sum(axis=0, keepdims=True))
        return grads if residual is None else grads + (g,)

    return record_op("batch_norm", out, inputs, grad_fn)


def refine_unfused(disp, left_image, ent, weights, cfg):
    """``model.refine`` with each residual block's sum and ReLU run as ops
    of their own, ``relu(add(x, y))``, after a conv and a norm that know
    nothing of the skip: the chain that the fused epilogue of
    ``ops.conv2d`` / ``ops.batch_norm`` replaces."""
    def layer(x, name):
        spec = weights.specs[name]
        params, buffers = weights.params, weights.buffers
        y = ops.conv2d(x, params[name + ".w"], params.get(name + ".b"),
                       dilation=spec.dilation, padding=spec.padding)
        if spec.norm:
            return ops.batch_norm(y, params[name + ".gamma"], params[name + ".beta"],
                                  buffers[name + ".mean"], buffers[name + ".var"],
                                  relu=spec.act)
        return ops.relu(y) if spec.act else y

    ent_scale = math.log(cfg.levels) if cfg.levels > 1 else 1.0
    x = ops.concat_channels([
        left_image,
        ops.scalar_mul(disp, 1.0 / cfg.max_disparity),
        ops.scalar_mul(ent, 1.0 / ent_scale),
    ])
    x = layer(x, "refine.head")
    for i in range(1, len(cfg.refine_blocks) + 1):
        y = layer(x, f"refine.block{i}.conv1")
        y = layer(y, f"refine.block{i}.conv2")
        x = ops.relu(ops.add(x, y))
    residual = ops.conv2d(x, weights.params["refine.out.w"],
                          weights.params["refine.out.b"], padding=1)
    return ops.relu(ops.add(disp, residual))


def backward_reference(loss, tape):
    """Replay ``tape`` in reverse without consuming it: every node and every
    intermediate gradient stays alive until the replay ends."""
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node.output.grad is None:
            continue
        for tensor, grad in zip(node.inputs, node.grad_fn(node.output.grad)):
            if grad is None or not tensor.requires_grad:
                continue
            if tensor.grad is None:
                tensor.grad = np.array(grad)
            else:
                tensor.grad += grad


def traced_peak(fn):
    """Call ``fn()`` under tracemalloc. Returns its result, the bytes still
    allocated when it returns and the peak it reached, both counted from
    the start of the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - base, peak - base


def rewrite_metadata(blob, edit):
    """A checkpoint's bytes ``blob`` with the metadata block that ``edit``
    makes of the bytes of its own."""
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    meta = edit(blob[12:12 + meta_len])
    return blob[:8] + struct.pack("<I", len(meta)) + meta + blob[12 + meta_len:]


# Cost-volume schedules, by the disparity levels the matching net runs as
# one batch: one level, the default picked from the feature size, all levels.
LEVEL_BATCHES = ("sequential", "default", "parallel")
_LEVEL_BATCH_PIXELS = {"sequential": 1, "default": model._LEVEL_BATCH_PIXELS,
                       "parallel": 1 << 40}


def set_level_batch(monkeypatch, schedule):
    """Make the cost volume run ``schedule``, one of LEVEL_BATCHES."""
    monkeypatch.setattr(model, "_LEVEL_BATCH_PIXELS", _LEVEL_BATCH_PIXELS[schedule])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

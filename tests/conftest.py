"""Shared fixtures and independent reference implementations.

The reference kernels here are deliberately written as plain nested loops
(or direct formula transcriptions) so they share no code path with the
package's vectorized implementations.
"""

import numpy as np
import pytest


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


def ssd_reference(fl, fr, d, radius):
    """Triple-loop patch SSD against the d-shifted right features,
    with patches clipped at the image border."""
    _, c, h, w = fl.shape
    shifted = np.zeros_like(fr)
    shifted[:, :, :, d:] = fr[:, :, :, :w - d] if d else fr[:, :, :, :]
    out = np.zeros((1, 1, h, w), dtype=fl.dtype)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for qy in range(max(0, y - radius), min(h, y + radius + 1)):
                for qx in range(max(0, x - radius), min(w, x + radius + 1)):
                    delta = fl[0, :, qy, qx] - shifted[0, :, qy, qx]
                    acc += float((delta * delta).sum())
            out[0, 0, y, x] = acc
    return out


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

"""Vectorised layer primitives with hand-written backward passes.

Every forward returns ``(out, cache)`` and the matching backward consumes
``(dout, cache)``.  Convolutions are stride-1 with "same" padding, realised
as im2col plus GEMM over a few images (forward) or kernel rows (weight
gradient) at a time, so no patch matrix outgrows ``_BLOCK_BYTES``; the
data gradient is one small GEMM per kernel offset added into the padded
input (kn2row), which needs no patch matrix of the output gradient at all.

Arrays are channels-last: images are ``(B, H, W, C)``.  All ops preserve
their input dtype so the same code runs float32 for training and float64
for finite-difference checks.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _patches(x_padded: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(B, H', W', Ci) padded input -> (B, H, W, kh, kw, Ci) view of every
    pixel's patch; reshaped contiguous, a slice of it is an im2col matrix."""
    return sliding_window_view(x_padded, (kh, kw), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)


#: Patch matrices are built a block of at most this many bytes at a time:
#: wide enough for full-speed GEMMs, small enough that a trunk chunk's
#: transient buffers stay a few MB on each worker.
_BLOCK_BYTES = 4 << 20


def _per_block(count: int, item: np.ndarray) -> int:
    """How many of ``count`` items shaped like ``item`` fit one block (at least one)."""
    return max(1, min(count, _BLOCK_BYTES // max(item.nbytes, 1)))


def _same_pad(kh: int, kw: int) -> tuple[int, int, int, int]:
    return (kh - 1) // 2, kh // 2, (kw - 1) // 2, kw // 2


def conv2d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray):
    """Stride-1 same-padding convolution; kernel is (kh, kw, Ci, Co)."""
    b, h, w, _ = x.shape
    kh, kw, ci, co = kernel.shape
    pt, pb, pl, pr = _same_pad(kh, kw)
    patches = _patches(np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0))), kh, kw)
    weights = kernel.reshape(kh * kw * ci, co)
    out = np.empty((b, h, w, co), dtype=np.result_type(x, kernel))
    # a block of images at a time: every output pixel is the same dot product
    # as with the whole batch's patch matrix
    step = _per_block(b, patches[0])
    for i in range(0, b, step):
        np.matmul(np.ascontiguousarray(patches[i : i + step]).reshape(-1, kh * kw * ci),
                  weights, out=out[i : i + step].reshape(-1, co))
    out += bias
    return out, x


def conv2d_backward(dout: np.ndarray, x: np.ndarray, kernel: np.ndarray,
                    need_dx: bool = True):
    """Gradients (dx, dk, db) for :func:`conv2d_forward`.

    ``need_dx=False`` skips the data gradient (dx comes back None); the
    first layer's input gradient is dead weight.
    """
    b, h, w, ci = x.shape
    kh, kw, _, co = kernel.shape
    pt, pb, pl, pr = _same_pad(kh, kw)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    patches = _patches(xp, kh, kw)
    dout_flat = dout.reshape(b * h * w, co)
    dk = np.empty((kh, kw, ci, co), dtype=np.result_type(x, dout))
    # a block of kernel rows at a time: every weight's gradient is the same dot
    # product over all pixels as with the full patch matrix
    step = _per_block(kh, patches[:, :, :, 0])
    for oy in range(0, kh, step):
        cols = np.ascontiguousarray(patches[:, :, :, oy : oy + step]).reshape(b * h * w, -1)
        np.matmul(cols.T, dout_flat, out=dk[oy : oy + step].reshape(-1, co))
    del cols
    db = dout_flat.sum(axis=0)

    if not need_dx:
        return None, dk, db
    # kernel offset (oy, ox) carried padded input pixel (i + oy, j + ox) to
    # output pixel (i, j): one small GEMM per offset sends dout back along it
    dxp = np.zeros(xp.shape, dtype=dout.dtype)
    for oy in range(kh):
        for ox in range(kw):
            dxp[:, oy : oy + h, ox : ox + w] += (
                (dout_flat @ kernel[oy, ox].T).reshape(b, h, w, ci))
    return dxp[:, pt : pt + h, pl : pl + w], dk, db


def maxpool2_forward(x: np.ndarray):
    """2x2 stride-2 max pooling with floor division (odd edges dropped).

    The cached index of each window's maximum counts row-major within the
    window (0 top-left, 3 bottom-right); ties go to the first index.
    """
    b, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    top, bottom = x[:, 0 : h2 * 2 : 2], x[:, 1 : h2 * 2 : 2]
    q0, q1 = top[:, :, 0 : w2 * 2 : 2], top[:, :, 1 : w2 * 2 : 2]
    q2, q3 = bottom[:, :, 0 : w2 * 2 : 2], bottom[:, :, 1 : w2 * 2 : 2]
    # strictly greater picks, so a tie keeps the earlier index and its exact
    # value (np.maximum may return either zero of a +0/-0 tie)
    right_top, right_bottom = q1 > q0, q3 > q2
    best_top = np.where(right_top, q1, q0)
    best_bottom = np.where(right_bottom, q3, q2)
    lower = best_bottom > best_top
    out = np.where(lower, best_bottom, best_top)
    idx = np.where(lower, right_bottom.view(np.uint8) + np.uint8(2), right_top.view(np.uint8))
    return out, (x.shape, idx)


def maxpool2_backward(dout: np.ndarray, cache):
    (b, h, w, c), idx = cache
    h2, w2 = h // 2, w // 2
    dx = np.zeros((b, h, w, c), dtype=dout.dtype)
    for q in range(4):
        np.copyto(dx[:, q // 2 : h2 * 2 : 2, q % 2 : w2 * 2 : 2], dout, where=idx == q)
    return dx


def relu_forward(x: np.ndarray):
    out = np.maximum(x, 0)
    return out, out > 0


def relu_backward(dout: np.ndarray, mask: np.ndarray):
    return dout * mask


def prelu_forward(x: np.ndarray, slope: np.ndarray):
    """PReLU with a single learnable slope shared across all units."""
    out = np.where(x > 0, x, slope * x)
    return out.astype(x.dtype), x


def prelu_backward(dout: np.ndarray, x: np.ndarray, slope: np.ndarray):
    dx = dout * np.where(x > 0, x.dtype.type(1), slope.astype(x.dtype))
    dslope = np.sum(dout * np.where(x > 0, 0, x), dtype=x.dtype)
    return dx, np.asarray(dslope, dtype=slope.dtype)


def dense_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    return x @ weight + bias, x


def dense_backward(dout: np.ndarray, x: np.ndarray, weight: np.ndarray):
    dx = dout @ weight.T
    dw = x.T @ dout
    db = dout.sum(axis=0)
    return dx, dw, db


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_forward(inputs: np.ndarray, wx: np.ndarray, wh: np.ndarray, bias: np.ndarray,
                 h0: np.ndarray, c0: np.ndarray):
    """Standard LSTM over a (T, B, D) sequence; gate order is i, f, g, o.

    Returns the hidden-state sequence (T, B, H), the final (h, c) pair, and
    the per-step cache for :func:`lstm_backward`.
    """
    t_len, batch, _ = inputs.shape
    hidden = wh.shape[0]
    h, c = h0, c0
    hs = np.empty((t_len, batch, hidden), dtype=inputs.dtype)
    caches = []
    for t in range(t_len):
        z = inputs[t] @ wx + h @ wh + bias
        i = _sigmoid(z[:, :hidden])
        f = _sigmoid(z[:, hidden : 2 * hidden])
        g = np.tanh(z[:, 2 * hidden : 3 * hidden])
        o = _sigmoid(z[:, 3 * hidden :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        caches.append((inputs[t], h, c, i, f, g, o, tanh_c))
        h, c = h_new, c_new
        hs[t] = h
    return hs, (h, c), caches


def lstm_backward(dhs: np.ndarray, caches, wx: np.ndarray, wh: np.ndarray):
    """Backprop through time.  ``dhs`` is the gradient on every hidden state."""
    t_len, batch, hidden = dhs.shape
    din = np.empty((t_len, batch, wx.shape[0]), dtype=dhs.dtype)
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(wx.shape[1], dtype=wx.dtype)
    dh_next = np.zeros((batch, hidden), dtype=dhs.dtype)
    dc_next = np.zeros((batch, hidden), dtype=dhs.dtype)
    for t in range(t_len - 1, -1, -1):
        x_t, h_prev, c_prev, i, f, g, o, tanh_c = caches[t]
        dh = dhs[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        do = dh * tanh_c
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dz = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g**2),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dwx += x_t.T @ dz
        dwh += h_prev.T @ dz
        db += dz.sum(axis=0)
        din[t] = dz @ wx.T
        dh_next = dz @ wh.T
        dc_next = dc * f
    return din, dwx, dwh, db, dh_next, dc_next

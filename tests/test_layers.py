"""Per-layer finite-difference checks of every hand-written backward pass."""

import numpy as np
import pytest

from gridnav.nn import layers
from gridnav.nn.model import ArchitectureSpec, _dropout_mask

EPS = 1e-5
TOL = 1e-4


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def check_grad(value_fn, array, analytic, samples=None, rng=None):
    """Compare ``analytic`` to central differences of ``value_fn`` wrt ``array``."""
    flat = array.reshape(-1)
    n = flat.size
    if samples is None or samples >= n:
        indices = range(n)
    else:
        indices = rng.choice(n, size=samples, replace=False)
    ana = np.asarray(analytic).reshape(-1)
    for i in indices:
        orig = flat[i]
        flat[i] = orig + EPS
        up = value_fn()
        flat[i] = orig - EPS
        down = value_fn()
        flat[i] = orig
        numeric = (up - down) / (2 * EPS)
        assert rel_err(float(ana[i]), numeric) < TOL, f"index {i}"


@pytest.mark.parametrize("kernel_size,channels", [(8, (1, 3)), (4, (3, 4)), (3, (4, 2))])
def test_conv2d_gradients(kernel_size, channels):
    rng = np.random.default_rng(kernel_size)
    ci, co = channels
    x = rng.standard_normal((2, 9, 9, ci))
    k = rng.standard_normal((kernel_size, kernel_size, ci, co)) * 0.3
    b = rng.standard_normal(co) * 0.1
    dout = rng.standard_normal((2, 9, 9, co))

    def value():
        out, _ = layers.conv2d_forward(x, k, b)
        return float((out * dout).sum())

    out, cache = layers.conv2d_forward(x, k, b)
    dx, dk, db = layers.conv2d_backward(dout, cache, k)
    check_grad(value, k, dk, samples=40, rng=rng)
    check_grad(value, x, dx, samples=40, rng=rng)
    check_grad(value, b, db)


def im2col_conv2d(x, kernel, dout):
    """Reference convolution: the batch's whole im2col matrix and one GEMM for
    the output and the weight gradient, and the data gradient as the
    convolution of the padded output gradient with the flipped kernel."""
    def im2col(xp, kh, kw):
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        b, h, w, c, _, _ = win.shape
        return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(b * h * w, -1)

    b, h, w, ci = x.shape
    kh, kw, _, co = kernel.shape
    pt, pb, pl, pr = (kh - 1) // 2, kh // 2, (kw - 1) // 2, kw // 2
    cols = im2col(np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0))), kh, kw)
    out = (cols @ kernel.reshape(-1, co)).reshape(b, h, w, co)
    dk = (cols.T @ dout.reshape(-1, co)).reshape(kernel.shape)
    kflip = kernel[::-1, ::-1].transpose(0, 1, 3, 2)
    dcols = im2col(np.pad(dout, ((0, 0), (pb, pt), (pr, pl), (0, 0))), kh, kw)
    dx = (dcols @ kflip.reshape(-1, ci)).reshape(x.shape)
    return out, dx, dk


@pytest.mark.parametrize("kernel_size,channels,size", [(8, (1, 32), 84), (4, (32, 64), 42),
                                                      (3, (64, 64), 21), (4, (3, 2), 9)])
def test_conv2d_matches_the_im2col_reference(kernel_size, channels, size):
    rng = np.random.default_rng(size)
    ci, co = channels
    x = rng.standard_normal((3, size, size, ci)).astype(np.float32)
    k = (rng.standard_normal((kernel_size, kernel_size, ci, co)) * 0.1).astype(np.float32)
    dout = rng.standard_normal((3, size, size, co)).astype(np.float32)
    out, cache = layers.conv2d_forward(x, k, np.zeros(co, np.float32))
    dx, dk, _ = layers.conv2d_backward(dout, cache, k)
    # the data gradient sums its terms in another order: float32 tolerance
    for got, want in zip((out, dx, dk), im2col_conv2d(x, k, dout)):
        assert got.dtype == np.float32 and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max())


def test_conv2d_same_padding_preserves_shape():
    rng = np.random.default_rng(0)
    for size, kernel in ((84, 8), (42, 4), (21, 3)):
        x = rng.standard_normal((1, size, size, 2)).astype(np.float32)
        k = rng.standard_normal((kernel, kernel, 2, 3)).astype(np.float32)
        out, _ = layers.conv2d_forward(x, k, np.zeros(3, dtype=np.float32))
        assert out.shape == (1, size, size, 3)


def test_maxpool_floor_division_and_gradients():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 21, 21, 3))
    out, cache = layers.maxpool2_forward(x)
    assert out.shape == (2, 10, 10, 3)
    dout = rng.standard_normal(out.shape)

    def value():
        o, _ = layers.maxpool2_forward(x)
        return float((o * dout).sum())

    dx = layers.maxpool2_backward(dout, cache)
    assert dx.shape == x.shape
    # the odd last row/column never reaches the output
    assert np.all(dx[:, 20, :, :] == 0)
    assert np.all(dx[:, :, 20, :] == 0)
    check_grad(value, x, dx, samples=60, rng=rng)


def argmax_maxpool2(x):
    """Reference max pool: argmax over each window's four values."""
    b, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    v = (
        x[:, : h2 * 2, : w2 * 2, :]
        .reshape(b, h2, 2, w2, 2, c)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(b, h2, w2, c, 4)
    )
    idx = v.argmax(axis=-1).astype(np.uint8)
    out = np.take_along_axis(v, idx[..., None].astype(np.int64), axis=-1)[..., 0]
    return out, idx


_POOL_RNG = np.random.default_rng(11)


@pytest.mark.parametrize("x", [
    _POOL_RNG.standard_normal((2, 84, 84, 4)).astype(np.float32),
    np.round(_POOL_RNG.standard_normal((3, 21, 21, 3))),  # many ties
    np.maximum(_POOL_RNG.standard_normal((2, 42, 42, 8)).astype(np.float32), 0),  # ReLU zeros
    np.zeros((2, 5, 5, 1)),
    _POOL_RNG.integers(0, 2, (3, 10, 11, 2)).astype(np.float32),
    np.where(_POOL_RNG.random((2, 8, 8, 3)) < 0.5, -0.0, 0.0),  # +0/-0 ties
], ids=["normal", "rounded", "relu", "zeros", "binary", "signed-zeros"])
def test_maxpool_matches_the_argmax_reference(x):
    out, (shape, idx) = layers.maxpool2_forward(x)
    ref_out, ref_idx = argmax_maxpool2(x)
    assert shape == x.shape
    assert out.dtype == ref_out.dtype and out.tobytes() == ref_out.tobytes()
    assert idx.dtype == np.uint8 and np.array_equal(idx, ref_idx)


def put_along_axis_maxpool2_backward(dout, cache):
    """Reference pool backward: scatter into a (..., 4) window axis, then
    fold the windows back into the image."""
    (b, h, w, c), idx = cache
    h2, w2 = h // 2, w // 2
    dv = np.zeros((b, h2, w2, c, 4), dtype=dout.dtype)
    np.put_along_axis(dv, idx[..., None].astype(np.int64), dout[..., None], axis=-1)
    dx = np.zeros((b, h, w, c), dtype=dout.dtype)
    dx[:, : h2 * 2, : w2 * 2, :] = (
        dv.reshape(b, h2, w2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(b, h2 * 2, w2 * 2, c))
    return dx


@pytest.mark.parametrize("shape", [(2, 84, 84, 4), (3, 21, 21, 3), (1, 10, 11, 2)])
def test_maxpool_backward_matches_the_scatter_reference(shape):
    rng = np.random.default_rng(shape[1])
    x = np.round(rng.standard_normal(shape)).astype(np.float32)  # ties too
    out, cache = layers.maxpool2_forward(x)
    dout = rng.standard_normal(out.shape).astype(np.float32)
    dout[0, 0, 0, 0] = -0.0
    dx = layers.maxpool2_backward(dout, cache)
    assert dx.tobytes() == put_along_axis_maxpool2_backward(dout, cache).tobytes()


def test_relu_gradients():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 7))
    dout = rng.standard_normal((5, 7))
    out, mask = layers.relu_forward(x)
    assert np.array_equal(out, np.maximum(x, 0))

    def value():
        o, _ = layers.relu_forward(x)
        return float((o * dout).sum())

    check_grad(value, x, layers.relu_backward(dout, mask))


def test_prelu_gradients_including_slope():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 5))
    slope = np.asarray(0.25)
    dout = rng.standard_normal((6, 5))
    out, cache = layers.prelu_forward(x, slope)
    assert np.allclose(out[x > 0], x[x > 0])
    assert np.allclose(out[x <= 0], 0.25 * x[x <= 0])

    dx, dslope = layers.prelu_backward(dout, cache, slope)

    def value():
        o, _ = layers.prelu_forward(x, slope)
        return float((o * dout).sum())

    check_grad(value, x, dx)
    # slope is a scalar parameter: perturb it directly
    up, _ = layers.prelu_forward(x, slope + EPS)
    down, _ = layers.prelu_forward(x, slope - EPS)
    numeric = float(((up - down) * dout).sum()) / (2 * EPS)
    assert rel_err(float(dslope), numeric) < TOL
    # analytic identity: the slope gradient collects negative pre-activations
    assert dslope == pytest.approx(float((dout * np.where(x > 0, 0.0, x)).sum()))


def test_dense_gradients():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 3))
    b = rng.standard_normal(3)
    dout = rng.standard_normal((4, 3))
    out, cache = layers.dense_forward(x, w, b)
    assert out.shape == (4, 3)
    dx, dw, db = layers.dense_backward(dout, cache, w)

    def value():
        o, _ = layers.dense_forward(x, w, b)
        return float((o * dout).sum())

    check_grad(value, x, dx)
    check_grad(value, w, dw)
    check_grad(value, b, db)


def test_dropout_is_seeded_and_inverted():
    arch = ArchitectureSpec(dense1_units=50)  # dropout_rate 0.5
    dtype = np.dtype(np.float64)
    mask = _dropout_mask(arch, 200, seed=7, dtype=dtype)
    assert mask.shape == (200, 50) and mask.dtype == dtype
    assert np.array_equal(mask, _dropout_mask(arch, 200, seed=7, dtype=dtype))
    assert not np.array_equal(mask, _dropout_mask(arch, 200, seed=8, dtype=dtype))
    kept = mask > 0
    assert np.all(mask[kept] == 2.0)  # inverted scaling at rate 0.5
    assert np.all(mask[~kept] == 0)
    assert abs(kept.mean() - 0.5) < 0.02


def test_lstm_gradients():
    rng = np.random.default_rng(6)
    t_len, batch, din, hidden = 4, 3, 5, 6
    x = rng.standard_normal((t_len, batch, din))
    wx = rng.standard_normal((din, 4 * hidden)) * 0.4
    wh = rng.standard_normal((hidden, 4 * hidden)) * 0.4
    b = rng.standard_normal(4 * hidden) * 0.1
    h0 = np.zeros((batch, hidden))
    c0 = np.zeros((batch, hidden))
    dhs = rng.standard_normal((t_len, batch, hidden))

    def value():
        hs, _, _ = layers.lstm_forward(x, wx, wh, b, h0, c0)
        return float((hs * dhs).sum())

    hs, _, caches = layers.lstm_forward(x, wx, wh, b, h0, c0)
    din_grad, dwx, dwh, db, _, _ = layers.lstm_backward(dhs, caches, wx, wh)
    check_grad(value, wx, dwx, samples=40, rng=rng)
    check_grad(value, wh, dwh, samples=40, rng=rng)
    check_grad(value, b, db, samples=20, rng=rng)
    check_grad(value, x, din_grad, samples=40, rng=rng)


def test_lstm_hidden_state_threads_between_steps():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 1, 3))
    wx = rng.standard_normal((3, 16)) * 0.4
    wh = rng.standard_normal((4, 16)) * 0.4
    b = np.zeros(16)
    h0 = np.zeros((1, 4))
    c0 = np.zeros((1, 4))
    full, (h2, c2), _ = layers.lstm_forward(x, wx, wh, b, h0, c0)
    step1, (h1, c1), _ = layers.lstm_forward(x[:1], wx, wh, b, h0, c0)
    step2, _, _ = layers.lstm_forward(x[1:], wx, wh, b, h1, c1)
    assert np.allclose(full[0], step1[0])
    assert np.allclose(full[1], step2[0])

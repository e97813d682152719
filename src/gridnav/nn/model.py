"""The double-input Q-network: image trunk, map branch, and action head.

One network maps an (84x84 grayscale frame, 100-cell decision-map raster)
pair to four Q-values ordered (N, S, E, W).  The image trunk is three
conv+pool stages (84 -> 42 -> 21 -> 10 spatially) into two dense layers
producing a 10-wide clutter embedding; the map branch is a single dense
layer with a learnable-slope PReLU keeping 100 features; both concatenate
into a 110-wide feature row feeding the linear head.  The recurrent
variant threads that 110-row through an equally wide LSTM cell before the
head.

Forward passes run the batch through the trunk in small chunks: the im2col
buffers for a full 32-batch blow past the cache hierarchy and more than
double the wall time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import layers

#: Trunk micro-batch size; measured sweet spot for 84x84 inputs.
_CHUNK = 4


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer widths; defaults are the production navigation network."""

    frame_size: int = 84
    conv_channels: tuple[int, int, int] = (32, 64, 64)
    conv_kernels: tuple[int, int, int] = (8, 4, 3)
    dense1_units: int = 256
    image_features: int = 10
    map_cells: int = 100
    map_features: int = 100
    num_actions: int = 4
    dropout_rate: float = 0.5
    recurrent: bool = False

    @property
    def pooled_size(self) -> int:
        size = self.frame_size
        for _ in self.conv_channels:
            size //= 2
        return size

    @property
    def flatten_size(self) -> int:
        return self.pooled_size * self.pooled_size * self.conv_channels[-1]

    @property
    def feature_width(self) -> int:
        return self.image_features + self.map_features

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "ArchitectureSpec":
        # each field's default fixes its type: JSON lists become tuples
        return ArchitectureSpec(**{f.name: type(f.default)(doc[f.name])
                                   for f in fields(ArchitectureSpec)})


@dataclass
class QNetwork:
    arch: ArchitectureSpec
    params: dict[str, np.ndarray] = field(default_factory=dict)


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_network(arch: ArchitectureSpec, seed: int, dtype=np.float32) -> QNetwork:
    """Seeded fan-in-scaled uniform initialisation; biases start at zero."""
    rng = np.random.default_rng(seed)
    p: dict[str, np.ndarray] = {}
    in_ch = 1
    for n, (ch, k) in enumerate(zip(arch.conv_channels, arch.conv_kernels), start=1):
        p[f"conv{n}_k"] = _uniform(rng, (k, k, in_ch, ch), k * k * in_ch, dtype)
        p[f"conv{n}_b"] = np.zeros(ch, dtype=dtype)
        in_ch = ch
    p["dense1_w"] = _uniform(rng, (arch.flatten_size, arch.dense1_units), arch.flatten_size, dtype)
    p["dense1_b"] = np.zeros(arch.dense1_units, dtype=dtype)
    p["dense2_w"] = _uniform(rng, (arch.dense1_units, arch.image_features), arch.dense1_units, dtype)
    p["dense2_b"] = np.zeros(arch.image_features, dtype=dtype)
    p["map_w"] = _uniform(rng, (arch.map_cells, arch.map_features), arch.map_cells, dtype)
    p["map_b"] = np.zeros(arch.map_features, dtype=dtype)
    p["map_slope"] = np.asarray(0.25, dtype=dtype)
    width = arch.feature_width
    if arch.recurrent:
        p["lstm_wx"] = _uniform(rng, (width, 4 * width), width, dtype)
        p["lstm_wh"] = _uniform(rng, (width, 4 * width), width, dtype)
        bias = np.zeros(4 * width, dtype=dtype)
        bias[width : 2 * width] = 1.0  # forget-gate bias
        p["lstm_b"] = bias
    p["head_w"] = _uniform(rng, (width, arch.num_actions), width, dtype)
    p["head_b"] = np.zeros(arch.num_actions, dtype=dtype)
    return QNetwork(arch=arch, params=p)


def clone_params(net: QNetwork) -> QNetwork:
    """Deep copy; the clone is unaffected by later updates to the source."""
    return QNetwork(arch=net.arch, params={k: v.copy() for k, v in net.params.items()})


def _dropout_mask(arch: ArchitectureSpec, rows: int, seed: int, dtype) -> np.ndarray:
    rng = np.random.default_rng(seed)
    keep = rng.random((rows, arch.dense1_units)) >= arch.dropout_rate
    return keep.astype(dtype) / dtype.type(1.0 - arch.dropout_rate)


def _trunk_forward(net: QNetwork, frames: np.ndarray, drop_mask: np.ndarray | None,
                   want_cache: bool):
    """Image trunk for one chunk.  ``frames`` is (B, H, W)."""
    p = net.params
    x = frames[..., None]
    c1, _ = layers.conv2d_forward(x, p["conv1_k"], p["conv1_b"])
    r1, m1 = layers.relu_forward(c1)
    p1, pc1 = layers.maxpool2_forward(r1)
    c2, _ = layers.conv2d_forward(p1, p["conv2_k"], p["conv2_b"])
    r2, m2 = layers.relu_forward(c2)
    p2, pc2 = layers.maxpool2_forward(r2)
    c3, _ = layers.conv2d_forward(p2, p["conv3_k"], p["conv3_b"])
    r3, m3 = layers.relu_forward(c3)
    p3, pc3 = layers.maxpool2_forward(r3)
    flat = p3.reshape(p3.shape[0], -1)
    z1, _ = layers.dense_forward(flat, p["dense1_w"], p["dense1_b"])
    a1, md1 = layers.relu_forward(z1)
    a1d = a1 * drop_mask if drop_mask is not None else a1
    z2, _ = layers.dense_forward(a1d, p["dense2_w"], p["dense2_b"])
    img, md2 = layers.relu_forward(z2)
    cache = None
    if want_cache:
        cache = (x, m1, pc1, p1, m2, pc2, p2, m3, pc3, flat, md1, drop_mask, a1d, md2)
    return img, cache


def _trunk_backward(net: QNetwork, dimg: np.ndarray, cache, grads: dict[str, np.ndarray]):
    p = net.params
    x, m1, pc1, p1, m2, pc2, p2, m3, pc3, flat, md1, drop_mask, a1d, md2 = cache

    dz2 = layers.relu_backward(dimg, md2)
    da1d, dw, db = layers.dense_backward(dz2, a1d, p["dense2_w"])
    grads["dense2_w"] += dw
    grads["dense2_b"] += db
    da1 = da1d * drop_mask if drop_mask is not None else da1d
    dz1 = layers.relu_backward(da1, md1)
    dflat, dw, db = layers.dense_backward(dz1, flat, p["dense1_w"])
    grads["dense1_w"] += dw
    grads["dense1_b"] += db

    dp3 = dflat.reshape(dflat.shape[0], net.arch.pooled_size, net.arch.pooled_size,
                        net.arch.conv_channels[-1])
    dr3 = layers.maxpool2_backward(dp3, pc3)
    dc3 = layers.relu_backward(dr3, m3)
    dp2, dk, db = layers.conv2d_backward(dc3, p2, p["conv3_k"])
    grads["conv3_k"] += dk
    grads["conv3_b"] += db
    dr2 = layers.maxpool2_backward(dp2, pc2)
    dc2 = layers.relu_backward(dr2, m2)
    dp1, dk, db = layers.conv2d_backward(dc2, p1, p["conv2_k"])
    grads["conv2_k"] += dk
    grads["conv2_b"] += db
    dr1 = layers.maxpool2_backward(dp1, pc1)
    dc1 = layers.relu_backward(dr1, m1)
    _, dk, db = layers.conv2d_backward(dc1, x, p["conv1_k"], need_dx=False)
    grads["conv1_k"] += dk
    grads["conv1_b"] += db


def _trunk(net: QNetwork, frames: np.ndarray, drop_mask: np.ndarray | None,
           want_cache: bool):
    """Image trunk over ``_CHUNK``-row chunks: (B, image_features) and the
    per-chunk caches."""
    imgs = []
    chunk_caches = []
    for s in range(0, frames.shape[0], _CHUNK):
        chunk_drop = drop_mask[s : s + _CHUNK] if drop_mask is not None else None
        img, cache = _trunk_forward(net, frames[s : s + _CHUNK], chunk_drop, want_cache)
        imgs.append(img)
        chunk_caches.append(cache)
    return np.concatenate(imgs, axis=0), chunk_caches


def image_features(net: QNetwork, frames: np.ndarray) -> np.ndarray:
    """Eval-mode trunk output, (B, image_features).  Cacheable per frame."""
    dtype = net.params["head_w"].dtype
    img, _ = _trunk(net, np.ascontiguousarray(frames, dtype=dtype), None, want_cache=False)
    return img


def _map_branch(net: QNetwork, rasters: np.ndarray):
    p = net.params
    zm, _ = layers.dense_forward(rasters, p["map_w"], p["map_b"])
    m, _ = layers.prelu_forward(zm, p["map_slope"])
    return m, zm


def _features_forward(net: QNetwork, frames: np.ndarray, rasters: np.ndarray, mode: str,
                      dropout_seed: int, want_cache: bool):
    """Trunk plus map branch: the (B, feature_width) rows the head or the LSTM
    reads, and the ``(chunk_caches, rasters, zm)`` cache of
    :func:`_features_backward`.  ``frames`` and ``rasters`` are flat batches
    already in the parameter dtype."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    drop = (_dropout_mask(net.arch, frames.shape[0], dropout_seed, frames.dtype)
            if mode == "train" else None)
    img, chunk_caches = _trunk(net, frames, drop, want_cache)
    m, zm = _map_branch(net, rasters)
    return np.concatenate([img, m], axis=1), (chunk_caches, rasters, zm)


def _features_backward(net: QNetwork, cache, dfeats: np.ndarray,
                       grads: dict[str, np.ndarray]) -> None:
    """Accumulate the map-branch and trunk gradients of :func:`_features_forward`."""
    chunk_caches, rasters, zm = cache
    p = net.params
    nimg = net.arch.image_features
    dimg = dfeats[:, :nimg]
    dm = dfeats[:, nimg:]
    dzm, dslope = layers.prelu_backward(dm, zm, p["map_slope"])
    grads["map_slope"] += dslope
    _, dw, db = layers.dense_backward(dzm, rasters, p["map_w"])
    grads["map_w"] += dw
    grads["map_b"] += db
    for n, chunk in enumerate(chunk_caches):
        _trunk_backward(net, dimg[n * _CHUNK : n * _CHUNK + _CHUNK], chunk, grads)


def q_from_features(net: QNetwork, img_feats: np.ndarray, rasters: np.ndarray) -> np.ndarray:
    """Head evaluation given precomputed trunk features (feedforward only)."""
    dtype = net.params["head_w"].dtype
    rasters = np.asarray(rasters, dtype=dtype)
    m, _ = _map_branch(net, rasters)
    cat = np.concatenate([img_feats, m], axis=1)
    q, _ = layers.dense_forward(cat, net.params["head_w"], net.params["head_b"])
    return q


def forward(net: QNetwork, frames: np.ndarray, rasters: np.ndarray, mode: str = "eval",
            dropout_seed: int = 0) -> np.ndarray:
    """Q-values (B, num_actions) for a batch of (frame, raster) pairs."""
    q, _ = forward_cached(net, frames, rasters, mode=mode, dropout_seed=dropout_seed,
                          want_cache=False)
    return q


def forward_cached(net: QNetwork, frames: np.ndarray, rasters: np.ndarray, mode: str = "eval",
                   dropout_seed: int = 0, want_cache: bool = True):
    """Forward pass retaining per-chunk caches for :func:`backward`."""
    if net.arch.recurrent:
        raise ValueError("use forward_sequence for recurrent networks")
    dtype = net.params["head_w"].dtype
    frames = np.ascontiguousarray(frames, dtype=dtype)
    rasters = np.ascontiguousarray(rasters, dtype=dtype)
    if frames.shape[1:] != (net.arch.frame_size, net.arch.frame_size):
        raise ValueError(f"frame batch shape {frames.shape} does not match architecture")
    if rasters.shape[1:] != (net.arch.map_cells,):
        raise ValueError(f"raster batch shape {rasters.shape} does not match architecture")

    cat, feat_cache = _features_forward(net, frames, rasters, mode, dropout_seed, want_cache)
    q, _ = layers.dense_forward(cat, net.params["head_w"], net.params["head_b"])
    return q, (*feat_cache, cat) if want_cache else None


def zero_grads(net: QNetwork) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in net.params.items()}


def backward(net: QNetwork, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss with upstream derivative ``dq`` on the Q output."""
    *feat_cache, cat = cache
    grads = zero_grads(net)
    dcat, dw, db = layers.dense_backward(dq, cat, net.params["head_w"])
    grads["head_w"] += dw
    grads["head_b"] += db
    _features_backward(net, feat_cache, dcat, grads)
    return grads


def forward_sequence(net: QNetwork, frames: np.ndarray, rasters: np.ndarray,
                     hidden: tuple[np.ndarray, np.ndarray] | None = None,
                     mode: str = "eval", dropout_seed: int = 0):
    """Recurrent forward over (T, B, ...) sequences.

    Returns (q, (h_T, c_T), cache) with q of shape (T, B, num_actions).
    The same trunk and map branch run per timestep; the concatenated
    feature rows thread through the LSTM whose rectified hidden state
    feeds the head.
    """
    if not net.arch.recurrent:
        raise ValueError("use forward/forward_cached for feedforward networks")
    if frames.ndim != 4:
        raise ValueError("frames must be (T, B, H, W)")
    t_len, batch = frames.shape[0], frames.shape[1]
    if t_len < 1:
        raise ValueError("sequence length must be >= 1")
    dtype = net.params["head_w"].dtype
    frames = np.ascontiguousarray(frames, dtype=dtype).reshape(t_len * batch, *frames.shape[2:])
    rasters = np.ascontiguousarray(rasters, dtype=dtype).reshape(t_len * batch, -1)

    feats, feat_cache = _features_forward(net, frames, rasters, mode, dropout_seed,
                                          want_cache=True)
    feats = feats.reshape(t_len, batch, -1)

    width = net.arch.feature_width
    if hidden is None:
        h0 = np.zeros((batch, width), dtype=dtype)
        c0 = np.zeros((batch, width), dtype=dtype)
    else:
        h0, c0 = hidden
    hs, (h_t, c_t), lstm_cache = layers.lstm_forward(
        feats, net.params["lstm_wx"], net.params["lstm_wh"], net.params["lstm_b"], h0, c0
    )
    rh, rh_mask = layers.relu_forward(hs.reshape(t_len * batch, width))
    q, _ = layers.dense_forward(rh, net.params["head_w"], net.params["head_b"])
    q = q.reshape(t_len, batch, -1)
    cache = (*feat_cache, lstm_cache, rh, rh_mask, (t_len, batch))
    return q, (h_t, c_t), cache


def backward_sequence(net: QNetwork, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients for :func:`forward_sequence`; ``dq`` is (T, B, num_actions)."""
    *feat_cache, lstm_cache, rh, rh_mask, (t_len, batch) = cache
    p = net.params
    grads = zero_grads(net)
    width = net.arch.feature_width

    dq_flat = dq.reshape(t_len * batch, -1)
    drh, dw, db = layers.dense_backward(dq_flat, rh, p["head_w"])
    grads["head_w"] += dw
    grads["head_b"] += db
    dhs = layers.relu_backward(drh, rh_mask).reshape(t_len, batch, width)

    dfeats, dwx, dwh, dbl, _, _ = layers.lstm_backward(
        dhs, lstm_cache, p["lstm_wx"], p["lstm_wh"]
    )
    grads["lstm_wx"] += dwx
    grads["lstm_wh"] += dwh
    grads["lstm_b"] += dbl
    _features_backward(net, feat_cache, dfeats.reshape(t_len * batch, width), grads)
    return grads

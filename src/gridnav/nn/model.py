"""The double-input Q-network: image trunk, map branch, and action head.

One network maps an (84x84 grayscale frame, 100-cell decision-map raster)
pair to four Q-values ordered (N, S, E, W).  The image trunk is three
conv+pool stages (84 -> 42 -> 21 -> 10 spatially) into two dense layers
producing a 10-wide clutter embedding; the map branch is a single dense
layer with a learnable-slope PReLU keeping 100 features; both concatenate
into a 110-wide feature row feeding the linear head.  One forward and one
backward serve both variants, over B traces of T steps (T = 1 for the
feedforward net): trunk and map branch map each step on its own, and only
the recurrent variant's head differs, an equally wide LSTM run along T.

The trunk runs its conv stack once per distinct frame of a pass (a
training batch repeats the frames of steps voided in place: about 13
distinct of 32 on the README task) and keeps one record of it from forward
to backward; ``dense1``, dropout and ``dense2`` run per position, so every
byte is as if no frame were shared.  Every stage runs through one chunk
runner, in chunks of at most ``_CHUNK`` rows side by side on the worker
threads of :mod:`pool`, each at one BLAS thread.  Swept end to end on two
cores, chunks of 2 rows cost about 60 ms more per update than 4; 8 rows
saved at most 5% per update but kept 15-18 MB more resident, since each
worker holds on to its chunk's transient buffers; 16 rows was slower than
4 and kept about 60 MB more.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import layers, pool

#: Trunk micro-batch size: the fastest for 84x84 inputs whose transient
#: buffers still fit the memory budget (see the module docstring).
_CHUNK = 4
#: Smallest frame side whose trunk chunks are worth running on the pool.
_POOL_MIN_FRAME = 32


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
    """An architecture, its parameters, and ``rows``: the eval-mode trunk
    rows this net has computed, keyed by frame digest.  Nothing in ``src/``
    writes a built net's arrays: an update returns a new net and a target
    sync clones one, each with no rows yet, so a net's rows never go stale.
    """

    arch: ArchitectureSpec
    params: dict[str, np.ndarray] = field(default_factory=dict)
    rows: dict[bytes, np.ndarray] = field(default_factory=dict, repr=False, compare=False)


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _layout(arch: ArchitectureSpec) -> list[tuple[str, tuple[int, ...], int]]:
    """Every parameter's name, shape and fan-in, in initialisation order; a
    fan-in of 0 marks a parameter that is not drawn."""
    layout = []
    in_ch = 1
    for n, (ch, k) in enumerate(zip(arch.conv_channels, arch.conv_kernels), start=1):
        layout += [(f"conv{n}_k", (k, k, in_ch, ch), k * k * in_ch), (f"conv{n}_b", (ch,), 0)]
        in_ch = ch
    width = arch.feature_width
    layout += [
        ("dense1_w", (arch.flatten_size, arch.dense1_units), arch.flatten_size),
        ("dense1_b", (arch.dense1_units,), 0),
        ("dense2_w", (arch.dense1_units, arch.image_features), arch.dense1_units),
        ("dense2_b", (arch.image_features,), 0),
        ("map_w", (arch.map_cells, arch.map_features), arch.map_cells),
        ("map_b", (arch.map_features,), 0),
        ("map_slope", (), 0),
    ]
    if arch.recurrent:
        layout += [("lstm_wx", (width, 4 * width), width), ("lstm_wh", (width, 4 * width), width),
                   ("lstm_b", (4 * width,), 0)]
    return layout + [("head_w", (width, arch.num_actions), width),
                     ("head_b", (arch.num_actions,), 0)]


def init_network(arch: ArchitectureSpec, seed: int, dtype=np.float32) -> QNetwork:
    """Seeded fan-in-scaled uniform initialisation; biases start at zero."""
    rng = np.random.default_rng(seed)
    p = {name: _uniform(rng, shape, fan_in, dtype) if fan_in else np.zeros(shape, dtype=dtype)
         for name, shape, fan_in in _layout(arch)}
    p["map_slope"][...] = 0.25
    if arch.recurrent:
        width = arch.feature_width
        p["lstm_b"][width : 2 * width] = 1.0  # forget-gate bias
    return QNetwork(arch=arch, params=p)


def check_params(arch: ArchitectureSpec, params: dict[str, np.ndarray]) -> None:
    """Raise ValueError naming a parameter that :func:`init_network` would
    not build for ``arch``: missing, extra, or of another shape."""
    expected = {name: shape for name, shape, _ in _layout(arch)}
    for name in sorted(expected.keys() | params.keys()):
        if name not in params:
            raise ValueError(f"parameter {name!r} is missing")
        if name not in expected:
            raise ValueError(f"parameter {name!r} is not part of the architecture")
        if params[name].shape != expected[name]:
            raise ValueError(f"parameter {name!r} has shape {params[name].shape}, "
                             f"the architecture needs {expected[name]}")


def clone_params(net: QNetwork) -> QNetwork:
    """Deep copy; the clone is unaffected by later updates to the source."""
    return QNetwork(arch=net.arch, params={k: v.copy() for k, v in net.params.items()})


def _dropout_mask(arch: ArchitectureSpec, rows: int, seed: int, dtype) -> np.ndarray:
    rng = np.random.default_rng(seed)
    keep = rng.random((rows, arch.dense1_units)) >= arch.dropout_rate
    return keep.astype(dtype) / dtype.type(1.0 - arch.dropout_rate)


def _dense_rows(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``x @ weight + bias`` with rows that do not depend on how many share
    the product: numpy's float32 ``@`` rounds a 1-row product (a GEMV)
    differently from the same row inside a GEMM, so a lone row runs as a
    2-row GEMM of itself twice and keeps row 0."""
    z, _ = layers.dense_forward(np.concatenate([x, x]) if len(x) == 1 else x, weight, bias)
    return z[: len(x)]


def _conv_forward(net: QNetwork, frames: np.ndarray, want_cache: bool):
    """Conv+ReLU+pool stages of one chunk of frames (B, H, W): each stage's
    pooled output and pool indices, or only the last stage's without
    ``want_cache``."""
    p = net.params
    act = frames[..., None]
    stages = []
    for n in range(1, len(net.arch.conv_channels) + 1):
        conv, _ = layers.conv2d_forward(act, p[f"conv{n}_k"], p[f"conv{n}_b"])
        act, (_, idx) = layers.maxpool2_forward(np.maximum(conv, 0, out=conv))  # ReLU
        del conv
        stages.append((act, idx))
    return stages if want_cache else stages[-1:]


def _dense_forward(net: QNetwork, flat: np.ndarray, drop_mask: np.ndarray | None,
                   want_cache: bool):
    """``dense1``, dropout and ``dense2`` for one chunk of positions, whose
    flattened last-stage rows are ``flat``."""
    p = net.params
    a1, md1 = layers.relu_forward(_dense_rows(flat, p["dense1_w"], p["dense1_b"]))
    a1d = a1 * drop_mask if drop_mask is not None else a1
    img, md2 = layers.relu_forward(_dense_rows(a1d, p["dense2_w"], p["dense2_b"]))
    return img, (flat, md1, drop_mask, a1d, md2) if want_cache else None


def _trunk_backward(net: QNetwork, dimg: np.ndarray, cache, record,
                    positions: slice) -> list[tuple[str, np.ndarray]]:
    """Trunk gradients of the chunk of ``positions`` whose dense cache is
    ``cache``, as (parameter name, gradient) pairs."""
    p = net.params
    flat, md1, drop_mask, a1d, md2 = cache
    distinct, stages, inverse = record
    rows = inverse[positions]

    dz2 = layers.relu_backward(dimg, md2)
    da1d, dw2, db2 = layers.dense_backward(dz2, a1d, p["dense2_w"])
    da1 = da1d * drop_mask if drop_mask is not None else da1d
    dz1 = layers.relu_backward(da1, md1)
    dflat, dw1, db1 = layers.dense_backward(dz1, flat, p["dense1_w"])
    grads = [("dense2_w", dw2), ("dense2_b", db2), ("dense1_w", dw1), ("dense1_b", db1)]

    size = net.arch.pooled_size
    dact = dflat.reshape(dflat.shape[0], size, size, net.arch.conv_channels[-1])
    pooled = flat.reshape(dact.shape)
    for n in range(len(stages), 0, -1):
        # the stage's input and pool indices at the chunk's positions; the
        # same-padded conv output the pool read is as high and wide as x
        x = stages[n - 2][0][rows] if n > 1 else distinct[rows][..., None]
        idx = stages[n - 1][1][rows]
        # a pooled window's winner is positive exactly where the ReLU under
        # it passed its gradient, so the ReLU mask is the pooled output's sign
        dconv = layers.maxpool2_backward(layers.relu_backward(dact, pooled > 0),
                                         ((*x.shape[:-1], idx.shape[-1]), idx))
        dact, dk, db = layers.conv2d_backward(dconv, x, p[f"conv{n}_k"], need_dx=n > 1)
        grads += [(f"conv{n}_k", dk), (f"conv{n}_b", db)]
        pooled = x
    return grads


def _trunk(net: QNetwork, frames: np.ndarray, drop_mask: np.ndarray | None,
           want_cache: bool):
    """Image trunk: (B, image_features), its record ``(distinct, stages,
    inverse)`` and the caches of its ``_CHUNK``-row position chunks.

    The conv stages run once per distinct frame (equal bytes), in
    :func:`_balanced` chunks.  The record holds the distinct frames, each
    stage's pooled output and pool indices, one row per distinct frame
    (only the last stage's without ``want_cache``), and the distinct frame
    at each position.  ``dense1``, dropout and ``dense2`` then run on the
    positions' flattened rows, per ``_CHUNK`` positions from the front: the
    chunks :func:`_features_backward` sums its gradients over.  A conv row
    never depends on its chunk, nor a dense row on its pass, so every byte
    is what running each position alone would give.

    A pass that a backward follows computes every chunk at one BLAS thread,
    so training rounds the same way on every machine.  A stage of more than
    one chunk of production-sized frames runs its chunks on the pool, also
    at one BLAS thread each.  The rest (action selection, a one-frame miss)
    run inline with the process's BLAS threads."""
    index: dict[bytes, int] = {}
    inverse = np.array([index.setdefault(f.tobytes(), len(index)) for f in frames])
    distinct = frames[np.unique(inverse, return_index=True)[1]]
    chunks = _map(net, lambda rows: _conv_forward(net, distinct[rows], want_cache),
                  _balanced(len(distinct)), want_cache)
    stages = [tuple(np.concatenate(parts) for parts in zip(*stage)) for stage in zip(*chunks)]
    flat = stages[-1][0].reshape(len(distinct), -1)

    def dense(s: int):
        chunk_drop = drop_mask[s : s + _CHUNK] if drop_mask is not None else None
        return _dense_forward(net, flat[inverse[s : s + _CHUNK]], chunk_drop, want_cache)

    results = list(_map(net, dense, range(0, len(frames), _CHUNK), want_cache))
    img = np.concatenate([img for img, _ in results], axis=0)
    return img, (distinct, stages, inverse), [c for _, c in results]


def _balanced(rows: int) -> list[slice]:
    """``rows`` rows as the fewest chunks of at most ``_CHUNK`` rows, near
    equal and larger first, and, past one chunk, as many as the pool's
    workers divide: on two workers 13 rows run as 4, 3, 3, 3 and 5 as 3, 2.
    Up to ``_CHUNK`` rows stay one chunk: split on two cores, 2-4 frames
    took 20-30% longer than one chunk at the process's BLAS threads."""
    count = -(-rows // _CHUNK)
    if count > 1:
        workers = pool.workers()
        count = min(rows, -(-count // workers) * workers)
    size, extra = divmod(rows, count)
    starts = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(starts, starts[1:])]


def _map(net: QNetwork, fn, chunks, want_cache: bool):
    """``fn`` over a trunk stage's ``chunks``, yielding results in chunk order
    as they complete: on the pool past one chunk of frames of at least
    ``_POOL_MIN_FRAME`` pixels a side (smaller chunks finish in about the
    time the workers take to hand the interpreter lock back and forth), at
    one BLAS thread there and whenever a backward follows."""
    on_pool = len(chunks) > 1 and net.arch.frame_size >= _POOL_MIN_FRAME
    if not (on_pool or want_cache):
        yield from map(fn, chunks)
        return
    with pool.one_blas_thread():
        yield from (pool.map_chunks if on_pool else map)(fn, chunks)


def image_features(net: QNetwork, frames: np.ndarray) -> np.ndarray:
    """Eval-mode trunk output, (B, image_features).  Each row is a function
    of its frame and the weights alone, whatever else shares the pass."""
    dtype = net.params["head_w"].dtype
    return _trunk(net, np.ascontiguousarray(frames, dtype=dtype), None, want_cache=False)[0]


def _map_branch(net: QNetwork, rasters: np.ndarray):
    p = net.params
    zm, _ = layers.dense_forward(rasters, p["map_w"], p["map_b"])
    m, _ = layers.prelu_forward(zm, p["map_slope"])
    return m, zm


def _features_forward(net: QNetwork, frames: np.ndarray, rasters: np.ndarray,
                      dropout_seed: int | None):
    """Trunk plus map branch: the (N, feature_width) rows the head reads, and
    the ``(record, chunk_caches, rasters, zm)`` cache of
    :func:`_features_backward`.
    ``frames`` and ``rasters`` are flat row batches already in the parameter
    dtype; with a ``dropout_seed`` (train mode) row n takes dropout row n."""
    drop = (_dropout_mask(net.arch, frames.shape[0], dropout_seed, frames.dtype)
            if dropout_seed is not None else None)
    img, record, chunk_caches = _trunk(net, frames, drop, want_cache=True)
    m, zm = _map_branch(net, rasters)
    return np.concatenate([img, m], axis=1), (record, chunk_caches, rasters, zm)


def _features_backward(net: QNetwork, cache, dfeats: np.ndarray,
                       grads: dict[str, np.ndarray]) -> None:
    """Accumulate the map-branch and trunk gradients of :func:`_features_forward`."""
    record, chunk_caches, rasters, zm = cache
    p = net.params
    nimg = net.arch.image_features
    dimg = dfeats[:, :nimg]
    dm = dfeats[:, nimg:]
    dzm, dslope = layers.prelu_backward(dm, zm, p["map_slope"])
    grads["map_slope"] += dslope
    _, dw, db = layers.dense_backward(dzm, rasters, p["map_w"])
    grads["map_w"] += dw
    grads["map_b"] += db

    def chunk(n: int):
        s = slice(n * _CHUNK, n * _CHUNK + _CHUNK)
        return _trunk_backward(net, dimg[s], chunk_caches[n], record, s)

    # fold each chunk in as it completes, in chunk order, so the sums do not
    # depend on which worker ran which chunk
    for chunk_grads in _map(net, chunk, range(len(chunk_caches)), want_cache=True):
        for name, grad in chunk_grads:
            grads[name] += grad
        del chunk_grads, grad  # not held while the next chunk is awaited


def _time_major(x: np.ndarray) -> np.ndarray:
    """The steps of ``x``, (B, T, ...), as rows in time-major order: step t
    of trace b is row t*B + b."""
    return np.ascontiguousarray(np.swapaxes(x, 0, 1)).reshape(-1, *x.shape[2:])


def _batch_major(rows: np.ndarray, lead: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`_time_major`; ``lead`` is (B, T)."""
    return np.swapaxes(rows.reshape(lead[1], lead[0], -1), 0, 1)


def _head_forward(net: QNetwork, rows: np.ndarray, batch: int, hidden=None):
    """Q-values (T*B, num_actions) of the time-major feature rows (T*B,
    feature_width) of ``batch`` traces, and the cache of
    :func:`_head_backward`.  A recurrent net first runs its LSTM along T from
    ``hidden`` = (h, c), or the zero state, and the head reads its rectified
    hidden states."""
    p = net.params
    mask = lstm_cache = None
    if net.arch.recurrent:
        if hidden is None:
            zeros = np.zeros((batch, rows.shape[1]), dtype=rows.dtype)
            hidden = zeros, zeros
        hs, _, lstm_cache = layers.lstm_forward(rows.reshape(-1, batch, rows.shape[1]),
                                                p["lstm_wx"], p["lstm_wh"], p["lstm_b"], *hidden)
        rows, mask = layers.relu_forward(hs.reshape(rows.shape))
    q, _ = layers.dense_forward(rows, p["head_w"], p["head_b"])
    return q, (rows, mask, lstm_cache)


def _head_backward(net: QNetwork, cache, dq: np.ndarray,
                   grads: dict[str, np.ndarray]) -> np.ndarray:
    """Accumulate the head's (and LSTM's) gradients; returns the gradient on
    the feature rows :func:`_head_forward` read, time-major (T*B, width)."""
    rows, mask, lstm_cache = cache
    p = net.params
    drows, dw, db = layers.dense_backward(dq, rows, p["head_w"])
    grads["head_w"] += dw
    grads["head_b"] += db
    if net.arch.recurrent:
        dhs = layers.relu_backward(drows, mask).reshape(len(lstm_cache), -1, rows.shape[1])
        dfeats, dwx, dwh, dbl, _, _ = layers.lstm_backward(dhs, lstm_cache, p["lstm_wx"],
                                                           p["lstm_wh"])
        grads["lstm_wx"] += dwx
        grads["lstm_wh"] += dwh
        grads["lstm_b"] += dbl
        drows = dfeats.reshape(rows.shape)
    return drows


def q_from_features(net: QNetwork, img_feats: np.ndarray, rasters: np.ndarray) -> np.ndarray:
    """Eval-mode Q-values given precomputed trunk rows: ``img_feats`` (B, T,
    image_features) and ``rasters`` (B, T, map_cells) give (B, T,
    num_actions), as :func:`forward_cached` would."""
    dtype = net.params["head_w"].dtype
    rasters = np.asarray(rasters, dtype=dtype)
    lead = rasters.shape[:-1]
    m, _ = _map_branch(net, _time_major(rasters))
    cat = np.concatenate([_time_major(img_feats), m], axis=1)
    q, _ = _head_forward(net, cat, lead[0])
    return _batch_major(q, lead)


def forward_cached(net: QNetwork, frames: np.ndarray, rasters: np.ndarray,
                   dropout_seed: int | None = None,
                   hidden: tuple[np.ndarray, np.ndarray] | None = None):
    """Q-values of B traces of T steps, and the cache of :func:`backward`.

    ``frames`` is (B, T, H, W) and ``rasters`` (B, T, map_cells); the
    Q-values are (B, T, num_actions).  A ``dropout_seed`` selects train mode,
    None eval mode.  The trunk and map branch run on the steps time-major,
    so step t of trace b takes dropout row t*B + b in train mode.  A
    feedforward net maps every step on its own; a recurrent net runs its
    LSTM along T from ``hidden`` = (h, c), or the zero state.
    """
    arch = net.arch
    dtype = net.params["head_w"].dtype
    frames = np.ascontiguousarray(frames, dtype=dtype)
    rasters = np.ascontiguousarray(rasters, dtype=dtype)
    lead = frames.shape[:-2]
    if frames.ndim != 4 or frames.shape[-2:] != (arch.frame_size, arch.frame_size):
        raise ValueError(f"frame batch shape {frames.shape} does not match architecture")
    if rasters.shape != (*lead, arch.map_cells):
        raise ValueError(f"raster batch shape {rasters.shape} does not match architecture")
    if 0 in lead:
        raise ValueError(f"empty batch of shape {frames.shape}")

    cat, feat_cache = _features_forward(net, _time_major(frames), _time_major(rasters),
                                        dropout_seed)
    q, head_cache = _head_forward(net, cat, lead[0], hidden)
    return _batch_major(q, lead), (feat_cache, head_cache)


def backward(net: QNetwork, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss whose derivative on the Q-values of
    :func:`forward_cached` is ``dq``, shaped like them."""
    feat_cache, head_cache = cache
    grads = {k: np.zeros_like(v) for k, v in net.params.items()}
    dfeats = _head_backward(net, head_cache, _time_major(dq), grads)
    _features_backward(net, feat_cache, dfeats, grads)
    return grads

import contextlib
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import finite_difference, relative_error
from gridnav import nn
from gridnav.nn import layers, model, optim, pool
from gridnav.nn.model import _CHUNK, _POOL_MIN_FRAME


def forward(net, frames, rasters, **kwargs):
    """Q-values of :func:`nn.forward_cached`, without its cache."""
    return nn.forward_cached(net, frames, rasters, **kwargs)[0]


def rand_inputs(arch, batch, seed=0, dtype=np.float64):
    """Frames (B, 1, H, W) and rasters (B, 1, map_cells): B one-step traces."""
    rng = np.random.default_rng(seed)
    frames = rng.uniform(-1, 1, (batch, 1, arch.frame_size, arch.frame_size)).astype(dtype)
    rasters = rng.uniform(-1, 1, (batch, 1, arch.map_cells)).astype(dtype)
    return frames, rasters


class TestArchitecture:
    def test_production_spatial_chain(self):
        arch = nn.ArchitectureSpec()
        assert arch.frame_size == 84
        size = arch.frame_size
        for _ in range(3):
            size //= 2
        assert size == 10 == arch.pooled_size  # 84 -> 42 -> 21 -> 10
        assert arch.flatten_size == 10 * 10 * 64 == 6400

    def test_production_feature_widths(self):
        arch = nn.ArchitectureSpec()
        assert arch.image_features == 10
        assert arch.map_features == 100
        assert arch.feature_width == 110
        assert arch.num_actions == 4
        assert arch.dropout_rate == 0.5
        assert arch.conv_channels == (32, 64, 64)
        assert arch.conv_kernels == (8, 4, 3)
        assert arch.dense1_units == 256

    def test_production_parameter_shapes(self):
        net = nn.init_network(nn.ArchitectureSpec(), seed=0)
        p = net.params
        assert p["conv1_k"].shape == (8, 8, 1, 32)
        assert p["conv2_k"].shape == (4, 4, 32, 64)
        assert p["conv3_k"].shape == (3, 3, 64, 64)
        assert p["dense1_w"].shape == (6400, 256)
        assert p["dense2_w"].shape == (256, 10)
        assert p["map_w"].shape == (100, 100)
        assert p["map_slope"].shape == ()
        assert p["head_w"].shape == (110, 4)

    def test_recurrent_cell_width_matches_concat(self):
        net = nn.init_network(nn.ArchitectureSpec(recurrent=True), seed=0)
        assert net.params["lstm_wx"].shape == (110, 440)
        assert net.params["lstm_wh"].shape == (110, 440)
        assert net.params["lstm_b"].shape == (440,)


class TestForward:
    def test_zero_weights_yield_output_biases(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=0, dtype=np.float64)
        for key in net.params:
            net.params[key] = np.zeros_like(net.params[key])
        net.params["head_b"] = np.array([0.1, -0.2, 0.3, 0.4])
        frames, rasters = rand_inputs(tiny_arch, 3)
        q = forward(net, frames, rasters)
        assert np.allclose(q, np.tile([0.1, -0.2, 0.3, 0.4], (3, 1, 1)))

    def test_eval_mode_is_deterministic(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=1)
        frames, rasters = rand_inputs(tiny_arch, 4)
        a = forward(net, frames, rasters)
        b = forward(net, frames, rasters)
        assert np.array_equal(a, b)

    def test_train_mode_dropout_is_seeded(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=1)
        frames, rasters = rand_inputs(tiny_arch, 4)
        a = forward(net, frames, rasters, dropout_seed=3)
        b = forward(net, frames, rasters, dropout_seed=3)
        c = forward(net, frames, rasters, dropout_seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_map_input_changes_the_output(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=2)
        frames, rasters = rand_inputs(tiny_arch, 2)
        q1 = forward(net, frames, rasters)
        rasters2 = rasters.copy()
        rasters2[:, 0, 0] += 0.5
        q2 = forward(net, frames, rasters2)
        assert not np.allclose(q1, q2)

    def test_shape_mismatch_rejected(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=0)
        frames, rasters = rand_inputs(tiny_arch, 2)
        with pytest.raises(ValueError):
            forward(net, frames[..., :-1, :], rasters)
        with pytest.raises(ValueError):
            forward(net, frames, rasters[..., :-1])
        with pytest.raises(ValueError):  # a batch is B traces of T steps
            forward(net, frames[:, 0], rasters[:, 0])

    def test_feature_split_matches_full_forward(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=3)
        frames, rasters = rand_inputs(tiny_arch, 5)
        feats = nn.image_features(net, frames[:, 0])
        assert feats.shape == (5, tiny_arch.image_features)
        q_split = nn.q_from_features(net, feats[:, None], rasters)
        q_full = forward(net, frames, rasters)
        assert np.allclose(q_split, q_full)

    def test_chunking_is_invisible(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=4)
        frames, rasters = rand_inputs(tiny_arch, 7)  # not a multiple of the chunk
        q = forward(net, frames, rasters)
        singles = np.concatenate(
            [forward(net, frames[i : i + 1], rasters[i : i + 1]) for i in range(7)]
        )
        assert np.allclose(q, singles)


class TestPooledTrunk:
    """Chunks run on the pool, one BLAS thread each, and are summed in chunk
    order, so scheduling never shows in the bytes."""

    @staticmethod
    def one_chunk_at_a_time(fn, frames):
        return np.concatenate([fn(frames[s : s + _CHUNK])
                               for s in range(0, len(frames), _CHUNK)])

    @pytest.mark.parametrize("rows", [1, _CHUNK, _CHUNK + 1, 8 * _CHUNK + 1])
    def test_outputs_match_one_chunk_at_a_time(self, rows):
        arch = nn.ArchitectureSpec()
        net = nn.init_network(arch, seed=rows)
        frames, rasters = rand_inputs(arch, rows, seed=rows, dtype=np.float32)
        ref = self.one_chunk_at_a_time(lambda f: nn.image_features(net, f), frames[:, 0])
        assert nn.image_features(net, frames[:, 0]).tobytes() == ref.tobytes()
        q, _ = nn.forward_cached(net, frames, rasters)
        assert q.tobytes() == nn.q_from_features(net, ref[:, None], rasters).tobytes()

    @pytest.mark.parametrize("one_blas_thread", [False, True])
    def test_a_row_does_not_depend_on_its_pass(self, one_blas_thread):
        # a 1-row product rounds differently from a GEMM row unless the
        # trunk runs it as a GEMM too
        arch = nn.ArchitectureSpec()
        net = nn.init_network(arch, seed=24)
        frames = rand_inputs(arch, 24, seed=24, dtype=np.float32)[0][:, 0]
        whole = nn.image_features(net, frames)
        differing = []
        with pool.one_blas_thread() if one_blas_thread else contextlib.nullcontext():
            for size in range(1, 2 * _CHUNK + 2):
                for offset in (0, 5, 11):
                    rows = nn.image_features(net, frames[offset : offset + size])
                    differing += [(size, offset + i) for i in range(size)
                                  if rows[i].tobytes() != whole[offset + i].tobytes()]
        assert differing == []

    def test_backward_does_not_depend_on_scheduling(self, monkeypatch):
        arch = nn.ArchitectureSpec()
        net = nn.init_network(arch, seed=2)
        frames, rasters = rand_inputs(arch, 8 * _CHUNK + 1, seed=2, dtype=np.float32)

        def grads():
            q, cache = nn.forward_cached(net, frames, rasters, dropout_seed=4)
            return {k: v.tobytes() for k, v in nn.backward(net, cache, np.ones_like(q)).items()}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter between workers often
        try:
            first, second = grads(), grads()
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(pool, "_executor", lambda: None)  # every chunk inline
        assert first == second == grads()

    def test_gradients_across_chunks_match_finite_differences(self, tiny_arch):
        arch = replace(tiny_arch, frame_size=_POOL_MIN_FRAME)  # big enough for the pool
        net = nn.init_network(arch, seed=11, dtype=np.float64)
        frames, rasters = rand_inputs(arch, 2 * _CHUNK + 1, seed=11)
        actions = np.arange(2 * _CHUNK + 1) % arch.num_actions
        targets = np.linspace(-1.0, 1.0, 2 * _CHUNK + 1)

        def loss(params):
            q = forward(nn.QNetwork(arch, params), frames, rasters, dropout_seed=5)
            return nn.mse_loss_grad(q[:, 0], targets, actions)[0]

        q, cache = nn.forward_cached(net, frames, rasters, dropout_seed=5)
        grads = nn.backward(net, cache, nn.mse_loss_grad(q[:, 0], targets, actions)[1][:, None])
        rng = np.random.default_rng(0)
        for key, value in net.params.items():
            for index in rng.choice(value.size, size=min(value.size, 6), replace=False):
                numeric = finite_difference(loss, net.params, key, int(index))
                analytic = float(grads[key].reshape(-1)[index])
                assert relative_error(analytic, numeric) < 1e-4, f"{key}[{index}]"


def per_position_trunk(net, frames, drop_mask, want_cache):
    """The trunk with no frame shared: every position's conv stack runs in
    its ``_CHUNK``-row chunk from the front, one chunk at a time at one BLAS
    thread; its record keeps every position's stages, under an identity
    index."""
    p = net.params
    imgs, chunk_stages, caches = [], [], []
    with pool.one_blas_thread():
        for s in range(0, len(frames), _CHUNK):
            act = frames[s : s + _CHUNK][..., None]
            stages = []
            for n in range(1, len(net.arch.conv_channels) + 1):
                conv, _ = layers.conv2d_forward(act, p[f"conv{n}_k"], p[f"conv{n}_b"])
                act, (_, idx) = layers.maxpool2_forward(np.maximum(conv, 0))
                stages.append((act, idx))
            chunk_stages.append(stages)
            flat = act.reshape(len(act), -1)
            drop = drop_mask[s : s + _CHUNK] if drop_mask is not None else None
            a1, md1 = layers.relu_forward(model._dense_rows(flat, p["dense1_w"], p["dense1_b"]))
            a1d = a1 * drop if drop is not None else a1
            img, md2 = layers.relu_forward(model._dense_rows(a1d, p["dense2_w"], p["dense2_b"]))
            imgs.append(img)
            caches.append((flat, md1, drop, a1d, md2) if want_cache else None)
    stages = [tuple(np.concatenate(parts) for parts in zip(*stage))
              for stage in zip(*chunk_stages)]
    return np.concatenate(imgs), (frames, stages, np.arange(len(frames))), caches


class TestDistinctFrames:
    """The conv stack runs once per distinct frame and its outputs are
    gathered back to the positions, which changes no byte of the Q-values
    or of any gradient."""

    #: which of a few frames each of 9 positions shows: 2*_CHUNK + 1 rows,
    #: so the position chunks end in a one-row chunk
    LAYOUTS = {
        "identical": [0] * 9,
        "distinct": list(range(9)),
        "repeats": [0, 1, 0, 2, 2, 2, 3, 1, 0],
        "repeats_moved": [2, 0, 1, 3, 0, 2, 0, 1, 2],  # the same multiset
    }
    #: three traces of four steps: repeats within a trace and across traces
    RECURRENT = [0, 0, 1, 1, 2, 3, 3, 3, 0, 4, 4, 1]

    @staticmethod
    def q_and_grads(net, frames, rasters, dropout_seed):
        q, cache = nn.forward_cached(net, frames, rasters, dropout_seed=dropout_seed)
        grads = nn.backward(net, cache, np.cos(q))
        return q.tobytes(), {k: v.tobytes() for k, v in grads.items()}

    def assert_matches_per_position(self, monkeypatch, net, frames, rasters):
        for dropout_seed in (None, 6):
            got = self.q_and_grads(net, frames, rasters, dropout_seed)
            with monkeypatch.context() as patched:
                patched.setattr(model, "_trunk", per_position_trunk)
                want = self.q_and_grads(net, frames, rasters, dropout_seed)
            assert got[0] == want[0]
            assert [k for k in want[1] if got[1][k] != want[1][k]] == []

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_the_per_position_trunk(self, monkeypatch, layout):
        arch = nn.ArchitectureSpec()
        net = nn.init_network(arch, seed=8)
        frames, rasters = rand_inputs(arch, 9, seed=8, dtype=np.float32)
        frames = frames[self.LAYOUTS[layout]]
        self.assert_matches_per_position(monkeypatch, net, frames, rasters)

    def test_a_recurrent_batch_matches_the_per_position_trunk(self, monkeypatch):
        arch = nn.ArchitectureSpec(recurrent=True)
        net = nn.init_network(arch, seed=9)
        frames, rasters = rand_inputs(arch, 12, seed=9, dtype=np.float32)
        frames = frames[self.RECURRENT, 0].reshape(3, 4, *frames.shape[-2:])
        self.assert_matches_per_position(monkeypatch, net, frames, rasters.reshape(3, 4, -1))

    @pytest.mark.parametrize("layout", [*LAYOUTS, "recurrent"])
    def test_the_record_holds_one_row_per_distinct_frame(self, tiny_arch, tiny_recurrent_arch,
                                                         layout):
        if layout == "recurrent":
            arch, shown, lead = tiny_recurrent_arch, self.RECURRENT, (3, 4)
        else:
            arch, shown, lead = tiny_arch, self.LAYOUTS[layout], (9, 1)
        net = nn.init_network(arch, seed=3)
        frames, rasters = rand_inputs(arch, len(shown), seed=3, dtype=np.float32)
        frames = frames[shown, 0].reshape(*lead, *frames.shape[-2:])
        _, ((record, *_), _) = nn.forward_cached(net, frames, rasters.reshape(*lead, -1),
                                                 dropout_seed=2)
        distinct, stages, inverse = record
        assert len(distinct) == len(set(shown))
        assert len(stages) == len(arch.conv_channels)
        assert {len(a) for stage in stages for a in stage} == {len(distinct)}
        assert distinct[inverse].tobytes() == model._time_major(frames).tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_the_conv_stack_runs_once_per_distinct_frame(self, monkeypatch, tiny_arch, layout):
        net = nn.init_network(tiny_arch, seed=1)
        frames, rasters = rand_inputs(tiny_arch, 9, seed=1, dtype=np.float32)
        frames = frames[self.LAYOUTS[layout]]
        rows = []
        conv2d_forward = layers.conv2d_forward

        def counted(x, kernel, bias):
            rows.append(len(x))
            return conv2d_forward(x, kernel, bias)

        monkeypatch.setattr(layers, "conv2d_forward", counted)
        nn.forward_cached(net, frames, rasters, dropout_seed=2)
        stages = len(tiny_arch.conv_channels)
        assert sum(rows) == stages * len(set(self.LAYOUTS[layout]))

    @pytest.mark.parametrize("rows, workers, sizes", [
        (13, 2, [4, 3, 3, 3]), (5, 2, [3, 2]), (1, 2, [1]), (3, 2, [3]), (4, 2, [4]),
        (32, 2, [4] * 8), (33, 2, [4, 4, 4] + [3] * 7), (13, 1, [4, 3, 3, 3]), (4, 1, [4]),
    ])
    def test_conv_chunks_are_balanced(self, monkeypatch, rows, workers, sizes):
        monkeypatch.setattr(pool, "workers", lambda: workers)
        chunks = model._balanced(rows)
        assert [c.stop - c.start for c in chunks] == sizes
        assert chunks[0].start == 0 and chunks[-1].stop == rows
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))


class TestRecurrent:
    """Recurrent nets read B traces of T steps, (B, T, ...)."""

    def test_single_step_matches_longer_sequence_prefix(self, tiny_recurrent_arch):
        net = nn.init_network(tiny_recurrent_arch, seed=0, dtype=np.float64)
        rng = np.random.default_rng(1)
        frames = rng.uniform(-1, 1, (2, 3, 8, 8))
        rasters = rng.uniform(-1, 1, (2, 3, 4))
        q_full = forward(net, frames, rasters)
        q_one = forward(net, frames[:, :1], rasters[:, :1])
        assert q_full.shape == (2, 3, 4)
        assert np.allclose(q_full[:, 0], q_one[:, 0])

    def test_hidden_state_carries_across_calls(self, tiny_recurrent_arch):
        net = nn.init_network(tiny_recurrent_arch, seed=0, dtype=np.float64)
        rng = np.random.default_rng(2)
        frames = rng.uniform(-1, 1, (1, 4, 8, 8))
        rasters = rng.uniform(-1, 1, (1, 4, 4))
        q_full, cache = nn.forward_cached(net, frames, rasters)
        _, _, lstm_cache = cache[1]
        hidden = lstm_cache[2][1:3]  # the (h, c) that step 2 starts from
        q_rest = forward(net, frames[:, 2:], rasters[:, 2:], hidden=hidden)
        assert np.allclose(q_full[:, 2:], q_rest)
        assert not np.allclose(q_full[:, 2:], forward(net, frames[:, 2:], rasters[:, 2:]))

    def test_silenced_memory_makes_steps_independent(self, tiny_recurrent_arch):
        # Zeroed recurrent weights alone still leak history through the cell
        # state; shutting the forget gate kills that path too.
        net = nn.init_network(tiny_recurrent_arch, seed=0, dtype=np.float64)
        width = tiny_recurrent_arch.feature_width
        net.params["lstm_wh"] = np.zeros_like(net.params["lstm_wh"])
        net.params["lstm_b"][width : 2 * width] = -30.0
        rng = np.random.default_rng(3)
        shared = rng.uniform(-1, 1, (1, 1, 8, 8)), rng.uniform(-1, 1, (1, 1, 4))
        hist_a = rng.uniform(-1, 1, (1, 2, 8, 8)), rng.uniform(-1, 1, (1, 2, 4))
        hist_b = rng.uniform(-1, 1, (1, 2, 8, 8)), rng.uniform(-1, 1, (1, 2, 4))
        qa = forward(net, np.concatenate([hist_a[0], shared[0]], axis=1),
                     np.concatenate([hist_a[1], shared[1]], axis=1))
        qb = forward(net, np.concatenate([hist_b[0], shared[0]], axis=1),
                     np.concatenate([hist_b[1], shared[1]], axis=1))
        assert np.allclose(qa[:, 2], qb[:, 2], atol=1e-9)

    def test_repeated_input_settles_toward_a_fixed_point(self, tiny_recurrent_arch):
        net = nn.init_network(tiny_recurrent_arch, seed=5, dtype=np.float64)
        rng = np.random.default_rng(6)
        frame = rng.uniform(-1, 1, (1, 1, 8, 8))
        raster = rng.uniform(-1, 1, (1, 1, 4))
        frames = np.repeat(frame, 8, axis=1)
        rasters = np.repeat(raster, 8, axis=1)
        _, cache = nn.forward_cached(net, frames, rasters)
        _, _, lstm_cache = cache[1]
        hs = np.stack([c[1] for c in lstm_cache[1:]] + [lstm_cache[-1][1]])
        # consecutive hidden-state deltas shrink as the state settles
        deltas = [np.linalg.norm(hs[t + 1] - hs[t]) for t in range(len(hs) - 1)]
        assert all(d2 <= d1 + 1e-9 for d1, d2 in zip(deltas, deltas[1:]))

    def test_empty_sequence_rejected(self, tiny_recurrent_arch):
        net = nn.init_network(tiny_recurrent_arch, seed=0)
        with pytest.raises(ValueError):
            nn.forward_cached(net, np.zeros((1, 0, 8, 8)), np.zeros((1, 0, 4)))


class TestClone:
    def test_clone_is_isolated(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=7)
        clone = nn.clone_params(net)
        net.params["head_b"] += 1.0
        assert np.all(clone.params["head_b"] == 0.0)

    def test_clone_of_clone_equals_original(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=7)
        clone2 = nn.clone_params(nn.clone_params(net))
        for key in net.params:
            assert np.array_equal(clone2.params[key], net.params[key])

    def test_clone_forward_matches(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=8)
        clone = nn.clone_params(net)
        frames, rasters = rand_inputs(tiny_arch, 3)
        assert np.array_equal(
            forward(net, frames, rasters), forward(clone, frames, rasters)
        )


class TestAdam:
    def test_defaults_match_training_setup(self):
        state = nn.init_adam({"w": np.zeros(3)})
        assert state.learning_rate == 0.001
        assert (optim.BETA1, optim.BETA2, optim.EPSILON) == (0.9, 0.999, 1e-8)

    def test_zero_gradient_is_identity(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = nn.init_adam(params)
        new_params, new_state = nn.adam_step(params, {"w": np.zeros(3)}, state)
        assert np.array_equal(new_params["w"], params["w"])
        assert new_state.step == 1

    def test_first_step_hand_calculation(self):
        # scalar parameter 1.0, gradient 0.5: bias correction makes the very
        # first update lr * g / (|g| + eps) = 0.001
        params = {"w": np.array([1.0])}
        state = nn.init_adam(params)
        new_params, _ = nn.adam_step(params, {"w": np.array([0.5])}, state)
        assert new_params["w"][0] == pytest.approx(1.0 - 0.001 * (0.5 / (0.5 + 1e-8)),
                                                   abs=1e-12)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        params = {"w": np.array([0.0])}
        state = nn.init_adam(params)
        grad = {"w": np.array([0.37])}
        prev = params["w"][0]
        for _ in range(300):
            params, state = nn.adam_step(params, grad, state)
        step_size = abs(params["w"][0] - prev) / 300
        assert step_size == pytest.approx(0.001, rel=0.05)

    def test_mismatched_keys_rejected(self):
        params = {"w": np.zeros(2)}
        state = nn.init_adam(params)
        with pytest.raises(ValueError):
            nn.adam_step(params, {"v": np.zeros(2)}, state)


class TestLoss:
    def test_equal_pred_and_target_gives_zero(self):
        pred = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert nn.mse_loss_grad(pred, pred[:, 2], np.array([2]))[0] == 0.0

    def test_single_sample_arithmetic(self):
        pred = np.array([[1.0, 0.0, 0.0, 0.0]])
        target = np.array([0.0])
        assert nn.mse_loss_grad(pred, target, np.array([0]))[0] == 1.0

    def test_mean_over_batch(self):
        pred = np.array([[1.0, 0, 0, 0], [0.0, 0, 0, 0]])
        target = np.array([0.0, 0.0])
        assert nn.mse_loss_grad(pred, target, np.array([0, 0]))[0] == 0.5

    def test_non_taken_actions_do_not_contribute(self):
        pred = np.array([[1.0, 99.0, -99.0, 42.0]])
        target = np.array([1.0])
        assert nn.mse_loss_grad(pred, target, np.array([0]))[0] == 0.0
        _, dpred = nn.mse_loss_grad(pred, target, np.array([0]))
        assert np.all(dpred[:, 1:] == 0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            nn.mse_loss_grad(np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=int))


class TestCheckpoint:
    def test_round_trip_with_adam(self, tmp_path, tiny_arch):
        net = nn.init_network(tiny_arch, seed=9)
        adam = nn.init_adam(net.params)
        grads = {k: np.ones_like(v) * 0.01 for k, v in net.params.items()}
        new_params, adam = nn.adam_step(net.params, grads, adam)
        net = nn.QNetwork(arch=tiny_arch, params=new_params)

        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, net, adam, extra={"rule": "eddqn"})
        restored, adam2, extra = nn.load_checkpoint(path)
        assert extra == {"rule": "eddqn"}
        assert restored.arch == tiny_arch
        for key in net.params:
            assert np.array_equal(restored.params[key], net.params[key])
        assert adam2.step == adam.step
        for key in adam.m:
            assert np.array_equal(adam2.m[key], adam.m[key])
            assert np.array_equal(adam2.v[key], adam.v[key])

    def test_architecture_tag(self, tmp_path, tiny_arch, tiny_recurrent_arch):
        import json
        for arch, tag in ((tiny_arch, "feedforward"), (tiny_recurrent_arch, "recurrent")):
            path = tmp_path / f"{tag}.npz"
            nn.save_checkpoint(path, nn.init_network(arch, seed=0))
            with np.load(path) as data:
                meta = json.loads(bytes(data["meta"]).decode())
            assert meta["architecture"] == tag

    def test_restored_network_predicts_identically(self, tmp_path, tiny_arch):
        net = nn.init_network(tiny_arch, seed=10)
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, net)
        restored, _, _ = nn.load_checkpoint(path)
        frames, rasters = rand_inputs(tiny_arch, 3)
        assert np.array_equal(
            forward(net, frames, rasters), forward(restored, frames, rasters)
        )

"""Acceptance suite: one test per release criterion, cheap ones first.

Each test prints a ``ACCEPTANCE n (<name>): PASS`` line once its assertions
hold (run with ``-s`` or ``-rP`` to see them); a failing criterion fails
its test in the usual pytest way.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gridnav import nn
from gridnav.agent import (
    Agent,
    AgentConfig,
    NavigationEnv,
    PolicyDecision,
    UpdateRule,
    correct_action,
    epsilon_greedy,
    run_exploitation_phase,
    run_exploration_phase,
)
from gridnav.cli import main as cli_main
from gridnav.harness import (
    MissionSpec,
    decay_experiment,
    mission_reports_to_json,
    run_mission,
)
from gridnav.mapping import (
    ACTIONS,
    ACTION_DELTAS,
    Action,
    BOUNDARY_RING,
    BoxedInError,
    CellState,
    GridCoord,
    global_to_local,
    in_local_bounds,
    local_to_global,
    mark_blocked,
    move,
    render_decision_map,
    retarget,
    spawn_local_map,
    valid_action_mask,
    REWARD_BLOCKED,
    REWARD_INVALID,
    REWARD_REACHED,
    REWARD_VALID,
    REWARD_VISITED,
)
from gridnav.world import (
    Domain,
    WeatherCondition,
    WeatherKind,
    WorldSpec,
    generate_world,
    sense_obstacles,
)


def ok(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS")


# --------------------------------------------------------------------------
# 1. Reward exactness
# --------------------------------------------------------------------------


def test_criterion_1_reward_exactness():
    world = (100, 100)
    local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 90), world)

    def after(local, *actions):
        for action in actions:
            local = move(local, action)[1]
        return local

    # the target cell: one step east of the agent
    assert move(spawn_local_map(GridCoord(50, 50), GridCoord(50, 51), world),
                Action.EAST)[0] == 1.0

    blocked = mark_blocked(local, [GridCoord(49, 50)])
    assert move(blocked, Action.NORTH) == (-1.50, None)

    assert move(after(local, Action.NORTH), Action.SOUTH)[0] == -0.25

    assert move(local, Action.SOUTH)[0] == -0.04

    # off the window's top row, still inside the world
    assert move(after(local, *[Action.NORTH] * 5), Action.NORTH) == (-0.75, None)

    # into a clipped border cell, beyond the world's top row
    border = spawn_local_map(GridCoord(0, 50), GridCoord(90, 50), world)
    assert border.cells[4, 5] == CellState.BLOCKED
    assert move(border, Action.NORTH) == (-0.75, None)

    # the target cell wins over a visited one
    revisit = retarget(after(local, Action.NORTH), GridCoord(50, 50))
    assert move(revisit, Action.SOUTH)[0] == 1.0

    assert (REWARD_REACHED, REWARD_BLOCKED, REWARD_VISITED, REWARD_VALID,
            REWARD_INVALID) == (1.0, -1.50, -0.25, -0.04, -0.75)
    ok(1, "reward exactness")


# --------------------------------------------------------------------------
# 2. Hyperparameter fidelity
# --------------------------------------------------------------------------


def test_criterion_2_hyperparameter_fidelity():
    config = AgentConfig()
    assert config.epsilon_train == 0.1
    assert config.epsilon_test == 0.05
    assert config.gamma == 0.95
    assert config.replay_capacity == 800
    assert config.target_sync_every == 10
    assert config.learning_rate == 0.001
    assert config.batch_size == 32
    ok(2, "hyperparameter fidelity")


# --------------------------------------------------------------------------
# 3. Gradient oracle
# --------------------------------------------------------------------------

EPS = 1e-5
GRAD_TOL = 1e-4


def _check_all_gradients(loss_fn, params, grads):
    worst = 0.0
    for key, grad in grads.items():
        flat_g = np.atleast_1d(np.asarray(grad)).reshape(-1)
        base = params[key]
        flat_p = np.atleast_1d(base).reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + EPS
            up = loss_fn(params)
            flat_p[i] = orig - EPS
            down = loss_fn(params)
            flat_p[i] = orig
            numeric = (up - down) / (2 * EPS)
            analytic = float(flat_g[i])
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
            assert err < GRAD_TOL, f"{key}[{i}]: {analytic} vs {numeric}"
    return worst


def test_criterion_3_gradient_oracle():
    started = time.time()
    arch = nn.ArchitectureSpec(frame_size=12, conv_channels=(2, 3, 3),
                               conv_kernels=(8, 4, 3), dense1_units=8,
                               image_features=4, map_cells=6, map_features=5)
    worst = 0.0
    for seed in range(14):
        rng = np.random.default_rng(seed)
        net = nn.init_network(arch, seed=seed, dtype=np.float64)
        frames = rng.uniform(-1, 1, (2, 1, 12, 12))  # 2 one-step traces
        rasters = rng.uniform(-1, 1, (2, 1, 6))
        actions = rng.integers(0, 4, 2)
        targets = rng.uniform(-1, 1, 2)
        dropout_seed = seed if seed % 2 else None  # exercise the dropout path too

        def loss_fn(params, _s=dropout_seed):
            probe = nn.QNetwork(arch=arch, params=params)
            q, _ = nn.forward_cached(probe, frames, rasters, dropout_seed=_s)
            return nn.mse_loss_grad(q[:, 0], targets, actions)[0]

        q, cache = nn.forward_cached(net, frames, rasters, dropout_seed=dropout_seed)
        _, dq = nn.mse_loss_grad(q[:, 0], targets, actions)
        grads = nn.backward(net, cache, dq[:, None])
        worst = max(worst, _check_all_gradients(loss_fn, net.params, grads))

    arch_r = replace(arch, recurrent=True, conv_kernels=(3, 3, 3))
    for seed in range(14, 20):
        rng = np.random.default_rng(seed)
        net = nn.init_network(arch_r, seed=seed, dtype=np.float64)
        frames = rng.uniform(-1, 1, (2, 3, 12, 12))  # 2 traces of 3 steps
        rasters = rng.uniform(-1, 1, (2, 3, 6))
        actions = rng.integers(0, 4, (2, 3))
        targets = rng.uniform(-1, 1, (2, 3))

        def loss_fn(params):
            probe = nn.QNetwork(arch=arch_r, params=params)
            q, _ = nn.forward_cached(probe, frames, rasters)
            taken = np.take_along_axis(q, actions[..., None], axis=2)[..., 0]
            return float(np.mean((taken - targets) ** 2))

        q, cache = nn.forward_cached(net, frames, rasters)
        taken = np.take_along_axis(q, actions[..., None], axis=2)[..., 0]
        dq = np.zeros_like(q)
        np.put_along_axis(dq, actions[..., None],
                          (2.0 * (taken - targets) / targets.size)[..., None], axis=2)
        grads = nn.backward(net, cache, dq)
        worst = max(worst, _check_all_gradients(loss_fn, net.params, grads))

    elapsed = time.time() - started
    assert elapsed < 120, f"gradient oracle took {elapsed:.0f}s"
    print(f"\n  gradient oracle: 20 seeds, worst relative error {worst:.2e}, "
          f"{elapsed:.0f}s")
    ok(3, "gradient oracle")


# --------------------------------------------------------------------------
# 4. Decay reproduction
# --------------------------------------------------------------------------


def test_criterion_4_decay_reproduction():
    started = time.time()
    ddqn = decay_experiment(UpdateRule.DDQN, gamma=0.95, alpha=0.5, updates=500)
    eddqn = decay_experiment(UpdateRule.EDDQN, gamma=0.95, alpha=0.5, updates=500)

    assert abs(ddqn[-1] - (-0.8)) < 1e-3
    assert abs(eddqn[-1] - (-0.0205128)) < 1e-3
    assert eddqn.min() >= -0.05
    assert eddqn.max() <= 0.0
    assert np.all(np.diff(ddqn) <= 1e-15)
    assert time.time() - started < 5
    ok(4, "decay reproduction")


# --------------------------------------------------------------------------
# 5. Architecture shape
# --------------------------------------------------------------------------


def test_criterion_5_architecture_shape():
    arch = nn.ArchitectureSpec()
    assert arch.image_features == 10
    assert arch.map_features == 100
    assert arch.feature_width == 110
    assert arch.num_actions == 4
    assert arch.pooled_size == 10 and arch.flatten_size == 6400

    net = nn.init_network(arch, seed=0)
    assert net.params["dense2_w"].shape == (256, 10)
    assert net.params["map_w"].shape == (100, 100)
    assert net.params["head_w"].shape == (110, 4)

    rec = nn.init_network(nn.ArchitectureSpec(recurrent=True), seed=0)
    assert rec.params["lstm_wx"].shape == (110, 4 * 110)
    assert rec.params["lstm_wh"].shape == (110, 4 * 110)
    ok(5, "architecture shape")


# --------------------------------------------------------------------------
# 6. Correction-policy oracle
# --------------------------------------------------------------------------


def test_criterion_6_correction_policy_oracle():
    started = time.time()
    rng = np.random.default_rng(606)
    world_shape = (60, 60)
    checked = 0
    boxed = 0
    while checked + boxed < 10_000:
        agent = GridCoord(int(rng.integers(0, 60)), int(rng.integers(0, 60)))
        goal = GridCoord(int(rng.integers(0, 60)), int(rng.integers(0, 60)))
        local = spawn_local_map(agent, goal, world_shape)
        blocked = [
            local_to_global(local, GridCoord(int(rng.integers(0, 10)),
                                             int(rng.integers(0, 10))))
            for _ in range(int(rng.integers(0, 14)))
        ]
        local = mark_blocked(local, blocked)
        predicted = Action(int(rng.integers(0, 4)))

        mask = valid_action_mask(local)
        if not mask.any():
            with pytest.raises(BoxedInError):
                correct_action(local, predicted, mask)
            boxed += 1
            continue

        got_action, got_label = correct_action(local, predicted, mask)

        # oracle: exhaustive argmin over the valid actions
        if mask[predicted]:
            expected = (predicted, PolicyDecision.PREDICTED)
        else:
            best, best_d = None, None
            for action in ACTIONS:
                if not mask[action]:
                    continue
                dr, dc = ACTION_DELTAS[action]
                d = math.hypot(local.agent_local.row + dr - local.target_cell.row,
                               local.agent_local.col + dc - local.target_cell.col)
                if best_d is None or d < best_d:
                    best, best_d = action, d
            expected = (best, PolicyDecision.CORRECTED)
        assert (got_action, got_label) == expected
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 10, f"correction oracle took {elapsed:.1f}s"
    print(f"\n  correction oracle: {checked} instances (+{boxed} boxed-in), "
          f"{elapsed:.1f}s")
    ok(6, "correction-policy oracle")


# --------------------------------------------------------------------------
# 7. T_cell oracle
# --------------------------------------------------------------------------


def test_criterion_7_target_cell_oracle():
    started = time.time()
    rng = np.random.default_rng(707)
    for _ in range(10_000):
        height = int(rng.integers(8, 80))
        width = int(rng.integers(8, 80))
        agent = GridCoord(int(rng.integers(0, height)), int(rng.integers(0, width)))
        goal = GridCoord(int(rng.integers(0, height)), int(rng.integers(0, width)))
        local = spawn_local_map(agent, goal, (height, width))

        goal_local = global_to_local(local, goal)
        if in_local_bounds(goal_local) and local.cells[goal_local] != CellState.BLOCKED:
            expected = goal_local
        else:
            best, best_d = None, None
            for cell in BOUNDARY_RING:  # row-major, first minimum wins ties
                if local.cells[cell] == CellState.BLOCKED:
                    continue
                d = math.dist(local_to_global(local, cell), goal)
                if best_d is None or d < best_d:
                    best, best_d = cell, d
            expected = best
        assert local.target_cell == expected
    elapsed = time.time() - started
    assert elapsed < 10, f"target-cell oracle took {elapsed:.1f}s"
    print(f"\n  target-cell oracle: 10000 instances, {elapsed:.1f}s")
    ok(7, "target-cell oracle")


# --------------------------------------------------------------------------
# 8. Safety invariant (with an independent route-replay verifier)
# --------------------------------------------------------------------------


def replay_route_and_verify(report, world, start, goal):
    """Replay the mission's map evolution from its route and assert that
    every move entered a cell the decision map held as free or visited."""
    if not report.route:
        return
    assert report.route[0] == start
    local = spawn_local_map(start, goal, world.shape)
    local = mark_blocked(local, sense_obstacles(world, start))
    if local.cells[local.target_cell] == CellState.BLOCKED:
        local = retarget(local, goal)
    for here, there in zip(report.route, report.route[1:]):
        delta = (there.row - here.row, there.col - here.col)
        action = next(a for a in ACTIONS if ACTION_DELTAS[a] == delta)
        assert move(local, action)[1] is not None, (
            f"move {here} -> {there} entered a hard-constrained cell"
        )
        dest_local = global_to_local(local, there)
        assert local.cells[dest_local] in (CellState.FREE, CellState.VISITED)
        local = move(local, action)[1]
        local = mark_blocked(local, sense_obstacles(world, there))
        if local.cells[local.target_cell] == CellState.BLOCKED:
            local = retarget(local, goal)
        if local.agent_local == local.target_cell and there != goal:
            local = spawn_local_map(there, goal, world.shape)
            local = mark_blocked(local, sense_obstacles(world, there))
            if local.cells[local.target_cell] == CellState.BLOCKED:
                local = retarget(local, goal)


@pytest.fixture(scope="module")
def small_checkpoint_arch():
    return nn.ArchitectureSpec(frame_size=12, conv_channels=(3, 4, 4),
                               conv_kernels=(8, 4, 3), dense1_units=12,
                               image_features=6, map_features=16)


def test_criterion_8_safety_invariant(small_checkpoint_arch):
    config = AgentConfig(online_train_interval=6, batch_size=16, mission_step_budget=260)
    conditions = [
        WeatherCondition(WeatherKind.CLEAR, 0.0),
        WeatherCondition(WeatherKind.SNOW, 0.15),
        WeatherCondition(WeatherKind.DUST, 0.30),
        WeatherCondition(WeatherKind.FOG, 0.30),
    ]
    missions = 0
    for i, weather in enumerate(conditions * 3):
        world_spec = WorldSpec(domain=Domain.FOREST, width_m=16, height_m=16,
                               obstacle_density=8.0, seed=800 + i)
        start, goal = GridCoord(1, 1), GridCoord(14, 14)
        world = generate_world(world_spec, start=start, goal=goal)
        env = NavigationEnv(world=world, start=start, goal=goal)
        agent = Agent.new(config, seed=i, arch=small_checkpoint_arch)
        r = run_exploitation_phase(env, agent, seed=900 + i, weather=weather)
        assert r.predictions + r.corrections + r.random == r.time_s
        assert r.time_s == len(r.route) - 1
        replay_route_and_verify(r, world, start, goal)
        missions += 1
    print(f"\n  safety invariant verified over {missions} missions")
    ok(8, "safety invariant")

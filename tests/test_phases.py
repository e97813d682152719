import math

import numpy as np
import pytest

from gridnav import mapping
from gridnav.agent import phases, policy, replay
from gridnav.agent import (
    Agent,
    AgentConfig,
    NavigationEnv,
    TRAINING_LOG_COLUMNS,
    run_exploitation_phase,
    run_exploration_phase,
    write_training_log,
)
from gridnav.mapping import Action, GridCoord, move, valid_action_mask
from gridnav.world import (
    Domain,
    WeatherCondition,
    WeatherKind,
    WorldSpec,
    apply_weather,
    generate_world,
    occupied_cells,
    render_frame,
    sense_obstacles,
)

from conftest import Disc, world_of


def corridor_world(length=2):
    """1 x length strip with no obstacles: from any spawn, the only valid
    moves run along the strip and the goal is always inside the window."""
    spec = WorldSpec(domain=Domain.PLAIN, width_m=length, height_m=1,
                     obstacle_density=0.0, seed=0)
    return world_of(spec, [])


def train(env, config, seed, arch):
    """Episode logs and convergence of a fresh agent trained on ``env``."""
    return run_exploration_phase(env, Agent.new(config, seed=seed, arch=arch), seed=seed)


class TestExplorationPhase:
    def test_streak_stop_on_a_trivial_task(self, phase_arch):
        # every episode ends at the goal within a step, so the streak
        # criterion fires exactly at the streak length
        world = corridor_world(2)
        env = NavigationEnv(world=world, start=GridCoord(0, 0), goal=GridCoord(0, 1))
        config = AgentConfig(max_episodes=200, success_streak=50, epsilon_train=1.0,
                             max_steps_per_episode=5)
        episodes, converged = train(env, config, seed=0, arch=phase_arch)
        assert converged
        assert len(episodes) == 50
        assert episodes[-1].streak == 50

    def test_episode_cap_is_exact(self, phase_arch, small_world):
        env = NavigationEnv(world=small_world, start=GridCoord(1, 1),
                            goal=GridCoord(8, 8))
        config = AgentConfig(max_episodes=7, success_streak=50,
                             max_steps_per_episode=10)
        episodes, converged = train(env, config, seed=1, arch=phase_arch)
        assert not converged
        assert len(episodes) == 7

    def test_logs_carry_streaks_and_rewards(self, phase_arch, small_world):
        env = NavigationEnv(world=small_world, start=GridCoord(1, 1),
                            goal=GridCoord(8, 8))
        config = AgentConfig(max_episodes=6, success_streak=50,
                             max_steps_per_episode=20)
        episodes, _ = train(env, config, seed=2, arch=phase_arch)
        streak = 0
        for i, log in enumerate(episodes, start=1):
            assert log.episode == i
            streak = streak + 1 if log.success else 0
            assert log.streak == streak
            assert log.steps <= 20
            assert math.isfinite(log.reward_sum)

    def test_training_log_csv(self, tmp_path, phase_arch, small_world):
        env = NavigationEnv(world=small_world, start=GridCoord(1, 1),
                            goal=GridCoord(8, 8))
        config = AgentConfig(max_episodes=3, success_streak=50,
                             max_steps_per_episode=10)
        episodes, _ = train(env, config, seed=3, arch=phase_arch)
        path = tmp_path / "log.csv"
        write_training_log(episodes, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRAINING_LOG_COLUMNS)
        assert len(lines) == 4

    def test_a_nan_loss_is_logged_as_nan(self, tmp_path, phase_arch, small_world, monkeypatch):
        # an empty cell means that no update ran, so a NaN loss must not read as one
        train_step = phases.train_step

        def nan_loss(*args):
            result = train_step(*args)
            return None if result is None else (*result[:2], math.nan)

        monkeypatch.setattr(phases, "train_step", nan_loss)
        env = NavigationEnv(world=small_world, start=GridCoord(1, 1),
                            goal=GridCoord(8, 8))
        config = AgentConfig(max_episodes=4, success_streak=50, max_steps_per_episode=5,
                             batch_size=8, exploration_train_interval=None)
        episodes, _ = train(env, config, seed=3, arch=phase_arch)
        path = tmp_path / "log.csv"
        write_training_log(episodes, path)
        cells = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
        assert cells[0] == "" and "nan" in cells  # the first episode cannot fill a batch
        assert set(cells) == {"", "nan"}

    def test_transitions_accumulate_in_the_replay_buffer(self, phase_arch, small_world):
        env = NavigationEnv(world=small_world, start=GridCoord(1, 1),
                            goal=GridCoord(8, 8))
        config = AgentConfig(max_episodes=4, success_streak=50,
                             max_steps_per_episode=15)
        agent = Agent.new(config, seed=4, arch=phase_arch)
        run_exploration_phase(env, agent, seed=4)
        assert len(agent.buffer) > 0
        episodes_seen = {t.episode_id for t in agent.buffer._items}
        assert len(episodes_seen) >= 2

    def test_deterministic_under_a_fixed_seed(self, phase_arch, small_world):
        env = NavigationEnv(world=small_world, start=GridCoord(1, 1),
                            goal=GridCoord(8, 8))
        config = AgentConfig(max_episodes=5, success_streak=50,
                             max_steps_per_episode=15)
        a, b = (Agent.new(config, seed=5, arch=phase_arch) for _ in range(2))
        a_episodes, _ = run_exploration_phase(env, a, seed=5)
        b_episodes, _ = run_exploration_phase(env, b, seed=5)
        assert [(e.steps, e.reward_sum, e.success) for e in a_episodes] == [
            (e.steps, e.reward_sum, e.success) for e in b_episodes
        ]
        for key in a.value_net.params:
            assert np.array_equal(a.value_net.params[key], b.value_net.params[key])

    def test_first_spawn_is_a_seeded_draw_from_the_free_cells_row_major(self, phase_arch,
                                                                         monkeypatch):
        spawns = []
        spawn = phases._spawn
        monkeypatch.setattr(phases, "_spawn",
                            lambda cell, *rest: spawns.append(cell) or spawn(cell, *rest))
        config = AgentConfig(max_episodes=1, max_steps_per_episode=1,
                             exploration_train_interval=None, train_steps_per_episode=0)
        rng = np.random.default_rng(4)
        for trial in range(20):
            width, height = (int(v) for v in rng.integers(1, 30, size=2))
            spec = WorldSpec(domain=Domain.FOREST, width_m=width, height_m=height,
                             obstacle_density=float(rng.choice([0.0, 5.0, 30.0])),
                             seed=trial)
            world = generate_world(spec)
            blocked = occupied_cells(world)
            loop = [GridCoord(r, c) for r in range(height) for c in range(width)
                    if not blocked[r, c]]
            if not loop:
                continue
            env = NavigationEnv(world=world, start=GridCoord(0, 0), goal=GridCoord(0, 0))
            spawns.clear()
            train(env, config, seed=trial, arch=phase_arch)
            assert spawns == [loop[int(np.random.default_rng(trial).integers(len(loop)))]], \
                f"trial {trial}"


class TestExploitationPhase:
    def test_adjacent_goal_takes_one_step(self, phase_arch):
        world = corridor_world(2)
        env = NavigationEnv(world=world, start=GridCoord(0, 0), goal=GridCoord(0, 1))
        config = AgentConfig()
        agent = Agent.new(config, seed=0, arch=phase_arch)
        report = run_exploitation_phase(env, agent, seed=0)
        assert report.completed
        assert report.time_s == 1
        assert report.route == [GridCoord(0, 0), GridCoord(0, 1)]

    def test_accounting_identity_and_route_consistency(self, phase_arch, small_world):
        env = NavigationEnv(world=small_world, start=GridCoord(1, 1),
                            goal=GridCoord(8, 8))
        config = AgentConfig(online_train_interval=10, mission_step_budget=120)
        agent = Agent.new(config, seed=0, arch=phase_arch)
        report = run_exploitation_phase(env, agent, seed=1)
        assert report.predictions + report.corrections + report.random == report.time_s
        assert report.time_s == len(report.route) - 1
        for a, b in zip(report.route, report.route[1:]):
            assert abs(a.row - b.row) + abs(a.col - b.col) == 1

    def test_budget_exhaustion_reports_failure_with_partial_metrics(self, phase_arch,
                                                                    small_world):
        env = NavigationEnv(world=small_world, start=GridCoord(1, 1),
                            goal=GridCoord(8, 8))
        config = AgentConfig(online_train_interval=50, mission_step_budget=5)
        agent = Agent.new(config, seed=0, arch=phase_arch)
        report = run_exploitation_phase(env, agent, seed=2)
        assert not report.completed
        assert report.time_s == 5
        assert len(report.route) == 6

    def test_boxed_in_start_fails_gracefully(self, phase_arch):
        # four obstacles pin the agent in place immediately
        spec = WorldSpec(domain=Domain.PLAIN, width_m=5, height_m=5,
                         obstacle_density=0.0, seed=0)
        world = world_of(spec, [Disc(x=x, y=y)
                                for x, y in ((2.5, 1.5), (2.5, 3.5), (1.5, 2.5), (3.5, 2.5))])
        env = NavigationEnv(world=world, start=GridCoord(2, 2), goal=GridCoord(4, 4))
        config = AgentConfig(mission_step_budget=50)
        agent = Agent.new(config, seed=0, arch=phase_arch)
        report = run_exploitation_phase(env, agent, seed=3)
        assert not report.completed
        assert report.time_s == 0

    def test_online_learning_updates_parameters(self, phase_arch, small_world):
        env = NavigationEnv(world=small_world, start=GridCoord(1, 1),
                            goal=GridCoord(8, 8))
        config = AgentConfig(batch_size=8, online_train_interval=1, mission_step_budget=60)
        agent = Agent.new(config, seed=0, arch=phase_arch)
        before = {k: v.copy() for k, v in agent.value_net.params.items()}
        run_exploitation_phase(env, agent, seed=4)
        assert agent.train_steps > 0
        assert any(
            not np.array_equal(agent.value_net.params[k], before[k]) for k in before
        )

    def test_weathered_mission_still_reports_cleanly(self, phase_arch, small_world):
        env = NavigationEnv(world=small_world, start=GridCoord(1, 1),
                            goal=GridCoord(8, 8))
        config = AgentConfig(online_train_interval=25, mission_step_budget=80)
        agent = Agent.new(config, seed=0, arch=phase_arch)
        report = run_exploitation_phase(env, agent, seed=5,
                                        weather=WeatherCondition(WeatherKind.FOG, 0.30))
        assert report.weather_kind == "fog"
        assert report.weather_intensity == 0.30
        assert report.predictions + report.corrections + report.random == report.time_s

    def test_deterministic_under_a_fixed_seed(self, phase_arch, small_world):
        env = NavigationEnv(world=small_world, start=GridCoord(1, 1),
                            goal=GridCoord(8, 8))
        config = AgentConfig(online_train_interval=10, mission_step_budget=100)
        reports = []
        for _ in range(2):
            agent = Agent.new(config, seed=0, arch=phase_arch)
            report = run_exploitation_phase(env, agent, seed=6)
            reports.append(report)
        assert reports[0].route == reports[1].route
        assert reports[0].predictions == reports[1].predictions
        assert reports[0].corrections == reports[1].corrections
        assert reports[0].random == reports[1].random

    def test_dynamic_world_mission_runs(self, phase_arch):
        spec = WorldSpec(domain=Domain.SAVANNA, width_m=12, height_m=12,
                         obstacle_density=1.0, dynamic_count=3, seed=6)
        world = generate_world(spec, start=GridCoord(1, 1), goal=GridCoord(10, 10))
        env = NavigationEnv(world=world, start=GridCoord(1, 1), goal=GridCoord(10, 10))
        config = AgentConfig(online_train_interval=30, mission_step_budget=80)
        agent = Agent.new(config, seed=0, arch=phase_arch)
        report = run_exploitation_phase(env, agent, seed=7)
        assert report.domain == "savanna"
        assert report.predictions + report.corrections + report.random == report.time_s

    def test_replay_buffer_threads_through(self, phase_arch, small_world):
        env = NavigationEnv(world=small_world, start=GridCoord(1, 1),
                            goal=GridCoord(8, 8))
        config = AgentConfig(online_train_interval=100, mission_step_budget=30)
        agent = Agent.new(config, seed=0, arch=phase_arch)
        report = run_exploitation_phase(env, agent, seed=8,
                                        weather=WeatherCondition(WeatherKind.CLEAR, 0.0))
        assert len(agent.buffer) == report.time_s

    @pytest.mark.parametrize("weather", [WeatherCondition(WeatherKind.CLEAR, 0.0),
                                         WeatherCondition(WeatherKind.SNOW, 0.30)],
                             ids=["clear", "snow"])
    def test_obstacles_are_the_cells_sensed_along_the_route(self, phase_arch, weather):
        # on a static world the route is the whole record: every sensing
        # happens at a route cell, so replaying it recovers the count
        for seed in range(3):
            spec = WorldSpec(domain=Domain.FOREST, width_m=16, height_m=16,
                             obstacle_density=12.0, seed=40 + seed)
            world = generate_world(spec, start=GridCoord(1, 1), goal=GridCoord(14, 14))
            env = NavigationEnv(world=world, start=GridCoord(1, 1), goal=GridCoord(14, 14))
            config = AgentConfig(online_train_interval=20, mission_step_budget=60)
            agent = Agent.new(config, seed=seed, arch=phase_arch)
            report = run_exploitation_phase(env, agent, seed=seed, weather=weather)
            sensed = set().union(*(sense_obstacles(world, cell) for cell in report.route))
            assert report.time_s > 0
            assert report.obstacles == len(sensed) > 0


def counted_renders(monkeypatch) -> list[int]:
    """Counts the phases' calls to ``render_frame``."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return render_frame(*args, **kwargs)

    monkeypatch.setattr(phases, "render_frame", counting)
    return calls


def fly(arch, world, seed, weather=WeatherCondition(WeatherKind.CLEAR, 0.0), budget=30):
    env = NavigationEnv(world=world, start=GridCoord(1, 1), goal=GridCoord(8, 8))
    config = AgentConfig(online_train_interval=10, batch_size=8, mission_step_budget=budget)
    agent = Agent.new(config, seed=0, arch=arch)
    report = run_exploitation_phase(env, agent, seed=seed, weather=weather)
    return report, agent.buffer


class TestSharedTransition:
    def test_static_world_renders_each_frame_once(self, phase_arch, small_world,
                                                  monkeypatch):
        calls = counted_renders(monkeypatch)
        report, buf = fly(phase_arch, small_world, seed=1)
        assert report.time_s > 1
        assert calls[0] == report.time_s + 1
        for t in range(len(buf) - 1):
            assert np.array_equal(buf._items[t].next.frame, buf._items[t + 1].state.frame)

    def test_moving_world_renders_each_frame_once(self, phase_arch, monkeypatch):
        # the stored next frame is the one the agent decides on next, drawn
        # after the obstacles moved, so the TD target bootstraps from it
        spec = WorldSpec(domain=Domain.SAVANNA, width_m=12, height_m=12,
                         obstacle_density=1.0, dynamic_count=3, seed=6)
        world = generate_world(spec, start=GridCoord(1, 1), goal=GridCoord(8, 8))
        calls = counted_renders(monkeypatch)
        report, buf = fly(phase_arch, world, seed=2)
        assert report.time_s > 1
        assert calls[0] == report.time_s + 1
        for t in range(len(buf) - 1):
            assert np.array_equal(buf._items[t].next.frame, buf._items[t + 1].state.frame)

    def test_reused_frame_matches_a_fresh_weathered_render(self, phase_arch, small_world):
        snow = WeatherCondition(WeatherKind.SNOW, 0.30)
        report, buf = fly(phase_arch, small_world, seed=3, weather=snow)
        assert report.time_s > 1
        facing = Action.NORTH
        for t in range(len(buf)):
            fresh = apply_weather(render_frame(small_world, report.route[t], facing,
                                               size=phase_arch.frame_size),
                                  snow, rng_seed=3 + t + 1)
            assert np.array_equal(buf._items[t].state.frame, fresh)
            facing = Action(buf._items[t].action)


def trained_buffer(arch, world, seed=6):
    """The episode logs and replay buffer of a short training run on ``world``."""
    env = NavigationEnv(world=world, start=GridCoord(1, 1), goal=GridCoord(8, 8))
    config = AgentConfig(max_episodes=6, success_streak=50, max_steps_per_episode=20)
    agent = Agent.new(config, seed=seed, arch=arch)
    logs, _ = run_exploration_phase(env, agent, seed=seed)
    return logs, list(agent.buffer._items)


class TestStateRecord:
    """A transition is (state, action, reward, next state), and each state
    is observed once."""

    def test_a_next_state_is_the_following_decisions_state(self, phase_arch, small_world):
        _, trained = trained_buffer(phase_arch, small_world)
        _, flown = fly(phase_arch, small_world, seed=1)
        for items in (trained, list(flown._items)):
            pairs = [(a, b) for a, b in zip(items, items[1:]) if a.episode_id == b.episode_id]
            assert pairs
            assert all(a.next is b.state for a, b in pairs)

    def test_a_voided_step_keeps_its_state(self, phase_arch, small_world):
        _, items = trained_buffer(phase_arch, small_world)
        voided = [move(t.state.local, t.action)[1] is None for t in items]
        assert any(voided) and not all(voided)
        assert [t.next is t.state for t in items] == voided

    def test_the_valid_mask_is_taken_once_per_observed_state(self, phase_arch, small_world,
                                                            monkeypatch):
        calls = [0]

        def counting(local):
            calls[0] += 1
            return valid_action_mask(local)

        monkeypatch.setattr(replay, "valid_action_mask", counting)
        logs, items = trained_buffer(phase_arch, small_world)
        assert any(t.next is t.state for t in items)  # voided steps observe nothing
        observed = {id(s) for t in items for s in (t.state, t.next)}
        # an episode spawned on its target takes no step, so pushes nothing
        assert calls[0] == len(observed) + sum(log.steps == 0 for log in logs)

    def test_a_corrected_step_reads_its_states_valid_mask(self, phase_arch, small_world,
                                                          monkeypatch):
        masks, observations = [0], [0]

        def counting(local):
            masks[0] += 1
            return mapping.valid_action_mask(local)

        # every module that may bind the mask, whether or not it does
        for module in (replay, policy):
            monkeypatch.setattr(module, "valid_action_mask", counting, raising=False)
        observe = replay.State.observe.__func__

        def counted_observe(cls, local, frame):
            observations[0] += 1
            return observe(cls, local, frame)

        monkeypatch.setattr(replay.State, "observe", classmethod(counted_observe))
        report, _ = fly(phase_arch, small_world, seed=1)
        assert report.corrections > 0
        assert masks[0] == observations[0]

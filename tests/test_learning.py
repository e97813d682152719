import math
from dataclasses import replace

import numpy as np
import pytest

from gridnav import nn
from gridnav.agent import AgentConfig, UpdateRule, compute_targets, td_targets, train_step
from gridnav.agent.learning import trunk_rows
from gridnav.agent.phases import Agent
from gridnav.agent.replay import ReplayBuffer, State, Transition, frame_digest
from gridnav.mapping import GridCoord, spawn_local_map

ALL_VALID = np.ones((1, 4), dtype=bool)
#: a decision map whose agent is off its target cell, and one whose agent is on it
OPEN_MAP = spawn_local_map(GridCoord(5, 5), GridCoord(0, 0), (10, 10))
TARGET_MAP = replace(OPEN_MAP, agent_local=OPEN_MAP.target_cell)


def state(frame, raster, terminal=False):
    """A state seeing ``frame`` and ``raster``, with every action valid."""
    return State(TARGET_MAP if terminal else OPEN_MAP, frame, frame_digest(frame), raster,
                 np.ones(4, dtype=bool))


def targets_for(rule, reward, q_value_row, q_target_row, valid=None, terminal=False,
                gamma=0.95):
    return td_targets(
        rule,
        rewards=np.array([reward]),
        terminals=np.array([terminal]),
        q_next_value=np.array([q_value_row], dtype=float),
        q_next_target=np.array([q_target_row], dtype=float),
        valid_next=ALL_VALID if valid is None else np.array([valid]),
        gamma=gamma,
    )[0]


class TestTdTargets:
    def test_terminal_target_is_the_reward_for_every_rule(self):
        for rule in UpdateRule:
            y = targets_for(rule, 1.0, [5.0, 1.0, 2.0, 3.0], [9.0, 9.0, 9.0, 9.0],
                            terminal=True)
            assert y == 1.0

    def test_eddqn_with_zero_bootstrap(self):
        y = targets_for(UpdateRule.EDDQN, -0.04, [1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0])
        assert y == pytest.approx(-0.04)

    def test_ddqn_at_its_fixed_point(self):
        # target-net value -0.8 at the argmax: r + g*q = -0.04 - 0.76 = -0.8,
        # the fixed point r / (1 - g)
        y = targets_for(UpdateRule.DDQN, -0.04, [9.0, 0.0, 0.0, 0.0],
                        [-0.8, 7.0, 7.0, 7.0])
        assert y == pytest.approx(-0.8)
        assert y == pytest.approx(-0.04 / (1 - 0.95))

    def test_eddqn_at_its_fixed_point(self):
        fp = -0.04 / (1 + 0.95)
        y = targets_for(UpdateRule.EDDQN, -0.04, [9.0, 0.0, 0.0, 0.0],
                        [fp, 7.0, 7.0, 7.0])
        assert y == pytest.approx(fp, abs=1e-9)
        assert y == pytest.approx(-0.0205128, abs=1e-6)

    def test_dqn_takes_the_target_net_max(self):
        y = targets_for(UpdateRule.DQN, 0.0, [0.0, 0.0, 0.0, 0.0],
                        [1.0, 3.0, 2.0, 0.0])
        assert y == pytest.approx(0.95 * 3.0)

    def test_double_rules_select_with_the_value_net(self):
        # value net prefers action 0; target net evaluates it at 1.0 even
        # though its own max sits elsewhere
        y = targets_for(UpdateRule.DDQN, 0.0, [9.0, 0.0, 0.0, 0.0],
                        [1.0, 50.0, 0.0, 0.0])
        assert y == pytest.approx(0.95 * 1.0)

    def test_eddqn_subtracts_the_bootstrap(self):
        add = targets_for(UpdateRule.DDQN, -0.04, [9.0, 0, 0, 0], [2.0, 0, 0, 0])
        sub = targets_for(UpdateRule.EDDQN, -0.04, [9.0, 0, 0, 0], [2.0, 0, 0, 0])
        assert add == pytest.approx(-0.04 + 0.95 * 2.0)
        assert sub == pytest.approx(-0.04 - 0.95 * 2.0)

    def test_argmax_and_max_respect_the_valid_mask(self):
        valid = [False, True, True, False]
        y_dqn = targets_for(UpdateRule.DQN, 0.0, [0, 0, 0, 0], [9.0, 1.0, 2.0, 8.0],
                            valid=valid)
        assert y_dqn == pytest.approx(0.95 * 2.0)
        y_ddqn = targets_for(UpdateRule.DDQN, 0.0, [9.0, 1.0, 2.0, 8.0],
                             [0.5, 0.6, 0.7, 0.8], valid=valid)
        assert y_ddqn == pytest.approx(0.95 * 0.7)

    def test_no_valid_action_falls_back_to_reward_only(self):
        y = targets_for(UpdateRule.DDQN, -0.75, [1, 2, 3, 4], [1, 2, 3, 4],
                        valid=[False] * 4)
        assert y == pytest.approx(-0.75)

    def test_bootstrap_coefficient_is_configurable(self):
        y = targets_for(UpdateRule.DDQN, 0.0, [9.0, 0, 0, 0], [1.0, 0, 0, 0],
                        gamma=0.001)
        assert y == pytest.approx(0.001)


def fill_buffer(net, arch, count, rng, terminal_reward=None):
    """Terminal transitions; reward defaults to the net's own eval prediction
    so that targets sit exactly on the current outputs."""
    buf = ReplayBuffer(capacity=max(count, 8))
    for i in range(count):
        frame = rng.uniform(-1, 1, (arch.frame_size, arch.frame_size)).astype(np.float32)
        raster = rng.uniform(-1, 1, arch.map_cells).astype(np.float32)
        action = int(rng.integers(0, 4))
        if terminal_reward is None:
            q = nn.forward_cached(net, frame[None, None], raster[None, None])[0][0, 0]
            r = float(q[action])
        else:
            r = terminal_reward
        buf.push(Transition(state(frame, raster), action, r,
                            state(frame, raster, terminal=True), episode_id=i))
    return buf


class TestRuleName:
    @pytest.mark.parametrize("name, update_rule, trace_length", [
        ("dqn", UpdateRule.DQN, None),
        ("ddqn", UpdateRule.DDQN, None),
        ("eddqn", UpdateRule.EDDQN, None),
        ("drqn100", UpdateRule.DQN, 100),
        ("DRQN7", UpdateRule.DQN, 7),
    ])
    def test_the_name_selects_the_update_rule_and_trace_length(self, name, update_rule,
                                                                trace_length):
        config = AgentConfig(rule=name)
        assert config.rule == name.lower()
        assert config.update_rule == update_rule
        assert config.trace_length == trace_length


class TestTrainStep:
    def test_underfilled_buffer_is_a_noop(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=0)
        buf = ReplayBuffer(capacity=50)
        rng = np.random.default_rng(0)
        for _ in range(31):
            buf.push(fill_buffer(net, tiny_arch, 1, rng)._items[0])
        config = AgentConfig(batch_size=32)
        result = train_step(buf, net, nn.clone_params(net), nn.init_adam(net.params),
                            config, rng)
        assert result is None

    def test_stationary_batch_leaves_parameters_unchanged(self, tiny_arch):
        from dataclasses import replace
        arch = replace(tiny_arch, dropout_rate=0.0)  # train mode == eval mode
        net = nn.init_network(arch, seed=1)
        rng = np.random.default_rng(1)
        buf = fill_buffer(net, arch, 8, rng)
        config = AgentConfig(batch_size=8)
        result = train_step(buf, net, nn.clone_params(net), nn.init_adam(net.params),
                            config, rng)
        assert result is not None
        new_net, new_adam, loss = result
        assert loss == pytest.approx(0.0, abs=1e-12)
        for key in net.params:
            assert np.array_equal(new_net.params[key], net.params[key])
        assert new_adam.step == 1

    def test_overfits_a_frozen_batch(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=2)
        target = nn.clone_params(net)
        adam = nn.init_adam(net.params)
        rng = np.random.default_rng(2)
        buf = fill_buffer(net, tiny_arch, 8, rng, terminal_reward=-0.25)
        config = AgentConfig(batch_size=8)
        losses = []
        for _ in range(100):
            net, adam, loss = train_step(buf, net, target, adam, config, rng)
            losses.append(loss)
        assert losses[-1] < 0.05 * losses[0]

    # every (update rule, network) pair a rule name selects: a DRQN trains with DQN's
    @pytest.mark.parametrize("rule, arch_name", [(UpdateRule.DQN, "tiny_arch"),
                                                 (UpdateRule.DDQN, "tiny_arch"),
                                                 (UpdateRule.EDDQN, "tiny_arch"),
                                                 (UpdateRule.DQN, "tiny_recurrent_arch")])
    def test_an_update_changes_only_the_value_net(self, request, rule, arch_name):
        arch = request.getfixturevalue(arch_name)
        config = AgentConfig(batch_size=4, rule="drqn5" if arch.recurrent else rule.value)
        assert config.update_rule == rule
        net = nn.init_network(arch, seed=3)
        target = nn.clone_params(net)
        before = {k: v.copy() for k, v in target.params.items()}
        rng = np.random.default_rng(3)
        buf = ReplayBuffer(capacity=50)
        for t in random_transitions(arch, 3, rng):  # short of a batch and of a trace
            buf.push(t)
        state = rng.bit_generator.state
        assert train_step(buf, net, target, nn.init_adam(net.params), config, rng) is None
        assert rng.bit_generator.state == state

        for t in random_transitions(arch, 5, rng):
            buf.push(t)
        items = list(buf._items)
        new_net, _, _ = train_step(buf, net, target, nn.init_adam(net.params), config, rng)
        assert any(not np.array_equal(new_net.params[k], net.params[k]) for k in net.params)
        for key in before:
            assert np.array_equal(target.params[key], before[key])
        assert len(buf) == len(items) and all(a is b for a, b in zip(buf._items, items))

    def test_recurrent_variant_needs_one_full_trace(self, tiny_recurrent_arch):
        net = nn.init_network(tiny_recurrent_arch, seed=4)
        rng = np.random.default_rng(4)
        config = AgentConfig(batch_size=2, rule="drqn5")
        buf = ReplayBuffer(capacity=50)
        arch = tiny_recurrent_arch
        for episode in range(3):
            for i in range(3):  # all episodes shorter than the trace
                frame = rng.uniform(-1, 1, (arch.frame_size, arch.frame_size))
                raster = rng.uniform(-1, 1, arch.map_cells)
                s = state(frame.astype(np.float32), raster.astype(np.float32))
                buf.push(Transition(s, 0, -0.04, s, episode_id=episode))
        assert train_step(buf, net, nn.clone_params(net), nn.init_adam(net.params),
                          config, rng) is None

        for i in range(6):  # one long enough episode
            frame = rng.uniform(-1, 1, (arch.frame_size, arch.frame_size))
            raster = rng.uniform(-1, 1, arch.map_cells)
            s = state(frame.astype(np.float32), raster.astype(np.float32))
            buf.push(Transition(s, i % 4, -0.04, s, episode_id=99))
        result = train_step(buf, net, nn.clone_params(net), nn.init_adam(net.params),
                            config, rng)
        assert result is not None
        _, adam, loss = result
        assert math.isfinite(loss)
        assert adam.step == 1


class TestSyncTarget:
    def test_copy_happens_on_the_cadence(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=5)
        rng = np.random.default_rng(5)
        first_target = nn.init_network(tiny_arch, seed=6)
        agent = Agent(value_net=net, target_net=first_target, adam=nn.init_adam(net.params),
                        config=AgentConfig(batch_size=2, target_sync_every=3))
        agent.buffer = fill_buffer(net, tiny_arch, 4, rng, terminal_reward=1.0)
        for _ in range(2):
            assert agent.update(rng) is not None
            assert agent.target_net is first_target
        assert agent.update(rng) is not None
        synced = agent.target_net
        assert synced is not agent.value_net
        for key in net.params:
            assert np.array_equal(synced.params[key], agent.value_net.params[key])
        agent.value_net.params["head_b"] += 1.0  # the synced copy is isolated
        assert not np.array_equal(synced.params["head_b"], agent.value_net.params["head_b"])


def random_transitions(arch, count, rng):
    """Non-terminal transitions, each with its own random next frame."""
    batch = []
    for _ in range(count):
        frame = rng.uniform(-1, 1, (arch.frame_size, arch.frame_size)).astype(np.float32)
        raster = rng.uniform(-1, 1, arch.map_cells).astype(np.float32)
        s = state(frame, raster)
        batch.append(Transition(s, 0, -0.04, s))
    return batch


class TestTrunkRows:
    @pytest.mark.parametrize("arch_name", ["tiny_arch", "tiny_recurrent_arch"])
    @pytest.mark.parametrize("rule", list(UpdateRule))
    def test_a_shared_target_cache_gives_the_targets_of_a_fresh_one(self, request, arch_name,
                                                                    rule):
        # rows filled by the first batch and half the second serve the whole second
        arch = request.getfixturevalue(arch_name)
        steps = 3 if arch.recurrent else 1
        value = nn.init_network(arch, seed=7)
        target = nn.init_network(arch, seed=8)
        rng = np.random.default_rng(7)
        first = [random_transitions(arch, steps, rng) for _ in range(4)]
        second = [random_transitions(arch, steps, rng) for _ in range(4)]
        fresh_value, fresh_target = nn.clone_params(value), nn.clone_params(target)
        compute_targets(rule, first, value, target, 0.95)
        compute_targets(rule, second[:2], value, target, 0.95)
        assert target.rows
        got = compute_targets(rule, second, value, target, 0.95)
        want = compute_targets(rule, second, fresh_value, fresh_target, 0.95)
        assert np.array_equal(got, want)

    def test_identical_frames_share_one_row(self, tiny_arch, monkeypatch):
        net = nn.init_network(tiny_arch, seed=9)
        rng = np.random.default_rng(9)
        a, b = (rng.uniform(-1, 1, (2, tiny_arch.frame_size, tiny_arch.frame_size))
                .astype(np.float32))
        raster = np.zeros(tiny_arch.map_cells, dtype=np.float32)
        frames = [a, b, a.copy()]
        states = [state(f, raster) for f in frames]
        passes = []
        image_features = nn.image_features
        monkeypatch.setattr(nn, "image_features",
                            lambda net, x: passes.append(len(x)) or image_features(net, x))
        rows = trunk_rows(net, states)
        assert passes == [2]  # one batched pass over the distinct misses
        assert len(net.rows) == 2
        assert np.array_equal(rows[0], rows[2])
        assert np.array_equal(rows, image_features(net, np.stack(frames)))
        trunk_rows(net, [state(b, raster)])
        assert passes == [2]

    @pytest.mark.parametrize("rule", [UpdateRule.DDQN, UpdateRule.EDDQN])
    def test_double_rule_targets_reuse_the_action_selection_rows(self, tiny_arch, monkeypatch,
                                                                 rule):
        net = nn.init_network(tiny_arch, seed=12)
        agent = Agent(value_net=net, target_net=nn.clone_params(net),
                      adam=nn.init_adam(net.params), config=AgentConfig(rule=rule.value))
        seen, unseen = random_transitions(tiny_arch, 2, np.random.default_rng(12))
        agent.q_values(seen.next)
        names = {id(agent.value_net): "value", id(agent.target_net): "target"}
        passes = []
        image_features = nn.image_features
        monkeypatch.setattr(nn, "image_features", lambda net, x: (
            passes.append((names[id(net)], len(x))) or image_features(net, x)))
        compute_targets(rule, [[seen], [unseen]], agent.value_net, agent.target_net, 0.95)
        # the target net computes both rows, the value net only the one it had not seen
        assert passes == [("target", 2), ("value", 1)]

    def test_an_update_and_a_sync_start_nets_with_no_rows(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=13)
        rng = np.random.default_rng(13)
        agent = Agent(value_net=net, target_net=nn.clone_params(net),
                      adam=nn.init_adam(net.params),
                      config=AgentConfig(rule="ddqn", batch_size=2, target_sync_every=2))
        agent.buffer = fill_buffer(net, tiny_arch, 4, rng, terminal_reward=1.0)
        seen = agent.buffer._items[0].state
        agent.q_values(seen)
        assert agent.update(rng) is not None
        assert agent.value_net is not net and not agent.value_net.rows
        assert net.rows and agent.target_net.rows  # the replaced net keeps its rows
        agent.q_values(seen)
        assert agent.value_net.rows
        assert agent.update(rng) is not None  # the second update syncs the target
        assert not agent.value_net.rows and not agent.target_net.rows

    def test_action_values_follow_every_update(self, tiny_arch):
        net = nn.init_network(tiny_arch, seed=10)
        rng = np.random.default_rng(10)
        agent = Agent(value_net=net, target_net=nn.clone_params(net),
                        adam=nn.init_adam(net.params), config=AgentConfig(batch_size=2))
        agent.buffer = fill_buffer(net, tiny_arch, 4, rng, terminal_reward=1.0)
        seen = agent.buffer._items[0].state
        for _ in range(3):
            want, _ = nn.forward_cached(agent.value_net, seen.frame[None, None],
                                        seen.raster[None, None])
            assert np.array_equal(agent.q_values(seen), want[0, 0])
            assert agent.update(rng) is not None

    def test_recurrent_action_values_run_the_lstm_from_the_zero_state(self,
                                                                      tiny_recurrent_arch):
        net = nn.init_network(tiny_recurrent_arch, seed=11)
        seen = random_transitions(tiny_recurrent_arch, 1, np.random.default_rng(11))[0].state
        agent = Agent(value_net=net, target_net=net, adam=nn.init_adam(net.params),
                        config=AgentConfig(rule="drqn5"))
        want, _ = nn.forward_cached(net, seen.frame[None, None], seen.raster[None, None])
        assert np.array_equal(agent.q_values(seen), want[0, 0])

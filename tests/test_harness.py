import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from gridnav.agent import Agent, AgentConfig, UpdateRule
from gridnav.harness import (
    MISSION_CSV_COLUMNS,
    MissionReport,
    MissionSpec,
    TEST_SEQUENCE,
    backup,
    build_test_sequence,
    decay_experiment,
    emit_report,
    mission_reports_to_csv,
    mission_reports_to_json,
    route_trace_svg,
    run_mission,
)
from gridnav.mapping import (
    ACTION_DELTAS,
    ACTIONS,
    REWARD_INVALID,
    REWARD_REACHED,
    REWARD_VALID,
    GridCoord,
)
from gridnav.world import Domain, WeatherKind, WorldSpec

from conftest import Disc, world_of


class TestDecayExperiment:
    def test_ddqn_median_converges_to_its_fixed_point(self):
        values = decay_experiment(UpdateRule.DDQN, gamma=0.95, alpha=0.5, updates=500)
        assert values.shape == (501,)
        assert abs(values[-1] - (-0.8)) < 1e-3

    def test_eddqn_median_converges_near_zero(self):
        values = decay_experiment(UpdateRule.EDDQN, gamma=0.95, alpha=0.5, updates=500)
        assert abs(values[-1] - (-0.0205128)) < 1e-3

    def test_eddqn_iterates_stay_in_band(self):
        values = decay_experiment(UpdateRule.EDDQN, gamma=0.95, alpha=0.5, updates=500)
        assert values.min() >= -0.05
        assert values.max() <= 0.0

    def test_ddqn_is_monotone_non_increasing(self):
        values = decay_experiment(UpdateRule.DDQN, gamma=0.95, alpha=0.5, updates=300)
        assert np.all(np.diff(values) <= 1e-12)

    def test_zero_updates_is_the_identity(self):
        values = decay_experiment(UpdateRule.EDDQN, gamma=0.95, alpha=0.5, updates=0)
        assert values.tolist() == [REWARD_VALID]

    def test_vanishing_alpha_changes_nothing(self):
        for rule in (UpdateRule.DDQN, UpdateRule.EDDQN):
            values = decay_experiment(rule, gamma=0.95, alpha=1e-9, updates=100)
            assert np.all(np.abs(values - REWARD_VALID) < 1e-6)


def grid_mdp(rows, cols, goal, blocked=()):
    """The cells of a rows x cols grid without ``blocked``, and the (S, A)
    tables ``(rewards, next_state, terminal, valid)`` of moving between them
    as in training: a move into a wall or a blocked cell is voided in place
    at REWARD_INVALID and is invalid, and a move onto ``goal`` pays
    REWARD_REACHED and ends the episode."""
    cells = [GridCoord(r, c) for r in range(rows) for c in range(cols) if (r, c) not in blocked]
    index = {cell: s for s, cell in enumerate(cells)}
    shape = (len(cells), len(ACTIONS))
    rewards = np.full(shape, REWARD_INVALID)
    next_state = np.repeat(np.arange(len(cells))[:, None], len(ACTIONS), axis=1)
    terminal = np.zeros(shape, dtype=bool)
    valid = np.zeros(shape, dtype=bool)
    for cell, s in index.items():
        for a in ACTIONS:
            dr, dc = ACTION_DELTAS[a]
            dest = index.get((cell.row + dr, cell.col + dc))
            if dest is not None:
                valid[s, a] = True
                next_state[s, a] = dest
                terminal[s, a] = cells[dest] == goal
                rewards[s, a] = REWARD_REACHED if terminal[s, a] else REWARD_VALID
    return cells, (rewards, next_state, terminal, valid)


def bfs_steps(cells, goal):
    """Fewest moves from each cell to ``goal`` over ``cells``."""
    steps, frontier = {goal: 0}, [goal]
    while frontier:
        cell = frontier.pop(0)
        for dr, dc in ACTION_DELTAS.values():
            nxt = GridCoord(cell.row + dr, cell.col + dc)
            if nxt in cells and nxt not in steps:
                steps[nxt] = steps[cell] + 1
                frontier.append(nxt)
    return [steps[cell] for cell in cells]


def greedy_reaches_goal(q, next_state, terminal, valid):
    """Per state: whether the greedy valid action, followed from there,
    ends the episode within one move per state."""
    best = np.argmax(np.where(valid, q, -np.inf), axis=1)
    reached = []
    for s in range(len(q)):
        for _ in range(len(q)):
            if terminal[s, best[s]]:
                break
            s = next_state[s, best[s]]
        reached.append(bool(terminal[s, best[s]]))
    return np.array(reached)


#: open 10x10 with the README task's goal; a 4x4 whose blocked cells force
#: a detour of 7 moves from (0, 1); an open 3x3
GRIDS = {
    "open-10x10": (10, 10, GridCoord(5, 5), ()),
    "blocked-4x4": (4, 4, GridCoord(3, 3), ((0, 2), (1, 1), (2, 1), (2, 2))),
    "open-3x3": (3, 3, GridCoord(0, 0), ()),
}


class TestTabularBackup:
    """Value iteration (a = 1) through ``td_targets`` on grid MDPs."""

    GAMMA = 0.95
    #: a backup contracts by g, so every rule's table settles to within
    #: g^sweeps (4e-14) of its fixed point
    SWEEPS = 600

    @pytest.mark.parametrize("grid", GRIDS)
    def test_double_dqn_is_dqn_and_both_solve_the_grid(self, grid):
        rows, cols, goal, blocked = GRIDS[grid]
        cells, mdp = grid_mdp(rows, cols, goal, blocked)
        start = np.zeros(mdp[0].shape)
        tables = {rule: backup(rule, *mdp, start, self.GAMMA, 1.0, self.SWEEPS)
                  for rule in UpdateRule}
        dqn = tables[UpdateRule.DQN]
        assert dqn.shape == (self.SWEEPS + 1, *mdp[0].shape)
        # in the tabular limit the double estimator's argmax picks the max
        assert dqn.tobytes() == tables[UpdateRule.DDQN].tobytes()

        rewards, next_state, terminal, valid = mdp
        value = np.where(valid, dqn[-1], -np.inf).max(axis=1)
        g, d = self.GAMMA, np.array(bfs_steps(cells, goal))
        closed = g ** (d - 1) + REWARD_VALID * (1 - g ** (d - 1)) / (1 - g)
        away = d > 0
        assert np.abs(value[away] - closed[away]).max() < 1e-12
        assert greedy_reaches_goal(dqn[-1], next_state, terminal, valid)[away].all()

        # reported, not asserted: where the subtractive rule's fixed point
        # sends the greedy agent
        eddqn = greedy_reaches_goal(tables[UpdateRule.EDDQN][-1], next_state, terminal, valid)
        print(f"\n  {grid}: eddqn greedy reaches the goal from "
              f"{eddqn[away].sum()}/{away.sum()} cells")


def sample_report(route=None):
    return MissionReport(
        completed=True,
        distance_m=10.0,
        time_s=3,
        obstacles=2,
        predictions=2,
        corrections=1,
        random=0,
        route=route if route is not None else [
            GridCoord(0, 0), GridCoord(0, 1), GridCoord(1, 1), GridCoord(1, 2)
        ],
        method="eddqn",
        domain="forest",
        weather_kind="snow",
        weather_intensity=0.15,
    )


class TestReportEmission:
    def test_csv_header_and_row_count(self):
        text = mission_reports_to_csv([sample_report()])
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == MISSION_CSV_COLUMNS
        assert len(rows) == 2
        assert rows[1][0] == "eddqn"
        assert rows[1][2] == "snow15"

    def test_csv_fields_round_trip(self):
        report = sample_report()
        rows = list(csv.reader(io.StringIO(mission_reports_to_csv([report]))))
        row = dict(zip(rows[0], rows[1]))
        assert float(row["distance_m"]) == report.distance_m
        assert int(row["time_s"]) == report.time_s
        assert bool(int(row["completed"])) == report.completed
        assert int(row["obstacles"]) == report.obstacles
        assert (int(row["predictions"]), int(row["corrections"]), int(row["random"])) \
            == (2, 1, 0)

    def test_json_round_trip_is_exact(self):
        reports = [sample_report(), sample_report(route=[GridCoord(5, 5)])]
        reports[1].completed = False
        reports[1].weather_kind = "clear"
        reports[1].weather_intensity = 0.0
        doc = json.loads(mission_reports_to_json(reports))
        assert doc["reports"] == [
            {**dataclasses.asdict(r), "route": [[c.row, c.col] for c in r.route]}
            for r in reports
        ]

    def test_route_length_survives_json(self):
        report = sample_report(route=[GridCoord(i, 0) for i in range(5)])
        doc = json.loads(mission_reports_to_json([report]))
        assert len(doc["reports"][0]["route"]) == 5

    def test_empty_report_list_rejected(self):
        with pytest.raises(ValueError):
            mission_reports_to_csv([])

    def test_emit_report_writes_both_files(self, tmp_path):
        paths = emit_report([sample_report()], tmp_path)
        assert (tmp_path / "missions.csv").exists()
        assert (tmp_path / "missions.json").exists()
        assert set(paths) == {"csv", "json"}


class TestRouteTrace:
    def world(self):
        spec = WorldSpec(domain=Domain.FOREST, width_m=10, height_m=10,
                         obstacle_density=0.0, seed=0)
        return world_of(spec, [Disc(x=3.0, y=3.0), Disc(x=7.0, y=7.0)])

    def trace(self, report):
        return route_trace_svg(report, self.world(), start=GridCoord(0, 0),
                               goal=GridCoord(9, 9))

    def test_empty_route_has_only_markers(self):
        svg = self.trace(sample_report(route=[]))
        assert 'data-marker="start"' in svg
        assert 'data-marker="goal"' in svg
        assert "polyline" not in svg
        assert "data-visits" not in svg

    def test_revisited_cell_shows_its_count(self):
        route = [GridCoord(0, 0), GridCoord(0, 1), GridCoord(0, 0)]
        svg = self.trace(sample_report(route=route))
        assert 'data-visits="2"' in svg
        assert 'data-visits="1"' in svg

    def test_obstacle_circles_match_world(self):
        svg = self.trace(sample_report())
        assert svg.count('fill="red"') == 2
        assert '<circle cx="7.000" cy="7.000" r="0.300" fill="red"/>' in svg


PLAIN_MISSION = MissionSpec(
    world=WorldSpec(domain=Domain.PLAIN, width_m=15, height_m=15, obstacle_density=1.0,
                    seed=4),
    start=GridCoord(2, 2),
    goal=GridCoord(10, 10),
    seed=9,
)


class TestMissions:
    def test_run_mission_is_deterministic(self, phase_arch):
        spec = PLAIN_MISSION
        config = AgentConfig(online_train_interval=50, mission_step_budget=120)
        outputs = []
        for _ in range(2):
            report, _, _ = run_mission(spec, Agent.new(config, seed=0, arch=phase_arch))
            outputs.append(mission_reports_to_json([report]))
        assert outputs[0] == outputs[1]

    def test_sequence_order_matches_the_protocol(self):
        names = [t[0] for t in TEST_SEQUENCE]
        assert names == ["F100", "F400", "s15", "d15", "f15", "s30", "d30", "f30",
                         "P400", "S400"]
        specs = build_test_sequence(master_seed=1, scale=0.05, obstacle_density=2.0)
        assert len(specs) == 10
        assert [s.name for s in specs] == names
        weather = [(s.weather.kind, s.weather.intensity) for s in specs]
        assert weather[0] == (WeatherKind.CLEAR, 0.0)
        assert weather[2] == (WeatherKind.SNOW, 0.15)
        assert weather[7] == (WeatherKind.FOG, 0.30)
        assert specs[8].world.domain == Domain.PLAIN
        assert specs[9].world.domain == Domain.SAVANNA
        assert specs[9].world.dynamic_count > 0
        for s, (_, _, _, distance, _, _) in zip(specs, TEST_SEQUENCE):
            assert abs(math.dist(s.start, s.goal) - max(10, round(distance * 0.05))) <= 1.0

    def test_run_mission_leaves_the_callers_agent_as_it_was(self, phase_arch):
        config = AgentConfig(online_train_interval=1, batch_size=4, target_sync_every=3,
                             mission_step_budget=6)
        agent = Agent.new(config, seed=0, arch=phase_arch)
        value_net, target_net, adam = agent.value_net, agent.target_net, agent.adam
        before = {k: v.copy() for k, v in value_net.params.items()}
        report, flown, _ = run_mission(PLAIN_MISSION, agent)
        assert flown.value_net is not value_net
        assert agent.value_net is value_net and agent.target_net is target_net
        assert agent.adam is adam
        for key, value in before.items():
            assert np.array_equal(agent.value_net.params[key], value)
        assert agent.train_steps == 0 and len(agent.buffer) == 0
        # every mission starts from an empty buffer and no updates, so it
        # updates from its 4th step on and syncs its target on its own cadence
        for flying in (agent, flown):
            report, flown, _ = run_mission(PLAIN_MISSION, flying)
            assert len(flown.buffer) == report.time_s == 6
            assert flown.train_steps == 3

    def test_checkpoint_save_load_round_trip(self, tmp_path, phase_arch):
        config = AgentConfig(online_train_interval=1, batch_size=4, mission_step_budget=8)
        _, agent, _ = run_mission(PLAIN_MISSION, Agent.new(config, seed=0, arch=phase_arch))
        assert agent.adam.step > 0  # trained moments, not fresh zeros
        path = tmp_path / "agent.npz"
        agent.save(path)
        restored = Agent.load(path, config)
        for key in agent.value_net.params:
            assert np.array_equal(restored.value_net.params[key],
                                  agent.value_net.params[key])
            assert np.array_equal(restored.adam.m[key], agent.adam.m[key])
            assert np.array_equal(restored.adam.v[key], agent.adam.v[key])
        assert restored.adam.step == agent.adam.step

    def test_load_takes_the_configs_learning_rate(self, tmp_path, phase_arch):
        config = AgentConfig(learning_rate=0.01)
        agent = Agent.new(config, seed=0, arch=phase_arch)
        path = tmp_path / "agent.npz"
        agent.save(path)
        restored = Agent.load(path, dataclasses.replace(config, learning_rate=0.002))
        assert restored.adam.learning_rate == 0.002
        assert agent.adam.learning_rate == 0.01

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from gridnav.agent import Agent, AgentConfig, UpdateRule
from gridnav.harness import (
    DECAY_CSV_COLUMNS,
    MISSION_CSV_COLUMNS,
    MissionReport,
    MissionSpec,
    TEST_SEQUENCE,
    build_test_sequence,
    decay_experiment,
    decay_results_to_csv,
    emit_report,
    mission_reports_to_csv,
    mission_reports_to_json,
    route_trace_svg,
    run_mission,
    run_test_sequence,
)
from gridnav.mapping import GridCoord
from gridnav.world import Domain, WeatherKind, WorldSpec

from conftest import Disc, world_of


class TestDecayExperiment:
    def test_ddqn_median_converges_to_its_fixed_point(self):
        result = decay_experiment(UpdateRule.DDQN, updates=500)
        assert result.values.shape == (501,)
        assert abs(result.values[-1] - (-0.8)) < 1e-3

    def test_eddqn_median_converges_near_zero(self):
        result = decay_experiment(UpdateRule.EDDQN, updates=500)
        assert abs(result.values[-1] - (-0.0205128)) < 1e-3

    def test_eddqn_iterates_stay_in_band(self):
        result = decay_experiment(UpdateRule.EDDQN, updates=500)
        assert result.values.min() >= -0.05
        assert result.values.max() <= 0.0

    def test_ddqn_is_monotone_non_increasing(self):
        result = decay_experiment(UpdateRule.DDQN, updates=300)
        assert np.all(np.diff(result.values) <= 1e-12)

    def test_zero_updates_is_the_identity(self):
        result = decay_experiment(UpdateRule.EDDQN, updates=0)
        assert result.rule == "eddqn"
        assert result.values.tolist() == [-0.04]

    def test_vanishing_alpha_changes_nothing(self):
        for rule in (UpdateRule.DDQN, UpdateRule.EDDQN):
            result = decay_experiment(rule, alpha=1e-9, updates=100)
            assert np.all(np.abs(result.values - (-0.04)) < 1e-6)


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

    def test_decay_csv_layout(self):
        results = [decay_experiment(rule, updates=10)
                   for rule in (UpdateRule.DDQN, UpdateRule.EDDQN)]
        rows = list(csv.reader(io.StringIO(decay_results_to_csv(results))))
        assert tuple(rows[0]) == DECAY_CSV_COLUMNS == ("rule", "update", "q")
        ddqn_rows = [r for r in rows[1:] if r[0] == "ddqn"]
        eddqn_rows = [r for r in rows[1:] if r[0] == "eddqn"]
        assert len(ddqn_rows) == len(eddqn_rows) == 11  # initial row + 10 updates
        assert ddqn_rows[0][1] == "0"
        assert ddqn_rows[0][2] == "-0.04"
        assert [float(r[2]) for r in ddqn_rows] == results[0].values.tolist()

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
    def test_distance_invariant_enforced(self):
        spec = WorldSpec(domain=Domain.PLAIN, width_m=30, height_m=30,
                         obstacle_density=0.0, seed=0)
        with pytest.raises(ValueError):
            MissionSpec(world=spec, start=GridCoord(0, 0), goal=GridCoord(0, 5),
                        target_distance=10.0)
        MissionSpec(world=spec, start=GridCoord(0, 0), goal=GridCoord(0, 10),
                    target_distance=10.0)

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
        for s in specs:
            assert abs(math.dist(s.start, s.goal) - s.target_distance) <= 1.0

    def test_full_sequence_emits_ten_reports_in_order(self, phase_arch):
        config = AgentConfig(online_train_interval=8, batch_size=8, mission_step_budget=120)
        agent = Agent.new(config, seed=0, arch=phase_arch)
        before = {k: v.copy() for k, v in agent.value_net.params.items()}
        reports, updated = run_test_sequence(agent, master_seed=3, scale=0.05,
                                             obstacle_density=1.0)
        assert len(reports) == 10
        assert [r.domain.split(":")[1] for r in reports] == [t[0] for t in TEST_SEQUENCE]
        for r in reports:
            assert r.predictions + r.corrections + r.random == r.time_s
        # online updates occurred somewhere along the sequence
        assert any(
            not np.array_equal(updated.value_net.params[k], before[k]) for k in before
        )

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

"""Mission runner and the ten-test evaluation sequence.

A mission pairs a procedurally generated world with start/goal endpoints,
a weather condition, and an agent checkpoint.  The runner drives the
continuous-flight phase and returns its report; the parameters keep
learning online, and the updated checkpoint threads forward through a
test sequence (the models are intentionally allowed to adapt from one
test to the next).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..agent.config import AgentConfig

# Module (not name) import: agent.phases itself depends on this package's
# report types, so its names resolve lazily at call time.
from ..agent import phases as agent_phases
from ..mapping import GridCoord
from ..world import (
    CLEAR,
    Domain,
    WeatherCondition,
    WeatherKind,
    WorldSpec,
    generate_world,
)
from .reports import MissionReport


@dataclass
class AgentCheckpoint:
    """Trained networks plus optimiser state and the config they ran under."""

    value_net: nn.QNetwork
    target_net: nn.QNetwork
    adam: nn.AdamState
    config: AgentConfig

    def save(self, path) -> None:
        nn.save_checkpoint(path, self.value_net, self.adam,
                           extra={"rule": self.config.rule_name})

    @staticmethod
    def load(path, config: AgentConfig) -> "AgentCheckpoint":
        net, adam, _ = nn.load_checkpoint(path)
        if net.arch.recurrent != (config.trace_length is not None):
            kinds = ("feedforward", "recurrent")
            raise ValueError(f"holds a {kinds[net.arch.recurrent]} network, rule "
                             f"{config.rule_name} needs a {kinds[not net.arch.recurrent]} one")
        if adam is None:
            adam = nn.init_adam(net.params, learning_rate=config.learning_rate)
        return AgentCheckpoint(
            value_net=net,
            target_net=nn.clone_params(net),
            adam=adam,
            config=config,
        )


@dataclass(frozen=True)
class MissionSpec:
    world: WorldSpec
    start: GridCoord
    goal: GridCoord
    weather: WeatherCondition = CLEAR
    target_distance: float | None = None
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.target_distance is not None:
            actual = math.dist(self.start, self.goal)
            if abs(actual - self.target_distance) > 1.0:
                raise ValueError(
                    f"start-goal distance {actual:.2f} is more than one cell away "
                    f"from the declared {self.target_distance}"
                )


def run_mission(
    spec: MissionSpec,
    checkpoint: AgentCheckpoint,
    step_budget: int | None = None,
) -> tuple[MissionReport, AgentCheckpoint, "agent_phases.NavigationEnv"]:
    """Fly one mission; returns the report, the updated checkpoint, and the
    environment it ran in (useful for route traces)."""
    world = generate_world(spec.world, start=spec.start, goal=spec.goal)
    env = agent_phases.NavigationEnv(world=world, start=spec.start, goal=spec.goal)
    result = agent_phases.run_exploitation_phase(
        env,
        checkpoint.value_net,
        checkpoint.target_net,
        checkpoint.adam,
        checkpoint.config,
        seed=spec.seed,
        weather=spec.weather,
        step_budget=step_budget,
    )
    updated = AgentCheckpoint(
        value_net=result.value_net,
        target_net=result.target_net,
        adam=result.adam,
        config=checkpoint.config,
    )
    return result.report, updated, env


def _endpoints_for_distance(side: int, distance: float) -> tuple[GridCoord, GridCoord]:
    """Start/goal inside a side x side world whose separation is within one
    cell of the requested distance (3-4-5 proportions keep it exact when
    the distance divides by 5)."""
    margin = max(2, side // 20)
    start = GridCoord(margin, margin)
    dr = int(round(0.6 * distance))
    dc = int(round(0.8 * distance))
    goal = GridCoord(min(side - 1, start.row + dr), min(side - 1, start.col + dc))
    if abs(math.dist(start, goal) - distance) > 1.0:
        raise ValueError(f"cannot fit a {distance} m mission in a {side}-cell world")
    return start, goal


#: The published evaluation order: both forest sizes, six weather tests at
#: the long range, then the two unseen domains.
TEST_SEQUENCE = (
    ("F100", Domain.FOREST, 100, 100.0, WeatherKind.CLEAR, 0.0),
    ("F400", Domain.FOREST, 400, 400.0, WeatherKind.CLEAR, 0.0),
    ("s15", Domain.FOREST, 400, 400.0, WeatherKind.SNOW, 0.15),
    ("d15", Domain.FOREST, 400, 400.0, WeatherKind.DUST, 0.15),
    ("f15", Domain.FOREST, 400, 400.0, WeatherKind.FOG, 0.15),
    ("s30", Domain.FOREST, 400, 400.0, WeatherKind.SNOW, 0.30),
    ("d30", Domain.FOREST, 400, 400.0, WeatherKind.DUST, 0.30),
    ("f30", Domain.FOREST, 400, 400.0, WeatherKind.FOG, 0.30),
    ("P400", Domain.PLAIN, 400, 400.0, WeatherKind.CLEAR, 0.0),
    ("S400", Domain.SAVANNA, 400, 400.0, WeatherKind.CLEAR, 0.0),
)


def build_test_sequence(master_seed: int, scale: float = 1.0,
                        obstacle_density: float | None = None) -> list[MissionSpec]:
    """Instantiate the ten-test battery, optionally scaled down for desk runs.

    ``scale`` multiplies both the world side and the mission distance; the
    start/goal pair keeps its 3-4-5 geometry so the distance invariant
    holds at any scale.
    """
    seeds = np.random.SeedSequence(master_seed).generate_state(2 * len(TEST_SEQUENCE))
    specs = []
    for i, (name, domain, side, distance, kind, intensity) in enumerate(TEST_SEQUENCE):
        side_s = max(20, int(round(side * scale)))
        dist_s = max(10.0, round(distance * scale))
        start, goal = _endpoints_for_distance(side_s, dist_s)
        dynamic = max(2, side_s // 20) if domain == Domain.SAVANNA else 0
        world = WorldSpec(
            domain=domain,
            width_m=side_s,
            height_m=side_s,
            obstacle_density=obstacle_density,
            dynamic_count=dynamic,
            seed=int(seeds[2 * i]),
        )
        specs.append(
            MissionSpec(
                world=world,
                start=start,
                goal=goal,
                weather=WeatherCondition(kind, intensity),
                target_distance=dist_s,
                seed=int(seeds[2 * i + 1]),
                name=name,
            )
        )
    return specs


def run_test_sequence(
    checkpoint: AgentCheckpoint,
    master_seed: int,
    scale: float = 1.0,
    obstacle_density: float | None = None,
    step_budget: int | None = None,
) -> tuple[list[MissionReport], AgentCheckpoint]:
    """Run the ten tests in order, carrying the learned parameters forward.

    Individual failures (step budget, boxed-in) are recorded in their
    report and the sequence continues.
    """
    reports = []
    for spec in build_test_sequence(master_seed, scale=scale,
                                    obstacle_density=obstacle_density):
        report, checkpoint, _ = run_mission(spec, checkpoint, step_budget=step_budget)
        if spec.name:
            report.domain = f"{report.domain}:{spec.name}"
        reports.append(report)
    return reports, checkpoint

"""Mission runner and the ten-test evaluation sequence.

A mission pairs a procedurally generated world with start/goal endpoints
and a weather condition.  The runner flies a fresh-phase copy of the agent
(the same nets with an empty buffer and no updates yet; it shares their
trunk rows, which are a pure function of the frame and the weights)
through the continuous-flight phase and returns its report with the
updated agent; the parameters keep learning online, and the updated agent
threads forward through a test sequence (the models are intentionally
allowed to adapt from one test to the next).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..agent import phases
from ..mapping import GridCoord
from ..world import (
    CLEAR,
    Domain,
    WeatherCondition,
    WeatherKind,
    WorldSpec,
    generate_world,
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
        height, width = self.world.shape
        for name, cell in (("start", self.start), ("goal", self.goal)):
            if not (0 <= cell.row < height and 0 <= cell.col < width):
                raise ValueError(f"{name} {tuple(cell)} outside {height}x{width} world")
        if self.target_distance is not None:
            actual = math.dist(self.start, self.goal)
            if abs(actual - self.target_distance) > 1.0:
                raise ValueError(
                    f"start-goal distance {actual:.2f} is more than one cell away "
                    f"from the declared {self.target_distance}"
                )


def run_mission(
    spec: MissionSpec,
    agent: phases.Agent,
) -> tuple[phases.MissionReport, phases.Agent, phases.NavigationEnv]:
    """Fly one mission with a fresh-phase copy of ``agent``, which is left as
    it was; returns the report, the updated agent, and the environment it
    ran in (useful for route traces).  A named mission's report carries
    ``:<name>`` after its domain."""
    world = generate_world(spec.world, start=spec.start, goal=spec.goal)
    env = phases.NavigationEnv(world=world, start=spec.start, goal=spec.goal)
    flown = replace(agent)
    report = phases.run_exploitation_phase(env, flown, seed=spec.seed, weather=spec.weather)
    if spec.name:
        report.domain = f"{report.domain}:{spec.name}"
    return report, flown, env


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
    agent: phases.Agent,
    master_seed: int,
    scale: float = 1.0,
    obstacle_density: float | None = None,
) -> tuple[list[phases.MissionReport], phases.Agent]:
    """Run the ten tests in order, carrying the learned parameters forward.

    Individual failures (step budget, boxed-in) are recorded in their
    report and the sequence continues.
    """
    reports = []
    for spec in build_test_sequence(master_seed, scale=scale,
                                    obstacle_density=obstacle_density):
        report, agent, _ = run_mission(spec, agent)
        reports.append(report)
    return reports, agent

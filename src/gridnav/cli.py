"""Command-line entry point: generate-world, train, evaluate, decay.

Configuration comes from an optional plain ``key = value`` file plus
command-line flags, with flags winning.  Unknown keys are rejected.  Every
command is a deterministic function of (config, seed): reruns produce
byte-identical artifacts.  The master seed falls back to the ``NAV_SEED``
environment variable when neither a flag nor a config key supplies one.

Exit codes: 0 success (for ``train``: the success-streak criterion was
met), 1 runtime failure, 2 usage or config error, 3 ``train`` stopped at
the episode cap without converging.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, fields

from .agent import Agent, AgentConfig, NavigationEnv, UpdateRule, run_exploration_phase, \
    write_training_log
from .harness import (
    MissionSpec,
    build_test_sequence,
    decay_experiment,
    emit_report,
    route_trace_svg,
    run_mission,
)
from .mapping import GridCoord
from .world import (
    Domain,
    GenerationError,
    WeatherCondition,
    WeatherKind,
    World,
    WorldSpec,
    generate_world,
    load_world,
    occupied_cells,
    save_world,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_EPISODE_CAP = 3


@dataclass
class RunConfig(AgentConfig):
    """Every tunable of the workbench, file- and flag-addressable by name."""

    # world
    domain: str = "forest"
    world_width: int = 100
    world_height: int = 100
    obstacle_density: float | None = None
    dynamic_count: int = 0
    world_seed: int = 0
    world_file: str = ""
    # missions
    start_row: int | None = None
    start_col: int | None = None
    goal_row: int | None = None
    goal_col: int | None = None
    weather: str = "clear"
    intensity: float = 0.0
    missions: str = ""
    sequence_scale: float = 1.0
    # run control
    seed: int = 0
    out_dir: str = "out"
    checkpoint: str = ""
    # decay experiment
    decay_updates: int = 500
    decay_alpha: float = 0.5

    def __post_init__(self) -> None:
        # reject bad agent, world, weather, decay and seed values before any command runs
        super().__post_init__()
        if self.decay_updates < 0:
            raise ValueError("decay_updates must be >= 0")
        if not 0.0 < self.decay_alpha <= 1.0:
            raise ValueError("decay_alpha must be in (0, 1]")
        if not 0.0 < self.sequence_scale < math.inf:
            raise ValueError("sequence_scale must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        self.world_spec()
        self.weather_condition()

    def world_spec(self) -> WorldSpec:
        return WorldSpec(
            domain=Domain(self.domain.lower()),
            width_m=self.world_width,
            height_m=self.world_height,
            obstacle_density=self.obstacle_density,
            dynamic_count=self.dynamic_count,
            seed=self.world_seed,
        )

    def weather_condition(self) -> WeatherCondition:
        return WeatherCondition(WeatherKind(self.weather.lower()), self.intensity)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    if ftype in ("int | None", "float | None") and raw.lower() in ("none", ""):
        return None
    if ftype.startswith("int"):
        return int(raw)
    if ftype.startswith("float"):
        return float(raw)
    return raw


def load_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; ``#`` starts a comment; unknown keys fail."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_value(key, raw)
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "seed" not in values and os.environ.get("NAV_SEED"):
        values["seed"] = int(os.environ["NAV_SEED"])
    return RunConfig(**values)


def _ensure_out(config: RunConfig) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in fields(RunConfig)]
    with open(os.path.join(config.out_dir, "effective_config.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return config.out_dir


def _default_endpoints(config: RunConfig) -> tuple[GridCoord, GridCoord]:
    height, width = config.world_height, config.world_width
    start = GridCoord(
        config.start_row if config.start_row is not None else min(1, height - 1),
        config.start_col if config.start_col is not None else min(1, width - 1),
    )
    goal = GridCoord(
        config.goal_row if config.goal_row is not None else max(height - 2, 0),
        config.goal_col if config.goal_col is not None else max(width - 2, 0),
    )
    return start, goal


def cmd_generate_world(config: RunConfig) -> int:
    start, goal = _default_endpoints(config)
    world = generate_world(config.world_spec(), start=start, goal=goal)
    path = os.path.join(_ensure_out(config), "world.json")
    save_world(world, path)
    print(f"wrote {path}: {len(world)} obstacles (seed {world.spec.seed})")
    return EXIT_OK


def _endpoint_error(world: World, start: GridCoord, goal: GridCoord) -> str | None:
    """Why ``start`` or ``goal`` cannot be flown in ``world``, or None."""
    height, width = world.shape
    blocked = occupied_cells(world)
    for name, cell in (("start", start), ("goal", goal)):
        if not (0 <= cell.row < height and 0 <= cell.col < width):
            return f"{name} cell ({cell.row}, {cell.col}) is outside the {height}x{width} world"
        if blocked[cell.row, cell.col]:
            return f"{name} cell ({cell.row}, {cell.col}) is occupied by an obstacle"
    return None


def cmd_train(config: RunConfig) -> int:
    start, goal = _default_endpoints(config)
    if config.world_file:
        try:
            world = load_world(config.world_file)
        except (OSError, ValueError) as exc:
            print(f"error: world file {config.world_file!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        world = generate_world(config.world_spec(), start=start, goal=goal)
    error = _endpoint_error(world, start, goal)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    out = _ensure_out(config)
    env = NavigationEnv(world=world, start=start, goal=goal)

    def report_progress(log):
        if log.episode % 50 == 0 or log.streak >= config.success_streak:
            print(f"episode {log.episode}: steps {log.steps} "
                  f"reward {log.reward_sum:.2f} streak {log.streak}")

    agent = Agent.new(config, seed=config.seed)
    episodes, converged = run_exploration_phase(env, agent, seed=config.seed,
                                                progress=report_progress)
    ckpt_path = os.path.join(out, "checkpoint.npz")
    agent.save(ckpt_path)
    write_training_log(episodes, os.path.join(out, "training_log.csv"))
    status = "converged" if converged else "episode cap reached"
    print(
        f"{status}: {len(episodes)} episodes, {agent.train_steps} updates, "
        f"checkpoint {ckpt_path}"
    )
    return EXIT_OK if converged else EXIT_EPISODE_CAP


def _parse_mission_list(config: RunConfig) -> list[MissionSpec]:
    specs: list[MissionSpec] = []
    weather = config.weather_condition()
    entries = [m for m in config.missions.split(";") if m.strip()] if config.missions else []
    if not entries and config.start_row is not None and config.goal_row is not None:
        entries = [
            f"{config.start_row},{config.start_col}:{config.goal_row},{config.goal_col}"
        ]
    for i, entry in enumerate(entries):
        try:
            start_s, goal_s = entry.split(":")
            specs.append(
                MissionSpec(
                    world=config.world_spec(),
                    start=GridCoord(*(int(v) for v in start_s.split(","))),
                    goal=GridCoord(*(int(v) for v in goal_s.split(","))),
                    weather=weather,
                    seed=config.seed + i,
                    name=f"M{i + 1}",
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad mission entry {entry!r}: {exc}") from exc
    return specs


def cmd_evaluate(config: RunConfig) -> int:
    if not config.checkpoint:
        print("error: evaluate requires --checkpoint", file=sys.stderr)
        return EXIT_USAGE
    if not os.path.exists(config.checkpoint):
        print(f"error: checkpoint {config.checkpoint!r} not found", file=sys.stderr)
        return EXIT_USAGE
    try:
        agent = Agent.load(config.checkpoint, config)
    except ValueError as exc:
        print(f"error: checkpoint {config.checkpoint!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        missions = _parse_mission_list(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = _ensure_out(config)

    # run_mission is looked up in this module, where perfbench hooks it
    reports = []
    for spec in missions or build_test_sequence(config.seed, scale=config.sequence_scale,
                                                obstacle_density=config.obstacle_density):
        report, agent, env = run_mission(spec, agent)
        reports.append(report)
        if missions:
            with open(os.path.join(out, f"route_{spec.name}.svg"), "w", encoding="utf-8") as fh:
                fh.write(route_trace_svg(report, env.world, start=spec.start, goal=spec.goal))
    paths = emit_report(reports, out)
    completed = sum(r.completed for r in reports)
    print(f"wrote {paths['csv']} and {paths['json']}: "
          f"{completed}/{len(reports)} missions completed")
    return EXIT_OK


def cmd_decay(config: RunConfig) -> int:
    out = _ensure_out(config)
    values = {rule.value: decay_experiment(rule, config.gamma, config.decay_alpha,
                                           config.decay_updates)
              for rule in (UpdateRule.DDQN, UpdateRule.EDDQN)}
    path = os.path.join(out, "decay.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("rule", "update", "q"))
        for rule, qs in values.items():
            writer.writerows((rule, update, repr(q)) for update, q in enumerate(qs.tolist()))
    print(f"wrote {path}: values after {config.decay_updates} updates "
          + ", ".join(f"{rule}={qs[-1]:.6f}" for rule, qs in values.items()))
    return EXIT_OK


def _add_command(sub, name: str, func, help: str,
                 world_size: bool = True) -> argparse.ArgumentParser:
    """The ``name`` subcommand, which runs ``func``, with the flags of every
    command and, with ``world_size``, those of the world's size."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(func=func)
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--seed", type=int, dest="seed", help="master seed")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--rule", choices=("dqn", "ddqn", "eddqn", "drqn100"), dest="rule")
    parser.add_argument("--weather", choices=[w.value for w in WeatherKind],
                        dest="weather")
    parser.add_argument("--intensity", type=float, choices=[0.0, 0.15, 0.30],
                        dest="intensity")
    parser.add_argument("--domain", choices=[d.value for d in Domain], dest="domain")
    if world_size:
        parser.add_argument("--width", type=int, dest="world_width")
        parser.add_argument("--height", type=int, dest="world_height")
        parser.add_argument("--density", type=float, dest="obstacle_density")
    return parser


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridnav",
        description="Dual-map deep-RL navigation workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "generate-world", cmd_generate_world, "write a deterministic world file")
    p.add_argument("--dynamic-count", type=int, dest="dynamic_count")
    p.add_argument("--world-seed", type=int, dest="world_seed")

    p = _add_command(sub, "train", cmd_train, "run the teleport-mode training phase")
    p.add_argument("--episodes", type=int, dest="max_episodes")
    p.add_argument("--world-file", dest="world_file")

    p = _add_command(sub, "evaluate", cmd_evaluate, "fly the ten-test sequence or listed missions")
    p.add_argument("--checkpoint", dest="checkpoint")
    p.add_argument("--scale", type=float, dest="sequence_scale")
    p.add_argument("--budget", type=int, dest="mission_step_budget")
    p.add_argument("--missions", dest="missions",
                   help="semicolon-separated r,c:r,c start/goal pairs")

    p = _add_command(sub, "decay", cmd_decay, "run the repeated-update decay experiment",
                     world_size=False)
    p.add_argument("--updates", type=int, dest="decay_updates")
    p.add_argument("--alpha", type=float, dest="decay_alpha")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(config)
    except (GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())

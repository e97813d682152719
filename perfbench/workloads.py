"""The benchmark's workloads: the gridnav CLI invocations it times.

Every input a workload hands the program (config file, seeds, and for the
flight workloads a checkpoint) is derived from the benchmark seed and the
invocation's index within the run, so one seed always gives the same
inputs.  Each invocation flies another world (or trains on another one)
from the same checkpoint, which spreads a run over several inputs.

Sizes: ``full`` is the measured size; ``smoke`` shrinks every workload to a
few seconds for the benchmark's own smoke test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SIZES = ("full", "smoke")

#: The mission flown by both flight workloads: the F400 geometry, 400 m
#: from start to goal on a 400 m x 400 m world.
F400_MISSION = "20,20:260,340"
SMOKE_MISSION = "2,2:20,26"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "train" or "evaluate"
    #: config lines shared by both sizes
    config: tuple[str, ...]
    #: size -> (extra config lines, extra CLI flags)
    sizes: dict

    def net_seed(self, seed: int) -> int:
        """Seed of the checkpoint every invocation of a run starts from."""
        return random.Random(f"{self.name}/{seed}/net").randrange(2**31)

    def seeds(self, seed: int, index: int) -> dict[str, int]:
        """World and CLI seeds of the run's ``index``-th invocation."""
        rng = random.Random(f"{self.name}/{seed}/{index}")
        return {key: rng.randrange(2**31) for key in ("world", "cli")}

    def config_text(self, seed: int, index: int, size: str) -> str:
        extra, _ = self.sizes[size]
        lines = [*self.config, *extra, f"world_seed = {self.seeds(seed, index)['world']}"]
        return "\n".join(lines) + "\n"

    def argv(self, seed: int, index: int, size: str, config_path: str,
             checkpoint_path: str, out_dir: str) -> list[str]:
        _, flags = self.sizes[size]
        argv = [self.command, "--config", config_path, "--rule", "eddqn",
                "--seed", str(self.seeds(seed, index)["cli"]), "--out", out_dir, *flags]
        if self.command == "evaluate":
            argv += ["--checkpoint", checkpoint_path]
        return argv


_SMOKE_LEARNING = ("batch_size = 4", "replay_capacity = 50")

_FLIGHT = ("online_train_interval = 25",)
_FLIGHT_SMOKE = ("world_width = 40", "world_height = 40", "online_train_interval = 4",
                 *_SMOKE_LEARNING)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-10x10",
            command="train",
            config=("domain = forest", "world_width = 10", "world_height = 10",
                    "obstacle_density = 10", "goal_row = 5", "goal_col = 5"),
            sizes={
                "full": ((), ("--episodes", "2")),
                "smoke": (("max_steps_per_episode = 20", "exploration_train_interval = 5",
                           *_SMOKE_LEARNING), ("--episodes", "2")),
            },
        ),
        Workload(
            name="fly-forest400",
            command="evaluate",
            config=("domain = forest",),
            sizes={
                "full": (("world_width = 400", "world_height = 400", *_FLIGHT),
                         ("--missions", F400_MISSION, "--budget", "100")),
                "smoke": (_FLIGHT_SMOKE, ("--missions", SMOKE_MISSION, "--budget", "12")),
            },
        ),
        Workload(
            name="fly-savanna400",
            command="evaluate",
            config=("domain = savanna",),
            sizes={
                "full": (("world_width = 400", "world_height = 400", "dynamic_count = 20",
                          *_FLIGHT), ("--missions", F400_MISSION, "--budget", "150")),
                "smoke": ((*_FLIGHT_SMOKE, "dynamic_count = 2"),
                          ("--missions", SMOKE_MISSION, "--budget", "12")),
            },
        ),
    )
}

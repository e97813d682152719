"""SHA-256 of every artifact of a fixed set of ``gridnav`` CLI runs.

Runs the commands below in-process, in a temporary directory, against the
``src/`` next to this script, and prints one ``<sha256>  <path>`` line per
artifact (paths relative to that directory).  Artifacts are deterministic
functions of (config, seed), so a refactor that should change no output is
checked by diffing the listings taken before and after it:

    python tools/golden_hashes.py > before.txt
    python tools/golden_hashes.py | diff before.txt -

The ``out_dir`` line of ``effective_config.txt`` names the temporary
directory, so it is left out of that file's hash, as ``perfbench/checks.py``
does.  The set:

* ``train`` on the README 10x10 task (forest, density 10, goal 5,5) with
  ``dqn``, ``ddqn`` and ``eddqn``, seed 7, three episodes each;
* ``evaluate`` of the ``eddqn`` checkpoint on two listed missions in a
  24x24 savanna with 3 moving obstacles (online updates every 5 steps,
  budget 40, seed 3), under snow, dust and fog at 0.30 and in clear weather;
* ``evaluate`` of the ten-test sequence at scale 0.05, budget 12, seed 2;
* ``train`` on the README task with ``rule = drqn4`` and ``batch_size = 4``,
  seed 7, three episodes, and ``evaluate`` of that checkpoint on the first
  listed savanna mission (budget 40, seed 3);
* ``decay`` with 50 updates, at the default step size and at 0.3;
* ``generate-world`` of a 30x30 savanna with 3 moving obstacles, world
  seed 5.

About 60 s on two cores.  Exits 1 when a command returns an exit code
it should not.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from gridnav import cli  # noqa: E402

TRAIN_CONFIG = ("domain = forest", "world_width = 10", "world_height = 10",
                "obstacle_density = 10", "goal_row = 5", "goal_col = 5")
EVAL_CONFIG = ("domain = savanna", "world_width = 24", "world_height = 24",
               "dynamic_count = 3", "online_train_interval = 5")
MISSIONS = "1,1:20,18;2,2:15,20"
CHECKPOINT = os.path.join("train-eddqn", "checkpoint.npz")
#: the recurrent rule, with batches small enough to train within three episodes
DRQN = ("rule = drqn4", "batch_size = 4")
CONFIGS = {"train.cfg": TRAIN_CONFIG, "eval.cfg": EVAL_CONFIG,
           "train-drqn.cfg": TRAIN_CONFIG + DRQN, "eval-drqn.cfg": EVAL_CONFIG + DRQN}


def runs() -> list[tuple[list[str], tuple[int, ...]]]:
    """Every CLI run of the set, in order, with the exit codes it may give."""
    listed = []
    for rule in ("dqn", "ddqn", "eddqn"):
        listed.append((["train", "--config", "train.cfg", "--rule", rule, "--seed", "7",
                        "--episodes", "3", "--out", f"train-{rule}"], (0, 3)))
    evaluate = ["evaluate", "--checkpoint", CHECKPOINT, "--rule", "eddqn"]
    for weather in ("snow", "dust", "fog"):
        listed.append(([*evaluate, "--config", "eval.cfg", "--missions", MISSIONS,
                        "--budget", "40", "--seed", "3", "--weather", weather,
                        "--intensity", "0.30", "--out", f"eval-{weather}"], (0,)))
    listed.append(([*evaluate, "--config", "eval.cfg", "--missions", MISSIONS,
                    "--budget", "40", "--seed", "3", "--out", "eval-clear"], (0,)))
    listed.append(([*evaluate, "--scale", "0.05", "--budget", "12", "--seed", "2",
                    "--out", "sequence"], (0,)))
    listed.append((["train", "--config", "train-drqn.cfg", "--seed", "7", "--episodes", "3",
                    "--out", "train-drqn4"], (0, 3)))
    listed.append((["evaluate", "--checkpoint", os.path.join("train-drqn4", "checkpoint.npz"),
                    "--config", "eval-drqn.cfg", "--missions", MISSIONS.split(";")[0],
                    "--budget", "40", "--seed", "3", "--out", "eval-drqn4"], (0,)))
    listed.append((["decay", "--updates", "50", "--out", "decay"], (0,)))
    listed.append((["decay", "--updates", "50", "--alpha", "0.3", "--out", "decay-alpha"], (0,)))
    listed.append((["generate-world", "--domain", "savanna", "--width", "30", "--height", "30",
                    "--dynamic-count", "3", "--world-seed", "5", "--out", "world"], (0,)))
    return listed


def artifact_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "effective_config.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"out_dir = "))
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        cwd = os.getcwd()
        os.chdir(root)
        try:
            for name, lines in CONFIGS.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(lines) + "\n")
            for argv, allowed in runs():
                # the CLI's own messages go to stderr, so stdout is the listing
                with contextlib.redirect_stdout(sys.stderr):
                    code = cli.main(argv)
                if code not in allowed:
                    print(f"gridnav {' '.join(argv)} exited {code}", file=sys.stderr)
                    return 1
                out = argv[argv.index("--out") + 1]
                for name in sorted(os.listdir(out)):
                    path = os.path.join(out, name)
                    print(f"{artifact_sha256(path)}  {path}")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())

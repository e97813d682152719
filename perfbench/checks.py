"""Output checks and the artifact hash of one CLI run.

A run fails when it crashes, exits with an unexpected code, produces a
non-finite loss or parameter, or writes artifacts that break one of the
invariants below.  The hash covers every artifact except the ``out_dir``
line of ``effective_config.txt``, the only byte that legitimately differs
between two runs of the same inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

EXPECTED_EXIT = {"train": (0, 3), "evaluate": (0,)}


def outputs_sha256(out_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "effective_config.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"out_dir = "))
        digest.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return digest.hexdigest()


def _effective_config(out_dir: str) -> dict[str, str]:
    with open(os.path.join(out_dir, "effective_config.txt"), encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh if " = " in line)


def _check_missions(out_dir: str) -> list[str]:
    config = _effective_config(out_dir)
    height, width = int(config["world_height"]), int(config["world_width"])
    with open(os.path.join(out_dir, "missions.json"), encoding="utf-8") as fh:
        reports = json.load(fh)["reports"]
    problems = []
    for n, r in enumerate(reports):
        decided = r["predictions"] + r["corrections"] + r["random"]
        if decided != r["time_s"]:
            problems.append(f"mission {n}: {decided} decisions for time_s {r['time_s']}")
        route = r["route"]
        if len(route) != r["time_s"] + 1:
            problems.append(f"mission {n}: route of {len(route)} cells for time_s {r['time_s']}")
        for (r0, c0), (r1, c1) in zip(route, route[1:]):
            if abs(r1 - r0) + abs(c1 - c0) != 1 or not (0 <= r1 < height and 0 <= c1 < width):
                problems.append(f"mission {n}: bad move {(r0, c0)} -> {(r1, c1)}")
                break
    return problems


def _check_training(out_dir: str) -> list[str]:
    import numpy as np

    problems = []
    with open(os.path.join(out_dir, "training_log.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    streak = 0
    for n, row in enumerate(rows, start=1):
        if int(row["episode"]) != n:
            problems.append(f"training log row {n} numbers episode {row['episode']}")
        streak = streak + 1 if row["success"] == "1" else 0
        if int(row["streak"]) != streak:
            problems.append(f"episode {n}: streak {row['streak']}, success column says {streak}")
        if row["loss_mean"] and not math.isfinite(float(row["loss_mean"])):
            problems.append(f"episode {n}: loss {row['loss_mean']}")
    if not rows:
        problems.append("empty training log")
    with np.load(os.path.join(out_dir, "checkpoint.npz")) as data:
        bad = [k for k in data.files if k != "meta" and not np.isfinite(data[k]).all()]
    if bad:
        problems.append(f"non-finite checkpoint arrays: {bad}")
    return problems


def check_run(command: str, out_dir: str, result: dict) -> list[str]:
    """Every problem found in one CLI run; empty when the run passed."""
    if result["error"]:
        return [f"crashed:\n{result['error']}"]
    problems = []
    if result["exit_code"] not in EXPECTED_EXIT[command]:
        problems.append(f"exit code {result['exit_code']}")
    if not result["losses_finite"]:
        problems.append("non-finite loss")
    if not result["params_finite"]:
        problems.append("non-finite parameters after the mission")
    try:
        problems += (_check_training if command == "train" else _check_missions)(out_dir)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable artifacts: {exc!r}")
    return problems

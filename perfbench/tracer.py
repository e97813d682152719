"""Span tracing of gridnav's layer boundaries, installed from outside the program.

A layer is one of gridnav's modules: ``world``, ``mapping``, ``nn``,
``nn.layers``, ``agent``, ``harness`` and ``cli``.  A layer boundary is a
call from one layer into another layer's public function.  The tracer finds
those calls by replacing bindings:

* ``from ..world import render_frame`` copies the function into the caller's
  namespace, so that copy is replaced wherever a module of another layer
  holds it (``gridnav.agent.phases.render_frame``, not only
  ``gridnav.world.render_frame``);
* ``nn.forward(...)`` and ``layers.conv2d_forward(...)`` look the function
  up on a module object, so a module that another layer holds as a module
  (``gridnav.nn``, ``gridnav.nn.layers``, ``gridnav.agent.phases``) has its
  own public bindings replaced too.

Calls by bare name inside one layer are not boundaries and stay untimed,
except for the agent's internal stages the metrics need (``train_step``,
``compute_targets``, the policy calls and ``ReplayBuffer.sample``).

A span is ``[name, start, end, parent, step, extra]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``step`` the number of
agent decisions made before the span began, so all spans from one decision
to the next share a step id.  Spans are kept in memory and written out once
at the end.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from types import ModuleType

NAME, START, END, PARENT, STEP, EXTRA = range(6)


def layer_of(module_name: str) -> str:
    """``gridnav.agent.phases`` -> ``agent``; ``gridnav.nn.layers`` -> ``nn.layers``."""
    if module_name == "gridnav.nn.layers":
        return "nn.layers"
    return module_name.split(".")[1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.step = 0
        self._stack: list[int] = []
        self._target_nets: list[object] = []
        # pinned so that id() names one world snapshot for the whole run
        self._worlds: dict[int, tuple[int, object]] = {}

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span per call.  ``before(args, kwargs)`` runs
        ahead of the span; ``after(args, kwargs, result)`` fills its extra."""
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.step, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if after is not None:
                record[EXTRA] = after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer boundary of the loaded gridnav modules."""
        from gridnav.agent import learning
        from gridnav.agent.replay import ReplayBuffer

        mods = {name: m for name, m in sys.modules.items() if name.startswith("gridnav.")}
        faces = {
            v.__name__
            for name, m in mods.items()
            for v in vars(m).values()
            if isinstance(v, ModuleType) and v.__name__ in mods
            and layer_of(v.__name__) != layer_of(name)
        }
        hooks = self._hooks()
        wrapped: dict[int, object] = {}
        for name, module in mods.items():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in mods):
                    continue
                owner = layer_of(value.__module__)
                if owner == layer_of(name) and name not in faces:
                    continue
                if id(value) not in wrapped:
                    span = f"{owner}.{value.__name__}"
                    wrapped[id(value)] = self.wrap(span, value, *hooks.get(span, (None, None)))
                setattr(module, attr, wrapped[id(value)])

        # agent stages called by bare name inside the agent layer
        learning.compute_targets = self.wrap("agent.compute_targets", learning.compute_targets,
                                             *hooks["agent.compute_targets"])
        ReplayBuffer.sample = self.wrap("agent.replay.sample", ReplayBuffer.sample)

    def _hooks(self) -> dict:
        def decision(args, kwargs, result):
            return result[1].value

        def next_step(args, kwargs):
            self.step += 1

        # compute_targets(rule, batch, value_net, target_net, ...), as train_step calls it
        def push_target(args, kwargs):
            self._target_nets.append(args[3])

        def pop_target(args, kwargs, result):
            self._target_nets.pop()
            return len(args[1])

        def rows(args, kwargs, result):
            return len(args[1])

        def trunk_rows(args, kwargs, result):
            is_target = bool(self._target_nets) and args[0] is self._target_nets[-1]
            return [len(args[1]), is_target]

        def render_key(args, kwargs, result):
            world, agent, facing = args[:3]
            snapshot = self._worlds.setdefault(id(world), (len(self._worlds), world))[0]
            return [snapshot, agent.row, agent.col, int(facing)]

        return {
            "agent.epsilon_greedy": (next_step, decision),
            "agent.correct_action": (None, decision),
            "agent.train_step": (None, lambda a, k, result: result is not None),
            "agent.compute_targets": (push_target, pop_target),
            "nn.image_features": (None, trunk_rows),
            "nn.forward_cached": (None, rows),
            "nn.forward": (None, rows),
            "world.render_frame": (None, render_key),
        }


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced CLI run, keyed by metric name."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    self_time = list(dur)
    in_update = [False] * n
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            self_time[parent] -= dur[i]
            in_update[i] = in_update[parent]
        if s[NAME] == "agent.train_step":
            in_update[i] = True

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def ids(name, update=None):
        return [i for i in by_name.get(name, ()) if update is None or in_update[i] == update]

    def ms(indices, times=dur):
        return [1000.0 * times[i] for i in indices]

    # the last policy call of a step decides how the step counts
    decisions = {"predicted": 0, "corrected": 0, "random": 0}
    step_decision: dict[int, str] = {}
    for s in spans:
        # a call that raised (the agent boxed in) made no decision
        if s[NAME] in ("agent.epsilon_greedy", "agent.correct_action") and s[EXTRA]:
            step_decision[s[STEP]] = s[EXTRA]
    for value in step_decision.values():
        decisions[value] += 1

    steps = sum(1 for i in ids("agent.epsilon_greedy") if spans[i][EXTRA])
    train_calls = ids("agent.train_step")
    updates = sum(1 for i in train_calls if spans[i][EXTRA])
    per_step = 1.0 / steps if steps else 0.0
    per_update = 1.0 / updates if updates else 0.0

    renders = ids("world.render_frame")
    out = {
        "world.render_frame.calls": len(renders),
        "world.render_frame.ms_p50": _p50(ms(renders)),
        "world.render_frame.self_ms_per_step": sum(ms(renders, self_time)) * per_step,
        "world.render_frame.unique_ratio":
            len({tuple(spans[i][EXTRA]) for i in renders}) / len(renders) if renders else 0.0,
        "world.sense_obstacles.calls": len(ids("world.sense_obstacles")),
        "world.sense_obstacles.ms_p50": _p50(ms(ids("world.sense_obstacles"))),
        "world.step_dynamics.ms_p50": _p50(ms(ids("world.step_dynamics"))),
        "world.generate_world.ms": sum(ms(ids("world.generate_world"))),
        "world.occupied_cells.ms": sum(ms(ids("world.occupied_cells"))),
        "nn.load_checkpoint.ms": sum(ms(ids("nn.load_checkpoint"))),
    }
    for layer in ("conv2d", "maxpool2", "dense"):
        for phase in ("forward", "backward"):
            name = f"nn.layers.{layer}_{phase}"
            out[f"{name}.self_ms_per_update"] = (
                sum(ms(ids(name, update=True), self_time)) * per_update)
    for name in ("nn.forward_cached", "nn.backward", "nn.adam_step"):
        out[f"{name}.ms_p50"] = _p50(ms(ids(name, update=True)))

    trunk_in_update = ids("nn.image_features", update=True)
    target_rows = sum(spans[i][EXTRA][0] for i in trunk_in_update if spans[i][EXTRA][1])
    target_lookups = sum(spans[i][EXTRA] for i in ids("agent.compute_targets"))
    out["nn.trunk_rows_per_update"] = per_update * (
        sum(spans[i][EXTRA] for i in ids("nn.forward_cached", update=True))
        + sum(spans[i][EXTRA][0] for i in trunk_in_update))
    out["agent.target_cache_hit_ratio"] = (
        1.0 - target_rows / target_lookups if target_lookups else 0.0)

    forwards = ids("nn.forward")
    trunk = ids("nn.image_features")
    out["nn.forward.calls"] = len(forwards)
    out["nn.forward.ms_p50"] = _p50(ms(forwards))
    out["nn.image_features.calls"] = len(trunk)
    out["nn.image_features.rows"] = sum(spans[i][EXTRA][0] for i in trunk)
    out["nn.image_features.ms_p50"] = _p50(ms(trunk))

    # outside updates, every Q evaluation is a head call on cached trunk
    # features (q_from_features) or a full uncached forward; trunk calls there
    # are cache misses
    lookups = len(ids("nn.q_from_features", update=False)) + len(ids("nn.forward", update=False))
    misses = len(ids("nn.image_features", update=False)) + len(ids("nn.forward", update=False))
    out["agent.eval_cache_hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0

    out["agent.steps"] = steps
    out["agent.updates"] = updates
    out["agent.train_step.calls"] = len(train_calls)
    out["agent.train_step.skipped"] = len(train_calls) - updates
    for kind, count in decisions.items():
        out[f"agent.decisions.{kind}"] = count
    out["agent.compute_targets.ms_p50"] = _p50(ms(ids("agent.compute_targets")))
    out["agent.replay.sample.ms_p50"] = _p50(ms(ids("agent.replay.sample")))

    mapping = [i for i, s in enumerate(spans) if s[NAME].startswith("mapping.")]
    out["mapping.self_ms_per_step"] = sum(ms(mapping, self_time)) * per_step
    for name in ("harness.run_mission", "harness.route_trace_svg", "harness.emit_report"):
        out[f"{name}.ms"] = sum(ms(ids(name)))
    out["cli.self_ms"] = sum(ms(ids("cli.main"), self_time))
    return out

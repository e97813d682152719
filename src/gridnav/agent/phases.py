"""The two operating phases: teleport-mode training and continuous missions.

Phase one trains episodically: the agent respawns at a seeded random free
cell each episode, picks actions epsilon-greedily with no correction
(unsafe predictions are simply voided and punished), and the episode ends
when the target cell is reached or the step cap hits.  Training stops
after a configurable run of consecutive successes or at the episode cap.

Phase two flies one continuous mission: obstacle sensing runs every step,
unsafe predictions are corrected toward the target cell, fresh decision
maps respawn each time a target cell is reached, and the network keeps
learning online from the replay buffer as it flies.

One :class:`Agent` holds the learner through both phases: its nets, Adam
state and config, which a checkpoint keeps, plus what one phase gathers
(replay buffer, update count).  A mission flies a fresh-phase copy,
``dataclasses.replace(agent)``: the same nets with an empty buffer and no
updates yet.  The copy shares its nets' trunk rows, which is safe because
a row is a pure function of the frame and the weights.

Both phases step through :func:`_transition`, which decides from a
``replay.State`` and pushes (state, action, reward, next state).  A state
is observed once: when its frame is rendered or its decision map respawns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .. import nn
from ..mapping import (
    Action,
    BoxedInError,
    CellState,
    GridCoord,
    LocalMap,
    mark_blocked,
    move,
    retarget,
    spawn_local_map,
)
from ..world import (
    CLEAR,
    WeatherCondition,
    World,
    apply_weather,
    occupied_cells,
    render_frame,
    sense_obstacles,
    step_dynamics,
)
from .config import AgentConfig
from .learning import q_values, train_step
from .policy import PolicyDecision, correct_action, epsilon_greedy
from .replay import ReplayBuffer, State, Transition

TRAINING_LOG_COLUMNS = ("episode", "steps", "reward_sum", "success", "streak", "loss_mean")


@dataclass
class NavigationEnv:
    """A world plus the mission endpoints inside it."""

    world: World
    start: GridCoord
    goal: GridCoord


@dataclass
class EpisodeLog:
    episode: int
    steps: int
    reward_sum: float
    success: bool
    streak: int
    #: mean loss of the episode's updates; None when none ran
    loss_mean: float | None


@dataclass
class MissionReport:
    completed: bool
    distance_m: float
    time_s: int
    obstacles: int
    predictions: int
    corrections: int
    random: int
    route: list[GridCoord] = field(default_factory=list)
    method: str = ""
    domain: str = ""
    weather_kind: str = "clear"
    weather_intensity: float = 0.0

    @property
    def weather_label(self) -> str:
        if self.weather_intensity == 0.0:
            return self.weather_kind
        return f"{self.weather_kind}{int(round(self.weather_intensity * 100))}"


@dataclass
class Agent:
    """The learner of both phases.

    Its fields are what a checkpoint keeps.  ``__post_init__`` sets what one
    phase gathers: the replay buffer and the update count.  The image-trunk
    rows belong to the nets (``nn.QNetwork.rows``): the value net's answer
    action selection and the double rules' next-state reads until its next
    update, and the target net's feed the TD targets until its next sync.
    """

    value_net: nn.QNetwork
    target_net: nn.QNetwork
    adam: nn.AdamState
    config: AgentConfig

    def __post_init__(self) -> None:
        self.buffer = ReplayBuffer(self.config.replay_capacity)
        self.train_steps = 0

    @classmethod
    def new(cls, config: AgentConfig, seed: int,
            arch: nn.ArchitectureSpec | None = None) -> Agent:
        """An untrained agent: seeded value net, its copy as target, fresh Adam.
        ``arch`` defaults to the production net the config's rule needs."""
        if arch is None:
            arch = nn.ArchitectureSpec(recurrent=config.trace_length is not None)
        value_net = nn.init_network(arch, seed=seed)
        return cls(value_net, nn.clone_params(value_net),
                   nn.init_adam(value_net.params, learning_rate=config.learning_rate), config)

    def save(self, path) -> None:
        nn.save_checkpoint(path, self.value_net, self.adam,
                           extra={"rule": self.config.rule})

    @classmethod
    def load(cls, path, config: AgentConfig) -> Agent:
        """The checkpoint at ``path`` under ``config``, whose learning rate
        replaces the checkpoint's; raises ValueError when its net is not the
        kind (feedforward or recurrent) the rule needs."""
        net, adam, _ = nn.load_checkpoint(path)
        if net.arch.recurrent != (config.trace_length is not None):
            kinds = ("feedforward", "recurrent")
            raise ValueError(f"holds a {kinds[net.arch.recurrent]} network, rule "
                             f"{config.rule} needs a {kinds[not net.arch.recurrent]} one")
        adam = replace(adam or nn.init_adam(net.params), learning_rate=config.learning_rate)
        return cls(net, nn.clone_params(net), adam, config)

    def q_values(self, state: State) -> np.ndarray:
        """The value net's eval-mode Q-values at ``state``, as a one-step
        trace: a recurrent net's LSTM starts from the zero state."""
        return q_values(self.value_net, [[state]])[0, 0]

    def update(self, rng: np.random.Generator) -> float | None:
        """One mini-batch update, or None when the buffer holds no batch or
        trace yet (``train_step`` then leaves ``rng`` untouched)."""
        result = train_step(self.buffer, self.value_net, self.target_net, self.adam,
                            self.config, rng)
        if result is None:
            return None
        self.value_net, self.adam, loss = result
        self.train_steps += 1
        if self.train_steps % self.config.target_sync_every == 0:
            self.target_net = nn.clone_params(self.value_net)
        return loss

    def update_every(self, step: int, interval: int | None,
                     rng: np.random.Generator) -> float | None:
        """:meth:`update` when ``step`` is a multiple of ``interval`` (None: never)."""
        if interval is None or step % interval:
            return None
        return self.update(rng)


def _sensed_local_map(local: LocalMap, world: World, goal: GridCoord
                      ) -> tuple[LocalMap, set[GridCoord]]:
    """Mark freshly sensed obstacles and re-aim the target if it got buried."""
    sensed = sense_obstacles(world, local.agent_global)
    local = mark_blocked(local, sensed)
    if local.cells.item(local.target_cell) == CellState.BLOCKED:
        local = retarget(local, goal)
    return local, sensed


def _spawn(agent: GridCoord, world: World, goal: GridCoord
           ) -> tuple[LocalMap, set[GridCoord]]:
    """A fresh decision map around ``agent``, with its first sensing."""
    return _sensed_local_map(spawn_local_map(agent, goal, world.shape), world, goal)


def _transition(agent: Agent, state: State, world: World, goal: GridCoord,
                epsilon: float, correct: bool, render, episode_id: int,
                rng: np.random.Generator):
    """One decision of either phase, pushed to the replay buffer.

    Selects epsilon-greedily (with ``correct``, unsafe predictions are
    replaced by :func:`correct_action`) and takes the reward and the moved
    map from ``mapping.move``.  A hard-constrained action has no moved map
    and is voided in place, so that its next state is its state; otherwise
    the agent senses and retargets from the moved map and
    ``render(cell, facing)`` draws the next frame.  Returns ``(next_state,
    decision, reward, sensed)``, or None when the agent is boxed in.
    """
    try:
        action, decision = epsilon_greedy(agent.q_values(state), state.valid, epsilon, rng)
        if correct and decision == PolicyDecision.PREDICTED:
            action, decision = correct_action(state.local, action, state.valid)
    except BoxedInError:
        return None

    r, moved = move(state.local, action)
    if moved is None:
        nxt, sensed = state, set()
    else:
        next_local, sensed = _sensed_local_map(moved, world, goal)
        nxt = State.observe(next_local, render(next_local.agent_global, action))
    agent.buffer.push(Transition(state, int(action), r, nxt, episode_id))
    return nxt, decision, r, sensed


def run_exploration_phase(env: NavigationEnv, agent: Agent, seed: int,
                          progress=None) -> tuple[list[EpisodeLog], bool]:
    """Train ``agent`` in place in teleport mode until the success streak or
    the episode cap; returns the episode logs and whether the streak was met.

    Every episode spawns the agent at a random obstacle-free cell, aims a
    fresh decision map at the environment goal, and runs epsilon-greedy
    with random draws restricted to valid actions and predictions executed
    uncorrected (hard-constrained predictions are voided in place with
    their penalty).  Mini-batch updates run after each episode.
    """
    rng = np.random.default_rng(seed)
    config = agent.config
    world = env.world
    frame_size = agent.value_net.arch.frame_size
    free_cells = np.argwhere(~occupied_cells(world))  # row-major
    if not len(free_cells):
        raise ValueError("world has no free cell to spawn in")

    def render(cell: GridCoord, facing: Action) -> np.ndarray:
        return render_frame(world, cell, facing, size=frame_size)

    logs: list[EpisodeLog] = []
    streak = 0
    converged = False

    for episode in range(1, config.max_episodes + 1):
        spawn = GridCoord(*free_cells[int(rng.integers(len(free_cells)))].tolist())
        local, _ = _spawn(spawn, world, env.goal)
        state = State.observe(local, render(local.agent_global, Action.NORTH))
        reward_sum = 0.0
        steps = 0
        losses = []
        while not state.at_target and steps < config.max_steps_per_episode:
            steps += 1
            step = _transition(agent, state, world, env.goal, config.epsilon_train,
                               correct=False, render=render, episode_id=episode, rng=rng)
            if step is None:
                break
            state, _, r, _ = step
            reward_sum += r
            # mid-episode updates keep a stalled greedy policy from wasting
            # the whole episode on a wall it has not yet been punished for
            loss = agent.update_every(steps, config.exploration_train_interval, rng)
            if loss is not None:
                losses.append(loss)

        success = state.at_target
        streak = streak + 1 if success else 0
        for _ in range(config.train_steps_per_episode):
            loss = agent.update(rng)
            if loss is not None:
                losses.append(loss)
        logs.append(
            EpisodeLog(
                episode=episode,
                steps=steps,
                reward_sum=reward_sum,
                success=success,
                streak=streak,
                loss_mean=float(np.mean(losses)) if losses else None,
            )
        )
        if progress is not None:
            progress(logs[-1])
        if streak >= config.success_streak:
            converged = True
            break

    return logs, converged


def write_training_log(episodes: list[EpisodeLog], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRAINING_LOG_COLUMNS)
        for log in episodes:
            writer.writerow(
                [
                    log.episode,
                    log.steps,
                    repr(log.reward_sum),
                    int(log.success),
                    log.streak,
                    "" if log.loss_mean is None else repr(log.loss_mean),
                ]
            )


def run_exploitation_phase(
    env: NavigationEnv,
    agent: Agent,
    seed: int,
    weather: WeatherCondition = CLEAR,
) -> MissionReport:
    """Fly one continuous mission with ``agent``, learning online in place;
    returns the mission report.

    The agent senses obstacles every step, corrects unsafe predictions
    toward the target cell, spawns a fresh decision map each time it
    reaches one, and keeps running mini-batch updates as it flies.  The
    report is the mission's one record of what it flew and sensed: its
    ``route`` holds the agent's cell at the start and after every step,
    and its ``obstacles`` counts the distinct obstacle cells sensed along
    that route.  The mission ends on reaching the goal, exhausting the step
    budget, or getting boxed in (reported as a failure with partial
    metrics).
    """
    rng = np.random.default_rng(seed)
    config = agent.config
    world = env.world
    frame_size = agent.value_net.arch.frame_size

    def observe(world: World, cell: GridCoord, facing: Action, step: int) -> np.ndarray:
        """The weathered frame of ``world`` seen at the start of decision ``step``."""
        frame = render_frame(world, cell, facing, size=frame_size)
        return apply_weather(frame, weather, rng_seed=seed + step)

    local, sensed = _spawn(env.start, world, env.goal)
    obstacles_seen: set[GridCoord] = set(sensed)
    # decision 1 sees the world one step (one second) after the spawn, like
    # every later decision sees it one step after the previous one; a static
    # world steps to itself
    world = step_dynamics(world)
    state = State.observe(local, observe(world, env.start, Action.NORTH, 1))
    route = [env.start]
    counts = {PolicyDecision.PREDICTED: 0, PolicyDecision.CORRECTED: 0, PolicyDecision.RANDOM: 0}
    episode_id = 0

    steps = 0
    while steps < config.mission_step_budget and state.agent != env.goal:
        steps += 1
        # the next frame shows the world the next decision is made in
        next_world = step_dynamics(world)
        step = _transition(agent, state, world, env.goal, config.epsilon_test,
                           correct=True, episode_id=episode_id, rng=rng,
                           render=partial(observe, next_world, step=steps + 1))
        if step is None:
            steps -= 1
            break
        state, decision, _, sensed = step
        counts[decision] += 1
        obstacles_seen.update(sensed)
        route.append(state.agent)

        if state.at_target:
            episode_id += 1
            if state.agent != env.goal:
                local, sensed = _spawn(state.agent, world, env.goal)
                obstacles_seen.update(sensed)
                state = State.observe(local, state.frame)

        world = next_world
        agent.update_every(steps, config.online_train_interval, rng)

    return MissionReport(
        completed=state.agent == env.goal,
        distance_m=math.dist(env.start, env.goal),
        time_s=steps,
        obstacles=len(obstacles_seen),
        predictions=counts[PolicyDecision.PREDICTED],
        corrections=counts[PolicyDecision.CORRECTED],
        random=counts[PolicyDecision.RANDOM],
        route=route,
        method=config.rule,
        domain=world.spec.domain.value,
        weather_kind=weather.kind.value,
        weather_intensity=weather.intensity,
    )

"""Agent hyper-parameters.

The defaults reproduce the production training setup exactly: exploration
rates 0.1/0.05 for the two phases, discount 0.95, an 800-transition replay
buffer, target-network refresh every 10 training steps, Adam at 0.001, and
mini-batches of 32.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum


class UpdateRule(Enum):
    DQN = "dqn"
    DDQN = "ddqn"
    EDDQN = "eddqn"


@dataclass
class AgentConfig:
    epsilon_train: float = 0.1
    epsilon_test: float = 0.05
    gamma: float = 0.95
    replay_capacity: int = 800
    target_sync_every: int = 10
    learning_rate: float = 0.001
    batch_size: int = 32
    #: The one rule setting, named as on the CLI: ``dqn``, ``ddqn``, ``eddqn``,
    #: or ``drqn<T>``, DQN over the recurrent net trained on T-step traces.
    rule: str = "eddqn"
    max_episodes: int = 1500
    success_streak: int = 50
    max_steps_per_episode: int = 150
    mission_step_budget: int = 5000
    #: Mini-batch updates run after each training episode, every
    #: ``exploration_train_interval`` steps inside a training episode (None
    #: disables mid-episode updates), and every ``online_train_interval``
    #: executed steps while a mission is being flown.
    train_steps_per_episode: int = 1
    exploration_train_interval: int | None = 25
    online_train_interval: int = 1

    @property
    def trace_length(self) -> int | None:
        """T of a ``drqn<T>`` rule; None for a feedforward rule."""
        return int(self.rule[len("drqn"):]) if self.rule.startswith("drqn") else None

    @property
    def update_rule(self) -> UpdateRule:
        """The TD-target rule: a DRQN trains with DQN's."""
        return UpdateRule.DQN if self.trace_length is not None else UpdateRule(self.rule)

    def __post_init__(self) -> None:
        self.rule = self.rule.lower()
        if not re.fullmatch("dqn|ddqn|eddqn|drqn[1-9][0-9]*", self.rule):
            raise ValueError(f"rule {self.rule!r} is not dqn, ddqn, eddqn or drqn<T> "
                             "with a positive trace length T")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        for name in ("epsilon_train", "epsilon_test"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        # sizes, caps and update cadences (the cadences are taken modulo the
        # update or step count)
        for name in ("batch_size", "replay_capacity", "max_episodes", "success_streak",
                     "max_steps_per_episode", "mission_step_budget", "target_sync_every",
                     "online_train_interval", "exploration_train_interval"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive")
        if self.train_steps_per_episode < 0:
            raise ValueError("train_steps_per_episode must be >= 0")
        if self.trace_length is not None and self.trace_length > self.replay_capacity:
            # no trace would ever fit in the buffer, so the net would never train
            raise ValueError(f"rule {self.rule}'s {self.trace_length}-step trace exceeds "
                             f"replay_capacity {self.replay_capacity}")

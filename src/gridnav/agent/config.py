"""Agent hyper-parameters.

The defaults reproduce the production training setup exactly: exploration
rates 0.1/0.05 for the two phases, discount 0.95, an 800-transition replay
buffer, target-network refresh every 10 training steps, Adam at 0.001, and
mini-batches of 32.
"""

from __future__ import annotations

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
    rule: UpdateRule = UpdateRule.EDDQN
    #: None runs the feedforward network; 100 or 1000 trains the recurrent
    #: variant on contiguous episode segments of that length.
    trace_length: int | None = None
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
    def rule_name(self) -> str:
        """The CLI's name for the rule: ``drqn<trace length>`` for the
        recurrent variant, else the update rule's own name."""
        return self.rule.value if self.trace_length is None else f"drqn{self.trace_length}"

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        for name in ("epsilon_train", "epsilon_test"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.trace_length is not None and self.trace_length < 1:
            raise ValueError("trace_length must be positive")
        if self.batch_size < 1 or self.replay_capacity < 1:
            raise ValueError("batch_size and replay_capacity must be positive")
        if self.trace_length is not None and self.trace_length > self.replay_capacity:
            # no trace would ever fit in the buffer, so the net would never train
            raise ValueError(f"trace_length {self.trace_length} exceeds "
                             f"replay_capacity {self.replay_capacity}")
        # update cadences, taken modulo the update or step count
        for name in ("target_sync_every", "online_train_interval", "exploration_train_interval"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive")

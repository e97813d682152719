"""Reinforcement-learning core: the agent, replay, policies, update rules, phases."""

from .config import AgentConfig, UpdateRule
from .learning import compute_targets, td_targets, train_step
from .phases import (
    Agent,
    EpisodeLog,
    NavigationEnv,
    TRAINING_LOG_COLUMNS,
    run_exploitation_phase,
    run_exploration_phase,
    write_training_log,
)
from .policy import PolicyDecision, correct_action, epsilon_greedy
from .replay import ReplayBuffer, State, Transition

__all__ = [
    "Agent",
    "AgentConfig",
    "EpisodeLog",
    "NavigationEnv",
    "PolicyDecision",
    "ReplayBuffer",
    "State",
    "TRAINING_LOG_COLUMNS",
    "Transition",
    "UpdateRule",
    "compute_targets",
    "correct_action",
    "epsilon_greedy",
    "run_exploitation_phase",
    "run_exploration_phase",
    "td_targets",
    "train_step",
    "write_training_log",
]

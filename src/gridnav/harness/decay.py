"""Exact tabular backups through the shipped update rule's targets.

A Q-table stands in for both nets: every sweep feeds each state-action
pair's next-state row to ``agent.learning.td_targets`` and steps the table
toward the targets, ``q <- q + a * (target - q)``.  At a = 1 that is value
iteration, where DDQN's argmax-then-evaluate equals DQN's max.

The decay experiment is the one-state case: one action that loops on its
own state, never terminal, paying the valid-move reward r, so the state's
value feeds its own bootstrap term (what happens when the same transition
is drawn from a small replay buffer over and over):

    additive rule:     q <- q + a * ((r + g * q) - q)
    subtractive rule:  q <- q + a * ((r - g * q) - q)

The additive (double-DQN style) recurrence contracts toward r / (1 - g),
which for r = -0.04, g = 0.95 is -0.8: every replay drags the state's
value further down.  Flipping the bootstrap sign moves the fixed point to
r / (1 + g), about -0.0205, two orders of magnitude closer to the actual
one-step reward, which is the stabilisation the subtractive rule buys.
"""

from __future__ import annotations

import numpy as np

from ..agent.config import UpdateRule
from ..agent.learning import td_targets
from ..mapping import REWARD_VALID


def backup(rule: UpdateRule, rewards: np.ndarray, next_state: np.ndarray,
           terminal: np.ndarray, valid: np.ndarray, q: np.ndarray, gamma: float,
           alpha: float, sweeps: int) -> np.ndarray:
    """``sweeps`` backups of the (S, A) table ``q``, (sweeps + 1, S, A).

    Taking action a in state s pays ``rewards[s, a]`` and leads to state
    ``next_state[s, a]``, or ends the episode where ``terminal[s, a]``;
    ``valid[s]`` masks the actions of state s.  Index 0 is ``q`` itself.
    """
    nxt = np.ravel(next_state)
    rewards, terminal = np.ravel(rewards), np.ravel(terminal)
    valid_next = np.asarray(valid, dtype=bool)[nxt]
    tables = [np.asarray(q, dtype=np.float64)]
    for _ in range(sweeps):
        q = tables[-1]
        q_next = q[nxt]
        target = td_targets(rule, rewards, terminal, q_next, q_next, valid_next, gamma)
        tables.append(q + alpha * (target.reshape(q.shape) - q))
    return np.array(tables)


def decay_experiment(rule: UpdateRule, gamma: float, alpha: float, updates: int) -> np.ndarray:
    """The replayed state's value after each update, (updates + 1,); index 0
    is its initial value, the one-step reward."""
    table = np.full((1, 1), REWARD_VALID)
    # one action, always valid, never terminal, whose next state is its own
    return backup(rule, table, np.zeros((1, 1), dtype=int), np.zeros((1, 1), dtype=bool),
                  np.ones((1, 1), dtype=bool), table, gamma, alpha, updates)[:, 0, 0]

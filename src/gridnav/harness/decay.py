"""Scalar Q-value decay under repeated replay of one transition.

Strips the networks away and runs the shipped update rule's targets
(``agent.learning.td_targets``) on one scalar Q-state whose own value feeds
its bootstrap term (what happens when the same transition is drawn from a
small replay buffer over and over):

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
from .reports import DecayExperimentResult


def decay_experiment(
    rule: UpdateRule,
    reward: float = -0.04,
    gamma: float = 0.95,
    alpha: float = 0.5,
    updates: int = 500,
) -> DecayExperimentResult:
    """Iterate the rule's self-referential update on one state.

    The state starts at the one-step reward.  Returns its value after each
    update; index 0 is the initial value, so there are ``updates + 1``.
    """
    if updates < 0:
        raise ValueError("updates must be >= 0")
    q = rewards = np.full(1, reward, dtype=np.float64)
    values = [q[0]]
    # one action, always valid, never terminal: the replayed state is its
    # own next state under both nets
    terminals = np.zeros(1, dtype=bool)
    valid = np.ones((1, 1), dtype=bool)
    for _ in range(updates):
        target = td_targets(rule, rewards, terminals, q[:, None], q[:, None], valid, gamma)
        q = q + alpha * (target - q)
        values.append(q[0])
    return DecayExperimentResult(rule=rule.value, values=np.array(values))

"""Scalar Q-value decay under repeated replay of one transition.

Strips the networks away and runs the shipped update rule's targets
(``agent.learning.td_targets``) on a population of scalar Q-states whose
own value feeds their bootstrap term (what happens when the same transition
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
from .reports import DecayExperimentResult

DEFAULT_POPULATION = 100
DEFAULT_REWARD = -0.04
DEFAULT_GAMMA = 0.95
DEFAULT_ALPHA = 0.5


def decay_experiment(
    rule: UpdateRule,
    population: int = DEFAULT_POPULATION,
    reward: float = DEFAULT_REWARD,
    gamma: float = DEFAULT_GAMMA,
    alpha: float = DEFAULT_ALPHA,
    updates: int = 500,
) -> DecayExperimentResult:
    """Iterate the rule's self-referential update over a state population.

    All states start at the one-step reward value.  Returns the per-update
    five-number summary (min, quartiles, max); row 0 is the initial state,
    so the summary has ``updates + 1`` rows.
    """
    if updates < 0:
        raise ValueError("updates must be >= 0")
    if population < 1:
        raise ValueError("population must be positive")
    q = np.full(population, reward, dtype=np.float64)
    rewards = np.full(population, reward, dtype=np.float64)
    # one action, always valid, never terminal: the replayed state is its
    # own next state under both nets
    terminals = np.zeros(population, dtype=bool)
    valid = np.ones((population, 1), dtype=bool)
    summary = np.empty((updates + 1, 5), dtype=np.float64)

    def summarise(row: int) -> None:
        summary[row] = np.percentile(q, [0, 25, 50, 75, 100])

    summarise(0)
    for k in range(1, updates + 1):
        target = td_targets(rule, rewards, terminals, q[:, None], q[:, None], valid, gamma)
        q = q + alpha * (target - q)
        summarise(k)
    return DecayExperimentResult(rule=rule.value, initial_value=reward, summary=summary)

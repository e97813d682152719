"""Action selection: epsilon-greedy draws and the flight-safety correction.

Every executed action carries a provenance label: Random (exploration
draw), Predicted (greedy network output executed as-is), or Corrected (an
unsafe prediction replaced by the valid action closest to the target
cell).  The mission reports count these labels.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..mapping import ACTION_DELTAS, ACTIONS, Action, BoxedInError, LocalMap


class PolicyDecision(Enum):
    RANDOM = "random"
    PREDICTED = "predicted"
    CORRECTED = "corrected"


def epsilon_greedy(
    q_values: np.ndarray,
    valid_actions: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> tuple[Action, PolicyDecision]:
    """Pick an action from a 4-vector of Q-values.

    A uniform draw mu <= epsilon yields a random action from the valid set;
    otherwise the greedy argmax is returned (ties broken in the fixed
    N, S, E, W order).  The greedy branch deliberately ranges over all four
    actions so that unsafe predictions surface and can be voided or
    corrected downstream.
    """
    valid_actions = np.asarray(valid_actions, dtype=bool)
    if valid_actions.shape != (len(ACTIONS),):
        raise ValueError("valid_actions must be a 4-element mask")
    if not valid_actions.any():
        raise BoxedInError("no valid action to choose from")

    if rng.random() <= epsilon:
        choice = rng.choice(np.flatnonzero(valid_actions))
        return Action(int(choice)), PolicyDecision.RANDOM

    return Action(int(np.argmax(np.asarray(q_values, dtype=float)))), PolicyDecision.PREDICTED


def correct_action(
    local: LocalMap, predicted: Action, valid_actions: np.ndarray
) -> tuple[Action, PolicyDecision]:
    """Exploitation-time safety net for predicted actions.

    ``valid_actions`` is ``local``'s valid-action mask.  A valid prediction
    (into a free or previously visited cell) passes through.  Otherwise the
    valid action whose destination is nearest (Euclidean) to the target
    cell replaces it, ties broken in N, S, E, W order.  With no valid
    action at all the agent is boxed in, which is a mission-level failure.
    """
    if valid_actions[predicted]:
        return predicted, PolicyDecision.PREDICTED

    if not valid_actions.any():
        raise BoxedInError("agent is boxed in: all four destinations are blocked")

    target = local.target_cell
    best_action = None
    best_d2 = None
    for action in ACTIONS:
        if not valid_actions[action]:
            continue
        dr, dc = ACTION_DELTAS[action]
        dest_r = local.agent_local.row + dr
        dest_c = local.agent_local.col + dc
        d2 = (dest_r - target.row) ** 2 + (dest_c - target.col) ** 2
        if best_d2 is None or d2 < best_d2:
            best_d2 = d2
            best_action = action
    return best_action, PolicyDecision.CORRECTED

import numpy as np
import pytest

from gridnav.agent.policy import PolicyDecision, correct_action, epsilon_greedy
from gridnav.mapping import (
    ACTIONS,
    ACTION_DELTAS,
    Action,
    BoxedInError,
    GridCoord,
    local_to_global,
    mark_blocked,
    spawn_local_map,
    valid_action_mask,
)

WORLD = (100, 100)
ALL_VALID = np.ones(4, dtype=bool)


class TestEpsilonGreedy:
    def test_zero_epsilon_is_pure_greedy(self):
        rng = np.random.default_rng(0)
        q = np.array([0.1, 0.5, 0.2, 0.3])
        for _ in range(50):
            action, decision = epsilon_greedy(q, ALL_VALID, 0.0, rng)
            assert action == Action.SOUTH
            assert decision == PolicyDecision.PREDICTED

    def test_unit_epsilon_is_pure_random_from_valid_set(self):
        rng = np.random.default_rng(1)
        q = np.array([9.0, 0.0, 0.0, 0.0])
        valid = np.array([False, True, True, False])
        seen = set()
        for _ in range(200):
            action, decision = epsilon_greedy(q, valid, 1.0, rng)
            assert decision == PolicyDecision.RANDOM
            assert valid[action]
            seen.add(action)
        assert seen == {Action.SOUTH, Action.EAST}

    def test_argmax_prefers_fixed_action_order_on_ties(self):
        rng = np.random.default_rng(2)
        q = np.array([0.5, 0.5, 0.5, 0.5])
        action, _ = epsilon_greedy(q, ALL_VALID, 0.0, rng)
        assert action == Action.NORTH

    def test_greedy_branch_ranges_over_all_actions_by_default(self):
        rng = np.random.default_rng(3)
        q = np.array([9.0, 0.0, 0.0, 0.0])
        valid = np.array([False, True, True, True])
        action, decision = epsilon_greedy(q, valid, 0.0, rng)
        assert action == Action.NORTH  # invalid but predicted; caller corrects/voids
        assert decision == PolicyDecision.PREDICTED

    def test_empty_mask_raises(self):
        with pytest.raises(BoxedInError):
            epsilon_greedy(np.zeros(4), np.zeros(4, dtype=bool), 0.1,
                           np.random.default_rng(0))

    def test_epsilon_statistics(self):
        rng = np.random.default_rng(6)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        n = 4000
        randoms = sum(
            epsilon_greedy(q, ALL_VALID, 0.1, rng)[1] == PolicyDecision.RANDOM
            for _ in range(n)
        )
        assert abs(randoms / n - 0.1) < 0.02


def brute_force_correction(local, predicted):
    """Oracle: exhaustive scan over valid actions for the target-nearest one."""
    valid = valid_action_mask(local)
    if valid[predicted]:
        return predicted, PolicyDecision.PREDICTED
    best = None
    best_d = None
    for action in ACTIONS:
        if not valid[action]:
            continue
        dr, dc = ACTION_DELTAS[action]
        dest = (local.agent_local.row + dr, local.agent_local.col + dc)
        d = np.hypot(dest[0] - local.target_cell.row, dest[1] - local.target_cell.col)
        if best_d is None or d < best_d:
            best, best_d = action, d
    if best is None:
        raise BoxedInError("boxed in")
    return best, PolicyDecision.CORRECTED


class TestCorrectAction:
    def test_valid_prediction_passes_through(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 90), WORLD)
        action, decision = correct_action(local, Action.NORTH, valid_action_mask(local))
        assert action == Action.NORTH
        assert decision == PolicyDecision.PREDICTED

    def test_blocked_prediction_is_redirected_toward_target(self):
        # target cell due east at (5,9); east is blocked: north beats west
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 90), WORLD)
        assert local.target_cell == GridCoord(5, 9)
        local = mark_blocked(local, [GridCoord(50, 51), GridCoord(51, 50)])
        action, decision = correct_action(local, Action.EAST, valid_action_mask(local))
        assert decision == PolicyDecision.CORRECTED
        assert action == Action.NORTH  # d((4,5),(5,9)) ~ 4.12 < d((5,4),(5,9)) = 5

    def test_boxed_in_raises(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 90), WORLD)
        neighbours = [GridCoord(49, 50), GridCoord(51, 50), GridCoord(50, 51),
                      GridCoord(50, 49)]
        local = mark_blocked(local, neighbours)
        with pytest.raises(BoxedInError):
            correct_action(local, Action.NORTH, valid_action_mask(local))

    def test_matches_exhaustive_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            agent = GridCoord(int(rng.integers(6, 94)), int(rng.integers(6, 94)))
            goal = GridCoord(int(rng.integers(0, 100)), int(rng.integers(0, 100)))
            local = spawn_local_map(agent, goal, WORLD)
            blocked = [
                local_to_global(local, GridCoord(int(rng.integers(0, 10)),
                                                 int(rng.integers(0, 10))))
                for _ in range(int(rng.integers(0, 12)))
            ]
            local = mark_blocked(local, blocked)
            predicted = Action(int(rng.integers(0, 4)))
            mask = valid_action_mask(local)
            if not mask.any():
                continue
            assert correct_action(local, predicted, mask) == brute_force_correction(
                local, predicted
            )

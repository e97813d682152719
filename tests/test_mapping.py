import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridnav.mapping import (
    ACTIONS,
    ACTION_DELTAS,
    BOUNDARY_RING,
    Action,
    BoxedInError,
    CellState,
    GridCoord,
    LOCAL_SIZE,
    REWARD_BLOCKED,
    REWARD_INVALID,
    REWARD_REACHED,
    REWARD_VALID,
    REWARD_VISITED,
    global_to_local,
    in_local_bounds,
    local_to_global,
    mark_blocked,
    move,
    render_decision_map,
    retarget,
    select_target_cell,
    spawn_local_map,
    valid_action_mask,
)

WORLD = (100, 300)


def moved(local, *actions):
    """``local`` after each of ``actions``, none of which may be voided."""
    for action in actions:
        local = move(local, action)[1]
        assert local is not None, f"{action.name} was voided"
    return local


def brute_force_target(local, goal):
    """Independent oracle: scan the 36 ring cells in row-major order keeping
    the first strict minimum of Euclidean distance to the goal."""
    goal_local = global_to_local(local, goal)
    if in_local_bounds(goal_local) and local.cells[goal_local] != CellState.BLOCKED:
        return goal_local
    best = None
    best_d = None
    for cell in BOUNDARY_RING:
        if local.cells[cell] == CellState.BLOCKED:
            continue
        g = local_to_global(local, cell)
        d = math.dist(g, goal)
        if best_d is None or d < best_d:
            best, best_d = cell, d
    return best


class TestSpawn:
    def test_centering(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        assert local.agent_local == GridCoord(5, 5)
        assert local.origin_global == GridCoord(45, 45)
        assert local.agent_global == GridCoord(50, 50)

    def test_border_clipping_marks_outside_rows_blocked(self):
        local = spawn_local_map(GridCoord(2, 50), GridCoord(90, 50), WORLD)
        # global rows -3..-1 are local rows 0..2
        for r in range(3):
            assert all(local.cells[r, c] == CellState.BLOCKED for c in range(LOCAL_SIZE))
        assert local.cells[3, 0] != CellState.BLOCKED

    def test_goal_inside_window_becomes_target(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(52, 53), WORLD)
        assert local.target_cell == GridCoord(7, 8)
        assert render_decision_map(local)[7 * LOCAL_SIZE + 8] == 0.5

    def test_fresh_map_is_free_except_agent_and_target(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        # cells hold only what was learned; the raster draws agent and target
        assert (np.asarray(local.cells) == CellState.FREE).all()
        raster = render_decision_map(local)
        assert (raster == -0.5).sum() == 1
        assert (raster == 0.5).sum() == 1
        assert (raster == 1.0).sum() == LOCAL_SIZE * LOCAL_SIZE - 2

    def test_agent_outside_world_rejected(self):
        with pytest.raises(ValueError):
            spawn_local_map(GridCoord(-1, 5), GridCoord(5, 5), WORLD)


class TestSelectTarget:
    def test_goal_due_east(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        assert local.target_cell == GridCoord(5, 9)

    def test_goal_southeast_corner(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(200, 200), (300, 300))
        assert local.target_cell == GridCoord(9, 9)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            agent = GridCoord(int(rng.integers(0, WORLD[0])), int(rng.integers(0, WORLD[1])))
            goal = GridCoord(int(rng.integers(0, WORLD[0])), int(rng.integers(0, WORLD[1])))
            local = spawn_local_map(agent, goal, WORLD)
            assert local.target_cell == brute_force_target(local, goal)

    def test_blocked_ring_cells_are_skipped(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        # Bury the whole east edge; the target must move off it.
        east_edge = [local_to_global(local, GridCoord(r, 9)) for r in range(LOCAL_SIZE)]
        local = mark_blocked(local, east_edge)
        local = retarget(local, GridCoord(50, 200))
        assert local.target_cell.col != 9
        assert local.target_cell == brute_force_target(local, GridCoord(50, 200))


class TestMoveConstraints:
    def test_blocked_destination_is_hard(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        local = mark_blocked(local, [GridCoord(50, 51)])
        assert move(local, Action.EAST)[1] is None
        assert not valid_action_mask(local)[Action.EAST]

    def test_visited_destination_is_soft(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        local = moved(local, Action.WEST, Action.EAST)
        reward, after = move(local, Action.WEST)
        assert after is not None and reward == REWARD_VISITED
        assert valid_action_mask(local)[Action.WEST]

    def test_free_destination_is_unconstrained(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        reward, after = move(local, Action.NORTH)
        assert after is not None and reward == REWARD_VALID
        assert valid_action_mask(local)[Action.NORTH]

    def test_window_edge_is_hard(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        local = moved(local, *[Action.NORTH] * 5)
        assert local.agent_local.row == 0
        assert move(local, Action.NORTH)[1] is None
        assert not valid_action_mask(local)[Action.NORTH]

    def test_move_updates_both_cells(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        north = moved(local, Action.NORTH)
        assert north.agent_local == GridCoord(4, 5)
        assert north.cells[5, 5] == CellState.VISITED
        assert north.cells[4, 5] == CellState.FREE
        assert render_decision_map(north)[4 * LOCAL_SIZE + 5] == -0.5
        # value semantics: the source map is untouched
        assert local.agent_local == GridCoord(5, 5)
        assert local.cells[5, 5] == CellState.FREE
        assert render_decision_map(local)[5 * LOCAL_SIZE + 5] == -0.5

    def test_move_changes_exactly_two_cells(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        east = moved(local, Action.EAST)
        diff = np.flatnonzero(render_decision_map(local) != render_decision_map(east))
        assert len(diff) == 2

    def test_soft_move_is_permitted(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        local = moved(local, Action.EAST)
        back = move(local, Action.WEST)[1]  # back onto the visited cell
        assert back is not None and back.agent_local == GridCoord(5, 5)

    def test_hard_move_is_voided_and_leaves_map_unchanged(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        local = mark_blocked(local, [GridCoord(49, 50)])
        before = np.asarray(local.cells).copy()
        assert move(local, Action.NORTH)[1] is None
        assert np.array_equal(before, np.asarray(local.cells))
        assert local.agent_local == GridCoord(5, 5)


class TestReward:
    """Each reward case, paid for an action from a map built for it."""

    def setup_method(self):
        self.local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)

    def test_reaching_goal(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 51), WORLD)
        assert local.target_cell == GridCoord(5, 6)
        value, east = move(local, Action.EAST)
        assert value == REWARD_REACHED
        assert east.agent_local == east.target_cell

    def test_blocked_cell(self):
        local = mark_blocked(self.local, [GridCoord(49, 50)])
        assert move(local, Action.NORTH) == (REWARD_BLOCKED, None)

    def test_visited_cell(self):
        local = moved(self.local, Action.NORTH)
        assert move(local, Action.SOUTH)[0] == REWARD_VISITED

    def test_free_cell(self):
        assert move(self.local, Action.NORTH)[0] == REWARD_VALID

    def test_outside_window_is_invalid(self):
        local = moved(self.local, *[Action.NORTH] * 5)
        assert local.agent_global == GridCoord(45, 50)  # row 44 is in the world
        assert move(local, Action.NORTH) == (REWARD_INVALID, None)

    def test_clipped_border_cell_is_invalid_not_blocked(self):
        local = spawn_local_map(GridCoord(2, 50), GridCoord(90, 50), WORLD)
        local = moved(local, Action.NORTH, Action.NORTH)
        # global row -1 is inside the window but outside the search area
        assert local.agent_global == GridCoord(0, 50)
        assert local.cells[local.agent_local.row - 1, local.agent_local.col] == CellState.BLOCKED
        assert move(local, Action.NORTH) == (REWARD_INVALID, None)

    def test_goal_precedence_beats_visited(self):
        # revisiting the start, declared as the goal
        local = retarget(moved(self.local, Action.NORTH), GridCoord(50, 50))
        assert local.cells[local.target_cell] == CellState.VISITED
        assert move(local, Action.SOUTH)[0] == REWARD_REACHED


class TestDecisionMapRaster:
    def test_fresh_map_coding(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        raster = render_decision_map(local)
        assert raster.shape == (100,)
        assert raster[55] == -0.5
        target_index = local.target_cell.row * LOCAL_SIZE + local.target_cell.col
        assert raster[target_index] == 0.5
        assert (raster == 1.0).sum() == 98

    def test_blocked_ring_coding(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        local = mark_blocked(local, [local_to_global(local, c) for c in BOUNDARY_RING])
        raster = render_decision_map(local)
        ring_indices = [c.row * LOCAL_SIZE + c.col for c in BOUNDARY_RING]
        # the target sat on the ring and got buried, so all 36 are blocked
        assert sum(raster[i] == -1.0 for i in ring_indices) == 36

    def test_raster_after_north_move(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        raster = render_decision_map(moved(local, Action.NORTH))
        assert raster[55] == 0.0
        assert raster[45] == -0.5

    def test_values_stay_in_coding_set(self):
        local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
        rng = np.random.default_rng(5)
        for _ in range(60):
            mask = valid_action_mask(local)
            action = Action(int(rng.choice(np.flatnonzero(mask))))
            local = moved(local, action)
            raster = render_decision_map(local)
            assert set(np.unique(raster)) <= {-1.0, -0.5, 0.0, 0.5, 1.0}


_WALK_STEPS = st.one_of(
    st.sampled_from(list(ACTIONS)),
    st.tuples(st.just("block"), st.integers(44, 56), st.integers(44, 56)),
    st.tuples(st.just("retarget"), st.integers(40, 60), st.integers(40, 60)),
    st.just("retarget-here"),  # the agent stands on its target
)


def walk(steps):
    """Each map along a walk from a fresh map: after every move (a voided
    one leaves the map as it was), sensed obstacle and retarget."""
    local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
    for step in steps:
        if step in ACTIONS:
            local = move(local, step)[1] or local
        elif step == "retarget-here":
            local = retarget(local, local.agent_global)
        elif step[0] == "block":
            local = mark_blocked(local, [GridCoord(step[1], step[2])])
        else:
            try:
                local = retarget(local, GridCoord(step[1], step[2]))
            except BoxedInError:
                pass
        yield local


@given(st.lists(_WALK_STEPS, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_exactly_one_current_cell_through_any_walk(steps):
    """Through moves, sensed obstacles and retargets the raster shows the
    agent exactly once, at ``agent_local``, and the target exactly where
    ``target_cell`` is a free cell the agent does not stand on."""
    for local in walk(steps):
        raster = render_decision_map(local).reshape(LOCAL_SIZE, LOCAL_SIZE)
        assert [tuple(c) for c in np.argwhere(raster == -0.5)] == [local.agent_local]
        target_drawn = (local.target_cell != local.agent_local
                        and local.cells[local.target_cell] == CellState.FREE)
        expected = [local.target_cell] if target_drawn else []
        assert [tuple(c) for c in np.argwhere(raster == 0.5)] == expected


@given(st.lists(_WALK_STEPS, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_a_move_is_void_exactly_when_invalid_through_any_walk(steps):
    """Along any walk, ``move`` voids exactly the actions the valid-action
    mask rules out, and a move changes only the cell the agent left, which
    becomes visited, and the agent's position."""
    for local in walk(steps):
        mask = valid_action_mask(local)
        for action in ACTIONS:
            after = move(local, action)[1]
            assert (after is None) == (not mask[action])
            if after is None:
                continue
            dr, dc = ACTION_DELTAS[action]
            here = local.agent_local
            assert after.agent_local == (here.row + dr, here.col + dc)
            assert after.cells[here] == CellState.VISITED
            changed = np.asarray(after.cells) != np.asarray(local.cells)
            changed[here] = False
            assert not changed.any()
            assert (after.origin_global, after.target_cell, after.world_shape) == (
                local.origin_global, local.target_cell, local.world_shape)


@given(st.lists(st.tuples(st.integers(45, 56), st.integers(45, 56)), max_size=15),
       st.lists(st.sampled_from(list(ACTIONS)), max_size=15))
@settings(max_examples=60, deadline=None)
def test_blocked_is_absorbing(blocked_cells, actions):
    local = spawn_local_map(GridCoord(50, 50), GridCoord(50, 200), WORLD)
    coords = [GridCoord(r, c) for r, c in blocked_cells]
    local = mark_blocked(local, coords)
    blocked_before = {
        tuple(c) for c in np.argwhere(np.asarray(local.cells) == CellState.BLOCKED)
    }
    for action in actions:
        local = move(local, action)[1] or local
        local = retarget(local, GridCoord(50, 200))
    blocked_after = {
        tuple(c) for c in np.argwhere(np.asarray(local.cells) == CellState.BLOCKED)
    }
    assert blocked_before <= blocked_after


def test_action_deltas_are_unit_moves():
    assert len(ACTIONS) == 4
    for action in ACTIONS:
        dr, dc = ACTION_DELTAS[action]
        assert abs(dr) + abs(dc) == 1

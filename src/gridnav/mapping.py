"""Egocentric decision map: the grid the agent plans on.

A 10x10 *decision map* is spawned around the agent and carries the local
picture: what it has learned about each cell (free, visited or blocked),
plus the agent's cell and the target cell that steers it toward the mission
goal.  A fresh map is spawned each time the agent reaches its target cell.
What a whole mission sensed and flew is not a map: the mission keeps its
route and the set of obstacle cells it sensed (see
``agent.phases.run_exploitation_phase``).  One grid cell is one square
metre and the agent moves exactly one cell per step.

A map's ``cells`` hold only learned states; the agent and the target live
only in the decision map's ``agent_local`` and ``target_cell`` fields, and
only :func:`render_decision_map` draws them into the raster.

:func:`move` is the one move rule: what an attempted action pays and the
map it leads to, or None when the action is hard-constrained and so voided
in place.

All operations here are value-level: they return new map objects and never
mutate their inputs, so maps can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Iterable, NamedTuple

import numpy as np

LOCAL_SIZE = 10
#: Local cell the agent occupies in a freshly spawned decision map.  A 10x10
#: grid has no exact centre; (5, 5) gives five steps toward low indices and
#: four toward high ones.
LOCAL_CENTER_ROW = 5
LOCAL_CENTER_COL = 5

REWARD_REACHED = 1.0
REWARD_BLOCKED = -1.50
REWARD_VISITED = -0.25
REWARD_VALID = -0.04
REWARD_INVALID = -0.75


class GridCoord(NamedTuple):
    row: int
    col: int


class CellState(IntEnum):
    """What a decision map has learned about a cell; the raster codes are
    indexed by it."""

    FREE = 0
    VISITED = 1
    BLOCKED = 2


class Action(IntEnum):
    """Grid-frame moves, in the fixed ordering used for Q-value vectors."""

    NORTH = 0
    SOUTH = 1
    EAST = 2
    WEST = 3


ACTION_DELTAS: dict[Action, tuple[int, int]] = {
    Action.NORTH: (-1, 0),
    Action.SOUTH: (1, 0),
    Action.EAST: (0, 1),
    Action.WEST: (0, -1),
}

ACTIONS = (Action.NORTH, Action.SOUTH, Action.EAST, Action.WEST)


#: Decision-map raster coding, indexed by :class:`CellState` (free 1.0,
#: visited 0.0, blocked -1.0); the target cell is drawn as 0.5 and the agent
#: as -0.5.  Symmetric in [-1, 1] with obstacles most negative so that "more
#: traversable" reads as "brighter".
_RASTER_CODES = np.array([1.0, 0.0, -1.0], dtype=np.float32)

#: What a move into a cell inside the search area pays, indexed by
#: :class:`CellState`, unless the cell is the target.
_CELL_REWARDS = (REWARD_VALID, REWARD_VISITED, REWARD_BLOCKED)

#: Local coordinates of the 36-cell boundary ring, in row-major order so a
#: first-minimum scan implements the row-major tie-break.
BOUNDARY_RING: tuple[GridCoord, ...] = tuple(
    GridCoord(r, c)
    for r in range(LOCAL_SIZE)
    for c in range(LOCAL_SIZE)
    if r in (0, LOCAL_SIZE - 1) or c in (0, LOCAL_SIZE - 1)
)

_RING_ROWS = np.array([c.row for c in BOUNDARY_RING])
_RING_COLS = np.array([c.col for c in BOUNDARY_RING])


class BoxedInError(RuntimeError):
    """No valid action exists: every neighbouring cell is off-limits."""


@dataclass(frozen=True)
class LocalMap:
    """10x10 egocentric decision map.

    ``cells`` is a read-only (10, 10) int8 array of :class:`CellState`
    values: what the map has learned, never the agent or the target, which
    live only in ``agent_local`` and ``target_cell`` (local coordinates).
    ``origin_global`` is the global coordinate of local cell (0, 0);
    ``world_shape`` is the (height, width) of the search area so that
    clipped border cells can be told apart from sensed obstacles.
    """

    cells: np.ndarray
    agent_local: GridCoord
    origin_global: GridCoord
    target_cell: GridCoord
    world_shape: tuple[int, int]

    def __post_init__(self) -> None:
        self.cells.flags.writeable = False

    @property
    def agent_global(self) -> GridCoord:
        return local_to_global(self, self.agent_local)


def local_to_global(local: LocalMap, coord: GridCoord) -> GridCoord:
    return GridCoord(local.origin_global.row + coord.row, local.origin_global.col + coord.col)


def global_to_local(local: LocalMap, coord: GridCoord) -> GridCoord:
    return GridCoord(coord.row - local.origin_global.row, coord.col - local.origin_global.col)


def in_local_bounds(coord: GridCoord) -> bool:
    return 0 <= coord.row < LOCAL_SIZE and 0 <= coord.col < LOCAL_SIZE


def spawn_local_map(
    agent_global: GridCoord,
    goal_global: GridCoord,
    world_shape: tuple[int, int],
) -> LocalMap:
    """Spawn a fresh decision map centred on the agent.

    All cells start free; window cells that fall outside the search area
    are blocked so the hard-constraint machinery keeps the agent inside.
    The target cell is selected toward the goal.
    """
    height, width = world_shape
    if not (0 <= agent_global.row < height and 0 <= agent_global.col < width):
        raise ValueError(f"agent {agent_global} outside {height}x{width} world")

    origin = GridCoord(agent_global.row - LOCAL_CENTER_ROW, agent_global.col - LOCAL_CENTER_COL)
    cells = np.zeros((LOCAL_SIZE, LOCAL_SIZE), dtype=np.int8)

    rows = origin.row + np.arange(LOCAL_SIZE)
    cols = origin.col + np.arange(LOCAL_SIZE)
    outside = ((rows < 0) | (rows >= height))[:, None] | ((cols < 0) | (cols >= width))[None, :]
    cells[outside] = CellState.BLOCKED

    center = GridCoord(LOCAL_CENTER_ROW, LOCAL_CENTER_COL)
    local = LocalMap(cells=cells, agent_local=center, origin_global=origin,
                     target_cell=center, world_shape=world_shape)
    return retarget(local, goal_global)


def select_target_cell(local: LocalMap, goal_global: GridCoord) -> GridCoord:
    """Pick the local cell that steers the agent toward the global goal.

    If the goal lies inside the window (and is not blocked), its own local
    cell is the target.  Otherwise the target is the boundary-ring cell
    whose global position is nearest (Euclidean) to the goal, with ties
    broken in row-major order.  Blocked ring cells, which include every
    cell clipped off by the search-area border, are not eligible: a target
    the agent can never enter would deadlock the mission.
    """
    goal_local = global_to_local(local, goal_global)
    if in_local_bounds(goal_local) and local.cells.item(goal_local) != CellState.BLOCKED:
        return goal_local

    ring_rows_g = _RING_ROWS + local.origin_global.row
    ring_cols_g = _RING_COLS + local.origin_global.col
    d2 = (ring_rows_g - goal_global.row) ** 2 + (ring_cols_g - goal_global.col) ** 2
    blocked = local.cells[_RING_ROWS, _RING_COLS] == CellState.BLOCKED
    if blocked.all():
        raise BoxedInError("every boundary cell of the decision map is blocked")
    d2 = np.where(blocked, np.iinfo(np.int64).max, d2)
    best = int(np.argmin(d2))
    return BOUNDARY_RING[best]


def _destination(local: LocalMap, action: Action) -> tuple[GridCoord, bool]:
    """The local cell ``action`` drives at, and whether the move is
    hard-constrained: off the window or into a blocked cell."""
    dr, dc = ACTION_DELTAS[action]
    dest = GridCoord(local.agent_local.row + dr, local.agent_local.col + dc)
    return dest, not in_local_bounds(dest) or local.cells.item(dest) == CellState.BLOCKED


def valid_action_mask(local: LocalMap) -> np.ndarray:
    """Boolean mask over (N, S, E, W): the moves that are not hard-constrained."""
    return np.array([not _destination(local, a)[1] for a in ACTIONS], dtype=bool)


def move(local: LocalMap, action: Action) -> tuple[float, LocalMap | None]:
    """What an attempted action pays, and the map it leads to.

    The reward is read from the cell the action drives at, with precedence
    reached (the target cell) > blocked > visited > valid > invalid.  A cell
    off the window is invalid, and so is a blocked cell that merely stands
    in for territory beyond the search area: the offence there is leaving
    the search area rather than hitting an obstacle.

    The map is None when the action is hard-constrained (off the window or
    into a blocked cell), which voids it in place; otherwise the agent moves
    and the cell it leaves becomes visited.
    """
    dest, hard = _destination(local, action)
    row, col = local_to_global(local, dest)
    height, width = local.world_shape
    if dest == local.target_cell:
        r = REWARD_REACHED
    elif in_local_bounds(dest) and 0 <= row < height and 0 <= col < width:
        r = _CELL_REWARDS[local.cells.item(dest)]
    else:
        r = REWARD_INVALID
    if hard:
        return r, None
    cells = local.cells.copy()
    cells[local.agent_local] = CellState.VISITED
    return r, replace(local, cells=cells, agent_local=dest)


def mark_blocked(local: LocalMap, blocked_global: Iterable[GridCoord]) -> LocalMap:
    """Record sensed obstacles.  Blocking is absorbing; the agent cell is immune."""
    cells = None
    for coord in blocked_global:
        loc = global_to_local(local, coord)
        if not in_local_bounds(loc) or loc == local.agent_local:
            continue
        if cells is None:
            cells = local.cells.copy()
        cells[loc] = CellState.BLOCKED
    if cells is None:
        return local
    return replace(local, cells=cells)


def retarget(local: LocalMap, goal_global: GridCoord) -> LocalMap:
    """Re-select the target cell (used when sensing blocked the current one)."""
    return replace(local, target_cell=select_target_cell(local, goal_global))


def render_decision_map(local: LocalMap) -> np.ndarray:
    """Row-major 100-vector of the map raster coding, in [-1, 1].

    The agent is drawn last, so it shows even when it stands on the target.
    """
    raster = _RASTER_CODES[local.cells]
    if local.cells.item(local.target_cell) == CellState.FREE:
        raster[local.target_cell] = 0.5
    raster[local.agent_local] = -0.5
    return raster.reshape(-1)


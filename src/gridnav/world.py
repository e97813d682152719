"""Procedural outdoor worlds with a synthetic forward camera.

Stands in for a full flight simulator: generates obstacle fields for three
terrain domains, answers close-range obstacle queries, renders an 84x84
grayscale forward view by ray casting, and degrades frames with snow, dust
or fog.

Geometry conventions: the world is a ``width_m`` x ``height_m`` rectangle;
grid cell (row, col) is the unit square with centre ``(x, y) = (col + 0.5,
row + 0.5)``, x growing east and y growing south.  North is toward smaller
rows.  A :class:`World` is its obstacles as read-only float64 columns (x,
y, radius, shade, vx, vy), one entry per obstacle in generation order;
nothing changes a world once built (``step_dynamics`` returns a new one),
so everything here is a pure function of its inputs and rendering is
reentrant and thread-safe.  Each query reads from the columns only the
obstacles within its reach.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.ndimage import uniform_filter

from .mapping import ACTION_DELTAS, ACTIONS, Action, GridCoord

FRAME_SIZE = 84
FOV_DEGREES = 90.0
VIEW_RANGE_M = 20.0
DEFAULT_OBSTACLE_RADIUS = 0.3
SENSE_RANGE_M = 1.0

#: Background gradient bounds: bright sky at the top row, dark ground at the
#: bottom row.
BACKGROUND_TOP = 1.0
BACKGROUND_BOTTOM = 0.2

FOG_GRAY = 0.8
DUST_TONE = 0.3
DUST_SPECK_VALUE = 0.4
SNOW_HAZE = 0.9
SNOW_SPECK_VALUE = 1.0

ALLOWED_INTENSITIES = (0.0, 0.15, 0.30)

#: Added to every query's reach, so that float rounding in the box test can
#: never drop an obstacle that the exact test would count.
_REACH_SLACK_M = 1.0


class Domain(Enum):
    FOREST = "forest"
    PLAIN = "plain"
    SAVANNA = "savanna"


#: Obstacles per 100 m^2.  The paper's test protocol implies forest is far
#: more cluttered than plain or savanna; exact densities are free parameters.
DEFAULT_DENSITY = {
    Domain.FOREST: 12.0,
    Domain.PLAIN: 1.0,
    Domain.SAVANNA: 2.0,
}


class WeatherKind(Enum):
    CLEAR = "clear"
    SNOW = "snow"
    DUST = "dust"
    FOG = "fog"


@dataclass(frozen=True)
class WeatherCondition:
    kind: WeatherKind = WeatherKind.CLEAR
    intensity: float = 0.0

    def __post_init__(self) -> None:
        if not any(math.isclose(self.intensity, v) for v in ALLOWED_INTENSITIES):
            raise ValueError(f"intensity {self.intensity} not one of {ALLOWED_INTENSITIES}")
        if self.kind == WeatherKind.CLEAR and self.intensity != 0.0:
            raise ValueError("clear weather has zero intensity")
        if self.kind != WeatherKind.CLEAR and self.intensity == 0.0:
            raise ValueError(f"{self.kind.value} weather needs a non-zero intensity")


CLEAR = WeatherCondition(WeatherKind.CLEAR, 0.0)


@dataclass(frozen=True)
class WorldSpec:
    domain: Domain = Domain.FOREST
    width_m: int = 100
    height_m: int = 100
    obstacle_density: float | None = None
    dynamic_count: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.height_m <= 0:
            raise ValueError("world dimensions must be positive")
        if self.obstacle_density is not None and not 0 <= self.obstacle_density < math.inf:
            raise ValueError("obstacle density must be finite and non-negative")
        if self.seed < 0:
            raise ValueError("world seed must be non-negative")
        if self.dynamic_count < 0:
            raise ValueError("dynamic_count must be non-negative")
        if self.dynamic_count and self.domain != Domain.SAVANNA:
            raise ValueError("dynamic obstacles only exist in the savanna domain")

    @property
    def density(self) -> float:
        if self.obstacle_density is not None:
            return self.obstacle_density
        return DEFAULT_DENSITY[self.domain]

    @property
    def shape(self) -> tuple[int, int]:
        """(height, width) in grid cells."""
        return (self.height_m, self.width_m)


@dataclass(frozen=True, eq=False)
class World:
    """One snapshot of a world: its spec and its obstacles as float64
    columns, entry ``i`` of each column describing obstacle ``i`` in
    generation order.  The columns are private read-only copies of what
    the constructor is given."""

    spec: WorldSpec
    x: np.ndarray
    y: np.ndarray
    radius: np.ndarray
    shade: np.ndarray
    vx: np.ndarray
    vy: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "y", "radius", "shade", "vx", "vy"):
            column = np.array(getattr(self, name), dtype=np.float64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.x.size

    @property
    def shape(self) -> tuple[int, int]:
        return self.spec.shape

    @cached_property
    def movers(self) -> np.ndarray:
        """Indices of the obstacles with a nonzero velocity."""
        return np.flatnonzero((self.vx != 0.0) | (self.vy != 0.0))

    @property
    def has_dynamics(self) -> bool:
        return self.movers.size > 0

    def within(self, x: float, y: float, reach: float) -> np.ndarray:
        """Indices, in order, of the obstacles whose disc may come within
        ``reach`` metres of ``(x, y)``: a box test with slack, a superset of
        the exact distance test."""
        bound = self.radius + (reach + _REACH_SLACK_M)
        return np.flatnonzero((np.abs(self.x - x) <= bound) & (np.abs(self.y - y) <= bound))


class GenerationError(RuntimeError):
    """World generation could not satisfy its constraints."""


def cell_center(cell: GridCoord) -> tuple[float, float]:
    return (cell.col + 0.5, cell.row + 0.5)


def _disc_intersects_cell(x: float, y: float, radius: float, cell: GridCoord) -> bool:
    """Disc vs. the unit square of a grid cell."""
    nearest_x = min(max(x, float(cell.col)), float(cell.col + 1))
    nearest_y = min(max(y, float(cell.row)), float(cell.row + 1))
    return (x - nearest_x) ** 2 + (y - nearest_y) ** 2 <= radius**2


def generate_world(
    spec: WorldSpec,
    start: GridCoord | None = None,
    goal: GridCoord | None = None,
) -> World:
    """Deterministically generate a world from its spec.

    Obstacles are placed by seeded uniform rejection sampling at the spec's
    density; positions whose disc would touch the start or goal cell are
    re-drawn.  Raises :class:`GenerationError` when the field is too dense
    to keep those cells clear.
    """
    rng = np.random.default_rng(spec.seed)
    area = spec.width_m * spec.height_m
    count = int(round(spec.density * area / 100.0))
    protected = [c for c in (start, goal) if c is not None]
    attempts_left = max(1000, 200 * count)

    def clear_position() -> tuple[float, float]:
        """A uniform draw whose disc keeps the start and goal cells clear;
        all obstacles share one attempt budget."""
        nonlocal attempts_left
        while attempts_left > 0:
            attempts_left -= 1
            x = rng.uniform(0.0, spec.width_m)
            y = rng.uniform(0.0, spec.height_m)
            if not any(_disc_intersects_cell(x, y, DEFAULT_OBSTACLE_RADIUS, c) for c in protected):
                return x, y
        raise GenerationError(f"could not place {count + spec.dynamic_count} obstacles "
                              "and keep start/goal clear")

    rows: list[tuple[float, float, float, float, float]] = []  # x, y, shade, vx, vy
    for _ in range(count):
        x, y = clear_position()
        rows.append((x, y, rng.uniform(0.0, 1.0), 0.0, 0.0))
    for _ in range(spec.dynamic_count):
        x, y = clear_position()
        angle = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(0.5, 1.5)
        rows.append((x, y, rng.uniform(0.0, 1.0), speed * math.cos(angle),
                     speed * math.sin(angle)))

    x, y, shade, vx, vy = np.array(rows, dtype=np.float64).reshape(-1, 5).T
    return World(spec, x, y, np.full(len(rows), DEFAULT_OBSTACLE_RADIUS), shade, vx, vy)


def occupied_cells(world: World) -> np.ndarray:
    """``(height, width)`` bool mask of the grid cells whose unit square is
    touched by some obstacle disc."""
    height, width = world.shape
    r0 = np.maximum(np.floor(world.y - world.radius).astype(np.int64), 0)
    r1 = np.minimum(np.floor(world.y + world.radius).astype(np.int64), height - 1)
    c0 = np.maximum(np.floor(world.x - world.radius).astype(np.int64), 0)
    c1 = np.minimum(np.floor(world.x + world.radius).astype(np.int64), width - 1)
    radius2 = np.float_power(world.radius, 2)
    occupied = np.zeros(world.shape, dtype=bool)
    # each offset tests one cell of every obstacle's bounding box at once
    for dr in range(int(np.max(r1 - r0, initial=-1)) + 1):
        for dc in range(int(np.max(c1 - c0, initial=-1)) + 1):
            r, c = r0 + dr, c0 + dc
            # the disc-vs-square test of _disc_intersects_cell; float_power
            # squares through libm pow, as its scalar ``**`` does
            nearest_x = np.minimum(np.maximum(world.x, c), c + 1)
            nearest_y = np.minimum(np.maximum(world.y, r), r + 1)
            hit = (r <= r1) & (c <= c1) & (
                np.float_power(world.x - nearest_x, 2) + np.float_power(world.y - nearest_y, 2)
                <= radius2)
            occupied[r[hit], c[hit]] = True
    return occupied


def sense_obstacles(world: World, agent: GridCoord) -> set[GridCoord]:
    """Neighbour cells rendered unusable by an obstacle within sensing range.

    A neighbour is reported when some obstacle disc both lies within 1 m of
    the agent's cell centre (disc edge, not centre) and overlaps that
    neighbour's cell square.
    """
    ax, ay = cell_center(agent)
    idx = world.within(ax, ay, SENSE_RANGE_M)
    # Python floats, so that the scalar distance tests round as they always have
    near = list(zip(world.x[idx].tolist(), world.y[idx].tolist(), world.radius[idx].tolist()))
    blocked: set[GridCoord] = set()
    for action in ACTIONS:
        dr, dc = ACTION_DELTAS[action]
        neighbour = GridCoord(agent.row + dr, agent.col + dc)
        for x, y, radius in near:
            gap = math.hypot(x - ax, y - ay) - radius
            if gap >= SENSE_RANGE_M:
                continue
            if _disc_intersects_cell(x, y, radius, neighbour):
                blocked.add(neighbour)
                break
    return blocked


_FACING_VECTORS = {
    Action.NORTH: (0.0, -1.0),
    Action.SOUTH: (0.0, 1.0),
    Action.EAST: (1.0, 0.0),
    Action.WEST: (-1.0, 0.0),
}


def render_frame(world: World, agent: GridCoord, facing: Action,
                 size: int = FRAME_SIZE) -> np.ndarray:
    """Ray-cast the forward view into a square grayscale frame in [-1, 1].

    Each of the ``size`` columns (84 in production) casts one ray across a
    90 degree field of view.  The nearest obstacle hit within 20 m paints
    a vertical band whose darkness and height grow as the obstacle gets
    closer (band value ``-1 + 2 * d / 20``); obstacle shade scales the
    band height so the field reads as mixed vegetation.  Columns without
    a hit show the sky-to-ground background gradient.
    """
    frame = np.repeat(
        np.linspace(BACKGROUND_TOP, BACKGROUND_BOTTOM, size, dtype=np.float32)[:, None],
        size,
        axis=1,
    )
    ax, ay = cell_center(agent)
    # in index order, so that argmin ties and the shade lookup pick the same
    # obstacle as a pass over every obstacle would
    near = world.within(ax, ay, VIEW_RANGE_M)
    if not near.size:
        return frame

    fx, fy = _FACING_VECTORS[facing]
    half_fov = math.radians(FOV_DEGREES / 2.0)
    angles = -half_fov + 2.0 * half_fov * (np.arange(size) + 0.5) / size
    dirs_x = fx * np.cos(angles) - fy * np.sin(angles)
    dirs_y = fx * np.sin(angles) + fy * np.cos(angles)

    ox = world.x[near] - ax
    oy = world.y[near] - ay
    radius = world.radius[near]
    shade = world.shade[near]

    # Ray/disc intersection for every (column, obstacle) pair.
    proj = dirs_x[:, None] * ox[None, :] + dirs_y[:, None] * oy[None, :]
    center_d2 = ox**2 + oy**2
    perp2 = center_d2[None, :] - proj**2
    disc = radius[None, :] ** 2 - perp2
    hit = (disc >= 0.0) & (proj > 0.0)
    t = np.where(hit, proj - np.sqrt(np.maximum(disc, 0.0)), np.inf)
    t = np.where(t > 0.0, t, np.inf)
    t = np.where(t <= VIEW_RANGE_M, t, np.inf)

    nearest = np.argmin(t, axis=1)
    dist = t[np.arange(size), nearest]
    half_height = size // 2
    for col in range(size):
        d = dist[col]
        if not np.isfinite(d):
            continue
        closeness = 1.0 - d / VIEW_RANGE_M
        band = max(1, int(round(half_height * closeness * (0.4 + 0.6 * shade[nearest[col]]))))
        value = np.float32(-1.0 + 2.0 * d / VIEW_RANGE_M)
        lo = max(0, half_height - band)
        hi = min(size, half_height + band)
        frame[lo:hi, col] = value
    return frame


def apply_weather(frame: np.ndarray, weather: WeatherCondition, rng_seed: int) -> np.ndarray:
    """Degrade a frame with the given weather; clear weather is the identity.

    Fog blends toward a uniform gray and blurs; dust blends toward a dust
    tone and speckles sparsely; snow adds haze plus bright speckles.  The
    speckle pattern is a pure function of ``rng_seed``.
    """
    w = weather.intensity
    if weather.kind == WeatherKind.CLEAR:
        return frame.copy()

    rng = np.random.default_rng(rng_seed)
    if weather.kind == WeatherKind.FOG:
        out = (1.0 - w) * frame + w * FOG_GRAY
        radius = math.ceil(4 * w)
        out = uniform_filter(out.astype(np.float32), size=2 * radius + 1, mode="nearest")
        return out.astype(np.float32)
    if weather.kind == WeatherKind.DUST:
        out = ((1.0 - w) * frame + w * DUST_TONE).astype(np.float32)
        speckle = rng.random(frame.shape) < w / 2.0
        out[speckle] = DUST_SPECK_VALUE
        return out
    if weather.kind == WeatherKind.SNOW:
        out = ((1.0 - w / 2.0) * frame + (w / 2.0) * SNOW_HAZE).astype(np.float32)
        speckle = rng.random(frame.shape) < w
        out[speckle] = SNOW_SPECK_VALUE
        return out
    raise ValueError(f"unhandled weather kind {weather.kind}")


def step_dynamics(world: World) -> World:
    """Advance moving obstacles by one second (one decision), reflecting off
    the borders."""
    if not world.has_dynamics:
        return world
    width = float(world.spec.width_m)
    height = float(world.spec.height_m)
    m = world.movers
    x = world.x[m] + world.vx[m]
    y = world.y[m] + world.vy[m]
    x_low, x_high, y_low, y_high = x < 0.0, x > width, y < 0.0, y > height
    x = np.where(x_low, -x, np.where(x_high, 2.0 * width - x, x))
    y = np.where(y_low, -y, np.where(y_high, 2.0 * height - y, y))
    vx = np.where(x_low | x_high, -world.vx[m], world.vx[m])
    vy = np.where(y_low | y_high, -world.vy[m], world.vy[m])

    new_x, new_y, new_vx, new_vy = (c.copy() for c in (world.x, world.y, world.vx, world.vy))
    new_x[m], new_y[m], new_vx[m], new_vy[m] = x, y, vx, vy
    return replace(world, x=new_x, y=new_y, vx=new_vx, vy=new_vy)


def world_to_dict(world: World) -> dict:
    return {
        "spec": {
            "domain": world.spec.domain.value,
            "width_m": world.spec.width_m,
            "height_m": world.spec.height_m,
            "obstacle_density": world.spec.obstacle_density,
            "dynamic_count": world.spec.dynamic_count,
            "seed": world.spec.seed,
        },
        "obstacles": [
            {"x": x, "y": y, "r": r, "vx": vx, "vy": vy, "shade": shade}
            for x, y, r, vx, vy, shade in zip(*(c.tolist() for c in (
                world.x, world.y, world.radius, world.vx, world.vy, world.shade)))
        ],
    }


def world_from_dict(doc: dict) -> World:
    """The world :func:`world_to_dict` wrote; raises ValueError naming a
    missing key, a value of the wrong type, or an obstacle with a value that
    is not finite or a radius that is not positive."""
    try:
        sd = doc["spec"]
        spec = WorldSpec(
            domain=Domain(sd["domain"]),
            width_m=int(sd["width_m"]),
            height_m=int(sd["height_m"]),
            obstacle_density=sd.get("obstacle_density"),
            dynamic_count=int(sd.get("dynamic_count", 0)),
            seed=int(sd["seed"]),
        )
        rows = [(float(o["x"]), float(o["y"]), float(o["r"]), float(o.get("shade", 0.5)),
                 float(o.get("vx", 0.0)), float(o.get("vy", 0.0))) for o in doc["obstacles"]]
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"not a world document: {exc}") from exc
    cols = np.array(rows, dtype=np.float64).reshape(-1, 6)
    bad = np.flatnonzero(~np.isfinite(cols).all(axis=1) | ~(cols[:, 2] > 0))
    if len(bad):
        raise ValueError(f"obstacle {bad[0]} has a value that is not finite or a radius <= 0")
    return World(spec, *cols.T)


def save_world(world: World, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(world_to_dict(world), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_world(path) -> World:
    with open(path, "r", encoding="utf-8") as fh:
        return world_from_dict(json.load(fh))


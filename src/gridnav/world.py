"""Procedural outdoor worlds with a synthetic forward camera.

Stands in for a full flight simulator: generates obstacle fields for three
terrain domains, answers close-range obstacle queries, renders an 84x84
grayscale forward view by ray casting, and degrades frames with snow, dust
or fog.

Geometry conventions: the world is a ``width_m`` x ``height_m`` rectangle;
grid cell (row, col) is the unit square with centre ``(x, y) = (col + 0.5,
row + 0.5)``, x growing east and y growing south.  North is toward smaller
rows.  Everything here is a pure function of its inputs (worlds are
immutable snapshots), so rendering is reentrant and thread-safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum

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

    @property
    def visibility(self) -> float:
        return 1.0 - self.intensity


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
        if self.obstacle_density is not None and self.obstacle_density < 0:
            raise ValueError("obstacle density must be non-negative")
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


@dataclass(frozen=True)
class Obstacle:
    x: float
    y: float
    radius: float = DEFAULT_OBSTACLE_RADIUS
    vx: float = 0.0
    vy: float = 0.0
    shade: float = 0.5


@dataclass(frozen=True)
class World:
    spec: WorldSpec
    obstacles: tuple[Obstacle, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.spec.shape

    @property
    def has_dynamics(self) -> bool:
        return any(o.vx or o.vy for o in self.obstacles)


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
    obstacle_radius: float = DEFAULT_OBSTACLE_RADIUS,
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

    obstacles: list[Obstacle] = []
    attempts_left = max(1000, 200 * count)
    for _ in range(count):
        while True:
            if attempts_left <= 0:
                raise GenerationError(
                    f"could not place {count} obstacles and keep start/goal clear"
                )
            attempts_left -= 1
            x = rng.uniform(0.0, spec.width_m)
            y = rng.uniform(0.0, spec.height_m)
            if any(_disc_intersects_cell(x, y, obstacle_radius, c) for c in protected):
                continue
            shade = rng.uniform(0.0, 1.0)
            obstacles.append(Obstacle(x=x, y=y, radius=obstacle_radius, shade=shade))
            break

    for _ in range(spec.dynamic_count):
        while True:
            if attempts_left <= 0:
                raise GenerationError("could not place dynamic obstacles")
            attempts_left -= 1
            x = rng.uniform(0.0, spec.width_m)
            y = rng.uniform(0.0, spec.height_m)
            if any(_disc_intersects_cell(x, y, obstacle_radius, c) for c in protected):
                continue
            angle = rng.uniform(0.0, 2.0 * math.pi)
            speed = rng.uniform(0.5, 1.5)
            shade = rng.uniform(0.0, 1.0)
            obstacles.append(
                Obstacle(
                    x=x,
                    y=y,
                    radius=obstacle_radius,
                    vx=speed * math.cos(angle),
                    vy=speed * math.sin(angle),
                    shade=shade,
                )
            )
            break

    return World(spec=spec, obstacles=tuple(obstacles))


def occupied_cells(world: World) -> set[GridCoord]:
    """Every grid cell whose unit square is touched by some obstacle disc."""
    cells: set[GridCoord] = set()
    height, width = world.shape
    for obs in world.obstacles:
        r0 = max(0, int(math.floor(obs.y - obs.radius)))
        r1 = min(height - 1, int(math.floor(obs.y + obs.radius)))
        c0 = max(0, int(math.floor(obs.x - obs.radius)))
        c1 = min(width - 1, int(math.floor(obs.x + obs.radius)))
        for r in range(r0, r1 + 1):
            for c in range(c0, c1 + 1):
                cell = GridCoord(r, c)
                if _disc_intersects_cell(obs.x, obs.y, obs.radius, cell):
                    cells.add(cell)
    return cells


def sense_obstacles(world: World, agent: GridCoord) -> set[GridCoord]:
    """Neighbour cells rendered unusable by an obstacle within sensing range.

    A neighbour is reported when some obstacle disc both lies within 1 m of
    the agent's cell centre (disc edge, not centre) and overlaps that
    neighbour's cell square.
    """
    ax, ay = cell_center(agent)
    blocked: set[GridCoord] = set()
    for action in ACTIONS:
        dr, dc = ACTION_DELTAS[action]
        neighbour = GridCoord(agent.row + dr, agent.col + dc)
        for obs in world.obstacles:
            gap = math.hypot(obs.x - ax, obs.y - ay) - obs.radius
            if gap >= SENSE_RANGE_M:
                continue
            if _disc_intersects_cell(obs.x, obs.y, obs.radius, neighbour):
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
    if not world.obstacles:
        return frame

    ax, ay = cell_center(agent)
    fx, fy = _FACING_VECTORS[facing]
    half_fov = math.radians(FOV_DEGREES / 2.0)
    angles = -half_fov + 2.0 * half_fov * (np.arange(size) + 0.5) / size
    dirs_x = fx * np.cos(angles) - fy * np.sin(angles)
    dirs_y = fx * np.sin(angles) + fy * np.cos(angles)

    ox = np.array([o.x for o in world.obstacles]) - ax
    oy = np.array([o.y for o in world.obstacles]) - ay
    radius = np.array([o.radius for o in world.obstacles])
    shade = np.array([o.shade for o in world.obstacles])

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
    if weather.kind == WeatherKind.CLEAR or w == 0.0:
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


def step_dynamics(world: World, dt: float) -> World:
    """Advance moving obstacles by ``dt`` seconds, reflecting off the borders."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not world.has_dynamics:
        return world
    width = float(world.spec.width_m)
    height = float(world.spec.height_m)
    moved = []
    for obs in world.obstacles:
        if not (obs.vx or obs.vy):
            moved.append(obs)
            continue
        x = obs.x + obs.vx * dt
        y = obs.y + obs.vy * dt
        vx, vy = obs.vx, obs.vy
        if x < 0.0:
            x, vx = -x, -vx
        elif x > width:
            x, vx = 2.0 * width - x, -vx
        if y < 0.0:
            y, vy = -y, -vy
        elif y > height:
            y, vy = 2.0 * height - y, -vy
        moved.append(replace(obs, x=x, y=y, vx=vx, vy=vy))
    return World(spec=world.spec, obstacles=tuple(moved))


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
            {"x": o.x, "y": o.y, "r": o.radius, "vx": o.vx, "vy": o.vy, "shade": o.shade}
            for o in world.obstacles
        ],
    }


def world_from_dict(doc: dict) -> World:
    sd = doc["spec"]
    spec = WorldSpec(
        domain=Domain(sd["domain"]),
        width_m=int(sd["width_m"]),
        height_m=int(sd["height_m"]),
        obstacle_density=sd.get("obstacle_density"),
        dynamic_count=int(sd.get("dynamic_count", 0)),
        seed=int(sd["seed"]),
    )
    obstacles = tuple(
        Obstacle(
            x=float(o["x"]),
            y=float(o["y"]),
            radius=float(o["r"]),
            vx=float(o.get("vx", 0.0)),
            vy=float(o.get("vy", 0.0)),
            shade=float(o.get("shade", 0.5)),
        )
        for o in doc["obstacles"]
    )
    return World(spec=spec, obstacles=obstacles)


def save_world(world: World, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(world_to_dict(world), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_world(path) -> World:
    with open(path, "r", encoding="utf-8") as fh:
        return world_from_dict(json.load(fh))


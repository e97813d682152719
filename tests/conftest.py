from typing import NamedTuple

import numpy as np
import pytest

from gridnav import nn
from gridnav.mapping import GridCoord
from gridnav.world import DEFAULT_OBSTACLE_RADIUS, Domain, World, WorldSpec, generate_world

COLUMNS = ("x", "y", "radius", "shade", "vx", "vy")


class Disc(NamedTuple):
    """One obstacle, written out for a hand-built world."""

    x: float
    y: float
    radius: float = DEFAULT_OBSTACLE_RADIUS
    shade: float = 0.5
    vx: float = 0.0
    vy: float = 0.0


def world_of(spec: WorldSpec, discs) -> World:
    """The world of ``spec`` whose obstacles are ``discs``, in order."""
    return World(spec, *np.array(discs, dtype=np.float64).reshape(-1, 6).T)


def discs_of(world: World) -> list[Disc]:
    """The obstacles of ``world`` as Python floats, in order."""
    return [Disc(*row) for row in zip(*(getattr(world, name).tolist() for name in COLUMNS))]


def same_world(a: World, b: World) -> bool:
    """Equal specs and bit-identical obstacle columns."""
    return a.spec == b.spec and all(
        getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in COLUMNS)


@pytest.fixture
def tiny_arch():
    """Reduced-width network covering every layer type of the full design."""
    return nn.ArchitectureSpec(
        frame_size=12,
        conv_channels=(3, 4, 5),
        conv_kernels=(8, 4, 3),
        dense1_units=16,
        image_features=6,
        map_cells=9,
        map_features=7,
    )


@pytest.fixture
def tiny_recurrent_arch():
    return nn.ArchitectureSpec(
        frame_size=8,
        conv_channels=(2, 3, 3),
        conv_kernels=(3, 3, 3),
        dense1_units=8,
        image_features=4,
        map_cells=4,
        map_features=5,
        recurrent=True,
    )


@pytest.fixture
def phase_arch():
    """Small trunk that still accepts the production 100-cell map raster."""
    return nn.ArchitectureSpec(
        frame_size=12,
        conv_channels=(3, 4, 4),
        conv_kernels=(8, 4, 3),
        dense1_units=12,
        image_features=6,
        map_features=16,
    )


@pytest.fixture
def small_world():
    """10x10 forest with a handful of obstacles and clear start/goal cells."""
    spec = WorldSpec(domain=Domain.FOREST, width_m=10, height_m=10,
                     obstacle_density=10.0, seed=3)
    return generate_world(spec, start=GridCoord(1, 1), goal=GridCoord(8, 8))


def finite_difference(loss_fn, params: dict[str, np.ndarray], key: str, index: int,
                      eps: float = 1e-5) -> float:
    """Central finite difference of ``loss_fn(params)`` in one coordinate."""
    bumped = {k: v.copy() for k, v in params.items()}
    if bumped[key].ndim == 0:
        bumped[key] = bumped[key] + eps
        upper = loss_fn(bumped)
        bumped[key] = bumped[key] - 2 * eps
        lower = loss_fn(bumped)
    else:
        flat = bumped[key].reshape(-1)
        flat[index] += eps
        upper = loss_fn(bumped)
        flat[index] -= 2 * eps
        lower = loss_fn(bumped)
    return (upper - lower) / (2 * eps)


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))

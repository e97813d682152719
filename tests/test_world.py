import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridnav.mapping import Action, GridCoord
from gridnav.world import (
    CLEAR,
    DEFAULT_DENSITY,
    Domain,
    FOV_DEGREES,
    FRAME_SIZE,
    GenerationError,
    SENSE_RANGE_M,
    VIEW_RANGE_M,
    WeatherCondition,
    WeatherKind,
    World,
    WorldSpec,
    apply_weather,
    cell_center,
    generate_world,
    load_world,
    occupied_cells,
    render_frame,
    save_world,
    sense_obstacles,
    step_dynamics,
    world_from_dict,
    world_to_dict,
)

from conftest import COLUMNS, Disc, discs_of, same_world, world_of


def make_world(obstacles, width=20, height=20, domain=Domain.FOREST, dynamic=0):
    spec = WorldSpec(domain=domain, width_m=width, height_m=height,
                     obstacle_density=0.0, dynamic_count=dynamic, seed=0)
    return world_of(spec, obstacles)


def random_world(rng, width, height, count, max_radius=0.6, margin=2.0, movers=0):
    """Obstacles anywhere in the world and up to ``margin`` m beyond its edges."""
    discs = [
        Disc(x=float(rng.uniform(-margin, width + margin)),
             y=float(rng.uniform(-margin, height + margin)),
             radius=float(rng.uniform(0.1, max_radius)),
             vx=float(rng.uniform(-1.5, 1.5)) if i < movers else 0.0,
             vy=float(rng.uniform(-1.5, 1.5)) if i < movers else 0.0,
             shade=float(rng.uniform(0.0, 1.0)))
        for i in range(count)
    ]
    domain = Domain.SAVANNA if movers else Domain.FOREST
    return make_world(discs, width, height, domain=domain, dynamic=movers)


def all_obstacles_render(world, agent, facing, size=FRAME_SIZE):
    """Reference renderer: every ray against every obstacle of the world."""
    frame = np.repeat(
        np.linspace(1.0, 0.2, size, dtype=np.float32)[:, None], size, axis=1)
    if not len(world):
        return frame
    ax, ay = cell_center(agent)
    fx, fy = {Action.NORTH: (0.0, -1.0), Action.SOUTH: (0.0, 1.0),
              Action.EAST: (1.0, 0.0), Action.WEST: (-1.0, 0.0)}[facing]
    half_fov = math.radians(FOV_DEGREES / 2.0)
    angles = -half_fov + 2.0 * half_fov * (np.arange(size) + 0.5) / size
    dirs_x = fx * np.cos(angles) - fy * np.sin(angles)
    dirs_y = fx * np.sin(angles) + fy * np.cos(angles)
    ox = world.x - ax
    oy = world.y - ay
    radius, shade = world.radius, world.shade
    proj = dirs_x[:, None] * ox[None, :] + dirs_y[:, None] * oy[None, :]
    perp2 = (ox**2 + oy**2)[None, :] - proj**2
    disc = radius[None, :] ** 2 - perp2
    t = np.where((disc >= 0.0) & (proj > 0.0), proj - np.sqrt(np.maximum(disc, 0.0)), np.inf)
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
        lo, hi = max(0, half_height - band), min(size, half_height + band)
        frame[lo:hi, col] = np.float32(-1.0 + 2.0 * d / VIEW_RANGE_M)
    return frame


def per_obstacle_occupied_cells(world):
    """Reference mask: each obstacle's bounding-box cells, tested one by one."""
    height, width = world.shape
    cells = np.zeros(world.shape, dtype=bool)
    for obs in discs_of(world):
        for r in range(max(0, math.floor(obs.y - obs.radius)),
                       min(height - 1, math.floor(obs.y + obs.radius)) + 1):
            for c in range(max(0, math.floor(obs.x - obs.radius)),
                           min(width - 1, math.floor(obs.x + obs.radius)) + 1):
                nx = min(max(obs.x, float(c)), float(c + 1))
                ny = min(max(obs.y, float(r)), float(r + 1))
                if (obs.x - nx) ** 2 + (obs.y - ny) ** 2 <= obs.radius**2:
                    cells[r, c] = True
    return cells


class TestGeneration:
    def test_zero_density_means_zero_obstacles(self):
        spec = WorldSpec(domain=Domain.FOREST, width_m=50, height_m=50,
                         obstacle_density=0.0, seed=1)
        assert len(generate_world(spec)) == 0

    def test_same_seed_is_bit_identical(self):
        spec = WorldSpec(domain=Domain.FOREST, width_m=30, height_m=30,
                         obstacle_density=5.0, seed=42)
        a = generate_world(spec, start=GridCoord(1, 1), goal=GridCoord(28, 28))
        b = generate_world(spec, start=GridCoord(1, 1), goal=GridCoord(28, 28))
        assert same_world(a, b)

    def test_forest_default_density_count_and_clear_endpoints(self):
        spec = WorldSpec(domain=Domain.FOREST, width_m=100, height_m=100, seed=7)
        start, goal = GridCoord(5, 5), GridCoord(90, 90)
        world = generate_world(spec, start=start, goal=goal)
        assert spec.density == DEFAULT_DENSITY[Domain.FOREST] == 12.0
        assert len(world) == 1200
        occupied = occupied_cells(world)
        assert not occupied[start.row, start.col]
        assert not occupied[goal.row, goal.col]

    def test_domain_default_densities_rank_forest_hardest(self):
        assert DEFAULT_DENSITY[Domain.FOREST] > DEFAULT_DENSITY[Domain.SAVANNA]
        assert DEFAULT_DENSITY[Domain.SAVANNA] > DEFAULT_DENSITY[Domain.PLAIN] > 0

    def test_occupied_cells_match_a_per_obstacle_loop(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            width, height = (int(v) for v in rng.integers(1, 40, size=2))
            world = random_world(rng, width, height, int(rng.integers(0, 120)),
                                 max_radius=float(rng.choice([0.6, 3.0])))
            mask = occupied_cells(world)
            assert mask.dtype == bool and mask.shape == (height, width), f"trial {trial}"
            assert np.array_equal(mask, per_obstacle_occupied_cells(world)), f"trial {trial}"
        forest = generate_world(WorldSpec(domain=Domain.FOREST, width_m=60, height_m=60,
                                          seed=3))
        assert np.array_equal(occupied_cells(forest), per_obstacle_occupied_cells(forest))

    def test_impossible_clearance_raises(self):
        spec = WorldSpec(domain=Domain.FOREST, width_m=1, height_m=1,
                         obstacle_density=100.0, seed=0)
        with pytest.raises(GenerationError):
            generate_world(spec, start=GridCoord(0, 0))

    def test_dynamic_obstacles_only_in_savanna(self):
        with pytest.raises(ValueError):
            WorldSpec(domain=Domain.FOREST, dynamic_count=3)
        spec = WorldSpec(domain=Domain.SAVANNA, width_m=30, height_m=30,
                         obstacle_density=1.0, dynamic_count=4, seed=9)
        world = generate_world(spec)
        movers = [o for o in discs_of(world) if o.vx or o.vy]
        assert len(movers) == 4
        assert world.has_dynamics

    @pytest.mark.parametrize("spec, start, goal, digest", [
        (WorldSpec(domain=Domain.FOREST, width_m=30, height_m=30, seed=11),
         GridCoord(1, 1), GridCoord(28, 28),
         "4eb9e0c14bb7ffce4dc6fe4f284457487fb9ce711c5c502fe8dac445856d2e0b"),
        (WorldSpec(domain=Domain.PLAIN, width_m=40, height_m=25, seed=5),
         GridCoord(2, 3), GridCoord(20, 35),
         "3515f8ce9de78afc8056b1d36570eff6ab86dee7c2c7b392d080febb0939b69d"),
        (WorldSpec(domain=Domain.SAVANNA, width_m=30, height_m=30, dynamic_count=4, seed=9),
         GridCoord(1, 1), GridCoord(28, 28),
         "03bf7212e4a610c1d65ba38a327c08f79c5392504cfbf70de44314319d7cb183"),
    ], ids=["forest", "plain", "savanna-movers"])
    def test_world_files_keep_their_bytes(self, tmp_path, spec, start, goal, digest):
        # pins the rng draw order (x, y, then shade; or x, y, angle, speed and
        # shade for a mover) that every seeded world depends on
        path = tmp_path / "world.json"
        save_world(generate_world(spec, start=start, goal=goal), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_one_mover_is_dynamics(self):
        statics = [Disc(x=float(i), y=3.0) for i in range(1, 6)]
        assert not make_world(statics).has_dynamics
        world = make_world([*statics, Disc(x=9.0, y=9.0, vy=-0.5)],
                           domain=Domain.SAVANNA, dynamic=1)
        assert world.has_dynamics
        assert step_dynamics(world).has_dynamics

    def test_columns_are_read_only_copies(self):
        spec = WorldSpec(domain=Domain.SAVANNA, width_m=20, height_m=20,
                         obstacle_density=1.0, dynamic_count=2, seed=4)
        given = [np.array([3.0, 4.0]) for _ in COLUMNS]
        built = World(spec, *given)
        given[0][0] = 9.0
        assert built.x.tolist() == [3.0, 4.0]
        for world in (built, generate_world(spec), step_dynamics(generate_world(spec))):
            for name in COLUMNS:
                column = getattr(world, name)
                assert column.dtype == np.float64 and column.shape == (len(world),)
                with pytest.raises(ValueError):
                    column[0] = 1.0


class TestSensing:
    def test_obstacle_just_north_blocks_north_neighbour(self):
        agent = GridCoord(10, 10)
        ax, ay = cell_center(agent)
        world = make_world([Disc(x=ax, y=ay - 0.8)])
        assert sense_obstacles(world, agent) == {GridCoord(9, 10)}

    def test_far_obstacle_is_ignored(self):
        agent = GridCoord(10, 10)
        ax, ay = cell_center(agent)
        world = make_world([Disc(x=ax, y=ay - 1.5)])
        assert sense_obstacles(world, agent) == set()

    def test_flanking_obstacles_block_both_sides(self):
        agent = GridCoord(10, 10)
        ax, ay = cell_center(agent)
        world = make_world([Disc(x=ax + 0.9, y=ay), Disc(x=ax - 0.9, y=ay)])
        assert sense_obstacles(world, agent) == {GridCoord(10, 11), GridCoord(10, 9)}

    def test_matches_exhaustive_oracle_on_random_worlds(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            discs = [
                Disc(x=float(rng.uniform(0, 20)), y=float(rng.uniform(0, 20)),
                     radius=float(rng.uniform(0.1, 0.6)))
                for _ in range(rng.integers(1, 25))
            ]
            world = make_world(discs)
            agent = GridCoord(int(rng.integers(1, 19)), int(rng.integers(1, 19)))
            ax, ay = cell_center(agent)

            expected = set()
            for dr, dc in ((-1, 0), (1, 0), (0, 1), (0, -1)):
                cell = GridCoord(agent.row + dr, agent.col + dc)
                for obs in discs:
                    within = math.hypot(obs.x - ax, obs.y - ay) - obs.radius < SENSE_RANGE_M
                    nx = min(max(obs.x, cell.col), cell.col + 1)
                    ny = min(max(obs.y, cell.row), cell.row + 1)
                    touches = (obs.x - nx) ** 2 + (obs.y - ny) ** 2 <= obs.radius**2
                    if within and touches:
                        expected.add(cell)
                        break
            assert sense_obstacles(world, agent) == expected, f"trial {trial}"


class TestRenderer:
    def test_empty_world_is_the_background_gradient(self):
        world = make_world([])
        frame = render_frame(world, GridCoord(10, 10), Action.NORTH)
        assert frame.shape == (FRAME_SIZE, FRAME_SIZE)
        expected = np.repeat(np.linspace(1.0, 0.2, FRAME_SIZE, dtype=np.float32)[:, None],
                             FRAME_SIZE, axis=1)
        assert np.array_equal(frame, expected)

    def test_nearby_obstacle_darkens_the_view(self):
        agent = GridCoord(10, 10)
        ax, ay = cell_center(agent)
        empty = render_frame(make_world([]), agent, Action.NORTH)
        cluttered = render_frame(make_world([Disc(x=ax, y=ay - 2.0)]), agent,
                                 Action.NORTH)
        assert cluttered.mean() < empty.mean()

    def test_closer_obstacles_are_darker_and_taller(self):
        agent = GridCoord(10, 10)
        ax, ay = cell_center(agent)
        near = render_frame(make_world([Disc(x=ax, y=ay - 2.0, shade=1.0)]),
                            agent, Action.NORTH)
        far = render_frame(make_world([Disc(x=ax, y=ay - 8.0, shade=1.0)]),
                           agent, Action.NORTH)
        assert near.min() < far.min()
        assert (near < 0).sum() > (far < 0).sum()

    def test_deterministic(self):
        world = generate_world(
            WorldSpec(domain=Domain.FOREST, width_m=20, height_m=20,
                      obstacle_density=8.0, seed=2)
        )
        a = render_frame(world, GridCoord(10, 10), Action.EAST)
        b = render_frame(world, GridCoord(10, 10), Action.EAST)
        assert np.array_equal(a, b)

    def test_facing_changes_the_view(self):
        agent = GridCoord(10, 10)
        ax, ay = cell_center(agent)
        world = make_world([Disc(x=ax, y=ay - 2.0)])
        north = render_frame(world, agent, Action.NORTH)
        south = render_frame(world, agent, Action.SOUTH)
        assert not np.array_equal(north, south)
        assert (south < 0).sum() == 0  # obstacle is behind

    def test_matches_the_all_obstacles_renderer(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            width, height = (int(v) for v in rng.integers(5, 70, size=2))
            world = random_world(rng, width, height, int(rng.integers(1, 300)),
                                 max_radius=float(rng.choice([0.6, 4.0])))
            for _ in range(4):
                # border and off-grid cells included
                agent = GridCoord(int(rng.integers(-2, height + 2)),
                                  int(rng.integers(-2, width + 2)))
                facing = Action(int(rng.integers(4)))
                frame = render_frame(world, agent, facing)
                assert frame.tobytes() == all_obstacles_render(world, agent, facing).tobytes(), \
                    f"trial {trial} at {agent} facing {facing.name}"

    def test_view_without_obstacles_in_range_is_the_background(self):
        agent = GridCoord(30, 30)
        ax, ay = cell_center(agent)
        world = make_world([Disc(x=ax, y=ay - 20.5), Disc(x=ax + 21.0, y=ay + 3.0),
                            Disc(x=ax - 40.0, y=ay)], width=80, height=80)
        for facing in Action:
            frame = render_frame(world, agent, facing)
            assert frame.tobytes() == render_frame(make_world([]), agent, facing).tobytes()
            assert frame.tobytes() == all_obstacles_render(world, agent, facing).tobytes()

    def test_moving_world_matches_the_all_obstacles_renderer(self):
        rng = np.random.default_rng(6)
        world = random_world(rng, 40, 40, 150, movers=30)
        for step in range(20):
            world = step_dynamics(world)
            agent = GridCoord(int(rng.integers(0, 40)), int(rng.integers(0, 40)))
            facing = Action(step % 4)
            assert render_frame(world, agent, facing).tobytes() == \
                all_obstacles_render(world, agent, facing).tobytes(), f"step {step}"

    def test_values_in_range(self):
        world = generate_world(
            WorldSpec(domain=Domain.FOREST, width_m=15, height_m=15,
                      obstacle_density=20.0, seed=3)
        )
        frame = render_frame(world, GridCoord(7, 7), Action.WEST)
        assert frame.min() >= -1.0 and frame.max() <= 1.0


class TestWeather:
    def test_clear_is_identity(self):
        frame = render_frame(make_world([]), GridCoord(5, 5), Action.NORTH)
        out = apply_weather(frame, CLEAR, rng_seed=1)
        assert np.array_equal(out, frame)

    def test_fog_blend_formula(self):
        # Uniform frames stay uniform through the blur, exposing the blend.
        frame = np.zeros((FRAME_SIZE, FRAME_SIZE), dtype=np.float32)
        out = apply_weather(frame, WeatherCondition(WeatherKind.FOG, 0.30), rng_seed=1)
        assert np.allclose(out, 0.24, atol=1e-6)

    def test_fog_blurs_edges(self):
        frame = np.zeros((FRAME_SIZE, FRAME_SIZE), dtype=np.float32)
        frame[:, :42] = 1.0
        out = apply_weather(frame, WeatherCondition(WeatherKind.FOG, 0.30), rng_seed=1)
        kinds = np.unique(np.round(out, 4))
        assert len(kinds) > 2  # intermediate values appear at the edge

    def test_snow_speckle_count_monte_carlo(self):
        frame = np.zeros((FRAME_SIZE, FRAME_SIZE), dtype=np.float32)
        weather = WeatherCondition(WeatherKind.SNOW, 0.30)
        counts = [
            (apply_weather(frame, weather, rng_seed=seed) == 1.0).sum()
            for seed in range(30)
        ]
        expected = FRAME_SIZE * FRAME_SIZE * 0.30
        sigma = math.sqrt(FRAME_SIZE * FRAME_SIZE * 0.30 * 0.70)
        assert abs(np.mean(counts) - expected) < 3 * sigma / math.sqrt(len(counts))

    def test_dust_speckle_probability_is_half_intensity(self):
        frame = np.full((FRAME_SIZE, FRAME_SIZE), -0.9, dtype=np.float32)
        weather = WeatherCondition(WeatherKind.DUST, 0.30)
        counts = [
            (apply_weather(frame, weather, rng_seed=seed) == 0.4).sum()
            for seed in range(30)
        ]
        expected = FRAME_SIZE * FRAME_SIZE * 0.15
        sigma = math.sqrt(FRAME_SIZE * FRAME_SIZE * 0.15 * 0.85)
        assert abs(np.mean(counts) - expected) < 3 * sigma / math.sqrt(len(counts))

    def test_speckle_is_deterministic_in_the_seed(self):
        frame = render_frame(make_world([]), GridCoord(5, 5), Action.NORTH)
        weather = WeatherCondition(WeatherKind.SNOW, 0.15)
        a = apply_weather(frame, weather, rng_seed=99)
        b = apply_weather(frame, weather, rng_seed=99)
        c = apply_weather(frame, weather, rng_seed=100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("kind", [WeatherKind.SNOW, WeatherKind.DUST, WeatherKind.FOG])
    @pytest.mark.parametrize("intensity", [0.15, 0.30])
    def test_dimensions_and_range_preserved(self, kind, intensity):
        world = generate_world(
            WorldSpec(domain=Domain.FOREST, width_m=20, height_m=20,
                      obstacle_density=10.0, seed=5)
        )
        frame = render_frame(world, GridCoord(10, 10), Action.NORTH)
        out = apply_weather(frame, WeatherCondition(kind, intensity), rng_seed=3)
        assert out.shape == frame.shape
        assert out.min() >= -1.0 and out.max() <= 1.0

    @pytest.mark.parametrize("kind", [WeatherKind.DUST, WeatherKind.FOG])
    @pytest.mark.parametrize("intensity", [0.15, 0.30])
    def test_fog_and_dust_shrink_contrast(self, kind, intensity):
        world = generate_world(
            WorldSpec(domain=Domain.FOREST, width_m=20, height_m=20,
                      obstacle_density=10.0, seed=5)
        )
        frame = render_frame(world, GridCoord(10, 10), Action.NORTH)
        out = apply_weather(frame, WeatherCondition(kind, intensity), rng_seed=3)
        contrast = frame.max() - frame.min()
        slack = 0.05 if kind == WeatherKind.FOG else 0.0
        assert out.max() - out.min() <= (1.0 - intensity) * contrast + slack

    def test_invalid_intensity_rejected(self):
        with pytest.raises(ValueError):
            WeatherCondition(WeatherKind.SNOW, 0.5)
        with pytest.raises(ValueError):
            WeatherCondition(WeatherKind.CLEAR, 0.15)


class TestDynamics:
    def test_static_world_unchanged(self):
        world = make_world([Disc(x=3.0, y=3.0)])
        assert step_dynamics(world) is world

    def test_mover_advances_linearly(self):
        world = make_world([Disc(x=10.0, y=10.0, vx=1.0, vy=0.0)],
                           domain=Domain.SAVANNA, dynamic=1)
        stepped = step_dynamics(world)
        assert stepped.x[0] == pytest.approx(11.0)
        assert stepped.y[0] == pytest.approx(10.0)

    def test_reflection_at_boundary(self):
        world = make_world([Disc(x=19.5, y=10.0, vx=1.0, vy=0.0)],
                           domain=Domain.SAVANNA, dynamic=1)
        stepped = step_dynamics(world)
        assert stepped.x[0] == pytest.approx(19.5)
        assert stepped.vx[0] == pytest.approx(-1.0)

    def test_a_step_leaves_its_input_world_unchanged(self):
        world = random_world(np.random.default_rng(7), 20, 20, 40, movers=10)
        before = {name: getattr(world, name).copy() for name in COLUMNS}
        stepped = step_dynamics(world)
        assert not np.array_equal(stepped.x, world.x)
        for name in COLUMNS:
            assert getattr(world, name).tobytes() == before[name].tobytes(), name


class TestSerialization:
    def test_world_json_round_trip(self, tmp_path):
        spec = WorldSpec(domain=Domain.SAVANNA, width_m=25, height_m=30,
                         obstacle_density=2.0, dynamic_count=3, seed=11)
        world = generate_world(spec)
        path = tmp_path / "world.json"
        save_world(world, path)
        assert same_world(load_world(path), world)

    def test_dict_round_trip_preserves_fields(self):
        world = make_world([Disc(x=1.5, y=2.5, radius=0.4, vx=0.1, vy=-0.2, shade=0.7)])
        assert same_world(world_from_dict(world_to_dict(world)), world)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_generation_is_a_pure_function_of_the_seed(seed):
    spec = WorldSpec(domain=Domain.PLAIN, width_m=20, height_m=20, seed=seed)
    assert same_world(generate_world(spec), generate_world(spec))

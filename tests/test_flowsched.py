import numpy as np
import pytest

from voxkit import (
    GuidanceParams,
    ScheduleError,
    SwayParams,
    cfg_combine,
    cfg_strength,
    schedule_table,
    sway_grid,
)


def test_strength_decays_quadratically():
    params = GuidanceParams(strength=5.0)
    assert cfg_strength(0.0, params) == 5.0
    assert cfg_strength(0.5, params) == pytest.approx(1.25, abs=1e-12)
    assert cfg_strength(1.0, params) == 0.0
    assert cfg_strength(0.25, params) == pytest.approx(5.0 * 0.75 ** 2)


def test_strength_scales_linearly_with_peak():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = float(rng.uniform(0.0, 12.0))
        t = float(rng.uniform(0.0, 1.0))
        assert cfg_strength(t, GuidanceParams(lam)) == \
            pytest.approx(lam * (1.0 - t) ** 2, abs=1e-12)


def test_strength_rejects_out_of_range_time():
    with pytest.raises(ScheduleError):
        cfg_strength(-0.1)
    with pytest.raises(ScheduleError):
        cfg_strength(1.1)


def test_combine_pushes_along_the_difference():
    cond = np.array([1.0, 2.0])
    uncond = np.array([0.0, 1.0])
    assert np.allclose(cfg_combine(cond, uncond, 0.0), cond)
    assert np.allclose(cfg_combine(cond, uncond, 2.0), [3.0, 4.0])


def _operands(dtype, shape):
    rng = np.random.default_rng(3)
    values = rng.normal(scale=100.0, size=(2,) + shape)
    if np.dtype(dtype).kind == "i":
        values = np.rint(values)
    return values[0].astype(dtype), values[1].astype(dtype)


@pytest.mark.parametrize("g", [0.0, -2.5, 1e10])
@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
@pytest.mark.parametrize("dtype", ["float32", "float64", "int16", "int64"])
def test_combine_bytes_match_float64_formula(dtype, shape, g):
    cond, uncond = _operands(dtype, shape)
    views = [(cond, uncond)]
    if len(shape) == 2:
        views.append((cond.T, uncond.T))  # non-contiguous
    for c, u in views:
        c64, u64 = c.astype(np.float64), u.astype(np.float64)
        got = cfg_combine(c, u, g)
        assert got.dtype == np.float64 and got.shape == c.shape
        assert type(got) is (np.ndarray if shape else np.float64)
        assert got.tobytes() == (c64 + g * (c64 - u64)).tobytes()


def test_sway_grid_gamma_zero_is_uniform():
    grid = sway_grid(SwayParams(gamma=0.0, steps=8))
    assert np.allclose(grid, np.linspace(0.0, 1.0, 9), atol=1e-12)


def test_sway_grid_quadratic_example():
    grid = sway_grid(SwayParams(gamma=1.0, steps=2))
    assert grid.tolist() == [0.0, 0.25, 1.0]


def test_sway_grid_endpoints_pinned_exactly():
    for gamma in (-0.5, 0.0, 0.7, 3.0):
        grid = sway_grid(SwayParams(gamma=gamma, steps=5))
        assert grid[0] == 0.0
        assert grid[-1] == 1.0


def test_sway_grid_negative_gamma_front_loads_late_times():
    early = sway_grid(SwayParams(gamma=-0.5, steps=4))
    uniform = np.linspace(0.0, 1.0, 5)
    assert np.all(early[1:-1] > uniform[1:-1])
    late = sway_grid(SwayParams(gamma=2.0, steps=4))
    assert np.all(late[1:-1] < uniform[1:-1])


def test_sway_grid_monotone_over_random_params():
    rng = np.random.default_rng(17)
    for _ in range(300):
        gamma = float(rng.uniform(-0.95, 4.0))
        steps = int(rng.integers(1, 65))
        grid = sway_grid(SwayParams(gamma=gamma, steps=steps))
        assert grid.shape == (steps + 1,)
        assert np.all(np.diff(grid) > 0)
        assert grid[0] == 0.0 and grid[-1] == 1.0


def test_parameter_validation():
    with pytest.raises(ScheduleError):
        GuidanceParams(strength=-1.0)
    with pytest.raises(ScheduleError):
        SwayParams(gamma=-1.0)
    with pytest.raises(ScheduleError):
        SwayParams(steps=0)


def test_sway_grid_takes_numpy_integer_steps():
    assert sway_grid(SwayParams(steps=np.int64(4))).tolist() == sway_grid(
        SwayParams(steps=4)).tolist()


def test_schedule_table_shape_and_edges():
    rows = schedule_table(GuidanceParams(4.0), SwayParams(gamma=1.0, steps=4))
    assert len(rows) == 5
    k, s, t, g = rows[0]
    assert (k, s, t, g) == (0, 0.0, 0.0, 4.0)
    k, s, t, g = rows[-1]
    assert (k, s, t, g) == (4, 1.0, 1.0, 0.0)
    warped = [row[2] for row in rows]
    assert warped == sorted(warped)

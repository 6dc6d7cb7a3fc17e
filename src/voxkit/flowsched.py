"""Closed-form inference schedules: guidance strength and warped step grids.

Guidance strength decays quadratically from its peak at t=0 to zero at t=1,
so early noisy steps get strong steering and late refinement steps run
nearly unguided. The step grid warps a uniform schedule by an exponent so
more steps land where they help; larger bias pushes interior points earlier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifest import is_integer, is_real


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class GuidanceParams:
    """Peak strength of the time-decaying guidance weight."""

    strength: float = 5.0

    def __post_init__(self):
        if not is_real(self.strength):
            raise ScheduleError(f"strength must be a real number, got {self.strength!r}")
        if not (0 <= self.strength < np.inf):
            raise ScheduleError(f"strength must be finite and non-negative, "
                                f"got {self.strength}")


@dataclass(frozen=True)
class SwayParams:
    """Warped sampling grid: ``steps`` intervals, exponent ``1 + gamma``."""

    gamma: float = 1.0
    steps: int = 32

    def __post_init__(self):
        if not is_integer(self.steps):
            raise ScheduleError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ScheduleError(f"steps must be at least 1, got {self.steps}")
        if not is_real(self.gamma):
            raise ScheduleError(f"gamma must be a real number, got {self.gamma!r}")
        if not (-1.0 < self.gamma < np.inf):
            raise ScheduleError(f"gamma must be finite and exceed -1, got {self.gamma}")


def cfg_strength(t: float, params: GuidanceParams | None = None) -> float:
    """Quadratically decaying guidance weight at normalized time t in [0, 1]."""
    if params is None:
        params = GuidanceParams()
    if not (0.0 <= t <= 1.0):
        raise ScheduleError(f"t must lie in [0, 1], got {t}")
    return params.strength * (1.0 - t) ** 2


def cfg_combine(cond, uncond, g: float) -> np.ndarray:
    """Push the conditional output away from the unconditional one.

    Computes ``cond + g * (cond - uncond)`` elementwise in float64; a scalar
    pair gives a float64 scalar. The operands must be real numbers (integers
    or floats) of identical shapes, and ``g`` a real number that is not a bool.
    """
    cond = np.asarray(cond)
    uncond = np.asarray(uncond)
    for name, operand in (("cond", cond), ("uncond", uncond)):
        if operand.dtype.kind not in "iuf":
            raise ScheduleError(f"{name} must be real numbers, not {operand.dtype}")
    if cond.shape != uncond.shape:
        raise ScheduleError(f"shape mismatch: {cond.shape} vs {uncond.shape}")
    if not is_real(g):
        raise ScheduleError(f"g must be a real number, got {g!r}")
    # Plain temporaries on purpose. Computing into one array in place saved
    # little, since a caller that keeps every result pays for its fresh
    # pages either way, and it changed how the heap was reused between
    # requests enough to swing the page-fault count several-fold by input.
    cond = cond.astype(np.float64, copy=False)
    uncond = uncond.astype(np.float64, copy=False)
    return cond + g * (cond - uncond)


def sway_grid(params: SwayParams | None = None) -> np.ndarray:
    """Monotone time grid of steps+1 points warped toward early times.

    Point k is (k/steps) ** (1 + gamma): endpoints stay exactly 0 and 1, and
    raising gamma pulls every interior point earlier.
    """
    if params is None:
        params = SwayParams()
    uniform = np.arange(params.steps + 1, dtype=np.float64) / params.steps
    grid = uniform ** (1.0 + params.gamma)
    grid[0] = 0.0
    grid[-1] = 1.0
    return grid


def schedule_table(guidance: GuidanceParams | None = None,
                   sway: SwayParams | None = None) -> list[tuple[int, float, float, float]]:
    """Rows of (step index, uniform position, warped time, guidance weight)."""
    if guidance is None:
        guidance = GuidanceParams()
    if sway is None:
        sway = SwayParams()
    grid = sway_grid(sway)
    rows = []
    for k, t in enumerate(grid):
        s = k / sway.steps
        rows.append((k, s, float(t), cfg_strength(float(t), guidance)))
    return rows

"""Closed-form inference schedules: guidance strength and warped step grids.

Guidance strength decays quadratically from its peak at t=0 to zero at t=1,
so early noisy steps get strong steering and late refinement steps run
nearly unguided. The step grid warps a uniform schedule by an exponent so
more steps land where they help; larger bias pushes interior points earlier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class GuidanceParams:
    """Peak strength of the time-decaying guidance weight."""

    strength: float = 5.0

    def __post_init__(self):
        if not (0 <= self.strength < np.inf):
            raise ScheduleError(f"strength must be finite and non-negative, "
                                f"got {self.strength}")


@dataclass(frozen=True)
class SwayParams:
    """Warped sampling grid: ``steps`` intervals, exponent ``1 + gamma``."""

    gamma: float = 1.0
    steps: int = 32

    def __post_init__(self):
        if self.steps < 1:
            raise ScheduleError(f"steps must be at least 1, got {self.steps}")
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

    Computes ``cond + g * (cond - uncond)`` elementwise; the operands must
    have identical shapes.
    """
    cond = np.asarray(cond, dtype=np.float64)
    uncond = np.asarray(uncond, dtype=np.float64)
    if cond.shape != uncond.shape:
        raise ScheduleError(f"shape mismatch: {cond.shape} vs {uncond.shape}")
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

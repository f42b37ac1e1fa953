"""Uniform time grids shared by the propagators."""

from __future__ import annotations

import numpy as np


def steps_for(t_final: float, dt: float) -> tuple[int, float]:
    """Number of equal steps covering [0, t_final] with step <= dt."""
    n = max(1, int(np.ceil(t_final / dt - 1e-12)))
    return n, t_final / n

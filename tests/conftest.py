import os

import numpy as np
import pytest

from snls.functionals import cutoff_profile
from snls.radial import RadialField, RadialGrid


@pytest.fixture(scope="session")
def grid_small():
    return RadialGrid(20.0, 256)


@pytest.fixture(scope="session")
def grid_desk():
    return RadialGrid(40.0, 4096)


@pytest.fixture
def two_cpus(monkeypatch):
    """Affinity reads two CPUs, so the two-thread paths run even on one core."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def gaussian_field(grid, amplitude=1.0, width=1.0, chirp=0.0):
    r = grid.nodes
    return RadialField(grid, amplitude * np.exp(-(r**2) / (2 * width**2)) * np.exp(1j * chirp * r**2))


def random_smooth_field(grid, rng, n_bumps=3, amplitude=1.0, max_width=3.0):
    """Random superposition of centered gaussians, rings, and bumps with chirp."""
    r = grid.nodes
    u = np.zeros(grid.n, dtype=np.complex128)
    for _ in range(n_bumps):
        w = rng.uniform(0.5, max_width)
        a = amplitude * rng.uniform(0.3, 1.0)
        kind = rng.integers(3)
        if kind == 0:
            prof = np.exp(-(r**2) / (2 * w**2))
        elif kind == 1:
            prof = (r / w) ** 2 * np.exp(-(r**2) / (2 * w**2))
        else:
            prof = cutoff_profile(r / (2 * w))
        u += a * prof * np.exp(1j * (rng.uniform(0, 2 * np.pi) + rng.uniform(-0.5, 0.5) * r**2))
    return RadialField(grid, u)

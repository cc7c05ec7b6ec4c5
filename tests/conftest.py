import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memoctrl
from memoctrl import TimeGrid, TimeSeries, make_params


@pytest.fixture
def params():
    return make_params(n=3, C0=1.0, N=1.0, T=1.0)


@pytest.fixture
def tgrid():
    return TimeGrid(T=1.0, nt=256)


def fourier_series(grid, rng, modes=4):
    """Seeded smooth test input: a few low Fourier modes plus a constant."""
    t = grid.times
    vals = np.full_like(t, rng.normal())
    for m in range(1, modes + 1):
        a, b = rng.normal(size=2)
        vals += a * np.sin(m * np.pi * t / grid.T) \
            + b * np.cos(m * np.pi * t / grid.T)
    return TimeSeries(grid, vals)


def fourier_callable(rng, T, modes=4, decay=0.0):
    """Same construction as a callable, for oracles that integrate densely.

    decay > 0 damps mode m by m**-decay, giving a smoother sample class.
    """
    const = rng.normal()
    coeffs = [(rng.normal() / m ** decay, rng.normal() / m ** decay)
              for m in range(1, modes + 1)]

    def fn(t):
        out = const
        for m, (a, b) in enumerate(coeffs, start=1):
            out = out + a * np.sin(m * np.pi * t / T) + b * np.cos(m * np.pi * t / T)
        return out

    return fn


def run_fresh_python(code):
    """Run code in a new interpreter that imports this memoctrl."""
    src = str(Path(memoctrl.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))

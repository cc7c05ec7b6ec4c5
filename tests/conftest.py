import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memoctrl
from memoctrl import (SpaceTimeField, SpatialGrid, TimeGrid, TimeSeries,
                      make_params, omega_mask)


def default_params(**kw):
    return make_params(**{**dict(n=3, C0=1.0, N=1.0, T=1.0), **kw})


def setup_1d(nx=33, nt=64, T=1.0, **kw):
    """Default parameters (make_params keywords in kw) on [0, 1] x [0, T]."""
    params = default_params(T=T, **kw)
    grid = SpatialGrid(params.domain_box, (nx,))
    tgrid = TimeGrid(T=T, nt=nt)
    return params, grid, tgrid


@pytest.fixture
def params():
    return default_params()


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


def series(grid, fn):
    return TimeSeries(grid, fn(grid.times))


def control_field(params, grid, tgrid, fn):
    """Admissible control fn(x, t) on omega: zero elsewhere and at t = 0."""
    w = omega_mask(grid, params)
    vals = np.zeros((grid.nnodes, tgrid.nt + 1))
    x = grid.coords[:, 0]
    for k, t in enumerate(tgrid.times):
        vals[w, k] = fn(x[w], t)
    vals[:, 0] = 0.0
    return SpaceTimeField(grid, tgrid, vals)


def seeded_field(grid, tgrid, seed, params=None):
    """Three seeded sine modes in x times sine/cosine modes in t (1-D);
    with params, zero outside omega."""
    rng = np.random.default_rng(seed)
    x = grid.coords[:, 0][:, None]
    t = tgrid.times[None, :]
    vals = np.zeros((grid.nnodes, tgrid.nt + 1))
    for m in range(1, 4):
        a, b = rng.normal(size=2)
        vals += a * np.sin(m * np.pi * x) * np.sin(m * np.pi * t / tgrid.T) \
            + b * np.sin(m * np.pi * x) * np.cos(m * np.pi * t / tgrid.T)
    if params is not None:
        vals[~omega_mask(grid, params)] = 0.0
    return SpaceTimeField(grid, tgrid, vals)


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

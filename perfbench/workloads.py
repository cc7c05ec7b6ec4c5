"""The benchmark's four workloads and their seeded inputs.

Every workload is one `memoctrl` CLI call.  The three `optimize` workloads
read a smooth source field that the seed generates: a constant plus two
low space-time modes with seeded phases, written as a field CSV and passed
in through `"source": {"csv": ...}`.  `verify-1d` gets the seed
through `--seed`.  Tolerances stay at the config defaults so every solver is
compared at one stated accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Amplitude of the seeded modes against the constant part of the source.
# The seed sets only their phases, so every seed asks for the same work and
# run-to-run spread in wall time is timing noise.  The fp-identity gap moves
# with the phases by ~4% per 0.01 of amplitude (at the seed commit), so the
# amplitude is kept small enough for fp_gap to stay steady across seeds.
MODE_SCALE = 0.01


@dataclass(frozen=True)
class Workload:
    """One CLI call; BENCHMARK.json says why each workload is here."""

    name: str
    command: str            # CLI subcommand
    config: dict            # overrides of the CLI default config
    shrunk: dict            # grid overrides for the fast self-test


WORKLOADS = {w.name: w for w in (
    Workload(
        name="optimize-1d",
        command="optimize",
        config={"nodes_per_axis": [17], "nt": 16},
        shrunk={"nodes_per_axis": [9], "nt": 8},
    ),
    Workload(
        name="optimize-3d",
        command="optimize",
        config={"sim_dim": 3,
                "domain_box": {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]},
                "omega_box": {"lo": [0.25, 0.25, 0.25],
                              "hi": [0.75, 0.75, 0.75]},
                "nodes_per_axis": [13, 13, 13], "nt": 8},
        shrunk={"nodes_per_axis": [7, 7, 7], "nt": 4},
    ),
    Workload(
        name="optimize-stiff",
        command="optimize",
        config={"N": 0.05, "nodes_per_axis": [9], "nt": 8},
        shrunk={"nodes_per_axis": [9], "nt": 4},
    ),
    Workload(
        name="verify-1d",
        command="verify",
        config={},
        shrunk={},
    ),
)}


def workload_config(workload, shrink=False):
    """Config overrides for a workload; `shrink` gives the self-test grids."""
    cfg = json.loads(json.dumps(workload.config))
    if shrink:
        cfg.update(workload.shrunk)
    return cfg


def mode_phases(seed):
    """The seeded phases of the source's two time modes, in [0, 2 pi)."""
    return np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=2)


def source_basis(grid, tgrid):
    """Basis of the seeded sources, shape (5, nnodes, nt+1).

    The constant, cos and sin of pi t/T, and the same two times the lowest
    spatial cosine mode in the box coordinates scaled to [0, 1] (boundary
    values are ignored by the Dirichlet solver).
    """
    xi = (grid.coords - np.asarray(grid.box.lo)) \
        / (np.asarray(grid.box.hi) - np.asarray(grid.box.lo))
    tau = np.pi * tgrid.times / tgrid.T
    space = np.prod(np.cos(np.pi * xi), axis=1)
    ones = np.ones(grid.nnodes)
    return np.stack([np.outer(ones, np.ones_like(tau)),
                     np.outer(ones, np.cos(tau)),
                     np.outer(ones, np.sin(tau)),
                     np.outer(space, np.cos(tau)),
                     np.outer(space, np.sin(tau))])


def source_weights(seed):
    """Weights of the basis in the seeded source

        f = 1 + MODE_SCALE * (cos(pi t/T + a) + s(x) * cos(pi t/T + b)),

    with phases (a, b) from the seed and s the spatial cosine mode.
    """
    a, b = mode_phases(seed)
    return np.array([1.0, np.cos(a), -np.sin(a), np.cos(b), -np.sin(b)]) \
        * np.array([1.0] + [MODE_SCALE] * 4)

"""Spatial grids, space-time fields, and pointwise-in-space lifts.

The spatial grid is a tensor grid over an axis-aligned box with homogeneous
Dirichlet boundary handled by elimination (solvers see interior nodes only).
The controlled region is a node-indicator staircase: a node belongs to omega
iff its coordinates lie in the omega box.  Space-time fields store the full
history, values indexed (node, time level) -- the H-type operators look at
the whole trajectory, so nothing can be streamed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import Box
from .timeops import (TimeGrid, apply_h_values, apply_hstar_values,
                      bvp_gstar_h_values, bvp_h_gstar_values,
                      relax_backward_values, relax_forward_values,
                      trapezoid_weights)


@dataclass(frozen=True)
class SpatialGrid:
    """Tensor grid over box with (at least 3) nodes per axis, boundary included."""

    box: Box
    shape: tuple

    def __post_init__(self):
        shape = tuple(int(m) for m in self.shape)
        object.__setattr__(self, "shape", shape)
        if len(shape) != self.box.dim:
            raise ValueError("node counts must match the box dimension")
        if any(m < 3 for m in shape):
            raise ValueError(f"need at least 3 nodes per axis, got {shape}")

    @property
    def dim(self):
        return self.box.dim

    @property
    def nnodes(self):
        return int(np.prod(self.shape))

    @cached_property
    def h(self):
        return tuple((b - a) / (m - 1)
                     for a, b, m in zip(self.box.lo, self.box.hi, self.shape))

    @cached_property
    def axes(self):
        return tuple(np.linspace(a, b, m)
                     for a, b, m in zip(self.box.lo, self.box.hi, self.shape))

    @cached_property
    def coords(self):
        """Node coordinates, shape (nnodes, dim), C-order over the tensor grid."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @cached_property
    def boundary_mask(self):
        mask = np.zeros(self.shape, dtype=bool)
        for ax in range(self.dim):
            idx_lo = [slice(None)] * self.dim
            idx_lo[ax] = 0
            mask[tuple(idx_lo)] = True
            idx_hi = [slice(None)] * self.dim
            idx_hi[ax] = -1
            mask[tuple(idx_hi)] = True
        return mask.ravel()

    @cached_property
    def interior_idx(self):
        return np.flatnonzero(~self.boundary_mask)

    def mask_from_box(self, box):
        """Node-indicator staircase of an axis-aligned box (closed)."""
        if box.dim != self.dim:
            raise ValueError(f"box dimension {box.dim} does not match "
                             f"grid dimension {self.dim}")
        inside = np.ones(self.nnodes, dtype=bool)
        for ax in range(self.dim):
            x = self.coords[:, ax]
            inside &= (x >= box.lo[ax]) & (x <= box.hi[ax])
        return inside


def omega_mask(grid, params):
    """Indicator of the controlled region; never touches the Dirichlet boundary."""
    mask = grid.mask_from_box(params.omega_box)
    if np.any(mask & grid.boundary_mask):
        raise ValueError("controlled region touches the domain boundary")
    return mask


def neg_laplacian(grid, u):
    """-Laplacian by the 2d+1-point stencil with zero Dirichlet data.

    Rows of u are the interior nodes in the C-order of grid.interior_idx;
    trailing axes (time levels, say) are carried along.  On the flat array
    a neighbour sits one axis stride away, so each shift is one contiguous
    subtraction of a scaled work array whose layer that would wrap into
    the next block is zeroed first.
    """
    flat = u.reshape(-1)
    out = flat * sum(2.0 / h ** 2 for h in grid.h)
    work = np.empty_like(out)
    stride = flat.size
    for m, h in zip(grid.shape, grid.h):
        n, c = m - 2, 1.0 / h ** 2
        stride //= n
        # (nodes before, nodes along this axis, values after)
        rows = work.reshape(-1, n, stride)
        np.multiply(flat, c, out=work)
        rows[:, -1] = 0.0
        out[stride:] -= work[:-stride]  # the neighbour below
        np.multiply(flat.reshape(rows.shape)[:, -1], c, out=rows[:, -1])
        rows[:, 0] = 0.0
        out[:-stride] -= work[stride:]  # the neighbour above
    return out.reshape(u.shape)


@dataclass
class SpaceTimeField:
    """Scalar field on (spatial grid) x (time grid), values (node, time level)."""

    grid: SpatialGrid
    tgrid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nnodes, self.tgrid.nt + 1)
        if self.values.shape != expected:
            raise ValueError(f"expected values of shape {expected}, "
                             f"got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @classmethod
    def zeros(cls, grid, tgrid):
        return cls(grid, tgrid, np.zeros((grid.nnodes, tgrid.nt + 1)))

    @classmethod
    def from_function(cls, grid, tgrid, fn):
        """Sample fn(x0, ..., xd-1, t) on the grid."""
        xs = [grid.coords[:, ax][:, None] for ax in range(grid.dim)]
        t = tgrid.times[None, :]
        return cls(grid, tgrid, np.asarray(fn(*xs, t), dtype=float)
                   * np.ones((grid.nnodes, tgrid.nt + 1)))

    def copy(self):
        return SpaceTimeField(self.grid, self.tgrid, self.values.copy())


def check_compatible(a, b):
    if a.grid != b.grid or a.tgrid != b.tgrid:
        raise ValueError("fields live on different grids")


_TIME_OPS = {
    "M": lambda v, p, dt: relax_forward_values(v, p.Bn, dt),
    "M*": lambda v, p, dt: relax_backward_values(v, p.Bn, dt),
    "G": lambda v, p, dt: relax_forward_values(v, p.mu, dt),
    "G*": lambda v, p, dt: relax_backward_values(v, p.mu, dt),
    "H": lambda v, p, dt: apply_h_values(v, p.Bn, p.mu, dt),
    "H*": lambda v, p, dt: apply_hstar_values(v, p.Bn, p.mu, dt),
    "G*H": lambda v, p, dt: bvp_gstar_h_values(v, p.Bn, p.mu, dt),
    "HG*": lambda v, p, dt: bvp_h_gstar_values(v, p.Bn, p.mu, dt),
}


def lift_timeop(field, op, params):
    """Apply a named time operator to every node's series independently.

    The lift is mask-agnostic; callers restrict with masks where needed.
    Tags: M, M*, G, G*, H, H*, G*H (the map G*(H(.))), HG* (the map H(G*(.))).
    """
    try:
        kernel = _TIME_OPS[op]
    except KeyError:
        raise ValueError(f"unknown time operator tag {op!r}; "
                         f"expected one of {sorted(_TIME_OPS)}") from None
    return SpaceTimeField(field.grid, field.tgrid,
                          kernel(field.values, params, field.tgrid.dt))


def space_weights(grid):
    """Tensor-product trapezoid weights over the domain box, shape (nnodes,)."""
    w = np.ones(1)
    for m, h in zip(grid.shape, grid.h):
        w1 = np.full(m, h)
        w1[0] = w1[-1] = h / 2.0
        w = np.kron(w, w1)
    return w


def integrate_spacetime(field, mask=None):
    """Space-time trapezoid integral; optional node mask restricts the region."""
    ws = space_weights(field.grid)
    if mask is not None:
        ws = ws * mask
    wt = trapezoid_weights(field.tgrid.nt, field.tgrid.dt)
    return float(ws @ field.values @ wt)


def spacetime_inner(a, b, mask=None):
    check_compatible(a, b)
    ws = space_weights(a.grid)
    if mask is not None:
        ws = ws * mask
    wt = trapezoid_weights(a.tgrid.nt, a.tgrid.dt)
    return float(ws @ (a.values * b.values) @ wt)


def space_inner_at(a, b, k, mask=None):
    check_compatible(a, b)
    ws = space_weights(a.grid)
    if mask is not None:
        ws = ws * mask
    return float(np.dot(ws, a.values[:, k] * b.values[:, k]))


def dt_inner(a, b, mask=None):
    """<dt a, dt b> over the space-time cylinder, staggered form.

    Time derivatives are first differences at interval midpoints with
    cell-wise quadrature.  Like the gradient pairing below, this midpoint
    form is second order, positive on every non-constant trajectory (the
    node-centered stencil is blind to the alternating mode), and its
    variational derivative is exactly the tridiagonal second-difference
    operator of the two-point solvers.
    """
    check_compatible(a, b)
    ws = space_weights(a.grid)
    if mask is not None:
        ws = ws * mask
    dt = a.tgrid.dt
    da = np.diff(a.values, axis=1) / dt
    db = da if b is a else np.diff(b.values, axis=1) / dt
    return float(dt * (ws @ (da * db)).sum())


def grad_inner(a, b):
    """<grad a, grad b> over the space-time cylinder, as <a, -Lap_h b>.

    Precondition: a and b vanish on the boundary nodes (their values there
    are ignored), as every state and linearised state does.  Summation by
    parts then makes this the staggered Dirichlet energy -- midpoint first
    differences, integrated cell-wise along their axis and by trapezoid
    across and in time -- consistent with the marching schemes.
    """
    check_compatible(a, b)
    grid, inner = a.grid, a.grid.interior_idx
    wt = trapezoid_weights(a.tgrid.nt, a.tgrid.dt)
    lap = neg_laplacian(grid, b.values[inner])
    return float(space_weights(grid)[inner] @ (a.values[inner] * lap) @ wt)

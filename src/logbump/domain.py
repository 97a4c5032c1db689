"""Well geometry, multi-well potential, and the box discretization.

The computational domain is the box [-R, R]^dim with homogeneous Dirichlet
boundary, discretized on a uniform grid of n nodes per axis.  Fields store
interior nodal values only; the boundary ring is implicitly zero.  Wells and
their enlargements are axis-aligned boxes, and the potential vanishes
exactly on the closed wells and grows like squared distance up to a cap.

The discrete gradient energy is attributed to nodes as half the squared
one-sided differences toward each existing neighbor (one-sided at the box
boundary), which makes the summation-by-parts identity

    <-lap_h u, u> * h^dim  ==  sum of the nodal gradient energy * h^dim

an exact rearrangement of the face sum.  Region-restricted norms computed
from this density are therefore exactly additive over node partitions.

Every five-point operator of the package, `neg_laplacian` as much as the
solves' operators and Jacobians, is one `five_point_apply`: a diagonal and
per-axis stencil couplings, applied on the faces that `faces` lays out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by center and per-axis half-widths."""

    center: tuple[float, ...]
    half: tuple[float, ...]

    def __post_init__(self):
        if len(self.center) != len(self.half):
            raise ValueError("center and half must have the same length")
        if any(h <= 0 for h in self.half):
            raise ValueError("half-widths must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def lo(self) -> tuple[float, ...]:
        return tuple(c - h for c, h in zip(self.center, self.half))

    @property
    def hi(self) -> tuple[float, ...]:
        return tuple(c + h for c, h in zip(self.center, self.half))


def _boxes_closed_overlap(a: Box, b: Box) -> bool:
    return all(
        al <= bh and bl <= ah
        for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi)
    )


def _box_inside(inner: Box, outer: Box) -> bool:
    return all(
        ol < il and ih < oh
        for il, ih, ol, oh in zip(inner.lo, inner.hi, outer.lo, outer.hi)
    )


@dataclass(frozen=True)
class WellGeometry:
    """k disjoint wells with enlargements whose closures stay disjoint."""

    dim: int
    wells: tuple[Box, ...]
    enlargements: tuple[Box, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("only dim 1 and 2 are supported")
        if not self.wells:
            raise ValueError("at least one well is required")
        if len(self.wells) != len(self.enlargements):
            raise ValueError("each well needs exactly one enlargement")
        for j, (w, e) in enumerate(zip(self.wells, self.enlargements), start=1):
            if w.dim != self.dim or e.dim != self.dim:
                raise ValueError(f"well {j}: box dimension differs from dim")
            if not _box_inside(w, e):
                raise ValueError(f"well {j}: closure must lie inside its enlargement")
        for i in range(len(self.enlargements)):
            for j in range(i + 1, len(self.enlargements)):
                if _boxes_closed_overlap(self.enlargements[i], self.enlargements[j]):
                    raise ValueError(
                        f"enlargements {i + 1} and {j + 1} have overlapping closures"
                    )

    @property
    def k(self) -> int:
        return len(self.wells)


@dataclass(frozen=True)
class PotentialSpec:
    """Potential min(cap, dist(x, union of closed wells)^power).

    Zero exactly on the closed wells, positive outside, continuous, and
    flattening to the cap far away, so the deepening parameter lambda only
    steepens the walls without moving the zero set.  The default quadratic
    onset is the smoothest choice; a smaller power confines earlier, which
    moves the localization diagnostics into their decaying regime at lower
    lambda.
    """

    geometry: WellGeometry
    cap: float = 1.0
    power: float = 2.0

    def __post_init__(self):
        if self.cap <= 0:
            raise ValueError(f"cap: must be positive (got {self.cap!r})")
        if self.power <= 0:
            raise ValueError(f"power: must be positive (got {self.power!r})")


def _potential(spec: PotentialSpec, mesh):
    """The potential at the points of per-axis coordinates that broadcast."""
    dist_sq = None
    for well in spec.geometry.wells:
        acc = 0.0
        for x, center, half in zip(mesh, well.center, well.half):
            excess = np.maximum(np.abs(x - center) - half, 0.0)
            acc = acc + excess * excess
        dist_sq = acc if dist_sq is None else np.minimum(dist_sq, acc)
    if spec.power == 2.0:
        return np.minimum(spec.cap, dist_sq)
    with np.errstate(over="ignore"):  # a large power's inf far out is capped
        return np.minimum(spec.cap, np.sqrt(dist_sq) ** spec.power)


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-R, R]^dim with n nodes per axis, h = 2R/(n-1)."""

    dim: int
    r: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim: must be 1 or 2 (got {self.dim!r})")
        if self.n < 3:
            raise ValueError(f"n: must be at least 3 (got {self.n!r})")
        if self.n**self.dim > MAX_GRID_NODES:
            raise ValueError(f"n: {self.dim}D grid exceeds {MAX_GRID_NODES} nodes "
                             f"(got {self.n!r})")
        if self.r <= 0:
            raise ValueError(f"r: box half-width must be positive (got {self.r!r})")

    @property
    def h(self) -> float:
        return 2.0 * self.r / (self.n - 1)

    @cached_property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.r, self.r, self.n)

    @property
    def full_shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return (self.n - 2,) * self.dim

    def mesh(self, nodes=None) -> tuple[np.ndarray, ...]:
        """Broadcastable per-axis coordinate arrays of the node rectangle
        given by per-axis slices of the full grid, all nodes by default."""
        return tuple(
            self.axis[s].reshape([-1 if d == ax else 1 for d in range(self.dim)])
            for ax, s in enumerate(nodes or (slice(None),) * self.dim)
        )


def potential_on_grid(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    """Potential values at every node (full shape), zero on every node of
    a closed well by `box_nodes`' rule, whichever way its coordinate
    rounds."""
    out = _potential(spec, grid.mesh()) * np.ones(grid.full_shape)
    for well in spec.geometry.wells:
        out[box_nodes(well, grid, strict=False)] = 0.0
    return out


@dataclass
class Field:
    """Interior nodal values of a scalar field; zero on the box boundary."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.interior_shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match interior "
                f"shape {self.grid.interior_shape}"
            )

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.interior_shape))

    def full(self) -> np.ndarray:
        """Values padded with the zero boundary ring."""
        return np.pad(self.values, 1)


def box_nodes(box: Box, grid: Grid, strict: bool = True) -> tuple[slice, ...]:
    """Per-axis slices of the grid nodes inside an axis-aligned box.

    Nodes are classified by a strict interior test at their coordinates;
    the closed variant (strict=False) includes boundary-coincident nodes.
    A node within 1e-9 h of the boundary is on it, so both edges of a box
    classify their nodes alike, whichever way the coordinates round.  The
    nodes inside a box along an axis are contiguous, so one slice per
    axis holds them.
    """
    out = []
    for ax in range(grid.dim):
        d = np.abs(grid.axis - box.center[ax])
        edge = 1e-9 * grid.h
        inside = d < box.half[ax] - edge if strict else d <= box.half[ax] + edge
        idx = np.nonzero(inside)[0]
        out.append(slice(idx[0], idx[-1] + 1) if len(idx) else slice(0, 0))
    return tuple(out)


def box_mask_full(box: Box, grid: Grid) -> np.ndarray:
    """Node membership of an axis-aligned box (see `box_nodes`)."""
    out = np.zeros(grid.full_shape, dtype=bool)
    out[box_nodes(box, grid)] = True
    return out


@dataclass(frozen=True)
class RegionMasks:
    """Node masks for the selected wells, their enlargements and the rest."""

    gamma: tuple[int, ...]
    well: np.ndarray            # union of selected wells
    enlarged: np.ndarray        # union of selected enlargements
    outside: np.ndarray         # complement of `enlarged`
    per_enlarged: tuple[np.ndarray, ...]   # all enlargements, 1-based order

    @property
    def outside_wells(self) -> np.ndarray:
        """Complement of the selected wells (used by localization norms)."""
        return ~self.well


def masks(geometry: WellGeometry, grid: Grid, gamma) -> RegionMasks:
    """Build the node masks for a nonempty well selection gamma."""
    gamma = tuple(sorted(set(int(j) for j in gamma)))
    if not gamma:
        raise ValueError("gamma must select at least one well")
    if gamma[0] < 1 or gamma[-1] > geometry.k:
        raise ValueError(f"gamma indices must lie in 1..{geometry.k}")
    per_enlarged = tuple(box_mask_full(e, grid) for e in geometry.enlargements)
    well = np.zeros(grid.full_shape, dtype=bool)
    enlarged = np.zeros(grid.full_shape, dtype=bool)
    for j in gamma:
        well |= box_mask_full(geometry.wells[j - 1], grid)
        enlarged |= per_enlarged[j - 1]
    return RegionMasks(
        gamma=gamma,
        well=well,
        enlarged=enlarged,
        outside=~enlarged,
        per_enlarged=per_enlarged,
    )


MIN_MARGIN_CELLS = 2
# Nodes per axis a well needs for its ground-state solve.
MIN_WELL_NODES = 32
# Nodes of the largest grid; one float64 field of it takes 128 MiB.
MAX_GRID_NODES = 2**24


def check_well_nodes(j: int, nodes) -> None:
    """Raise ValueError when a node slice of well j holds < MIN_WELL_NODES."""
    for ax, s in enumerate(nodes):
        if s.stop - s.start < MIN_WELL_NODES:
            raise ValueError(f"well {j} resolved by only {s.stop - s.start} nodes "
                             f"on axis {ax}; need >= {MIN_WELL_NODES}")


def validate_geometry_on_grid(geometry: WellGeometry, grid: Grid):
    """Reject geometries the grid cannot resolve.

    Each well must sit inside its enlargement with at least MIN_MARGIN_CELLS
    grid cells of margin per side, every enlargement must stay
    MIN_MARGIN_CELLS cells away from the box boundary, and every well must
    hold MIN_WELL_NODES nodes per axis.
    """
    if geometry.dim != grid.dim:
        raise ValueError("geometry and grid dimensions differ")
    margin = MIN_MARGIN_CELLS * grid.h
    for j, (w, e) in enumerate(zip(geometry.wells, geometry.enlargements), start=1):
        for ax in range(grid.dim):
            if w.lo[ax] - e.lo[ax] < margin or e.hi[ax] - w.hi[ax] < margin:
                raise ValueError(
                    f"well {j}: enlargement margin below {MIN_MARGIN_CELLS} grid cells"
                )
            if e.lo[ax] < -grid.r + margin or e.hi[ax] > grid.r - margin:
                raise ValueError(
                    f"well {j}: enlargement too close to the box boundary"
                )
        check_well_nodes(j, box_nodes(w, grid))


def faces(shape):
    """Per axis of a 1D or 2D C-ordered node array of `shape` (the dims a
    `Grid` has), the stencil faces of its raveled values a: (k, wrap), k
    being the axis's stride, so that a[k:] - a[:-k] is the difference
    across each face, the `lo` end node in a[:-k] and the `hi` one in
    a[k:].  Along the last axis of a 2D array, nodes i and i + 1 at the
    end of a row are no face, and wrap is the slice of those positions in
    the face arrays; otherwise None."""
    for ax in range(len(shape)):
        k = math.prod(shape[ax + 1:])
        last = len(shape) > 1 and ax == len(shape) - 1
        yield k, slice(shape[ax] - 1, None, shape[ax]) if last else None


def five_point_apply(d: np.ndarray, off):
    """x -> J x for the symmetric matrix J with diagonal d and stencil
    couplings off, one per axis: entry i along axis a couples node i to
    node i + 1 along a, and a scalar couples every such pair.  Ghosts
    beyond the array are zero.  apply(x, diag) applies the same couplings
    with another diagonal.  The result is one buffer that every call
    reuses.

    The build checks each coupling array's shape and lays it out on the
    faces of the raveled array (`faces`), so that the apply walks
    contiguous flat slices.  Each product that would cross a row's end is
    set to -0.0, which leaves every sum it is added to unchanged.
    """
    out = np.empty_like(d)
    tmp = np.empty_like(d)
    dst, buf = out.reshape(-1), tmp.reshape(-1)
    terms = []
    for ax, (c, (k, wrap)) in enumerate(zip(off, faces(d.shape))):
        if np.ndim(c):
            face = d.shape[:ax] + (d.shape[ax] - 1,) + d.shape[ax + 1:]
            if np.shape(c) != face:
                raise ValueError(f"coupling of axis {ax} has shape {np.shape(c)}, "
                                 f"expected {face}")
            if wrap is not None:
                # a zero column, in the place of the faces across the row ends
                c = np.concatenate([c, np.zeros(face[:-1] + (1,))], axis=-1)
            c = c.reshape(-1)[:d.size - k]
        terms += [(c, dst[:-k], buf[:-k], slice(k, None), wrap),
                  (c, dst[k:], buf[k:], slice(None, -k), wrap)]

    def apply(x, diag=d):
        np.multiply(diag, x, out=out)
        x = x.reshape(-1)
        for c, to, prod, src, wrap in terms:
            np.multiply(c, x[src], out=prod)
            if wrap is not None:
                prod[wrap] = -0.0
            to += prod
        return out

    return apply


def neg_laplacian(u: Field) -> Field:
    """-lap_h u on the whole box with the standard 3/5-point stencil.

    A neighbour beyond the interior is a boundary node, zero (Dirichlet).
    It is `five_point_apply` with diagonal 2 dim and couplings -1, divided
    by h^2; the solves build their operators with the 1/h^2 inside.
    """
    v = u.values
    out = five_point_apply(np.full(v.shape, 2.0 * v.ndim), (-1.0,) * v.ndim)(v)
    return Field(u.grid, out / (u.grid.h * u.grid.h))


def grad_energy_density(u: Field) -> np.ndarray:
    """Nodal gradient energy |grad_h u|^2 on the full node set.

    Each face contributes half its squared difference quotient to both of
    its end nodes (boundary nodes included), so the total over all nodes
    equals the face sum <-lap_h u, u> exactly.
    """
    grid = u.grid
    full = u.full()
    dens = np.zeros(grid.full_shape)
    inv_h2 = 1.0 / (grid.h * grid.h)
    flat, acc = full.reshape(-1), dens.reshape(-1)
    for k, wrap in faces(grid.full_shape):
        d = flat[k:] - flat[:-k]
        dsq = d * d * inv_h2
        if wrap is not None:
            dsq[wrap] = 0.0
        acc[:-k] += 0.5 * dsq
        acc[k:] += 0.5 * dsq
    return dens


def save_field(u: Field, path):
    """Write a field's interior values with `np.save`: float64 of shape
    `grid.interior_shape`.  The grid is not stored; a run's manifest holds it."""
    np.save(path, u.values)

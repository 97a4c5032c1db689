"""Geometry, potential, grid operators, and field serialization."""

import math
import warnings

import numpy as np
import pytest

from logbump.domain import (
    Box,
    Field,
    Grid,
    PotentialSpec,
    RegionMasks,
    WellGeometry,
    box_mask_full,
    box_nodes,
    grad_energy_density,
    masks,
    neg_laplacian,
    potential_on_grid,
    save_field,
    validate_geometry_on_grid,
)
from oracles import (
    eval_potential,
    interior_mesh,
    load_field,
    restricted_norm_sq,
)


@pytest.fixture
def twin():
    geometry = WellGeometry(
        dim=1,
        wells=(Box((-5.0,), (2.5,)), Box((5.0,), (2.5,))),
        enlargements=(Box((-5.0,), (3.5,)), Box((5.0,), (3.5,))),
    )
    grid = Grid(dim=1, r=12.0, n=481)
    return geometry, grid, PotentialSpec(geometry, cap=1.0)


# -- geometry validation -------------------------------------------------------


def test_geometry_rejects_overlapping_enlargements():
    with pytest.raises(ValueError, match="overlapping"):
        WellGeometry(
            dim=1,
            wells=(Box((-1.0,), (0.5,)), Box((1.0,), (0.5,))),
            enlargements=(Box((-1.0,), (2.5,)), Box((1.0,), (2.5,))),
        )


def test_geometry_rejects_well_outside_enlargement():
    with pytest.raises(ValueError, match="inside"):
        WellGeometry(
            dim=1,
            wells=(Box((0.0,), (2.0,)),),
            enlargements=(Box((0.0,), (2.0,)),),
        )


def test_geometry_grid_margins(twin):
    geometry, grid, _ = twin
    validate_geometry_on_grid(geometry, grid)
    tight = WellGeometry(
        dim=1,
        wells=(Box((0.0,), (11.5,)),),
        enlargements=(Box((0.0,), (11.99,)),),
    )
    with pytest.raises(ValueError, match="boundary"):
        validate_geometry_on_grid(tight, grid)
    thin = WellGeometry(
        dim=1,
        wells=(Box((0.0,), (2.0,)),),
        enlargements=(Box((0.0,), (2.05,)),),
    )
    with pytest.raises(ValueError, match="margin"):
        validate_geometry_on_grid(thin, grid)


# -- potential -------------------------------------------------------------------


def _package_potential(spec: PotentialSpec, x: float) -> float:
    """The package's potential at the point x, read from `potential_on_grid`
    on a three-node grid that has x as a node."""
    grid = Grid(dim=1, r=abs(x) or 1.0, n=3)
    [idx] = np.flatnonzero(grid.axis == x)
    return float(potential_on_grid(spec, grid)[idx])


def test_potential_values(twin):
    geometry, grid, pot = twin
    assert _package_potential(pot, -5.0) == 0.0
    assert _package_potential(pot, -2.4) == pytest.approx(0.1**2, abs=1e-14)
    assert _package_potential(pot, 0.0) == 1.0  # clipped at the cap
    # zero exactly on the closure
    assert _package_potential(pot, -2.5) == 0.0


def test_potential_brute_force_oracle(twin):
    geometry, _, pot = twin
    rng = np.random.default_rng(7)
    boundary = []
    for well in geometry.wells:
        for sign in (-1.0, 1.0):
            boundary.extend(
                well.center[0] + sign * well.half[0] + 0.0 * rng.random(1)
            )
    pts = rng.uniform(-12, 12, 200)
    for x in pts:
        d = min(
            max(abs(x - w.center[0]) - w.half[0], 0.0) for w in geometry.wells
        )
        brute = min(1.0, min((x - b) ** 2 for b in boundary) if d > 0 else 0.0)
        direct = _package_potential(pot, x)
        assert direct == pytest.approx(min(1.0, d * d), abs=1e-14)
        assert eval_potential(pot, [x]) == pytest.approx(direct, abs=1e-15)
        if d > 0.0:
            assert direct <= brute + 1e-14


def test_potential_continuity(twin):
    geometry, _, pot = twin
    for step in (1e-2, 1e-4, 1e-6):
        jump = abs(
            _package_potential(pot, -2.5 + step) - _package_potential(pot, -2.5)
        )
        assert jump < 3.0 * step


def test_potential_power_shapes(twin):
    geometry, grid, _ = twin
    lin = PotentialSpec(geometry, cap=1.0, power=1.0)
    assert _package_potential(lin, -2.0) == pytest.approx(0.5, abs=1e-14)
    v = potential_on_grid(lin, grid)
    assert v.shape == grid.full_shape
    assert v.min() == 0.0 and v.max() == 1.0


def test_a_large_power_is_capped_without_overflow_warning(twin):
    # dist^1000 is inf far from the wells; the cap clips it, and numpy may
    # not warn of the overflow
    geometry, grid, _ = twin
    steep = PotentialSpec(geometry, cap=1.0, power=1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = potential_on_grid(steep, grid)
        assert _package_potential(steep, 0.0) == 1.0
    dist = np.maximum(np.abs(np.abs(grid.axis) - 5.0) - 2.5, 0.0)
    assert np.all(v[dist == 0.0] == 0.0) and np.all(v[dist >= 1.01] == 1.0)
    assert _package_potential(steep, -2.0) == 0.5**1000
    assert _package_potential(steep, -1.6) == pytest.approx(0.9**1000, rel=1e-12)


def test_potential_is_zero_on_every_closed_well_node():
    # Grid.axis is not symmetric about 0: on R = 14, n = 561 the node at
    # +1.6 is 1.6000000000000014 and its mirror -1.5999999999999996, so the
    # distance to a well of half-width 1.6 is 1.3e-15 at the one and 0 at
    # the other.  Both are on the closed well by `box_nodes`' rule, and the
    # potential is zero exactly there, positive everywhere else
    geometry = WellGeometry(
        dim=1,
        wells=(Box((-8.0,), (2.0,)), Box((0.0,), (1.6,)), Box((8.0,), (2.5,))),
        enlargements=(Box((-8.0,), (3.0,)), Box((0.0,), (2.4,)), Box((8.0,), (3.2,))),
    )
    grid = Grid(dim=1, r=14.0, n=561)
    v = potential_on_grid(PotentialSpec(geometry, cap=1.0, power=1.0), grid)
    closed = np.zeros(grid.full_shape, dtype=bool)
    for well in geometry.wells:
        closed[box_nodes(well, grid, strict=False)] = True
    assert closed[248] and closed[312] and v[248] == v[312] == 0.0
    assert np.all(v[closed] == 0.0) and np.all(v[~closed] > 0.0)


def test_potential_grid_matches_pointwise(twin):
    # the package's whole-grid potential against the pointwise oracle at
    # every node, for the quadratic, linear and steep onsets
    geometry, grid, _ = twin
    for power in (2.0, 1.0, 1000.0):
        spec = PotentialSpec(geometry, cap=1.0, power=power)
        want = [eval_potential(spec, [x]) for x in grid.axis]
        np.testing.assert_allclose(potential_on_grid(spec, grid), want,
                                   rtol=1e-12, atol=0.0, err_msg=f"power {power}")


# -- masks ------------------------------------------------------------------------


def test_masks_partition_and_nesting(twin):
    geometry, grid, _ = twin
    m = masks(geometry, grid, (1, 2))
    assert isinstance(m, RegionMasks)
    total = np.ones(grid.full_shape, dtype=bool)
    assert np.array_equal(m.enlarged | m.outside, total)
    assert not np.any(m.enlarged & m.outside)
    assert np.all(m.enlarged[m.well])
    # disjoint wells share no node
    assert not np.any(m.per_enlarged[0] & m.per_enlarged[1])


def test_masks_all_wells_cover_enlargements(twin):
    geometry, grid, _ = twin
    m = masks(geometry, grid, (1, 2))
    union = m.per_enlarged[0] | m.per_enlarged[1]
    assert np.array_equal(m.enlarged, union)


def test_masks_strict_boundary_classification():
    # node exactly on the box edge is excluded by the strict interior test
    geometry = WellGeometry(
        dim=1, wells=(Box((0.0,), (1.0,)),), enlargements=(Box((0.0,), (2.0,)),)
    )
    grid = Grid(dim=1, r=4.0, n=9)  # h = 1, nodes at integers
    m = box_mask_full(geometry.wells[0], grid)
    on_edge = np.isclose(np.abs(grid.axis), 1.0)
    assert not np.any(m & on_edge)
    inside = np.abs(grid.axis) < 1.0
    assert np.array_equal(m, inside)


@pytest.mark.parametrize("half", [1.6, 2.0, 2.5])
def test_box_nodes_classify_both_edges_alike(half):
    # edges on nodes of the three-well grid, where linspace rounds the
    # node at -1.6 to just inside the box and the one at 1.6 onto its edge:
    # the strict test leaves both edge nodes out, the closed one keeps both
    grid = Grid(dim=1, r=14.0, n=561)
    box = Box((0.0,), (half,))
    for strict, extra in ((True, -1), (False, 1)):
        (s,) = box_nodes(box, grid, strict)
        assert s.start + s.stop - 1 == grid.n - 1
        assert s.stop - s.start == round(2.0 * half / grid.h) + extra


def test_masks_empty_gamma_rejected(twin):
    geometry, grid, _ = twin
    with pytest.raises(ValueError):
        masks(geometry, grid, ())
    with pytest.raises(ValueError):
        masks(geometry, grid, (3,))


# -- discrete operators ------------------------------------------------------------


def test_laplacian_constant_field():
    grid = Grid(dim=1, r=1.0, n=11)
    u = Field(grid, np.ones(grid.interior_shape))
    lap = neg_laplacian(u).values
    assert lap[0] > 0.0 and lap[-1] > 0.0
    assert np.abs(lap[1:-1]).max() == 0.0


def test_laplacian_eigenfunction():
    mus = []
    for n in (241, 481):
        grid = Grid(dim=1, r=12.0, n=n)
        (x,) = interior_mesh(grid)
        u = Field(grid, np.sin(math.pi * (x + grid.r) / (2.0 * grid.r)))
        lap = neg_laplacian(u).values
        mu = (2.0 - 2.0 * math.cos(math.pi * grid.h / (2.0 * grid.r))) / grid.h**2
        assert np.abs(lap - mu * u.values).max() < 1e-11
        mus.append(mu)
    exact = (math.pi / 24.0) ** 2
    errs = [abs(m - exact) for m in mus]
    assert errs[1] < errs[0] / 3.5  # second order in h


def test_laplacian_matches_padded_formula():
    rng = np.random.default_rng(4)
    for dim, n in ((1, 481), (2, 127)):
        grid = Grid(dim=dim, r=7.0, n=n)
        u = Field(grid, rng.standard_normal(grid.interior_shape))
        full = np.pad(u.values, 1)
        # the neighbours in the order of `five_point_apply`: per axis, the
        # one above, then the one below
        if dim == 1:
            padded = 2.0 * u.values - full[2:] - full[:-2]
        else:
            padded = (4.0 * u.values - full[2:, 1:-1] - full[:-2, 1:-1]
                      - full[1:-1, 2:] - full[1:-1, :-2])
        assert np.array_equal(neg_laplacian(u).values, padded / (grid.h * grid.h))


def test_laplacian_symmetry():
    rng = np.random.default_rng(1)
    for dim, n in ((1, 101), (2, 21)):
        grid = Grid(dim=dim, r=3.0, n=n)
        a = Field(grid, rng.standard_normal(grid.interior_shape))
        b = Field(grid, rng.standard_normal(grid.interior_shape))
        s1 = float(np.vdot(neg_laplacian(a).values, b.values))
        s2 = float(np.vdot(a.values, neg_laplacian(b).values))
        assert abs(s1 - s2) <= 1e-12 * max(abs(s1), 1.0)


def test_laplacian_spd_smallest_eigenvalue():
    # inverse power iteration through the CG solver
    from logbump.solver import conjugate_gradient

    grid = Grid(dim=1, r=2.0, n=41)

    def apply_a(x):
        return neg_laplacian(Field(grid, x)).values

    rng = np.random.default_rng(5)
    x = rng.standard_normal(grid.interior_shape)
    x /= np.linalg.norm(x)
    for _ in range(60):
        y, _ = conjugate_gradient(apply_a, x, x, 1e-13, 10000)
        x = y / np.linalg.norm(y)
    lam_min = float(np.vdot(x, apply_a(x)))
    mu_exact = (2.0 - 2.0 * math.cos(math.pi * grid.h / (2.0 * grid.r))) / grid.h**2
    assert lam_min > 0.0
    assert lam_min == pytest.approx(mu_exact, rel=1e-8)


def test_summation_by_parts_identity():
    rng = np.random.default_rng(3)
    for dim, n in ((1, 201), (2, 41)):
        grid = Grid(dim=dim, r=4.0, n=n)
        u = Field(grid, rng.standard_normal(grid.interior_shape))
        lhs = grid.h**dim * float(np.vdot(neg_laplacian(u).values, u.values))
        rhs = grid.h**dim * float(np.sum(grad_energy_density(u)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_restricted_norm_additivity_and_lambda_independence(twin):
    geometry, grid, pot = twin
    m = masks(geometry, grid, (1, 2))
    rng = np.random.default_rng(4)
    u = Field(grid, rng.standard_normal(grid.interior_shape))
    full = np.ones(grid.full_shape, dtype=bool)
    total = restricted_norm_sq(u, full, 37.0, pot)
    parts = restricted_norm_sq(u, m.well, 37.0, pot) + restricted_norm_sq(
        u, m.outside_wells, 37.0, pot
    )
    assert abs(total - parts) <= 1e-10 * total
    assert restricted_norm_sq(Field.zeros(grid), full, 5.0, pot) == 0.0
    # supported inside a well: value independent of lambda
    xs = grid.axis[1:-1]
    supported = Field(
        grid, np.where(np.abs(xs + 5.0) < 2.5, np.exp(-((xs + 5.0) ** 2)), 0.0)
    )
    n1 = restricted_norm_sq(supported, full, 1.0, pot)
    n2 = restricted_norm_sq(supported, full, 1e6, pot)
    assert abs(n1 - n2) <= 1e-12 * n1


# -- field serialization -------------------------------------------------------------


def test_field_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    for dim, n in ((1, 33), (2, 17)):
        grid = Grid(dim=dim, r=1.5, n=n)
        u = Field(grid, rng.standard_normal(grid.interior_shape) * 1e3)
        path = tmp_path / f"field_{dim}.npy"
        save_field(u, path)
        back = load_field(path, grid)
        assert np.array_equal(back.values, u.values)


def test_field_load_rejects_garbage(tmp_path):
    grid = Grid(dim=2, r=1.5, n=17)
    text = tmp_path / "text.npy"
    text.write_text("dim,n,R,h\n2,17,1.5,0.1875\nvalue\n0.0\n")
    wrong_shape = tmp_path / "shape.npy"
    np.save(wrong_shape, np.zeros(grid.interior_shape).ravel())
    wrong_dtype = tmp_path / "dtype.npy"
    np.save(wrong_dtype, np.zeros(grid.interior_shape, dtype=np.float32))
    objects = tmp_path / "objects.npy"
    np.save(objects, np.empty(grid.interior_shape, dtype=object), allow_pickle=True)
    for path in (text, wrong_shape, wrong_dtype, objects):
        with pytest.raises(ValueError):
            load_field(path, grid)


def test_field_shape_validation():
    grid = Grid(dim=1, r=1.0, n=11)
    with pytest.raises(ValueError):
        Field(grid, np.zeros(7))

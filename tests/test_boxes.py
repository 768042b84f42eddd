"""Box geometry and lattice sampling."""

import itertools
import math
import random
import sys

import pytest

from opacue.boxes import Box, BoxUnion, Lattice, grid
from opacue.errors import QuantizationError, ValidationError


def test_grid_unit_interval_half_step():
    assert grid(Box(((0.0, 1.0),)), 0.5) == [(0.0,), (0.5,), (1.0,)]


def test_grid_square_nine_points():
    assert len(grid(Box(((-1.0, 1.0), (-1.0, 1.0))), 1.0)) == 9


def test_grid_step_too_large():
    with pytest.raises(QuantizationError):
        grid(Box(((0.0, 0.3),)), 0.5)
    with pytest.raises(ValidationError):
        grid(Box(((0.0, 1.0),)), 0.0)


def test_grid_includes_exact_boundary_points():
    (pts,) = Lattice(Box(((0.0, 0.3),)), 0.1).axes
    assert pts == [0.0, 0.1, 0.2, 0.30000000000000004] or pts == [0.0, 0.1, 0.2, 0.3]
    # decimal products make the boundary hit exact
    assert 0.3 in pts


def test_grid_matches_dense_enumeration_oracle():
    rng = random.Random(701)
    for _ in range(100):
        lo = round(rng.uniform(-3, 2), 2)
        hi = round(lo + rng.uniform(0.3, 3), 2)
        step = round(rng.uniform(0.05, 0.25), 2)
        if step <= 0 or step > hi - lo:
            continue
        pts = [p[0] for p in grid(Box(((lo, hi),)), step)]
        # oracle: scan a wide integer range at 10x finer bookkeeping
        kmin = math.floor(lo / step) - 2
        kmax = math.ceil(hi / step) + 2
        expected = []
        from decimal import Decimal
        dstep = Decimal(str(step))
        for k in range(kmin, kmax + 1):
            v = float(k * dstep)
            if lo <= v <= hi:
                expected.append(v)
        assert pts == expected
        for p in pts:
            assert lo <= p <= hi


def test_box_validation():
    with pytest.raises(ValidationError):
        Box(((1.0, 1.0),))
    with pytest.raises(ValidationError):
        Box(())
    with pytest.raises(ValidationError, match="point dimension mismatch"):
        Box(((0.0, 1.0),)).contains((0.5, 0.5))
    with pytest.raises(ValidationError):
        BoxUnion((Box(((0.0, 1.0),)), Box(((0.0, 1.0), (0.0, 1.0)))))


def test_union_membership_and_span():
    union = BoxUnion((Box(((0.0, 1.0),)), Box(((2.0, 2.5),))))
    assert union.contains((0.5,))
    assert union.contains((2.5,))
    assert not union.contains((1.5,))
    assert union.span == 0.5
    assert BoxUnion(()).span == math.inf


def test_subtract_matches_membership_sampling():
    rng = random.Random(702)
    for _ in range(50):
        a = Box(((0.0, 1.0), (0.0, 1.0)))
        lo1, lo2 = rng.uniform(0, 0.7), rng.uniform(0, 0.7)
        b = Box(((lo1, lo1 + 0.3), (lo2, lo2 + 0.3)))
        diff = BoxUnion((a,)).subtract(BoxUnion((b,)))
        for _ in range(100):
            p = (rng.uniform(0, 1), rng.uniform(0, 1))
            in_diff = diff.contains(p)
            expected = a.contains(p) and not b.contains(p)
            # boundary points may land either way; skip exact-face samples
            if min(abs(p[0] - lo1), abs(p[0] - lo1 - 0.3),
                   abs(p[1] - lo2), abs(p[1] - lo2 - 0.3)) < 1e-9:
                continue
            assert in_diff == expected


def test_intersect_unions():
    a = BoxUnion((Box(((0.0, 1.0),)),))
    b = BoxUnion((Box(((0.5, 2.0),)), Box(((-1.0, 0.2),))))
    inter = a.intersect(b)
    assert inter.contains((0.7,))
    assert inter.contains((0.1,))
    assert not inter.contains((0.3,))


def test_nearest_lattice_snaps_and_clamps():
    nearest = Lattice(Box(((0.0, 1.0),)), 0.5).nearest()
    assert nearest((0.26,)) == (0.5,)
    assert nearest((0.24,)) == (0.0,)
    assert nearest((7.0,)) == (1.0,)
    assert nearest((-3.0,)) == (0.0,)
    # a quotient by the step past the float range clamps, never overflows
    nearest = Lattice(Box(((0.0, 1.0),)), 0.1).nearest()
    assert nearest((1e308,)) == (1.0,)
    assert nearest((-1e308,)) == (0.0,)
    # past 2**53 rounding merges lattice values: the size counts every k,
    # the axis holds each value once, and the map still snaps by k
    lattice = Lattice(Box(((1e16, 1e16 + 10),)), 1.0)
    assert lattice.size == 12 and lattice.axes == [[1e16 + 2 * k for k in range(6)]]
    assert lattice.nearest()((1e16 + 4,)) == (1e16 + 4,)


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -0.1])
def test_grids_reject_non_finite_or_non_positive_steps(step):
    # the 1-D lattice used to crash on NaN and 0 and be empty for a negative step
    with pytest.raises(ValidationError, match="finite positive"):
        Lattice(Box(((0.0, 1.0),)), step)
    with pytest.raises(ValidationError, match="finite positive"):
        grid(Box(((0.0, 1.0),)), step)


def test_grid_size_counts_the_grid_without_building_it():
    rng = random.Random(702)
    for _ in range(100):
        bounds = []
        for _ in range(rng.randint(1, 3)):
            lo = round(rng.uniform(-3, 2), 2)
            bounds.append((lo, round(lo + rng.uniform(0.3, 3), 2)))
        box, step = Box(tuple(bounds)), round(rng.uniform(0.05, 0.3), 2)
        assert Lattice(box, step).size == len(grid(box, step))
    with pytest.raises(QuantizationError):  # the span check, before any count
        Lattice(Box(((0.0, 0.3), (0.0, 1e6))), 0.5)
    # past sys.maxsize points on one axis: counted, where len() would raise
    assert Lattice(Box(((0.0, 1e30),)), 1.0).size > sys.maxsize


def _face(rng, axis, step):
    """A box face on a lattice value, halfway between two, or one ulp off one."""
    v = rng.choice(axis)
    return rng.choice((v, v + step / 2, v - step / 2,
                       math.nextafter(v, math.inf), math.nextafter(v, -math.inf)))


def test_grid_members_equal_point_by_point_containment():
    """The per-axis windows pick exactly the grid points `contains` accepts,
    on faces that lie on, between and one ulp off lattice points."""
    rng = random.Random(2903)
    for step, bounds in ((0.1, ((0.0, 1.0),)), (0.1, ((-0.3, 0.7), (0.0, 1.2))),
                         (0.125, ((0.0, 1.875), (0.0, 0.875), (0.0, 1.0))),
                         (1 / 3, ((0.0, 2.0), (-1.0, 1.0))), (0.05, ((0.2, 0.9),))):
        lattice = Lattice(Box(bounds), step)
        axes, points = lattice.axes, lattice.points()
        assert points == [tuple(p) for p in itertools.product(*axes)]
        for _ in range(60):
            boxes = []
            for _ in range(rng.randint(0, 3)):
                sides = []
                for axis in axes:
                    lo, hi = sorted((_face(rng, axis, step), _face(rng, axis, step)))
                    sides.append((lo, hi) if lo < hi else (lo, math.nextafter(lo, math.inf)))
                boxes.append(Box(tuple(sides)))
            region = BoxUnion(tuple(boxes))
            want = tuple(i for i, p in enumerate(points) if region.contains(p))
            assert lattice.members(region) == want
    with pytest.raises(ValidationError, match="dimension mismatch"):
        Lattice(Box(((0.0, 1.0),) * 2), 0.5).members(BoxUnion((Box(((0.0, 1.0),)),)))

"""Axis-aligned boxes, unions of boxes, and lattice sampling.

`Lattice` points are multiples k*step with the products evaluated in decimal,
so a box bound written as a decimal literal (0.3) is hit exactly by the
lattice point 3*0.1 instead of drifting past it in binary floating point.
Boxes are closed: lattice points exactly on a face belong to the grid.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from typing import Callable, Sequence

from .errors import QuantizationError, ResourceError, ValidationError
from .system import DEFAULT_STATE_CAP

__all__ = ["Box", "BoxUnion", "Lattice", "check_span", "grid"]


@dataclass(frozen=True)
class Box:
    """Product of closed intervals [lo_i, hi_i] with finite lo_i < hi_i."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.bounds:
            raise ValidationError("a box needs at least one dimension")
        for d, (lo, hi) in enumerate(self.bounds):
            if not -math.inf < lo < hi < math.inf:
                raise ValidationError(
                    f"box dimension {d}: need finite lo < hi, got [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def span(self) -> float:
        return min(hi - lo for lo, hi in self.bounds)

    def contains(self, point: Sequence[float]) -> bool:
        if len(point) != self.dim:
            raise ValidationError("point dimension mismatch")
        return all(lo <= p <= hi for p, (lo, hi) in zip(point, self.bounds))

    def contains_box(self, other: "Box") -> bool:
        if other.dim != self.dim:
            raise ValidationError("box dimension mismatch")
        return all(
            lo <= olo and ohi <= hi
            for (lo, hi), (olo, ohi) in zip(self.bounds, other.bounds)
        )

    def intersect(self, other: "Box") -> "Box | None":
        bounds = []
        for (alo, ahi), (blo, bhi) in zip(self.bounds, other.bounds):
            lo, hi = max(alo, blo), min(ahi, bhi)
            if not lo < hi:
                return None
            bounds.append((lo, hi))
        return Box(tuple(bounds))

    def subtract(self, other: "Box") -> list["Box"]:
        """This box minus another, as disjoint boxes (measure-zero slivers dropped)."""
        if self.intersect(other) is None:
            return [self]
        pieces: list[Box] = []
        cur = list(self.bounds)
        for d in range(self.dim):
            lo, hi = cur[d]
            blo = max(lo, other.bounds[d][0])
            bhi = min(hi, other.bounds[d][1])
            if lo < blo:
                pieces.append(Box(tuple(cur[:d] + [(lo, blo)] + cur[d + 1:])))
            if bhi < hi:
                pieces.append(Box(tuple(cur[:d] + [(bhi, hi)] + cur[d + 1:])))
            cur[d] = (blo, bhi)
        return pieces


@dataclass(frozen=True)
class BoxUnion:
    """A finite (possibly empty) union of same-dimension boxes."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        dims = {box.dim for box in self.boxes}
        if len(dims) > 1:
            raise ValidationError("all boxes in a union must share a dimension")

    @property
    def empty(self) -> bool:
        return not self.boxes

    @property
    def span(self) -> float:
        """Minimum side length over member boxes; +inf for the empty union."""
        if self.empty:
            return math.inf
        return min(box.span for box in self.boxes)

    def contains(self, point: Sequence[float]) -> bool:
        return any(box.contains(point) for box in self.boxes)

    def intersect(self, other: "BoxUnion") -> "BoxUnion":
        out = []
        for a in self.boxes:
            for b in other.boxes:
                c = a.intersect(b)
                if c is not None:
                    out.append(c)
        return BoxUnion(tuple(out))

    def subtract(self, other: "BoxUnion") -> "BoxUnion":
        remaining = list(self.boxes)
        for b in other.boxes:
            remaining = [piece for box in remaining for piece in box.subtract(b)]
        return BoxUnion(tuple(remaining))


def check_span(name: str, step: float, span: float, of: str) -> None:
    """Raise QuantizationError when a sampling step exceeds the span of the
    set it samples: such a lattice can miss the set entirely."""
    if step > span:
        raise QuantizationError(f"{name} {step} exceeds the span {span} of the {of}")


def check_initial_spans(name: str, step: float, initial: BoxUnion, secret: BoxUnion,
                        of: str) -> None:
    """`check_span` on the secret and the non-secret part of an initial
    region: an initial pair starts in the one and has its partner in the
    other, so a lattice that misses either samples no initial pair."""
    check_span(name, step, initial.intersect(secret).span, f"initial-and-secret {of}")
    check_span(name, step, initial.subtract(secret).span, f"initial-minus-secret {of}")


@dataclass(frozen=True)
class Lattice:
    """The points k*step (component-wise) of a closed box, numbered in
    row-major order, each axis ascending. The step must be finite, positive
    and at most the box's span: a coarser lattice can miss the box."""

    box: Box
    step: float

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ValidationError(f"grid step must be a finite positive number, got {self.step}")
        check_span("grid step", self.step, self.box.span, "region")

    @cached_property
    def _ks(self) -> list[range]:
        """Per axis, the integers k with lo <= k*step <= hi: a range
        widened, then narrowed by exact float comparisons."""
        dstep, ranges = Decimal(str(self.step)), []
        for lo, hi in self.box.bounds:
            kmin = math.ceil(Decimal(str(lo)) / dstep) - 1
            kmax = math.floor(Decimal(str(hi)) / dstep) + 1
            while float(kmin * dstep) < lo:
                kmin += 1
            while float(kmax * dstep) > hi:
                kmax -= 1
            ranges.append(range(kmin, kmax + 1))
        return ranges

    def _values(self) -> list[list[float]]:
        """Per axis, k*step for each k of `_ks`; rounding may repeat one."""
        dstep = Decimal(str(self.step))
        return [[float(k * dstep) for k in ks] for ks in self._ks]

    @property
    def size(self) -> int:
        """How many points (at most, if rounding merges any), counted without building one."""
        return math.prod(ks.stop - ks.start for ks in self._ks)  # len() stops at sys.maxsize

    @cached_property
    def axes(self) -> list[list[float]]:
        """Per axis, the lattice values, ascending and without duplicates."""
        return [sorted(set(values)) for values in self._values()]

    def check_pairs(self, what: str) -> None:
        """Raise ResourceError when the pairs of points, counted from `size`
        before any point is built, exceed the state cap."""
        if self.size ** 2 > DEFAULT_STATE_CAP:
            raise ResourceError(f"{what} exceeds the cap of {DEFAULT_STATE_CAP} pairs")

    def points(self) -> list[tuple[float, ...]]:
        """Every point, the product of the axes in row-major order."""
        return list(itertools.product(*self.axes))

    def members(self, region: BoxUnion) -> tuple[int, ...]:
        """The indices, ascending, of the points that `region.contains`.

        No point is tested: per box, each axis contributes the window of its
        values v with lo <= v <= hi, found by bisection with the same float
        comparisons, and the box's points are the product of its windows.
        """
        axes = self.axes
        members: set[int] = set()
        for box in region.boxes:
            if box.dim != len(axes):
                raise ValidationError("point dimension mismatch")
            indices = [0]
            for axis, (lo, hi) in zip(axes, box.bounds):
                window = range(bisect.bisect_left(axis, lo), bisect.bisect_right(axis, hi))
                indices = [i * len(axis) + k for i in indices for k in window]
            members.update(indices)
        return tuple(sorted(members))

    def nearest(self) -> Callable[[Sequence[float]], tuple[float, ...]]:
        """The map from a point to its nearest lattice point, clamped into
        the box; a tie rounds to the even multiple of step."""
        axes = [(ks.start, ks.stop - 1, values) for ks, values in zip(self._ks, self._values())]
        step = self.step
        # The quotient is clamped to the axis's index range before `round`, which
        # is monotone and fixes integers: the same index as clamping after it,
        # and a finite point whose quotient overflows to infinity still snaps.
        return lambda point: tuple(values[round(min(max(p / step, first), last)) - first]
                                   for p, (first, last, values) in zip(point, axes))


def grid(box: Box, step: float) -> list[tuple[float, ...]]:
    """`Lattice(box, step).points()`."""
    return Lattice(box, step).points()

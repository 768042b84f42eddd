"""Axis-aligned boxes, unions of boxes, and lattice sampling.

Grid points are multiples k*step with the products evaluated in decimal,
so a box bound written as a decimal literal (0.3) is hit exactly by the
lattice point 3*0.1 instead of drifting past it in binary floating point.
Boxes are closed: lattice points exactly on a face belong to the grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Sequence

from .errors import QuantizationError, ValidationError

__all__ = ["Box", "BoxUnion", "check_span", "grid_interval", "grid", "nearest_lattice"]


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


def _lattice_range(lo: float, hi: float, step: Decimal) -> range:
    """Integer k with lo <= k*step <= hi, widened then re-checked exactly."""
    kmin = math.ceil(Decimal(str(lo)) / step) - 1
    kmax = math.floor(Decimal(str(hi)) / step) + 1
    while float(kmin * step) < lo:
        kmin += 1
    while float(kmax * step) > hi:
        kmax -= 1
    return range(kmin, kmax + 1)


def _check_step(step: float) -> None:
    if not 0 < step < math.inf:
        raise ValidationError(f"grid step must be a finite positive number, got {step}")


def check_span(name: str, step: float, span: float, of: str) -> None:
    """Raise QuantizationError when a sampling step exceeds the span of the
    set it samples: such a lattice can miss the set entirely."""
    if step > span:
        raise QuantizationError(f"{name} {step} exceeds the span {span} of the {of}")


def grid_interval(lo: float, hi: float, step: float) -> list[float]:
    """Lattice multiples of step inside the closed interval [lo, hi]."""
    _check_step(step)
    dstep = Decimal(str(step))
    return [float(k * dstep) for k in _lattice_range(lo, hi, dstep)]


def grid(region: Box | BoxUnion, step: float) -> list[tuple[float, ...]]:
    """All lattice points k*step (component-wise) inside the region.

    Raises QuantizationError when the step exceeds the region's span, since
    such a grid can miss the region entirely.
    """
    _check_step(step)
    boxes = (region,) if isinstance(region, Box) else region.boxes
    if not boxes:
        return []
    check_span("grid step", step, region.span, "region")
    points: set[tuple[float, ...]] = set()
    dstep = Decimal(str(step))
    for box in boxes:
        axes = [
            [float(k * dstep) for k in _lattice_range(lo, hi, dstep)]
            for lo, hi in box.bounds
        ]
        points.update(itertools.product(*axes))
    return sorted(points)


def nearest_lattice(point: Sequence[float], step: float, box: Box) -> tuple[float, ...]:
    """Nearest lattice point of the box grid, clamped into the box."""
    dstep = Decimal(str(step))
    out = []
    for p, (lo, hi) in zip(point, box.bounds):
        ks = _lattice_range(lo, hi, dstep)
        if len(ks) == 0:
            raise QuantizationError(f"no lattice point in [{lo}, {hi}] at step {step}")
        k = round(p / step)
        k = min(max(k, ks.start), ks.stop - 1)
        out.append(float(k * dstep))
    return tuple(out)

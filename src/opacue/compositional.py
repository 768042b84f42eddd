"""Small-gain composition for two feedback-interconnected scalar subsystems.

Each subsystem is x_i+ = a_i*x_i + b_i*x_j with |a_i| < 1, the identity
output map, and state/initial/secret intervals held as 1-D boxes; the file
holding the two is read here, by `parse_interconnection`. The gain of a
subsystem is |b_i / (1 - a_i)|; when the product of the two gains is below
one, local barrier certificates compose by pointwise maximum into a barrier
certificate for the interconnection. The local conditions are sampled
through `barrier`'s region model and scan kernel.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

from .barrier import Block, Scan, pair_regions, table_blocks
from .boxes import Box, BoxUnion, Lattice, check_initial_spans, check_span
from .control import DtControlSystem, IssCertificate, affine_certificate
from .errors import ParseError, SmallGainError, ValidationError
from .polynomial import tabulate
from .system import DEFAULT_MARGIN, check_delta, check_threshold, json_number, read_object

__all__ = [
    "LinearSubsystem",
    "parse_interconnection",
    "GainReport",
    "small_gain",
    "compose_barriers",
    "interconnect",
    "BarrierConditionCheck",
    "BarrierCompositionReport",
]

@dataclass(frozen=True)
class LinearSubsystem:
    """x+ = a*x + b*w with w the partner subsystem's state, output = state.
    The sets are 1-D boxes."""

    a: float
    b: float
    state: Box
    initial: Box
    secret: Box

    def __post_init__(self):
        if not abs(self.a) < 1:
            raise ValidationError(f"subsystem needs |a| < 1, got a={self.a}")
        if not math.isfinite(self.b):
            raise ValidationError(f"subsystem needs a finite b, got b={self.b}")
        if not math.isfinite(self.gain):
            raise ValidationError(
                f"subsystem gain |b/(1-a)| overflows, with a={self.a} and b={self.b}")
        if self.state.dim != 1:
            raise ValidationError(f"subsystem needs a 1-D state box, got {self.state.dim}-D")
        for label, box in (("initial", self.initial), ("secret", self.secret)):
            if not self.state.contains_box(box):
                raise ValidationError(f"{label} interval leaves the state interval")

    def step(self, x: float, w: float) -> float:
        return self.a * x + self.b * w

    @property
    def gain(self) -> float:
        return abs(self.b / (1 - self.a))


def parse_interconnection(text: str | bytes) -> tuple[LinearSubsystem, LinearSubsystem]:
    """The two subsystems of a JSON interconnection document, {"sub1": {"a",
    "b", "state", "initial", "secret"}, "sub2": ...} with each interval a
    [lo, hi] pair. An error names the key of the first bad subsystem."""
    doc = read_object(text, ("sub1", "sub2"))
    subs = []
    for key in ("sub1", "sub2"):
        entry = doc[key]
        try:
            subs.append(LinearSubsystem(
                json_number(entry["a"]), json_number(entry["b"]),
                *(Box((tuple(map(json_number, entry[name])),))
                  for name in ("state", "initial", "secret")),
            ))
        # a ValueError is a [lo, hi] pair of the wrong length
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{key}: expected a, b, state, initial, secret") from exc
        except ValidationError as exc:
            raise ValidationError(f"{key}: {exc}") from exc
    return subs[0], subs[1]


@dataclass(frozen=True)
class GainReport:
    gamma1: float
    gamma2: float
    product: float
    small_gain_ok: bool

    def to_report(self) -> dict:
        return asdict(self)


def small_gain(sub1: LinearSubsystem, sub2: LinearSubsystem) -> GainReport:
    """Gains gamma_i = |b_i / (1 - a_i)| and the product test gamma1*gamma2 < 1.
    A product that overflows is refused: a report cannot carry it."""
    g1, g2 = sub1.gain, sub2.gain
    product = g1 * g2
    if not math.isfinite(product):
        raise ValidationError(f"gain product gamma1*gamma2 overflows, with "
                              f"gamma1={g1} and gamma2={g2}")
    return GainReport(gamma1=g1, gamma2=g2, product=product,
                      small_gain_ok=product < 1)


def interconnect(sub1: LinearSubsystem, sub2: LinearSubsystem,
                 cert: Optional[IssCertificate] = None) -> DtControlSystem:
    """The 2-D feedback interconnection as a control system (no external input).

    The input box is a zero-effect placeholder so the interconnected system
    can flow through the box-domain tooling, whose quantifiers then range
    over inputs that do not influence the dynamics. Without `cert`, it is
    the affine certificate of the interconnection's A, whose |A|_inf must
    be below 1.
    """
    if cert is None:
        cert = affine_certificate([[sub1.a, sub1.b], [sub2.b, sub2.a]], [])
    state = Box(sub1.state.bounds + sub2.state.bounds)
    return DtControlSystem(
        state_box=state,
        initial_region=BoxUnion((Box(sub1.initial.bounds + sub2.initial.bounds),)),
        secret_region=BoxUnion((Box(sub1.secret.bounds + sub2.secret.bounds),)),
        input_box=Box(((0.0, state.span),)),
        dynamics=(
            f"{sub1.a!r}*x1 + {sub1.b!r}*x2",
            f"{sub2.a!r}*x2 + {sub2.b!r}*x1",
        ),
        output=("x1", "x2"),
        iss_cert=cert,
    )


@dataclass(frozen=True)
class BarrierConditionCheck:
    subsystem: int
    condition: str
    passed: bool
    min_margin: Optional[float]
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class BarrierCompositionReport:
    gains: GainReport
    checks: tuple[BarrierConditionCheck, ...]
    composed: Callable[[Sequence[float]], float]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_report(self) -> dict:
        return {
            "small_gain": self.gains.to_report(),
            "all_passed": self.all_passed,
            "checks": [
                {key: getattr(c, key)
                 for key in ("subsystem", "condition", "passed", "min_margin")}
                for c in self.checks
            ],
        }


def _barrier_conditions(
    idx: int,
    sub: LinearSubsystem,
    partner: LinearSubsystem,
    b: Callable[[Sequence[float]], float],
    delta: float,
    resolution: float,
    margin: float,
) -> list[BarrierConditionCheck]:
    """Sample the four local-barrier conditions for one subsystem."""
    lattice = Lattice(sub.state, resolution)
    (xs,), (ws,) = lattice.axes, Lattice(partner.state, resolution).axes
    points = lattice.points()  # the output map is the identity
    regions = pair_regions(lattice, points, BoxUnion((sub.initial,)), BoxUnion((sub.secret,)),
                           delta)
    values = tabulate(b, points, points)  # B once per (x, xh) pair, row by row
    pairs = partial(table_blocks, points, values)  # one block per nonempty row
    full = (1 << len(points)) - 1

    def norm(x: float, xh: float) -> float:
        return max(abs(x), abs(xh))

    def decrease() -> Iterator[Block]:
        # each factor is computed outside the loops it does not depend on;
        # a block is one (x, xh) pair's table, row w by row, column wh
        gains = [sub.b * norm(w, wh) for w in ws for wh in ws]
        tails = [(w, wh) for w in ws for wh in ws]
        steps = [[(sub.step(x, w),) for w in ws] for x in xs]
        for x, x_steps, row_values in zip(xs, steps, values):
            for xh, xh_steps, base in zip(xs, steps, row_values):
                kept = (1 - sub.a) * base
                # one table per pair, so a scan that stops early wastes one
                table = chain.from_iterable(tabulate(b, x_steps, xh_steps))
                yield (x, xh), tails, [kept + gain - v for gain, v in zip(gains, table)]

    conditions = (
        # Lower bound by the augmented norm on the whole region.
        ("norm-lower-bound", ((x, xhs, [v - norm(*x, *xh) for xh, v in zip(xhs, vs)])
                              for x, xhs, vs in pairs([full] * len(xs))), False),
        # Nonpositive on the local augmented initial region.
        ("initial", ((x, xhs, [-v for v in vs]) for x, xhs, vs in pairs(regions.r0)), False),
        # Positive (strictly) on the local output-distinguishable region.
        ("unsafe", ((x, xhs, [v - margin for v in vs])
                    for x, xhs, vs in pairs([full & ~row for row in regions.close])), True),
        # Gain-style decrease against the partner's augmented norm.
        ("decrease", decrease(), False),
    )
    checks = []
    for name, samples, strict in conditions:
        # every earlier sample passed, so the first violated one is the worst
        scan = Scan(f"subsystem {idx} {name}", samples, 0.0, strict)
        hit = next(iter(scan), None)
        checks.append(BarrierConditionCheck(idx, name, hit is None, scan.worst,
                                            hit and hit[0]))
    return checks


def compose_barriers(
    b1: Callable[[Sequence[float]], float],
    b2: Callable[[Sequence[float]], float],
    sub1: LinearSubsystem,
    sub2: LinearSubsystem,
    delta: float,
    resolution: float,
    margin: float = DEFAULT_MARGIN,
) -> BarrierCompositionReport:
    """Compose local barrier certificates by pointwise maximum.

    Requires the small-gain condition (SmallGainError otherwise). Each local
    candidate takes one (x_i, xhat_i) pair; the composed evaluator takes the
    interconnected augmented point (x1, x2, xhat1, xhat2) and can be fed back
    into the opacity barrier checker for the interconnection.
    """
    check_delta(delta)
    check_threshold("margin", margin)
    for idx, sub in enumerate((sub1, sub2), 1):
        of = f"interval of subsystem {idx}"
        check_span("resolution", resolution, sub.state.span, f"state {of}")
        check_initial_spans("resolution", resolution, BoxUnion((sub.initial,)),
                            BoxUnion((sub.secret,)), of)
    gains = small_gain(sub1, sub2)
    if not gains.small_gain_ok:
        raise SmallGainError(
            f"small-gain condition failed: gamma1*gamma2 = {gains.product} >= 1")
    for idx, sub in enumerate((sub1, sub2), 1):  # each is the other's partner too
        Lattice(sub.state, resolution).check_pairs(f"state lattice of subsystem {idx}")
    checks = _barrier_conditions(1, sub1, sub2, b1, delta, resolution, margin)
    checks += _barrier_conditions(2, sub2, sub1, b2, delta, resolution, margin)

    def composed(point: Sequence[float]) -> float:
        x1, x2, xh1, xh2 = point
        return max(b1((x1, xh1)), b2((x2, xh2)))

    return BarrierCompositionReport(gains=gains, checks=tuple(checks), composed=composed)

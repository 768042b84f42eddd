"""Small-gain composition for two feedback-interconnected scalar subsystems.

Each subsystem is x_i+ = a_i*x_i + b_i*x_j with |a_i| < 1, the identity
output map, and interval state/initial/secret sets. The gain of a subsystem
is |b_i / (1 - a_i)|; when the product of the two gains is below one, local
barrier certificates compose by pointwise maximum into a barrier
certificate for the interconnection.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from .boxes import Box, BoxUnion, check_span, grid_interval
from .control import DtControlSystem, IssCertificate, affine_certificate
from .errors import DomainError, SmallGainError, ValidationError
from .polynomial import tabulate
from .system import check_delta, check_threshold, close_rows

__all__ = [
    "Interval",
    "LinearSubsystem",
    "GainReport",
    "small_gain",
    "compose_barriers",
    "interconnect",
    "BarrierConditionCheck",
    "BarrierCompositionReport",
]

# One sampled condition instance: its witness point and its slack.
Sample = tuple[tuple[float, ...], float]


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValidationError(f"interval needs finite lo < hi, "
                                  f"got [{self.lo}, {self.hi}]")

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi


@dataclass(frozen=True)
class LinearSubsystem:
    """x+ = a*x + b*w with w the partner subsystem's state, output = state."""

    a: float
    b: float
    state: Interval
    initial: Interval
    secret: Interval

    def __post_init__(self):
        if not abs(self.a) < 1:
            raise ValidationError(f"subsystem needs |a| < 1, got a={self.a}")
        if not math.isfinite(self.b):
            raise ValidationError(f"subsystem needs a finite b, got b={self.b}")
        for label, iv in (("initial", self.initial), ("secret", self.secret)):
            if iv.lo < self.state.lo or iv.hi > self.state.hi:
                raise ValidationError(f"{label} interval leaves the state interval")

    def step(self, x: float, w: float) -> float:
        return self.a * x + self.b * w

    @property
    def gain(self) -> float:
        return abs(self.b / (1 - self.a))


@dataclass(frozen=True)
class GainReport:
    gamma1: float
    gamma2: float
    product: float
    small_gain_ok: bool

    def to_report(self) -> dict:
        return asdict(self)


def small_gain(sub1: LinearSubsystem, sub2: LinearSubsystem) -> GainReport:
    """Gains gamma_i = |b_i / (1 - a_i)| and the product test gamma1*gamma2 < 1."""
    g1, g2 = sub1.gain, sub2.gain
    product = g1 * g2
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
    width = min(sub1.state.hi - sub1.state.lo, sub2.state.hi - sub2.state.lo)
    return DtControlSystem(
        state_box=Box(((sub1.state.lo, sub1.state.hi), (sub2.state.lo, sub2.state.hi))),
        initial_region=BoxUnion((Box((
            (sub1.initial.lo, sub1.initial.hi), (sub2.initial.lo, sub2.initial.hi),
        )),)),
        secret_region=BoxUnion((Box((
            (sub1.secret.lo, sub1.secret.hi), (sub2.secret.lo, sub2.secret.hi),
        )),)),
        input_box=Box(((0.0, width),)),
        dynamics=(
            f"{sub1.a!r}*x1 + {sub1.b!r}*x2",
            f"{sub2.a!r}*x2 + {sub2.b!r}*x1",
        ),
        output=("x1", "x2"),
        iss_cert=cert,
    )


def _scan(name: str, samples: Iterable[Sample],
          strict: bool) -> tuple[bool, Optional[float], Optional[tuple]]:
    """(passed, smallest slack, witness) of one sampled condition.

    Stops at the first violated sample: a negative slack, or a zero one
    too when the condition is `strict` (slack > 0). The witness is the
    worst sample seen. A slack that is not finite raises: NaN would pass
    every comparison.
    """
    worst = witness = None
    inf = math.inf  # a local name: this test runs once per sample
    for point, slack in samples:
        if not -inf < slack < inf:
            raise DomainError(f"{name}: slack {slack} is not finite at {point}")
        if worst is None or slack < worst:
            worst, witness = slack, point
        if slack < 0 or strict and slack == 0:
            return False, worst, witness
    return True, worst, None


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
    xs = grid_interval(sub.state.lo, sub.state.hi, resolution)
    ws = grid_interval(partner.state.lo, partner.state.hi, resolution)
    pairs = [(x, xh) for x in xs for xh in xs]
    # B and delta-closeness over the pair grid, in the order of `pairs`
    points = [(x,) for x in xs]
    values = list(chain(*tabulate(b, points, points)))
    close = [row >> j & 1 for row in close_rows(points, points, delta) for j in range(len(xs))]

    def norm(x: float, xh: float) -> float:
        return max(abs(x), abs(xh))

    def decrease() -> Iterable[Sample]:
        # each factor is computed outside the loops it does not depend on
        gains = [[sub.b * norm(w, wh) for wh in ws] for w in ws]
        steps = [[(sub.step(x, w),) for w in ws] for x in xs]
        bases = iter(values)
        for x, x_steps in zip(xs, steps):
            for xh, xh_steps in zip(xs, steps):
                kept = (1 - sub.a) * next(bases)
                # one table per pair, so a scan that stops early wastes one
                table = tabulate(b, x_steps, xh_steps)
                for w, row, gain_row in zip(ws, table, gains):
                    for wh, value, gain in zip(ws, row, gain_row):
                        yield (x, xh, w, wh), kept + gain - value

    def initial(x: float, xh: float) -> bool:
        return (sub.initial.contains(x) and sub.secret.contains(x)
                and sub.initial.contains(xh) and not sub.secret.contains(xh))

    conditions = (
        # Lower bound by the augmented norm on the whole region.
        ("norm-lower-bound", ((p, v - norm(*p)) for p, v in zip(pairs, values)), False),
        # Nonpositive on the local augmented initial region.
        ("initial", ((p, -v) for p, v, c in zip(pairs, values, close) if c and initial(*p)),
         False),
        # Positive (strictly) on the local output-distinguishable region.
        ("unsafe", ((p, v - margin) for p, v, c in zip(pairs, values, close) if not c), True),
        # Gain-style decrease against the partner's augmented norm.
        ("decrease", decrease(), False),
    )
    return [BarrierConditionCheck(idx, name, *_scan(f"subsystem {idx} {name}", samples, strict))
            for name, samples, strict in conditions]


def compose_barriers(
    b1: Callable[[Sequence[float]], float],
    b2: Callable[[Sequence[float]], float],
    sub1: LinearSubsystem,
    sub2: LinearSubsystem,
    delta: float,
    resolution: float,
    margin: float = 1e-9,
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
        check_span("resolution", resolution, sub.state.hi - sub.state.lo,
                   f"state interval of subsystem {idx}")
    gains = small_gain(sub1, sub2)
    if not gains.small_gain_ok:
        raise SmallGainError(
            f"small-gain condition failed: gamma1*gamma2 = {gains.product} >= 1")
    checks = _barrier_conditions(1, sub1, sub2, b1, delta, resolution, margin)
    checks += _barrier_conditions(2, sub2, sub1, b2, delta, resolution, margin)

    def composed(point: Sequence[float]) -> float:
        x1, x2, xh1, xh2 = point
        return max(b1((x1, xh1)), b2((x2, xh2)))

    return BarrierCompositionReport(gains=gains, checks=tuple(checks), composed=composed)

"""Grid-sampled validation of candidate barrier certificates.

Two checkers over the augmented system (a control system paired with
itself): a safety-style certificate whose conditions imply opacity, and a
reachability-style certificate whose conditions imply the lack of it. Both
evaluate candidates on lattice samples, so "falsified" verdicts are
decisive (each carries a concrete witness point) while "sample-passed"
verdicts are explicitly non-conclusive: sampling is not a proof.

The two theorems quantify their input choices in opposite orders (for every
adversarial input there is a matching one, versus there is an input beating
every matching one). Both orders read one table of candidate values through
`_OVER_VALUES`, with one fallback where the values could overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .boxes import check_span, grid
from .control import DtControlSystem
from .errors import DomainError
from .polynomial import tabulate
from .system import DEFAULT_MARGIN, check_delta, check_threshold, close_rows, iter_bits

__all__ = [
    "Evaluator",
    "AugmentedRegions",
    "Violation",
    "CheckReport",
    "build_regions",
    "check_opacity_barrier",
    "check_lack_barrier",
    "decrease_forall_exists",
    "decrease_exists_forall",
]

# A candidate certificate: any callable over the 2n augmented coordinates
# (x followed by x_hat). Polynomial instances satisfy this protocol, and
# every condition evaluates them a table at a time (`tabulate`).
Evaluator = Callable[[Sequence[float]], float]

# One sampled condition instance: the augmented point and its slack.
Sample = tuple[tuple[float, ...], float]
# The value a violated sample reports, given its slack; None if not violated.
Rule = Callable[[float], Optional[float]]


@dataclass(frozen=True)
class AugmentedRegions:
    """Lattice samples of the augmented regions at one resolution.

    `points` is the lattice of the state box, in grid order. `close[i]` is
    the bitset of the points whose output is delta-close to that of
    points[i]; the output-distinguishable (unsafe) region is its
    complement, and the full region is every pair. `r0[i]` is the bitset
    of the augmented initial partners of points[i]: x in X0 and secret,
    x_hat in X0 minus secret, outputs delta-close.
    """

    points: list[tuple[float, ...]]
    r0: list[int]
    close: list[int]


def build_regions(
    cs: DtControlSystem, delta: float, resolution: float
) -> AugmentedRegions:
    """Sample the augmented initial/unsafe/full regions on a lattice.

    Points are drawn from the resolution-lattice of the state box and kept
    by exact membership in each region predicate, so any reported witness
    genuinely belongs to its region. Closeness is the table `close_rows`
    builds over the sampled outputs, pair for pair equal to `delta_close`.
    """
    check_delta(delta)
    for label, region in (
        ("state box", cs.state_box),
        ("input box", cs.input_box),
        ("initial-and-secret region", cs.initial_region.intersect(cs.secret_region)),
        ("initial-minus-secret region", cs.initial_region.subtract(cs.secret_region)),
    ):
        check_span("resolution", resolution, region.span, label)
    points = grid(cs.state_box, resolution)
    outputs = [cs.observe(p) for p in points]
    for p, y in zip(points, outputs):
        if not all(map(math.isfinite, y)):
            raise DomainError(f"regions: output {y} is not finite at {p}", state=p)
    close = close_rows(outputs, outputs, delta)
    initial = sum(1 << i for i, p in enumerate(points) if cs.initial_region.contains(p))
    secret = sum(1 << i for i, p in enumerate(points) if cs.secret_region.contains(p))
    r0 = [row & initial & ~secret if (initial & secret) >> i & 1 else 0
          for i, row in enumerate(close)]
    return AugmentedRegions(points=points, r0=r0, close=close)


@dataclass(frozen=True)
class Violation:
    condition: str
    point: tuple[float, ...]
    value: float


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a sampled certificate check.

    status is "falsified" (decisive, with a witness) or "sample-passed"
    (grid evidence only, not a proof). min_margin maps each condition to the
    smallest slack observed; sample_counts records how many samples each
    condition actually saw.
    """

    status: str
    violations: tuple[Violation, ...]
    min_margin: dict[str, Optional[float]]
    sample_counts: dict[str, int]
    conclusive: bool

    @property
    def witness(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    def to_report(self) -> dict:
        first = self.witness
        return {
            "status": self.status,
            "conclusive": self.conclusive,
            "condition": first and first.condition,
            "witness": first and {"point": list(first.point), "value": first.value},
            "violations": len(self.violations),
            "min_margin": dict(self.min_margin),
            "sample_counts": dict(self.sample_counts),
            "note": "sample-passed is not a proof; only falsification is decisive",
        }


def decrease_forall_exists(slack: list[list[float]]) -> float:
    """Value of: for every row choice there exists a column with slack >= 0.

    Returns min over rows of max over columns; the condition holds iff the
    returned value is >= 0 (rows index the adversarial input u, columns the
    matching input u_hat).
    """
    return min(max(row) for row in slack)


def decrease_exists_forall(slack: list[list[float]]) -> float:
    """Value of: some row has every column with slack >= 0.

    Returns max over rows of min over columns; the condition holds iff the
    returned value is >= 0.
    """
    return max(min(row) for row in slack)


def _above(margin: float) -> Rule:
    """Violation rule of "B > margin": B itself, whenever B <= margin."""
    return lambda value: value if value <= margin else None


def _negative(slack: float) -> Optional[float]:
    """Violation rule of "slack >= 0": the shortfall -slack."""
    return -slack if slack < 0 else None


def _scan(conditions: Sequence[tuple[str, Iterable[Sample], Rule]]) -> CheckReport:
    """Scan every sample of every (name, samples, rule) condition, in order.

    Every sample is scanned, so the report counts every violation. A slack
    that is not finite raises: NaN would pass every comparison.
    """
    violations: list[Violation] = []
    margins: dict[str, Optional[float]] = {}
    counts: dict[str, int] = {}
    inf = math.inf  # a local name: this test runs once per sample
    for name, samples, rule in conditions:
        worst, count = None, 0
        for point, slack in samples:
            if not -inf < slack < inf:
                raise DomainError(f"{name}: slack {slack} is not finite at {point}")
            count += 1
            if worst is None or slack < worst:
                worst = slack
            value = rule(slack)
            if value is not None:
                violations.append(Violation(name, point, value))
        margins[name], counts[name] = worst, count
    falsified = bool(violations)
    return CheckReport(
        status="falsified" if falsified else "sample-passed",
        violations=tuple(violations),
        min_margin=margins,
        sample_counts=counts,
        conclusive=falsified,
    )


def _values(candidate: Evaluator, points: list[tuple[float, ...]],
            rows: list[int]) -> Iterator[Sample]:
    """(x + xh, B(x, xh)) at each pair of the rows, in order: one table
    row per row."""
    for x, row in zip(points, rows):
        partners = [points[j] for j in iter_bits(row)]
        for xh, value in zip(partners, tabulate(candidate, [x], partners)[0]):
            yield x + xh, value


# The decrease slack f(v) = (base - v) - margin never increases with v, so
# each quantifier over slacks is f of the mirrored one over values, ties
# included: min_u max_uh f(v) = f(max_u min_uh v), and the other way round.
_OVER_VALUES = {decrease_forall_exists: (max, min), decrease_exists_forall: (min, max)}

# No value or margin past this bound can make (base - v) - margin overflow.
_SAFE = 2.0 ** 1021


def _bounded(values: list[float]) -> bool:
    """Every value is finite and within the bound (a NaN makes the sum NaN)."""
    return not math.isnan(sum(values)) and -_SAFE <= min(values) and max(values) <= _SAFE


def _pick(pick: Callable, lists: list[list[float]]) -> list[float]:
    """pick(lists[0][j], lists[1][j], ...) for each j; the first of equal
    values wins, as in pick over one list."""
    return list(map(pick, *lists)) if len(lists) > 1 else lists[0]


def _decrease(
    candidate: Evaluator,
    cs: DtControlSystem,
    resolution: float,
    points: list[tuple[float, ...]],
    region: list[int],
    quantify: Callable[[list[list[float]]], float],
    margin: float,
) -> Iterator[Sample]:
    """At each pair of the region's rows, quantify (rows u, columns u_hat)
    the decrease slack B(x, xh) - B(f(x, u), f(xh, u_hat)) - margin. The
    successors f(x, u) come from a table over the points and grid inputs,
    built once per check. The candidate is tabulated once per nonempty
    row. A value that is not finite raises, or makes the slack NaN where
    the quantifier's min and max would hide it.
    """
    inputs = grid(cs.input_box, resolution)
    succ = {x: [cs.step(x, u) for u in inputs] for x in points}
    for x, images in succ.items():
        for u, image in zip(inputs, images):
            if not all(map(math.isfinite, image)):
                raise DomainError(f"decrease: successor {image} under input {u} "
                                  f"is not finite at {x}", state=x, inp=u)
    outer, inner = _OVER_VALUES[quantify]
    n = len(inputs)

    def slacks() -> Iterator[Sample]:
        for x, row in zip(points, region):
            if not row:
                continue
            partners = [points[j] for j in iter_bits(row)]
            # row u, columns j*n .. j*n + n - 1: B(f(x, u), f(partners[j], .))
            values = tabulate(candidate, succ[x], [nxh for xh in partners for nxh in succ[xh]])
            bases = tabulate(candidate, [x], partners)[0]
            if margin <= _SAFE and _bounded(bases) and all(map(_bounded, values)):
                picked = _pick(outer, [_pick(inner, [vs[s::n] for s in range(n)])
                                       for vs in values])
                for xh, base, v in zip(partners, bases, picked):
                    yield x + xh, base - v - margin
                continue
            for j, (xh, base) in enumerate(zip(partners, bases)):
                slack = [[base - v - margin for v in vs[j * n:j * n + n]] for vs in values]
                finite = all(map(math.isfinite, chain(*slack)))
                yield x + xh, quantify(slack) if finite else math.nan

    return slacks()


def check_opacity_barrier(
    candidate: Evaluator,
    cs: DtControlSystem,
    delta: float,
    resolution: float,
    margin: float = DEFAULT_MARGIN,
) -> CheckReport:
    """Check a safety-style certificate candidate on grid samples.

    Conditions: B <= 0 on the augmented initial region, B > 0 on the
    output-distinguishable region, and on every augmented sample, for every
    grid input u there exists a grid input u_hat keeping B from increasing.
    """
    check_threshold("margin", margin)
    regions = build_regions(cs, delta, resolution)
    points = regions.points
    full = (1 << len(points)) - 1
    return _scan((
        ("initial", ((p, -v) for p, v in _values(candidate, points, regions.r0)),
         _negative),
        ("unsafe", _values(candidate, points, [full & ~row for row in regions.close]),
         _above(margin)),
        ("decrease", _decrease(candidate, cs, resolution, points, [full] * len(points),
                               decrease_forall_exists, 0.0), _negative),
    ))


def _ring(points: list[tuple[float, ...]]) -> int:
    """Bitset of the points on the outermost lattice ring of the box: those
    with any extreme coordinate."""
    lows = [min(column) for column in zip(*points)]
    highs = [max(column) for column in zip(*points)]
    return sum(1 << i for i, p in enumerate(points)
               if any(v == lo or v == hi for v, lo, hi in zip(p, lows, highs)))


def check_lack_barrier(
    candidate: Evaluator,
    cs: DtControlSystem,
    delta: float,
    resolution: float,
    margin: float = DEFAULT_MARGIN,
) -> CheckReport:
    """Check a reachability-style certificate candidate on grid samples.

    Conditions: V <= 0 on the augmented initial region; V > 0 on the
    outermost grid ring of the box minus the unsafe region (the discrete
    stand-in for the domain boundary away from the unsafe set); and on every
    sample of the closure of R minus R_u there EXISTS a grid input u such
    that FOR ALL grid inputs u_hat the candidate strictly decreases (by more
    than the strictness margin).
    """
    check_threshold("margin", margin)
    regions = build_regions(cs, delta, resolution)
    points = regions.points
    full, ring = (1 << len(points)) - 1, _ring(points)
    # a pair is on the ring of X*X when x or xh is on the ring of X
    boundary = [(full if ring >> i & 1 else ring) & row
                for i, row in enumerate(regions.close)]
    return _scan((
        ("initial", ((p, -v) for p, v in _values(candidate, points, regions.r0)),
         _negative),
        ("boundary", _values(candidate, points, boundary), _above(margin)),
        ("decrease", _decrease(candidate, cs, resolution, points, regions.close,
                               decrease_exists_forall, margin), _negative),
    ))

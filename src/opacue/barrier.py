"""Grid-sampled validation of candidate barrier certificates.

Two checkers over the augmented system (a control system paired with
itself): a safety-style certificate whose conditions imply opacity, and a
reachability-style certificate whose conditions imply the lack of it. Both
evaluate candidates on lattice samples, so "falsified" verdicts are
decisive (each carries a concrete witness point) while "sample-passed"
verdicts are explicitly non-conclusive: sampling is not a proof.

Each check tabulates the candidate once over every pair of lattice points.
Its conditions read their blocks off that table with `table_blocks`, as
`compose` does over its own pair grid; the decrease condition takes its
bases B(x, x_hat) from there too.

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

from .boxes import BoxUnion, Lattice, check_initial_spans, check_span
from .control import DtControlSystem
from .errors import DomainError
from .polynomial import tabulate
from .system import DEFAULT_MARGIN, bits_of, check_delta, check_threshold, close_rows, iter_bits

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

# One block of a condition's samples, (head, tails, slacks): sample j is
# the point head + tails[j] with the slack slacks[j].
Block = tuple[tuple[float, ...], Sequence[tuple[float, ...]], list[float]]


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
    genuinely belongs to its region. Closeness is pair for pair equal to
    `delta_close` over the sampled outputs.
    """
    check_delta(delta)
    check_span("resolution", resolution, cs.state_box.span, "state box")
    check_span("resolution", resolution, cs.input_box.span, "input box")
    check_initial_spans("resolution", resolution, cs.initial_region, cs.secret_region,
                        "region")
    lattice = Lattice(cs.state_box, resolution)
    lattice.check_pairs("state lattice")
    Lattice(cs.input_box, resolution).check_pairs("input lattice")  # the decrease's u, u_hat
    return pair_regions(lattice, cs.outputs(lattice.points()), cs.initial_region,
                        cs.secret_region, delta)


def pair_regions(lattice: Lattice, outputs: Sequence[Sequence[float]], initial: BoxUnion,
                 secret: BoxUnion, delta: float) -> AugmentedRegions:
    """The augmented regions of the lattice's points, whose outputs are
    `outputs`, for the given initial and secret sets; closeness is one
    `close_rows` table."""
    close = close_rows(outputs, outputs, delta)
    in_initial = bits_of(lattice.members(initial))
    in_secret = bits_of(lattice.members(secret))
    r0 = [row & in_initial & ~in_secret if (in_initial & in_secret) >> i & 1 else 0
          for i, row in enumerate(close)]
    return AugmentedRegions(points=lattice.points(), r0=r0, close=close)


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
    """Min over rows of max over columns: >= 0 iff for every row (the
    adversarial input u) some column (the matching input u_hat) has slack >= 0."""
    return min(max(row) for row in slack)


def decrease_exists_forall(slack: list[list[float]]) -> float:
    """Max over rows of min over columns: >= 0 iff some row has every
    column with slack >= 0."""
    return max(min(row) for row in slack)


class Scan:
    """The violated samples (point, slack) of one condition's blocks, in
    order: each slack below `floor`, or equal to it when `strict`. A point
    is built only for a violation or an error: a block of finite, passing
    slacks is only counted. `worst` (the first of the smallest slacks) and
    `count` cover the samples drawn up to the last one yielded, or all of
    them once the scan ends. A slack that is not finite raises: NaN would
    pass every comparison."""

    def __init__(self, name: str, blocks: Iterable[Block], floor: float, strict: bool):
        self.name, self.blocks, self.floor, self.strict = name, blocks, floor, strict
        self.worst: Optional[float] = None
        self.count = 0

    def __iter__(self) -> Iterator[tuple[tuple[float, ...], float]]:
        floor, strict, inf, count = self.floor, self.strict, math.inf, 0
        worst = inf  # stands for None until a sample is counted
        for head, tails, slacks in self.blocks:
            total, low = sum(slacks), min(slacks, default=inf)
            # a finite sum means finite slacks; one that overflows costs only a walk
            if total - total == 0.0 and (low > floor or low == floor and not strict):
                count, worst = count + len(slacks), min(worst, low)
                continue
            for tail, slack in zip(tails, slacks):
                if not -inf < slack < inf:
                    raise DomainError(f"{self.name}: slack {slack} is not finite at "
                                      f"{head + tail}")
                count += 1
                if slack < worst:
                    worst = slack
                if slack < floor or strict and slack == floor:
                    self.worst, self.count = worst, count
                    yield head + tail, slack
        self.worst, self.count = (worst if count else None), count


def _scan(conditions: Sequence[tuple[str, Iterable[Block], float, bool]]) -> CheckReport:
    """Scan every sample of every (name, blocks, floor, strict) condition,
    in order, so the report counts every violation. A strict condition
    ("B > floor") reports B itself, any other ("slack >= 0") its shortfall
    -slack."""
    scans = [Scan(*condition) for condition in conditions]
    violations = tuple(Violation(scan.name, point, slack if scan.strict else -slack)
                       for scan in scans for point, slack in scan)
    return CheckReport(
        status="falsified" if violations else "sample-passed",
        violations=violations,
        min_margin={scan.name: scan.worst for scan in scans},
        sample_counts={scan.name: scan.count for scan in scans},
        conclusive=bool(violations),
    )


def table_blocks(points: list[tuple[float, ...]], table: list[list[float]],
                 rows: list[int]) -> Iterator[Block]:
    """B(x, xh) at each pair of the rows, read off `table`, the values of B
    over points x points, in order: one block per nonempty row."""
    for x, row, values in zip(points, rows, table):
        if row:
            partners = list(iter_bits(row))
            yield x, [points[j] for j in partners], [values[j] for j in partners]


# The decrease slack f(v) = (base - v) - margin never increases with v, so
# each quantifier over slacks is f of the mirrored one over values, ties
# included: min_u max_uh f(v) = f(max_u min_uh v), and the other way round.
_OVER_VALUES = {decrease_forall_exists: (max, min), decrease_exists_forall: (min, max)}

# No value or margin past this bound can make (base - v) - margin overflow.
# A block whose absolute values sum to at most it has each value within it;
# a NaN or an infinity fails the sum's comparison.
_SAFE = 2.0 ** 1021


def _pick(pick: Callable, lists: list[list[float]]) -> list[float]:
    """pick(lists[0][j], lists[1][j], ...) for each j; the first of equal
    values wins, as in pick over one list."""
    return list(map(pick, *lists)) if len(lists) > 1 else lists[0]


def _decrease(candidate: Evaluator, cs: DtControlSystem, resolution: float,
              points: list[tuple[float, ...]], table: list[list[float]],
              region: list[int], quantify: Callable[[list[list[float]]], float],
              margin: float) -> Iterator[Block]:
    """At each pair of the region's rows, quantify (rows u, columns u_hat)
    the decrease slack B(x, xh) - B(f(x, u), f(xh, u_hat)) - margin. The
    bases B(x, xh) are the blocks `table_blocks` reads off `table`. The
    successors f(x, u) over the points and grid inputs come from one
    `images` call per check. The candidate is tabulated at the successors
    once per nonempty row, and each row is one block. A value that is not
    finite raises, or makes the slack NaN where the quantifier's min and
    max would hide it.
    """
    inputs = Lattice(cs.input_box, resolution).points()
    n = len(inputs)
    images = cs.images(points, inputs)
    succ = {x: images[i * n:i * n + n] for i, x in enumerate(points)}
    outer, inner = _OVER_VALUES[quantify]

    def blocks() -> Iterator[Block]:
        for x, partners, bases in table_blocks(points, table, region):
            # row u, columns j*n .. j*n + n - 1: B(f(x, u), f(partners[j], .))
            values = tabulate(candidate, succ[x], [nxh for xh in partners for nxh in succ[xh]])
            if margin <= _SAFE and sum(map(abs, chain(bases, *values))) <= _SAFE:
                picked = _pick(outer, [_pick(inner, [vs[s::n] for s in range(n)])
                                       for vs in values])
                yield x, partners, [base - v - margin for base, v in zip(bases, picked)]
                continue
            tables = ([[base - v - margin for v in vs[j * n:j * n + n]] for vs in values]
                      for j, base in enumerate(bases))
            yield x, partners, [quantify(t) if all(map(math.isfinite, chain(*t))) else math.nan
                                for t in tables]

    return blocks()


def check_opacity_barrier(candidate: Evaluator, cs: DtControlSystem, delta: float,
                          resolution: float, margin: float = DEFAULT_MARGIN) -> CheckReport:
    """Check a safety-style certificate candidate on grid samples.

    Conditions: B <= 0 on the augmented initial region, B > 0 on the
    output-distinguishable region, and on every augmented sample, for every
    grid input u there exists a grid input u_hat keeping B from increasing.
    """
    check_threshold("margin", margin)
    regions = build_regions(cs, delta, resolution)
    points = regions.points
    table = tabulate(candidate, points, points)  # B once per (x, xh) pair
    full = (1 << len(points)) - 1
    return _scan((
        ("initial", ((x, xhs, [-v for v in vs])
                     for x, xhs, vs in table_blocks(points, table, regions.r0)), 0.0, False),
        ("unsafe", table_blocks(points, table, [full & ~row for row in regions.close]),
         margin, True),
        ("decrease", _decrease(candidate, cs, resolution, points, table,
                               [full] * len(points), decrease_forall_exists, 0.0),
         0.0, False),
    ))


def _ring(points: list[tuple[float, ...]]) -> int:
    """Bitset of the points on the outermost lattice ring of the box: those
    with any extreme coordinate."""
    lows = [min(column) for column in zip(*points)]
    highs = [max(column) for column in zip(*points)]
    return sum(1 << i for i, p in enumerate(points)
               if any(v == lo or v == hi for v, lo, hi in zip(p, lows, highs)))


def check_lack_barrier(candidate: Evaluator, cs: DtControlSystem, delta: float,
                       resolution: float, margin: float = DEFAULT_MARGIN) -> CheckReport:
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
    table = tabulate(candidate, points, points)  # B once per (x, xh) pair
    full, ring = (1 << len(points)) - 1, _ring(points)
    # a pair is on the ring of X*X when x or xh is on the ring of X
    boundary = [(full if ring >> i & 1 else ring) & row
                for i, row in enumerate(regions.close)]
    return _scan((
        ("initial", ((x, xhs, [-v for v in vs])
                     for x, xhs, vs in table_blocks(points, table, regions.r0)), 0.0, False),
        ("boundary", table_blocks(points, table, boundary), margin, True),
        ("decrease", _decrease(candidate, cs, resolution, points, table, regions.close,
                               decrease_exists_forall, margin), 0.0, False),
    ))

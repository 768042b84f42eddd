"""Grid-sampled validation of candidate barrier certificates.

Two checkers over the augmented system (a control system paired with
itself): a safety-style certificate whose conditions imply opacity, and a
reachability-style certificate whose conditions imply the lack of it. Both
evaluate candidates on lattice samples, so "falsified" verdicts are
decisive (each carries a concrete witness point) while "sample-passed"
verdicts are explicitly non-conclusive: sampling is not a proof.

The two theorems quantify their input choices in opposite orders (for every
adversarial input there is a matching one, versus there is an input beating
every matching one); the two orders are kept as distinct code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .boxes import check_span, grid
from .control import DtControlSystem
from .errors import DomainError
from .polynomial import tabulate
from .system import check_delta, check_threshold, close_rows

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

DEFAULT_MARGIN = 1e-9

Pair = tuple[tuple[float, ...], tuple[float, ...]]
# One sampled condition instance: the augmented point and its slack.
Sample = tuple[tuple[float, ...], float]
# The value a violated sample reports, given its slack; None if not violated.
Rule = Callable[[float], Optional[float]]


@dataclass(frozen=True)
class AugmentedRegions:
    """Lattice samples of the augmented regions at one resolution.

    Every r0 member satisfies x in X0 and secret, x_hat in X0 minus secret,
    outputs delta-close; every ru member has outputs more than delta apart;
    r is the full product grid.
    """

    r0: tuple[Pair, ...]
    ru: tuple[Pair, ...]
    r: tuple[Pair, ...]


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
    initial = [i for i, p in enumerate(points) if cs.initial_region.contains(p)]
    secret_init = [i for i in initial if cs.secret_region.contains(points[i])]
    nonsecret_init = [i for i in initial if not cs.secret_region.contains(points[i])]
    r0 = tuple((points[i], points[j]) for i in secret_init for j in nonsecret_init
               if close[i] >> j & 1)
    ru = tuple((x, xh) for x, row in zip(points, close)
               for j, xh in enumerate(points) if not row >> j & 1)
    r = tuple((x, xh) for x in points for xh in points)
    return AugmentedRegions(r0=r0, ru=ru, r=r)


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


def _values(candidate: Evaluator, pairs: Iterable[Pair]) -> Iterator[Sample]:
    """(x + xh, B(x, xh)) at each pair, in order: one table row per run of
    pairs that share x."""
    for x, run in groupby(pairs, key=itemgetter(0)):
        partners = [xh for _, xh in run]
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
    pairs: Iterable[Pair],
    quantify: Callable[[list[list[float]]], float],
    margin: float,
) -> Iterator[Sample]:
    """At each pair, quantify (rows u, columns u_hat) the decrease slack
    B(x, xh) - B(f(x, u), f(xh, u_hat)) - margin. The successors f(x, u)
    come from a table over grid points and inputs, built once per check.
    The candidate is tabulated once per run of pairs that share x. A value
    that is not finite raises, or makes the slack NaN where the
    quantifier's min and max would hide it.
    """
    inputs = grid(cs.input_box, resolution)
    succ = {x: [cs.step(x, u) for u in inputs] for x in grid(cs.state_box, resolution)}
    for x, images in succ.items():
        for u, image in zip(inputs, images):
            if not all(map(math.isfinite, image)):
                raise DomainError(f"decrease: successor {image} under input {u} "
                                  f"is not finite at {x}", state=x, inp=u)
    outer, inner = _OVER_VALUES[quantify]
    n = len(inputs)

    def slacks() -> Iterator[Sample]:
        for x, run in groupby(pairs, key=itemgetter(0)):
            partners = [xh for _, xh in run]
            # row u, columns j*n .. j*n + n - 1: B(f(x, u), f(partners[j], .))
            values = tabulate(candidate, succ[x], [nxh for xh in partners for nxh in succ[xh]])
            bases = tabulate(candidate, [x], partners)[0]
            if margin <= _SAFE and _bounded(bases) and all(map(_bounded, values)):
                picked = _pick(outer, [_pick(inner, [row[s::n] for s in range(n)])
                                       for row in values])
                for xh, base, v in zip(partners, bases, picked):
                    yield x + xh, base - v - margin
                continue
            for j, (xh, base) in enumerate(zip(partners, bases)):
                rows = [[base - v - margin for v in row[j * n:j * n + n]] for row in values]
                finite = all(map(math.isfinite, chain(*rows)))
                yield x + xh, quantify(rows) if finite else math.nan

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
    return _scan((
        ("initial", ((p, -v) for p, v in _values(candidate, regions.r0)), _negative),
        ("unsafe", _values(candidate, regions.ru), _above(margin)),
        ("decrease", _decrease(candidate, cs, resolution, regions.r,
                               decrease_forall_exists, 0.0), _negative),
    ))


def _boundary_ring(points: list[tuple[float, ...]]) -> list[Pair]:
    """Outermost lattice ring of the box X*X: pairs with any extreme coordinate."""
    if not points:
        return []
    dim = len(points[0])
    lows = [min(p[d] for p in points) for d in range(dim)]
    highs = [max(p[d] for p in points) for d in range(dim)]

    def on_face(p: tuple[float, ...]) -> bool:
        return any(p[d] == lows[d] or p[d] == highs[d] for d in range(dim))

    return [
        (x, xh) for x in points for xh in points if on_face(x) or on_face(xh)
    ]


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
    unsafe = set(regions.ru)
    boundary = [p for p in _boundary_ring(grid(cs.state_box, resolution))
                if p not in unsafe]
    return _scan((
        ("initial", ((p, -v) for p, v in _values(candidate, regions.r0)), _negative),
        ("boundary", _values(candidate, boundary), _above(margin)),
        ("decrease", _decrease(candidate, cs, resolution,
                               [p for p in regions.r if p not in unsafe],
                               decrease_exists_forall, margin), _negative),
    ))

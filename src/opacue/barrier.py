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
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .boxes import grid
from .control import DtControlSystem
from .errors import DomainError, QuantizationError
from .system import check_delta, check_threshold

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
# (x followed by x_hat). Polynomial instances satisfy this protocol.
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
    resolution: float


def _region_spans(cs: DtControlSystem) -> list[tuple[str, float]]:
    init_secret = cs.initial_region.intersect(cs.secret_region)
    init_nonsecret = cs.initial_region.subtract(cs.secret_region)
    return [
        ("state box", cs.state_box.span),
        ("input box", cs.input_box.span),
        ("initial-and-secret region", init_secret.span),
        ("initial-minus-secret region", init_nonsecret.span),
    ]


def build_regions(
    cs: DtControlSystem, delta: float, resolution: float
) -> AugmentedRegions:
    """Sample the augmented initial/unsafe/full regions on a lattice.

    Points are drawn from the resolution-lattice of the state box and kept
    by exact membership in each region predicate, so any reported witness
    genuinely belongs to its region.
    """
    check_delta(delta)
    for label, span in _region_spans(cs):
        if resolution > span:
            raise QuantizationError(
                f"resolution {resolution} exceeds the span {span} of the {label}"
            )
    points = grid(cs.state_box, resolution)
    outputs = {p: cs.observe(p) for p in points}
    for p, y in outputs.items():
        if not all(map(math.isfinite, y)):
            raise DomainError(f"regions: output {y} is not finite at {p}", state=p)

    def gap(a: tuple[float, ...], b: tuple[float, ...]) -> float:
        return max(abs(i - j) for i, j in zip(outputs[a], outputs[b]))

    secret_init = [
        p for p in points
        if cs.initial_region.contains(p) and cs.secret_region.contains(p)
    ]
    nonsecret_init = [
        p for p in points
        if cs.initial_region.contains(p) and not cs.secret_region.contains(p)
    ]
    r0 = tuple(
        (x, xh) for x in secret_init for xh in nonsecret_init if gap(x, xh) <= delta
    )
    ru = tuple((x, xh) for x in points for xh in points if gap(x, xh) > delta)
    r = tuple((x, xh) for x in points for xh in points)
    return AugmentedRegions(r0=r0, ru=ru, r=r, resolution=resolution)


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
    A value that is not finite raises, or makes the slack NaN where the
    quantifier's min and max would hide it.
    """
    inputs = grid(cs.input_box, resolution)
    succ = {x: [cs.step(x, u) for u in inputs] for x in grid(cs.state_box, resolution)}
    for x, images in succ.items():
        for u, image in zip(inputs, images):
            if not all(map(math.isfinite, image)):
                raise DomainError(f"decrease: successor {image} under input {u} "
                                  f"is not finite at {x}", state=x, inp=u)

    def slack(x: tuple[float, ...], xh: tuple[float, ...]) -> float:
        base = candidate(x + xh)
        rows = [[base - candidate(nx + nxh) - margin for nxh in succ[xh]] for nx in succ[x]]
        return quantify(rows) if all(map(math.isfinite, chain(*rows))) else math.nan

    return ((x + xh, slack(x, xh)) for x, xh in pairs)


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
        ("initial", ((x + xh, -candidate(x + xh)) for x, xh in regions.r0), _negative),
        ("unsafe", ((x + xh, candidate(x + xh)) for x, xh in regions.ru),
         _above(margin)),
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

    def close(x, xh) -> bool:
        return max(abs(i - j) for i, j in zip(cs.observe(x), cs.observe(xh))) <= delta

    boundary = [p for p in _boundary_ring(grid(cs.state_box, resolution)) if close(*p)]
    return _scan((
        ("initial", ((x + xh, -candidate(x + xh)) for x, xh in regions.r0), _negative),
        ("boundary", ((x + xh, candidate(x + xh)) for x, xh in boundary),
         _above(margin)),
        ("decrease", _decrease(candidate, cs, resolution,
                               [p for p in regions.r if close(*p)],
                               decrease_exists_forall, margin), _negative),
    ))

"""Small-gain composition for two feedback-interconnected scalar subsystems.

Each subsystem is x_i+ = a_i*x_i + b_i*x_j with |a_i| < 1, the identity
output map, and interval state/initial/secret sets. The gain of a subsystem
is |b_i / (1 - a_i)|; when the product of the two gains is below one, local
simulation functions and local barrier certificates compose by pointwise
maximum into certificates for the interconnection.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from .boxes import Box, BoxUnion, check_span, grid_interval
from .control import DtControlSystem, IssCertificate
from .errors import DomainError, SmallGainError, ValidationError
from .polynomial import tabulate
from .system import check_delta, check_threshold

__all__ = [
    "Interval",
    "LinearSubsystem",
    "GainReport",
    "small_gain",
    "compose_simulation",
    "compose_barriers",
    "interconnect",
    "SimFunctionCheck",
    "SimCompositionReport",
    "BarrierConditionCheck",
    "BarrierCompositionReport",
]

# Local simulation function V_i(x_i, xhat_i) and local barrier B_i(x_i, xhat_i).
PairFn = Callable[[float, float], float]
# One sampled condition instance: its witness point and its slack, where a
# slack of None means the sample has no partner to match it.
Sample = tuple[tuple[float, ...], Optional[float]]


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


def _require_small_gain(sub1: LinearSubsystem, sub2: LinearSubsystem) -> GainReport:
    report = small_gain(sub1, sub2)
    if not report.small_gain_ok:
        raise SmallGainError(
            f"small-gain condition failed: gamma1*gamma2 = {report.product} >= 1"
        )
    return report


def interconnect(sub1: LinearSubsystem, sub2: LinearSubsystem,
                 cert: Optional[IssCertificate] = None) -> DtControlSystem:
    """The 2-D feedback interconnection as a control system (no external input).

    The input box is a zero-effect placeholder so the interconnected system
    can flow through the box-domain tooling, whose quantifiers then range
    over inputs that do not influence the dynamics. Without `cert`, lambda
    is |A|_inf, which must be below 1.
    """
    if cert is None:
        lam = max(abs(sub1.a) + abs(sub1.b), abs(sub2.a) + abs(sub2.b))
        if lam >= 1:
            raise ValidationError(
                f"|A|_inf = {lam} >= 1: pass a certificate for this interconnection")
        cert = IssCertificate(c=1.0, lam=lam, g=0.0, a=1.0)
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


@dataclass(frozen=True)
class SimFunctionCheck:
    condition: str
    passed: bool
    min_margin: Optional[float]
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class SimCompositionReport:
    gains: GainReport
    local_checks: tuple[tuple[SimFunctionCheck, ...], tuple[SimFunctionCheck, ...]]
    interconnected_checks: tuple[SimFunctionCheck, ...]
    composed: Callable[[Sequence[float], Sequence[float]], float]

    @property
    def all_passed(self) -> bool:
        return all(
            c.passed
            for group in (*self.local_checks, self.interconnected_checks)
            for c in group
        )


def _lattice(iv: Interval, step: float) -> list[float]:
    return grid_interval(iv.lo, iv.hi, step)


def _check_spans(subs: Sequence[LinearSubsystem], resolution: float,
                 eta: Sequence[float] = ()) -> None:
    """The resolution against each subsystem's state interval, and each
    eta, when given, against its own subsystem's."""
    for idx, sub in enumerate(subs, 1):
        span, of = sub.state.hi - sub.state.lo, f"state interval of subsystem {idx}"
        check_span("resolution", resolution, span, of)
        if eta:
            check_span(f"eta{idx}", eta[idx - 1], span, of)


def _scan(name: str, samples: Iterable[Sample]) -> tuple[bool, Optional[float], Optional[tuple]]:
    """(passed, smallest slack, witness) of one sampled condition.

    Stops at the first sample with a negative slack or without a partner;
    the witness is the worst sample seen, or the partnerless one. A slack
    that is not finite raises: NaN would pass every comparison.
    """
    worst = witness = None
    inf = math.inf  # a local name: this test runs once per sample
    for point, slack in samples:
        if slack is None:
            return False, worst, point
        if not -inf < slack < inf:
            raise DomainError(f"{name}: slack {slack} is not finite at {point}")
        if worst is None or slack < worst:
            worst, witness = slack, point
        if slack < 0:
            return False, worst, witness
    return True, worst, None


def _slack(eps: float, values: list[float], pick: Callable = min) -> Optional[float]:
    """eps - pick(values): the slack of "some value is within eps" (min) or of
    "every value is" (max); None when there is no value to match, and NaN
    when a value is not finite, which `pick` could hide."""
    if not values:
        return None
    return eps - pick(values) if all(map(math.isfinite, values)) else math.nan


def _sim_conditions(
    sub: LinearSubsystem,
    partner: LinearSubsystem,
    v: PairFn,
    eps: float,
    theta: float,
    eta: float,
    eta_partner: float,
    resolution: float,
) -> tuple[SimFunctionCheck, ...]:
    """Sample the local simulation-function conditions for one subsystem."""
    xs = _lattice(sub.state, resolution)
    abstract = _lattice(sub.state, eta)
    abstract_secret = [p for p in abstract if sub.secret.contains(p)]
    abstract_nonsecret = [p for p in abstract if not sub.secret.contains(p)]
    initial = [x for x in xs if sub.initial.contains(x)]
    secret_init = [x for x in initial if sub.secret.contains(x)]
    nonsecret_init = [x for x in initial if not sub.secret.contains(x)]
    ws = _lattice(partner.state, resolution)
    w_abstract = _lattice(partner.state, eta_partner)

    def step_matching() -> Iterable[Sample]:
        # From every eps-related pair, for all theta-close internal inputs:
        # 3a: some abstract successor tracks the concrete step; 3b: the
        # concrete step tracks every abstract successor (the concrete side
        # is deterministic). 3b implies 3a, so the slack is that of 3b.
        for x in xs:
            for xh in abstract:
                if v(x, xh) > eps:
                    continue
                for w in ws:
                    for wh in w_abstract:
                        if abs(w - wh) > theta:
                            continue
                        x_next, image = sub.step(x, w), sub.step(xh, wh)
                        yield (x, xh, w, wh), _slack(eps, [
                            v(x_next, p) for p in abstract if abs(p - image) <= eta
                        ], max)

    conditions = (
        # 1a: every secret initial sample is eps-tracked by an abstract secret state.
        ("1a", (((x0,), _slack(eps, [v(x0, xh) for xh in abstract_secret]))
                for x0 in secret_init)),
        # 1b: every abstract non-secret state (all abstract states are initial)
        # is eps-tracked by a non-secret initial sample.
        ("1b", (((xh,), _slack(eps, [v(x0, xh) for x0 in nonsecret_init]))
                for xh in abstract_nonsecret)),
        # 2: V dominates the tracking distance everywhere.
        ("2", (((x, xh), v(x, xh) - abs(x - xh)) for x in xs for xh in abstract)),
        ("3", step_matching()),
    )
    return tuple(SimFunctionCheck(name, *_scan(name, samples))
                 for name, samples in conditions)


def compose_simulation(
    sub1: LinearSubsystem,
    sub2: LinearSubsystem,
    v1: PairFn,
    v2: PairFn,
    eps: tuple[float, float],
    theta: tuple[float, float],
    eta: tuple[float, float],
    resolution: float,
) -> SimCompositionReport:
    """Compose local simulation functions by pointwise maximum.

    Requires the small-gain condition (SmallGainError otherwise). Samples
    the local conditions for each subsystem with its interface bounds
    (eps_i, theta_i), then samples the interconnected step-matching
    condition for the composed function on the product grid.
    """
    for name, value in zip(("eps1", "eps2", "theta1", "theta2"), (*eps, *theta)):
        check_threshold(name, value)
    _check_spans((sub1, sub2), resolution, eta)
    gains = _require_small_gain(sub1, sub2)

    local1 = _sim_conditions(sub1, sub2, v1, eps[0], theta[0], eta[0], eta[1], resolution)
    local2 = _sim_conditions(sub2, sub1, v2, eps[1], theta[1], eta[1], eta[0], resolution)

    def composed(x: Sequence[float], xh: Sequence[float]) -> float:
        return max(v1(x[0], xh[0]), v2(x[1], xh[1]))

    eps_all = max(eps)
    xs1, xs2 = _lattice(sub1.state, resolution), _lattice(sub2.state, resolution)
    ab1, ab2 = _lattice(sub1.state, eta[0]), _lattice(sub2.state, eta[1])

    def step_matching() -> Iterable[Sample]:
        for x1 in xs1:
            for x2 in xs2:
                for xh1 in ab1:
                    for xh2 in ab2:
                        if composed((x1, x2), (xh1, xh2)) > eps_all:
                            continue
                        n1, n2 = sub1.step(x1, x2), sub2.step(x2, x1)
                        img1, img2 = sub1.step(xh1, xh2), sub2.step(xh2, xh1)
                        succ1 = [p for p in ab1 if abs(p - img1) <= eta[0]]
                        succ2 = [p for p in ab2 if abs(p - img2) <= eta[1]]
                        yield (x1, x2, xh1, xh2), _slack(eps_all, [
                            composed((n1, n2), (p1, p2)) for p1 in succ1 for p2 in succ2
                        ], max)

    return SimCompositionReport(
        gains=gains,
        local_checks=(local1, local2),
        interconnected_checks=(
            SimFunctionCheck("3-interconnected", *_scan("3-interconnected", step_matching())),
        ),
        composed=composed,
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
    xs = _lattice(sub.state, resolution)
    ws = _lattice(partner.state, resolution)
    pairs = [(x, xh) for x in xs for xh in xs]
    # B over the pair grid, in the order of `pairs`
    values = list(chain(*tabulate(b, [(x,) for x in xs], [(xh,) for xh in xs])))

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
                and sub.initial.contains(xh) and not sub.secret.contains(xh)
                and abs(x - xh) <= delta)

    conditions = (
        # Lower bound by the augmented norm on the whole region.
        ("norm-lower-bound", ((p, v - norm(*p)) for p, v in zip(pairs, values))),
        # Nonpositive on the local augmented initial region.
        ("initial", ((p, -v) for p, v in zip(pairs, values) if initial(*p))),
        # Positive on the local output-distinguishable region.
        ("unsafe", ((p, v - margin) for p, v in zip(pairs, values)
                    if abs(p[0] - p[1]) > delta)),
        # Gain-style decrease against the partner's augmented norm.
        ("decrease", decrease()),
    )
    return [BarrierConditionCheck(idx, name, *_scan(f"subsystem {idx} {name}", samples))
            for name, samples in conditions]


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
    _check_spans((sub1, sub2), resolution)
    gains = _require_small_gain(sub1, sub2)
    checks = _barrier_conditions(1, sub1, sub2, b1, delta, resolution, margin)
    checks += _barrier_conditions(2, sub2, sub1, b2, delta, resolution, margin)

    def composed(point: Sequence[float]) -> float:
        x1, x2, xh1, xh2 = point
        return max(b1((x1, xh1)), b2((x2, xh2)))

    return BarrierCompositionReport(gains=gains, checks=tuple(checks), composed=composed)

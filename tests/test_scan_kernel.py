"""The one scan kernel of the sampled conditions, pinned to the two scans it
replaced.

`barrier.Scan` yields the violated samples of one condition and keeps the
smallest slack and the sample count. `barrier._scan` drains it for every
condition; `compose_barriers` takes only its first item. Below are frozen
copies of the two scans before the kernel existed: barrier's, with its
violation rules `_above` and `_negative`, which scans every sample, and
compose's, which stops at the first violated sample and names the worst
sample seen. On seeded streams (ties, signed zeros, the margin and one
ulp on either side of it, streams violated throughout, and NaN or an
infinity before or after the first violation) both sides must report
alike, draw as many samples, and raise the same error or none.
"""

import math
import random

import pytest

from opacue.barrier import CheckReport, Scan, Violation, _scan
from opacue.errors import DomainError


def _above(margin):
    return lambda value: value if value <= margin else None


def _negative(slack):
    return -slack if slack < 0 else None


def reference_barrier_scan(conditions):
    violations, margins, counts = [], {}, {}
    inf = math.inf
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


def reference_compose_scan(name, samples, strict):
    worst = witness = None
    inf = math.inf
    for point, slack in samples:
        if not -inf < slack < inf:
            raise DomainError(f"{name}: slack {slack} is not finite at {point}")
        if worst is None or slack < worst:
            worst, witness = slack, point
        if slack < 0 or strict and slack == 0:
            return False, worst, witness
    return True, worst, None


def compose_scan(name, samples, strict):
    """(passed, min_margin, witness) as `compose_barriers` reads them."""
    scan = Scan(name, samples, 0.0, strict)
    hit = next(iter(scan), None)
    return hit is None, scan.worst, hit and hit[0]


class Counted:
    """An iterator over `items` that counts the items drawn from it."""

    def __init__(self, items):
        self.items, self.drawn = iter(items), 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self.items)
        self.drawn += 1
        return item


MARGINS = (0.0, 1e-9, 0.5)
NON_FINITE = (math.nan, math.inf, -math.inf)


def slack_pool(margin):
    """Values around 0 and around the margin, each exact: ties come from
    drawing the same value twice."""
    return [margin, math.nextafter(margin, math.inf), math.nextafter(margin, -math.inf),
            0.0, -0.0, -margin, 5e-324, -5e-324, 1.0, -1.0, 2.5, -1e300]


def stream(rng, margin, violated):
    """Seeded (point, slack) samples; when `violated`, every slack is below
    both 0 and the margin. Now and then a non-finite slack is placed before
    or after the first sample that either rule counts as violated."""
    pool = slack_pool(margin)
    if violated:
        pool = [v for v in pool if v < min(0.0, margin)]
    slacks = [rng.choice(pool) if rng.random() < 0.8 else rng.uniform(-1.0, 1.0)
              for _ in range(rng.randint(0, 12))]
    if slacks and rng.random() < 0.3:
        first = next((i for i, v in enumerate(slacks) if v <= margin), len(slacks))
        at = rng.choice([rng.randint(0, first), rng.randint(first, len(slacks))])
        slacks.insert(at, rng.choice(NON_FINITE))
    return [((i, rng.random()), v) for i, v in enumerate(slacks)]


def outcome(run):
    """What `run()` reports: its value, or the type and message it raised."""
    try:
        return "value", run()
    except DomainError as exc:
        return "raised", str(exc)


def barrier_outcome(run):
    kind, report = outcome(run)
    if kind == "raised":
        return kind, report
    return (repr(report.violations), repr(report.min_margin), report.sample_counts,
            report.status, report.conclusive)


def test_barrier_scan_matches_the_frozen_scan_on_seeded_streams():
    rng = random.Random(20261019)
    raised = violated = 0
    for _ in range(3000):
        margin = rng.choice(MARGINS)
        conditions = []
        for c in range(rng.randint(1, 3)):
            strict = rng.random() < 0.5
            floor = margin if strict else 0.0
            samples = stream(rng, margin, rng.random() < 0.15)
            conditions.append((f"c{c}", samples, floor, strict))
        want = barrier_outcome(lambda: reference_barrier_scan(
            [(name, iter(samples), _above(floor) if strict else _negative)
             for name, samples, floor, strict in conditions]))
        got = barrier_outcome(lambda: _scan(
            [(name, iter(samples), floor, strict)
             for name, samples, floor, strict in conditions]))
        assert got == want, conditions
        raised += want[0] == "raised"
        violated += want[0] != "raised" and want[3] == "falsified"
    assert raised > 300 and violated > 1000


def test_compose_scan_matches_the_frozen_scan_on_seeded_streams():
    rng = random.Random(1019)
    raised = failed = 0
    for _ in range(3000):
        strict = rng.random() < 0.5
        samples = stream(rng, 0.0, rng.random() < 0.15)
        drawn = []
        results = []
        for scan in (reference_compose_scan, compose_scan):
            counted = Counted(samples)
            kind, value = outcome(lambda: scan("subsystem 1 unsafe", counted, strict))
            results.append((kind, repr(value)))
            drawn.append(counted.drawn)
        assert results[0] == results[1], samples
        assert drawn[0] == drawn[1], samples
        raised += results[0][0] == "raised"
        failed += results[0][0] == "value" and results[0][1].startswith("(False")
    assert raised > 300 and failed > 1000


@pytest.mark.parametrize("strict", [False, True])
def test_scan_counts_only_the_samples_it_drew(strict):
    samples = [((0,), 1.0), ((1,), 0.0), ((2,), -0.0), ((3,), -2.0), ((4,), -3.0)]
    scan = Scan("c", samples, 0.0, strict)
    hits = iter(scan)
    first = next(hits)
    assert first == (((1,), 0.0) if strict else ((3,), -2.0))
    assert (scan.worst, scan.count) == ((0.0, 2) if strict else (-2.0, 4))
    assert list(hits)[-1] == ((4,), -3.0)
    assert (scan.worst, scan.count) == (-3.0, 5)
    # of equal slacks the first is the smallest: +0.0 here, not -0.0
    ties = Scan("c", samples[1:3], -1.0, False)
    assert list(ties) == [] and repr(ties.worst) == "0.0" and ties.count == 2

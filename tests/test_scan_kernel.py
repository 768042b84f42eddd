"""The one scan kernel of the sampled conditions, pinned to the two scans it
replaced.

`barrier.Scan` reads the samples of one condition a block at a time: a
block (head, tails, slacks) holds the samples head + tails[j] with the
slacks slacks[j]. It yields the violated samples and keeps the smallest
slack and the sample count. `barrier._scan` drains it for every
condition; `compose_barriers` takes only its first item. Below are frozen
copies of the two per-sample scans before the kernel existed: barrier's,
with its violation rules `_above` and `_negative`, which scans every
sample, and compose's, which stops at the first violated sample and names
the worst sample seen. Seeded streams (ties, signed zeros, the margin and
one ulp on either side of it, slacks whose sum overflows, streams violated
throughout, and NaN or an infinity before or after the first violation)
are cut into blocks at seeded points, some empty and some of one sample.
The frozen scans read the same samples one at a time; both sides must
report alike, and raise the same error or none.
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


def compose_scan(scan):
    """(passed, min_margin, witness) as `compose_barriers` reads them."""
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
    drawing the same value twice. Two of +-1.7e308 overflow a sum."""
    return [margin, math.nextafter(margin, math.inf), math.nextafter(margin, -math.inf),
            0.0, -0.0, -margin, 5e-324, -5e-324, 1.0, -1.0, 2.5, -1e300, 1.7e308, -1.7e308]


def stream(rng, margin, violated):
    """Seeded slacks; when `violated`, every slack is below both 0 and the
    margin. Now and then a non-finite slack is placed before or after the
    first slack that either rule counts as violated."""
    pool = slack_pool(margin)
    if violated:
        pool = [v for v in pool if v < min(0.0, margin)]
    slacks = [rng.choice(pool) if rng.random() < 0.8 else rng.uniform(-1.0, 1.0)
              for _ in range(rng.randint(0, 12))]
    if slacks and rng.random() < 0.3:
        first = next((i for i, v in enumerate(slacks) if v <= margin), len(slacks))
        at = rng.choice([rng.randint(0, first), rng.randint(first, len(slacks))])
        slacks.insert(at, rng.choice(NON_FINITE))
    return slacks


def cut(rng, slacks):
    """The slacks as blocks, cut at seeded points: some blocks are empty,
    some hold one sample. Block k's head is (k,) and its tails (j, r)."""
    blocks, at = [], 0
    while at < len(slacks) or rng.random() < 0.2:
        size = rng.choice((0, 1, 1, 2, 3, 5, 8))
        chunk = slacks[at:at + size]
        at += len(chunk)
        blocks.append(((len(blocks),), [(j, rng.random()) for j in range(len(chunk))], chunk))
    return blocks


def samples_of(blocks):
    """The (point, slack) samples of `blocks`, one at a time."""
    return [(head + tail, slack) for head, tails, slacks in blocks
            for tail, slack in zip(tails, slacks)]


def stops(slack, floor, strict):
    """Whether a scan stops at `slack`: it is not finite, or violated."""
    return not -math.inf < slack < math.inf or slack < floor or strict and slack == floor


def straddles(blocks, stop):
    """Whether sample `stop` of the blocks has a sample before it in its block."""
    for _, _, slacks in blocks:
        if stop < len(slacks):
            return stop > 0
        stop -= len(slacks)
    return False


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


def barrier_pair(conditions):
    """(frozen, kernel) outcomes of barrier's full scan over (name, blocks,
    floor, strict) conditions."""
    want = barrier_outcome(lambda: reference_barrier_scan(
        [(name, iter(samples_of(blocks)), _above(floor) if strict else _negative)
         for name, blocks, floor, strict in conditions]))
    got = barrier_outcome(lambda: _scan(
        [(name, iter(blocks), floor, strict) for name, blocks, floor, strict in conditions]))
    return want, got


def compose_pair(blocks, strict):
    """(frozen, kernel) outcomes of compose's first-hit scan, the samples
    the frozen scan drew, the blocks the kernel drew, and the kernel."""
    counted = Counted(samples_of(blocks))
    want = outcome(lambda: reference_compose_scan("subsystem 1 unsafe", counted, strict))
    drawn = Counted(blocks)
    scan = Scan("subsystem 1 unsafe", drawn, 0.0, strict)
    got = outcome(lambda: compose_scan(scan))
    return (want[0], repr(want[1])), (got[0], repr(got[1])), counted.drawn, drawn.drawn, scan


def test_barrier_scan_matches_the_frozen_scan_on_seeded_streams():
    rng = random.Random(20261019)
    raised = violated = straddled = empty = single = 0
    for _ in range(3000):
        margin = rng.choice(MARGINS)
        conditions = []
        for c in range(rng.randint(1, 3)):
            strict = rng.random() < 0.5
            floor = margin if strict else 0.0
            blocks = cut(rng, stream(rng, margin, rng.random() < 0.15))
            conditions.append((f"c{c}", blocks, floor, strict))
            stop = next((i for i, (_, v) in enumerate(samples_of(blocks))
                         if stops(v, floor, strict)), None)
            straddled += stop is not None and straddles(blocks, stop)
            empty += sum(not slacks for _, _, slacks in blocks)
            single += sum(len(slacks) == 1 for _, _, slacks in blocks)
        want, got = barrier_pair(conditions)
        assert got == want, conditions
        raised += want[0] == "raised"
        violated += want[0] != "raised" and want[3] == "falsified"
    assert raised > 300 and violated > 1000
    assert straddled > 1000 and empty > 1000 and single > 1000


def test_compose_scan_matches_the_frozen_scan_on_seeded_streams():
    rng = random.Random(1019)
    raised = failed = straddled = 0
    for _ in range(3000):
        strict = rng.random() < 0.5
        blocks = cut(rng, stream(rng, 0.0, rng.random() < 0.15))
        want, got, drawn, blocks_drawn, scan = compose_pair(blocks, strict)
        assert got == want, blocks
        stopped = want[0] == "raised" or want[1].startswith("(False")
        if want[0] == "value":
            assert scan.count == drawn, blocks
        # no block after the one holding the stop is drawn
        sizes = [len(slacks) for _, _, slacks in blocks]
        holding = next(k for k in range(len(blocks)) if sum(sizes[:k + 1]) >= drawn) \
            if stopped else len(blocks) - 1
        assert blocks_drawn == holding + 1, blocks
        straddled += stopped and straddles(blocks, drawn - 1)
        raised += want[0] == "raised"
        failed += want[0] == "value" and want[1].startswith("(False")
    assert raised > 300 and failed > 1000 and straddled > 500


@pytest.mark.parametrize("strict", [False, True])
def test_scan_counts_only_the_samples_it_drew(strict):
    blocks = [((0,), [(0,)], [1.0]), ((1,), [(0,), (1,)], [0.0, -0.0]), ((2,), [], []),
              ((3,), [(0,), (1,)], [-2.0, -3.0])]
    scan = Scan("c", blocks, 0.0, strict)
    hits = iter(scan)
    first = next(hits)
    assert first == (((1, 0), 0.0) if strict else ((3, 0), -2.0))
    assert (scan.worst, scan.count) == ((0.0, 2) if strict else (-2.0, 4))
    assert list(hits)[-1] == ((3, 1), -3.0)
    assert (scan.worst, scan.count) == (-3.0, 5)
    # of equal slacks the first is the smallest: +0.0 here, not -0.0
    ties = Scan("c", blocks[1:3], -1.0, False)
    assert list(ties) == [] and repr(ties.worst) == "0.0" and ties.count == 2


def edge(slacks):
    """One block of the slacks, at the points (7, j)."""
    return [((7,), [(j,) for j in range(len(slacks))], slacks)]


@pytest.mark.parametrize("strict", [False, True])
def test_a_block_whose_sum_overflows_is_walked(strict):
    # finite slacks whose sum is inf: the block passes, or is violated
    for slacks, falsified in (([1e308, 1e308], False), ([1e308, 1e308, -1.0], True),
                              ([-1e308, -1e308], True)):
        want, got = barrier_pair([("c", edge(slacks), 0.0, strict)])
        assert got == want and want[3] == ("falsified" if falsified else "sample-passed")
        want, got, *_ = compose_pair(edge(slacks), strict)
        assert got == want and want[1].startswith(f"({not falsified}")


def test_plus_and_minus_infinity_in_one_block_raise_at_the_first():
    blocks = edge([1.0, math.inf, -math.inf])
    want, got = barrier_pair([("c", blocks, 0.0, False)])
    assert got == want == ("raised", "c: slack inf is not finite at (7, 1)")
    want, got, *_ = compose_pair(blocks, False)
    assert got == want == ("raised", "'subsystem 1 unsafe: slack inf is not finite at (7, 1)'")


def test_nan_after_a_violation_raises_only_in_the_full_scan():
    blocks = edge([1.0, -2.0, math.nan])
    want, got = barrier_pair([("c", blocks, 0.0, False)])
    assert got == want == ("raised", "c: slack nan is not finite at (7, 2)")
    want, got, drawn, _, scan = compose_pair(blocks, False)
    assert got == want == ("value", "(False, -2.0, (7, 1))")
    assert scan.count == drawn == 2


def test_signed_zero_tie_across_blocks_keeps_the_first():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        blocks = [((0,), [(0,)], [first]), ((1,), [(0,)], [second])]
        want, got = barrier_pair([("c", blocks, -1.0, False)])
        assert got == want and want[1] == repr({"c": first})
        scan = Scan("c", blocks, -1.0, False)
        assert list(scan) == [] and repr(scan.worst) == repr(first) and scan.count == 2

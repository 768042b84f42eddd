"""The engine's own step, pinned to the plain step it replaced.

`search.search` expands a class through a move list per reference state,
builds the set image from memoised per-byte parts, and skips a class whose
(reference state, image) pair was already expanded. `reference_search`
below is a frozen copy of the engine before any of these existed: a
class steps to one candidate per (input, successor) pair and recomputes
the image every time. Both must intern the same classes in the same order,
with the same parents, depths and hit, and must run out of room at the
same class, for the seeds of all four notions: initial-state,
current-state, and the delayed notions' survivor phase with and without a
depth bound.
"""

import json
import random

import pytest

from opacue.abstraction import build_abstraction
from opacue.control import QuantizationParams, parse_control_system
from opacue.errors import ResourceError
from opacue.search import search
from opacue.system import MetricSystem, close_rows, iter_bits
from opacue.verdict import Forest

from .conftest import linear_plant, random_system
from .test_search import corpus


def post_step(sys, close):
    succ_any = sys.succ_any
    post = sys.post_bits
    inputs = range(len(sys.inputs))

    def step(ref, bits):
        stepped = 0
        for x in iter_bits(bits):
            stepped |= succ_any[x]
        for u in inputs:
            for ref2 in iter_bits(post[u][ref]):
                yield u, ref2, stepped & close[ref2]

    return step


def reference_search(seeds, step, reveal, cap, max_depth=None, spent=0):
    found = Forest()
    classes, parents, depths = found.classes, found.parents, found.depths
    index = {}

    def intern(key, parent, depth):
        if key in index:
            return False
        if spent + len(classes) >= cap:
            raise ResourceError(f"search exceeded the cap of {cap} classes")
        index[key] = len(classes)
        classes.append(key)
        parents.append(parent)
        depths.append(depth)
        return reveal(*key)

    for key in seeds:
        if intern(key, None, 0):
            found.hit = len(classes) - 1
            return found
    head = 0
    while head < len(classes):
        depth = depths[head] + 1
        if max_depth is None or depth <= max_depth:
            for u, ref2, bits2 in step(*classes[head]):
                if intern((ref2, bits2), (head, u), depth):
                    found.hit = len(classes) - 1
                    return found
        head += 1
    return found


def searches(sys: MetricSystem, delta: float):
    """(label, close, seeds, reveal, max_depth, spent) for every notion's
    search on `sys` at `delta`, seeded as the verifiers seed them."""
    close = close_rows(sys.outputs, sys.outputs, delta)
    secret = sys.secret_bits
    nonsecret = sys.initial_bits & ~secret

    def empty(x, bits):
        return bits == 0

    yield ("initial-state", close,
           [(x, nonsecret & close[x]) for x in sorted(sys.initial) if (secret >> x) & 1],
           empty, None, 0)
    current = [(x, sys.initial_bits & close[x]) for x in sorted(sys.initial)]
    yield ("current-state", close, current,
           lambda x, bits: (secret >> x) & 1 and bits & ~secret == 0, None, 0)
    # every forward class, not only those of an opaque forward phase, so
    # that the survivor searches see as many seeds as possible
    forward = reference_search(current, post_step(sys, close), lambda x, bits: False,
                               cap=10**9)
    origins = {}
    for x, bits in forward.classes:
        if (secret >> x) & 1:
            origins.setdefault((x, bits & ~secret), None)
    for k in (0, 1, 2, None):
        yield f"survivors k={k}", close, list(origins), empty, k, len(forward.classes)


def assert_same_search(sys: MetricSystem, delta: float) -> int:
    """Compare the engine with the reference on every search of `sys`,
    uncapped and under caps that cut it short; return the classes compared."""
    compared = 0
    for label, close, seeds, reveal, max_depth, spent in searches(sys, delta):
        want = reference_search(seeds, post_step(sys, close), reveal, 10**9,
                                max_depth, spent)
        got = search(sys, close, seeds, reveal, 10**9, max_depth, spent)
        assert (got.classes, got.parents, got.depths, got.hit) == \
            (want.classes, want.parents, want.depths, want.hit), label
        compared += len(want.classes)
        if not want.classes:
            continue
        for cap in {spent + len(want.classes) - 1, spent + len(want.classes) // 2}:
            engine_tested, reference_tested = [], []
            with pytest.raises(ResourceError) as engine_error:
                search(sys, close, seeds, recording(reveal, engine_tested), cap,
                       max_depth, spent)
            with pytest.raises(ResourceError) as reference_error:
                reference_search(seeds, post_step(sys, close),
                                 recording(reveal, reference_tested), cap, max_depth, spent)
            assert engine_tested == reference_tested, label
            assert str(engine_error.value) == str(reference_error.value)
    return compared


def recording(reveal, tested: list):
    """`reveal` that also lists every class it is asked about."""
    return lambda x, bits: tested.append((x, bits)) or reveal(x, bits)


def test_engine_step_matches_the_plain_step_on_the_seeded_corpus():
    rng = random.Random(20261019)
    systems = corpus() + [random_system(rng, max_states=12, max_inputs=4)
                          for _ in range(100)]
    compared = 0
    for sys_ in systems:
        # at delta = 1 every pair of outputs is close, so every close row
        # is full and classes on different states share their sets
        for delta in (0.0, 0.1, 0.5, 1.0):
            compared += assert_same_search(sys_, delta)
    assert compared > 20_000


def sized_system(rng: random.Random, n: int) -> MetricSystem:
    """A random system of exactly n states, at least one of them initial,
    secret and non-secret, with at least n transitions."""
    m = rng.randint(1, 3)
    edges = {(rng.randrange(n), rng.randrange(m), rng.randrange(n))
             for _ in range(rng.randint(n, 2 * n * m))}
    return MetricSystem(
        names=tuple(f"s{i}" for i in range(n)),
        inputs=tuple(f"u{j}" for j in range(m)),
        outputs=tuple((rng.randrange(21) / 20,) for _ in range(n)),
        initial=tuple(sorted(rng.sample(range(n), rng.randint(1, n)))),
        secret=tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1)))),
        transitions=tuple(sorted(edges)),
    )


def test_engine_step_matches_the_plain_step_across_byte_edges():
    # the engine builds each image from one part per byte of the set: state
    # counts on both sides of a byte edge, and sets spanning several bytes
    rng = random.Random(20261020)
    compared = 0
    for n in (7, 8, 9, 16, 17, 24, 31, 32, 33, 40, 41, 48):
        for _ in range(4):
            sys_ = sized_system(rng, n)
            for delta in (0.0, 0.1, 0.5, 1.0):
                compared += assert_same_search(sys_, delta)
    assert compared > 40_000


def test_engine_step_on_a_dead_end_reached_with_two_sets():
    # 0 steps to 2 and 3, 1 steps to 2 only; 2 has no successor at all
    sys_ = MetricSystem(
        names=("a", "b", "c", "d"), inputs=("u",),
        outputs=((0.0,),) * 4, initial=(0, 1), secret=(0,),
        transitions=((0, 0, 2), (0, 0, 3), (1, 0, 2), (3, 0, 3)),
    )
    close = [0b1111] * 4
    found = search(sys_, close, [(0, 0b1), (1, 0b10)], lambda x, bits: False, cap=100)
    assert found.classes == [(0, 0b1), (1, 0b10), (2, 0b1100), (3, 0b1100),
                             (2, 0b100), (3, 0b1000)]
    assert found.hit is None
    assert_same_search(sys_, 0.0)


def test_engine_step_records_the_first_input_to_each_successor():
    # 1 is reached under every input, 3 first under v, 2 only under w
    sys_ = MetricSystem(
        names=("a", "b", "c", "d"), inputs=("u", "v", "w"),
        outputs=((0.0,), (0.0,), (1.0,), (1.0,)), initial=(0,), secret=(1,),
        transitions=((0, 0, 1), (0, 1, 1), (0, 1, 3), (0, 2, 1), (0, 2, 2),
                     (0, 2, 3)),
    )
    close = close_rows(sys_.outputs, sys_.outputs, 0.0)
    found = search(sys_, close, [(0, 0b1)], lambda x, bits: False, cap=100)
    assert found.classes == [(0, 0b1), (1, 0b10), (3, 0b1100), (2, 0b1100)]
    assert found.parents == [None, (0, 0), (0, 1), (0, 2)]
    assert_same_search(sys_, 0.0)
    assert_same_search(sys_, 1.0)


def test_engine_step_matches_the_plain_step_on_a_plant_abstraction():
    # at delta = 0.3 far more classes than distinct sets: the memo's case
    cs = parse_control_system(json.dumps(linear_plant(2, 0.3, 0.2, (0.4, 0.7))))
    abstraction = build_abstraction(cs, QuantizationParams(0.1, 0.1, 0.23))
    assert assert_same_search(abstraction.system, 0.3) > 1_000

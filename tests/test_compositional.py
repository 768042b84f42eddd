"""Small-gain reasoning and max-composition of local certificates."""

import json
import math
import random
from itertools import chain

import pytest

from opacue import compositional
from opacue.barrier import Scan, check_opacity_barrier
from opacue.boxes import Box, BoxUnion, Lattice
from opacue.compositional import (
    LinearSubsystem,
    compose_barriers,
    interconnect,
    parse_interconnection,
    small_gain,
)
from opacue.control import DtControlSystem, IssCertificate
from opacue.errors import DomainError, QuantizationError, SmallGainError, ValidationError
from opacue.polynomial import Polynomial, tabulate


def sub(a=0.5, b=0.2, state=(0.0, 1.0), initial=(0.0, 0.2), secret=(0.6, 1.0)):
    return LinearSubsystem(a=a, b=b, state=Box((state,)),
                           initial=Box((initial,)), secret=Box((secret,)))


def test_gains_closed_form():
    report = small_gain(sub(), sub())
    assert report.gamma1 == abs(0.2 / (1 - 0.5))
    assert report.gamma2 == abs(0.2 / (1 - 0.5))
    assert report.product == report.gamma1 * report.gamma2
    assert report.small_gain_ok


def test_zero_coupling_always_passes():
    report = small_gain(sub(b=0.0), sub(a=0.9, b=0.99))
    assert report.gamma1 == 0.0
    assert report.product == 0.0
    assert report.small_gain_ok


def test_strong_coupling_fails():
    report = small_gain(sub(a=0.9, b=0.5), sub(a=0.9, b=0.5))
    assert report.gamma1 == abs(0.5 / (1 - 0.9))
    assert not report.small_gain_ok


def test_gain_scale_consistency_power_of_two():
    # scaling b by powers of two scales the gain exactly in floating point
    for t in (2.0, 4.0, 0.5):
        base = sub(a=0.37, b=0.11)
        scaled = sub(a=0.37, b=0.11 * t)
        assert scaled.gain == abs(t) * base.gain


def test_validation_rejects_non_contractive_a():
    with pytest.raises(ValidationError):
        sub(a=1.0)
    with pytest.raises(ValidationError):
        sub(a=-1.2)
    with pytest.raises(ValidationError):
        sub(initial=(0.0, 2.0))


def test_a_gain_that_overflows_is_refused():
    # |b/(1-a)| = 1e300/1.1e-16 is inf: the report used to carry
    # "gamma1": Infinity and, times a zero gain, "product": NaN
    with pytest.raises(ValidationError, match=r"^subsystem gain \|b/\(1-a\)\| overflows"):
        sub(a=0.9999999999999999, b=1e300)
    doc = {key: {"a": a, "b": b, "state": [0.0, 1.0], "initial": [0.0, 0.2],
                 "secret": [0.6, 1.0]}
           for key, a, b in (("sub1", 0.5, 0.2), ("sub2", 0.9999999999999999, 1e300))}
    with pytest.raises(ValidationError, match=r"^sub2: subsystem gain"):
        parse_interconnection(json.dumps(doc))


def test_a_gain_product_that_overflows_is_refused():
    # 1e308 * 1e308 is inf: the report used to carry "product": Infinity
    with pytest.raises(ValidationError, match=r"^gain product gamma1\*gamma2 overflows"):
        small_gain(sub(a=0.0, b=1e308), sub(a=0.0, b=1e308))
    with pytest.raises(ValidationError, match="overflows"):
        compose_barriers(Polynomial(2, (((0, 0), 1.0),)), Polynomial(2, (((0, 0), 1.0),)),
                         sub(a=0.0, b=1e308), sub(a=0.0, b=1e308),
                         delta=0.5, resolution=0.2)


def test_max_composition_properties():
    # the composed barrier at (x1, x2, xh1, xh2) is the larger local value,
    # each local candidate taking its own subsystem's (x_i, xh_i) pair
    rng = random.Random(111)
    b1 = Polynomial(2, (((2, 0), 1.0), ((0, 2), 1.0), ((1, 1), -2.0), ((0, 0), -0.03)))
    b2 = Polynomial(2, (((1, 0), 0.5), ((0, 1), -1.5), ((0, 0), 0.25)))
    composed = compose_barriers(b1, b2, sub(), sub(), delta=0.5, resolution=0.2).composed
    larger = set()
    for _ in range(100):
        x1, x2, xh1, xh2 = (rng.uniform(0, 1) for _ in range(4))
        local = b1((x1, xh1)), b2((x2, xh2))
        assert composed((x1, x2, xh1, xh2)) == max(local)
        larger.add(local[0] > local[1])
    assert larger == {True, False}  # each local candidate is the max somewhere


def test_small_gain_gate_raises():
    bad = sub(a=0.9, b=0.5)
    with pytest.raises(SmallGainError):
        compose_barriers(lambda p: 0.0, lambda p: 0.0, bad, bad,
                         delta=0.5, resolution=0.2)


def test_compose_barriers_norm_certificate_end_to_end():
    """|(x, xh)| as local certificate: lower bound met with equality, all
    local conditions pass, and the composed max-certificate sample-passes the
    interconnected opacity-barrier check."""
    s1, s2 = sub(), sub()
    norm = lambda p: max(abs(p[0]), abs(p[1]))
    report = compose_barriers(norm, norm, s1, s2, delta=0.5, resolution=0.2)
    assert report.all_passed
    lower = [c for c in report.checks if c.condition == "norm-lower-bound"]
    assert all(c.min_margin == 0.0 for c in lower)  # equality at the corner

    interconnected = interconnect(s1, s2)
    end_to_end = check_opacity_barrier(report.composed, interconnected,
                                       delta=0.5, resolution=0.2)
    assert end_to_end.status == "sample-passed"


def test_compose_barriers_decrease_evaluates_each_pair_value_once():
    # B once per (x, xh) pair, shared by every condition, then B at the
    # successors of every (w, wh) of each pair
    calls = []

    def counted(p):
        calls.append(p)
        return max(abs(p[0]), abs(p[1]))

    s1, s2, delta, resolution = sub(), sub(), 0.5, 0.2
    report = compose_barriers(counted, counted, s1, s2, delta=delta,
                              resolution=resolution)
    assert report.all_passed  # no condition stops its scan early
    (xs,) = Lattice(Box(((0.0, 1.0),)), resolution).axes  # both state intervals
    pairs = [(x, xh) for x in xs for xh in xs]
    decrease = len(pairs) * len(xs) ** 2
    assert len(calls) == 2 * (len(pairs) + decrease)


def test_compose_barriers_reports_local_falsification():
    s1, s2 = sub(), sub()
    bad = lambda p: -1.0  # violates the norm lower bound
    report = compose_barriers(bad, bad, s1, s2, delta=0.5, resolution=0.2)
    assert not report.all_passed
    failing = [c for c in report.checks if not c.passed]
    assert failing and failing[0].condition == "norm-lower-bound"
    assert failing[0].witness is not None


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_subsystems_are_rejected(bad):
    with pytest.raises(ValidationError, match="finite"):
        sub(b=bad)
    with pytest.raises(ValidationError, match="finite"):
        sub(state=(0.0, bad))
    with pytest.raises(ValidationError, match="finite"):
        sub(state=(bad, 1.0))


def test_subsystem_sets_are_one_dimensional_boxes():
    square = Box(((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValidationError, match="1-D state box"):
        LinearSubsystem(0.5, 0.2, square, square, square)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        LinearSubsystem(0.5, 0.2, Box(((0.0, 1.0),)), square, Box(((0.6, 1.0),)))


@pytest.mark.parametrize("flags", [
    {"delta": float("nan")}, {"delta": float("inf")}, {"delta": -0.1},
    {"margin": float("nan")}, {"margin": -1e-9},
    {"resolution": float("nan")}, {"resolution": 0.0}, {"resolution": -0.2},
])
def test_compose_barriers_rejects_bad_sampling_numbers(flags):
    norm = lambda p: max(abs(p[0]), abs(p[1]))
    args = {"delta": 0.5, "resolution": 0.2, "margin": 1e-9, **flags}
    with pytest.raises(ValidationError, match="finite"):
        compose_barriers(norm, norm, sub(), sub(), **args)


def test_non_finite_slacks_fail_closed():
    nan = lambda p: math.nan
    with pytest.raises(DomainError, match=r"^subsystem 1 norm-lower-bound: slack nan"):
        compose_barriers(nan, nan, sub(), sub(), delta=0.5, resolution=0.2)


def test_compose_unsafe_is_strict_like_the_barrier_check():
    # B = 0 on every pair: "B > margin" fails at margin 0 on every pair
    # more than delta apart, in compose as in the opacity barrier check
    zero = Polynomial(2, (((0, 0), 0.0),))
    s = sub(a=0.5, b=0.1)
    report = compose_barriers(zero, zero, s, s, delta=0.2, resolution=0.2, margin=0.0)
    for idx in (1, 2):
        unsafe = next(c for c in report.checks if c.subsystem == idx and c.condition == "unsafe")
        assert not unsafe.passed and unsafe.min_margin == 0.0
        assert abs(unsafe.witness[0] - unsafe.witness[1]) > 0.2
    plant = DtControlSystem(
        state_box=Box(((0.0, 1.0),)),
        initial_region=BoxUnion((Box(((0.0, 0.2),)),)),
        secret_region=BoxUnion((Box(((0.0, 0.1),)),)),
        input_box=Box(((0.0, 0.1),)),
        dynamics=("0.5*x1",),
        output=("x1",),
        iss_cert=IssCertificate(1.0, 0.5, 0.0, 1.0),
    )
    barrier = check_opacity_barrier(zero, plant, delta=0.2, resolution=0.05, margin=0.0)
    assert barrier.min_margin["unsafe"] == 0.0
    assert barrier.witness.condition == "unsafe" and barrier.witness.value == 0.0


@pytest.mark.parametrize("initial,secret,part", [
    # the initial condition used to see no sample and pass
    ((0.0, 0.2), (0.11, 0.19), "initial-and-secret"),
    ((0.0, 0.2), (0.05, 0.2), "initial-minus-secret"),
])
def test_compose_refuses_a_resolution_wider_than_a_part_of_an_initial_interval(
        initial, secret, part):
    five = Polynomial(2, (((0, 0), 5.0),))
    narrow = sub(a=-0.5, b=0.2, initial=initial, secret=secret)
    for subs, idx in (((narrow, sub()), 1), ((sub(), narrow), 2)):
        with pytest.raises(QuantizationError,
                           match=rf"^resolution 0.1 exceeds .* {part} interval of subsystem {idx}$"):
            compose_barriers(five, five, *subs, delta=0.1, resolution=0.1)
    # both parts as wide as the resolution: B = 5 > 0 fails on an initial pair
    wide = sub(a=-0.5, b=0.2, initial=(0.0, 0.2), secret=(0.1, 0.2))
    report = compose_barriers(five, five, wide, wide, delta=0.1, resolution=0.1)
    assert [c.passed for c in report.checks if c.condition == "initial"] == [False, False]


def test_interconnect_needs_a_certificate_unless_contractive():
    # |A|_inf = 1.3: one step takes the states (1, 0) and (0, 0) 1.3 apart
    s1, s2 = sub(a=0.5, b=0.8), sub(a=0.5, b=0.2)
    with pytest.raises(ValidationError, match="certificate"):
        interconnect(s1, s2)
    cert = IssCertificate(c=2.0, lam=0.9, g=0.0, a=1.0)
    assert interconnect(s1, s2, cert).iss_cert is cert
    assert interconnect(sub(), sub()).iss_cert.lam == 0.7


def test_compose_barriers_tables_match_pointwise_calls():
    rng = random.Random(1018)
    for _ in range(30):
        subs = [sub(a=rng.uniform(-0.8, 0.5), b=rng.uniform(-0.3, 0.3), initial=(0.0, 1.0))
                for _ in "12"]
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms.setdefault((rng.randint(0, 2), rng.randint(0, 2)),
                             rng.choice((1.0, -0.5, rng.uniform(-2, 2))))
        b = Polynomial(2, tuple(terms.items()))
        args = (*subs, rng.uniform(0.0, 0.6), rng.choice((0.1, 0.2, 0.25)))
        tabulated = compose_barriers(b, b, *args)
        pointwise = compose_barriers(lambda p: b(p), lambda p: b(p), *args)
        assert tabulated.checks == pointwise.checks
        assert tabulated.to_report() == pointwise.to_report()


def _per_pair_decrease(idx, sub_, partner, b, resolution):
    """(passed, min_margin, witness) of the decrease condition as it was
    scanned before a table covered one x against many partners: one
    table per (x, xh) pair."""
    lattice = Lattice(sub_.state, resolution)
    (xs,), (ws,) = lattice.axes, Lattice(partner.state, resolution).axes
    points = lattice.points()
    values = tabulate(b, points, points)
    gains = [sub_.b * max(abs(w), abs(wh)) for w in ws for wh in ws]
    tails = [(w, wh) for w in ws for wh in ws]
    steps = [[(sub_.step(x, w),) for w in ws] for x in xs]

    def blocks():
        for x, x_steps, row_values in zip(xs, steps, values):
            for xh, xh_steps, base in zip(xs, steps, row_values):
                kept = (1 - sub_.a) * base
                table = chain.from_iterable(tabulate(b, x_steps, xh_steps))
                yield (x, xh), tails, [kept + gain - v for gain, v in zip(gains, table)]

    scan = Scan(f"subsystem {idx} decrease", blocks(), 0.0, False)
    hit = next(iter(scan), None)
    return hit is None, scan.worst, hit and hit[0]


@pytest.mark.parametrize("partners", [None, 1, 3])
def test_a_decrease_violation_in_mid_grid_matches_per_pair_tables(monkeypatch, partners):
    # one table per x against as many partners as fit in compositional._CELLS
    # cells: all of them by default, or runs of 1 or 3 partners
    s1, s2 = sub(a=-0.6, b=0.2), sub(a=-0.5, b=0.2)
    tilted = Polynomial(2, (((0, 0), 1.0), ((1, 0), -0.5), ((0, 1), 2.0)))
    if partners is not None:
        monkeypatch.setattr(compositional, "_CELLS", partners * 11 * 11)
    report = compose_barriers(tilted, tilted, s1, s2, delta=0.1, resolution=0.1)
    decrease = [c for c in report.checks if c.condition == "decrease"]
    assert [(c.passed, c.min_margin, c.witness) for c in decrease] == [
        _per_pair_decrease(idx, s, partner, tilted, 0.1)
        for idx, s, partner in ((1, s1, s2), (2, s2, s1))]
    x, xh, w, wh = decrease[0].witness  # past the passing tables of x = 0.0 .. 0.3
    assert 0.0 < x < 1.0

"""Sampled barrier-certificate checking and the quantifier-order regressions."""

import dataclasses
import math
import random

import numpy as np
import pytest

from opacue.barrier import (
    Violation,
    build_regions,
    check_lack_barrier,
    check_opacity_barrier,
    decrease_exists_forall,
    decrease_forall_exists,
    pair_regions,
)
from opacue.boxes import Box, BoxUnion, Lattice, grid
from opacue.control import DtControlSystem, IssCertificate
from opacue.errors import DomainError, QuantizationError, ValidationError
from opacue.polynomial import Polynomial
from opacue.system import delta_close


def simple_cs(secret=(0.5, 1.0), initial=(0.0, 1.0), dyn="0.5*x1"):
    return DtControlSystem(
        state_box=Box(((0.0, 1.0),)),
        initial_region=BoxUnion((Box((initial,)),)),
        secret_region=BoxUnion((Box((secret,)),)),
        input_box=Box(((0.0, 0.2),)),
        dynamics=(dyn,),
        output=("x1",),
        iss_cert=IssCertificate(1.0, 0.5, 0.0, 1.0),
    )


def poly(terms: dict):
    n = len(next(iter(terms)))
    return Polynomial(n, tuple((tuple(e), float(c)) for e, c in terms.items()))


CONST_MINUS_ONE = poly({(0, 0): -1.0})
CONST_PLUS_ONE = poly({(0, 0): 1.0})


def expand(regions):
    """The regions' rows as pair tuples (r0, ru, r), row by row: the
    initial pairs, the pairs not delta-close, and every pair."""
    points = regions.points

    def pairs(member):
        return tuple((x, xh) for i, x in enumerate(points)
                     for j, xh in enumerate(points) if member(i, j))

    return (pairs(lambda i, j: regions.r0[i] >> j & 1),
            pairs(lambda i, j: not regions.close[i] >> j & 1),
            pairs(lambda i, j: True))


def test_region_membership_invariants():
    cs = simple_cs()
    regions = build_regions(cs, delta=0.3, resolution=0.1)
    r0, ru, r = expand(regions)
    for x, xh in r0:
        assert cs.initial_region.contains(x) and cs.secret_region.contains(x)
        assert cs.initial_region.contains(xh) and not cs.secret_region.contains(xh)
        assert abs(cs.observe(x)[0] - cs.observe(xh)[0]) <= 0.3
    for x, xh in ru:
        assert abs(cs.observe(x)[0] - cs.observe(xh)[0]) > 0.3
    assert len(r) == len(ru) or len(r) > len(ru)


def test_resolution_guard():
    cs = simple_cs()
    with pytest.raises(QuantizationError):
        build_regions(cs, delta=0.3, resolution=0.7)


def test_constant_negative_fails_unsafe_condition():
    cs = simple_cs()
    report = check_opacity_barrier(CONST_MINUS_ONE, cs, delta=0.1, resolution=0.1)
    assert report.status == "falsified"
    assert report.witness.condition == "unsafe"


def test_constant_positive_fails_initial_condition():
    cs = simple_cs()
    report = check_opacity_barrier(CONST_PLUS_ONE, cs, delta=1.0, resolution=0.1)
    assert report.status == "falsified"
    assert report.witness.condition == "initial"
    # witness satisfies the membership predicate of the initial region
    point = report.witness.point
    x, xh = point[:1], point[1:]
    assert cs.initial_region.contains(x) and cs.secret_region.contains(x)
    assert cs.initial_region.contains(xh) and not cs.secret_region.contains(xh)


def test_contraction_example_falsified_on_initial_region():
    # f = 0.5x, secret initial block far from the non-secret initial block;
    # candidate (x - xh)^2 - 0.04 is positive at distant initial pairs.
    cs = DtControlSystem(
        state_box=Box(((0.0, 1.0),)),
        initial_region=BoxUnion((Box(((0.0, 0.05),)), Box(((0.9, 1.0),)))),
        secret_region=BoxUnion((Box(((0.9, 1.0),)),)),
        input_box=Box(((0.0, 0.05),)),
        dynamics=("0.5*x1",),
        output=("x1",),
        iss_cert=IssCertificate(1.0, 0.5, 0.0, 1.0),
    )
    candidate = poly({(2, 0): 1.0, (0, 2): 1.0, (1, 1): -2.0, (0, 0): -0.04})
    report = check_opacity_barrier(candidate, cs, delta=1.0, resolution=0.05)
    assert report.status == "falsified"
    assert report.witness.condition == "initial"
    x, xh = report.witness.point
    assert cs.secret_region.contains((x,))
    assert not cs.secret_region.contains((xh,))
    assert abs(x - xh) <= 1.0
    assert (x - xh) ** 2 - 0.04 > 0


def test_lack_checker_rejects_zero_candidate_on_boundary():
    cs = simple_cs()
    zero = poly({(0, 0): 0.0})
    report = check_lack_barrier(zero, cs, delta=0.5, resolution=0.1)
    assert report.status == "falsified"
    assert report.witness.condition == "boundary"


# -- quantifier order ---------------------------------------------------------

def test_quantifier_helpers_on_two_point_truth_table():
    # diagonal pattern: each row has a good column, no row is all-good
    diagonal = [[1.0, -1.0], [-1.0, 1.0]]
    assert decrease_forall_exists(diagonal) >= 0
    assert decrease_exists_forall(diagonal) < 0
    # one all-good row, one all-bad row: only the exists-forall order succeeds
    assert decrease_exists_forall([[1.0, 1.0], [-1.0, -1.0]]) >= 0
    assert decrease_forall_exists([[1.0, 1.0], [-1.0, -1.0]]) < 0
    # all-good matrix satisfies both
    assert decrease_forall_exists([[1.0, 1.0], [1.0, 1.0]]) >= 0
    assert decrease_exists_forall([[1.0, 1.0], [1.0, 1.0]]) >= 0


NODES = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]
INPUT_VALUES = {0.0, 1.0, 2.0}


def _interpolate(valfn) -> Polynomial:
    """Tensor interpolation (degree <= 5 per variable) through NODES^2."""
    rows, rhs = [], []
    for p in NODES:
        for q in NODES:
            rows.append([p**i * q**j for i in range(6) for j in range(6)])
            rhs.append(valfn(p, q))
    coef = np.linalg.solve(np.array(rows), np.array(rhs))
    return Polynomial(
        2, tuple(((i, j), float(coef[i * 6 + j])) for i in range(6) for j in range(6))
    )


def _jump_cs() -> DtControlSystem:
    """State jumps to the input value; states and inputs live on disjoint grids."""
    return DtControlSystem(
        state_box=Box(((5.0, 7.0),)),
        initial_region=BoxUnion(()),
        secret_region=BoxUnion(()),
        input_box=Box(((0.0, 2.0),)),
        dynamics=("u1",),
        output=("x1",),
        iss_cert=IssCertificate(1.0, 0.5, 0.0, 1.0),
    )


def test_opacity_checker_uses_forall_exists():
    """Diagonal-pattern candidate: only the matched input avoids an increase.

    Under the correct order (for every u there is a u_hat) the decrease
    condition holds with margin ~1; under the swapped order it would be
    falsified at every sample.
    """
    candidate = _interpolate(
        lambda p, q: (-1.0 if p == q else 1.0)
        if p in INPUT_VALUES and q in INPUT_VALUES else 0.0
    )
    report = check_opacity_barrier(candidate, _jump_cs(), delta=10.0, resolution=1.0)
    assert report.status == "sample-passed"
    assert report.min_margin["decrease"] > 0.5


def test_lack_checker_uses_exists_forall():
    """Same diagonal pattern, strict flavor: no single input beats all matches.

    The correct order (some u works for all u_hat) is falsified with margin
    ~1; the swapped order would sample-pass, which the emulation below
    demonstrates.
    """
    candidate = _interpolate(
        lambda p, q: (0.0 if p == q else 2.0)
        if p in INPUT_VALUES and q in INPUT_VALUES else 1.0
    )
    cs = _jump_cs()
    report = check_lack_barrier(candidate, cs, delta=10.0, resolution=1.0)
    assert report.status == "falsified"
    assert report.witness.condition == "decrease"

    # swapped-order emulation over the same slack matrices would pass
    from opacue.boxes import grid
    inputs = [u[0] for u in grid(cs.input_box, 1.0)]
    points = [p[0] for p in grid(cs.state_box, 1.0)]
    for x in points:
        for xh in points:
            base = candidate((x, xh))
            slack = [
                [base - candidate((u, uh)) - 1e-9 for uh in inputs] for u in inputs
            ]
            assert decrease_forall_exists(slack) >= 0
            assert decrease_exists_forall(slack) < 0


def test_margin_statistics_antitone_under_refinement():
    cs = simple_cs()
    candidate = poly({(2, 0): 1.0, (0, 2): 1.0, (1, 1): -2.0, (0, 0): -0.5})
    coarse = check_opacity_barrier(candidate, cs, delta=0.4, resolution=0.2)
    fine = check_opacity_barrier(candidate, cs, delta=0.4, resolution=0.1)
    for cond, margin in coarse.min_margin.items():
        if margin is None or fine.min_margin[cond] is None:
            continue
        assert fine.min_margin[cond] <= margin + 1e-12


def test_falsified_witness_recheckable():
    cs = simple_cs()
    report = check_opacity_barrier(CONST_MINUS_ONE, cs, delta=0.1, resolution=0.1)
    w = report.witness
    assert w is not None
    # re-evaluate the violated inequality at the witness point
    assert CONST_MINUS_ONE(w.point) <= 0  # fails "B > 0 on Ru"
    x, xh = w.point[:1], w.point[1:]
    assert abs(cs.observe(x)[0] - cs.observe(xh)[0]) > 0.1


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -0.1])
def test_bad_delta_is_rejected(delta):
    # delta = NaN used to empty both sampled regions and pass on 0 samples
    with pytest.raises(ValidationError, match="finite"):
        build_regions(simple_cs(), delta=delta, resolution=0.1)


@pytest.mark.parametrize("checker", [check_opacity_barrier, check_lack_barrier])
@pytest.mark.parametrize("margin", [float("nan"), float("inf"), -1e-9])
def test_bad_margin_is_rejected(checker, margin):
    with pytest.raises(ValidationError, match="margin"):
        checker(CONST_PLUS_ONE, simple_cs(), delta=0.3, resolution=0.1, margin=margin)


def test_dynamics_evaluated_once_per_grid_point_and_input():
    calls = []

    class Counted(DtControlSystem):
        def step(self, x, u):
            calls.append((x, u))
            return super().step(x, u)

    base = simple_cs()
    cs = Counted(**{f: getattr(base, f) for f in base.__dataclass_fields__})
    candidate = poly({(2, 0): 1.0, (0, 2): 1.0, (1, 1): -2.0, (0, 0): -0.03})
    for checker in (check_opacity_barrier, check_lack_barrier):
        calls.clear()
        checker(candidate, cs, delta=0.15, resolution=0.1)
        # 11 grid points times 3 grid inputs, each evaluated exactly once
        assert len(calls) == len(set(calls)) == 11 * 3


GAP = poly({(2, 0): 1.0, (0, 2): 1.0, (1, 1): -2.0, (0, 0): -0.03})  # (x - xh)^2 - 0.03


def test_non_finite_samples_fail_closed():
    cs = simple_cs(dyn="0.5*x1 + 0.2*u1")
    assert check_opacity_barrier(GAP, cs, 0.15, 0.1).status == "sample-passed"
    # NaN fails every comparison, so each slack it reached would pass
    with pytest.raises(DomainError, match=r"^initial: slack nan is not finite at"):
        check_opacity_barrier(lambda p: math.nan, cs, 0.15, 0.1)
    # NaN at one successor off the lattice only: the decrease row's min and
    # max would hide it
    corner = cs.step((1.0,), (0.2,))[0]
    hidden = lambda p: math.nan if p[0] == corner else GAP(p)
    for check in (check_opacity_barrier, check_lack_barrier):
        with pytest.raises(DomainError, match=r"^decrease: slack nan is not finite"):
            check(hidden, cs, 0.15, 0.1)
    overflow = "x1*1e308*1e308"  # inf for every x1 > 0
    cases = [
        (simple_cs(dyn=f"0.5*x1 + 0.2*u1 + {overflow}"),
         r"^f\(\(0\.1,\), \(0\.0,\)\) = \(inf,\) is not finite$"),
        (dataclasses.replace(cs, output=(overflow,)), r"^H\(\(0\.1,\)\) = \(inf,\) is not finite$"),
        # one expression of a map fails: it alone is named, at the first point
        (dataclasses.replace(cs, output=("x1", overflow)),
         r"^H\(\(0\.1,\)\) = \(0\.1, inf\) is not finite$"),
        (simple_cs(dyn="0.5*x1 + 1/(x1 - 0.5)"),
         r"^expression '0\.5\*x1 \+ 1/\(x1 - 0\.5\)' at state \(0\.5,\), input \(0\.0,\): "
         r"ZeroDivisionError: float division by zero$"),
    ]
    for plant, message in cases:
        for check in (check_opacity_barrier, check_lack_barrier):
            with pytest.raises(DomainError, match=message):
                check(GAP, plant, 0.15, 0.1)


def test_lack_check_observes_each_lattice_point_once():
    # the lack checker used to observe both points of every pair: 3,723
    # calls for these 41 points
    calls = []

    class Counted(DtControlSystem):
        def observe(self, x):
            calls.append(x)
            return super().observe(x)

    base = simple_cs()
    cs = Counted(**{f: getattr(base, f) for f in base.__dataclass_fields__})
    report = check_lack_barrier(poly({(0, 0): 0.0}), cs, delta=0.5, resolution=0.025)
    assert report.witness.condition == "boundary"
    assert calls == grid(cs.state_box, 0.025) and len(calls) == 41


_OUTPUTS = {
    1: ["x1", "-1.0*x1", "x1*x1 - 0.25", "0.5*x1 + 0.3", "abs(x1)", "-0.0*x1"],
    2: ["x1", "x2", "x1*x2", "-1.0*x1*x2", "x1 - x2", "abs(x1) + 0.5*x2"],
}


def _random_plant(rng: random.Random) -> DtControlSystem:
    dim = rng.choice((1, 2))
    box = Box(((-0.5, 0.5),) * dim)
    secret = Box(((rng.choice((-0.2, 0.0, 0.1)), 0.5),) + ((-0.5, 0.5),) * (dim - 1))
    return DtControlSystem(
        state_box=box,
        initial_region=BoxUnion((box,)),
        secret_region=BoxUnion((secret,)),
        input_box=Box(((0.0, 0.25),)),
        dynamics=("0.5*x1",) + ("0.5*x2",) * (dim - 1),
        output=tuple(rng.sample(_OUTPUTS[dim], rng.choice((1, 2)))),
        iss_cert=IssCertificate(1.0, 0.5, 0.0, 1.0),
    )


def test_regions_match_the_pairwise_closeness_definition():
    rng = random.Random(20261018)
    exact_gaps = signed_zeros = 0
    for _ in range(60):
        cs = _random_plant(rng)
        resolution = rng.choice((0.1, 0.125, 0.2) if cs.dim == 1 else (0.2, 0.25))
        points = grid(cs.state_box, resolution)
        ys = {p: cs.observe(p) for p in points}
        a, b = rng.choice(points), rng.choice(points)
        delta = rng.choice((0.0, max(abs(i - j) for i, j in zip(ys[a], ys[b])),
                            rng.uniform(0.0, 0.6)))
        r0, ru, _ = expand(build_regions(cs, delta, resolution))

        def close(x, xh):
            return delta_close(ys[x], ys[xh], delta)

        secret = [p for p in points if cs.secret_region.contains(p)]
        nonsecret = [p for p in points if not cs.secret_region.contains(p)]
        assert r0 == tuple((x, xh) for x in secret for xh in nonsecret
                           if close(x, xh))
        assert ru == tuple((x, xh) for x in points for xh in points
                           if not close(x, xh))
        exact_gaps += sum(abs(i - j) == delta for x in points for xh in points
                          for i, j in zip(ys[x], ys[xh]))
        signed_zeros += sum(v == 0 and math.copysign(1.0, v) < 0
                            for y in ys.values() for v in y)
    assert exact_gaps and signed_zeros


def _face(rng: random.Random, axis: list[float], step: float) -> float:
    """A lattice value, halfway to the next, or one ulp off one."""
    v = rng.choice(axis)
    return rng.choice((v, v + step / 2, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)))


def _union(rng: random.Random, lattice: Lattice, most: int) -> BoxUnion:
    """One to `most` boxes whose faces are `_face`s of the lattice's axes."""
    boxes = []
    for _ in range(rng.randint(1, most)):
        sides = []
        for axis, bounds in zip(lattice.axes, lattice.box.bounds):
            lo, hi = sorted((_face(rng, axis, lattice.step), _face(rng, axis, lattice.step)))
            sides.append((lo, hi) if lo < hi else bounds)
        boxes.append(Box(tuple(sides)))
    return BoxUnion(tuple(boxes))


def test_pair_regions_equal_a_point_by_point_reference():
    """r0 and close from the lattice's index windows equal the pairs that
    `Box.contains` and `delta_close` accept one by one: intervals as
    `compose` samples them, and unions of boxes with faces on, between and
    one ulp off lattice points."""
    rng = random.Random(3101)
    seen = set()
    for _ in range(80):
        dim = rng.choice((1, 2))
        step = rng.choice((0.1, 0.125, 0.2) if dim == 1 else (0.2, 0.25))
        lattice = Lattice(Box(((-0.5, 0.5),) * dim), step)
        points = lattice.points()
        outputs = [tuple(rng.choice((p[0], sum(p), p[-1] - p[0])) for _ in range(2))
                   for p in points]
        most = 1 if dim == 1 and rng.random() < 0.5 else 3  # an interval, or a union
        initial, secret = _union(rng, lattice, most), _union(rng, lattice, most)
        a, b = rng.choice(outputs), rng.choice(outputs)
        delta = rng.choice((0.0, max(abs(i - j) for i, j in zip(a, b)), rng.uniform(0, 0.6)))
        regions = pair_regions(lattice, outputs, initial, secret, delta)
        close = [sum(1 << j for j, y2 in enumerate(outputs) if delta_close(y, y2, delta))
                 for y in outputs]
        starts = [initial.contains(p) and secret.contains(p) for p in points]
        partners = sum(1 << j for j, p in enumerate(points)
                       if initial.contains(p) and not secret.contains(p))
        assert regions.points == points
        assert regions.close == close
        assert regions.r0 == [row & partners if start else 0
                              for start, row in zip(starts, close)]
        seen.add(any(regions.r0))
    assert seen == {False, True}  # some lattices sample initial pairs, some none


# -- tabulated decrease scans --------------------------------------------------

def _random_candidate(rng: random.Random, n_vars: int, scale: float) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(0, 2) for _ in range(n_vars))
        terms.setdefault(exps, scale * rng.choice((1.0, -1.0, 0.5, rng.uniform(-2, 2))))
    return Polynomial(n_vars, tuple(terms.items()))


def _decrease_by_definition(candidate, cs, resolution, pairs, quantify, margin):
    """Each pair's slack by the definition: pointwise, every row of the
    slack matrix spelled out, NaN where a slack is not finite."""
    inputs = grid(cs.input_box, resolution)
    slacks = []
    for x, xh in pairs:
        base = candidate(x + xh)
        rows = [[base - candidate(cs.step(x, u) + cs.step(xh, uh)) - margin
                 for uh in inputs] for u in inputs]
        finite = all(math.isfinite(v) for row in rows for v in row)
        slacks.append((x + xh, quantify(rows) if finite else math.nan))
    return slacks


def test_tabulated_decrease_matches_the_pointwise_definition():
    rng = random.Random(1018)
    kinds = [(check_opacity_barrier, decrease_forall_exists, 0.0),
             (check_lack_barrier, decrease_exists_forall, 1e-9)]
    for trial in range(40):
        dim = 1 + trial % 2
        box = Box(((-0.5, 0.5),) * dim)
        cs = DtControlSystem(
            state_box=box,
            initial_region=BoxUnion((box,)),
            secret_region=BoxUnion((Box(((0.0, 0.5),) + ((-0.5, 0.5),) * (dim - 1)),)),
            input_box=Box(((0.0, 0.25),)),
            dynamics=tuple(f"{rng.uniform(-0.6, 0.6)!r}*x{i + 1} + "
                           f"{rng.uniform(-1, 1)!r}*u1" for i in range(dim)),
            output=tuple(f"x{i + 1}" for i in range(dim)),
            iss_cert=IssCertificate(1.0, 0.6, 0.0, 1.0),
        )
        resolution = 0.125 if dim == 1 else 0.25
        # 1e307: values past the bound below which base - v cannot overflow
        candidate = _random_candidate(rng, 2 * dim, rng.choice((1.0, 1e307)))
        delta = rng.uniform(0.0, 0.5)
        _, ru, r = expand(build_regions(cs, delta, resolution))
        unsafe = set(ru)
        for (check, quantify, margin), pairs in zip(kinds, (
                r, [p for p in r if p not in unsafe])):
            report = check(candidate, cs, delta, resolution)
            pointwise = check(lambda p: candidate(p), cs, delta, resolution)
            assert report.to_report() == pointwise.to_report()
            assert report.violations == pointwise.violations
            slacks = _decrease_by_definition(candidate, cs, resolution, pairs,
                                             quantify, margin)
            assert report.sample_counts["decrease"] == len(slacks)
            assert repr(report.min_margin["decrease"]) == repr(min(s for _, s in slacks))
            assert [v for v in report.violations if v.condition == "decrease"] == [
                Violation("decrease", p, -s) for p, s in slacks if s < 0]


def test_polynomial_candidates_are_never_called_pointwise(monkeypatch):
    # every condition reads a Polynomial from its tables
    def pointwise(self, point):
        raise AssertionError(f"pointwise call at {point}")

    monkeypatch.setattr(Polynomial, "__call__", pointwise)
    cs = simple_cs(dyn="0.5*x1 + 0.25*u1")
    for check in (check_opacity_barrier, check_lack_barrier):
        assert all(check(GAP, cs, 0.15, 0.1).sample_counts.values())


def test_tabulated_decrease_raises_where_the_pointwise_scan_did():
    cs = simple_cs(dyn="0.5*x1 + 0.25*u1")
    corner = cs.step((1.0,), (0.2,))[0]  # off the lattice, a successor of 1.0 only
    # NaN at the single successor pair (corner, 0.5); 0.5 = f(0.9, 0.2) = f(1.0, 0)
    nan_at = lambda p: math.nan if p == (corner, 0.5) else GAP(p)
    # finite everywhere: 1.5e308 at x = 1.0 and -0.375e308 at its successor
    # 0.5, so base - v overflows at every pair with x = 1.0
    steep = poly({(0, 0): -1.5e308, (1, 0): 1.5e308, (2, 0): 1.5e308})
    # the first pair of each decrease scan whose slack matrix holds a NaN or inf
    cases = [(nan_at, check_opacity_barrier, (1.0, 0.9)),
             (nan_at, check_lack_barrier, (1.0, 0.9)),
             (steep, check_opacity_barrier, (1.0, 0.0)),
             (steep, check_lack_barrier, (1.0, 0.9))]
    for candidate, check, point in cases:
        with pytest.raises(DomainError) as info:
            check(candidate, cs, 0.15, 0.1)
        assert str(info.value) == f"decrease: slack nan is not finite at {point}"

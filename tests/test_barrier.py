"""Sampled barrier-certificate checking and the quantifier-order regressions."""

import dataclasses
import math

import numpy as np
import pytest

from opacue.barrier import (
    build_regions,
    check_lack_barrier,
    check_opacity_barrier,
    decrease_exists_forall,
    decrease_forall_exists,
)
from opacue.boxes import Box, BoxUnion
from opacue.control import DtControlSystem, IssCertificate
from opacue.errors import DomainError, QuantizationError, ValidationError
from opacue.polynomial import Polynomial


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


def test_region_membership_invariants():
    cs = simple_cs()
    regions = build_regions(cs, delta=0.3, resolution=0.1)
    for x, xh in regions.r0:
        assert cs.initial_region.contains(x) and cs.secret_region.contains(x)
        assert cs.initial_region.contains(xh) and not cs.secret_region.contains(xh)
        assert abs(cs.observe(x)[0] - cs.observe(xh)[0]) <= 0.3
    for x, xh in regions.ru:
        assert abs(cs.observe(x)[0] - cs.observe(xh)[0]) > 0.3
    assert len(regions.r) == len(regions.ru) or len(regions.r) > len(regions.ru)


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
        (simple_cs(dyn=f"0.5*x1 + 0.2*u1 + {overflow}"), r"^decrease: successor \(inf,\)"),
        (dataclasses.replace(cs, output=(overflow,)), r"^regions: output \(inf,\)"),
    ]
    for plant, message in cases:
        for check in (check_opacity_barrier, check_lack_barrier):
            with pytest.raises(DomainError, match=message):
                check(GAP, plant, 0.15, 0.1)

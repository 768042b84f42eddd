"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import opacue as op
from opacue.barrier import (
    check_lack_barrier,
    check_opacity_barrier,
    decrease_exists_forall,
    decrease_forall_exists,
)
from opacue.cli import main
from opacue.simrel import AbstractionStatus

from .conftest import FIXTURES, random_system

README = Path(__file__).resolve().parent.parent / "README.md"


def _criterion(num: int, description: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}",
          flush=True)
    assert ok, f"criterion {num} failed: {description}"


def _run_cli(*argv) -> tuple[int, dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    out = buf.getvalue()
    return code, (json.loads(out) if out.strip() else {})


# -- 1: gridworld reproduction ------------------------------------------------

def test_criterion_1_gridworld():
    t0 = time.perf_counter()
    code1, report1 = _run_cli(
        "verify", "--system", str(FIXTURES / "gridworld_c1.json"),
        "--notion", "initial-state", "--delta", "0",
    )
    code2, report2 = _run_cli(
        "verify", "--system", str(FIXTURES / "gridworld_c2.json"),
        "--notion", "initial-state", "--delta", "0",
    )
    elapsed = time.perf_counter() - t0
    ok = (
        code1 == 1
        and report1["opaque"] is False
        and report1["witness"]["states"][0] == "5:0:5"  # starts at cell 5
        and code2 == 0
        and report2["opaque"] is True
        and elapsed < 1.0
    )
    _criterion(1, f"gridworld: controller 1 revealed with witness from cell 5, "
                  f"controller 2 opaque ({elapsed * 1000:.0f} ms)", ok)


# -- 2: three-way oracle agreement --------------------------------------------

def test_criterion_2_three_way_agreement():
    rng = random.Random(20260802)
    deltas = (0.0, 0.05, 0.1, 0.5)
    t0 = time.perf_counter()
    disagreements = 0
    for _ in range(500):
        sys_ = random_system(rng, max_states=5, max_inputs=3)
        for delta in deltas:
            fwd = op.verify_state_opacity(sys_, delta, op.OpacityNotion.initial_state())
            bwd = op.estimator_verdict(op.build_initial_estimator(sys_, delta))
            oracle = op.brute_force_opacity(sys_, delta, op.OpacityNotion.initial_state())
            if not (fwd.opaque == bwd.opaque == oracle.opaque):
                disagreements += 1
            cur = op.verify_state_opacity(sys_, delta, op.OpacityNotion.current_state())
            cur_oracle = op.brute_force_opacity(sys_, delta, op.OpacityNotion.current_state())
            if cur.opaque != cur_oracle.opaque:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 120.0
    _criterion(2, f"observer/estimator/brute-force agree on 500 random systems "
                  f"x 4 deltas ({elapsed:.1f} s, {disagreements} disagreements)", ok)


# -- 3: delta-monotonicity ----------------------------------------------------

def test_criterion_3_delta_monotonicity():
    rng = random.Random(20260803)
    deltas = (0.0, 0.05, 0.1, 0.5)
    notions = (
        op.OpacityNotion.initial_state(),
        op.OpacityNotion.current_state(),
        op.OpacityNotion.k_step(0),
        op.OpacityNotion.k_step(1),
        op.OpacityNotion.k_step(2),
        op.OpacityNotion.infinite_step(),
    )
    violations = 0
    for _ in range(200):
        sys_ = random_system(rng, max_states=4)
        for notion in notions:
            verdicts = [op.verify_opacity(sys_, d, notion).opaque for d in deltas]
            for smaller, larger in zip(verdicts, verdicts[1:]):
                if smaller and not larger:
                    violations += 1
    ok = violations == 0
    _criterion(3, f"opaque(d1) implies opaque(d2) for d1 <= d2 across every "
                  f"notion ({violations} violations)", ok)


# -- 4: theorem soundness via the abstraction route -----------------------------

def _pipeline_instance(rng):
    a = round(rng.uniform(0.1, 0.5), 2)
    b = round(rng.uniform(0.0, 0.4), 2)
    width = rng.choice([0.2, 0.3])
    lo = round(rng.uniform(0.0, 1.0 - width), 1)
    cert = op.affine_certificate([[a]], [[b]])
    cs = op.DtControlSystem(
        state_box=op.Box(((0.0, 1.0),)),
        initial_region=op.BoxUnion((op.Box(((0.0, 1.0),)),)),
        secret_region=op.BoxUnion((op.Box(((lo, round(lo + width, 1)),)),)),
        input_box=op.Box(((0.0, 0.1),)),
        dynamics=(f"{a!r}*x1 + {b!r}*u1",),
        output=("x1",),
        iss_cert=cert,
    )
    eta, mu = 0.05, 0.05
    eps_min = (eta + cert.g * mu) / (1 - cert.lam)
    epsilon = round(eps_min * 1.25, 3)
    delta = round(2 * epsilon + rng.choice([0.2, 0.3, 0.4]), 3)
    return cs, op.QuantizationParams(eta, mu, epsilon), delta, epsilon


def test_criterion_4_abstraction_soundness():
    rng = random.Random(20260804)
    built = opaque = contradictions = 0
    while built < 100:
        cs, params, delta, epsilon = _pipeline_instance(rng)
        if not op.evaluate_quantization_inequality(cs.iss_cert, params.eta, params.mu,
                                                   params.epsilon).passed:
            continue
        built += 1
        abstraction = op.build_abstraction(cs, params)
        sampled = op.sample_system(cs, eta=0.025, mu=0.05)
        verdict = op.opacity_via_abstraction(sampled, abstraction.system,
                                             epsilon, delta)
        if verdict.status is AbstractionStatus.OPAQUE:
            opaque += 1
            direct = op.brute_force_opacity(sampled, delta,
                                            op.OpacityNotion.initial_state())
            if not direct.opaque:
                contradictions += 1

    # headline composition: epsilon=0.1, delta=0.3 queries exactly 0.1
    probe = op.MetricSystem(("x",), ("u",), ((0.0,),), (0,), (), ((0, 0, 0),))
    headline = op.opacity_via_abstraction(probe, probe, epsilon=0.1, delta=0.3)
    ok = (
        contradictions == 0
        and opaque >= 20  # the suite must actually exercise positive transfers
        and headline.abstract_delta == 0.1
    )
    _criterion(4, f"abstraction-route verdicts never contradict brute force "
                  f"({built} pairs, {opaque} opaque, {contradictions} "
                  f"contradictions; 0.3 = 0.1 + 2*0.1 queried at exactly 0.1)", ok)


# -- 5: quantization inequality table -------------------------------------------

def test_criterion_5_quantization_table():
    cases = [
        # (c, lam, g, a, eta, mu, epsilon)
        (1.0, 0.5, 0.1, 1.0, 0.1, 0.5, 0.4),   # the named pass case, slack 0.05
        (1.0, 0.5, 0.0, 1.0, 0.1, 0.1, 0.4),
        (1.0, 0.5, 2.0, 1.0, 0.5, 0.1, 1.5),
        (1.0, 0.9, 0.1, 1.0, 0.01, 0.01, 0.5),
        (2.0, 0.4, 0.1, 1.0, 0.05, 0.05, 0.5),
        (1.0, 0.99, 0.1, 1.0, 0.1, 0.1, 1.0),
        (1.5, 0.6, 0.3, 2.0, 0.05, 0.02, 0.8),
        (1.0, 0.25, 1.0, 0.5, 0.2, 0.1, 0.6),
        (3.0, 0.3, 0.0, 1.0, 0.01, 0.9, 0.9),
        (1.0, 0.5, 0.5, 1.0, 0.05, 0.4, 0.7),
        (1.2, 0.7, 0.2, 1.5, 0.02, 0.03, 0.9),
        (1.0, 0.45, 0.05, 0.8, 0.12, 0.22, 0.33),
        (2.5, 0.35, 0.15, 1.1, 0.07, 0.09, 0.64),
        (1.0, 0.8, 0.01, 1.0, 0.001, 0.001, 0.05),
        (1.0, 0.65, 0.4, 0.9, 0.3, 0.25, 1.7),
        (4.0, 0.2, 0.2, 1.0, 0.04, 0.06, 0.44),
        (1.1, 0.55, 0.33, 1.2, 0.08, 0.11, 0.77),
        (1.0, 0.5, 0.1, 2.0, 0.1, 0.5, 0.8),
        (2.0, 0.49, 0.01, 1.0, 0.002, 0.003, 0.99),
        (1.3, 0.61, 0.07, 0.7, 0.15, 0.18, 1.21),
    ]
    assert len(cases) == 20
    worst = 0.0
    failures = 0
    for c, lam, g, a, eta, mu, epsilon in cases:
        cert = op.IssCertificate(c, lam, g, a)
        got = op.evaluate_quantization_inequality(cert, eta, mu, epsilon)
        # hand evaluation, literally the inequality's arithmetic
        rhs = epsilon / a
        lhs = c * lam * (epsilon / a) + g * mu + eta
        slack = rhs - lhs
        worst = max(worst, abs(got.lhs - lhs), abs(got.rhs - rhs),
                    abs(got.slack - slack))
        if got.passed != (lhs <= rhs):
            failures += 1
    named = op.evaluate_quantization_inequality(
        op.IssCertificate(1.0, 0.5, 0.1, 1.0), 0.1, 0.5, 0.4)
    ok = (failures == 0 and worst <= 1e-12 and named.passed
          and abs(named.slack - 0.05) <= 1e-12)
    _criterion(5, f"quantization inequality matches hand evaluation on 20 "
                  f"cases to 1e-12 (worst deviation {worst:.2e}; named case "
                  f"slack {named.slack:.17g})", ok)


# -- 6: barrier quantifier regression --------------------------------------------

_NODES = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]
_INPUT_VALUES = {0.0, 1.0, 2.0}


def _interpolate(valfn) -> op.Polynomial:
    rows, rhs = [], []
    for p in _NODES:
        for q in _NODES:
            rows.append([p**i * q**j for i in range(6) for j in range(6)])
            rhs.append(valfn(p, q))
    coef = np.linalg.solve(np.array(rows), np.array(rhs))
    return op.Polynomial(
        2, tuple(((i, j), float(coef[i * 6 + j])) for i in range(6) for j in range(6))
    )


def _jump_cs() -> op.DtControlSystem:
    return op.DtControlSystem(
        state_box=op.Box(((5.0, 7.0),)),
        initial_region=op.BoxUnion(()),
        secret_region=op.BoxUnion(()),
        input_box=op.Box(((0.0, 2.0),)),
        dynamics=("u1",),
        output=("x1",),
        iss_cert=op.IssCertificate(1.0, 0.5, 0.0, 1.0),
    )


def test_criterion_6_quantifier_regression():
    failures = 0

    # two-point truth table over the quantified predicate: the orders differ
    diagonal = [[1.0, -1.0], [-1.0, 1.0]]
    if not (decrease_forall_exists(diagonal) >= 0 > decrease_exists_forall(diagonal)):
        failures += 1

    cs = _jump_cs()
    # opacity checker must use forall-exists: the diagonal-pattern candidate
    # sample-passes; the swapped order would falsify it everywhere
    b_poly = _interpolate(
        lambda p, q: (-1.0 if p == q else 1.0)
        if p in _INPUT_VALUES and q in _INPUT_VALUES else 0.0
    )
    rep_b = check_opacity_barrier(b_poly, cs, delta=10.0, resolution=1.0)
    if rep_b.status != "sample-passed":
        failures += 1

    # lack checker must use exists-forall: the strict variant is falsified on
    # the decrease condition; the swapped order would sample-pass
    v_poly = _interpolate(
        lambda p, q: (0.0 if p == q else 2.0)
        if p in _INPUT_VALUES and q in _INPUT_VALUES else 1.0
    )
    rep_v = check_lack_barrier(v_poly, cs, delta=10.0, resolution=1.0)
    if not (rep_v.status == "falsified"
            and rep_v.witness.condition == "decrease"):
        failures += 1

    inputs = [0.0, 1.0, 2.0]
    points = [5.0, 6.0, 7.0]
    for x in points:
        for xh in points:
            base = v_poly((x, xh))
            slack = [[base - v_poly((u, uh)) - 1e-9 for uh in inputs]
                     for u in inputs]
            if decrease_forall_exists(slack) < 0:  # the swap would falsify
                failures += 1

    _criterion(6, f"opacity checker quantifies forall-exists, lack checker "
                  f"exists-forall ({failures} failures)", failures == 0)


# -- 7: small-gain table ----------------------------------------------------------

def test_criterion_7_small_gain_table():
    cases = [
        (0.5, 0.2, 0.5, 0.2),
        (0.5, 0.0, 0.9, 0.99),
        (0.9, 0.5, 0.9, 0.5),
        (0.3, 0.1, 0.4, 0.2),
        (-0.5, 0.2, 0.5, 0.3),
        (0.25, 0.6, 0.25, 0.6),
        (0.7, 0.1, 0.8, 0.15),
        (0.1, 0.45, -0.2, 0.55),
        (0.99, 0.005, 0.99, 0.005),
        (0.6, -0.3, 0.6, 0.3),
    ]
    assert len(cases) == 10
    mismatches = 0
    unit = op.Box(((0.0, 1.0),))
    for a1, b1, a2, b2 in cases:
        sub1 = op.LinearSubsystem(a1, b1, unit, unit, unit)
        sub2 = op.LinearSubsystem(a2, b2, unit, unit, unit)
        report = op.small_gain(sub1, sub2)
        g1 = abs(b1 / (1 - a1))
        g2 = abs(b2 / (1 - a2))
        if not (report.gamma1 == g1 and report.gamma2 == g2
                and report.product == g1 * g2
                and report.small_gain_ok == (g1 * g2 < 1)):
            mismatches += 1
    named = op.small_gain(
        op.LinearSubsystem(0.5, 0.2, unit, unit, unit),
        op.LinearSubsystem(0.5, 0.2, unit, unit, unit),
    )
    expected_product = abs(0.2 / 0.5) * abs(0.2 / 0.5)
    ok = (mismatches == 0 and named.product == expected_product
          and abs(named.product - 0.16) < 1e-15 and named.small_gain_ok)
    _criterion(7, f"gains match |b/(1-a)| closed form on 10 cases; the "
                  f"a=0.5, b=0.2 instance gives product "
                  f"{named.product:.17g} < 1 ({mismatches} mismatches)", ok)


# -- 8: performance guard -----------------------------------------------------------

def _perf_system(seed=1, n=12, m=3):
    rng = random.Random(seed)
    outputs = tuple((rng.randrange(21) / 20,) for _ in range(n))
    edges = set()
    for x in range(n):
        for u in range(m):
            for _ in range(rng.randint(1, 3)):
                edges.add((x, u, rng.randrange(n)))
    return op.MetricSystem(
        names=tuple(f"s{i}" for i in range(n)),
        inputs=tuple(f"u{j}" for j in range(m)),
        outputs=outputs,
        initial=tuple(sorted(rng.sample(range(n), 4))),
        secret=tuple(sorted(rng.sample(range(n), 2))),
        transitions=tuple(sorted(edges)),
    )


def test_criterion_8_performance_guard():
    cap = 2_000_000
    sys_ = _perf_system()
    t0 = time.perf_counter()
    states = len(op.build_observer(sys_, 0.1, cap=cap).forest.classes)
    elapsed = time.perf_counter() - t0
    worst_case = len(sys_.inputs) * sys_.n_states * 2 ** sys_.n_states
    docs = README.read_text()
    ok = (
        elapsed < 30.0
        and states < cap / 10               # far below the cap
        and states < worst_case / 100
        and "2^|X|" in docs                 # the bound is cited in the docs
    )
    _criterion(8, f"|X|=12, |U|=3, delta=0.1 observer: {states} "
                  f"reachable states in {elapsed:.2f} s (worst case "
                  f"{worst_case:,}; bound cited in README)", ok)

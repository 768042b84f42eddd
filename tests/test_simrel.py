"""Greatest InitSOP simulation relations and the abstraction transfer rule."""

import json
import random

import pytest

from opacue.abstraction import build_abstraction, sample_system
from opacue.boxes import Box, BoxUnion
from opacue.brute import brute_force_opacity
from opacue.control import (
    DtControlSystem, IssCertificate, QuantizationParams, parse_control_system,
)
from opacue.errors import DimensionError, PrecisionError, ValidationError
from opacue.simrel import (
    AbstractionStatus,
    RelationFailure,
    _prune_to_fixpoint,
    check_relation,
    max_initsop_relation,
    opacity_via_abstraction,
)
from opacue.system import MetricSystem, OpacityNotion, close_rows, delta_close, iter_bits

from .conftest import linear_plant, random_system, relation


def test_identity_relation_on_identical_systems():
    rng = random.Random(601)
    for _ in range(50):
        sys_ = random_system(rng)
        report = max_initsop_relation(sys_, sys_, 0.0)
        assert report.related
        pairs = set(report.relation.pairs)
        for i in range(sys_.n_states):
            assert (i, i) in pairs


def test_loop_pattern_pair_survives_pruning():
    # concrete C -> D -> D; abstract K -> K; all outputs equal. The pair
    # (C, K) must survive because C -> D is matched by K -> K with (D, K)
    # related.
    concrete = MetricSystem(
        names=("C", "D"), inputs=("u",), outputs=((0.0,), (0.0,)),
        initial=(0,), secret=(), transitions=((0, 0, 1), (1, 0, 1)),
    )
    abstract = MetricSystem(
        names=("K",), inputs=("u",), outputs=((0.05,),),
        initial=(0,), secret=(), transitions=((0, 0, 0),),
    )
    report = max_initsop_relation(concrete, abstract, 0.1)
    assert report.related
    assert (0, 0) in report.relation.pairs  # (C, K)
    assert (1, 0) in report.relation.pairs  # (D, K)


def test_deleted_abstract_transition_breaks_3a():
    rng = random.Random(602)
    found = 0
    for _ in range(100):
        sys_ = random_system(rng, max_states=4)
        if not sys_.transitions:
            continue
        drop = rng.randrange(len(sys_.transitions))
        pruned = MetricSystem(
            sys_.names, sys_.inputs, sys_.outputs, sys_.initial, sys_.secret,
            tuple(t for i, t in enumerate(sys_.transitions) if i != drop),
        )
        src = sys_.transitions[drop][0]
        identity = relation(
            sys_.n_states, ((i, i) for i in range(sys_.n_states)), epsilon=0.0
        )
        failure = check_relation(sys_, pruned, identity)
        if failure is not None and failure.condition == "3a":
            # brute re-check of clause 3a at the reported pair
            i, j = failure.concrete, failure.abstract
            rows = {p: 0 for p in range(sys_.n_states)}
            for a, b in identity.pairs:
                rows[a] |= 1 << b
            bad = any(
                rows[i2] & pruned.succ_any[j] == 0
                for i2 in iter_bits(sys_.succ_any[i])
            )
            assert bad
            found += 1
    assert found > 10


def test_pruning_result_is_order_independent():
    rng = random.Random(603)
    for _ in range(30):
        concrete = random_system(rng, max_states=4)
        abstract = random_system(rng, max_states=4)
        eps = rng.choice([0.0, 0.1, 0.3])
        report = max_initsop_relation(concrete, abstract, eps)
        survivors = (set(report.relation.pairs) if report.related
                     else _reference_fixpoint(concrete, abstract, eps, rng))
        # shuffled-order removal reaches the same fixpoint
        assert _reference_fixpoint(concrete, abstract, eps, rng) == \
            _reference_fixpoint(concrete, abstract, eps, rng)
        if report.related:
            assert _reference_fixpoint(concrete, abstract, eps, rng) == survivors


def _worklist_fixpoint(concrete, abstract, eps):
    rows = close_rows(concrete.outputs, abstract.outputs, eps)
    rows = _prune_to_fixpoint(concrete, abstract, rows)
    return {(i, j) for i in range(concrete.n_states) for j in iter_bits(rows[i])}


def _existence_failure(concrete, abstract, pairs):
    """The first failed initial-state condition, read off the definition."""
    c_secret, a_secret = set(concrete.secret), set(abstract.secret)
    for i in concrete.initial:
        if i in c_secret and not any(
                (i, j) in pairs for j in abstract.initial if j in a_secret):
            return ("1a", i, None)
    for j in abstract.initial:
        if j not in a_secret and not any(
                (i, j) in pairs for i in concrete.initial if i not in c_secret):
            return ("1b", None, j)
    return None


def _assert_fixpoint_matches_reference(concrete, abstract, eps, rng):
    pairs = _worklist_fixpoint(concrete, abstract, eps)
    assert pairs == _reference_fixpoint(concrete, abstract, eps, rng)
    # conditions 2, 3a and 3b hold; only the initial-state ones may fail
    failure = check_relation(concrete, abstract, relation(concrete.n_states, pairs, eps))
    assert failure is None or failure.condition in ("1a", "1b")
    report = max_initsop_relation(concrete, abstract, eps)
    expected = _existence_failure(concrete, abstract, pairs)
    assert report.related == (failure is None) == (expected is None)
    if expected is not None:
        got = report.failure
        assert (got.condition, got.concrete, got.abstract) == expected
    if report.related:
        assert set(report.relation.pairs) == pairs
        assert check_relation(concrete, abstract, report.relation) is None


def test_worklist_fixpoint_matches_reference_on_random_systems():
    rng = random.Random(609)
    for _ in range(120):
        concrete = random_system(rng, max_states=12, output_values=8)
        abstract = random_system(rng, max_states=12, output_values=8)
        eps = rng.choice([0.0, 0.125, 0.25, 0.1 + 0.2])
        _assert_fixpoint_matches_reference(concrete, abstract, eps, rng)


def _lattice_plant(a, b, secret):
    return DtControlSystem(
        state_box=Box(((0.0, 1.0),)),
        initial_region=BoxUnion((Box(((0.0, 1.0),)),)),
        secret_region=BoxUnion((Box((secret,)),)),
        input_box=Box(((0.0, 0.1),)),
        dynamics=(f"{a!r}*x1 + {b!r}*u1",),
        output=("x1",),
        iss_cert=IssCertificate(1.0, a, b / (1 - a), 1.0),
    )


def test_worklist_fixpoint_matches_reference_on_lattice_pairs():
    # a grid abstraction and a finer sampled system, as the abstraction
    # route relates them; small epsilons make the pruning remove pairs
    rng = random.Random(610)
    for a, b, secret in ((0.3, 0.2, (0.4, 0.7)), (0.45, 0.35, (0.1, 0.3))):
        eta = 0.05
        cs = _lattice_plant(a, b, secret)
        epsilon = 1.25 * (eta + b / (1 - a) * eta) / (1 - a)
        abstract = build_abstraction(
            cs, QuantizationParams(eta=eta, mu=eta, epsilon=epsilon)).system
        concrete = sample_system(cs, eta / 2, eta)
        for eps in (0.0, eta / 2, eta, epsilon):
            _assert_fixpoint_matches_reference(concrete, abstract, eps, rng)
    # 2-D plants, observed through x1 alone and through the whole state:
    # with x1 alone many rows carry the same value, so the refinement's
    # memo tables are hit by rows of different states
    eta = 0.25
    epsilon = 1.25 * (eta + 0.2 / 0.7 * eta) / 0.7
    for output in (["x1"], ["x1", "x2"]):
        cs = parse_control_system(json.dumps(
            {**linear_plant(2, 0.3, 0.2, (0.4, 0.7)), "output": output}))
        abstract = build_abstraction(
            cs, QuantizationParams(eta=eta, mu=0.05, epsilon=epsilon)).system
        concrete = sample_system(cs, eta / 2, 0.05)
        for eps in (0.0, eta / 4, eta / 2, eta, epsilon):
            _assert_fixpoint_matches_reference(concrete, abstract, eps, rng)


def _reference_fixpoint(concrete, abstract, eps, rng):
    """Independent pruning with randomized visit order."""
    pairs = {
        (i, j)
        for i in range(concrete.n_states)
        for j in range(abstract.n_states)
        if delta_close(concrete.outputs[i], abstract.outputs[j], eps)
    }
    changed = True
    while changed:
        changed = False
        order = list(pairs)
        rng.shuffle(order)
        for (i, j) in order:
            if (i, j) not in pairs:
                continue
            ok = True
            for i2 in iter_bits(concrete.succ_any[i]):
                if not any((i2, j2) in pairs for j2 in iter_bits(abstract.succ_any[j])):
                    ok = False
                    break
            if ok:
                for j2 in iter_bits(abstract.succ_any[j]):
                    if not any((i2, j2) in pairs for i2 in iter_bits(concrete.succ_any[i])):
                        ok = False
                        break
            if not ok:
                pairs.discard((i, j))
                changed = True
    return pairs


def test_fixpoint_soundness_recheck():
    rng = random.Random(604)
    for _ in range(50):
        concrete = random_system(rng, max_states=4)
        abstract = random_system(rng, max_states=4)
        report = max_initsop_relation(concrete, abstract, 0.1)
        if report.related:
            assert check_relation(concrete, abstract, report.relation) is None


def test_maximality_spot_checks():
    rng = random.Random(605)
    checked = 0
    for _ in range(80):
        concrete = random_system(rng, max_states=4)
        abstract = random_system(rng, max_states=4)
        eps = 0.1
        report = max_initsop_relation(concrete, abstract, eps)
        if not report.related:
            continue
        pairs = set(report.relation.pairs)
        excluded = [
            (i, j)
            for i in range(concrete.n_states)
            for j in range(abstract.n_states)
            if (i, j) not in pairs
            and delta_close(concrete.outputs[i], abstract.outputs[j], eps)
        ]
        for extra in excluded[:3]:
            bigger = relation(concrete.n_states, pairs | {extra}, eps)
            failure = check_relation(concrete, abstract, bigger)
            assert failure is not None
            assert failure.condition in ("3a", "3b")
            checked += 1
    assert checked > 10


def _perturb_outputs(sys_, rng, eps):
    outputs = tuple(
        tuple(v + rng.uniform(-eps, eps) for v in out) for out in sys_.outputs
    )
    return MetricSystem(sys_.names, sys_.inputs, outputs, sys_.initial,
                        sys_.secret, sys_.transitions)


def test_transitive_composition_at_summed_epsilon():
    rng = random.Random(606)
    composed_checked = 0
    for _ in range(60):
        a = random_system(rng, max_states=4)
        b = _perturb_outputs(a, rng, 0.05)
        c = _perturb_outputs(b, rng, 0.1)
        r1 = max_initsop_relation(a, b, 0.05)
        r2 = max_initsop_relation(b, c, 0.1)
        if not (r1.related and r2.related):
            continue
        comp = sorted({
            (i, k)
            for (i, j) in r1.relation.pairs
            for (j2, k) in r2.relation.pairs
            if j == j2
        })
        if not comp:
            continue
        failure = check_relation(a, c, relation(a.n_states, comp, 0.05 + 0.1))
        # conditions 2/3 must hold at the summed slack (condition 1 can
        # legitimately fail for the composite, so ignore those outcomes)
        assert failure is None or failure.condition in ("1a", "1b")
        composed_checked += 1
    assert composed_checked > 5


def test_check_relation_rejects_mismatched_dimensions_and_far_outputs():
    a = MetricSystem(("x", "y"), ("u",), ((0.0,), (1.0,)), (0,), (), ())
    b = MetricSystem(("p",), ("u",), ((0.0, 1.0),), (0,), (), ())
    with pytest.raises(DimensionError):
        check_relation(a, b, relation(a.n_states, ((0, 0),), 0.1))
    # (y, x) is not epsilon-close: condition 2 fails there, not before
    failure = check_relation(a, a, relation(a.n_states, ((0, 0), (1, 0)), 0.5))
    assert failure == RelationFailure("2", concrete=1, abstract=0,
                                      detail="outputs not epsilon-close")
    assert check_relation(a, a, relation(a.n_states, ((0, 0), (1, 1)), 0.5)) is None


def test_dimension_mismatch_rejected():
    a = MetricSystem(("x",), ("u",), ((0.0,),), (0,), (), ())
    b = MetricSystem(("y",), ("u",), ((0.0, 1.0),), (0,), (), ())
    with pytest.raises(DimensionError):
        max_initsop_relation(a, b, 0.1)


def test_precision_gate():
    sys_ = MetricSystem(("x",), ("u",), ((0.0,),), (0,), (), ())
    with pytest.raises(PrecisionError):
        opacity_via_abstraction(sys_, sys_, epsilon=0.2, delta=0.3)


def test_transfer_rejects_non_finite_thresholds():
    sys_ = MetricSystem(("x",), ("u",), ((0.0,),), (0,), (), ())
    for epsilon, delta in ((0.0, float("nan")), (0.0, float("inf")),
                           (float("nan"), 0.3), (float("inf"), 0.3)):
        with pytest.raises(ValidationError, match="finite"):
            opacity_via_abstraction(sys_, sys_, epsilon=epsilon, delta=delta)


def test_epsilon_zero_identical_systems_reduces_to_direct_verification():
    rng = random.Random(607)
    for _ in range(50):
        sys_ = random_system(rng)
        for delta in (0.0, 0.2):
            verdict = opacity_via_abstraction(sys_, sys_, 0.0, delta)
            direct = brute_force_opacity(sys_, delta, OpacityNotion.initial_state())
            if direct.opaque:
                assert verdict.status is AbstractionStatus.OPAQUE
            else:
                assert verdict.status is AbstractionStatus.INCONCLUSIVE


def test_abstraction_route_never_reports_not_opaque():
    rng = random.Random(608)
    for _ in range(100):
        concrete = random_system(rng, max_states=4)
        abstract = random_system(rng, max_states=4)
        verdict = opacity_via_abstraction(concrete, abstract, 0.05, 0.2)
        assert verdict.status in (AbstractionStatus.OPAQUE,
                                  AbstractionStatus.INCONCLUSIVE)
        if verdict.status is AbstractionStatus.OPAQUE:
            # soundness: the concrete system really is opaque at delta
            assert brute_force_opacity(concrete, 0.2,
                                       OpacityNotion.initial_state()).opaque


def test_transfer_goes_through_the_relation_at_its_own_epsilon():
    # Related at epsilon = 0.2, not at 0.05. A relation computed at 0.2 and
    # a transfer at epsilon = 0.05, delta = 0.3 would query the abstract
    # side at 0.2, where it is opaque, and answer opaque for a concrete
    # system that is not.
    concrete = MetricSystem(("s", "n"), ("u",), ((0.0,), (0.35,)), (0, 1), (0,),
                            ((0, 0, 0), (1, 0, 1)))
    abstract = MetricSystem(("as", "an"), ("u",), ((0.15,), (0.2,)), (0, 1), (0,),
                            ((0, 0, 0), (1, 0, 1)))
    assert not brute_force_opacity(concrete, 0.3, OpacityNotion.initial_state()).opaque
    assert max_initsop_relation(concrete, abstract, 0.2).related
    verdict = opacity_via_abstraction(concrete, abstract, 0.05, 0.3)
    assert verdict.status is AbstractionStatus.INCONCLUSIVE
    assert verdict.report == max_initsop_relation(concrete, abstract, 0.05)
    assert not verdict.report.related and verdict.report.failure.condition == "1a"


def test_headline_parameter_arithmetic():
    sys_ = MetricSystem(("x",), ("u",), ((0.0,),), (0,), (), ((0, 0, 0),))
    verdict = opacity_via_abstraction(sys_, sys_, epsilon=0.1, delta=0.3)
    assert verdict.abstract_delta == 0.1

"""Forward observer construction and initial/current-state verdicts."""

import random

import pytest

from opacue.brute import brute_force_opacity, confirm_witness
from opacue.errors import InternalError, ResourceError, ValidationError
from opacue.estimator import build_initial_estimator
from opacue.observer import build_observer, observer_verdict, verify_state_opacity
from opacue.system import MetricSystem, NotionKind, OpacityNotion, iter_bits

from .conftest import random_system


def both_routes(sys_, delta, notion):
    """The engine's verdict and the pair observer's."""
    return (verify_state_opacity(sys_, delta, notion),
            observer_verdict(build_observer(sys_, delta), notion))


def two_state(delta_outputs=(0.00, 0.05)):
    return MetricSystem(
        names=("s0", "s1"),
        inputs=("u",),
        outputs=tuple((v,) for v in delta_outputs),
        initial=(0, 1),
        secret=(0,),
        transitions=(),
    )


def test_no_transitions_only_initial_states():
    found = build_observer(two_state(), 0.1).forest
    assert len(found.classes) == found.parents.count(None) == 2
    assert found.edges == []


def test_initial_pairs_follow_the_closeness_threshold():
    sys_ = two_state()
    n = sys_.n_states

    def pairs_of(z):
        return {(b // n, b % n) for b in iter_bits(z)}

    def seed_pairs(found, ref):
        return next(pairs for (x, pairs), parent in zip(found.classes, found.parents)
                    if parent is None and x == ref)

    assert pairs_of(seed_pairs(build_observer(sys_, 0.1).forest, 0)) == {(0, 0), (1, 1)}
    assert pairs_of(seed_pairs(build_observer(sys_, 0.01).forest, 0)) == {(0, 0)}


def test_initial_count_equals_initial_states_and_diagonal():
    rng = random.Random(201)
    for _ in range(100):
        sys_ = random_system(rng)
        found = build_observer(sys_, 0.1).forest
        seeds = [c for c, parent in zip(found.classes, found.parents) if parent is None]
        assert len(seeds) == len(sys_.initial)
        n = sys_.n_states
        for _, pairs in seeds:
            for bit in iter_bits(pairs):
                i, c = bit // n, bit % n
                assert i == c and i in sys_.initial


def test_empty_secret_always_opaque():
    rng = random.Random(202)
    for _ in range(50):
        sys_ = random_system(rng)
        sys_ = MetricSystem(sys_.names, sys_.inputs, sys_.outputs,
                            sys_.initial, (), sys_.transitions)
        for delta in (0.0, 0.5):
            for notion in (OpacityNotion.initial_state(), OpacityNotion.current_state()):
                assert verify_state_opacity(sys_, delta, notion).opaque


def test_empty_initial_set_vacuously_opaque():
    sys_ = MetricSystem(("a",), ("u",), ((0.0,),), (), (0,), ())
    assert verify_state_opacity(sys_, 0.0, OpacityNotion.initial_state()).opaque
    assert verify_state_opacity(sys_, 0.0, OpacityNotion.current_state()).opaque


def test_gridworld_controller1_not_opaque_witness_from_cell5(gridworld_c1):
    for verdict in both_routes(gridworld_c1, 0.0, OpacityNotion.initial_state()):
        assert not verdict.opaque
        assert gridworld_c1.names[verdict.witness.states[0]] == "5:0:5"
        assert confirm_witness(gridworld_c1, 0.0, OpacityNotion.initial_state(),
                               verdict.witness)


def test_gridworld_controller2_opaque(gridworld_c2):
    for verdict in both_routes(gridworld_c2, 0.0, OpacityNotion.initial_state()):
        assert verdict.opaque


def test_rejects_pre_and_delayed_notions(gridworld_c1):
    with pytest.raises(ValueError):  # pre-opacity is not a notion at all
        NotionKind("pre")
    with pytest.raises(ValidationError):
        verify_state_opacity(gridworld_c1, 0.0, OpacityNotion.k_step(1))
    with pytest.raises(ValidationError):
        verify_state_opacity(gridworld_c1, -0.5, OpacityNotion.initial_state())
    obs = build_observer(gridworld_c1, 0.0)
    with pytest.raises(ValidationError):
        observer_verdict(obs, OpacityNotion.k_step(1))


@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_non_finite_delta_is_rejected(gridworld_c2, delta):
    for notion in (OpacityNotion.initial_state(), OpacityNotion.current_state()):
        with pytest.raises(ValidationError):
            verify_state_opacity(gridworld_c2, delta, notion)
    with pytest.raises(ValidationError):
        build_observer(gridworld_c2, delta)


def test_resource_cap(gridworld_c1):
    with pytest.raises(ResourceError):
        build_observer(gridworld_c1, 0.0, cap=3)


def test_construction_is_deterministic():
    rng = random.Random(203)
    sys_ = random_system(rng, max_states=5)
    a = build_observer(sys_, 0.1).forest
    b = build_observer(sys_, 0.1).forest
    assert a.classes == b.classes
    assert a.edges == b.edges
    assert a.parents == b.parents


def test_witnesses_confirmed_by_definition_replay():
    rng = random.Random(204)
    confirmed = 0
    for _ in range(200):
        sys_ = random_system(rng)
        for delta in (0.0, 0.1):
            for notion in (OpacityNotion.initial_state(), OpacityNotion.current_state()):
                for verdict in both_routes(sys_, delta, notion):
                    if not verdict.opaque:
                        assert confirm_witness(sys_, delta, notion, verdict.witness)
                        confirmed += 1
    assert confirmed > 50  # the corpus must actually exercise failures


def test_agreement_with_brute_force_small_batch():
    rng = random.Random(205)
    for _ in range(100):
        sys_ = random_system(rng)
        for delta in (0.0, 0.1):
            for notion in (OpacityNotion.initial_state(), OpacityNotion.current_state()):
                engine, paper = both_routes(sys_, delta, notion)
                oracle = brute_force_opacity(sys_, delta, notion)
                assert engine.opaque == paper.opaque == oracle.opaque


def test_delta_zero_matches_symbolic_equality_variant():
    """Exact verdicts coincide with output vectors replaced by their
    bitwise-equality class ids."""
    rng = random.Random(206)
    for _ in range(100):
        sys_ = random_system(rng, output_values=4)  # force output collisions
        classes: dict[tuple, int] = {}
        symbolic_outputs = tuple(
            (float(classes.setdefault(out, len(classes))),) for out in sys_.outputs
        )
        symbolic = MetricSystem(sys_.names, sys_.inputs, symbolic_outputs,
                                sys_.initial, sys_.secret, sys_.transitions)
        for notion in (OpacityNotion.initial_state(), OpacityNotion.current_state()):
            assert (verify_state_opacity(sys_, 0.0, notion).opaque
                    == verify_state_opacity(symbolic, 0.0, notion).opaque)


def test_an_empty_estimate_is_an_internal_error(monkeypatch):
    # a closeness table that drops the reference state itself breaks the
    # invariant both constructions rely on; the check survives python -O
    chain = MetricSystem(("s0", "s1"), ("u",), ((0.0,), (1.0,)), (0,), (0,),
                         ((0, 0, 1),))
    monkeypatch.setattr(MetricSystem, "close_bits", lambda self, x, delta: 0b01)
    with pytest.raises(InternalError):
        build_observer(chain, 0.0)
    with pytest.raises(InternalError):
        build_initial_estimator(chain, 0.0)

"""Backward initial-state estimator construction and verification."""

import random

import pytest

from opacue.brute import brute_force_opacity, confirm_witness
from opacue.errors import ResourceError
from opacue.estimator import build_initial_estimator, estimator_verdict
from opacue.observer import verify_state_opacity
from opacue.system import MetricSystem, OpacityNotion, bits_of, iter_bits

from .conftest import random_system


def test_initial_estimates_are_full_set_above_output_diameter():
    rng = random.Random(301)
    for _ in range(30):
        sys_ = random_system(rng)
        diameter = max(
            abs(a[0] - b[0]) for a in sys_.outputs for b in sys_.outputs
        )
        found = build_initial_estimator(sys_, diameter).forest
        full = bits_of(range(sys_.n_states))
        seeds = [c for c, parent in zip(found.classes, found.parents) if parent is None]
        assert len(seeds) == sys_.n_states
        for _, estimate in seeds:
            assert estimate == full


def test_initial_states_cover_every_state_with_its_ball():
    sys_ = MetricSystem(
        names=("a", "b", "c"),
        inputs=("u",),
        outputs=((0.0,), (0.05,), (1.0,)),
        initial=(0,),
        secret=(1,),
        transitions=((0, 0, 1),),
    )
    found = build_initial_estimator(sys_, 0.1).forest
    assert found.parents.count(None) == 3
    seeds = [i for i, parent in enumerate(found.parents) if parent is None]
    balls = {found.classes[i][0]: set(iter_bits(found.classes[i][1])) for i in seeds}
    assert balls[0] == {0, 1}
    assert balls[1] == {0, 1}
    assert balls[2] == {2}
    assert all(found.depths[i] == 0 for i in seeds)


def test_two_state_chain_backward_step():
    sys_ = MetricSystem(
        names=("s0", "s1"),
        inputs=("u",),
        outputs=((0.0,), (1.0,)),
        initial=(0,),
        secret=(0,),
        transitions=((0, 0, 1),),
    )
    found = build_initial_estimator(sys_, 0.0).forest
    # from (s1, {s1}) one backward u-step reaches (s0, {s0})
    start = next(i for i, (ref, _) in enumerate(found.classes)
                 if found.parents[i] is None and ref == 1)
    steps = [(src, u, dst) for (src, u, dst) in found.edges if src == start]
    assert len(steps) == 1
    _, u, dst = steps[0]
    assert found.classes[dst][0] == 0
    assert set(iter_bits(found.classes[dst][1])) == {0}
    # (s0, {s0}) is itself an initial estimator state, so its min depth is 0
    assert found.depths[dst] == 0


def test_estimator_agrees_with_observer_on_initial_state_opacity():
    rng = random.Random(302)
    for _ in range(200):
        sys_ = random_system(rng)
        for delta in (0.0, 0.05, 0.1, 0.5):
            via_obs = verify_state_opacity(sys_, delta, OpacityNotion.initial_state())
            via_est = estimator_verdict(build_initial_estimator(sys_, delta))
            assert via_obs.opaque == via_est.opaque
            if not via_est.opaque:
                assert confirm_witness(sys_, delta, OpacityNotion.initial_state(),
                                       via_est.witness)


def test_estimator_witness_is_forward_path(gridworld_c1):
    verdict = estimator_verdict(build_initial_estimator(gridworld_c1, 0.0))
    assert not verdict.opaque
    w = verdict.witness
    edges = set(gridworld_c1.transitions)
    for i, u in enumerate(w.inputs):
        assert (w.states[i], u, w.states[i + 1]) in edges
    assert gridworld_c1.names[w.states[0]] == "5:0:5"


def test_estimator_resource_cap(gridworld_c1):
    with pytest.raises(ResourceError):
        build_initial_estimator(gridworld_c1, 0.0, cap=3)


def test_estimator_verdict_reads_a_built_estimator(gridworld_c1, gridworld_c2):
    for sys_ in (gridworld_c1, gridworld_c2):
        verdict = estimator_verdict(build_initial_estimator(sys_, 0.0))
        oracle = brute_force_opacity(sys_, 0.0, OpacityNotion.initial_state())
        assert verdict.opaque == oracle.opaque
        assert verdict.opaque or confirm_witness(sys_, 0.0, OpacityNotion.initial_state(),
                                                 verdict.witness)

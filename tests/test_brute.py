"""The definition-level search itself: termination, stats, witnesses."""

import random

import pytest

from opacue.api import verify_opacity
from opacue.brute import brute_force_opacity, confirm_witness
from opacue.errors import ValidationError
from opacue.system import MetricSystem, OpacityNotion
from opacue.verdict import Witness

from .conftest import random_system

ALL_NOTIONS = (
    OpacityNotion.initial_state(),
    OpacityNotion.current_state(),
    OpacityNotion.k_step(2),
    OpacityNotion.infinite_step(),
)


def test_no_secret_states_always_opaque():
    rng = random.Random(501)
    for _ in range(30):
        sys_ = random_system(rng)
        sys_ = MetricSystem(sys_.names, sys_.inputs, sys_.outputs,
                            sys_.initial, (), sys_.transitions)
        for notion in ALL_NOTIONS:
            assert brute_force_opacity(sys_, 0.1, notion).opaque


def test_stats_hold_only_the_class_count():
    rng = random.Random(502)
    for _ in range(30):
        sys_ = random_system(rng)
        for notion in ALL_NOTIONS:
            stats = brute_force_opacity(sys_, 0.1, notion).stats
            assert list(stats) == ["classes"] and stats["classes"] >= 0


def test_witness_reaches_a_revealing_step_three_deep():
    # chain revealing only at length 3: s0(secret) -> s1 -> s2 -> s3 with a
    # decoy matching run dying at the last step
    sys_ = MetricSystem(
        names=("s0", "d0", "s1", "s2", "s3", "d1", "d2"),
        inputs=("u",),
        outputs=((0.0,), (0.0,), (1.0,), (2.0,), (3.0,), (1.0,), (2.0,)),
        initial=(0, 1),
        secret=(0,),
        transitions=(
            (0, 0, 2), (2, 0, 3), (3, 0, 4),
            (1, 0, 5), (5, 0, 6),  # decoy dies after two steps
        ),
    )
    verdict = brute_force_opacity(sys_, 0.0, OpacityNotion.initial_state())
    assert not verdict.opaque
    assert verdict.witness.states == (0, 2, 3, 4)


def test_gridworld_counterexample_family(gridworld_c1):
    verdict = brute_force_opacity(gridworld_c1, 0.0, OpacityNotion.initial_state())
    assert not verdict.opaque
    assert gridworld_c1.names[verdict.witness.states[0]] == "5:0:5"


def test_confirm_witness_rejects_fabrications(gridworld_c1):
    # a path that exists but reveals nothing
    bogus = Witness(states=(0, 1), inputs=(0,), revealing_instant=None)
    start = gridworld_c1.index["0:0:0"]
    nxt = [dst for (src, u, dst) in gridworld_c1.transitions if src == start][0]
    u = [u for (src, u, dst) in gridworld_c1.transitions if src == start][0]
    bogus = Witness(states=(start, nxt), inputs=(u,), revealing_instant=None)
    assert not confirm_witness(gridworld_c1, 0.0, OpacityNotion.initial_state(), bogus)
    # a non-path
    broken = Witness(states=(start, start), inputs=(u,), revealing_instant=None)
    assert not confirm_witness(gridworld_c1, 0.0, OpacityNotion.initial_state(), broken)


def test_invalid_arguments():
    sys_ = MetricSystem(("a",), ("u",), ((0.0,),), (0,), (0,), ())
    with pytest.raises(ValidationError):
        brute_force_opacity(sys_, -1.0, OpacityNotion.initial_state())
    with pytest.raises(ValidationError):
        brute_force_opacity(sys_, float("nan"), OpacityNotion.initial_state())



def test_confirm_witness_rejects_each_broken_claim():
    # s: secret initial, n: non-secret initial, t: secret, not initial;
    # s and t share an output, n is delta-apart from both
    sys_ = MetricSystem(("s", "n", "t"), ("u",), ((0.0,), (1.0,), (0.0,)),
                        (0, 1), (0, 2), ((0, 0, 2), (1, 0, 1), (2, 0, 2)))
    initial, current = OpacityNotion.initial_state(), OpacityNotion.current_state()
    infinite = OpacityNotion.infinite_step()

    def confirm(notion, states, instant=None):
        inputs = (0,) * (len(states) - 1)
        return confirm_witness(sys_, 0.0, notion, Witness(states, inputs, instant))

    # initial-state: the path must start on a secret initial state
    assert confirm(initial, (0, 2))
    assert not confirm(initial, (1, 1)) and not confirm(initial, (2, 2))
    # a one-state path must name a state of the system
    assert not confirm(initial, (3,)) and not confirm(initial, (-1,))
    # every step must stay in range: a negative index would wrap around to
    # the real step (0, u, 2) or (2, u, 2), a large one raise
    for states, inputs in (((0, 2), (-1,)), ((0, 2), (1,)), ((0, -1), (0,)),
                           ((0, 3), (0,)), ((0, -3, 2), (0, 0)), ((0, 2), (float("nan"),))):
        assert not confirm_witness(sys_, 0.0, initial, Witness(states, inputs))
    assert not confirm(current, (-1, 2), 1) and not confirm(current, (2, -1), 1)
    # current-state: the path must end on a secret state
    assert confirm(current, (0, 2), 1)
    assert not confirm(current, (1, 1), 1)
    # delayed: the instant must be given, on the path, and on a secret state
    assert confirm(infinite, (0, 2), 0)
    for instant in (None, -1, 2):
        assert not confirm(infinite, (0, 2), instant)
    assert not confirm(infinite, (1, 1), 0)
    # k-step: the instant must lie at most k steps before the end
    assert confirm(OpacityNotion.k_step(1), (0, 2), 0)
    assert not confirm(OpacityNotion.k_step(0), (0, 2), 0)


def test_witness_replay_builds_only_the_rows_of_its_states(monkeypatch):
    rng = random.Random(18)
    witnesses = []
    for _ in range(300):
        sys_ = random_system(rng, max_states=8)
        for notion in (OpacityNotion.initial_state(), OpacityNotion.current_state(),
                       OpacityNotion.k_step(1), OpacityNotion.infinite_step()):
            verdict = verify_opacity(sys_, 0.1, notion)
            if verdict.witness is not None:
                witnesses.append((sys_, notion, verdict.witness))
    # the rows of the other states would be wasted work
    assert sum(len(set(w.states)) < sys_.n_states for sys_, _, w in witnesses) > 100
    calls = []
    close_bits = MetricSystem.close_bits
    monkeypatch.setattr(MetricSystem, "close_bits",
                        lambda self, x, delta: calls.append(x) or close_bits(self, x, delta))
    for sys_, notion, witness in witnesses:
        calls.clear()
        assert confirm_witness(sys_, 0.1, notion, witness)
        assert len(calls) <= len(set(witness.states))

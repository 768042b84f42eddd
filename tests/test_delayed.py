"""K-step and infinite-step opacity: the engine and the product method
versus the oracle."""

import random

import pytest

from opacue.brute import brute_force_opacity, confirm_witness
from opacue.delayed import product_opacity, verify_delayed_opacity
from opacue.errors import ValidationError
from opacue.observer import verify_state_opacity
from opacue.system import MetricSystem, OpacityNotion

from .conftest import random_system


def both_routes(sys_, delta, notion):
    """The engine's verdict and the product method's."""
    return (verify_delayed_opacity(sys_, delta, notion),
            product_opacity(sys_, delta, notion))


def delayed_reveal_system():
    """Secret visit at instant 1 is exposed only by the instant-2 output.

    From A the system moves to secret B or non-secret C (same output); B
    returns to A (output 0) while C stays at C (output 1), so one step later
    the earlier visit to B is betrayed.
    """
    return MetricSystem(
        names=("A", "B", "C"),
        inputs=("u",),
        outputs=((0.0,), (1.0,), (1.0,)),
        initial=(0,),
        secret=(1,),
        transitions=((0, 0, 1), (0, 0, 2), (1, 0, 0), (2, 0, 2)),
    )


def test_k_zero_equals_current_state():
    rng = random.Random(401)
    for _ in range(200):
        sys_ = random_system(rng)
        for delta in (0.0, 0.1, 0.5):
            current = verify_state_opacity(sys_, delta, OpacityNotion.current_state())
            for k0 in both_routes(sys_, delta, OpacityNotion.k_step(0)):
                assert current.opaque == k0.opaque


def test_delayed_reveal_instance():
    sys_ = delayed_reveal_system()
    assert verify_state_opacity(sys_, 0.0, OpacityNotion.current_state()).opaque
    for k0 in both_routes(sys_, 0.0, OpacityNotion.k_step(0)):
        assert k0.opaque
    for notion in (OpacityNotion.k_step(1), OpacityNotion.k_step(5),
                   OpacityNotion.infinite_step()):
        for verdict in both_routes(sys_, 0.0, notion):
            assert not verdict.opaque
            assert confirm_witness(sys_, 0.0, notion, verdict.witness)
            assert verdict.witness.revealing_instant == 1
        # the independent oracle agrees
        assert not brute_force_opacity(sys_, 0.0, notion).opaque


def test_notion_monotonicity_on_random_systems():
    """Opacity under a stronger notion implies it under the weaker ones."""
    rng = random.Random(402)
    for _ in range(150):
        sys_ = random_system(rng, max_states=4)
        for delta in (0.0, 0.1):
            chain = [
                verify_delayed_opacity(sys_, delta, OpacityNotion.k_step(k)).opaque
                for k in (0, 1, 2, 3)
            ]
            chain.append(
                verify_delayed_opacity(sys_, delta, OpacityNotion.infinite_step()).opaque
            )
            for weaker, stronger in zip(chain, chain[1:]):
                assert (not stronger) or weaker, chain


def test_product_method_agrees_with_oracle():
    rng = random.Random(403)
    for _ in range(150):
        sys_ = random_system(rng, max_states=4)
        for delta in (0.0, 0.1, 0.5):
            for notion in (OpacityNotion.k_step(1), OpacityNotion.k_step(2),
                           OpacityNotion.infinite_step()):
                want = brute_force_opacity(sys_, delta, notion)
                for got in both_routes(sys_, delta, notion):
                    assert got.opaque == want.opaque
                    if not got.opaque:
                        assert confirm_witness(sys_, delta, notion, got.witness)


def test_delayed_witness_respects_the_delay_bound():
    rng = random.Random(404)
    found = 0
    for _ in range(200):
        sys_ = random_system(rng, max_states=4)
        for verdict in both_routes(sys_, 0.1, OpacityNotion.k_step(1)):
            if not verdict.opaque:
                w = verdict.witness
                assert len(w.states) - 1 - w.revealing_instant <= 1
                found += 1
    assert found > 40


def test_rejects_wrong_notions():
    sys_ = delayed_reveal_system()
    with pytest.raises(ValidationError):
        verify_delayed_opacity(sys_, 0.0, OpacityNotion.initial_state())
    with pytest.raises(ValidationError):
        product_opacity(sys_, 0.0, OpacityNotion.initial_state())


@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_non_finite_delta_is_rejected(delta):
    sys_ = delayed_reveal_system()
    for notion in (OpacityNotion.k_step(1), OpacityNotion.infinite_step()):
        with pytest.raises(ValidationError):
            verify_delayed_opacity(sys_, delta, notion)
        with pytest.raises(ValidationError):
            product_opacity(sys_, delta, notion)

"""Grid abstraction construction: ball rule, completeness, trajectory tracking."""

import random

import pytest

from opacue.abstraction import _ball_points, build_abstraction, sample_system
from opacue.boxes import Box, BoxUnion, grid_interval
from opacue.control import DtControlSystem, IssCertificate, QuantizationParams
from opacue.errors import DomainError, QuantizationError, ResourceError
from opacue.simrel import max_initsop_relation
from opacue.system import post


def linear_cs(a=0.5, b=1.0, secret=(0.0, 0.5)):
    return DtControlSystem(
        state_box=Box(((0.0, 1.0),)),
        initial_region=BoxUnion((Box(((0.0, 1.0),)),)),
        secret_region=BoxUnion((Box((secret,)),)),
        input_box=Box(((0.0, 0.1),)),
        dynamics=(f"{a!r}*x1 + {b!r}*u1",),
        output=("x1",),
        iss_cert=IssCertificate(1.0, a, b / (1 - a), 1.0),
    )


def test_ball_rule_example():
    cs = linear_cs()
    params = QuantizationParams(eta=0.5, mu=0.1, epsilon=1.5)
    result = build_abstraction(cs, params)
    s = result.system
    assert s.names == ("0.0", "0.5", "1.0")
    assert s.initial == (0, 1, 2)
    # f(1.0, 0.0) = 0.5; all three grid points are within eta = 0.5
    succ = post(s, {s.index["1.0"]}, "0.0")
    assert sorted(s.names[i] for i in succ) == ["0.0", "0.5", "1.0"]
    assert result.certified


def test_secret_states_are_lattice_members_of_secret_region():
    cs = linear_cs(secret=(0.0, 0.5))
    result = build_abstraction(cs, QuantizationParams(eta=0.25, mu=0.1, epsilon=1.5))
    s = result.system
    assert [s.names[i] for i in s.secret] == ["0.0", "0.25", "0.5"]


def test_ball_rule_against_nearest_lattice_enumeration():
    rng = random.Random(801)
    cs = linear_cs(a=0.4, b=0.8)
    params = QuantizationParams(eta=0.1, mu=0.05, epsilon=1.0)
    result = build_abstraction(cs, params)
    s = result.system
    points = [float(name) for name in s.names]
    agree = 0
    for _ in range(1000):
        xi = rng.randrange(len(s.names))
        ui = rng.randrange(len(s.inputs))
        image = cs.step((points[xi],), (float(s.inputs[ui]),))[0]
        expected = {
            s.names[i] for i, p in enumerate(points) if abs(p - image) <= params.eta
        }
        got = {s.names[i] for i in post(s, {xi}, s.inputs[ui])}
        assert got == expected
        agree += 1
    assert agree == 1000


def _scanned_ball_points(image, axes, eta):
    per_dim = [[v for v in axis if abs(v - value) <= eta] for axis, value in zip(axes, image)]
    out = [()]
    for hits in per_dim:
        out = [p + (v,) for p in out for v in hits]
    return out


def test_ball_points_match_the_linear_scan():
    rng = random.Random(802)
    for eta, bounds in ((0.1, ((0.0, 1.0),)), (0.05, ((0.0, 1.0), (-0.5, 0.5))),
                        (0.025, ((0.0, 1.0), (0.0, 0.5))), (1 / 3, ((0.0, 2.0),) * 3)):
        axes = [grid_interval(lo, hi, eta) for lo, hi in bounds]
        for _ in range(400):
            image = []
            for axis, (lo, hi) in zip(axes, bounds):
                pick = rng.random()
                if pick < 0.4:  # exactly eta from a lattice point, up to rounding
                    image.append(rng.choice(axis) + rng.choice((-eta, eta)))
                elif pick < 0.5:  # off the box, some within eta of it
                    image.append(rng.choice((lo - rng.uniform(0, 2 * eta),
                                             hi + rng.uniform(0, 2 * eta))))
                elif pick < 0.6:
                    image.append(rng.choice(axis))
                else:
                    image.append(rng.uniform(lo, hi))
            assert _ball_points(image, axes, eta) == _scanned_ball_points(image, axes, eta)


def test_refining_eta_keeps_images_matched():
    cs = linear_cs(a=0.4, b=0.8)
    coarse = build_abstraction(cs, QuantizationParams(eta=0.2, mu=0.05, epsilon=1.0))
    fine = build_abstraction(cs, QuantizationParams(eta=0.1, mu=0.05, epsilon=1.0))
    fine_points = [float(n) for n in fine.system.names]
    for name in coarse.system.names:
        x = float(name)
        for u_label in coarse.system.inputs:
            image = cs.step((x,), (float(u_label),))[0]
            nearest = min(abs(p - image) for p in fine_points)
            assert nearest <= 0.1  # the finer grid still covers the image


def test_trajectory_outputs_stay_epsilon_close():
    """Greedy abstract tracking of concrete runs stays within epsilon."""
    rng = random.Random(802)
    cs = linear_cs(a=0.5, b=1.0)
    params = QuantizationParams(eta=0.05, mu=0.05, epsilon=0.5)
    result = build_abstraction(cs, params)
    s = result.system
    points = [float(n) for n in s.names]
    input_values = [float(u) for u in s.inputs]
    eps = params.epsilon
    for _ in range(20):
        x = rng.choice(points)
        xh = x
        for _ in range(15):
            u = rng.uniform(0, 0.1)
            x = cs.step((x,), (u,))[0]
            x = min(max(x, 0.0), 1.0)  # concrete flow stays in the box here
            uh = min(input_values, key=lambda v: abs(v - u))
            image = cs.step((xh,), (uh,))[0]
            candidates = [p for p in points if abs(p - image) <= params.eta]
            assert candidates
            xh = min(candidates, key=lambda p: abs(p - x))
            assert abs(x - xh) <= eps + 1e-12


def test_sampled_system_relates_to_abstraction():
    cs = linear_cs(a=0.4, b=0.8, secret=(0.0, 0.3))
    params = QuantizationParams(eta=0.1, mu=0.05, epsilon=1.0)
    abstraction = build_abstraction(cs, params)
    sampled = sample_system(cs, eta=0.05, mu=0.05)
    report = max_initsop_relation(sampled, abstraction.system, params.epsilon)
    assert report.related


def test_quantization_gate_and_unsound_flag():
    cs = linear_cs()
    bad = QuantizationParams(eta=0.5, mu=0.1, epsilon=0.5)  # slack negative
    with pytest.raises(QuantizationError):
        build_abstraction(cs, bad)
    result = build_abstraction(cs, bad, allow_unsound=True)
    assert not result.certified
    assert result.check.slack < 0


def test_span_guards():
    cs = linear_cs(secret=(0.0, 0.1))
    with pytest.raises(QuantizationError):
        # eta exceeds the secret region span
        build_abstraction(cs, QuantizationParams(eta=0.2, mu=0.05, epsilon=2.0))
    with pytest.raises(QuantizationError):
        # mu exceeds the input box span
        build_abstraction(linear_cs(), QuantizationParams(eta=0.1, mu=0.2, epsilon=2.0))


def test_domain_error_when_dynamics_escape():
    cs = DtControlSystem(
        state_box=Box(((0.0, 1.0),)),
        initial_region=BoxUnion((Box(((0.0, 1.0),)),)),
        secret_region=BoxUnion((Box(((0.0, 0.5),)),)),
        input_box=Box(((0.0, 0.1),)),
        dynamics=("x1 + 10",),
        output=("x1",),
        iss_cert=IssCertificate(1.0, 0.5, 0.0, 1.0),
    )
    with pytest.raises(DomainError) as exc:
        build_abstraction(cs, QuantizationParams(eta=0.5, mu=0.1, epsilon=2.0),
                          allow_unsound=True)
    assert exc.value.state is not None


def test_resource_cap():
    with pytest.raises(ResourceError):
        build_abstraction(linear_cs(), QuantizationParams(eta=0.5, mu=0.1, epsilon=1.5),
                          cap=2)


def test_outputs_evaluate_concrete_map_at_lattice():
    cs = linear_cs()
    result = build_abstraction(cs, QuantizationParams(eta=0.5, mu=0.1, epsilon=1.5))
    s = result.system
    for name, out in zip(s.names, s.outputs):
        assert out == (float(name),)

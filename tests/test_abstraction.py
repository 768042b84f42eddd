"""Grid abstraction construction: ball rule, completeness, trajectory tracking."""

import random

import pytest

from opacue.abstraction import build_abstraction, sample_system
from opacue.boxes import Box, BoxUnion, grid, grid_interval
from opacue.control import DtControlSystem, IssCertificate, QuantizationParams
from opacue.errors import DomainError, QuantizationError, ResourceError
from opacue.simrel import max_initsop_relation
from opacue.system import MetricSystem, close_rows, iter_bits, serialize_system


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
    succ = s.post_bits[s.input_index["0.0"]][s.index["1.0"]]
    assert sorted(s.names[i] for i in iter_bits(succ)) == ["0.0", "0.5", "1.0"]
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
        got = {s.names[i] for i in iter_bits(s.post_bits[ui][xi])}
        assert got == expected
        agree += 1
    assert agree == 1000


def _within(point, image, eta):
    return all(abs(p - v) <= eta for p, v in zip(point, image))


def test_eta_ball_rows_match_the_linear_scan():
    """The abstraction's eta-ball rule is close_rows from the images to the
    lattice: each row must equal the pairwise scan, bit for bit."""
    rng = random.Random(802)
    for eta, bounds in ((0.1, ((0.0, 1.0),)), (0.05, ((0.0, 1.0), (-0.5, 0.5))),
                        (0.025, ((0.0, 1.0), (0.0, 0.5))), (1 / 3, ((0.0, 2.0),) * 3)):
        axes = [grid_interval(lo, hi, eta) for lo, hi in bounds]
        points = grid(Box(bounds), eta)
        images = []
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
            images.append(tuple(image))
        rows = close_rows(images, points, eta)
        for image, row in zip(images, rows):
            assert row == sum(1 << j for j, p in enumerate(points) if _within(p, image, eta))
        assert any(rows) and not all(rows)  # both outcomes are exercised


def test_abstraction_equals_a_pairwise_eta_ball_reference():
    rng = random.Random(803)
    a1, a2 = rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6)
    c1, c2 = rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2)
    b1, b2 = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    cs = DtControlSystem(
        state_box=Box(((0.0, 1.0), (0.0, 1.0))),
        initial_region=BoxUnion((Box(((0.0, 1.0), (0.0, 1.0))),)),
        secret_region=BoxUnion((Box(((0.3, 0.6), (0.0, 1.0))),)),
        input_box=Box(((0.0, 0.1), (0.0, 0.1))),
        # The -0.05 offset sends images off the box, within eta of its edge.
        dynamics=(f"{a1!r}*x1 + {c1!r}*x2 + {b1!r}*u1 - 0.05",
                  f"{a2!r}*x2 + {c2!r}*x1 + {b2!r}*u2"),
        output=("x1 + x2",),
        iss_cert=IssCertificate(1.0, 0.6, 1.5, 1.0),
    )
    eta, mu = 0.1, 0.05
    built = build_abstraction(cs, QuantizationParams(eta=eta, mu=mu, epsilon=1.0),
                              allow_unsound=True)
    points, inputs = grid(cs.state_box, eta), grid(cs.input_box, mu)
    reference = MetricSystem(
        names=tuple(",".join(map(repr, p)) for p in points),
        inputs=tuple(",".join(map(repr, u)) for u in inputs),
        outputs=tuple(cs.observe(p) for p in points),
        initial=tuple(range(len(points))),
        secret=tuple(i for i, p in enumerate(points) if cs.secret_region.contains(p)),
        transitions=tuple(
            (xi, ui, j)
            for xi, x in enumerate(points) for ui, u in enumerate(inputs)
            for j, p in enumerate(points) if _within(p, cs.step(x, u), eta)
        ),
    )
    assert serialize_system(built.system) == serialize_system(reference)


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
    # The first grid pair, (0.0,) under (0.0,), is named.
    assert str(exc.value) == "f((0.0,), (0.0,)) = (10.0,) leaves the state box by more than eta"
    assert exc.value.state == (0.0,) and exc.value.inp == (0.0,)


@pytest.mark.parametrize("dynamics, message", [
    ("10 + x1*1e308*1e308", "is not finite"),
    ("10 + 1/(x1 - 0.5)", "ZeroDivisionError"),
])
def test_an_image_fault_is_named_before_an_earlier_escape(dynamics, message):
    """Every image is computed and checked before any row is built, so a
    later pair whose image is not finite, or whose expression raises, is
    named before an earlier pair that leaves the box."""
    cs = DtControlSystem(
        state_box=Box(((0.0, 1.0),)),
        initial_region=BoxUnion((Box(((0.0, 1.0),)),)),
        secret_region=BoxUnion((Box(((0.0, 0.5),)),)),
        input_box=Box(((0.0, 0.1),)),
        dynamics=(dynamics,),  # f(0.0) = 8 or 10 leaves the box; x1 = 0.5 faults
        output=("x1",),
        iss_cert=IssCertificate(1.0, 0.5, 0.0, 1.0),
    )
    with pytest.raises(DomainError, match=message) as exc:
        build_abstraction(cs, QuantizationParams(eta=0.5, mu=0.1, epsilon=2.0),
                          allow_unsound=True)
    assert exc.value.state == (0.5,) and exc.value.inp == (0.0,)


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


def test_sample_system_fails_closed_on_an_overflowing_image():
    # An infinite image used to raise a bare OverflowError from
    # nearest_lattice; a NaN image must not become an empty eta-ball row.
    for fault in ("x1*1e308*1e308", "x1*1e308*1e308*0"):
        cs = DtControlSystem(
            state_box=Box(((0.0, 1.0),)),
            initial_region=BoxUnion((Box(((0.0, 1.0),)),)),
            secret_region=BoxUnion((Box(((0.0, 0.5),)),)),
            input_box=Box(((0.0, 0.1),)),
            dynamics=(f"0.5*x1 + 0.2*u1 + {fault}",),
            output=("x1",),
            iss_cert=IssCertificate(1.0, 0.5, 0.4, 1.0),
        )
        with pytest.raises(DomainError, match="is not finite") as exc:
            sample_system(cs, eta=0.1, mu=0.1)
        assert exc.value.state == (0.1,) and exc.value.inp == (0.0,)
        with pytest.raises(DomainError, match="is not finite") as exc:
            build_abstraction(cs, QuantizationParams(eta=0.1, mu=0.1, epsilon=2.0),
                              allow_unsound=True)
        assert exc.value.state == (0.1,) and exc.value.inp == (0.0,)

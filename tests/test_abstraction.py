"""Grid abstraction construction: ball rule, completeness, trajectory tracking."""

import dataclasses
import json
import math
import random
import re

import pytest

from opacue.abstraction import build_abstraction, sample_system
from opacue.boxes import Box, BoxUnion, Lattice, grid
from opacue.control import (
    DtControlSystem, IssCertificate, QuantizationParams, parse_control_system,
)
from opacue.errors import DomainError, QuantizationError, ResourceError
from opacue.simrel import max_initsop_relation
from opacue.system import MetricSystem, close_rows, iter_bits, parse_system, serialize_system

from .conftest import STORED_FIELDS, linear_plant


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
        lattice = Lattice(Box(bounds), eta)
        axes, points = lattice.axes, lattice.points()
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


@pytest.mark.parametrize("a,sides", [
    (5e-324, "lhs=inf, rhs=inf, slack=nan"),  # used to be certified
    (6e-309, "lhs=inf, rhs=1.6666666666666664e+308, slack=-inf"),
], ids=["epsilon-over-a", "decay-term"])
@pytest.mark.parametrize("allow_unsound", [False, True])
def test_an_overflowing_quantization_inequality_is_refused(monkeypatch, a, sides,
                                                           allow_unsound):
    # c*lambda = 1.2, so the inequality holds for no epsilon/a; epsilon/a
    # or the decay term overflows to inf, and inf <= inf used to pass
    def refusing(lattice, *args):
        raise AssertionError("a lattice is being built")

    monkeypatch.setattr(Lattice, "points", refusing)
    monkeypatch.setattr(Lattice, "axes", property(refusing))
    cs = dataclasses.replace(linear_cs(a=0.3, b=0.2),
                             iss_cert=IssCertificate(2.0, 0.6, 0.2857, a))
    message = re.escape(f"quantization inequality overflows ({sides})")
    with pytest.raises(QuantizationError, match=f"^{message}"):
        build_abstraction(cs, QuantizationParams(eta=0.1, mu=0.1, epsilon=1.0),
                          allow_unsound=allow_unsound)


def test_span_guards():
    cs = linear_cs(secret=(0.0, 0.1))
    with pytest.raises(QuantizationError):
        # eta exceeds the secret region span
        build_abstraction(cs, QuantizationParams(eta=0.2, mu=0.05, epsilon=2.0))
    with pytest.raises(QuantizationError):
        # mu exceeds the input box span
        build_abstraction(linear_cs(), QuantizationParams(eta=0.1, mu=0.2, epsilon=2.0))


@pytest.mark.parametrize("initial,secret,part", [
    # every initial state is secret: the initial lattice used to be empty
    ((0.41, 0.44), (0.4, 0.7), "initial-and-secret"),
    ((0.35, 0.7), (0.38, 0.7), "initial-minus-secret"),
])
def test_eta_wider_than_a_part_of_the_initial_region_is_refused(initial, secret, part):
    cs = DtControlSystem(
        state_box=Box(((0.0, 1.0),)),
        initial_region=BoxUnion((Box((initial,)),)),
        secret_region=BoxUnion((Box((secret,)),)),
        input_box=Box(((0.0, 0.1),)),
        dynamics=("0.3*x1 + 0.2*u1",),
        output=("x1",),
        iss_cert=IssCertificate(1.0, 0.3, 0.2857, 1.0),
    )
    params = QuantizationParams(eta=0.05, mu=0.05, epsilon=0.2)
    for allow_unsound in (False, True):
        with pytest.raises(QuantizationError, match=rf"^eta 0.05 exceeds .* {part} region$"):
            build_abstraction(cs, params, allow_unsound)
    assert build_abstraction(cs, QuantizationParams(0.025, 0.05, 0.2)).certified


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


def test_resource_cap_refuses_before_the_lattice_is_built(monkeypatch):
    def refusing(lattice, *args):  # fails where the state lattice would be built
        raise AssertionError(f"a {lattice.box.dim}-D lattice is being built")

    monkeypatch.setattr(Lattice, "points", refusing)
    monkeypatch.setattr(Lattice, "axes", property(refusing))
    # 3^9 = 19,683 lattice points against a cap of 1000
    cs = parse_control_system(json.dumps(linear_plant(9, 0.5, 1.0, (0.0, 0.5))))
    with pytest.raises(ResourceError, match="abstraction exceeds the cap of 1000 states"):
        build_abstraction(cs, QuantizationParams(eta=0.5, mu=0.1, epsilon=5.0), cap=1000)
    # 3^14 = 4,782,969 points against the default cap
    cs = parse_control_system(json.dumps(linear_plant(14, 0.5, 1.0, (0.0, 0.5))))
    with pytest.raises(ResourceError, match="sampled system exceeds the cap"):
        sample_system(cs, eta=0.5, mu=0.1)


def test_resource_cap_refuses_before_the_input_lattice_is_built(monkeypatch):
    def refusing(lattice, *args):  # fails where either lattice would be built
        raise AssertionError(f"a {lattice.box.dim}-D lattice is being built")

    monkeypatch.setattr(Lattice, "points", refusing)
    monkeypatch.setattr(Lattice, "axes", property(refusing))
    # 3 states but 2,001 inputs on [0, 0.1] against a cap of 1000
    cs = parse_control_system(json.dumps(linear_plant(1, 0.5, 1.0, (0.0, 0.5))))
    with pytest.raises(ResourceError, match="abstraction exceeds the cap of 1000 inputs"):
        build_abstraction(cs, QuantizationParams(eta=0.5, mu=0.00005, epsilon=2.0), cap=1000)
    # 10,000,001 inputs against the default cap
    with pytest.raises(ResourceError, match="sampled system exceeds the cap of 2000000 inputs"):
        sample_system(cs, eta=0.5, mu=1e-8)


def test_sample_system_snaps_each_image_to_its_nearest_in_box_point():
    # Dyadic coefficients, states and inputs make every image and every
    # distance exact: images fall on exact half steps, where the even
    # multiple of eta wins, and outside the box, where the nearest in-box
    # point by distance is the clamped one.
    rng = random.Random(2503)
    eta, bounds = 0.125, ((0.0, 1.0), (-0.5, 0.5))
    levels = Lattice(Box(bounds), eta).axes
    halves = outside = 0
    for _ in range(4):
        coefs = [[rng.randint(-12, 12) / 8 for _ in range(3)] for _ in bounds]
        cs = DtControlSystem(
            state_box=Box(bounds),
            initial_region=BoxUnion((Box(bounds),)),
            secret_region=BoxUnion((Box(((0.0, 0.5), (-0.5, 0.5))),)),
            input_box=Box(((0.0, 0.5),)),
            dynamics=tuple(f"{a!r}*x1 + {b!r}*x2 + {c!r}*u1" for a, b, c in coefs),
            output=("x1", "x2"),
            iss_cert=IssCertificate(1.0, 0.5, 1.0, 1.0),
        )
        s = sample_system(cs, eta=eta, mu=0.25)
        assert len(s.transitions) == s.n_states * len(s.inputs)
        for src, ui, dst in s.transitions:
            x1, x2 = map(float, s.names[src].split(","))
            (u,) = map(float, s.inputs[ui].split(","))
            image = [a * x1 + b * x2 + c * u for a, b, c in coefs]
            expected = tuple(
                min(axis, key=lambda v: (abs(v - p), round(v / eta) % 2))
                for p, axis in zip(image, levels))
            assert s.names[dst] == ",".join(map(repr, expected))
            halves += any((p / eta) % 1 == 0.5 for p in image)
            outside += not cs.state_box.contains(image)
    assert halves and outside


def test_a_step_wider_than_the_state_box_is_refused_before_the_cap():
    with pytest.raises(QuantizationError, match="exceeds the span"):
        sample_system(linear_cs(), eta=1.5, mu=0.1)


def test_outputs_evaluate_concrete_map_at_lattice():
    cs = linear_cs()
    result = build_abstraction(cs, QuantizationParams(eta=0.5, mu=0.1, epsilon=1.5))
    s = result.system
    for name, out in zip(s.names, s.outputs):
        assert out == (float(name),)


def test_sample_system_fails_closed_on_an_overflowing_image():
    # An infinite image used to raise a bare OverflowError from
    # the nearest-point map; a NaN image must not become an empty eta-ball row.
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


def test_sample_system_snaps_an_image_whose_quotient_by_eta_overflows():
    # 1e308 / 0.1 overflows to infinity; the nearest-point map used to raise a bare
    # OverflowError for such a finite image instead of clamping it
    cs = DtControlSystem(
        state_box=Box(((0.0, 1.0),)),
        initial_region=BoxUnion((Box(((0.0, 1.0),)),)),
        secret_region=BoxUnion((Box(((0.0, 0.5),)),)),
        input_box=Box(((0.0, 0.1),)),
        dynamics=("x1*1e308",),
        output=("x1",),
        iss_cert=IssCertificate(1.0, 0.5, 0.4, 1.0),
    )
    s = sample_system(cs, eta=0.1, mu=0.1)
    assert s.n_states == 11
    top = s.names.index("1.0")
    assert s.transitions == tuple(
        (x, u, 0 if x == s.names.index("0.0") else top)
        for x in range(11) for u in range(len(s.inputs)))


def test_a_sampled_system_shares_one_int_per_distinct_target():
    """Each (state, input) of a sampled system has one successor, and every
    pair that snaps to the same lattice point holds that point's one int,
    so the rows cost a reference per pair. A system built from the same
    triples, or parsed from its file, shares its ints the same way."""
    cs = DtControlSystem(
        state_box=Box(((0.0, 1.0), (0.0, 1.0))),
        initial_region=BoxUnion((Box(((0.0, 1.0), (0.0, 1.0))),)),
        secret_region=BoxUnion((Box(((0.0, 0.5), (0.0, 1.0))),)),
        input_box=Box(((0.0, 0.1), (0.0, 0.1))),
        dynamics=("0.5*x1 + u1", "0.25*x2 + 0.5*x1 + u2"),
        output=("x1",),
        iss_cert=IssCertificate(1.0, 0.75, 0.4, 1.0),
    )
    sampled = sample_system(cs, eta=0.05, mu=0.05)
    twin = MetricSystem(sampled.names, sampled.inputs, sampled.outputs, sampled.initial,
                        sampled.secret, sampled.transitions)
    parsed = parse_system(serialize_system(sampled))
    assert twin == sampled == parsed
    for system in (sampled, twin, parsed):
        cells = [bits for row in system.post_bits for bits in row]
        assert len(cells) == 441 * 9 and all(bits.bit_count() == 1 for bits in cells)
        targets = set(cells)
        assert 1 < len(targets) < 441 and max(targets) > 1 << 256  # not small-int cached
        assert len(set(map(id, cells))) == len(targets)


# Lattice points per axis at eta = 0.125 on [0, (points - 1) * eta]: a row
# of a byte's width, one past it, two bytes, one past them.
AXIS_POINTS = (8, 9, 16, 17)


def _random_region(rng, bounds, eta, boxes):
    """A union of `boxes` sub-boxes whose faces lie on lattice points or
    halfway between them."""
    out = []
    for _ in range(boxes):
        sides = []
        for lo, hi in bounds:
            a, b = sorted(rng.sample(range(int((hi - lo) / (eta / 2)) + 1), 2))
            sides.append((lo + a * eta / 2, lo + b * eta / 2))
        out.append(Box(tuple(sides)))
    return BoxUnion(tuple(out))


def test_a_row_built_abstraction_equals_its_parsed_twin():
    """`build_abstraction` builds the successor rows; parsing its file turns
    the file's triples into rows. The two systems, and every table derived
    from them, agree bit for bit and in the same order. Every one of them,
    and `sample_system`'s, stores the rows and nothing else."""
    rng = random.Random(2902)
    eta, built, unions = 0.125, 0, 0
    while built < 12:
        dim = 1 + built % 3
        counts = [rng.choice(AXIS_POINTS) for _ in range(dim)]
        if dim == 3:
            counts[rng.randrange(3)] = rng.choice((8, 9))  # keep 3-D plants small
        bounds = tuple((0.0, (c - 1) * eta) for c in counts)
        coefs = [(rng.uniform(0.2, 0.6), rng.uniform(0.0, 0.05)) for _ in range(dim)]
        cs = DtControlSystem(
            state_box=Box(bounds),
            initial_region=_random_region(rng, bounds, eta, rng.randint(1, 2)),
            secret_region=_random_region(rng, bounds, eta, rng.randint(1, 2)),
            input_box=Box(((0.0, 0.125),) * dim),
            dynamics=tuple(f"{a!r}*x{k + 1} + {c!r}*x{(k + 1) % dim + 1} + u{k + 1}"
                           for k, (a, c) in enumerate(coefs)),
            output=tuple(f"x{k + 1}" for k in range(rng.randint(1, dim))),
            iss_cert=IssCertificate(1.0, 0.65, 3.0, 1.0),
        )
        try:
            a = build_abstraction(cs, QuantizationParams(eta, 0.125, 1.0), allow_unsound=True)
        except QuantizationError:  # a region part narrower than eta
            continue
        built += 1
        unions += len(cs.initial_region.boxes) + len(cs.secret_region.boxes) > 2
        system = a.system
        assert system.n_states == math.prod(counts)
        twin = parse_system(serialize_system(system))
        sampled = sample_system(cs, eta, 0.125)
        for stored in (system, twin, sampled):  # no table derived yet
            assert set(vars(stored)) == STORED_FIELDS
        for table in ("post_bits", "pre_bits", "succ_any", "pred_any", "transitions"):
            assert getattr(system, table) == getattr(twin, table), table
        assert system == twin
        assert system.n_transitions == len(twin.transitions)
        assert serialize_system(twin) == serialize_system(system)
        assert (sampled.initial, sampled.secret) == (system.initial, system.secret)
    assert unions

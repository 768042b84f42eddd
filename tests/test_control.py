"""Expression grammar, certificates, and the quantization inequality."""

import ast
import json
import math
import random
import struct

import pytest

from opacue.boxes import Box, BoxUnion
from opacue.control import (
    DtControlSystem,
    IssCertificate,
    QuantizationParams,
    affine_certificate,
    evaluate_quantization_inequality,
    parse_control_system,
)
from opacue.errors import DomainError, InternalError, ParseError, ValidationError
from opacue.expr import CompiledMap, compile_map


# -- expression grammar --------------------------------------------------------

def test_expr_linear_and_functions():
    f = compile_map(["0.5*x1 + u1"], 1, 1)
    assert f.grid([(1.0,)], [(0.1,)])[0][0] == pytest.approx(0.6)
    g = compile_map(["sin(x1) + cos(x2) - exp(u1) / 2 + abs(-x1)"], 2, 1)
    assert g.grid([(0.3, 0.4)], [(0.0,)])[0][0] == pytest.approx(
        math.sin(0.3) + math.cos(0.4) - 0.5 + 0.3
    )
    h = compile_map(["-x1"], 1, 0)
    assert h.grid([(2.0,)], [()])[0][0] == -2.0


@pytest.mark.parametrize("bad", [
    "x1 ** 2",            # power operator not in the grammar
    "x3",                 # unknown variable
    "u2",                 # input index out of range
    "tan(x1)",            # unknown function
    "x1 if u1 else 0",    # conditionals
    "lambda: 1",
    "__import__('os')",
    "x1; x1",
    "x1 < u1",
    "",
])
def test_expr_rejects_out_of_grammar(bad):
    with pytest.raises(ParseError):
        compile_map([bad], 2, 1)


@pytest.mark.parametrize("depth", [1500, 5000])
def test_expr_nested_too_deeply_is_a_parse_error(depth):
    # used to raise RecursionError: in the grammar check at 1,500 levels,
    # in the parser at 5,000
    text = "-" * depth + "x1"
    with pytest.raises(ParseError) as info:
        compile_map([text], 1, 0)
    assert str(info.value) == f"expression {text!r}: nested too deeply"


def _dict_eval_reference(text, n_states, n_inputs):
    """The evaluator before compilation to a lambda: a dict and eval per call."""
    code = compile(ast.parse(text, mode="eval"), "<reference>", "eval")
    base = {"__builtins__": {}, "sin": math.sin, "cos": math.cos,
            "exp": math.exp, "abs": abs}

    def run(x, u):
        env = {f"x{i + 1}": x[i] for i in range(n_states)}
        for j in range(n_inputs):
            env[f"u{j + 1}"] = u[j]
        return float(eval(code, base, env))

    return run


def _random_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return rng.choice(names)
        return repr(rng.choice([0, 2, 7, 0.0, 0.5, 1e300, 3.25]))
    kind = rng.randrange(3)
    if kind == 0:
        op = rng.choice("+-*/")
        return (f"({_random_expr(rng, names, depth - 1)} {op} "
                f"{_random_expr(rng, names, depth - 1)})")
    if kind == 1:
        return f"-{_random_expr(rng, names, depth - 1)}"
    fn = rng.choice(["sin", "cos", "exp", "abs"])
    return f"{fn}({_random_expr(rng, names, depth - 1)})"


def _outcome(fn, x, u):
    try:
        value = fn(x, u)
    except DomainError as exc:  # compile_map raises it from the arithmetic error
        return DomainError, type(exc.__cause__)
    except ArithmeticError as exc:  # division by zero, exp overflow
        return type(exc)
    except ValueError:  # sin/cos of an infinity
        return ValueError
    return type(value), value if value == value else "nan", math.copysign(1.0, value)


def test_compiled_expressions_match_the_dict_eval_path():
    rng = random.Random(2718)
    seen = set()
    coords = [0, 3, 0.0, -0.0, 0.25, -1.5, 1e200, -1e200]
    for _ in range(600):
        n_states, n_inputs = rng.randint(1, 3), rng.randint(0, 2)
        names = ([f"x{i + 1}" for i in range(n_states)]
                 + [f"u{j + 1}" for j in range(n_inputs)])
        text = _random_expr(rng, names, 4)
        nodes = list(ast.walk(ast.parse(text)))
        seen.update(type(node).__name__ for node in nodes)
        seen.update(node.id for node in nodes if isinstance(node, ast.Name))
        run = compile_map([text], n_states, n_inputs)
        on_grid = lambda x, u: run.grid([x], [u])[0][0]
        at_point = lambda x, u: run.at(x, u)[0]
        reference = _dict_eval_reference(text, n_states, n_inputs)
        for _ in range(4):
            x = tuple(rng.choice(coords) for _ in range(n_states))
            u = tuple(rng.choice(coords) for _ in range(n_inputs))
            want = _outcome(reference, x, u)
            assert _outcome(on_grid, x, u) == want, (text, x, u)  # the grid raises it bare
            if isinstance(want, type):  # the reference raised: the one-point call wraps it
                want = DomainError, want
            assert _outcome(at_point, x, u) == want, (text, x, u)
        # A map of this and up to two more expressions evaluates in one
        # call, and a failure names the first failing expression.
        texts = [text] + [_random_expr(rng, names, 2) for _ in range(rng.randint(0, 2))]
        rng.shuffle(texts)
        whole = compile_map(texts, n_states, n_inputs)
        for _ in range(4):
            x = tuple(rng.choice(coords) for _ in range(n_states))
            u = tuple(rng.choice(coords) for _ in range(n_inputs))
            try:
                got = whole.at(x, u)
            except DomainError as exc:
                got = str(exc)
            try:
                want = tuple(compile_map([t], n_states, n_inputs).at(x, u)[0] for t in texts)
            except DomainError as exc:
                want = str(exc)
            assert repr(got) == repr(want), (texts, x, u)
            if not isinstance(got, str):
                assert repr(whole.grid([x], [u])[0]) == repr(got), (texts, x, u)
    assert {"Add", "Sub", "Mult", "Div", "USub", "Call", "Constant", "Name",
            "sin", "cos", "exp", "abs"} <= seen


def _first_error(evaluate):
    """evaluate(), or the text of the DomainError it raises."""
    try:
        return evaluate()
    except DomainError as exc:
        return str(exc)


def test_grid_maps_match_one_point_evaluation_of_each_expression():
    rng = random.Random(31415)
    coords = [0, 3, 0.0, -0.0, 0.25, -1.5, 1e200, -1e200]
    seen = set()
    for _ in range(400):
        n_states, n_inputs = rng.randint(1, 3), rng.randint(0, 2)
        names = ([f"x{i + 1}" for i in range(n_states)]
                 + [f"u{j + 1}" for j in range(n_inputs)])
        texts = [_random_expr(rng, names, 4) for _ in range(rng.randint(1, 3))]
        alone = [compile_map([text], n_states, n_inputs) for text in texts]
        xs = [tuple(rng.choice(coords) for _ in range(n_states))
              for _ in range(rng.randint(0, 5))]
        us = [tuple(rng.choice(coords) for _ in range(n_inputs))
              for _ in range(rng.randint(1, 3))]
        whole = compile_map(texts, n_states, n_inputs)
        try:
            got = whole.grid(xs, us)
        except (ArithmeticError, ValueError) as exc:
            got = exc
        # x-major, then each expression alone, one point at a time: the
        # first failure is the first failing point's first failing expression
        try:
            want = [tuple(f.at(x, u)[0] for f in alone) for x in xs for u in us]
        except DomainError as exc:
            want = exc
        if isinstance(want, DomainError):
            # the grid raises that expression's own error, and the map's
            # one-point calls, walked in the same order, name it
            assert (type(got), str(got)) == (type(want.__cause__), str(want.__cause__))
            assert _first_error(lambda: [whole.at(x, u) for x in xs for u in us]) == str(want)
            seen.add("error")
        else:
            assert repr(got) == repr(want), (texts, xs, us)  # bit for bit, signed zeros too
            values = [v for image in got for v in image]
            assert {type(v) for v in values} <= {float}, texts  # int constants too
            seen.update(repr(v) for v in values if repr(v) in ("-0.0", "inf", "nan"))
            seen.update("int constant" for text in texts if text in ("0", "2", "7"))
    assert seen == {"error", "-0.0", "inf", "nan", "int constant"}


@pytest.mark.parametrize("fault, message", [
    # a non-finite image at x1 = 0.25 before a division by zero at x1 = 0.75
    ("1/(x1 - 0.75) + x1*1e308*1e308*(0.5 - x1)", "{f}((0.25,){u}) = (inf,) is not finite"),
    # a division by zero at x1 = 0.25 before a non-finite image at x1 = 0.75
    ("1/(x1 - 0.25) + x1*1e308*1e308*(x1 - 0.5)",
     "expression '1/(x1 - 0.25) + x1*1e308*1e308*(x1 - 0.5)' at state (0.25,), input "
     "{u_only}: ZeroDivisionError: float division by zero"),
])
def test_grid_images_name_the_first_failing_point_in_grid_order(fault, message):
    cs = make_cs(dynamics=(fault,), output=(fault,))
    xs = [(0.0,), (0.25,), (0.5,), (0.75,), (1.0,)]
    us = [(0.0,), (0.05,), (0.1,)]
    for evaluate, want in (
        (lambda: cs.images(xs, us), message.format(f="f", u=", (0.0,)", u_only="(0.0,)")),
        (lambda: cs.outputs(xs), message.format(f="H", u="", u_only="()")),
    ):
        assert _first_error(evaluate) == want
    # the one-point calls, walked in the same order, fail at the same point
    assert _first_error(lambda: [cs.step(x, u) for x in xs for u in us]) == _first_error(
        lambda: cs.images(xs, us))
    assert _first_error(lambda: [cs.observe(x) for x in xs]) == _first_error(
        lambda: cs.outputs(xs))
    assert cs.images(xs[:1], us) == [cs.step(xs[0], u) for u in us]


# -- certificates ---------------------------------------------------------------

def test_certificate_parameter_ranges():
    IssCertificate(1.0, 0.5, 0.0, 1.0)
    with pytest.raises(ValidationError):
        IssCertificate(0.5, 0.5, 0.0, 1.0)
    with pytest.raises(ValidationError):
        IssCertificate(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        IssCertificate(1.0, 0.5, -0.1, 1.0)
    with pytest.raises(ValidationError):
        IssCertificate(1.0, 0.5, 0.0, 0.0)


def test_affine_certificate_norms():
    cert = affine_certificate([[0.5, 0.2], [0.0, 0.6]], [[1.0], [0.5]])
    assert cert.lam == 0.7
    assert cert.c == 1.0
    assert cert.g == pytest.approx(1.0 / 0.3)
    with pytest.raises(ValidationError):
        affine_certificate([[1.0]], [[0.0]])


# -- quantization inequality ------------------------------------------------------

def test_quantization_worked_example():
    cert = IssCertificate(c=1.0, lam=0.5, g=0.1, a=1.0)
    chk = evaluate_quantization_inequality(cert, eta=0.1, mu=0.5, epsilon=0.4)
    assert chk.passed
    assert chk.lhs == pytest.approx(0.35, abs=1e-15)
    assert chk.slack == pytest.approx(0.05, abs=1e-12)


def test_quantization_lambda_near_one_fails():
    cert = IssCertificate(c=1.0, lam=0.999999, g=0.5, a=1.0)
    chk = evaluate_quantization_inequality(cert, eta=0.01, mu=0.01, epsilon=1.0)
    assert not chk.passed


def test_quantization_degenerate_grid_limit():
    # with eta = mu = 0 the inequality collapses to c*lambda <= 1
    good = IssCertificate(c=1.0, lam=0.5, g=1.0, a=2.0)
    assert evaluate_quantization_inequality(good, 0.0, 0.0, 0.7).passed
    bad = IssCertificate(c=2.0, lam=0.6, g=1.0, a=2.0)  # c*lambda = 1.2
    assert not evaluate_quantization_inequality(bad, 0.0, 0.0, 0.7).passed


def test_quantization_inequality_that_overflows_does_not_pass():
    # c*lambda = 1.2 holds for no epsilon/a, but epsilon/a = inf at a = 5e-324
    cert = IssCertificate(c=2.0, lam=0.6, g=0.2857, a=5e-324)
    chk = evaluate_quantization_inequality(cert, eta=0.1, mu=0.1, epsilon=1.0)
    assert (chk.lhs, chk.rhs) == (math.inf, math.inf) and math.isnan(chk.slack)
    assert not chk.passed


def test_quantization_inequality_is_its_formula_bit_for_bit():
    # c*lambda*(eps/a) + g*mu + eta <= eps/a, in the order the decay term
    # beta(r, k) = c*lambda**k*r at k = 1 and the gain g*r were evaluated
    rng = random.Random(18)

    def magnitude() -> float:  # any finite nonnegative float, subnormal to huge
        return math.ldexp(rng.random(), rng.randrange(-1074, 1025))

    def bits(v: float) -> bytes:
        return struct.pack("<d", v)

    for _ in range(20_000):
        lam = 0.0
        while not 0 < lam < 1:
            lam = magnitude() if rng.random() < 0.5 else rng.random()
        a = 0.0
        while not a > 0:
            a = magnitude()
        cert = IssCertificate(c=max(1.0, magnitude()), lam=lam, g=magnitude(), a=a)
        eta, mu, eps = (magnitude() if rng.random() < 0.5 else rng.random() for _ in range(3))
        rhs = eps / cert.a
        lhs = cert.c * cert.lam**1 * rhs + cert.g * mu + eta
        chk = evaluate_quantization_inequality(cert, eta, mu, eps)
        finite = all(map(math.isfinite, (lhs, rhs, rhs - lhs)))
        assert chk.passed == (lhs <= rhs and finite)
        assert [bits(chk.lhs), bits(chk.rhs), bits(chk.slack)] == [
            bits(lhs), bits(rhs), bits(rhs - lhs)]


def test_quantization_params_positive():
    with pytest.raises(ValidationError):
        QuantizationParams(eta=0.0, mu=0.1, epsilon=0.1)
    with pytest.raises(ValidationError):
        QuantizationParams(eta=0.1, mu=-0.1, epsilon=0.1)


# -- control system validation + parsing -----------------------------------------

def make_cs(**overrides):
    fields = dict(
        state_box=Box(((0.0, 1.0),)),
        initial_region=BoxUnion((Box(((0.0, 1.0),)),)),
        secret_region=BoxUnion((Box(((0.5, 1.0),)),)),
        input_box=Box(((0.0, 0.1),)),
        dynamics=("0.5*x1 + u1",),
        output=("x1",),
        iss_cert=IssCertificate(1.0, 0.5, 2.0, 1.0),
    )
    fields.update(overrides)
    return DtControlSystem(**fields)


def test_control_system_validation():
    make_cs()
    with pytest.raises(ValidationError):
        make_cs(secret_region=BoxUnion((Box(((0.5, 2.0),)),)))
    with pytest.raises(ValidationError):
        make_cs(dynamics=("x1", "x1"))
    with pytest.raises(ValidationError):
        make_cs(output=())


def test_control_system_step_and_observe():
    cs = make_cs()
    assert cs.step((1.0,), (0.05,)) == (0.55,)
    assert cs.observe((0.7,)) == (0.7,)


@pytest.mark.parametrize("fault, shown", [
    ("x1*1e308*1e308", "inf"), ("-x1*1e308*1e308", "-inf"), ("x1*1e308*1e308*0", "nan"),
])
def test_step_and_observe_refuse_non_finite_coordinates(fault, shown):
    cs = make_cs(dynamics=(f"0.5*x1 + u1 + {fault}",), output=("x1", fault))
    assert cs.step((0.0,), (0.05,)) == (0.05,)  # 0 * 1e308 * 1e308 is finite
    with pytest.raises(DomainError) as exc:
        cs.step((0.5,), (0.05,))
    assert str(exc.value) == f"f((0.5,), (0.05,)) = ({shown},) is not finite"
    assert exc.value.state == (0.5,) and exc.value.inp == (0.05,)
    with pytest.raises(DomainError) as exc:
        cs.observe((0.5,))
    assert str(exc.value) == f"H((0.5,)) = (0.5, {shown}) is not finite"
    assert exc.value.state == (0.5,) and exc.value.inp is None


def test_a_grid_failure_that_no_point_repeats_is_an_internal_error():
    # grid and at run one compiled comprehension, so a failed grid call
    # whose walk finds no failing point is a defect, never a value list
    from opacue.control import _finite

    fn = CompiledMap(grid=lambda xs, us: 1 / 0, at=lambda x, u: (0.5,))
    with pytest.raises(InternalError, match="no point fails alone"):
        _finite(fn, [(0.0,), (1.0,)], [()], lambda x, u, value: DomainError("unused"))


CS_DOC = {
    "dim": 1,
    "state_box": [[0.0, 1.0]],
    "initial_box": [[0.0, 1.0]],
    "secret_box": [[0.6, 1.0]],
    "input_box": [[0.0, 0.1]],
    "dynamics": ["0.5*x1 + u1"],
    "output": ["x1"],
    "iss_cert": {"c": 1.0, "lambda": 0.5, "g": 2.0, "a": 1.0},
}


def test_parse_control_system_roundtrip_fields():
    cs = parse_control_system(json.dumps(CS_DOC))
    assert cs.dim == 1 and cs.input_dim == 1
    assert cs.secret_region.contains((0.7,))
    assert not cs.secret_region.contains((0.2,))
    assert cs.iss_cert.lam == 0.5


def test_parse_control_system_union_regions():
    doc = dict(CS_DOC)
    doc["secret_box"] = [[[0.0, 0.1]], [[0.8, 1.0]]]
    cs = parse_control_system(json.dumps(doc))
    assert cs.secret_region.contains((0.05,))
    assert cs.secret_region.contains((0.9,))
    assert not cs.secret_region.contains((0.5,))


def test_parse_control_system_errors():
    with pytest.raises(ParseError):
        parse_control_system("{nope")
    doc = dict(CS_DOC)
    del doc["dynamics"]
    with pytest.raises(ParseError):
        parse_control_system(json.dumps(doc))
    doc = dict(CS_DOC)
    doc["dim"] = 2
    with pytest.raises(ValidationError):
        parse_control_system(json.dumps(doc))

"""Pinned errors of the control-system, polynomial, expression and
interconnection formats.

Each malformed input below is pinned to its exception class and exact
message in `format_errors.json`, as `parse_errors.json` pins the finite
system format. An input that is accepted is pinned as ["accepted", ""];
only the empty regions are. Regenerate the file with
`python -m tests.test_format_errors` (only when a message is meant to change).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from opacue.compositional import parse_interconnection
from opacue.control import parse_control_system
from opacue.expr import compile_expr
from opacue.polynomial import parse_polynomial

EXPECTED = Path(__file__).resolve().parent / "format_errors.json"


def _control(**changes) -> dict:
    doc = {
        "dim": 1,
        "state_box": [[0.0, 1.0]],
        "initial_box": [[0.0, 1.0]],
        "secret_box": [[0.6, 1.0]],
        "input_box": [[0.0, 0.1]],
        "dynamics": ["0.5*x1 + u1"],
        "output": ["x1"],
        "iss_cert": {"c": 1.0, "lambda": 0.5, "g": 2.0, "a": 1.0},
    }
    doc.update(changes)
    return doc


def _cert(**changes) -> dict:
    cert = {"c": 1.0, "lambda": 0.5, "g": 2.0, "a": 1.0}
    cert.update(changes)
    return {k: v for k, v in cert.items() if v is not None}


def _polynomial(**changes) -> dict:
    doc = {"vars": 2, "terms": [{"exps": [1, 0], "coef": 1.0}]}
    doc.update(changes)
    return doc


# name -> document (a dict is dumped to JSON first; a str is parsed as is)
CONTROL = {
    "control: not json": '{"dim": ',
    "control: missing key": {k: v for k, v in _control().items() if k != "output"},
    "control: dim not integer": _control(dim=1.0),
    "control: dim mismatch": _control(dim=2),
    "control: box not array": _control(state_box="[0, 1]"),
    "control: box empty": _control(input_box=[]),
    "control: bound not pair": _control(state_box=[[0.0]]),
    "control: bound not number": _control(input_box=[[0.0, "0.1"]]),
    "control: bound bool": _control(state_box=[[False, 1.0]]),
    "control: bound past float range": _control(input_box=[[0.0, 10 ** 400]]),
    "control: region not array": _control(secret_box={"lo": 0.6, "hi": 1.0}),
    "control: union member not box": _control(initial_box=[[[0.0, 0.5]], "box"]),
    "control: region wrong dimension": _control(initial_box=[[0.0, 1.0], [0.0, 1.0]]),
    "control: union member wrong dimension": _control(
        secret_box=[[[0.6, 1.0]], [[0.0, 0.1], [0.0, 0.1]]]),
    "control: region leaves the state box": _control(secret_box=[[0.6, 1.5]]),
    "control: iss_cert not object": _control(iss_cert=[1.0, 0.5, 2.0, 1.0]),
    "control: iss_cert missing key": _control(iss_cert=_cert(g=None)),
    "control: iss_cert value not number": _control(iss_cert=_cert(c="1")),
    "control: iss_cert value past float range": _control(iss_cert=_cert(a=10 ** 400)),
    "control: iss_cert lambda out of range": _control(iss_cert=_cert(**{"lambda": 1.0})),
    "control: iss_cert c below one": _control(iss_cert=_cert(c=0.5)),
    "control: iss_cert g negative": _control(iss_cert=_cert(g=-1.0)),
    "control: iss_cert a not positive": _control(iss_cert=_cert(a=0.0)),
    "control: dynamics not array": _control(dynamics="0.5*x1"),
    "control: dynamics not strings": _control(dynamics=[0.5]),
    "control: output not strings": _control(output=[["x1"]]),
    "control: dynamics arity": _control(dynamics=["x1", "x1"]),
    "control: output empty": _control(output=[]),
    "control: empty initial region": _control(initial_box=[]),
    "control: empty secret region": _control(secret_box=[]),
}

POLYNOMIAL = {
    "polynomial: not object": "[1, 2]",
    "polynomial: missing terms": {"vars": 2},
    "polynomial: vars not integer": _polynomial(vars="2"),
    "polynomial: no variables": _polynomial(vars=0, terms=[]),
    "polynomial: terms not array": _polynomial(terms={"exps": [1, 0], "coef": 1.0}),
    "polynomial: term not object": _polynomial(terms=[[[1, 0], 1.0]]),
    "polynomial: term lacks coef": _polynomial(terms=[{"exps": [1, 0]}]),
    "polynomial: exps not integers": _polynomial(terms=[{"exps": [1, 0.0], "coef": 1}]),
    "polynomial: coef not number": _polynomial(terms=[{"exps": [1, 0], "coef": "1"}]),
    "polynomial: coef past float range": _polynomial(
        terms=[{"exps": [1, 0], "coef": 10 ** 400}]),
    "polynomial: coef not finite": '{"vars": 1, "terms": [{"exps": [1], "coef": NaN}]}',
    "polynomial: term arity": _polynomial(terms=[{"exps": [1], "coef": 1.0}]),
    "polynomial: negative exponent": _polynomial(terms=[{"exps": [1, -1], "coef": 1.0}]),
    "polynomial: exponent past the bound": _polynomial(
        terms=[{"exps": [10 ** 7, 0], "coef": 1.0}]),
    "polynomial: duplicate term": _polynomial(
        terms=[{"exps": [1, 0], "coef": 1.0}, {"exps": [1, 0], "coef": 2.0}]),
}

# name -> expression text, compiled over x1 and u1
EXPRESSION = {
    "expression: not a string": 1.0,
    "expression: blank": "  ",
    "expression: syntax": "x1 +",
    "expression: unknown function": "log(x1)",
    "expression: method call": "x1.real(u1)",
    "expression: two arguments": "sin(x1, u1)",
    "expression: keyword argument": "cos(x=x1)",
    "expression: unknown variable": "x1 + x2",
    "expression: string constant": "x1 + 'a'",
    "expression: bool constant": "x1 * True",
    "expression: complex constant": "x1 + 1j",
    "expression: power": "x1 ** 2",
    "expression: comparison": "x1 < u1",
    "expression: nested too deeply": "-" * 1500 + "x1",
}


def _interconnection(**sub1) -> dict:
    sub = {"a": 0.5, "b": 0.2, "state": [0.0, 1.0], "initial": [0.0, 0.2],
           "secret": [0.6, 1.0]}
    return {"sub1": {**sub, **sub1}, "sub2": sub}


INTERCONNECTION = {
    "interconnection: not object": "[1, 2]",
    "interconnection: missing sub2": {"sub1": _interconnection()["sub1"]},
    "interconnection: sub not object": {**_interconnection(), "sub2": [0.5, 0.2]},
    "interconnection: a not number": _interconnection(a="0.5"),
    "interconnection: a bool": _interconnection(a=True),
    "interconnection: a past float range": _interconnection(a=10 ** 400),
    "interconnection: a out of range": _interconnection(a=-1.0),
    "interconnection: b not finite": json.dumps(_interconnection(b=math.nan)),
    "interconnection: state one bound": _interconnection(state=[0.0]),
    "interconnection: state reversed": _interconnection(state=[1.0, 0.0]),
    "interconnection: initial leaves state": _interconnection(initial=[0.0, 1.5]),
}


def _outcome(fn, arg) -> list[str]:
    try:
        fn(arg)
    except Exception as exc:  # the class and message are what is pinned
        return [type(exc).__name__, str(exc)]
    return ["accepted", ""]


def _text(doc) -> str:
    return doc if isinstance(doc, str) else json.dumps(doc)


def outcomes() -> dict:
    found = {}
    for name, doc in CONTROL.items():
        found[name] = _outcome(parse_control_system, _text(doc))
    for name, doc in POLYNOMIAL.items():
        found[name] = _outcome(parse_polynomial, _text(doc))
    for name, text in EXPRESSION.items():
        found[name] = _outcome(lambda t: compile_expr(t, 1, 1), text)
    for name, doc in INTERCONNECTION.items():
        found[name] = _outcome(parse_interconnection, _text(doc))
    return found


def test_malformed_inputs_fail_with_pinned_messages():
    expected = json.loads(EXPECTED.read_text())
    found = outcomes()
    assert sorted(found) == sorted(expected)
    for name in expected:
        assert found[name] == expected[name], name
    accepted = sorted(name for name, (kind, _) in found.items() if kind == "accepted")
    assert accepted == ["control: empty initial region", "control: empty secret region"]


def test_an_empty_region_parses_to_no_boxes():
    cs = parse_control_system(json.dumps(_control(initial_box=[], secret_box=[])))
    assert cs.initial_region.boxes == () and cs.secret_region.boxes == ()
    assert not cs.initial_region.contains((0.5,))


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(outcomes(), indent=1, sort_keys=True) + "\n")

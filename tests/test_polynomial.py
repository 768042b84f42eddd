"""Polynomial parsing and evaluation against a naive oracle."""

import json
import random

import pytest

from opacue.errors import ParseError, ValidationError
from opacue.polynomial import Polynomial, parse_polynomial


def test_parse_and_evaluate():
    doc = {
        "vars": 2,
        "terms": [
            {"exps": [2, 0], "coef": 1.0},
            {"exps": [0, 2], "coef": 1.0},
            {"exps": [1, 1], "coef": -2.0},
            {"exps": [0, 0], "coef": -0.04},
        ],
    }
    p = parse_polynomial(json.dumps(doc))
    # (x - y)^2 - 0.04
    assert p((1.0, 0.0)) == pytest.approx(0.96)
    assert p((0.3, 0.3)) == pytest.approx(-0.04)


def test_validation_errors():
    with pytest.raises(ValidationError):
        Polynomial(2, (((1,), 1.0),))  # wrong arity
    with pytest.raises(ValidationError):
        Polynomial(2, (((1, -1), 1.0),))  # negative exponent
    with pytest.raises(ValidationError):
        Polynomial(2, (((1, 0), 1.0), ((1, 0), 2.0)))  # duplicate term
    with pytest.raises(ValidationError):
        Polynomial(2, ()).__call__((1.0,))  # wrong point arity


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_polynomial("[1,2]")
    with pytest.raises(ParseError):
        parse_polynomial(json.dumps({"vars": 2, "terms": [{"exps": [1, "x"], "coef": 1}]}))
    with pytest.raises(ParseError):
        parse_polynomial(json.dumps({"vars": 2, "terms": [{"exps": [1, 1]}]}))


def test_json_roundtrip():
    p = Polynomial(3, (((1, 0, 2), 0.5), ((0, 0, 0), -1.25)))
    again = parse_polynomial(p.to_json())
    assert again == p


def test_evaluation_matches_naive_monomial_sum():
    rng = random.Random(901)
    for _ in range(200):
        n_vars = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 10)):
            exps = tuple(rng.randint(0, 6) for _ in range(n_vars))
            terms.setdefault(exps, round(rng.uniform(-3, 3), 3))
        poly = Polynomial(n_vars, tuple(terms.items()))
        point = tuple(rng.uniform(-2, 2) for _ in range(n_vars))
        naive = 0.0
        for exps, coef in terms.items():
            mono = coef
            for v, e in zip(point, exps):
                mono *= v**e
            naive += mono
        got = poly(point)
        assert got == pytest.approx(naive, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("coef", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "huge-int"])
def test_parse_rejects_non_finite_coefficients(coef):
    text = '{"vars": 1, "terms": [{"exps": [1], "coef": %s}]}' % coef
    with pytest.raises(ParseError, match="finite"):
        parse_polynomial(text)

"""Polynomial parsing and evaluation against a naive oracle."""

import json
import math
import pickle
import random

import numpy as np
import pytest

from opacue.errors import ParseError, ValidationError
from opacue.polynomial import (
    _CHUNK, MAX_EXPONENT, Polynomial, parse_polynomial, tabulate, tabulate_blocks,
)


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


@pytest.mark.parametrize("coef, error", [
    ("NaN", "finite"), ("Infinity", "finite"), ("-Infinity", "finite"),
    # named like a box bound past float range, not echoed digit by digit
    ("1" + "0" * 400, r"^terms\[0\]\.coef: out of float range$"),
], ids=["nan", "inf", "-inf", "huge-int"])
def test_parse_rejects_non_finite_coefficients(coef, error):
    text = '{"vars": 1, "terms": [{"exps": [1], "coef": %s}]}' % coef
    with pytest.raises(ParseError, match=error):
        parse_polynomial(text)


@pytest.mark.parametrize("coef", [
    math.nan, math.inf, -math.inf, True, "1", None, np.float64(1.0), 10 ** 400, [1.0],
], ids=["nan", "inf", "-inf", "bool", "str", "none", "numpy", "huge-int", "list"])
def test_constructor_refuses_a_coefficient_no_file_holds(coef):
    # a file's coefficient is a finite JSON number: `to_json` could write
    # none of these so that `parse_polynomial` reads it back
    with pytest.raises(ValidationError, match=r"^term \(1,\): coefficient"):
        Polynomial(1, (((1,), coef),))


def test_seeded_polynomials_read_back_from_their_files():
    rng = random.Random(4242)
    coefs = [0.0, -0.0, 5e-324, -1e300, 1 / 3, -2.5, 3, -7, 2 ** 60]
    for _ in range(400):
        n_vars = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(0, 8)):
            exps = tuple(rng.randint(0, 6) for _ in range(n_vars))
            terms.setdefault(exps, rng.choice(coefs) if rng.random() < 0.5
                             else rng.uniform(-3, 3))
        poly = Polynomial(n_vars, tuple(terms.items()))
        assert parse_polynomial(poly.to_json()) == poly


def _power_table_reference(poly, point):
    """The evaluator before compilation: per-call power tables."""
    max_exp = [0] * poly.n_vars
    for exps, _ in poly.terms:
        for i, e in enumerate(exps):
            if e > max_exp[i]:
                max_exp[i] = e
    powers = []
    for i, v in enumerate(point):
        row = [1.0]
        for _ in range(max_exp[i]):
            row.append(row[-1] * v)
        powers.append(row)
    total = 0.0
    for exps, coef in poly.terms:
        mono = coef
        for i, e in enumerate(exps):
            if e:
                mono *= powers[i][e]
        total += mono
    return total


def _same_float(a, b):
    if math.isnan(b):
        return math.isnan(a)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_compiled_evaluation_is_bit_identical_to_power_tables():
    rng = random.Random(5150)
    coefs = [0.0, -0.0, 1e300, -1e300, 1.0, -2.5]
    coords = [0, 1, -3, 0.0, -0.0, 1e200, -1e200, 0.5, -1.25]
    for _ in range(2000):
        n_vars = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(0, 8)):
            exps = tuple(rng.randint(0, 4) for _ in range(n_vars))
            coef = rng.choice(coefs) if rng.random() < 0.5 else rng.uniform(-3, 3)
            terms.setdefault(exps, coef)
        poly = Polynomial(n_vars, tuple(terms.items()))
        for _ in range(3):
            point = tuple(rng.choice(coords) if rng.random() < 0.6 else rng.uniform(-2, 2)
                          for _ in range(n_vars))
            got, want = poly(point), _power_table_reference(poly, point)
            assert _same_float(got, want), (poly, point, got, want)
        with pytest.raises(ValidationError):
            poly((0.0,) * (n_vars + 1))
        fresh = Polynomial(n_vars, tuple(terms.items()))
        assert poly == fresh and hash(poly) == hash(fresh)


def test_evaluated_polynomial_pickles_and_evaluates_again():
    p = Polynomial(2, (((1, 2), -0.5), ((0, 0), 3.0)))
    value = p((2.0, 3.0))
    again = pickle.loads(pickle.dumps(p))
    assert again == p and again((2.0, 3.0)) == value


def test_many_terms_compile_and_match_power_tables():
    # a single generated sum over this many terms would exceed the
    # compiler's recursion limit
    terms = tuple(((a, b), 0.5 - (a + b) % 3) for a in range(80) for b in range(50))
    poly = Polynomial(2, terms)
    point = (0.99, -1.01)
    assert _same_float(poly(point), _power_table_reference(poly, point))


def test_bool_exponents_are_rejected():
    # True used to pass as the exponent 1: this evaluated as x1
    with pytest.raises(ValidationError, match="exponents"):
        Polynomial(2, (((True, 0), 1.0),))
    with pytest.raises(ValidationError, match="exponents"):
        Polynomial(1, (((False,), 1.0),))


def test_parse_rejects_a_bool_variable_count():
    # "vars": true used to be read as one variable
    with pytest.raises(ParseError, match="vars"):
        parse_polynomial('{"vars": true, "terms": [{"exps": [1], "coef": 1.0}]}')


def test_table_is_bit_identical_to_pointwise_calls():
    rng = random.Random(20261018)
    coefs = [0.0, -0.0, 1e300, -1e300, 1.0, -2.5]
    # signed zeros; 1e200 squared overflows to inf, and inf - inf is NaN
    coords = [0.0, -0.0, 1e200, -1e200, 0.5, -1.25, 3.0]
    seen = set()

    def points(dim, count):
        return [tuple(rng.choice(coords) if rng.random() < 0.5 else rng.uniform(-2, 2)
                      for _ in range(dim)) for _ in range(count)]

    for _ in range(400):
        n_vars = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(0, 8)):
            exps = tuple(rng.randint(0, 4) for _ in range(n_vars))
            terms.setdefault(exps, rng.choice(coefs) if rng.random() < 0.5
                             else rng.uniform(-3, 3))
        poly = Polynomial(n_vars, tuple(terms.items()))
        for split in range(n_vars + 1):
            rows = points(split, rng.randint(1, 4))
            cols = points(n_vars - split, rng.randint(1, 4))
            want = [[repr(poly(r + c)) for c in cols] for r in rows]
            for table in (poly.table(rows, cols), tabulate(poly, rows, cols),
                          tabulate(lambda p: poly(p), rows, cols)):
                assert [[repr(v) for v in row] for row in table] == want, (poly, rows, cols)
            seen.update(v for row in want for v in row if v in ("inf", "-inf", "nan"))
            with pytest.raises(ValidationError, match="point has"):
                poly.table(rows, [c + (0.0,) for c in cols])
    assert seen == {"inf", "-inf", "nan"}


def test_gapped_exponents_are_bit_identical_to_power_tables():
    # only the exponents 5 and 17 are bound; each is reached from the one
    # below by the same products as in a full power table
    rng = random.Random(517)
    terms = (((17, 0, 5), 1.5), ((5, 17, 0), -0.75), ((0, 5, 17), 2.0), ((0, 0, 0), 0.25),
             ((17, 17, 17), -1.0))
    poly = Polynomial(3, terms)
    coords = [0.0, -0.0, 1.0, -1.0, 1e20, -1e20, 0.999, -1.001]
    points = [tuple(rng.choice(coords) if rng.random() < 0.4 else rng.uniform(-1.5, 1.5)
                    for _ in range(3)) for _ in range(12)]
    for split in range(4):
        rows, cols = [p[:split] for p in points], [p[split:] for p in points]
        got = [repr(v) for row in poly.table(rows, cols) for v in row]
        want = [repr(_power_table_reference(poly, r + c)) for r in rows for c in cols]
        assert got == want, split
    assert {"inf", "nan"} <= set(want)  # overflows are reached too


def test_table_of_many_terms_and_after_pickling():
    terms = tuple(((a, b), 0.5 - (a + b) % 3) for a in range(80) for b in range(50))
    poly = pickle.loads(pickle.dumps(Polynomial(2, terms)))
    rows, cols = [(0.99,), (-0.5,)], [(-1.01,), (0.25,), (1.0,)]
    assert poly.table(rows, cols) == [[poly(r + c) for c in cols] for r in rows]
    assert poly.table([], cols) == [] and poly.table(rows, []) == [[], []]


@pytest.mark.parametrize("count", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 3000])
def test_row_sums_are_bit_identical_across_chunk_boundaries(count):
    # a row's sum is built one chunk of at most _CHUNK terms at a time;
    # every term count must give the one left-to-right sum of a power table
    rng = random.Random(count)
    exps = rng.sample([(a, b, c) for a in range(15) for b in range(15) for c in range(15)],
                      count)
    terms = tuple((e, rng.choice([1e300, -0.0, 0.5]) if rng.random() < 0.1
                   else rng.uniform(-2, 2)) for e in exps)
    poly = Polynomial(3, terms)
    coords = [0.0, -0.0, 1.0, -1.0, 1e60, 0.999, -1.001]
    points = [tuple(rng.choice(coords) if rng.random() < 0.3 else rng.uniform(-1.5, 1.5)
                    for _ in range(3)) for _ in range(6)]
    for split in range(4):
        rows, cols = [p[:split] for p in points], [p[split:] for p in points]
        got = [repr(v) for row in poly.table(rows, cols) for v in row]
        want = [repr(_power_table_reference(poly, r + c)) for r in rows for c in cols]
        assert got == want, split


def test_exponents_up_to_the_bound_are_accepted_and_past_it_refused():
    assert Polynomial(2, (((MAX_EXPONENT, 0), 1.0),))((1.0, 0.5)) == 1.0
    with pytest.raises(ValidationError, match=f"at most MAX_EXPONENT = {MAX_EXPONENT}"):
        Polynomial(2, (((0, MAX_EXPONENT + 1), 1.0),))


# -- the staged kernel: column stage once, row stage per block ----------------

# -0.0, subnormals, and coefficients whose products overflow
_COEFS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.0, -2.5]
# 1e-160 squares to a subnormal, 1e200 to inf
_COORDS = [0.0, -0.0, 1e-160, 1e200, -1e200, 0.5, -1.25, 3.0]


def _term_list(rng, n_vars, split, lead, count, top=4):
    """Up to `count` distinct terms over n_vars variables, exponents at most
    `top`: first up to `lead` row-only terms (over the first `split`
    variables, constants included), then terms of every kind in a random
    order: row-only, constant, column-only with 1-3 column factors, and
    mixed."""
    def exps(row_factors, col_factors):
        e = [0] * n_vars
        for i in rng.sample(range(split), min(row_factors, split)):
            e[i] = rng.randint(1, top)
        for i in rng.sample(range(split, n_vars), min(col_factors, n_vars - split)):
            e[i] = rng.randint(1, top)
        return tuple(e)

    factors = {"row": lambda: (rng.randint(1, 3), 0), "const": lambda: (0, 0),
               "col": lambda: (0, rng.randint(1, 3)),
               "mixed": lambda: (rng.randint(1, 2), rng.randint(1, 2))}
    terms = {}
    for _ in range(20 * count):
        if len(terms) == count:
            break
        kinds = ["row", "row", "const"] if len(terms) < lead else list(factors)
        e = exps(*factors[rng.choice(kinds)]())
        if e not in terms:
            terms[e] = rng.choice(_COEFS) if rng.random() < 0.4 else rng.uniform(-3, 3)
    return tuple(terms.items())


def _assert_staged_tables_match(rng, poly):
    """At every split, each cell of `tables` and `table` has the repr of
    the per-point power-table value, block by block, empty blocks and
    empty columns included."""
    def points(dim, count):
        return [tuple(rng.choice(_COORDS) if rng.random() < 0.5 else rng.uniform(-2, 2)
                      for _ in range(dim)) for _ in range(count)]

    for split in range(poly.n_vars + 1):
        cols = points(poly.n_vars - split, rng.choice([0, 1, 2, 4]))
        blocks = [points(split, rng.choice([0, 1, 3])) for _ in range(rng.randint(0, 3))]
        want = [[[repr(_power_table_reference(poly, r + c)) for c in cols] for r in rows]
                for rows in blocks]
        staged = [[[repr(v) for v in row] for row in table]
                  for table in poly.tables(blocks, cols)]
        assert staged == want, (poly, split, blocks, cols)
        for rows, table in zip(blocks, want):
            assert [[repr(v) for v in row] for row in poly.table(rows, cols)] == table
        fallback = tabulate_blocks(lambda p: _power_table_reference(poly, p), blocks, cols)
        assert [[[repr(v) for v in row] for row in t] for t in fallback] == want


def test_staged_tables_are_bit_identical_to_power_tables_on_seeded_term_lists():
    rng = random.Random(20261022)
    for _ in range(600):
        n_vars = rng.randint(1, 5)
        split = rng.randint(0, n_vars)
        lead = rng.randint(0, 3)
        poly = Polynomial(n_vars, _term_list(rng, n_vars, split, lead, lead + rng.randint(0, 6)))
        _assert_staged_tables_match(rng, poly)


@pytest.mark.parametrize("lead", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
def test_a_leading_row_only_run_across_chunk_boundaries_is_bit_identical(lead):
    # the leading run is summed once per row, one chunk of at most _CHUNK
    # terms at a time; the terms after it run in chunks of their own
    rng = random.Random(lead)
    poly = Polynomial(5, _term_list(rng, 5, 3, lead, lead + _CHUNK + 7, top=6))
    run = next((k for k, (exps, _) in enumerate(poly.terms) if any(exps[3:])), len(poly.terms))
    assert run == lead and len(poly.terms) == lead + _CHUNK + 7
    for _ in range(3):
        _assert_staged_tables_match(rng, poly)


def test_tables_forms_the_columns_once_and_each_block_when_reached():
    poly = Polynomial(2, (((2, 0), 1.0), ((0, 2), -0.5), ((1, 1), 2.0), ((0, 0), 0.25)))
    cols = [(0.5,), (-1.0,), (2.0,)]
    stages = []
    columns, table = poly._tables.setdefault(1, poly._table_kernel(1))
    poly._tables[1] = (lambda cs: stages.append(cs) or columns(cs)), table

    def blocks():
        yield [(1.0,), (0.0,)]
        yield []
        yield [(0.25,)]
        yield [(1.0, 2.0)]  # a point of three coordinates

    tables = poly.tables(blocks(), cols)
    assert next(tables) == [[poly((x, y)) for (y,) in cols] for x in (1.0, 0.0)]
    assert next(tables) == []
    assert next(tables) == [[poly((0.25, y)) for (y,) in cols]]
    assert stages == [cols]
    with pytest.raises(ValidationError, match="point has 3 coordinates, expected 2"):
        next(tables)
    assert list(poly.tables([[(1.0,)], []], [])) == [[[]], []]

"""Multivariate polynomials over the augmented variables (x, x_hat)."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import ParseError, ValidationError

__all__ = ["Polynomial", "parse_polynomial"]


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial: exponent tuples over n_vars variables to coefficients."""

    n_vars: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValidationError("a polynomial needs at least one variable")
        seen = set()
        for exps, _coef in self.terms:
            if len(exps) != self.n_vars:
                raise ValidationError(
                    f"term {exps} has {len(exps)} exponents, expected {self.n_vars}"
                )
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValidationError(f"term {exps}: exponents must be nonnegative ints")
            if exps in seen:
                raise ValidationError(f"duplicate term {exps}")
            seen.add(exps)

    def __call__(self, point: Sequence[float]) -> float:
        """Evaluate at a point, reusing per-variable power tables."""
        if len(point) != self.n_vars:
            raise ValidationError(
                f"point has {len(point)} coordinates, expected {self.n_vars}"
            )
        max_exp = [0] * self.n_vars
        for exps, _ in self.terms:
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
        for exps, coef in self.terms:
            mono = coef
            for i, e in enumerate(exps):
                if e:
                    mono *= powers[i][e]
            total += mono
        return total

    def to_json(self) -> str:
        doc = {
            "vars": self.n_vars,
            "terms": [{"exps": list(e), "coef": c} for e, c in self.terms],
        }
        return json.dumps(doc, indent=2) + "\n"


def parse_polynomial(text: str | bytes) -> Polynomial:
    """Parse {"vars": k, "terms": [{"exps": [..], "coef": number}, ...]}."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "vars" not in doc or "terms" not in doc:
        raise ParseError("$: expected an object with 'vars' and 'terms'")
    if not isinstance(doc["vars"], int):
        raise ParseError("vars: expected an integer")
    if not isinstance(doc["terms"], list):
        raise ParseError("terms: expected an array")
    terms = []
    for i, term in enumerate(doc["terms"]):
        where = f"terms[{i}]"
        if not (isinstance(term, dict) and "exps" in term and "coef" in term):
            raise ParseError(f"{where}: expected an object with 'exps' and 'coef'")
        exps = term["exps"]
        if not (isinstance(exps, list) and all(isinstance(e, int) and not isinstance(e, bool) for e in exps)):
            raise ParseError(f"{where}.exps: expected an array of integers")
        coef = term["coef"]
        if isinstance(coef, bool) or not isinstance(coef, (int, float)):
            raise ParseError(f"{where}.coef: expected a number")
        if not abs(coef) <= sys.float_info.max:  # NaN, inf, or past float range
            raise ParseError(f"{where}.coef: expected a finite number, got {coef}")
        terms.append((tuple(exps), float(coef)))
    return Polynomial(n_vars=doc["vars"], terms=tuple(terms))

"""Multivariate polynomials over the augmented variables (x, x_hat)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .errors import ParseError, ValidationError
from .system import json_number, read_object

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
            if any(type(e) is not int or e < 0 for e in exps):
                raise ValidationError(f"term {exps}: exponents must be nonnegative ints")
            if exps in seen:
                raise ValidationError(f"duplicate term {exps}")
            seen.add(exps)

    def __call__(self, point: Sequence[float]) -> float:
        """Evaluate at a point with the compiled straight-line evaluator."""
        if len(point) != self.n_vars:
            raise ValidationError(
                f"point has {len(point)} coordinates, expected {self.n_vars}"
            )
        return self._evaluate(point)

    @cached_property
    def _evaluate(self) -> Callable[[Sequence[float]], float]:
        """The evaluator, generated once per instance from the exponents.

        It does the float operations of a power-table evaluation in their
        order: powers v^1 = 1.0*v and v^e = v^(e-1)*v up to each variable's
        largest exponent, each monomial as ((coef*P0)*P1)... over the
        variables with a nonzero exponent, and the sum ((0.0 + m0) + m1)...
        in term order. Coefficients come in as a tuple, never as source text.
        """
        top = [max((exps[i] for exps, _ in self.terms), default=0)
               for i in range(self.n_vars)]
        body = ["".join(f"x{i}, " for i in range(self.n_vars)) + "= point"]
        for i, e_max in enumerate(top):
            prev = "1.0"
            for e in range(1, e_max + 1):
                body.append(f"p{i}_{e} = {prev} * x{i}")
                prev = f"p{i}_{e}"
        # one statement per term: a single long sum would nest past the
        # compiler's recursion limit for a few thousand terms
        body.append("total = 0.0")
        for k, (exps, _) in enumerate(self.terms):
            factors = "".join(f" * p{i}_{e}" for i, e in enumerate(exps) if e)
            body.append(f"total += c{k}{factors}")
        body.append("return total")
        source = "\n".join([
            "def bind(coefs):",
            "    (" + "".join(f"c{k}, " for k in range(len(self.terms))) + ") = coefs",
            "    def evaluate(point):",
            *(f"        {line}" for line in body),
            "    return evaluate",
        ])
        namespace = {"__builtins__": {}}
        exec(compile(source, "<polynomial>", "exec"), namespace)
        return namespace["bind"](tuple(coef for _, coef in self.terms))

    def __getstate__(self) -> dict:
        # the generated evaluator does not pickle; it is rebuilt on first use
        return {k: v for k, v in self.__dict__.items() if k != "_evaluate"}

    def to_json(self) -> str:
        doc = {
            "vars": self.n_vars,
            "terms": [{"exps": list(e), "coef": c} for e, c in self.terms],
        }
        return json.dumps(doc, indent=2) + "\n"


def parse_polynomial(text: str | bytes) -> Polynomial:
    """Parse {"vars": k, "terms": [{"exps": [..], "coef": number}, ...]}."""
    doc = read_object(text, ("vars", "terms"))
    if type(doc["vars"]) is not int:
        raise ParseError("vars: expected an integer")
    if not isinstance(doc["terms"], list):
        raise ParseError("terms: expected an array")
    terms = []
    for i, term in enumerate(doc["terms"]):
        where = f"terms[{i}]"
        if not (isinstance(term, dict) and "exps" in term and "coef" in term):
            raise ParseError(f"{where}: expected an object with 'exps' and 'coef'")
        exps = term["exps"]
        if not (isinstance(exps, list) and all(type(e) is int for e in exps)):
            raise ParseError(f"{where}.exps: expected an array of integers")
        try:
            coef = json_number(term["coef"])
        except TypeError:
            raise ParseError(f"{where}.coef: expected a number") from None
        except OverflowError:
            coef = math.inf
        if not math.isfinite(coef):
            raise ParseError(f"{where}.coef: expected a finite number, got {term['coef']}")
        terms.append((tuple(exps), coef))
    return Polynomial(n_vars=doc["vars"], terms=tuple(terms))

"""Multivariate polynomials over the augmented variables (x, x_hat)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import ParseError, ValidationError
from .system import json_number, read_object

__all__ = ["MAX_EXPONENT", "Polynomial", "parse_polynomial", "tabulate"]

# The largest exponent a term may carry. The table kernel reaches each power
# by one product at a time, as bit-identity with power tables requires, so
# its time grows linearly with the largest exponent: about 0.2 s at this
# bound for `barrier` on a 1-D plant at resolution 0.1 (2-vCPU host,
# Python 3.11).
MAX_EXPONENT = 100_000

# The most terms one generated sum adds: each term nests the sum one level
# deeper, and the compiler refuses a few thousand levels.
_CHUNK = 100


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial: exponent tuples over n_vars variables to coefficients."""

    n_vars: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValidationError("a polynomial needs at least one variable")
        seen = set()
        for exps, coef in self.terms:
            if len(exps) != self.n_vars:
                raise ValidationError(
                    f"term {exps} has {len(exps)} exponents, expected {self.n_vars}"
                )
            if any(type(e) is not int or e < 0 for e in exps):
                raise ValidationError(f"term {exps}: exponents must be nonnegative ints")
            if max(exps) > MAX_EXPONENT:
                raise ValidationError(
                    f"term {exps}: exponents must be at most MAX_EXPONENT = {MAX_EXPONENT}"
                )
            try:  # exactly a float or an int, as a parsed file's coefficient is
                if not math.isfinite(json_number(coef)):
                    raise ValidationError(f"term {exps}: coefficient {coef} is not finite")
            except (TypeError, OverflowError) as exc:
                raise ValidationError(f"term {exps}: coefficient: {exc}") from None
            if exps in seen:
                raise ValidationError(f"duplicate term {exps}")
            seen.add(exps)

    def __call__(self, point: Sequence[float]) -> float:
        """Evaluate at one point: a one-point table."""
        return self.table((point,), ((),))[0][0]

    def table(self, rows: Sequence[Sequence[float]],
              cols: Sequence[Sequence[float]]) -> list[list[float]]:
        """values[i][j] == self(rows[i] + cols[j]), bit for bit, at any split.

        Every row holds the same leading variables and every column the
        rest; the dimension is checked on the first of each only.
        """
        if not rows or not cols:
            return [[] for _ in rows]
        split = len(rows[0])
        if split + len(cols[0]) != self.n_vars:
            raise ValidationError(f"point has {split + len(cols[0])} coordinates, "
                                  f"expected {self.n_vars}")
        kernel = self._tables.get(split)
        if kernel is None:
            kernel = self._tables[split] = self._table_kernel(split)
        return kernel(rows, cols)

    @cached_property
    def _tables(self) -> dict[int, Callable]:
        """The table kernels generated so far, by the number of row variables."""
        return {}

    def _table_kernel(self, split: int) -> Callable:
        """The kernel for rows of the first `split` variables. It does the
        float operations of a power-table evaluation in their order: powers
        v^1 = 1.0*v and v^e = v^(e-1)*v, bound for the exponents that occur
        only, each monomial as ((coef*P0)*P1)... over the variables with
        a nonzero exponent, and the sum ((0.0 + m0) + m1)... in term order,
        a row of sums at a time.
        Each monomial's row prefix (coef*P0)*...*P(split-1) is taken once per
        row, the column powers once per call. Coefficients come in as a
        tuple, never as source text."""
        row_vars, col_vars = range(split), range(split, self.n_vars)
        col_powers = _targets(f"p{i}_{e}" for i in col_vars for e in self._exps[i])
        heads = []  # each term's row prefix: a name bound per row, or its coefficient
        prefixes = []
        for k, (exps, _) in enumerate(self.terms):
            factors = _factors(exps, row_vars)
            heads.append(f"m{k}" if factors else f"c{k}")
            if factors:
                prefixes.append(f"m{k} = c{k}{factors}")
        # A row is one comprehension over the column powers per chunk of at
        # most _CHUNK terms, each adding its terms to the running sums of the
        # one before: a single sum of a few thousand terms would nest past the
        # compiler's recursion limit.
        terms = [f" + {head}{_factors(exps, col_vars)}"
                 for head, (exps, _) in zip(heads, self.terms)]
        chunks = [terms[k:k + _CHUNK] for k in range(0, len(terms), _CHUNK)] or [[]]
        sums = [f"    row = [0.0{''.join(chunks[0])} for {col_powers} in powers]",
                *(f"    row = [total{''.join(chunk)} for total, {col_powers} "
                  f"in zip(row, powers)]" for chunk in chunks[1:])]
        return self._compile([
            "powers = []",
            f"for {_targets(f'x{i}' for i in col_vars)} in cols:",
            *(f"    {line}" for line in self._powers(col_vars)),
            f"    powers.append({col_powers})",
            "out = []",
            f"for {_targets(f'x{i}' for i in row_vars)} in rows:",
            *(f"    {line}" for line in (*self._powers(row_vars), *prefixes)),
            *sums,
            "    out.append(row)",
            "return out",
        ])

    @cached_property
    def _exps(self) -> list[list[int]]:
        """Each variable's nonzero exponents, ascending."""
        return [sorted({exps[i] for exps, _ in self.terms} - {0}) for i in range(self.n_vars)]

    def _powers(self, variables: range) -> list[str]:
        """Lines binding p{i}_{e} = v^e for each exponent e of each variable i,
        one product by v at a time from the power below (a loop past the first)."""
        lines = []
        for i in variables:
            prev, below = "1.0", 0
            for e in self._exps[i]:
                lines.append(f"p{i}_{e} = {prev} * x{i}")
                if e - below > 1:
                    lines += [f"for _ in range({e - below - 1}):", f"    p{i}_{e} *= x{i}"]
                prev, below = f"p{i}_{e}", e
        return lines

    def _compile(self, body: list[str]) -> Callable:
        """`def f(rows, cols): body`, with the coefficients bound as c0, c1, ..."""
        source = "\n".join([
            "def bind(coefs):",
            f"    {_targets(f'c{k}' for k in range(len(self.terms)))} = coefs",
            "    def f(rows, cols):",
            *(f"        {line}" for line in body),
            "    return f",
        ])
        namespace = {"__builtins__": {}, "range": range, "zip": zip}
        exec(compile(source, "<polynomial>", "exec"), namespace)
        return namespace["bind"](tuple(coef for _, coef in self.terms))

    def __getstate__(self) -> dict:
        # the generated code does not pickle; it is rebuilt on first use
        return {k: v for k, v in self.__dict__.items() if k != "_tables"}

    def to_json(self) -> str:
        doc = {
            "vars": self.n_vars,
            "terms": [{"exps": list(e), "coef": c} for e, c in self.terms],
        }
        return json.dumps(doc, indent=2) + "\n"


def _targets(names: Iterable[str]) -> str:
    """Source of the tuple of `names`, as a target or a value: "(a, b, )"."""
    return "(" + "".join(f"{name}, " for name in names) + ")"


def _factors(exps: tuple[int, ...], variables: range) -> str:
    """Source of the power factors " * p{i}_{e}" of `variables` in a monomial."""
    return "".join(f" * p{i}_{exps[i]}" for i in variables if exps[i])


def tabulate(f: Callable[[Sequence[float]], float], rows: Sequence[Sequence[float]],
             cols: Sequence[Sequence[float]]) -> list[list[float]]:
    """values[i][j] == f(rows[i] + cols[j]): one `table` call when `f` has
    one (a Polynomial), otherwise one call of `f` per point."""
    table = getattr(f, "table", None)
    if table is not None:
        return table(rows, cols)
    return [[f(r + c) for c in cols] for r in rows]


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
            raise ParseError(f"{where}.coef: out of float range") from None
        if not math.isfinite(coef):
            raise ParseError(f"{where}.coef: expected a finite number, got {term['coef']}")
        terms.append((tuple(exps), coef))
    return Polynomial(n_vars=doc["vars"], terms=tuple(terms))


def parse_candidate(text: str | bytes, n_vars: int, source: str) -> Polynomial:
    """A candidate certificate read from `source`: a polynomial over n_vars
    variables, x then x_hat, refused before any sampling otherwise."""
    candidate = parse_polynomial(text)
    if candidate.n_vars != n_vars:
        raise ValidationError(f"{source}: the candidate has {candidate.n_vars} variables, "
                              f"expected {n_vars} (x, then x_hat)")
    return candidate

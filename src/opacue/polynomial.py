"""Multivariate polynomials over the augmented variables (x, x_hat)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ParseError, ValidationError
from .system import json_number, read_object

__all__ = ["MAX_EXPONENT", "Polynomial", "parse_polynomial", "tabulate", "tabulate_blocks"]

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
        return next(self.tables((rows,), cols))

    def tables(self, row_lists: Iterable[Sequence[Sequence[float]]],
               cols: Sequence[Sequence[float]]) -> Iterator[list[list[float]]]:
        """`table(rows, cols)` for each `rows` of `row_lists`, lazily; the
        column stage is formed once and serves every block."""
        stage = None
        for rows in row_lists:
            if not rows or not cols:
                yield [[] for _ in rows]
                continue
            split = len(rows[0])
            if split + len(cols[0]) != self.n_vars:
                raise ValidationError(f"point has {split + len(cols[0])} coordinates, "
                                      f"expected {self.n_vars}")
            kernel = self._tables.get(split)
            if kernel is None:
                kernel = self._tables[split] = self._table_kernel(split)
            columns, table = kernel
            if stage is None:
                stage = columns(cols)
            yield table(rows, stage)

    @cached_property
    def _tables(self) -> dict[int, tuple[Callable, Callable]]:
        """The table kernels generated so far, by the number of row variables."""
        return {}

    def _table_kernel(self, split: int) -> tuple[Callable, Callable]:
        """The kernel for rows of the first `split` variables, as a column
        stage `columns(cols)` and a row stage `table(rows, stage)`. They do
        the float operations of a power-table evaluation in their order:
        powers v^1 = 1.0*v and v^e = v^(e-1)*v, bound for the exponents that
        occur only, each monomial as ((coef*P0)*P1)..., and the sum
        ((0.0 + m0) + m1)... in term order. Each is done once: per column,
        the column-only monomials (kept in place of the powers only they
        use) and the powers; per row, the sum of the leading run of
        row-only terms and each row prefix (coef*P0)*...*P(split-1); per
        cell, only the rest. Coefficients come in as a tuple, never as
        source text."""
        row_vars, col_vars = range(split), range(split, self.n_vars)
        kept = []  # per column: (name, value) of each column-only monomial, then powers
        shared = set()  # the column powers of the monomials with row factors
        lead, prefixes, cells = [], [], []
        for k, (exps, _) in enumerate(self.terms):
            row, col = _factors(exps, row_vars), _factors(exps, col_vars)
            if not col and len(lead) == k:  # still in the leading row-only run
                lead.append(f" + c{k}{row}")
                continue
            if row:
                prefixes.append(f"m{k} = c{k}{row}")
            if not col:
                cells.append(f" + {f'm{k}' if row else f'c{k}'}")
            elif not row:
                kept.append((f"q{k}", f"c{k}{col}"))
                cells.append(f" + q{k}")
            else:
                shared.update((i, exps[i]) for i in col_vars if exps[i])
                cells.append(f" + m{k}{col}")
        kept += [(f"p{i}_{e}", f"p{i}_{e}") for i, e in sorted(shared)]
        # Sums run in chunks of at most _CHUNK terms, each adding to the sums
        # of the one before: one sum of a few thousand terms would nest past
        # the compiler's recursion limit. A row is one comprehension a chunk.
        start = "s" if lead else "0.0"
        sums = [f"s = {'0.0' if k == 0 else 's'}{''.join(lead[k:k + _CHUNK])}"
                for k in range(0, len(lead), _CHUNK)]
        names = _targets(name for name, _ in kept)
        if not cells:
            sums.append(f"row = [{start}] * len(stage)")
        for k in range(0, len(cells), _CHUNK):
            chunk = "".join(cells[k:k + _CHUNK])
            sums.append(f"row = [{start}{chunk} for {names} in stage]" if k == 0 else
                        f"row = [total{chunk} for total, {names} in zip(row, stage)]")
        return self._compile(
            columns=[
                "stage = []",
                f"for {_targets(f'x{i}' for i in col_vars)} in cols:",
                *(f"    {line}" for line in self._powers(col_vars)),
                f"    stage.append({_targets(value for _, value in kept)})",
                "return stage",
            ],
            table=[
                "out = []",
                f"for {_targets(f'x{i}' for i in row_vars)} in rows:",
                *(f"    {line}" for line in (*self._powers(row_vars), *prefixes, *sums)),
                "    out.append(row)",
                "return out",
            ],
        )

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

    def _compile(self, columns: list[str], table: list[str]) -> tuple[Callable, Callable]:
        """`columns(cols)` and `table(rows, stage)`, coefficients bound as c0, c1, ..."""
        source = "\n".join([
            "def bind(coefs):",
            f"    {_targets(f'c{k}' for k in range(len(self.terms)))} = coefs",
            "    def columns(cols):",
            *(f"        {line}" for line in columns),
            "    def table(rows, stage):",
            *(f"        {line}" for line in table),
            "    return columns, table",
        ])
        namespace = {"__builtins__": {}, "len": len, "range": range, "zip": zip}
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
    """values[i][j] == f(rows[i] + cols[j]): one block of `tabulate_blocks`."""
    return next(tabulate_blocks(f, (rows,), cols))


def tabulate_blocks(f: Callable[[Sequence[float]], float],
                    row_lists: Iterable[Sequence[Sequence[float]]],
                    cols: Sequence[Sequence[float]]) -> Iterator[list[list[float]]]:
    """A table per `rows` of `row_lists`, lazily: `f.tables` when `f` has
    it (a Polynomial), otherwise one call of `f` per point."""
    tables = getattr(f, "tables", None)
    if tables is not None:
        return tables(row_lists, cols)
    return ([[f(r + c) for c in cols] for r in rows] for rows in row_lists)


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

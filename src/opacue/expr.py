"""Dynamics/output expression grammar: a validated subset of Python syntax.

Allowed: variables x1..xn and u1..um, numeric constants, + - * /, unary
minus, and the functions sin, cos, exp, abs. Anything else, and nesting
past the interpreter's recursion limit, is rejected at parse time, after
which the expressions of a map are compiled once into one function of the
variables, positionally, in an empty-builtins environment, that returns
all their values. An evaluation that fails in the arithmetic (a division
by zero, a math range error, sin of inf) raises DomainError naming the
expression, the state and the input.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

from .errors import DomainError, ParseError

__all__ = ["compile_map", "MapFn"]

_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "abs": abs}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)

MapFn = Callable[[Sequence[float], Sequence[float]], tuple[float, ...]]


def _validate(node: ast.AST, names: set[str], text: str) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, names, text)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        _validate(node.left, names, text)
        _validate(node.right, names, text)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        _validate(node.operand, names, text)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCS):
            raise ParseError(f"expression {text!r}: unknown function call")
        if len(node.args) != 1 or node.keywords:
            raise ParseError(f"expression {text!r}: functions take one argument")
        _validate(node.args[0], names, text)
    elif isinstance(node, ast.Name):
        if node.id not in names:
            raise ParseError(
                f"expression {text!r}: unknown variable {node.id!r} "
                f"(column {node.col_offset})"
            )
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ParseError(f"expression {text!r}: only numeric constants allowed")
    else:
        raise ParseError(
            f"expression {text!r}: construct {type(node).__name__} not in the grammar"
        )


def _compile(texts: Sequence[str], n_states: int, n_inputs: int) -> Callable:
    """Validate each expression, in order, then compile the lambda over
    x1..xn, u1..um that returns the tuple of their values as floats."""
    names = [f"x{i + 1}" for i in range(n_states)] + [f"u{j + 1}" for j in range(n_inputs)]
    values = []
    for text in texts:
        if not isinstance(text, str) or not text.strip():
            raise ParseError("expression must be a nonempty string")
        try:
            tree = ast.parse(text, mode="eval")
            _validate(tree, set(names), text)
        except SyntaxError as exc:
            raise ParseError(f"expression {text!r}: {exc.msg} (column {exc.offset})") from exc
        except (RecursionError, MemoryError) as exc:
            # each stage recurses per nesting level; the parser's own overflow is a MemoryError
            raise ParseError(f"expression {text!r}: nested too deeply") from exc
        values.append(ast.Call(ast.Name("float", ast.Load()), [tree.body], []))
    # f(x, u) passes x then u positionally: each needs exactly its dimension.
    params = ast.arguments(posonlyargs=[], args=[ast.arg(name) for name in names],
                           kwonlyargs=[], kw_defaults=[], defaults=[])
    lam = ast.fix_missing_locations(
        ast.Expression(ast.Lambda(params, ast.Tuple(values, ast.Load()))))
    # The compiler's nesting limit is three times the interpreter's, which
    # `_validate` has already kept each expression under.
    return eval(compile(lam, filename=f"<expr {', '.join(texts)}>", mode="eval"),
                {"__builtins__": {}, "float": float, **_FUNCS})


def compile_map(texts: Sequence[str], n_states: int, n_inputs: int) -> MapFn:
    """Compile expressions over x1..xn, u1..um into one callable f(x, u)
    that returns the tuple of their values with one call of one compiled
    lambda. Only when that call fails is each expression evaluated alone,
    in turn, to name the first that fails in the DomainError."""
    fn = _compile(texts, n_states, n_inputs)

    def run(x: Sequence[float], u: Sequence[float]) -> tuple[float, ...]:
        try:
            return fn(*x, *u)
        except (ArithmeticError, ValueError):  # 1/0, exp(1000), sin(inf)
            for text in texts:
                try:
                    _compile([text], n_states, n_inputs)(*x, *u)
                except (ArithmeticError, ValueError) as exc:
                    raise DomainError(f"expression {text!r} at state {tuple(x)}, input "
                                      f"{tuple(u)}: {type(exc).__name__}: {exc}",
                                      state=tuple(x), inp=tuple(u)) from exc
            raise

    return run


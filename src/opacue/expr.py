"""Dynamics/output expression grammar: a validated subset of Python syntax.

Allowed: variables x1..xn and u1..um, numeric constants, + - * /, unary
minus, and the functions sin, cos, exp, abs. Anything else, and nesting
past the interpreter's recursion limit, is rejected at parse time, after
which the expressions of a map are compiled once, in an empty-builtins
environment, into one list comprehension over a list of states and a list
of inputs that returns the tuple of all their values at each pair,
x-major. A one-point evaluation that fails in the arithmetic (a division
by zero, a math range error, sin of inf) raises DomainError naming its
first failing expression, the state and the input.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, ParseError

__all__ = ["compile_map", "CompiledMap"]

_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "abs": abs}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)

Points = Sequence[Sequence[float]]
Grid = Callable[[Points, Points], list[tuple[float, ...]]]

# The source position of every node the compiler wraps around the parsed
# expressions, given as each is built: no walk of the tree adds them later.
_AT = {"lineno": 1, "col_offset": 0, "end_lineno": 1, "end_col_offset": 0}


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


def _compile(texts: Sequence[str], n_states: int, n_inputs: int) -> Grid:
    """Validate each expression, in order, then compile the lambda over a
    state list and an input list that is the one list comprehension
    [(float(e1), ...) for (x1, ...) in xs for (u1, ...) in us], x-major."""
    xs = [f"x{i + 1}" for i in range(n_states)]
    us = [f"u{j + 1}" for j in range(n_inputs)]
    values = []
    for text in texts:
        if not isinstance(text, str) or not text.strip():
            raise ParseError("expression must be a nonempty string")
        try:
            tree = ast.parse(text, mode="eval")
            _validate(tree, set(xs + us), text)
        except SyntaxError as exc:
            raise ParseError(f"expression {text!r}: {exc.msg} (column {exc.offset})") from exc
        except (RecursionError, MemoryError) as exc:
            # each stage recurses per nesting level; the parser's own overflow is a MemoryError
            raise ParseError(f"expression {text!r}: nested too deeply") from exc
        values.append(ast.Call(ast.Name("float", ast.Load(), **_AT), [tree.body], [], **_AT))
    loops = [ast.comprehension(ast.Tuple([ast.Name(name, ast.Store(), **_AT) for name in group],
                                         ast.Store(), **_AT),
                               ast.Name(source, ast.Load(), **_AT), [], 0)
             for group, source in ((xs, "xs"), (us, "us"))]
    params = ast.arguments(posonlyargs=[], args=[ast.arg("xs", **_AT), ast.arg("us", **_AT)],
                           kwonlyargs=[], kw_defaults=[], defaults=[])
    body = ast.ListComp(ast.Tuple(values, ast.Load(), **_AT), loops, **_AT)
    lam = ast.Expression(ast.Lambda(params, body, **_AT))
    try:
        code = compile(lam, filename=f"<expr {', '.join(texts)}>", mode="eval")
    except (RecursionError, MemoryError) as exc:
        # The compiler takes the tree in at the interpreter's recursion
        # limit, a few levels deeper than `_validate` went: name the first
        # expression it refuses alone.
        for text in texts[:-1]:
            _compile([text], n_states, n_inputs)
        raise ParseError(f"expression {texts[-1]!r}: nested too deeply") from exc
    return eval(code, {"__builtins__": {}, "float": float, **_FUNCS})


class CompiledMap(NamedTuple):
    """A compiled map: `grid(xs, us)` is the tuple of its values at each
    pair of a state of xs and an input of us, x-major, in one call of one
    compiled comprehension, and raises the arithmetic error itself;
    `at(x, u)` is its value at one point, and raises DomainError."""

    grid: Grid
    at: Callable[[Sequence[float], Sequence[float]], tuple[float, ...]]


def compile_map(texts: Sequence[str], n_states: int, n_inputs: int) -> CompiledMap:
    """Compile expressions over x1..xn, u1..um into a CompiledMap. When
    `at` fails, each expression is evaluated alone at the point, in order,
    to name the first failing one in the DomainError."""
    grid = _compile(texts, n_states, n_inputs)

    def at(x: Sequence[float], u: Sequence[float]) -> tuple[float, ...]:
        try:
            return grid((x,), (u,))[0]
        except (ArithmeticError, ValueError):  # 1/0, exp(1000), sin(inf)
            for text in texts:
                try:
                    _compile([text], n_states, n_inputs)((x,), (u,))
                except (ArithmeticError, ValueError) as exc:
                    raise DomainError(f"expression {text!r} at state {tuple(x)}, input "
                                      f"{tuple(u)}: {type(exc).__name__}: {exc}",
                                      state=tuple(x), inp=tuple(u)) from exc
            raise

    return CompiledMap(grid, at)

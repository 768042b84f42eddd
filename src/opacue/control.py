"""Discrete-time control systems on box domains with stability certificates.

A plant's `images` and `outputs` alone check that its values are finite: a
coordinate that is not finite raises DomainError naming the point. Each
evaluates its map over a whole grid of points with one compiled call (see
`expr`); `step` and `observe` are their one-point calls.

The incremental-stability certificate is parametric: trajectories from
states r apart under inputs v apart stay within c*lambda^k*r + g*v, and
the output map is Lipschitz with constant a. The tool checks the grid
quantization inequality against these parameters; it does not prove the
certificate itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Sequence

from .boxes import Box, BoxUnion
from .errors import DomainError, ParseError, ValidationError
from .expr import CompiledMap, Points, compile_map
from .system import json_number, read_object

__all__ = [
    "IssCertificate",
    "QuantizationParams",
    "QuantizationCheck",
    "DtControlSystem",
    "evaluate_quantization_inequality",
    "affine_certificate",
    "parse_control_system",
]


@dataclass(frozen=True)
class IssCertificate:
    """Decay beta(r, k) = c*lambda^k*r, input gain gamma(r) = g*r, output
    Lipschitz bound alpha(r) = a*r."""

    c: float
    lam: float
    g: float
    a: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.c, self.lam, self.g, self.a)):
            raise ValidationError(
                f"certificate parameters must be finite, got c={self.c}, "
                f"lambda={self.lam}, g={self.g}, a={self.a}")
        if self.c < 1:
            raise ValidationError(f"certificate needs c >= 1, got {self.c}")
        if not 0 < self.lam < 1:
            raise ValidationError(f"certificate needs 0 < lambda < 1, got {self.lam}")
        if self.g < 0:
            raise ValidationError(f"certificate needs g >= 0, got {self.g}")
        if self.a <= 0:
            raise ValidationError(f"certificate needs a > 0, got {self.a}")


@dataclass(frozen=True)
class QuantizationParams:
    """State step eta, input step mu, target relation precision epsilon."""

    eta: float
    mu: float
    epsilon: float

    def __post_init__(self):
        for name, val in (("eta", self.eta), ("mu", self.mu), ("epsilon", self.epsilon)):
            if not 0 < val < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {val}")


@dataclass(frozen=True)
class QuantizationCheck:
    passed: bool
    lhs: float
    rhs: float
    slack: float


def evaluate_quantization_inequality(
    cert: IssCertificate, eta: float, mu: float, epsilon: float
) -> QuantizationCheck:
    """Evaluate the abstraction-precision inequality for the parametric forms.

    The grid is fine enough for precision epsilon iff one decay step from
    radius epsilon/a plus the input-gain and state-grid contributions fits
    back inside epsilon/a:  c*lambda*(eps/a) + g*mu + eta <= eps/a.
    Takes bare values (degenerate eta = mu = 0 allowed, where the inequality
    reduces to c*lambda < 1 for positive epsilon).
    """
    rhs = epsilon / cert.a
    lhs = cert.c * cert.lam * rhs + cert.g * mu + eta
    return QuantizationCheck(passed=lhs <= rhs, lhs=lhs, rhs=rhs, slack=rhs - lhs)


def affine_certificate(
    a_matrix: Sequence[Sequence[float]],
    b_matrix: Sequence[Sequence[float]],
) -> IssCertificate:
    """Certificate (c=1, lambda=|A|_inf, g=|B|_inf/(1-lambda), a=1) for
    x+ = Ax + Bu with the identity output map.

    Valid only for contractive A: raises ValidationError when |A|_inf >= 1.
    """
    norm_a = max(sum(abs(v) for v in row) for row in a_matrix)
    norm_b = max(sum(abs(v) for v in row) for row in b_matrix) if b_matrix else 0.0
    if norm_a >= 1:
        raise ValidationError(
            f"affine certificate requires |A|_inf < 1, got {norm_a}: "
            f"pass a certificate for this system")
    return IssCertificate(c=1.0, lam=norm_a, g=norm_b / (1 - norm_a), a=1.0)


@dataclass(frozen=True)
class DtControlSystem:
    """x(k+1) = f(x(k), u(k)), y(k) = H(x(k)) on a box state domain."""

    state_box: Box
    initial_region: BoxUnion
    secret_region: BoxUnion
    input_box: Box
    dynamics: tuple[str, ...]
    output: tuple[str, ...]
    iss_cert: IssCertificate

    def __post_init__(self):
        n, m = self.state_box.dim, self.input_box.dim
        if len(self.dynamics) != n:
            raise ValidationError(
                f"dynamics must have {n} components, got {len(self.dynamics)}"
            )
        if not self.output:
            raise ValidationError("output map needs at least one component")
        for region, label in (
            (self.initial_region, "initial"),
            (self.secret_region, "secret"),
        ):
            for box in region.boxes:
                if box.dim != n:
                    raise ValidationError(f"{label} region dimension mismatch")
                if not self.state_box.contains_box(box):
                    raise ValidationError(f"{label} region leaves the state box")

    @property
    def dim(self) -> int:
        return self.state_box.dim

    @property
    def input_dim(self) -> int:
        return self.input_box.dim

    @cached_property
    def _dynamics(self):
        return compile_map(self.dynamics, self.dim, self.input_dim)

    @cached_property
    def _outputs(self):
        return compile_map(self.output, self.dim, 0)

    def images(self, xs: Points, us: Points) -> list[tuple[float, ...]]:
        """f(x, u) at each x of xs and u of us, x-major. DomainError names
        the first pair, in that order, whose image raises or is not finite."""
        return _finite(self._dynamics, xs, us, lambda x, u, image: DomainError(
            f"f({tuple(x)}, {tuple(u)}) = {image} is not finite",
            state=tuple(x), inp=tuple(u)))

    def outputs(self, xs: Points) -> list[tuple[float, ...]]:
        """H(x) at each x of xs, in order. DomainError names the first x
        whose output raises or is not finite."""
        return _finite(self._outputs, xs, ((),), lambda x, _, y: DomainError(
            f"H({tuple(x)}) = {y} is not finite", state=tuple(x)))

    def step(self, x: Sequence[float], u: Sequence[float]) -> tuple[float, ...]:
        """f(x, u): a one-point `images`."""
        return self.images((x,), (u,))[0]

    def observe(self, x: Sequence[float]) -> tuple[float, ...]:
        """H(x): a one-point `outputs`."""
        return self.outputs((x,))[0]


def _finite(fn: CompiledMap, xs: Points, us: Points,
            error: Callable) -> list[tuple[float, ...]]:
    """fn.grid(xs, us) when every coordinate is finite. Otherwise, or when
    it raises, the grid is walked again with `fn.at`, in order, so the first
    point that raises or is not finite is the one named: error(x, u, value)
    for a value that is not finite."""
    try:
        values = fn.grid(xs, us)
        if all(map(math.isfinite, chain.from_iterable(values))):
            return values
    except (ArithmeticError, ValueError):  # 1/0, exp(1000), sin(inf)
        pass
    values = []
    for x in xs:
        for u in us:
            value = fn.at(x, u)
            if not all(map(math.isfinite, value)):
                raise error(x, u, value)
            values.append(value)
    return values


def _parse_box(value, where: str) -> Box:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected an array of [lo, hi] pairs")
    bounds = []
    for d, pair in enumerate(value):
        try:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise TypeError
            bounds.append((json_number(pair[0]), json_number(pair[1])))
        except TypeError:
            raise ParseError(f"{where}[{d}]: expected a numeric [lo, hi] pair") from None
        except OverflowError:
            raise ParseError(f"{where}[{d}]: bound out of float range") from None
    return Box(tuple(bounds))


def _parse_region(value, where: str) -> BoxUnion:
    """A region is one box or an array of boxes; [] is the empty region."""
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected an array")
    if not value:
        return BoxUnion(())
    first = value[0]
    if isinstance(first, list) and first and isinstance(first[0], list):
        return BoxUnion(tuple(_parse_box(b, f"{where}[{i}]") for i, b in enumerate(value)))
    return BoxUnion((_parse_box(value, where),))


def parse_control_system(text: str | bytes) -> DtControlSystem:
    """Parse the JSON control-system format.

    Schema: {"dim": n, "state_box": [[lo,hi]]*n, "initial_box": box|[box,...],
             "secret_box": box|[box,...], "input_box": [[lo,hi]]*m,
             "dynamics": [expr]*n, "output": [expr,...],
             "iss_cert": {"c":..,"lambda":..,"g":..,"a":..}}
    """
    doc = read_object(text, ("dim", "state_box", "initial_box", "secret_box",
                             "input_box", "dynamics", "output", "iss_cert"))
    state_box = _parse_box(doc["state_box"], "state_box")
    if type(doc["dim"]) is not int:
        raise ParseError("dim: expected an integer")
    if state_box.dim != doc["dim"]:
        raise ValidationError(
            f"dim={doc['dim']} but state_box has {state_box.dim} dimensions"
        )
    cert_doc = doc["iss_cert"]
    if not isinstance(cert_doc, dict):
        raise ParseError("iss_cert: expected an object")
    try:
        cert = IssCertificate(*(json_number(cert_doc[key])
                                for key in ("c", "lambda", "g", "a")))
    except KeyError as exc:
        raise ParseError(f"iss_cert: missing key {exc.args[0]!r}") from exc
    except (TypeError, OverflowError) as exc:
        raise ParseError("iss_cert: c, lambda, g and a must be numbers") from exc

    for key in ("dynamics", "output"):
        if not (isinstance(doc[key], list)
                and all(isinstance(e, str) for e in doc[key])):
            raise ParseError(f"{key}: expected an array of expression strings")

    return DtControlSystem(
        state_box=state_box,
        initial_region=_parse_region(doc["initial_box"], "initial_box"),
        secret_region=_parse_region(doc["secret_box"], "secret_box"),
        input_box=_parse_box(doc["input_box"], "input_box"),
        dynamics=tuple(doc["dynamics"]),
        output=tuple(doc["output"]),
        iss_cert=cert,
    )

"""Grid-quantized finite abstractions of discrete-time control systems.

The abstract state set is the eta-lattice of the state box (all of it
initial), the abstract input set is the mu-lattice of the input box, and a
lattice point is a successor of (state, input) exactly when it lies within
eta (infinity norm) of the concrete image of that pair. Outputs are the
concrete output map evaluated at the lattice points, so the result plugs
directly into the finite-system verifiers.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from .boxes import BoxUnion, check_span, grid, grid_interval, nearest_lattice
from .control import (
    DtControlSystem, QuantizationCheck, QuantizationParams, evaluate_quantization_inequality,
)
from .errors import DomainError, QuantizationError, ResourceError
from .observer import DEFAULT_STATE_CAP
from .system import MetricSystem

__all__ = ["Abstraction", "build_abstraction", "sample_system"]


def _point_name(point: tuple[float, ...]) -> str:
    return ",".join(repr(c) for c in point)


@dataclass(frozen=True)
class Abstraction:
    """A finite abstraction plus the certificate bookkeeping behind it."""

    system: MetricSystem
    eta: float
    mu: float
    certified: bool
    check: QuantizationCheck


def build_abstraction(
    cs: DtControlSystem,
    params: QuantizationParams,
    allow_unsound: bool = False,
    cap: int = DEFAULT_STATE_CAP,
) -> Abstraction:
    """Build the finite abstraction for the given quantization parameters.

    Refuses to build when the quantization inequality fails unless
    `allow_unsound` is set, in which case the result is stamped
    certificate-free.
    """
    complement = BoxUnion((cs.state_box,)).subtract(cs.secret_region)
    check_span("eta", params.eta, min(cs.secret_region.span, complement.span),
               "secret region or its complement")
    check_span("mu", params.mu, cs.input_box.span, "input box")
    qcheck = evaluate_quantization_inequality(cs.iss_cert, params.eta, params.mu,
                                              params.epsilon)
    if not qcheck.passed and not allow_unsound:
        raise QuantizationError(
            f"quantization inequality fails (lhs={qcheck.lhs} > rhs={qcheck.rhs}); "
            f"pass allow_unsound to build anyway"
        )
    # Per-dimension lattice values of the state grid, for eta-ball lookups.
    axes = [grid_interval(lo, hi, params.eta) for lo, hi in cs.state_box.bounds]
    system = _lattice_system(
        cs, params.eta, params.mu, cap, "abstraction",
        partial(_ball_points, axes=axes, eta=params.eta),
        None,  # every lattice point is initial
    )
    return Abstraction(
        system=system,
        eta=params.eta,
        mu=params.mu,
        certified=qcheck.passed,
        check=qcheck,
    )


def _ball_points(
    image: Sequence[float], axes: list[list[float]], eta: float
) -> list[tuple[float, ...]]:
    """Lattice points within eta of the image, per dimension, exact compare.

    Each axis is ascending and fl(v - value) is monotone in v, so the hits
    on an axis form one window; bisection with the exact test
    abs(v - value) <= eta finds its ends.
    """
    per_dim: list[list[float]] = []
    for d, value in enumerate(image):
        axis = axes[d]
        lo = bisect_left(axis, True, key=lambda v: v - value >= -eta)
        hi = bisect_left(axis, True, lo, key=lambda v: v - value > eta)
        if lo == hi:
            return []
        per_dim.append(axis[lo:hi])
    out: list[tuple[float, ...]] = [()]
    for hits in per_dim:
        out = [p + (v,) for p in out for v in hits]
    return out


def sample_system(
    cs: DtControlSystem,
    eta: float,
    mu: float,
    cap: int = DEFAULT_STATE_CAP,
) -> MetricSystem:
    """Finite sample of concrete trajectories on a lattice.

    States are the eta-lattice of the state box; each (state, input) has the
    single successor obtained by snapping the concrete image to the nearest
    in-box lattice point. Initial/secret states are the lattice points lying
    in the respective regions. This is the finite stand-in for the concrete
    system used by sampled-trajectory oracles.
    """
    return _lattice_system(
        cs, eta, mu, cap, "sampled system",
        lambda image: [nearest_lattice(image, eta, cs.state_box)],
        cs.initial_region,
    )


def _lattice_system(
    cs: DtControlSystem, eta: float, mu: float, cap: int, label: str,
    successors: Callable[[tuple[float, ...]], list[tuple[float, ...]]],
    initial: Optional[BoxUnion],
) -> MetricSystem:
    """The finite system on the eta-lattice of the state box and the
    mu-lattice of the input box: (x, u) steps to every lattice point
    `successors` gives for the image f(x, u), which must be finite. The
    initial states are the lattice points in `initial` (all of them for
    None), the secret ones those in the secret region. A system of more
    than `cap` states is refused before any step."""
    points = grid(cs.state_box, eta)
    if len(points) > cap:
        raise ResourceError(f"{label} exceeds the cap of {cap} states")
    inputs = grid(cs.input_box, mu)
    point_index = {p: i for i, p in enumerate(points)}
    transitions: list[tuple[int, int, int]] = []
    for xi, x in enumerate(points):
        for ui, u in enumerate(inputs):
            image = cs.step(x, u)
            if not all(map(math.isfinite, image)):
                raise DomainError(f"f({x}, {u}) = {image} is not finite",
                                  state=x, inp=u)
            targets = successors(image)
            if not targets:
                raise DomainError(
                    f"f({x}, {u}) = {image} leaves the state box by more than eta",
                    state=x, inp=u,
                )
            for t in targets:
                transitions.append((xi, ui, point_index[t]))
    return MetricSystem(
        names=tuple(map(_point_name, points)),
        inputs=tuple(map(_point_name, inputs)),
        outputs=tuple(map(cs.observe, points)),
        initial=tuple(range(len(points))) if initial is None else
        tuple(i for i, p in enumerate(points) if initial.contains(p)),
        secret=tuple(i for i, p in enumerate(points) if cs.secret_region.contains(p)),
        transitions=tuple(sorted(transitions)),
    )

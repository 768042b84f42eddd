"""Grid-quantized finite abstractions of discrete-time control systems.

The abstract state set is the eta-lattice of the state box, its initial
and secret states the lattice points in the plant's initial and secret
regions, the abstract input set is the mu-lattice of the input box, and a
lattice point is a successor of (state, input) exactly when it lies within
eta (infinity norm) of the concrete image of that pair: the whole transition
table is one `system.close_rows` call from the images to the lattice points.
Outputs are the concrete output map evaluated at the lattice points, so the
result plugs directly into the finite-system verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable

from .boxes import BoxUnion, check_initial_spans, check_span, grid, grid_size, nearest_lattice
from .control import (
    DtControlSystem, QuantizationCheck, QuantizationParams, evaluate_quantization_inequality,
)
from .errors import DomainError, QuantizationError, ResourceError
from .system import DEFAULT_STATE_CAP, MetricSystem, close_rows, iter_bits

__all__ = ["Abstraction", "build_abstraction", "sample_system"]


def _point_name(point: tuple[float, ...]) -> str:
    return ",".join(repr(c) for c in point)


@dataclass(frozen=True)
class Abstraction:
    """A finite abstraction plus the certificate bookkeeping behind it."""

    system: MetricSystem
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
    check_initial_spans("eta", params.eta, cs.initial_region, cs.secret_region, "region")
    qcheck = evaluate_quantization_inequality(cs.iss_cert, params.eta, params.mu,
                                              params.epsilon)
    if not qcheck.passed and not allow_unsound:
        raise QuantizationError(
            f"quantization inequality fails (lhs={qcheck.lhs} > rhs={qcheck.rhs}); "
            f"pass allow_unsound to build anyway"
        )
    system = _lattice_system(
        cs, params.eta, params.mu, cap, "abstraction",
        lambda images, points: (
            list(iter_bits(row)) for row in close_rows(images, points, params.eta)
        ),
    )
    return Abstraction(system=system, certified=qcheck.passed, check=qcheck)


def sample_system(cs: DtControlSystem, eta: float, mu: float) -> MetricSystem:
    """Finite sample of concrete trajectories on a lattice.

    States are the eta-lattice of the state box; each (state, input) has the
    single successor obtained by snapping the concrete image to the nearest
    in-box lattice point. Initial/secret states are the lattice points lying
    in the respective regions. This is the finite stand-in for the concrete
    system used by sampled-trajectory oracles.
    """
    def snap(images, points):
        index = {p: i for i, p in enumerate(points)}
        return ([index[nearest_lattice(image, eta, cs.state_box)]] for image in images)

    return _lattice_system(cs, eta, mu, DEFAULT_STATE_CAP, "sampled system", snap)


def _lattice_system(
    cs: DtControlSystem, eta: float, mu: float, cap: int, label: str,
    successors: Callable[[list[tuple[float, ...]], list[tuple[float, ...]]],
                         Iterable[list[int]]],
) -> MetricSystem:
    """The finite system on the eta-lattice of the state box and the
    mu-lattice of the input box. Every image f(x, u) is computed in grid
    order and must be finite; `successors(images, points)` then gives, per
    image in that order, the ascending indices of the lattice points (x, u)
    steps to, so the transitions come out sorted. The initial and secret
    states are the lattice points in the plant's initial and secret
    regions. A system of more than `cap` states is refused before any point is built."""
    if grid_size(cs.state_box, eta) > cap:
        raise ResourceError(f"{label} exceeds the cap of {cap} states")
    points = grid(cs.state_box, eta)
    inputs = grid(cs.input_box, mu)
    images = [cs.step(x, u) for x in points for u in inputs]
    state_ids = tuple(range(len(points)))  # shared ints: iter_bits makes one per bit
    pairs = product(state_ids, range(len(inputs)))
    transitions: list[tuple[int, int, int]] = []
    for (xi, ui), image, targets in zip(pairs, images, successors(images, points)):
        if not targets:
            x, u = points[xi], inputs[ui]
            raise DomainError(
                f"f({x}, {u}) = {image} leaves the state box by more than eta",
                state=x, inp=u,
            )
        transitions += [(xi, ui, state_ids[t]) for t in targets]
    return MetricSystem(
        names=tuple(map(_point_name, points)),
        inputs=tuple(map(_point_name, inputs)),
        outputs=tuple(map(cs.observe, points)),
        initial=tuple(i for i, p in enumerate(points) if cs.initial_region.contains(p)),
        secret=tuple(i for i, p in enumerate(points) if cs.secret_region.contains(p)),
        transitions=tuple(transitions),
    )

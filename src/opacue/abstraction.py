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

from .boxes import BoxUnion, Lattice, check_initial_spans, check_span
from .control import (
    DtControlSystem, QuantizationCheck, QuantizationParams, evaluate_quantization_inequality,
)
from .errors import DomainError, QuantizationError, ResourceError
from .system import DEFAULT_STATE_CAP, MetricSystem, close_rows

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
    system = _lattice_system(cs, params.eta, params.mu, cap, "abstraction", ball=True)
    return Abstraction(system=system, certified=qcheck.passed, check=qcheck)


def sample_system(cs: DtControlSystem, eta: float, mu: float) -> MetricSystem:
    """Finite sample of concrete trajectories on a lattice.

    States are the eta-lattice of the state box; each (state, input) has the
    single successor obtained by snapping the concrete image to the nearest
    in-box lattice point. Initial/secret states are the lattice points lying
    in the respective regions. This is the finite stand-in for the concrete
    system used by sampled-trajectory oracles.
    """
    return _lattice_system(cs, eta, mu, DEFAULT_STATE_CAP, "sampled system", ball=False)


def _lattice_system(
    cs: DtControlSystem, eta: float, mu: float, cap: int, label: str, ball: bool,
) -> MetricSystem:
    """The finite system on the eta-lattice of the state box and the
    mu-lattice of the input box, built as successor bitset rows. Every
    image f(x, u) is computed, in grid order, by one `images` call and must
    be finite. With `ball`, (x, u) steps to every lattice point within eta
    of its image, the rows that `close_rows` gives; without it, to the
    nearest lattice point alone, whose one `1 << index` int is shared by
    every pair that snaps to it, so the rows of a sampled system cost a
    reference per pair. The initial and secret states are the lattice
    points in the plant's initial and secret regions. More than `cap`
    states or inputs are refused before any point is built."""
    lattice, input_lattice = Lattice(cs.state_box, eta), Lattice(cs.input_box, mu)
    for counted, kind in ((lattice, "states"), (input_lattice, "inputs")):
        if counted.size > cap:
            raise ResourceError(f"{label} exceeds the cap of {cap} {kind}")
    points, inputs = lattice.points(), input_lattice.points()
    m, images = len(inputs), cs.images(points, inputs)
    if ball:
        rows = close_rows(images, points, eta)
    else:
        index = {p: i for i, p in enumerate(points)}
        bits: dict[tuple[float, ...], int] = {}
        rows = [bits.get(p) or bits.setdefault(p, 1 << index[p])
                for p in map(lattice.nearest(), images)]
    if not all(rows):
        k = rows.index(0)
        x, u = points[k // m], inputs[k % m]
        raise DomainError(f"f({x}, {u}) = {images[k]} leaves the state box by more than eta",
                          state=x, inp=u)
    # the rows are bitsets of the lattice points by construction: no range check
    return MetricSystem._of_rows(
        names=tuple(map(_point_name, points)), inputs=tuple(map(_point_name, inputs)),
        outputs=tuple(cs.outputs(points)), initial=lattice.members(cs.initial_region),
        secret=lattice.members(cs.secret_region), post_bits=[rows[u::m] for u in range(m)])

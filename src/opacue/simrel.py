"""Initial-state-opacity preserving simulation relations between two systems.

The greatest relation satisfying the output-closeness and mutual
step-matching conditions is computed by pruning the full epsilon-close pair
set until stable; the existence conditions on secret/non-secret initial
states are then checked against the survivors. When everything holds, a
verdict for the related (coarser) system at a reduced threshold transfers
soundly to the finer system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

from .errors import DimensionError, PrecisionError
from .observer import DEFAULT_STATE_CAP, verify_state_opacity
from .system import (
    MetricSystem, OpacityNotion, check_delta, check_threshold, delta_close, iter_bits,
)
from .verdict import Verdict

__all__ = [
    "SimRelation",
    "RelationFailure",
    "SimReport",
    "max_initsop_relation",
    "check_relation",
    "AbstractionStatus",
    "AbstractionVerdict",
    "opacity_via_abstraction",
]


@dataclass(frozen=True)
class SimRelation:
    """A set of (concrete state, abstract state) pairs at output slack epsilon."""

    pairs: tuple[tuple[int, int], ...]
    epsilon: float


@dataclass(frozen=True)
class RelationFailure:
    """Which relation condition failed first, and where."""

    condition: str  # one of "1a", "1b", "2", "3a", "3b"
    concrete: Optional[int] = None
    abstract: Optional[int] = None
    detail: str = ""


@dataclass(frozen=True)
class SimReport:
    related: bool
    relation: Optional[SimRelation] = None
    failure: Optional[RelationFailure] = None

    def to_report(self, concrete: MetricSystem, abstract: MetricSystem) -> dict:
        doc: dict = {"related": self.related}
        if self.relation is not None:
            doc["epsilon"] = self.relation.epsilon
            doc["pairs"] = [
                [concrete.names[i], abstract.names[j]] for i, j in self.relation.pairs
            ]
        if self.failure is not None:
            doc["failure"] = {
                "condition": self.failure.condition,
                "concrete": None if self.failure.concrete is None
                else concrete.names[self.failure.concrete],
                "abstract": None if self.failure.abstract is None
                else abstract.names[self.failure.abstract],
                "detail": self.failure.detail,
            }
        return doc


def _close_rows(
    concrete: MetricSystem, abstract: MetricSystem, epsilon: float
) -> list[int]:
    """rows[i] = bitset of abstract states output-epsilon-close to concrete i."""
    if concrete.output_dim != abstract.output_dim:
        raise DimensionError(
            f"output dimensions differ: {concrete.output_dim} vs {abstract.output_dim}"
        )
    rows = []
    for yi in concrete.outputs:
        bits = 0
        for j, yj in enumerate(abstract.outputs):
            if delta_close(concrete.metric, yi, yj, epsilon):
                bits |= 1 << j
        rows.append(bits)
    return rows


def _prune_to_fixpoint(
    concrete: MetricSystem, abstract: MetricSystem, rows: list[int]
) -> list[int]:
    """Remove pairs violating the step-matching conditions until stable.

    Pairs are visited in ascending (concrete, abstract) order each round and
    removed immediately; the greatest fixpoint of monotone removal is unique,
    so the visiting order cannot change the result.
    """
    succ_c = concrete.succ_any
    succ_a = abstract.succ_any
    changed = True
    while changed:
        changed = False
        for i in range(concrete.n_states):
            row = rows[i]
            for j in iter_bits(row):
                ok = True
                for i2 in iter_bits(succ_c[i]):
                    if rows[i2] & succ_a[j] == 0:
                        ok = False
                        break
                if ok:
                    for j2 in iter_bits(succ_a[j]):
                        if not any((rows[i2] >> j2) & 1 for i2 in iter_bits(succ_c[i])):
                            ok = False
                            break
                if not ok:
                    rows[i] &= ~(1 << j)
                    changed = True
    return rows


def _check_existence(
    concrete: MetricSystem, abstract: MetricSystem, rows: list[int]
) -> Optional[RelationFailure]:
    """Condition 1: secret initial states and non-secret abstract initial
    states must each have a related counterpart of the right kind."""
    secret_init_a = abstract.initial_bits & abstract.secret_bits
    for i in sorted(concrete.initial):
        if not (concrete.secret_bits >> i) & 1:
            continue
        if rows[i] & secret_init_a == 0:
            return RelationFailure(
                "1a", concrete=i,
                detail="secret initial state has no related abstract secret initial state",
            )
    nonsecret_init_c = [
        i for i in sorted(concrete.initial) if not (concrete.secret_bits >> i) & 1
    ]
    for j in sorted(abstract.initial):
        if (abstract.secret_bits >> j) & 1:
            continue
        if not any((rows[i] >> j) & 1 for i in nonsecret_init_c):
            return RelationFailure(
                "1b", abstract=j,
                detail="abstract non-secret initial state has no related concrete one",
            )
    return None


def max_initsop_relation(
    concrete: MetricSystem, abstract: MetricSystem, epsilon: float
) -> SimReport:
    """Compute the greatest epsilon-InitSOP simulation relation, if any.

    Starts from all output-epsilon-close pairs (condition 2 by
    construction), prunes pairs whose concrete or abstract steps cannot be
    matched by the partner (conditions 3a/3b) until the set is stable, then
    checks the initial-state existence conditions (1a/1b) on the survivors.
    """
    check_threshold("epsilon", epsilon)
    rows = _close_rows(concrete, abstract, epsilon)
    rows = _prune_to_fixpoint(concrete, abstract, rows)

    failure = _check_existence(concrete, abstract, rows)
    if failure is not None:
        # Localize whether the needed pair fell to condition 2 or 3a/3b.
        return SimReport(related=False, failure=failure)

    pairs = tuple(
        (i, j) for i in range(concrete.n_states) for j in iter_bits(rows[i])
    )
    return SimReport(related=True, relation=SimRelation(pairs, epsilon))


def check_relation(
    concrete: MetricSystem,
    abstract: MetricSystem,
    relation: SimRelation,
) -> Optional[RelationFailure]:
    """Re-check a given relation pair by pair; None means all conditions hold."""
    rows = [0] * concrete.n_states
    for i, j in relation.pairs:
        rows[i] |= 1 << j
    for i, j in relation.pairs:
        if not delta_close(
            concrete.metric, concrete.outputs[i], abstract.outputs[j], relation.epsilon
        ):
            return RelationFailure("2", concrete=i, abstract=j,
                                   detail="outputs not epsilon-close")
    succ_c = concrete.succ_any
    succ_a = abstract.succ_any
    for i, j in relation.pairs:
        for i2 in iter_bits(succ_c[i]):
            if rows[i2] & succ_a[j] == 0:
                return RelationFailure(
                    "3a", concrete=i, abstract=j,
                    detail=f"concrete step to {concrete.names[i2]} unmatched",
                )
        for j2 in iter_bits(succ_a[j]):
            if not any((rows[i2] >> j2) & 1 for i2 in iter_bits(succ_c[i])):
                return RelationFailure(
                    "3b", concrete=i, abstract=j,
                    detail=f"abstract step to {abstract.names[j2]} unmatched",
                )
    return _check_existence(concrete, abstract, rows)


class AbstractionStatus(enum.Enum):
    OPAQUE = "opaque"
    NOT_OPAQUE = "not-opaque"  # never produced by the abstraction route
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AbstractionVerdict:
    status: AbstractionStatus
    delta: float
    epsilon: float
    abstract_delta: float
    reason: str = ""
    relation: Optional[SimRelation] = None
    abstract_verdict: Optional[Verdict] = None

    def to_report(self) -> dict:
        return {
            "status": self.status.value,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "abstract_delta": self.abstract_delta,
            "reason": self.reason,
            "related": self.relation is not None,
        }


def opacity_via_abstraction(
    concrete: MetricSystem,
    abstract: MetricSystem,
    epsilon: float,
    delta: float,
    cap: int = DEFAULT_STATE_CAP,
) -> AbstractionVerdict:
    """Transfer an opacity verdict from the abstract system to the concrete one.

    Requires epsilon <= delta/2. If the systems are related and the abstract
    system is (delta - 2*epsilon)-approximate initial-state opaque, the
    concrete system is delta-approximate initial-state opaque. The
    implication is one-directional, so anything short of that yields
    INCONCLUSIVE, never a negative verdict.

    delta - 2*epsilon is evaluated in decimal so that the threshold queried
    on the abstract side is exactly the literal a user would write (e.g.
    delta=0.3, epsilon=0.1 queries exactly 0.1).
    """
    check_delta(delta)
    check_threshold("epsilon", epsilon)
    d_delta = Decimal(str(delta))
    d_eps = Decimal(str(epsilon))
    if d_eps > d_delta / 2:
        raise PrecisionError(
            f"epsilon={epsilon} exceeds delta/2={delta / 2}; the transfer "
            f"theorem requires epsilon <= delta/2"
        )
    abstract_delta = float(d_delta - 2 * d_eps)

    report = max_initsop_relation(concrete, abstract, epsilon)
    if not report.related:
        reason = "no epsilon-InitSOP simulation relation"
        if report.failure is not None:
            reason += f" (condition {report.failure.condition} failed)"
        return AbstractionVerdict(
            AbstractionStatus.INCONCLUSIVE, delta, epsilon, abstract_delta, reason
        )

    verdict = verify_state_opacity(
        abstract, abstract_delta, OpacityNotion.initial_state(), cap
    )
    if verdict.opaque:
        return AbstractionVerdict(
            AbstractionStatus.OPAQUE, delta, epsilon, abstract_delta,
            "abstract system opaque at delta - 2*epsilon",
            report.relation, verdict,
        )
    return AbstractionVerdict(
        AbstractionStatus.INCONCLUSIVE, delta, epsilon, abstract_delta,
        "abstract system not opaque at delta - 2*epsilon; "
        "the transfer theorem is sufficient only",
        report.relation, verdict,
    )

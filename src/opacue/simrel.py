"""Initial-state-opacity preserving simulation relations between two systems.

The greatest relation satisfying the output-closeness and mutual
step-matching conditions is computed by refining the bitset rows of the
epsilon-close table until stable, one row per concrete state, and stays
rows up to the report, whose pairs `system.json_rows` writes (the writer of
a system file's triples too); the existence conditions on secret/non-secret
initial states are then checked against the survivors. When everything
holds, a verdict for the related (coarser) system at a reduced threshold
transfers soundly to the finer system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain, repeat
from typing import Optional, Sequence

from .errors import DimensionError, PrecisionError
from .observer import verify_state_opacity
from .system import (
    DEFAULT_STATE_CAP, MetricSystem, OpacityNotion, check_delta, check_threshold, close_rows,
    delta_close, iter_bits, json_array, json_rows, json_texts,
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
    "abstract_threshold",
    "opacity_via_abstraction",
]


@dataclass(frozen=True)
class SimRelation:
    """A relation at output slack epsilon: bit j of rows[i] relates concrete
    state i to abstract state j."""

    rows: tuple[int, ...]
    epsilon: float

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The related (concrete, abstract) pairs in row-major order; the
        members of each distinct row value (rows often share one) are listed once."""
        listed = {bits: tuple(iter_bits(bits)) for bits in set(self.rows)}
        return tuple(chain.from_iterable(
            zip(repeat(i), listed[bits]) for i, bits in enumerate(self.rows)))

    def pairs_json(self, concrete: MetricSystem, abstract: MetricSystem) -> str:
        """The report's "pairs" value, `[[concrete name, abstract name], ...]`,
        as `json.dumps(report, indent=2)` writes it one level deep: `json_rows`
        with a head per concrete state and the abstract states' names."""
        heads = [f"[\n      {name},\n      " for name in json_texts(concrete.names, 3)]
        return json_array(json_rows(heads, self.rows, json_texts(abstract.names, 3)), 1)


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
        """The whole report. `opacue simrel` prints the same JSON text from
        `summary` and `SimRelation.pairs_json`, without this list."""
        doc = self.summary(concrete, abstract)
        if self.relation is not None:
            doc["pairs"] = [
                [concrete.names[i], abstract.names[j]] for i, j in self.relation.pairs
            ]
        return doc

    def summary(self, concrete: MetricSystem, abstract: MetricSystem) -> dict:
        """The report without its "pairs" (see `SimRelation.pairs_json`)."""
        doc: dict = {"related": self.related}
        if self.relation is not None:
            doc["epsilon"] = self.relation.epsilon
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


def _prune_to_fixpoint(
    concrete: MetricSystem, abstract: MetricSystem, rows: list[int]
) -> list[int]:
    """Refine each row to the partners that still match its steps, until stable.

    Write pre(S) for the abstract states with a successor in S, and reach
    for the OR of the rows of i's concrete successors. Row i keeps the
    members j with 3a: j in pre(rows[i2]) for every concrete successor i2,
    and 3b: every abstract successor of j in reach. That reads only the
    rows of i's successors, so a row that shrinks sends just its
    predecessors back to be refined, as in the state worklist of Henzinger,
    Henzinger & Kopke (FOCS 1995). The greatest fixpoint of this monotone
    refinement is unique, so the order cannot change the result. Many rows
    carry the same value: pre is memoised per row value, and the members
    that pass 3b per (row after 3a, reach).
    """
    succ_c = [list(iter_bits(bits)) for bits in concrete.succ_any]
    succ_a = abstract.succ_any
    pred_a = abstract.pred_any
    pres: dict[int, int] = {}
    kept: dict[tuple[int, int], int] = {}

    todo = set(range(concrete.n_states))
    while todo:
        i = todo.pop()
        row, reach = rows[i], 0
        for i2 in succ_c[i]:
            target = rows[i2]
            pre = pres.get(target)
            if pre is None:
                pre = 0
                for j2 in iter_bits(target):
                    pre |= pred_a[j2]
                pres[target] = pre
            row &= pre
            reach |= target
        if row:
            passed = kept.get((row, reach))
            if passed is None:
                passed = 0
                for j in iter_bits(row):
                    if succ_a[j] & ~reach == 0:
                        passed |= 1 << j
                kept[row, reach] = passed
            row = passed
        if row != rows[i]:
            rows[i] = row
            todo.update(iter_bits(concrete.pred_any[i]))
    return rows


def _check_existence(
    concrete: MetricSystem, abstract: MetricSystem, rows: Sequence[int]
) -> Optional[RelationFailure]:
    """Condition 1: secret initial states and non-secret abstract initial
    states must each have a related counterpart of the right kind."""
    secret_init_a = abstract.initial_bits & abstract.secret_bits
    for i in sorted(concrete.initial):
        if (concrete.secret_bits >> i) & 1 and rows[i] & secret_init_a == 0:
            return RelationFailure(
                "1a", concrete=i,
                detail="secret initial state has no related abstract secret initial state",
            )
    partners = 0  # abstract states related to a non-secret concrete initial state
    for i in concrete.initial:
        if not (concrete.secret_bits >> i) & 1:
            partners |= rows[i]
    for j in sorted(abstract.initial):
        if not (abstract.secret_bits >> j) & 1 and not (partners >> j) & 1:
            return RelationFailure(
                "1b", abstract=j,
                detail="abstract non-secret initial state has no related concrete one",
            )
    return None


def max_initsop_relation(
    concrete: MetricSystem, abstract: MetricSystem, epsilon: float
) -> SimReport:
    """Compute the greatest epsilon-InitSOP simulation relation, if any.

    Starts from the rows of output-epsilon-close pairs (condition 2 by
    construction), refines them to the pairs whose concrete and abstract
    steps are matched by the partner (conditions 3a/3b) until stable, then
    checks the initial-state existence conditions (1a/1b) on the survivors.
    """
    check_threshold("epsilon", epsilon)
    rows = close_rows(concrete.outputs, abstract.outputs, epsilon)
    rows = _prune_to_fixpoint(concrete, abstract, rows)
    failure = _check_existence(concrete, abstract, rows)
    if failure is not None:
        return SimReport(related=False, failure=failure)
    return SimReport(related=True, relation=SimRelation(tuple(rows), epsilon))


def check_relation(
    concrete: MetricSystem,
    abstract: MetricSystem,
    relation: SimRelation,
) -> Optional[RelationFailure]:
    """Re-check a given relation pair by pair; None means all conditions hold.
    A bad epsilon or a dimension mismatch raises, as in `delta_close`."""
    eps = relation.epsilon
    check_threshold("epsilon", eps)
    if len(concrete.outputs[0]) != len(abstract.outputs[0]):
        raise DimensionError("the two systems' outputs differ in dimension")
    rows, pairs = relation.rows, relation.pairs
    for i, j in pairs:
        if not delta_close(concrete.outputs[i], abstract.outputs[j], eps):
            return RelationFailure("2", concrete=i, abstract=j,
                                   detail="outputs not epsilon-close")
    succ_c = concrete.succ_any
    succ_a = abstract.succ_any
    for i, j in pairs:
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
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AbstractionVerdict:
    """A transferred verdict, with the relation report it went through."""

    status: AbstractionStatus
    delta: float
    epsilon: float
    abstract_delta: float
    reason: str
    report: SimReport
    abstract_verdict: Optional[Verdict] = None

    def to_report(self) -> dict:
        return {
            "status": self.status.value,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "abstract_delta": self.abstract_delta,
            "reason": self.reason,
            "related": self.report.related,
        }


def abstract_threshold(epsilon: float, delta: float) -> float:
    """The threshold delta - 2*epsilon at which the abstract side is queried.

    Raises ValidationError unless both are finite and nonnegative (epsilon
    is checked first, as `max_initsop_relation` does), and PrecisionError
    unless epsilon <= delta/2, as the transfer theorem requires. The
    difference is evaluated in decimal so that it is exactly the literal a
    user would write (e.g. delta=0.3, epsilon=0.1 gives exactly 0.1).
    """
    check_threshold("epsilon", epsilon)
    check_delta(delta)
    d_delta = Decimal(str(delta))
    d_eps = Decimal(str(epsilon))
    if d_eps > d_delta / 2:
        raise PrecisionError(
            f"epsilon={epsilon} exceeds delta/2={delta / 2}; the transfer "
            f"theorem requires epsilon <= delta/2"
        )
    return float(d_delta - 2 * d_eps)


def opacity_via_abstraction(
    concrete: MetricSystem,
    abstract: MetricSystem,
    epsilon: float,
    delta: float,
    cap: int = DEFAULT_STATE_CAP,
) -> AbstractionVerdict:
    """Transfer an opacity verdict from the abstract system to the concrete one.

    Requires epsilon <= delta/2 (see `abstract_threshold`). The relation is
    `max_initsop_relation(concrete, abstract, epsilon)`, computed here and
    kept in the verdict's `report`, so the transfer always goes through a
    relation at this epsilon. If the systems are related and the abstract
    system is (delta - 2*epsilon)-approximate initial-state opaque, the
    concrete system is delta-approximate initial-state opaque. The
    implication is one-directional, so anything short of that yields
    INCONCLUSIVE, never a negative verdict.
    """
    abstract_delta = abstract_threshold(epsilon, delta)
    report = max_initsop_relation(concrete, abstract, epsilon)
    if report.failure is not None:
        reason = (f"no epsilon-InitSOP simulation relation "
                  f"(condition {report.failure.condition} failed)")
        return AbstractionVerdict(
            AbstractionStatus.INCONCLUSIVE, delta, epsilon, abstract_delta, reason, report
        )

    verdict = verify_state_opacity(
        abstract, abstract_delta, OpacityNotion.initial_state(), cap
    )
    if verdict.opaque:
        reason = "abstract system opaque at delta - 2*epsilon"
    else:
        reason = ("abstract system not opaque at delta - 2*epsilon; "
                  "the transfer theorem is sufficient only")
    return AbstractionVerdict(
        AbstractionStatus.OPAQUE if verdict.opaque else AbstractionStatus.INCONCLUSIVE,
        delta, epsilon, abstract_delta, reason, report, verdict,
    )

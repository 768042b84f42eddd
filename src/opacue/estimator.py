"""Backward subset construction estimating delta-consistent initial states.

The estimator starts from every system state paired with the set of states
whose output is delta-close to it, then walks transitions backwards: after
k backward steps a state (x, q) says that q is exactly the set of states
from which some forward run of length k is pointwise delta-close to the
forward run x -> ... -> x_end the walk traversed. Initial-state opacity then
reduces to checking q at states whose reference component is a secret
initial state. The walk runs on the oracle kernel `brute.explore`, and a
built estimator keeps the `verdict.Forest` it leaves. A witness is the
forest's path to a revealing state, read backwards: a forward path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brute import explore, subset_step, union
from .errors import InternalError
from .system import DEFAULT_STATE_CAP, MetricSystem, OpacityNotion, check_delta
from .verdict import Forest, Path, Verdict, Witness

__all__ = ["InitialStateEstimator", "build_initial_estimator", "estimator_verdict"]


@dataclass
class InitialStateEstimator:
    """Reachable part of the delta-approximate initial-state estimator.

    `forest` is the record `brute.explore` leaves: its classes are the
    estimator states (reference state, estimate) in BFS discovery order,
    and its seeds (the classes without a parent) are the initial states,
    one per system state. `forest.depths[i]` is the minimal number of
    backward steps reaching state i, i.e. the length of a shortest forward
    run from ref(i) consistent with the walk. A parent link leads to the
    state the walk came from, which lies one forward step *ahead* of i.
    """

    sys: MetricSystem
    delta: float
    forest: Forest

    def reveals(self, i: int) -> bool:
        """State i's reference component is a secret initial state and its
        estimate retains no non-secret initial state."""
        ref, estimate = self.forest.classes[i]
        initial, secret = self.sys.initial_bits, self.sys.secret_bits
        return bool((initial & secret) >> ref & 1 and estimate & initial & ~secret == 0)

    def forward_path_from(self, i: int) -> Path:
        """Forward system path starting at ref(i) traced by the backward
        walk: the forest's path to state i, reversed."""
        states, inputs = self.forest.path(i)
        return states[::-1], inputs[::-1]


def build_initial_estimator(
    sys: MetricSystem, delta: float, cap: int = DEFAULT_STATE_CAP
) -> InitialStateEstimator:
    """Materialize the reachable part of the backward initial-state estimator."""
    check_delta(delta)
    close = [sys.close_bits(x, delta) for x in range(sys.n_states)]
    step = subset_step(lambda q: union(q, sys.pred_any), close, sys.pre_bits)
    found = explore(enumerate(close), step, cap, lambda x, q: q == 0)
    if found.hit is not None:
        # The reference run's own predecessor always survives.
        raise InternalError("empty estimate on a reachable estimator state")
    return InitialStateEstimator(sys, delta, found)


def estimator_verdict(est: InitialStateEstimator) -> Verdict:
    """Read the initial-state verdict off a built estimator.

    The system is opaque iff every reachable estimator state whose reference
    component is a secret initial state still retains a non-secret initial
    state in its estimate. A failure ships the forward path traced by the
    walk to the first such state in BFS order.
    """
    notion = OpacityNotion.initial_state()
    stats = {"estimator_states": len(est.forest.classes),
             "transitions": len(est.forest.edges)}
    for i in range(len(est.forest.classes)):
        if est.reveals(i):
            witness = Witness(*est.forward_path_from(i))
            return Verdict(False, notion, est.delta, witness, stats)
    return Verdict(True, notion, est.delta, None, stats)


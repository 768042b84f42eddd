"""Initial-state and current-state opacity: the decision path and the
paper's pair observer.

`verify_state_opacity` decides both notions with the n-bit subset search
of `opacue.search` and stops at the first revealing class. No notion needs
to know where a run started, only where the runs that can still explain
the reference run are now:

- initial-state: the set holds the current states of runs from non-secret
  initial states; the secret is revealed when that set becomes empty;
- current-state: the set holds the current states of all runs; the secret
  is revealed when the reference state is secret and the set lies inside
  the secret set.

`build_observer` is the paper's construction, built on the oracle kernel
`brute.explore` and kept as an independent oracle and for DOT export. An
`Observer` keeps the `verdict.Forest` the kernel leaves: each class is an
observer state, a pair (reference state, set of initial/current state
pairs). The pair set tracks every run whose output history is pointwise
delta-close to the reference run, remembering where each such run
started. Pair sets live in a single int of n*n bits (bit i*n + c == pair
(i, c)); `Observer.rows` is the one decoder of that layout, for the
observer's step, its projections and the DOT export. `observer_verdict`
reads a verdict off a built observer, its witness off the forest's
parent links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InternalError, ValidationError
from .search import Step, search
from .system import (
    DEFAULT_STATE_CAP, MetricSystem, NotionKind, OpacityNotion, check_delta, close_rows,
    iter_bits,
)
from .verdict import Forest, Verdict, Witness

__all__ = ["DEFAULT_STATE_CAP", "Observer", "build_observer", "observer_verdict",
           "verify_state_opacity"]


@dataclass
class Observer:
    """Reachable part of the delta-approximate pair observer.

    `forest` is the record `brute.explore` leaves: its classes are the
    observer states (reference state, pair set) in BFS discovery order, its
    seeds (the classes without a parent) are the initial states, one per
    initial system state, and its edges are the transitions. A pair set is
    read through `rows`.
    """

    sys: MetricSystem
    delta: float
    forest: Forest

    @staticmethod
    def rows(pairs: int, n: int) -> Iterator[tuple[int, int]]:
        """The one decoder of a pair set over n states: (initial i, the
        bitset of the current states c paired with i), for each i with a
        pair, in ascending order. Bit i*n + c is the pair (i, c)."""
        mask = (1 << n) - 1
        for i in range(n):
            row = pairs >> (i * n) & mask
            if row:
                yield i, row

    def int_bits(self, i: int) -> int:
        """Possible initial states recorded in observer state i."""
        return sum(1 << x0 for x0, _ in self.rows(self.forest.classes[i][1], self.sys.n_states))

    def cur_bits(self, i: int) -> int:
        """Possible current states recorded in observer state i."""
        out = 0
        for _, row in self.rows(self.forest.classes[i][1], self.sys.n_states):
            out |= row
        return out

    def reveals(self, i: int, notion: OpacityNotion) -> bool:
        """State i projects its pair set entirely into the secret set: its
        initial components for initial-state, else its current components."""
        initial_notion = notion.kind is NotionKind.INITIAL_STATE
        proj = self.int_bits(i) if initial_notion else self.cur_bits(i)
        return proj & ~self.sys.secret_bits == 0


def build_observer(
    sys: MetricSystem, delta: float, cap: int = DEFAULT_STATE_CAP
) -> Observer:
    """Materialize the reachable part of the delta-approximate observer.

    Initial states pair each initial system state x with the diagonal pairs
    (x_I, x_I) over initial states delta-close to x. Transitions advance
    every tracked pair under every input and keep the successors delta-close
    to the new reference state. Raises ResourceError past `cap` interned
    states.
    """
    from .brute import explore, subset_step, union

    check_delta(delta)
    n = sys.n_states
    ones = sum(1 << (i * n) for i in range(n))
    close = [sys.close_bits(x, delta) for x in range(n)]
    seeds = [(x, sum(1 << (i * n + i) for i in iter_bits(sys.initial_bits & close[x])))
             for x in sys.initial]
    # every tracked run takes one step under an arbitrary input
    step = subset_step(lambda z: sum(union(row, sys.succ_any) << (i * n)
                                     for i, row in Observer.rows(z, n)),
                       [c * ones for c in close], sys.post_bits)
    found = explore(seeds, step, cap, lambda x, pairs: pairs == 0)
    if found.hit is not None:
        # Clause 2 always retains the reference run's own pair, so a
        # reachable state can never carry an empty estimate.
        raise InternalError("empty estimate on a reachable observer state")
    return Observer(sys, delta, found)


def _check_state_notion(notion: OpacityNotion) -> bool:
    """True for initial-state, False for current-state; raise otherwise."""
    if notion.kind not in (NotionKind.INITIAL_STATE, NotionKind.CURRENT_STATE):
        raise ValidationError(
            f"expected initial-state or current-state, "
            f"got {notion.label()}"
        )
    return notion.kind is NotionKind.INITIAL_STATE


def current_state_search(step: Step, cap: int) -> Forest:
    """Search `step` for a class whose reference state is secret and whose
    set of current states lies inside the secret set."""
    sys, close = step.sys, step.close
    secret = sys.secret_bits
    return search(
        step,
        [(x, sys.initial_bits & close[x]) for x in sys.initial],
        lambda x, bits: (secret >> x) & 1 and bits & ~secret == 0,
        cap,
    )


def verify_state_opacity(
    sys: MetricSystem,
    delta: float,
    notion: OpacityNotion,
    cap: int = DEFAULT_STATE_CAP,
) -> Verdict:
    """Decide delta-approximate initial-state or current-state opacity.

    Searches (reference state, n-bit set) classes breadth-first and stops
    at the first revealing one; its reference path is the witness, the
    same one the pair observer yields. Raises ResourceError past `cap`
    interned classes.
    """
    initial_notion = _check_state_notion(notion)
    check_delta(delta)
    close = close_rows(sys.outputs, sys.outputs, delta)
    step = Step(sys, close)
    if initial_notion:
        secret = sys.secret_bits
        nonsecret = sys.initial_bits & ~secret
        seeds = [(x, nonsecret & close[x]) for x in sys.initial
                 if (secret >> x) & 1]
        found = search(step, seeds, lambda x, bits: bits == 0, cap)
    else:
        found = current_state_search(step, cap)
    stats = {"classes": len(found.classes)}
    if found.hit is None:
        return Verdict(True, notion, delta, None, stats)
    instant = None if initial_notion else found.depths[found.hit]
    return Verdict(False, notion, delta, Witness(*found.path(found.hit), instant), stats)


def observer_verdict(obs: Observer, notion: OpacityNotion) -> Verdict:
    """Read an initial-state or current-state verdict off a built observer.

    The system is opaque iff no reachable observer state projects its pair
    set entirely into the secret set (initial components for initial-state,
    current components for current-state). A failure ships the reference
    path to the first revealing state in BFS order.
    """
    initial_notion = _check_state_notion(notion)
    found = obs.forest
    stats = {"observer_states": len(found.classes), "transitions": len(found.edges)}
    for i in range(len(found.classes)):
        if obs.reveals(i, notion):
            states, inputs = found.path(i)
            witness = Witness(states, inputs, None if initial_notion else len(states) - 1)
            return Verdict(False, notion, obs.delta, witness, stats)
    return Verdict(True, notion, obs.delta, None, stats)

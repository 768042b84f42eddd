"""Breadth-first search over (reference state, n-bit set) classes.

A class pairs a reference state with a set of system states carried as an
int bitset. The engine interns classes in discovery order, remembers the
class and input each one was first reached from, and stops at the first
class the caller's predicate calls revealing, so the path to that class
is a shortest witness. What the set tracks and what reveals the secret is
the caller's choice: `observer.verify_state_opacity` and
`delayed.verify_delayed_opacity` build every opacity notion on it.

The engine owns its one step: every run in the set moves under any input,
and only the runs delta-close to the new reference state survive. Two
tables keep that step cheap, and neither outlives the search:

- a move list per reference state, built the first time a class on that
  state is expanded: each successor once, with the first input that
  reaches it, in input-then-state order;
- a memo from each expanded set to its any-input image, since many
  classes on different reference states carry the same set.

Both keep the discovery order that one candidate per (input, successor)
pair gives, so classes, parents and witnesses do not depend on them.

The engine shares only its record, `verdict.Forest`, and the path walk
with the oracle kernel `brute.explore`: no kernel, step or closeness
table, so the oracles stay independent cross-checks of its verdicts.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .errors import ResourceError
from .system import MetricSystem, iter_bits
from .verdict import Class, Forest

__all__ = ["search"]

Reveal = Callable[[int, int], bool]


def search(
    sys: MetricSystem,
    close: list[int],
    seeds: Iterable[Class],
    reveal: Reveal,
    cap: int,
    max_depth: Optional[int] = None,
    spent: int = 0,
) -> Forest:
    """Explore classes breadth-first from `seeds` until one reveals.

    A class (ref, bits) steps to (ref2, image & close[ref2]) for every
    successor ref2 of ref, with the first input that reaches it: every run
    in the set takes one step under any input, and only the runs delta-close
    to the new reference survive. `close[x]` is the bitset of states
    delta-close to state x.

    Each new class, seeds included, is tested with `reveal(ref, bits)` as
    it is interned; the first that passes ends the search and becomes
    `hit`. Classes at depth `max_depth` are not expanded; no `edges` are
    recorded. Raises ResourceError when interning a class would bring
    `spent` plus the classes of this search past `cap`.
    """
    found = Forest()
    classes, parents, depths = found.classes, found.parents, found.depths
    index: set[Class] = set()
    succ_any = sys.succ_any
    post = sys.post_bits
    moves: list[Optional[list[tuple[int, int, int]]]] = [None] * sys.n_states
    images: dict[int, int] = {}

    def intern(key: Class, parent: Optional[tuple[int, int]], depth: int) -> bool:
        if spent + len(classes) >= cap:
            raise ResourceError(f"search exceeded the cap of {cap} classes")
        index.add(key)
        classes.append(key)
        parents.append(parent)
        depths.append(depth)
        return reveal(*key)

    for key in seeds:
        if key not in index and intern(key, None, 0):
            found.hit = len(classes) - 1
            return found
    head = 0
    while head < len(classes):
        depth = depths[head] + 1
        if max_depth is None or depth <= max_depth:
            ref, bits = classes[head]
            row = moves[ref]
            if row is None:
                row = moves[ref] = _moves(post, close, ref)
            image = images.get(bits)
            if image is None:
                image = 0
                for x in iter_bits(bits):
                    image |= succ_any[x]
                images[bits] = image
            for u, ref2, near in row:
                key = (ref2, image & near)
                if key not in index and intern(key, (head, u), depth):
                    found.hit = len(classes) - 1
                    return found
        head += 1
    return found


def _moves(post: Sequence[Sequence[int]], close: list[int], ref: int
           ) -> list[tuple[int, int, int]]:
    """(u, ref2, close[ref2]) for each successor ref2 of ref, with the
    first input u that reaches it: inputs ascending, then states ascending."""
    row = []
    seen = 0
    for u, successors in enumerate(post):
        fresh = successors[ref] & ~seen
        if fresh:
            seen |= fresh
            for ref2 in iter_bits(fresh):
                row.append((u, ref2, close[ref2]))
    return row

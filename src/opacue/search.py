"""Breadth-first search over (reference state, n-bit set) classes.

A class pairs a reference state with a set of system states carried as an
int bitset. The engine interns classes in discovery order, remembers the
class and input each one was first reached from, and stops at the first
class the caller's predicate calls revealing, so the path to that class
is a shortest witness. What the set tracks and what reveals the secret is
the caller's choice: `observer.verify_state_opacity` and
`delayed.verify_delayed_opacity` build every opacity notion on it.

The engine uses only the `system` helpers. It shares no code with the
pair observer, the estimator or the brute-force oracle, so those stay
independent cross-checks of its verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import ResourceError
from .system import MetricSystem, iter_bits

__all__ = ["Search", "post_step", "search"]

Class = tuple[int, int]  # (reference state, bitset)
Step = Callable[[int, int], Iterable[tuple[int, int, int]]]
Reveal = Callable[[int, int], bool]


@dataclass
class Search:
    """Interned classes of one search, in BFS discovery order.

    `parents[i]` is (parent class index, input index) for the first
    discovery of class i, or None for a seed. `hit` is the index of the
    revealing class the search stopped at, or None if it ran out of
    classes.
    """

    classes: list[Class]
    parents: list[Optional[tuple[int, int]]]
    depths: list[int]
    hit: Optional[int] = None

    def path(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Reference states and inputs from a seed to class i."""
        states = [self.classes[i][0]]
        inputs: list[int] = []
        link = self.parents[i]
        while link is not None:
            i, u = link
            states.append(self.classes[i][0])
            inputs.append(u)
            link = self.parents[i]
        states.reverse()
        inputs.reverse()
        return tuple(states), tuple(inputs)

    def root(self, i: int) -> int:
        """Index of the seed class that class i descends from."""
        while self.parents[i] is not None:
            i = self.parents[i][0]
        return i


def post_step(sys: MetricSystem, close: list[int]) -> Step:
    """Successors of a class: every run in the set takes one step under any
    input, and only the runs delta-close to the new reference survive.

    `close[x]` is the bitset of states delta-close to state x.
    """
    succ_any = sys.succ_any
    post = sys.post_bits
    inputs = range(len(sys.inputs))

    def step(ref: int, bits: int) -> Iterator[tuple[int, int, int]]:
        stepped = 0
        for x in iter_bits(bits):
            stepped |= succ_any[x]
        for u in inputs:
            for ref2 in iter_bits(post[u][ref]):
                yield u, ref2, stepped & close[ref2]

    return step


def search(
    seeds: Iterable[Class],
    step: Step,
    reveal: Reveal,
    cap: int,
    max_depth: Optional[int] = None,
    spent: int = 0,
) -> Search:
    """Explore classes breadth-first from `seeds` until one reveals.

    Each new class, seeds included, is tested with `reveal(ref, bits)` as
    it is interned; the first that passes ends the search and becomes
    `hit`. Classes at depth `max_depth` are not expanded. Raises
    ResourceError when interning a class would bring `spent` plus the
    classes of this search past `cap`.
    """
    found = Search([], [], [])
    classes, parents, depths = found.classes, found.parents, found.depths
    index: dict[Class, int] = {}

    def intern(key: Class, parent: Optional[tuple[int, int]], depth: int) -> bool:
        if key in index:
            return False
        if spent + len(classes) >= cap:
            raise ResourceError(f"search exceeded the cap of {cap} classes")
        index[key] = len(classes)
        classes.append(key)
        parents.append(parent)
        depths.append(depth)
        return reveal(*key)

    for key in seeds:
        if intern(key, None, 0):
            found.hit = len(classes) - 1
            return found
    head = 0
    while head < len(classes):
        depth = depths[head] + 1
        if max_depth is None or depth <= max_depth:
            for u, ref2, bits2 in step(*classes[head]):
                if intern((ref2, bits2), (head, u), depth):
                    found.hit = len(classes) - 1
                    return found
        head += 1
    return found

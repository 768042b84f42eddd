"""Breadth-first search over (reference state, n-bit set) classes.

A class pairs a reference state with a set of system states carried as an
int bitset. The engine interns classes in discovery order, remembers the
class and input each one was first reached from, and stops at the first
class the caller's predicate calls revealing, so the path to that class
is a shortest witness. What the set tracks and what reveals the secret is
the caller's choice: `observer.verify_state_opacity` and
`delayed.verify_delayed_opacity` build every opacity notion on it.

The engine's one step lives in a `Step`: every run in the set moves under
any input, and only the runs delta-close to the new reference state
survive. A decision builds one `Step` per (system, closeness table) and
runs all its searches on it, so the forward and survivor phases of a
delayed notion share three tables, each a pure function of the system's
successor rows and `close`, none outliving the decision:

- per reference state, a move list, built the first time a class on that
  state is expanded: each successor once, with the first input that
  reaches it, in input-then-state order. A class's successors are then
  (ref2, image & close[ref2]) over that list, where the image is the set's
  any-input successors;
- per-byte parts: the image is the OR of one part per nonzero byte of the
  set, each part the successors of that byte's members, memoised per
  (byte position, byte value) in a table made the first time its position
  is needed;
- a memo from each expanded set to its image, since many classes on
  different reference states carry the same set.

One table lives only for one search: the (reference state, image) pairs
already expanded. A class whose pair was expanded before would produce
exactly the keys that expansion interned, so its move loop is skipped.
The skip cannot change a forest: breadth-first order expands the earlier
class first, at no greater depth, and its expansion either interned every
key or ended the search.

Interned classes are looked up in one set of bitsets per reference state.
Every table keeps the discovery order that one candidate per (input,
successor) pair gives, so classes, parents and witnesses do not depend on
them.

The engine shares only its record, `verdict.Forest`, and the path walk
with the oracle kernel `brute.explore`: no kernel, step or closeness
table, so the oracles stay independent cross-checks of its verdicts.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .errors import ResourceError
from .system import MetricSystem, iter_bits
from .verdict import Class, Forest

__all__ = ["Step", "search"]

Reveal = Callable[[int, int], bool]


def _byte_members() -> list[bytes]:
    """Entry b lists the set bits of the byte b, ascending. Bytes, not
    tuples: with 256 live tuples the `certificates` benchmark's set-up
    peaked 1.4 MB higher (Python 3.11)."""
    table = [b""]
    for k in range(8):
        bit = bytes((k,))
        table += [m + bit for m in table]
    return table


_BYTE_MEMBERS = _byte_members()


class Step:
    """The step tables of `sys` under the closeness table `close`
    (`close[x]` is the bitset of states delta-close to state x), filled
    lazily by the searches run on them: `moves[ref]` is ref's move list,
    `parts[i][b]` the successors of the members of byte value b at byte
    position i, and `images` maps each expanded set to its image."""

    def __init__(self, sys: MetricSystem, close: list[int]):
        self.sys = sys
        self.close = close
        self.moves: list[Optional[list[tuple[int, int, int]]]] = [None] * sys.n_states
        self.parts: list[Optional[list[Optional[int]]]] = [None] * ((sys.n_states + 7) >> 3)
        self.images: dict[int, int] = {}


def search(
    step: Step,
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
    to the new reference survive, `close` being `step.close`. The search
    fills `step`'s tables and reads what earlier searches left there.

    Each new class, seeds included, is tested with `reveal(ref, bits)` as
    it is interned; the first that passes ends the search and becomes
    `hit`. Classes at depth `max_depth` are not expanded; no `edges` are
    recorded. Raises ResourceError when interning a class would bring
    `spent` plus the classes of this search past `cap`.
    """
    found = Forest()
    classes, parents, depths = found.classes, found.parents, found.depths
    sys, close = step.sys, step.close
    n = sys.n_states
    interned: list[set[int]] = [set() for _ in range(n)]
    succ_any = sys.succ_any
    post = sys.post_bits
    moves, parts, images = step.moves, step.parts, step.images
    expanded: list[Optional[set[int]]] = [None] * n
    width = len(parts)

    for key in seeds:
        ref, bits = key
        if bits not in interned[ref]:
            if spent + len(classes) >= cap:
                raise ResourceError(f"search exceeded the cap of {cap} classes")
            interned[ref].add(bits)
            classes.append(key)
            parents.append(None)
            depths.append(0)
            if reveal(ref, bits):
                found.hit = len(classes) - 1
                return found
    head = 0
    while head < len(classes):
        depth = depths[head] + 1
        if max_depth is None or depth <= max_depth:
            ref, bits = classes[head]
            image = images.get(bits)
            if image is None:
                image = 0
                for i, byte in enumerate(bits.to_bytes(width, "little")):
                    if byte:
                        table = parts[i]
                        if table is None:
                            table = parts[i] = [None] * 256
                        part = table[byte]
                        if part is None:
                            part, base = 0, i << 3
                            for x in _BYTE_MEMBERS[byte]:
                                part |= succ_any[base + x]
                            table[byte] = part
                        image |= part
                images[bits] = image
            done = expanded[ref]
            if done is None:
                done = expanded[ref] = set()
            if image not in done:
                done.add(image)
                row = moves[ref]
                if row is None:
                    row = moves[ref] = _moves(post, close, ref)
                for u, ref2, near in row:
                    bits2 = image & near
                    known = interned[ref2]
                    if bits2 not in known:
                        if spent + len(classes) >= cap:
                            raise ResourceError(f"search exceeded the cap of {cap} classes")
                        known.add(bits2)
                        classes.append((ref2, bits2))
                        parents.append((head, u))
                        depths.append(depth)
                        if reveal(ref2, bits2):
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

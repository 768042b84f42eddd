"""Definition-level opacity search, and the breadth-first kernel of every
independent oracle.

`brute_force_opacity` applies the opacity definitions literally: enumerate
paths of the system breadth-first while tracking, as a bitset, the set of
candidate states reached by runs whose entire output history is
delta-close to the path walked so far (the "matching set"). Memoizing on
(current state, matching set) makes the search terminate, and exhausting
all classes makes the verdict exact.

`explore` is the breadth-first search itself. The paper's pair observer
and backward estimator are built on it too. It shares only its record,
`verdict.Forest`, and the path walk with the engine of `opacue.search`,
so the oracles stay independent cross-checks of the engine's verdicts.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from .errors import ResourceError, ValidationError
from .system import (
    DEFAULT_STATE_CAP, MetricSystem, NotionKind, OpacityNotion, check_delta, iter_bits,
)
from .verdict import Class, Forest, Verdict, Witness

__all__ = ["brute_force_opacity", "confirm_witness", "explore", "subset_step", "union"]

Step = Callable[[int, int], Iterable[tuple[int, int, int]]]


def explore(
    seeds: Iterable[Class],
    step: Step,
    cap: int,
    reveal: Callable[[int, int], bool],
    max_depth: Optional[int] = None,
) -> Forest:
    """Intern classes breadth-first from `seeds` until one reveals.

    `step(ref, bits)` yields (input, ref2, bits2) successors. Each new
    class, seeds included, is tested with `reveal(ref, bits)` as it is
    interned; the first that passes ends the search and becomes `hit`.
    Every step taken is recorded in `edges`. Classes at depth `max_depth`
    are not expanded. Raises ResourceError when a class beyond the seeds
    would take the count past `cap`.
    """
    found = Forest()
    classes, parents, depths, edges = found.classes, found.parents, found.depths, found.edges
    index: dict[Class, int] = {}

    def intern(key: Class, parent: Optional[tuple[int, int]], depth: int) -> bool:
        index[key] = len(classes)
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
        if max_depth is None or depths[head] < max_depth:
            for u, ref2, bits2 in step(*classes[head]):
                key = (ref2, bits2)
                if key not in index:
                    if len(classes) >= cap:
                        raise ResourceError(f"oracle exceeded the cap of {cap} states")
                    if intern(key, (head, u), depths[head] + 1):
                        found.hit = len(classes) - 1
                        return found
                edges.append((head, u, index[key]))
        head += 1
    return found


def union(bits: int, table) -> int:
    """Union of table[x] over the members x of bits."""
    out = 0
    for x in iter_bits(bits):
        out |= table[x]
    return out


def subset_step(spread: Callable[[int], int], close: list[int], moves) -> Step:
    """Successors of a class for `explore`: the reference state takes each
    move `moves[u][ref]` (a bitset of targets per input u), the tracked set
    is mapped by `spread`, and only its members in `close[ref2]` stay."""

    def step(ref: int, bits: int) -> Iterator[tuple[int, int, int]]:
        spread_bits = spread(bits)
        for u, targets in enumerate(moves):
            for ref2 in iter_bits(targets[ref]):
                yield u, ref2, spread_bits & close[ref2]

    return step


def brute_force_opacity(sys: MetricSystem, delta: float, notion: OpacityNotion,
                        cap: int = DEFAULT_STATE_CAP) -> Verdict:
    """Decide opacity by exhaustive matching-set search.

    The search runs to saturation, so the verdict is exact; stats["classes"]
    counts the classes interned. Each search raises ResourceError past
    `cap` classes. For K-step and infinite-step opacity a
    prefix search tracks the full matching set F; from every class whose
    state is secret, a survivor search tracks only the runs that sat on a
    non-secret state at that instant (for at most K more steps), and the
    instant is revealed iff that survivor set dies out.
    """
    check_delta(delta)
    close = [sys.close_bits(x, delta) for x in range(sys.n_states)]
    step = subset_step(lambda bits: union(bits, sys.succ_any), close, sys.post_bits)
    secret = sys.secret_bits
    seeds = [(x, sys.initial_bits & close[x]) for x in sys.initial]
    searches = []
    witness = None

    if notion.kind is NotionKind.INITIAL_STATE:
        found = explore([(x, bits & ~secret) for x, bits in seeds if (secret >> x) & 1],
                        step, cap, lambda x, bits: bits == 0)
        searches.append(found)
        if found.hit is not None:
            witness = Witness(*found.path(found.hit))
    elif notion.kind is NotionKind.CURRENT_STATE:
        found = explore(seeds, step, cap,
                        lambda x, bits: (secret >> x) & 1 and bits & ~secret == 0)
        searches.append(found)
        if found.hit is not None:
            witness = Witness(*found.path(found.hit), found.depths[found.hit])
    else:
        prefixes = explore(seeds, step, cap, lambda x, bits: False)
        origins: dict[Class, int] = {}  # survivor seed -> prefix class
        for i, (x, bits) in enumerate(prefixes.classes):
            if (secret >> x) & 1:
                origins.setdefault((x, bits & ~secret), i)
        survivors = explore(origins, step, cap, lambda x, bits: bits == 0, notion.k)
        searches += [prefixes, survivors]
        if survivors.hit is not None:
            seed = survivors.classes[survivors.root(survivors.hit)]
            witness = Witness.splice(prefixes.path(origins[seed]),
                                     survivors.path(survivors.hit))

    stats = {"classes": sum(len(found.classes) for found in searches)}
    return Verdict(witness is None, notion, delta, witness, stats)


def confirm_witness(
    sys: MetricSystem, delta: float, notion: OpacityNotion, witness: Witness
) -> bool:
    """Replay a witness against the raw definition of the notion.

    Returns True iff the witness path is a real path of the system and no
    delta-close path explains the secret away at the claimed instant. Uses
    only forward/backward reachability over the transition relation.
    """
    check_delta(delta)
    states, inputs = witness.states, witness.inputs
    if len(states) != len(inputs) + 1:
        raise ValidationError("witness shape mismatch")
    post = sys.post_bits
    # indices in range first: a negative one would wrap around in the rows
    if not (all(0 <= x < sys.n_states for x in states)
            and all(0 <= u < len(post) for u in inputs)):
        return False
    if not all(post[u][src] >> dst & 1 for src, u, dst in zip(states, inputs, states[1:])):
        return False
    # the rows of the witness's own states, the only ones read
    close = {x: sys.close_bits(x, delta) for x in set(states)}
    secret = sys.secret_bits
    initial = sys.initial_bits
    m = len(states) - 1

    def walk(bits: int, path: Iterable[int], table: tuple[int, ...]) -> int:
        """Fold a set along `path`: map it through `table` (successors or
        predecessors under any input), keep the members close to the state."""
        for x in path:
            bits = union(bits, table) & close[x]
        return bits

    if notion.kind is NotionKind.INITIAL_STATE:
        x0 = states[0]
        if not ((initial >> x0) & 1 and (secret >> x0) & 1):
            return False
        return walk(initial & ~secret & close[x0], states[1:], sys.succ_any) == 0

    if notion.kind is NotionKind.CURRENT_STATE:
        if not (secret >> states[m]) & 1:
            return False
        return walk(initial & close[states[0]], states[1:], sys.succ_any) & ~secret == 0

    # k-step or infinite-step
    n_instant = witness.revealing_instant
    if n_instant is None or not 0 <= n_instant <= m:
        return False
    if not (secret >> states[n_instant]) & 1:
        return False
    if notion.kind is NotionKind.K_STEP and m - n_instant > notion.k:
        return False
    fset = walk(initial & close[states[0]], states[1:n_instant + 1], sys.succ_any)
    bset = walk(close[states[m]], reversed(states[n_instant:m]), sys.pred_any)
    return fset & bset & ~secret == 0

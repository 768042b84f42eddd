"""The one name-row writer, `system.json_rows`, behind both arrays of name
rows: the transition triples of `serialize_system` and the relation pairs
of `SimRelation.pairs_json`. Each must be the text `json.dumps(...,
indent=2)` writes, on seeded systems and relations whose rows are often
empty, often repeat one value, and whose names are not ASCII.
"""

from __future__ import annotations

import json
import random

from opacue.simrel import SimRelation
from opacue.system import MetricSystem, iter_bits, serialize_system

LETTERS = ["a", "é", "中", "\U0001f600", '"', "\\", "\n", " ", "ß", "\x00"]


def _names(rng: random.Random, count: int) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    while len(seen) < count:
        seen.setdefault("".join(rng.choices(LETTERS, k=rng.randint(1, 4))))
    return tuple(seen)


def _rows(rng: random.Random, count: int, width: int) -> list[int]:
    """`count` bitsets over `width` members, drawn from a pool of three
    values, one of them empty: rows repeat and some are empty."""
    pool = [0] + [rng.randrange(1, 1 << width) for _ in range(2)]
    return [rng.choice(pool) for _ in range(count)]


def _system(rng: random.Random) -> MetricSystem:
    n, m = rng.randint(1, 7), rng.randint(0, 3)
    return MetricSystem.from_rows(
        names=_names(rng, n), inputs=_names(rng, m),
        outputs=tuple((float(i),) for i in range(n)),
        initial=tuple(sorted(rng.sample(range(n), rng.randint(0, n)))),
        secret=tuple(sorted(rng.sample(range(n), rng.randint(0, n)))),
        post_bits=[_rows(rng, n, n) for _ in range(m)])


def test_serialize_system_is_json_dumps_on_repeated_and_empty_rows():
    rng = random.Random(3601)
    shapes = set()
    for _ in range(300):
        sys_ = _system(rng)
        rows = [bits for row in sys_.post_bits for bits in row]
        nonempty = [bits for bits in rows if bits]
        shapes.add((0 in rows, len(set(nonempty)) < len(nonempty)))
        doc = {
            "states": [{"name": name, "output": list(out)}
                       for name, out in zip(sys_.names, sys_.outputs)],
            "inputs": list(sys_.inputs),
            "initial": [sys_.names[i] for i in sys_.initial],
            "secret": [sys_.names[i] for i in sys_.secret],
            "transitions": [[sys_.names[x], sys_.inputs[u], sys_.names[d]]
                            for x in range(sys_.n_states)
                            for u, row in enumerate(sys_.post_bits)
                            for d in iter_bits(row[x])],
        }
        assert serialize_system(sys_) == json.dumps(doc, indent=2) + "\n"
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_pairs_json_is_json_dumps_on_repeated_and_empty_rows():
    rng = random.Random(3602)
    for _ in range(300):
        concrete, abstract = _system(rng), _system(rng)
        rows = _rows(rng, concrete.n_states, abstract.n_states)
        relation = SimRelation(tuple(rows), 0.5)
        pairs = [(i, j) for i, bits in enumerate(rows) for j in iter_bits(bits)]
        assert list(relation.pairs) == pairs
        names = [[concrete.names[i], abstract.names[j]] for i, j in pairs]
        text = '{\n  "pairs": ' + relation.pairs_json(concrete, abstract) + "\n}"
        assert text == json.dumps({"pairs": names}, indent=2)

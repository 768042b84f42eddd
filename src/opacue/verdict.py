"""Verdict and witness types shared by all verification routes, and
`Forest`, the record that both breadth-first kernels, the engine's
`search.search` and the oracles' `brute.explore`, leave behind."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .system import MetricSystem, OpacityNotion

# A path as (states, inputs), with one more state than inputs.
Path = tuple[tuple[int, ...], tuple[int, ...]]
Class = tuple[int, int]  # (reference state, bitset)


def trace(parents: list[Optional[tuple[int, int]]], i: int) -> tuple[list[int], list[int]]:
    """Indices from i back to its seed along `parents` links, and the
    inputs of the links taken."""
    nodes = [i]
    inputs: list[int] = []
    while parents[i] is not None:
        i, u = parents[i]
        nodes.append(i)
        inputs.append(u)
    return nodes, inputs


@dataclass
class Forest:
    """Classes interned by one breadth-first search, in discovery order.

    `parents[i]` is (parent class index, input index) for the first
    discovery of class i, or None for a seed; `depths[i]` is its distance
    from a seed. `edges` holds every step taken, as (class index, input
    index, class index), where the search records them. `hit` is the index
    of the class the search stopped at, or None if it ran out of classes.
    """

    classes: list[Class] = field(default_factory=list)
    parents: list[Optional[tuple[int, int]]] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)
    edges: list[tuple[int, int, int]] = field(default_factory=list)
    hit: Optional[int] = None

    def path(self, i: int) -> Path:
        """Reference states and inputs from a seed to class i."""
        nodes, inputs = trace(self.parents, i)
        return tuple(self.classes[j][0] for j in reversed(nodes)), tuple(reversed(inputs))

    def root(self, i: int) -> int:
        """Index of the seed class that class i descends from."""
        return trace(self.parents, i)[0][-1]


@dataclass(frozen=True)
class Witness:
    """A secret path no delta-close non-secret path can explain away.

    For the delayed notions the revealing instant marks the position along
    the path at which the visit to a secret state is exposed.
    """

    states: tuple[int, ...]
    inputs: tuple[int, ...]
    revealing_instant: Optional[int] = None

    @classmethod
    def splice(cls, prefix: Path, suffix: Path) -> "Witness":
        """The (states, inputs) path `prefix` continued by `suffix`, which
        starts at the prefix's last state; that state is the revealing
        instant."""
        (prefix_states, prefix_inputs), (suffix_states, suffix_inputs) = prefix, suffix
        return cls(prefix_states + suffix_states[1:], prefix_inputs + suffix_inputs,
                   len(prefix_states) - 1)

    def to_report(self, sys: MetricSystem) -> dict:
        return {
            "states": [sys.names[s] for s in self.states],
            "inputs": [sys.inputs[u] for u in self.inputs],
            "revealing_instant": self.revealing_instant,
        }


@dataclass(frozen=True)
class Verdict:
    opaque: bool
    notion: OpacityNotion
    delta: float
    witness: Optional[Witness] = None
    stats: dict = field(default_factory=dict)

    def to_report(self, sys: MetricSystem) -> dict:
        return {
            "opaque": self.opaque,
            "notion": self.notion.label(),
            "delta": self.delta,
            "witness": None if self.witness is None else self.witness.to_report(sys),
            "stats": dict(self.stats),
        }

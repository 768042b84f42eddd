"""Verdict and witness types shared by all verification routes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .system import MetricSystem, OpacityNotion

# A path as (states, inputs), with one more state than inputs.
Path = tuple[tuple[int, ...], tuple[int, ...]]


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

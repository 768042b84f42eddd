"""Graphviz DOT export for observers and estimators.

Nodes are the classes of the construction's `verdict.Forest`, labeled
"ref | {tracked set}"; nodes that reveal the secret under the requested
notion are drawn double-circled; seeds, the initial states, are bold.
Labels are quoted with backslashes and double quotes escaped.
"""

from __future__ import annotations

from .estimator import InitialStateEstimator
from .observer import Observer
from .system import OpacityNotion, iter_bits

__all__ = ["observer_dot", "estimator_dot"]


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _graph(name: str, prefix: str, built: Observer | InitialStateEstimator,
           nodes: list[tuple[str, bool]]) -> str:
    """The DOT graph of a built construction, one (label, revealing) entry
    per state of its forest; seeds are bold, edges are labeled by their
    input."""
    found = built.forest
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for i, (label, revealing) in enumerate(nodes):
        attrs = [f"label={_quote(label)}"]
        attrs.append("shape=doublecircle" if revealing else "shape=ellipse")
        if found.parents[i] is None:
            attrs.append("style=bold")
        lines.append(f"  {prefix}{i} [{', '.join(attrs)}];")
    for src, u, dst in found.edges:
        lines.append(f"  {prefix}{src} -> {prefix}{dst} [label={_quote(built.sys.inputs[u])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def observer_dot(obs: Observer, notion: OpacityNotion) -> str:
    sys = obs.sys
    n = sys.n_states
    nodes = []
    for i, (ref, pairs) in enumerate(obs.forest.classes):
        members = ", ".join(
            f"({sys.names[bit // n]},{sys.names[bit % n]})" for bit in iter_bits(pairs)
        )
        nodes.append((f"{sys.names[ref]} | {{{members}}}", obs.reveals(i, notion)))
    return _graph("observer", "q", obs, nodes)


def estimator_dot(est: InitialStateEstimator) -> str:
    sys = est.sys
    nodes = []
    for i, (ref, estimate) in enumerate(est.forest.classes):
        members = ", ".join(sys.names[b] for b in iter_bits(estimate))
        nodes.append((f"{sys.names[ref]} | {{{members}}}", est.reveals(i)))
    return _graph("estimator", "e", est, nodes)

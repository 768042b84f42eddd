"""Single entry point dispatching a notion to its decision procedure."""

from __future__ import annotations

from .delayed import verify_delayed_opacity
from .observer import verify_state_opacity
from .system import DEFAULT_STATE_CAP, MetricSystem, NotionKind, OpacityNotion
from .verdict import Verdict

__all__ = ["verify_opacity"]


def verify_opacity(
    sys: MetricSystem,
    delta: float,
    notion: OpacityNotion,
    cap: int = DEFAULT_STATE_CAP,
) -> Verdict:
    """Decide delta-approximate opacity of `sys` for the given notion."""
    if notion.kind in (NotionKind.INITIAL_STATE, NotionKind.CURRENT_STATE):
        return verify_state_opacity(sys, delta, notion, cap)
    return verify_delayed_opacity(sys, delta, notion, cap)

"""K-step and infinite-step opacity: the decision path and the paper's
product method.

A visit to a secret state at instant n of a path is exposed iff every path
whose output history is delta-close over the *whole* observation window sat
on a secret state at instant n. K-step opacity limits the window after n
to K steps; infinite-step allows any length.

`verify_delayed_opacity` decides both with two n-bit subset searches of
`opacue.search`:

- forward phase: the current-state search, tracking the set F of states
  reachable at n under delta-close prefixes. A secret class whose F lies
  inside the secret set is exposed at once;
- survivor phase: from every secret class it tracks F minus the secret
  set, the runs that sat on a non-secret state at instant n, for at most
  K more steps. The instant is exposed when that set dies out.

`product_opacity` is the paper's forward/backward product method, kept as
an independent oracle. Matching decomposes at instant n: the forward
observer yields the states reachable at n under delta-close prefixes, the
backward estimator the states admitting a delta-close continuation over
the suffix, and the instant is revealed iff the intersection of the two
sets is entirely secret.
"""

from __future__ import annotations

from .errors import ValidationError
from .estimator import build_initial_estimator
from .observer import DEFAULT_STATE_CAP, build_observer, current_state_search
from .search import search
from .system import MetricSystem, NotionKind, OpacityNotion, check_delta, close_rows
from .verdict import Verdict, Witness

__all__ = ["product_opacity", "verify_delayed_opacity"]


def _check_delayed_notion(notion: OpacityNotion) -> None:
    if notion.kind not in (NotionKind.K_STEP, NotionKind.INFINITE_STEP):
        raise ValidationError(
            f"expected k-step or infinite-step, "
            f"got {notion.label()}"
        )


def verify_delayed_opacity(
    sys: MetricSystem,
    delta: float,
    notion: OpacityNotion,
    cap: int = DEFAULT_STATE_CAP,
) -> Verdict:
    """Decide delta-approximate K-step or infinite-step opacity exactly.

    Both search phases count their classes against one `cap`. A witness
    is a shortest exposing prefix followed by a shortest suffix from it.
    """
    _check_delayed_notion(notion)
    check_delta(delta)
    close = close_rows(sys.outputs, sys.outputs, delta)
    forward = current_state_search(sys, close, cap)
    if forward.hit is not None:
        states, inputs = forward.path(forward.hit)
        witness = Witness(states, inputs, revealing_instant=len(states) - 1)
        return Verdict(False, notion, delta, witness,
                       {"classes": len(forward.classes)})

    secret = sys.secret_bits
    origins: dict[tuple[int, int], int] = {}  # survivor seed -> forward class
    for i, (x, bits) in enumerate(forward.classes):
        if (secret >> x) & 1:
            origins.setdefault((x, bits & ~secret), i)
    survivors = search(
        sys, close, origins, lambda x, bits: bits == 0, cap,
        max_depth=notion.k,
        spent=len(forward.classes),
    )
    stats = {"classes": len(forward.classes) + len(survivors.classes)}
    if survivors.hit is None:
        return Verdict(True, notion, delta, None, stats)
    seed = survivors.classes[survivors.root(survivors.hit)]
    witness = Witness.splice(forward.path(origins[seed]), survivors.path(survivors.hit))
    return Verdict(False, notion, delta, witness, stats)


def product_opacity(
    sys: MetricSystem,
    delta: float,
    notion: OpacityNotion,
    cap: int = DEFAULT_STATE_CAP,
) -> Verdict:
    """Decide K-step or infinite-step opacity by the observer x estimator
    product. Slower than `verify_delayed_opacity`; kept as its oracle."""
    _check_delayed_notion(notion)
    obs = build_observer(sys, delta, cap)
    est = build_initial_estimator(sys, delta, cap)
    secret = sys.secret_bits

    est_by_ref: list[list[int]] = [[] for _ in range(sys.n_states)]
    for i, e in enumerate(est.states):
        if notion.k is None or est.depths[i] <= notion.k:  # None: infinite-step
            est_by_ref[e.ref].append(i)

    stats = {
        "observer_states": len(obs.states),
        "estimator_states": len(est.states),
        "transitions": len(obs.transitions) + len(est.transitions),
    }

    for qi in range(len(obs.states)):
        x = obs.states[qi].ref
        if not (secret >> x) & 1:
            continue
        cur = obs.cur_bits(qi)
        for ei in est_by_ref[x]:
            matched = cur & est.states[ei].estimate
            if matched & ~secret == 0:
                witness = Witness.splice(obs.path_to(qi), est.forward_path_from(ei))
                return Verdict(False, notion, delta, witness, stats)
    return Verdict(True, notion, delta, None, stats)

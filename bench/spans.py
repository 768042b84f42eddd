"""Span tracing of the `opacue` layers, applied from outside the package.

`Tracer.install()` replaces each public layer function with a wrapper that
records one span per call: name, start, end, parent span and query id.
Python binds imported names per module (`opacue.cli.verify_opacity`,
`opacue.simrel.verify_state_opacity`, ...), so every loaded `opacue`
module attribute that refers to a traced function is patched, not just
the defining one. Hot methods (dynamics steps, polynomial evaluations) are
only counted, since a span per call would swamp what it measures.

Self time of a span is its duration minus the time its child spans cover.
Layer times are sums of self time, so they partition query time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional


def _len(attr: str) -> Callable[[object], int]:
    return lambda result: len(getattr(result, attr, ()) or ())


def _relation_pairs(report) -> int:
    relation = getattr(report, "relation", None)
    return len(getattr(relation, "pairs", ()) or ())


def _abstraction_size(attr: str) -> Callable[[object], int]:
    def count(result) -> int:
        system = getattr(result, "system", None)
        return len(getattr(system, attr, ()) or ())
    return count


def _call(result) -> int:
    return 1


def _samples(report) -> int:
    return sum((getattr(report, "sample_counts", None) or {}).values())


# (module, attribute, span name, {counter name: result -> increment}).
SPANS = [
    ("opacue.system", "parse_system", "system.parse", {}),
    ("opacue.system", "serialize_system", "system.serialize", {}),
    ("opacue.system", "MetricSystem.close_bits", "system.close_bits", {
        "system.close_bits_calls": _call,
    }),
    ("opacue.observer", "build_observer", "observer.build", {
        "observer.build_calls": _call,
        "observer.states": _len("states"),
        "observer.transitions": _len("transitions"),
    }),
    ("opacue.observer", "verify_state_opacity", "observer.check", {}),
    ("opacue.estimator", "build_initial_estimator", "estimator.build", {
        "estimator.states": _len("states"),
    }),
    ("opacue.delayed", "verify_delayed_opacity", "delayed.product", {}),
    ("opacue.simrel", "max_initsop_relation", "simrel.relation", {
        "simrel.relation_calls": _call,
        "simrel.pairs": _relation_pairs,
    }),
    ("opacue.simrel", "opacity_via_abstraction", "simrel.transfer", {}),
    ("opacue.abstraction", "build_abstraction", "abstraction.build", {
        "abstraction.states": _abstraction_size("names"),
        "abstraction.transitions": _abstraction_size("transitions"),
    }),
    ("opacue.barrier", "build_regions", "barrier.regions", {}),
    ("opacue.barrier", "check_opacity_barrier", "barrier.check", {
        "barrier.samples": _samples,
    }),
    ("opacue.barrier", "check_lack_barrier", "barrier.check", {
        "barrier.samples": _samples,
    }),
    ("opacue.compositional", "compose_barriers", "compositional.compose", {}),
]

# (module, Class.method, counter name): counted per call, no span.
COUNTS = [
    ("opacue.control", "DtControlSystem.step", "control.step_calls"),
    ("opacue.polynomial", "Polynomial.__call__", "polynomial.eval_calls"),
]

# The root span of each query, wrapped around `opacue.cli.main` by the runner.
ROOT = "cli"


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.query: Optional[int] = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def wrap(self, name: str, fn: Callable, counters: dict) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.query)
            for key, measure in counters.items():
                counts[key] += measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every binding of each traced function in loaded modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "opacue" or n.startswith("opacue."))]
        for module_name, attr, name, counters in SPANS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    self._set(cls, meth, self.wrap(name, cls.__dict__[meth], counters))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for module_name, attr, key in COUNTS:
            module = sys.modules.get(module_name)
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None) if module else None
            if cls is not None and meth in cls.__dict__:
                self._set(cls, meth, self._counted(key, cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name."""
        child = defaultdict(float)
        for sid, name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, parent, _ in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "query": query}) + "\n")


def layer_metrics(self_s: dict[str, float], counts: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit): the self seconds of each
    span name as "<name>_s" (of the root as "cli.self_s"), and every
    counter named in SPANS and COUNTS."""
    metrics = {f"{ROOT}.self_s": (self_s.get(ROOT, 0.0), "s")}
    for _, _, name, counters in SPANS:
        metrics[f"{name}_s"] = (self_s.get(name, 0.0), "s")
        for key in counters:
            metrics[key] = (counts.get(key, 0), "count")
    for _, _, key in COUNTS:
        metrics[key] = (counts.get(key, 0), "count")
    return metrics

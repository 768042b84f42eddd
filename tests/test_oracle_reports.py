"""Pinned outcomes of the paper's constructions and the brute-force oracle.

The CLI cases run `opacue observer`, `opacue estimator` and
`opacue verify --oracle` on the gridworld fixtures and on a few seeded
random systems, and compare the exit code, the stdout and a digest of
the exported DOT text with `oracle_reports.json`. The corpus cases
digest, per delta and notion, every verdict, witness and stats dict of
the oracles on the seeded corpus of `test_search.py`, and the DOT text of every observer and
estimator built for it. Any drift in an oracle shows up here.

Regenerate the file with `python -m tests.test_oracle_reports` (only when
an outcome is meant to change).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from opacue.brute import brute_force_opacity
from opacue.cli import main
from opacue.delayed import product_opacity
from opacue.dotexport import estimator_dot, observer_dot
from opacue.estimator import build_initial_estimator, estimator_verdict
from opacue.observer import build_observer, observer_verdict
from opacue.system import serialize_system

from .conftest import FIXTURES, random_system
from .test_search import DELAYED_NOTIONS, DELTAS, STATE_NOTIONS, corpus

EXPECTED = Path(__file__).resolve().parent / "oracle_reports.json"

VERIFY_NOTIONS = (["initial-state"], ["current-state"], ["k-step", "--k", "1"],
                  ["infinite-step"])


def _systems(workdir: Path) -> dict[str, tuple[str, tuple[float, ...]]]:
    """name -> (system file, deltas to run it at)."""
    systems = {name: (str(FIXTURES / f"{name}.json"), (0.0, 1.0))
               for name in ("gridworld", "gridworld_c1", "gridworld_c2")}
    rng = random.Random(4104)
    for i in range(4):
        path = workdir / f"random{i}.json"
        path.write_text(serialize_system(random_system(rng, max_states=6)))
        systems[f"random{i}"] = (str(path), (0.1, 0.5))
    return systems


def _cli(argv, dot_path: Path | None = None) -> dict:
    out = io.StringIO()
    if dot_path is not None:
        dot_path.unlink(missing_ok=True)
    with contextlib.redirect_stdout(out):
        code = main(argv + (["--export-dot", str(dot_path)] if dot_path else []))
    outcome = {"code": code, "stdout": out.getvalue()}
    if dot_path is not None:
        outcome["dot_sha256"] = hashlib.sha256(dot_path.read_bytes()).hexdigest()
    return outcome


def cli_outcomes(workdir: Path) -> dict:
    found = {}
    dot = workdir / "out.dot"
    for name, (path, deltas) in _systems(workdir).items():
        for delta in deltas:
            base = ["--system", path, "--delta", repr(delta)]
            for notion in ("initial-state", "current-state"):
                found[f"observer {name} {delta} {notion}"] = _cli(
                    ["observer", *base, "--notion", notion], dot)
            found[f"estimator {name} {delta}"] = _cli(["estimator", *base], dot)
            for notion in VERIFY_NOTIONS:
                found[f"verify {name} {delta} {' '.join(notion)}"] = _cli(
                    ["verify", *base, "--oracle", "--notion", *notion])
    return found


def _digest(items) -> str:
    return hashlib.sha256("\n".join(map(repr, items)).encode()).hexdigest()


def corpus_outcomes() -> dict:
    """(delta, notion) -> digest of one oracle's outcomes over the corpus."""
    rows: dict[str, list] = {}

    def add(key, item):
        rows.setdefault(key, []).append(item)

    for sys_ in corpus():
        for delta in DELTAS:
            obs = build_observer(sys_, delta)
            est = build_initial_estimator(sys_, delta)
            add(f"estimator {delta}", (estimator_verdict(est), estimator_dot(est)))
            for notion in STATE_NOTIONS + DELAYED_NOTIONS:
                label = notion.label()
                brute = brute_force_opacity(sys_, delta, notion)
                add(f"brute {delta} {label}", (brute.opaque, brute.witness))
                if notion in STATE_NOTIONS:
                    add(f"observer {delta} {label}",
                        (observer_verdict(obs, notion), observer_dot(obs, notion)))
                else:
                    add(f"product {delta} {label}", product_opacity(sys_, delta, notion))
    return {key: _digest(items) for key, items in rows.items()}


def outcomes() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {"cli": cli_outcomes(Path(tmp)), "corpus": corpus_outcomes()}


def test_oracle_cli_reports_are_pinned(tmp_path):
    expected = json.loads(EXPECTED.read_text())["cli"]
    found = cli_outcomes(tmp_path)
    assert sorted(found) == sorted(expected)
    for key in expected:
        assert found[key] == expected[key], key


def test_oracle_corpus_outcomes_are_pinned():
    expected = json.loads(EXPECTED.read_text())["corpus"]
    assert corpus_outcomes() == expected


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(outcomes(), indent=1, sort_keys=True) + "\n")

"""Pinned outputs of the abstraction route, step by step.

For a few seeded 1-D plants and one 2-D plant, the route runs as a user
would: `opacue abstract --out`, then `opacue simrel` of the sampled
concrete system against that file, without and with `--delta`. Each
step's exit code and a SHA-256 of its stdout, its stderr and the file it
writes are compared with `abstraction_reports.json`, so any drift in the
written abstraction, the relation or the transfer verdict shows up here.

Regenerate the file with `python -m tests.test_abstraction_reports`
(only when an output is meant to change).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from opacue.abstraction import sample_system
from opacue.cli import main
from opacue.control import parse_control_system
from opacue.system import serialize_system

from .conftest import linear_plant

EXPECTED = Path(__file__).resolve().parent / "abstraction_reports.json"


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def cases() -> dict[str, tuple[dict, float, float, float, list[str]]]:
    """name -> (plant, eta, epsilon, delta, more `abstract` flags), with mu = eta.

    The 1-D slacks delta - 2*epsilon give an inconclusive, two opaque and
    a refused (epsilon > delta/2) transfer; at epsilon < eta/4 the sampled
    system's off-grid states have no partner, so the last 1-D case is not
    related (and its abstraction is uncertified)."""
    rng = random.Random(9101)
    found = {}
    for k, (eta, slack) in enumerate(
            [(0.05, 0.0), (0.025, 0.2), (0.02, 0.5), (0.05, -0.01), (0.05, 0.5)]):
        a = round(rng.uniform(0.1, 0.5), 2)
        b = round(rng.uniform(0.0, 0.4), 2)
        lo = round(rng.uniform(0.0, 0.7), 1)
        epsilon = round((eta + b / (1 - a) * eta) / (1 - a) * 1.25, 3)
        flags = []
        if k == 4:
            epsilon, flags = eta / 8, ["--unsound"]
        plant = linear_plant(1, a, b, (lo, round(lo + 0.3, 1)))
        found[f"1d-{k} eta={eta}"] = (plant, eta, epsilon, round(2 * epsilon + slack, 3),
                                      flags)
    found["2d eta=0.1"] = (linear_plant(2, 0.3, 0.2, (0.4, 0.7)), 0.1, 0.23, 0.76, [])
    return found


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _step(argv: list[str], written: Path | None = None) -> dict:
    if written is not None:
        written.unlink(missing_ok=True)
    code, out, err = _cli(argv)
    outcome = {"code": code, "stdout": _sha(out), "stderr": _sha(err)}
    if written is not None:
        outcome["file"] = _sha(written.read_bytes()) if written.exists() else None
    return outcome


def route_outcomes(workdir: Path) -> dict:
    """Run every case in `workdir`, with relative paths so that the reports
    do not depend on where it is."""
    found = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, (plant, eta, epsilon, delta, flags) in cases().items():
            Path("plant.json").write_text(json.dumps(plant), encoding="utf-8")
            concrete = serialize_system(sample_system(
                parse_control_system(json.dumps(plant)), eta / 2, eta))
            Path("concrete.json").write_text(concrete, encoding="utf-8")
            abstract = ["abstract", "--system", "plant.json", "--eta", repr(eta),
                        "--mu", repr(eta), "--epsilon", repr(epsilon), *flags]
            simrel = ["simrel", "--system", "concrete.json", "--abstract",
                      "abstract.json", "--epsilon", repr(epsilon)]
            found[name] = {
                "concrete": _sha(concrete),
                "abstract": _step(abstract + ["--out", "abstract.json"],
                                  Path("abstract.json")),
                "abstract without --out": _step(abstract),
                "simrel": _step(simrel),
                "simrel --delta": _step(simrel + ["--delta", repr(delta)]),
            }
    finally:
        os.chdir(cwd)
    return found


def test_abstraction_route_outputs_are_pinned(tmp_path):
    expected = json.loads(EXPECTED.read_text())
    found = route_outcomes(tmp_path)
    assert sorted(found) == sorted(expected)
    for name in expected:
        assert found[name] == expected[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        EXPECTED.write_text(
            json.dumps(route_outcomes(Path(tmp)), indent=1, sort_keys=True) + "\n")

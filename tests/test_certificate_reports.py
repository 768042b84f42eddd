"""Pinned reports of the sampled certificate checks.

Each case below runs `opacue barrier` or `opacue compose` on a fixed input
and compares the outcome with the value stored in `certificate_reports.json`:
the exact JSON report and exit code, and a digest of every barrier
violation. Any drift in a margin, witness, sample count or violation count
shows up here.

Regenerate the file with `python -m tests.test_certificate_reports`
(only when a report is meant to change).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from opacue.barrier import check_lack_barrier, check_opacity_barrier
from opacue.cli import main
from opacue.control import parse_control_system
from opacue.polynomial import parse_polynomial

EXPECTED = Path(__file__).resolve().parent / "certificate_reports.json"


def _plant(a, b, secret, initial):
    return {
        "dim": 1, "state_box": [[0.0, 1.0]], "initial_box": [list(initial)],
        "secret_box": [list(secret)], "input_box": [[0.0, 0.1]],
        "dynamics": [f"{a!r}*x1 + {b!r}*u1"], "output": ["x1"],
        "iss_cert": {"c": 1.0, "lambda": 0.5, "g": 1.0, "a": 1.0},
    }


PLANE = {
    "dim": 2, "state_box": [[0.0, 1.0], [0.0, 1.0]],
    "initial_box": [[0.0, 1.0], [0.0, 1.0]], "secret_box": [[0.5, 1.0], [0.0, 1.0]],
    "input_box": [[0.0, 0.25], [0.0, 0.25]],
    "dynamics": ["0.5*x1 + 0.5*u1", "0.75*x2 - 0.5*u2"], "output": ["x1 + x2"],
    "iss_cert": {"c": 1.0, "lambda": 0.75, "g": 1.0, "a": 1.0},
}


def _poly(terms):
    return {"vars": len(next(iter(terms))),
            "terms": [{"exps": list(e), "coef": c} for e, c in terms.items()]}


def _gap(c):
    """(x - xh)^2 - c."""
    return _poly({(2, 0): 1.0, (0, 2): 1.0, (1, 1): -2.0, (0, 0): -c})


# name -> (plant, candidate, kind, delta, resolution)
BARRIER = {
    "opacity-pass": (_plant(0.5, 0.2, (0.3, 0.5), (0.0, 1.0)), _gap(0.125 ** 2),
                     "opacity", 0.125, 0.05),
    "opacity-initial": (_plant(0.6, 0.3, (0.2, 0.4), (0.0, 1.0)), _gap(-0.01),
                        "opacity", 0.125, 0.05),
    "opacity-unsafe": (_plant(0.4, 0.1, (0.5, 0.8), (0.0, 1.0)), _gap(0.175 ** 2),
                       "opacity", 0.125, 0.05),
    "opacity-decrease": (_plant(1.3, 0.2, (0.3, 0.6), (0.0, 1.0)), _gap(0.125 ** 2),
                         "opacity", 0.125, 0.05),
    "opacity-plane": (PLANE, _poly({(1, 0, 0, 0): 1.0, (0, 1, 0, 0): -0.5,
                                    (0, 0, 2, 0): 1.0, (0, 0, 0, 1): 0.25,
                                    (0, 0, 0, 0): -0.2}),
                      "opacity", 0.3, 0.25),
    "lack-initial": (_plant(0.5, 0.2, (0.5, 0.7), (0.3, 0.7)), _poly({(0, 0): 1.0}),
                     "lack", 0.125, 0.05),
    "lack-boundary": (_plant(0.5, 0.2, (0.5, 0.7), (0.3, 0.7)), _poly({(0, 0): -1.0}),
                      "lack", 0.125, 0.05),
    "lack-decrease": (_plant(0.7, 0.3, (0.5, 0.7), (0.3, 0.7)),
                      _poly({(2, 0): 1.0, (1, 0): -1.0, (0, 2): 1.0, (0, 1): -1.0,
                             (0, 0): 0.35}),
                      "lack", 0.125, 0.05),
}


def _sub(a, b, initial=(0.0, 0.2), secret=(0.6, 1.0)):
    return {"a": a, "b": b, "state": [0.0, 1.0], "initial": list(initial),
            "secret": list(secret)}


AFFINE = _poly({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})

# name -> (interconnection, barrier, resolution); delta is 0.1 throughout
COMPOSE = {
    "compose-pass": ({"sub1": _sub(-0.4, 0.3), "sub2": _sub(-0.5, 0.2)}, AFFINE, 0.1),
    "compose-norm-lower-bound": ({"sub1": _sub(-0.4, 0.3), "sub2": _sub(-0.3, 0.1)},
                                 _poly({(1, 0): 0.5, (0, 1): 0.5}), 0.1),
    "compose-initial": ({"sub1": _sub(-0.4, 0.3, (0.3, 0.7), (0.5, 1.0)),
                         "sub2": _sub(-0.2, 0.1, (0.3, 0.7), (0.5, 1.0))}, AFFINE, 0.1),
    "compose-decrease": ({"sub1": _sub(0.4, 0.1), "sub2": _sub(0.3, 0.2)}, AFFINE, 0.1),
}


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _barrier_outcome(name, workdir: Path) -> dict:
    plant, candidate, kind, delta, resolution = BARRIER[name]
    plant_path, candidate_path = workdir / f"{name}.json", workdir / f"{name}-b.json"
    plant_path.write_text(json.dumps(plant))
    candidate_path.write_text(json.dumps(candidate))
    code, stdout = _cli(["barrier", "--system", str(plant_path), "--candidate",
                         str(candidate_path), "--kind", kind, "--delta", repr(delta),
                         "--resolution", repr(resolution)])
    checker = check_opacity_barrier if kind == "opacity" else check_lack_barrier
    report = checker(parse_polynomial(json.dumps(candidate)),
                     parse_control_system(json.dumps(plant)), delta, resolution)
    digest = hashlib.sha256(repr(report.violations).encode()).hexdigest()
    return {"code": code, "stdout": stdout, "violations_sha256": digest}


def _compose_outcome(name, workdir: Path) -> dict:
    doc, barrier, resolution = COMPOSE[name]
    doc_path, barrier_path = workdir / f"{name}.json", workdir / f"{name}-b.json"
    doc_path.write_text(json.dumps(doc))
    barrier_path.write_text(json.dumps(barrier))
    code, stdout = _cli(["compose", "--system", str(doc_path), "--barrier1",
                         str(barrier_path), "--barrier2", str(barrier_path),
                         "--delta", "0.1", "--resolution", repr(resolution)])
    return {"code": code, "stdout": stdout}


def outcomes() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        return {
            "barrier": {n: _barrier_outcome(n, workdir) for n in BARRIER},
            "compose": {n: _compose_outcome(n, workdir) for n in COMPOSE},
        }


def test_barrier_reports_are_pinned(tmp_path):
    expected = json.loads(EXPECTED.read_text())["barrier"]
    assert sorted(expected) == sorted(BARRIER)
    for name in BARRIER:
        assert _barrier_outcome(name, tmp_path) == expected[name], name


def test_compose_reports_are_pinned(tmp_path):
    expected = json.loads(EXPECTED.read_text())["compose"]
    assert sorted(expected) == sorted(COMPOSE)
    for name in COMPOSE:
        assert _compose_outcome(name, tmp_path) == expected[name], name


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(outcomes(), indent=1, sort_keys=True) + "\n")

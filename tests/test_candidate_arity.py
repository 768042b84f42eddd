"""A candidate certificate over the wrong number of variables is refused
when it is read, by the flag that named it: exit 3, empty stdout, and no
sampling started."""

import json

import pytest

import opacue.barrier
import opacue.compositional
from opacue.cli import main


def _poly(n_vars):
    return {"vars": n_vars, "terms": [{"exps": [1] + [0] * (n_vars - 1), "coef": 1.0}]}


def _plant(dim):
    return {
        "dim": dim, "state_box": [[0.0, 1.0]] * dim, "initial_box": [[0.0, 1.0]] * dim,
        "secret_box": [[0.5, 1.0]] * dim, "input_box": [[0.0, 0.5]],
        "dynamics": [f"0.5*x{i + 1}" for i in range(dim)], "output": ["x1"],
        "iss_cert": {"c": 1.0, "lambda": 0.5, "g": 0.0, "a": 1.0},
    }


SUB = {"a": -0.4, "b": 0.3, "state": [0.0, 1.0], "initial": [0.0, 0.2],
       "secret": [0.6, 1.0]}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def no_sampling(monkeypatch):
    """Make any start of sampling fail the test."""
    def started(*args, **kwargs):
        raise AssertionError("sampling started")
    monkeypatch.setattr(opacue.barrier, "build_regions", started)
    monkeypatch.setattr(opacue.compositional, "_barrier_conditions", started)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("dim, n_vars", [(1, 3), (1, 1), (2, 2), (2, 3)])
def test_barrier_refuses_a_candidate_of_another_arity(capsys, tmp_path, no_sampling,
                                                      dim, n_vars):
    plant = _write(tmp_path, "plant.json", _plant(dim))
    candidate = _write(tmp_path, "b.json", _poly(n_vars))
    for kind in ("opacity", "lack"):
        code, out, err = run(capsys, "barrier", "--system", plant, "--candidate", candidate,
                             "--kind", kind, "--delta", "0.1", "--resolution", "0.25")
        assert (code, out) == (3, "")
        assert err == (f"error: --candidate {candidate}: the candidate has {n_vars} "
                       f"variables, expected {2 * dim} (x, then x_hat)\n")


def test_barrier_accepts_a_candidate_over_x_and_x_hat(capsys, tmp_path):
    plant = _write(tmp_path, "plant.json", _plant(2))
    candidate = _write(tmp_path, "b.json", _poly(4))
    code, out, err = run(capsys, "barrier", "--system", plant, "--candidate", candidate,
                         "--kind", "opacity", "--delta", "0.1", "--resolution", "0.25")
    assert code in (1, 2) and json.loads(out)["status"] and err == ""


@pytest.mark.parametrize("flag", ["--barrier1", "--barrier2"])
def test_compose_refuses_a_local_barrier_of_another_arity(capsys, tmp_path, no_sampling,
                                                          flag):
    system = _write(tmp_path, "ic.json", {"sub1": SUB, "sub2": SUB})
    good = _write(tmp_path, "good.json", _poly(2))
    bad = _write(tmp_path, "bad.json", _poly(3))
    barriers = {"--barrier1": good, "--barrier2": good, flag: bad}
    code, out, err = run(capsys, "compose", "--system", system,
                         *(item for pair in barriers.items() for item in pair),
                         "--delta", "0.1", "--resolution", "0.1")
    assert (code, out) == (3, "")
    assert err == (f"error: {flag} {bad}: the candidate has 3 variables, "
                   f"expected 2 (x, then x_hat)\n")


def test_compose_names_the_first_flag_when_both_name_one_file(capsys, tmp_path,
                                                             no_sampling):
    system = _write(tmp_path, "ic.json", {"sub1": SUB, "sub2": SUB})
    bad = _write(tmp_path, "bad.json", _poly(3))
    code, out, err = run(capsys, "compose", "--system", system, "--barrier1", bad,
                         "--barrier2", bad, "--delta", "0.1", "--resolution", "0.1")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: --barrier1 {bad}: ")

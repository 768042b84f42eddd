"""The n-bit subset engine against the paper's constructions and the
brute-force oracle, on one seeded corpus of small random systems."""

import ast
import json
import random
from pathlib import Path

import pytest

import opacue

from opacue.abstraction import build_abstraction
from opacue.api import verify_opacity
from opacue.brute import brute_force_opacity, confirm_witness
from opacue.control import QuantizationParams, parse_control_system
from opacue.delayed import product_opacity, verify_delayed_opacity
from opacue.errors import ResourceError
from opacue.observer import build_observer, observer_verdict, verify_state_opacity
from opacue.search import Step, search
from opacue.system import MetricSystem, OpacityNotion

from .conftest import linear_plant, random_system

DELTAS = (0.0, 0.1, 0.5)
STATE_NOTIONS = (OpacityNotion.initial_state(), OpacityNotion.current_state())
DELAYED_NOTIONS = (OpacityNotion.k_step(0), OpacityNotion.k_step(1),
                   OpacityNotion.k_step(2), OpacityNotion.infinite_step())


def corpus():
    rng = random.Random(20261018)
    return [random_system(rng, max_states=6) for _ in range(500)]


def test_state_notions_engine_observer_and_oracle_agree():
    failures = 0
    for sys_ in corpus():
        for delta in DELTAS:
            for notion in STATE_NOTIONS:
                engine = verify_state_opacity(sys_, delta, notion)
                paper = observer_verdict(build_observer(sys_, delta), notion)
                oracle = brute_force_opacity(sys_, delta, notion)
                assert engine.opaque == paper.opaque == oracle.opaque
                assert engine.witness == paper.witness
                if not engine.opaque:
                    failures += 1
                    assert confirm_witness(sys_, delta, notion, engine.witness)
                    # both are breadth-first, so both are shortest
                    assert len(engine.witness.states) == len(oracle.witness.states)
    assert failures > 500


def test_delayed_notions_engine_product_and_oracle_agree():
    failures = 0
    for sys_ in corpus():
        for delta in DELTAS:
            for notion in DELAYED_NOTIONS:
                engine = verify_delayed_opacity(sys_, delta, notion)
                paper = product_opacity(sys_, delta, notion)
                oracle = brute_force_opacity(sys_, delta, notion)
                assert engine.opaque == paper.opaque == oracle.opaque
                if engine.opaque:
                    continue
                failures += 1
                w = engine.witness
                assert confirm_witness(sys_, delta, notion, w)
                if notion.k is not None:
                    assert len(w.states) - 1 - w.revealing_instant <= notion.k
    assert failures > 1000


def test_cap_is_exceeded_exactly_when_one_more_class_is_needed():
    for sys_ in corpus()[:200]:
        for delta in DELTAS:
            for notion in STATE_NOTIONS + DELAYED_NOTIONS:
                verdict = verify_opacity(sys_, delta, notion)
                need = verdict.stats["classes"]
                assert verify_opacity(sys_, delta, notion, cap=need) == verdict
                if need:
                    with pytest.raises(ResourceError):
                        verify_opacity(sys_, delta, notion, cap=need - 1)


def test_search_stops_at_the_first_revealing_class_and_honours_depth():
    # a ring 0 -> 1 -> 2 -> 3 -> 0 under one input, every output equal
    ring = MetricSystem(
        names=("a", "b", "c", "d"), inputs=("u",),
        outputs=((0.0,),) * 4, initial=(0,), secret=(),
        transitions=((0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 0)),
    )
    close = [0b1111] * 4
    at_c = search(Step(ring, close), [(0, 0b1)], lambda x, bits: x == 2, cap=10)
    assert at_c.classes == [(0, 0b1), (1, 0b10), (2, 0b100)]
    assert at_c.hit == 2
    assert at_c.path(2) == ((0, 1, 2), (0, 0))
    assert at_c.root(2) == 0

    shallow = search(Step(ring, close), [(0, 0b1)], lambda x, bits: x == 2, cap=10,
                     max_depth=1)
    assert shallow.hit is None and len(shallow.classes) == 2

    with pytest.raises(ResourceError):
        search(Step(ring, close), [(0, 0b1)], lambda x, bits: False, cap=4, spent=1)


def test_3d_plant_abstraction_class_counts():
    # 1,331 lattice states and 8 inputs; at delta = 0.3 many classes on
    # different states carry one set and most successors are reached
    # under several inputs
    eta = 0.1
    cs = parse_control_system(json.dumps(linear_plant(3, 0.3, 0.2, (0.4, 0.7))))
    epsilon = 1.25 * (eta + 0.2857 * eta) / 0.7
    abstraction = build_abstraction(cs, QuantizationParams(eta, eta, epsilon))
    assert abstraction.certified
    sys_ = abstraction.system
    assert (sys_.n_states, len(sys_.inputs)) == (1331, 8)
    classes = []
    for notion in (OpacityNotion.initial_state(), OpacityNotion.current_state(),
                   OpacityNotion.k_step(2)):
        verdict = verify_opacity(sys_, 0.3, notion)
        assert verdict.opaque
        classes.append(verdict.stats["classes"])
    assert classes == [1784, 3637, 5586]


def _package_imports(module: str) -> set[str]:
    """Modules of the package that `module` imports, directly or not."""
    src = Path(opacue.__file__).parent
    seen, todo = set(), [module]
    while todo:
        tree = ast.parse((src / f"{todo.pop()}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                todo += [name for name in names if name not in seen]
                seen.update(names)
    return seen


def test_engine_and_oracle_kernel_do_not_import_each_other():
    assert "brute" not in _package_imports("search")
    assert "search" not in _package_imports("brute")
    # the record both kernels return holds no decision code
    assert _package_imports("verdict") <= {"system", "errors"}

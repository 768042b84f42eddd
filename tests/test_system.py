"""System core: successor and predecessor tables, delta-closeness, parsing, canonical round-trips."""

import gc
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opacue.brute import confirm_witness
from opacue.errors import (
    DimensionError,
    ParseError,
    ValidationError,
)
from opacue.system import (
    MetricSystem,
    OpacityNotion,
    close_rows,
    delta_close,
    iter_bits,
    parse_system,
    serialize_system,
)
from opacue.simrel import check_relation
from opacue.verdict import Witness

from .conftest import STORED_FIELDS, random_system, relation


def tiny(transitions, n=3, inputs=("a", "b")):
    return MetricSystem(
        names=tuple(f"s{i}" for i in range(n)),
        inputs=inputs,
        outputs=tuple((float(i),) for i in range(n)),
        initial=(0,),
        secret=(1,),
        transitions=tuple(transitions),
    )


# -- successor and predecessor tables ----------------------------------------

def test_post_empty_set_is_empty():
    sys_ = tiny([])
    assert sys_.post_bits == sys_.pre_bits == ((0, 0, 0), (0, 0, 0))
    assert sys_.succ_any == sys_.pred_any == (0, 0, 0)


def test_post_gridworld_cell8_south(gridworld):
    c8 = gridworld.index["c8"]
    c14 = gridworld.index["c14"]
    assert gridworld.post_bits[gridworld.input_index["S"]][c8] == 1 << c14


def test_pre_gridworld_cell8_south_contains_2(gridworld):
    c8 = gridworld.index["c8"]
    c2 = gridworld.index["c2"]
    assert gridworld.pre_bits[gridworld.input_index["S"]][c8] >> c2 & 1


def test_post_matches_transition_scan_oracle():
    """Every table derived from the rows, the decoded triples too, against
    a naive scan of the triples the system was built from, given in
    shuffled order."""
    rng = random.Random(101)
    for _ in range(100):
        n, m = rng.randint(1, 5), rng.randint(1, 3)
        edges = sorted({(rng.randrange(n), rng.randrange(m), rng.randrange(n))
                        for _ in range(rng.randint(0, 2 * n * m))})
        rng.shuffle(edges)
        sys_ = MetricSystem(tuple(f"s{i}" for i in range(n)), tuple(f"u{j}" for j in range(m)),
                            tuple((float(i),) for i in range(n)), (0,), (), tuple(edges))
        assert sys_.transitions == tuple(sorted(edges))
        assert sys_.n_transitions == len(edges)
        for x in range(sys_.n_states):
            for u in range(len(sys_.inputs)):
                assert set(iter_bits(sys_.post_bits[u][x])) == {
                    d for s, v, d in edges if s == x and v == u}
                assert set(iter_bits(sys_.pre_bits[u][x])) == {
                    s for s, v, d in edges if d == x and v == u}
            assert set(iter_bits(sys_.succ_any[x])) == {d for s, _, d in edges if s == x}
            assert set(iter_bits(sys_.pred_any[x])) == {s for s, _, d in edges if d == x}


def test_pre_of_post_covers_sources_with_successor():
    rng = random.Random(102)
    for _ in range(100):
        sys_ = random_system(rng)
        for post, pre in zip(sys_.post_bits, sys_.pre_bits):
            for x in range(sys_.n_states):
                for y in iter_bits(post[x]):
                    assert pre[y] >> x & 1
                    assert sys_.succ_any[x] >> y & 1 and sys_.pred_any[y] >> x & 1


def test_iter_bits_yields_members_in_ascending_order():
    rng = random.Random(17)
    for width in (1, 8, 33, 64, 65, 500, 5000):
        for members in (0, 1, width // 2, width):
            bits = sum(1 << i for i in rng.sample(range(width), members))
            want = [i for i in range(width) if (bits >> i) & 1]
            assert list(iter_bits(bits)) == want


# -- delta_close -------------------------------------------------------------

def test_delta_close_identical_at_zero():
    assert delta_close((0.3, 0.7), (0.3, 0.7), 0.0)


def test_delta_close_scalar_examples():
    assert delta_close((0.30,), (0.25,), 0.1)
    assert not delta_close((0.30,), (0.25,), 0.04)


def test_delta_close_dimension_mismatch():
    with pytest.raises(DimensionError):
        delta_close((0.0,), (0.0, 1.0), 0.5)


def test_delta_close_matches_componentwise_loop():
    rng = random.Random(103)
    for _ in range(200):
        k = rng.randint(1, 4)
        y = tuple(rng.uniform(-2, 2) for _ in range(k))
        y2 = tuple(rng.uniform(-2, 2) for _ in range(k))
        delta = rng.uniform(0, 2)
        worst = 0.0
        for a, b in zip(y, y2):
            worst = max(worst, abs(a - b))
        assert delta_close(y, y2, delta) == (worst <= delta)


vectors = st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_metric_axioms(data):
    # the infinity norm's axioms, through the closeness predicate
    y = data.draw(vectors)
    y2 = data.draw(st.lists(st.floats(-100, 100), min_size=len(y), max_size=len(y)))
    y3 = data.draw(st.lists(st.floats(-100, 100), min_size=len(y), max_size=len(y)))
    d12 = max(abs(a - b) for a, b in zip(y, y2))
    d23 = max(abs(a - b) for a, b in zip(y2, y3))
    assert delta_close(y, y, 0.0)
    assert delta_close(y, y2, d12) and delta_close(y2, y, d12)
    assert delta_close(y, y3, d12 + d23 + 1e-9)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_delta_close_monotone_in_delta(data):
    y = data.draw(vectors)
    y2 = data.draw(st.lists(st.floats(-100, 100), min_size=len(y), max_size=len(y)))
    d1 = data.draw(st.floats(0, 10))
    d2 = data.draw(st.floats(0, 10))
    lo, hi = min(d1, d2), max(d1, d2)
    if delta_close(y, y2, lo):
        assert delta_close(y, y2, hi)


# -- close_rows ----------------------------------------------------------------

CLOSE_THRESHOLDS = (0.0, 1e-300, 0.1 + 0.2, 1 / 3, 1e300, 0.25, 0.5)
CLOSE_SPECIALS = (0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 0.1, 0.3, 1 / 3)


def _pairwise_rows(rows, cols, threshold):
    return [sum(1 << j for j, y2 in enumerate(cols) if delta_close(y, y2, threshold))
            for y in rows]


def _close_value(rng, threshold):
    pick = rng.random()
    if pick < 0.25:
        return rng.choice(CLOSE_SPECIALS)
    if pick < 0.5:  # eighths: many distances hit a dyadic threshold exactly
        return rng.randrange(-8, 9) / 8
    if pick < 0.75:  # exactly one threshold away from a tenth, up to rounding
        return rng.randrange(-10, 11) / 10 + rng.choice((-1, 1)) * threshold
    return rng.uniform(-1, 1)


def test_close_rows_matches_the_pairwise_loop():
    rng = random.Random(131)
    for _ in range(1500):
        dim = rng.randint(1, 3)
        threshold = rng.choice(CLOSE_THRESHOLDS)
        rows = [tuple(_close_value(rng, threshold) for _ in range(dim))
                for _ in range(rng.randint(1, 10))]
        # rectangular: the columns come from a different set of outputs,
        # some shared with the rows
        cols = [tuple(_close_value(rng, threshold) for _ in range(dim))
                for _ in range(rng.randint(1, 14))]
        cols += rng.sample(rows, rng.randint(0, len(rows)))
        rng.shuffle(cols)
        assert close_rows(rows, cols, threshold) == _pairwise_rows(rows, cols, threshold)


def test_close_rows_on_a_system_equals_close_bits(gridworld):
    for delta in (0.0, 0.5, 1.0, 2.5):
        assert close_rows(gridworld.outputs, gridworld.outputs, delta) == [
            gridworld.close_bits(x, delta) for x in range(gridworld.n_states)
        ]


def test_close_rows_signed_zeros_and_extremes():
    rows = [(0.0,), (-0.0,), (1e300,), (-1e300,)]
    cols = [(-0.0,), (0.0,), (-1e300,), (1e300,), (5e-324,)]
    for threshold in (0.0, 5e-324, 1e300, 2e300):
        assert close_rows(rows, cols, threshold) == _pairwise_rows(rows, cols, threshold)
    assert close_rows(rows, cols, 0.0) == [0b00011, 0b00011, 0b01000, 0b00100]


def test_close_rows_reads_non_finite_rows_as_empty():
    # a NaN row value left in the sweep would break the sorted order of
    # every other row value of its coordinate
    inf, nan = float("inf"), float("nan")
    rows = [(nan, 0.5), (0.25, 0.5), (inf, 0.5), (0.5, nan), (-inf, -inf),
            (0.75, 0.0), (nan, nan), (0.25, 0.5), (0.0, 0.25)]
    cols = [(x / 4, y / 4) for x in range(5) for y in range(3)]
    for threshold in (0.0, 0.25, 0.5, 1e300):
        got = close_rows(rows, cols, threshold)
        assert got == _pairwise_rows(rows, cols, threshold)
        assert [got[i] for i in (0, 2, 3, 4, 6)] == [0] * 5
        assert all(got[i] for i in (1, 5, 7, 8))


def test_close_rows_sweeps_many_rows_with_ties_at_the_threshold():
    rng = random.Random(47)
    for threshold in (0.0, 0.125, 0.1, 1 / 3, 0.75):
        # many rows per column value, duplicated, and as many exactly one
        # threshold above and below a column as rounding allows
        cols = [(rng.randrange(-8, 9) / 8,) for _ in range(12)]
        cols += [(0.0,), (-0.0,), (0.0,)]
        rows = [(0.0,), (-0.0,)] * 3
        for _ in range(60):
            (v,) = rng.choice(cols)
            rows.append((rng.choice((v, v + threshold, v - threshold,
                                     rng.randrange(-16, 17) / 16)),))
        rng.shuffle(rows)
        assert close_rows(rows, cols, threshold) == _pairwise_rows(rows, cols, threshold)


@pytest.mark.parametrize("threshold", [float("nan"), -0.1, float("inf")])
def test_close_rows_rejects_bad_thresholds(threshold):
    with pytest.raises(ValidationError):
        close_rows([(0.0,)], [(0.0,)], threshold)


@pytest.mark.parametrize("rows,cols", [
    ([(0.0,)], [(0.0, 1.0)]),
    ([(0.0, 1.0)], [(0.0, 1.0), (0.0,)]),
    ([(0.0,), (0.0, 1.0)], [(0.0,)]),
])
def test_close_rows_rejects_mismatched_arity(rows, cols):
    with pytest.raises(DimensionError):
        close_rows(rows, cols, 0.5)


# -- parsing / serialization -------------------------------------------------

def test_parse_gridworld_counts(gridworld):
    assert gridworld.n_states == 18
    assert len(gridworld.inputs) == 4
    assert len(gridworld.initial) == 4
    assert len(gridworld.secret) == 2


def test_parse_rejects_empty_states():
    doc = {"states": [], "inputs": [], "initial": [], "secret": [], "transitions": []}
    with pytest.raises(ValidationError):
        parse_system(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError) as exc:
        parse_system("{not json")
    assert "line" in str(exc.value)


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_restores_the_collector_state(gridworld, enabled):
    # parsing pauses cyclic garbage collection and leaves it as it found it
    text = serialize_system(gridworld)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert parse_system(text) == gridworld and gc.isenabled() is enabled
        with pytest.raises(ParseError):
            parse_system("{not json")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_parse_rejects_dangling_state():
    doc = {
        "states": [{"name": "a", "output": [0.0]}],
        "inputs": ["u"],
        "initial": ["a"],
        "secret": [],
        "transitions": [["a", "u", "ghost"]],
    }
    with pytest.raises(ValidationError):
        parse_system(json.dumps(doc))


def test_parse_rejects_wrong_output_arity():
    doc = {
        "states": [{"name": "a", "output": [0.0]},
                   {"name": "b", "output": [0.0, 1.0]}],
        "inputs": ["u"],
        "initial": ["a"],
        "secret": [],
        "transitions": [],
    }
    with pytest.raises(ValidationError):
        parse_system(json.dumps(doc))


def test_parse_rejects_non_finite_outputs():
    for value in ("NaN", "Infinity", "-Infinity"):
        text = ('{"states": [{"name": "a", "output": [0.0, %s]}], "inputs": ["u"], '
                '"initial": ["a"], "secret": [], "transitions": []}' % value)
        with pytest.raises(ValidationError, match="not finite"):
            parse_system(text)


def test_constructor_rejects_duplicate_state_names():
    # the parser refuses a document with duplicate names before the
    # constructor sees it, so only a direct call reaches this check
    with pytest.raises(ValidationError, match="^duplicate state names$"):
        MetricSystem(("a", "a"), ("u",), ((0.0,), (1.0,)), (0,), (), ())


def test_parse_rejects_duplicate_transitions():
    doc = {
        "states": [{"name": "a", "output": [0.0]}],
        "inputs": ["u"],
        "initial": [],
        "secret": [],
        "transitions": [["a", "u", "a"], ["a", "u", "a"]],
    }
    with pytest.raises(ValidationError):
        parse_system(json.dumps(doc))


def test_empty_initial_set_is_legal():
    doc = {
        "states": [{"name": "a", "output": [0.0]}],
        "inputs": ["u"],
        "initial": [],
        "secret": ["a"],
        "transitions": [],
    }
    sys_ = parse_system(json.dumps(doc))
    assert sys_.initial == ()


def test_roundtrip_is_identity_on_canonical_documents():
    rng = random.Random(104)
    for _ in range(50):
        sys_ = random_system(rng)
        text = serialize_system(sys_)
        again = parse_system(text)
        assert again == sys_
        assert serialize_system(again) == text


def test_serialization_canonicalizes_order():
    doc = {
        "states": [{"name": "a", "output": [0.0]}, {"name": "b", "output": [1.0]}],
        "inputs": ["u", "v"],
        "initial": ["b", "a"],
        "secret": ["b"],
        "transitions": [["b", "u", "a"], ["a", "u", "b"], ["a", "u", "a"]],
    }
    text = serialize_system(parse_system(json.dumps(doc)))
    parsed = json.loads(text)
    assert parsed["initial"] == ["a", "b"]
    assert parsed["transitions"] == [
        ["a", "u", "a"], ["a", "u", "b"], ["b", "u", "a"]
    ]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_pairwise_closeness_checks_reject_bad_thresholds(bad):
    sys_ = tiny([(0, 0, 1)])
    with pytest.raises(ValidationError):
        sys_.close_bits(0, bad)
    with pytest.raises(ValidationError):  # even for a witness that is no path
        confirm_witness(sys_, bad, OpacityNotion.current_state(), Witness((0, 2), (0,)))
    for pairs in (((0, 0), (1, 1)), ()):
        with pytest.raises(ValidationError):
            check_relation(sys_, sys_, relation(sys_.n_states, pairs, bad))


# -- paths and notion types --------------------------------------------------

def test_path_validates_against_system():
    # a path is a Witness; `confirm_witness` checks its shape and its steps
    sys_ = tiny([(0, 0, 1), (1, 1, 2)])
    notion = OpacityNotion.current_state()
    assert confirm_witness(sys_, 0.0, notion, Witness((0, 1), (0,)))
    assert not confirm_witness(sys_, 0.0, notion, Witness((0, 2), (0,)))
    for states, inputs in (((), ()), ((0, 1), ())):
        with pytest.raises(ValidationError):
            confirm_witness(sys_, 0.0, notion, Witness(states, inputs))


def test_notion_validation():
    with pytest.raises(ValidationError):
        OpacityNotion.k_step(-1)
    with pytest.raises(ValidationError):
        OpacityNotion(OpacityNotion.initial_state().kind, k=2)
    assert OpacityNotion.k_step(3).label() == "k-step(k=3)"


def test_metric_system_rejects_bad_indices():
    with pytest.raises(ValidationError):
        tiny([(0, 0, 9)])
    with pytest.raises(ValidationError):
        tiny([(0, 5, 1)])
    with pytest.raises(ValidationError):
        MetricSystem(("a",), ("u",), ((0.0,),), (4,), (), ())


def _rows_twin(sys: MetricSystem) -> MetricSystem:
    return MetricSystem.from_rows(sys.names, sys.inputs, sys.outputs, sys.initial,
                                  sys.secret, sys.post_bits)


def test_a_system_built_from_rows_equals_its_triple_built_twin():
    """Every derived table of a row-built system is its triple-built twin's,
    bit for bit and in the same order, whatever the order of the triples,
    and the twins are equal. Both store the rows alone; a repeated triple
    is refused."""
    rng, order = random.Random(2901), random.Random(2903)
    for _ in range(300):
        triples = random_system(rng, max_states=12, max_inputs=4)
        rows = _rows_twin(triples)
        edges = list(triples.transitions)
        order.shuffle(edges)
        fields = (triples.names, triples.inputs, triples.outputs, triples.initial,
                  triples.secret)
        shuffled = MetricSystem(*fields, tuple(edges))
        assert set(vars(rows)) == set(vars(shuffled)) == STORED_FIELDS
        for table in ("post_bits", "pre_bits", "succ_any", "pred_any", "transitions"):
            want = getattr(triples, table)
            assert getattr(rows, table) == want and getattr(shuffled, table) == want, table
        assert rows == triples == shuffled and hash(rows) == hash(triples) == hash(shuffled)
        assert rows.n_transitions == len(triples.transitions)
        assert serialize_system(rows) == serialize_system(triples) == serialize_system(shuffled)
        if edges:
            edges.insert(order.randrange(len(edges) + 1), order.choice(edges))
            with pytest.raises(ValidationError, match="^duplicate transitions$"):
                MetricSystem(*fields, tuple(edges))


@pytest.mark.parametrize("post_bits, message", [
    (((0b1, 0b10, 0b100),), "successor rows: 1 rows for 2 inputs"),
    (((1, 2, 4), (1, 2, 4), (1, 2, 4)), "successor rows: 3 rows for 2 inputs"),
    (((1, 2, 4), (1, 2)), "successor row 1: 2 bitsets for 3 states"),
    (((1, 2, 4), (1, 0b1000, 4)), r"successor row 1: the bitset of state 's1' is not in \[0, 2\*\*3\)"),
    (((1, 2, 4), (1, 2, 0b111)), None),  # every bit below n: accepted
    (((1, 2, -1), (1, 2, 4)), r"successor row 0: the bitset of state 's2' is not in \[0, 2\*\*3\)"),
], ids=["too-few-rows", "too-many-rows", "short-row", "bit-past-n", "all-bits", "negative"])
def test_the_row_constructor_refuses_rows_of_the_wrong_shape_or_range(post_bits, message):
    base = tiny([])
    build = lambda: MetricSystem.from_rows(base.names, base.inputs, base.outputs,
                                           base.initial, base.secret, post_bits)
    if message is None:
        assert build().post_bits == post_bits
        return
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("transitions, offender", [
    (((0, 0, 1.0),), "(0, 0, 1.0)"),
    (((0, 0, 1), (1.0, 1, 2)), "(1.0, 1, 2)"),
    (((0, 1.0, 1),), "(0, 1.0, 1)"),
    # the float target equals an int target seen before it
    (((0, 0, 1), (2, 0, 2), (1, 1, 1.0)), "(1, 1, 1.0)"),
    (((0, 0, 1), (1, 0, "2")), "(1, 0, '2')"),
], ids=["float-target", "float-source", "float-input", "float-after-its-int", "str"])
def test_the_constructor_refuses_an_index_that_is_not_an_int(transitions, offender):
    with pytest.raises(ValidationError, match=f"^transition {re.escape(offender)} is not "
                                              "three integer indices$"):
        tiny(transitions)


def test_the_constructors_refuse_a_float_or_bool_state_set_or_bitset():
    fields = (("s0", "s1"), ("u",), ((0.0,), (1.0,)))
    for initial, secret, message in (((0.0,), (), "initial state index 0.0"),
                                     ((0,), (1.0,), "secret state index 1.0"),
                                     ((True,), (), "initial state index True"),
                                     ((0,), (False,), "secret state index False")):
        for build in (lambda: MetricSystem(*fields, initial, secret, ()),
                      lambda: MetricSystem.from_rows(*fields, initial, secret, ((0, 0),))):
            with pytest.raises(ValidationError, match=f"^{message} is not an integer$"):
                build()
    for bits in ((1.0, 2), (True, 2)):
        with pytest.raises(ValidationError, match=f"^successor row 0: the bitset of state "
                                                  f"'s0' is {bits[0]}, not an int$"):
            MetricSystem.from_rows(*fields, (0,), (), (bits,))
    # a bool is an int, but no file names a state or a target set by one:
    # True used to be state 1 as an index and state 0 as a bitset
    for triple in ((0, 0, True), (True, False, 0)):
        message = f"transition {triple!r} is not three integer indices"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            MetricSystem(*fields, (0,), (), ((1, 0, 1), triple))


def test_systems_are_frozen():
    for sys in (tiny([(0, 0, 1)]), _rows_twin(tiny([(0, 0, 1)]))):
        with pytest.raises(AttributeError):
            sys.names = ("x",)
        with pytest.raises(AttributeError):
            del sys.secret

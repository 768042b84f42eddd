"""Byte-exact system and relation I/O.

`serialize_system` must write exactly `json.dumps(doc, indent=2) + "\\n"` of
the documented schema, and `opacue simrel` must print exactly
`json.dumps(report, indent=2, sort_keys=True)` of `SimReport.to_report`
(plus the transfer verdict under `--delta`). Both are checked here against
that reference on names and labels with quotes, backslashes, control
characters, non-ASCII text and lone surrogates.

Every error branch of `parse_system` and `MetricSystem` has one malformed
document in `MALFORMED`, pinned to its exception class and exact message
in `parse_errors.json`. Regenerate that file with
`python -m tests.test_canonical_io` (only when a message is meant to change).
Beyond one case per branch, `parse_system` must answer as an item-by-item
reference route does on seeded documents broken at the JSON level, in one
or several ways, which pins which error a document names first.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from opacue.cli import main
from opacue.errors import ParseError, ValidationError
from opacue.simrel import max_initsop_relation, opacity_via_abstraction
from opacue.system import MetricSystem, parse_system, serialize_system

EXPECTED = Path(__file__).resolve().parent / "parse_errors.json"

ALPHABET = ['a', 'b', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f', ' ',
            'é', 'ß', '中', ' ', '\ud800', '\udfff', '\U0001f600', ':', ',']
NUMBERS = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3, -2.5, 1e16,
           3, -7, 0, 2 ** 60]


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))


def _distinct(rng: random.Random, count: int) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    while len(seen) < count:
        seen.setdefault(_text(rng))
    return tuple(seen)


def nasty_system(rng: random.Random, dim: int = 0) -> MetricSystem:
    """A random system whose names, labels and outputs stress the encoder;
    any of inputs, initial, secret and transitions may be empty. The output
    dimension is `dim`, or random when 0."""
    n = rng.randint(1, 6)
    m = rng.randint(0, 3)
    dim = dim or rng.randint(1, 3)
    edges = set()
    if m:
        for _ in range(rng.randint(0, 2 * n * m)):
            edges.add((rng.randrange(n), rng.randrange(m), rng.randrange(n)))
    return MetricSystem(
        names=_distinct(rng, n),
        inputs=_distinct(rng, m),
        outputs=tuple(tuple(rng.choice(NUMBERS) for _ in range(dim)) for _ in range(n)),
        initial=tuple(sorted(rng.sample(range(n), rng.randint(0, n)))),
        secret=tuple(sorted(rng.sample(range(n), rng.randint(0, n)))),
        transitions=tuple(sorted(edges)),
    )


def reference_document(sys_: MetricSystem) -> str:
    """The canonical document, rendered by `json` itself."""
    doc = {
        "states": [{"name": name, "output": list(out)}
                   for name, out in zip(sys_.names, sys_.outputs)],
        "inputs": list(sys_.inputs),
        "initial": [sys_.names[i] for i in sorted(sys_.initial)],
        "secret": [sys_.names[i] for i in sorted(sys_.secret)],
        "transitions": [[sys_.names[s], sys_.inputs[u], sys_.names[d]]
                        for s, u, d in sorted(sys_.transitions)],
    }
    return json.dumps(doc, indent=2) + "\n"


def test_writer_matches_json_dumps_on_random_systems():
    rng = random.Random(8801)
    for _ in range(400):
        sys_ = nasty_system(rng)
        assert serialize_system(sys_) == reference_document(sys_)


def test_writer_matches_json_dumps_on_empty_lists():
    sys_ = MetricSystem(("only",), (), ((-0.0, 5e-324),), (), (), ())
    text = serialize_system(sys_)
    assert text == reference_document(sys_)
    assert '"inputs": []' in text and '"transitions": []' in text


def test_writer_matches_json_dumps_on_values_of_other_types():
    # Names and labels are exactly str and outputs exactly float or int, as
    # a parsed file's are: an int output json writes its own way stays
    # legal, and every other type is refused by both constructors.
    sys_ = MetricSystem(
        names=("a", "b", "c", "s"),
        inputs=("u", "v"),
        outputs=((2 ** 70,), (0.1,), (-7,), (-0.0,)),
        initial=(1, 0),
        secret=(1,),
        transitions=((0, 1, 1), (1, 0, 1), (3, 1, 2)),
    )
    assert serialize_system(sys_) == reference_document(sys_)
    assert parse_system(serialize_system(sys_)) == sys_
    for names, inputs, outputs in ((("a", 1, None, "s"), ("u", "v"), sys_.outputs),
                                   (sys_.names, (True, ("u", 0.5)), sys_.outputs),
                                   (sys_.names, sys_.inputs, ((True,), (np.float64(0.1),),
                                                             (2 ** 70,), (-0.0,)))):
        for build in _CONSTRUCTORS:
            with pytest.raises(ValidationError):
                build(names, inputs, outputs, sys_.initial, sys_.secret, sys_.transitions)


def _by_rows(names, inputs, outputs, initial, secret, transitions) -> MetricSystem:
    """`MetricSystem.from_rows` of the rows the index triples make, one
    bitset per output (names may be refused for not being a sequence)."""
    rows = [[0] * len(outputs) for _ in inputs]
    for src, u, dst in transitions:
        rows[u][src] |= 1 << dst
    return MetricSystem.from_rows(names, inputs, outputs, initial, secret, rows)


_CONSTRUCTORS = (MetricSystem, _by_rows)

# field -> (value, the message it is refused with); each replaces one field
# of the two-state system in `test_both_constructors_refuse_what_no_file_holds`
REFUSED = {
    "int name": ("names", ("a", 7), "state name 7 is not a string"),
    "list name": ("names", (["a"], "b"), "state name ['a'] is not a string"),
    "int label": ("inputs", (7,), "input label 7 is not a string"),
    "bool label": ("inputs", (True,), "input label True is not a string"),
    "none label": ("inputs", (None,), "input label None is not a string"),
    "bool output": ("outputs", ((0.0,), (True,)),
                    "state 'b': output: expected a number, got True"),
    "str output": ("outputs", ((0.0,), ("1",)), "state 'b': output: expected a number, got '1'"),
    "none output": ("outputs", ((None,), (1.0,)),
                    "state 'a': output: expected a number, got None"),
    "numpy output": ("outputs", ((0.0,), (np.float64(0.5),)),
                     f"state 'b': output: expected a number, got {np.float64(0.5)!r}"),
    "output past float range": ("outputs", ((0.0,), (10 ** 400,)),
                                "state 'b': output: int too large to convert to float"),
    # a file reads an int output back as its float: it must be that int
    "output no float holds": ("outputs", ((0.0,), (2 ** 53 + 1,)),
                              "state 'b': output 9007199254740993 reads back as "
                              "9007199254740992.0"),
    "output not a sequence": ("outputs", (1.0, 2.0), "state 'a': output 1.0 is not a sequence"),
    "names not a sequence": ("names", 5, "names: 5 is not a sequence"),
    "initial not a sequence": ("initial", None, "initial: None is not a sequence"),
    "bool initial index": ("initial", (True,), "initial state index True is not an integer"),
    "bool secret index": ("secret", (False,), "secret state index False is not an integer"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
@pytest.mark.parametrize("build", _CONSTRUCTORS, ids=["triples", "rows"])
def test_both_constructors_refuse_what_no_file_holds(case, build):
    field, value, message = REFUSED[case]
    fields = {"names": ("a", "b"), "inputs": ("u",), "outputs": ((0.0,), (1.0,)),
              "initial": (0,), "secret": (1,), "transitions": ((0, 0, 1), (1, 0, 0))}
    fields[field] = value
    with pytest.raises(ValidationError) as refused:
        build(**fields)
    assert str(refused.value) == message


def test_every_system_reads_back_from_its_file():
    rng = random.Random(8805)
    for _ in range(400):
        sys_ = nasty_system(rng)
        assert parse_system(serialize_system(sys_)) == sys_


def test_a_system_keeps_its_fields_as_its_file_reads_them_back():
    # json reads the escapes of a surrogate pair back as the one character
    # they encode, arrays back as tuples, and a file lists the initial and
    # secret states once each, in state order
    sys_ = MetricSystem(["\ud800\udfff", "b"], ["\udbff\udc00", "\udfff\ud800"],
                        [[0.0], [1.0]], [1, 0, 1], [1, 1], ())
    assert sys_.names == ("\U000103ff", "b")
    assert sys_.inputs == ("\U0010fc00", "\udfff\ud800")
    assert sys_.outputs == ((0.0,), (1.0,))
    assert (sys_.initial, sys_.secret) == ((0, 1), (1,))
    assert parse_system(serialize_system(sys_)) == sys_
    assert hash(sys_) == hash(parse_system(serialize_system(sys_)))


# -- simrel stdout ----------------------------------------------------------


def _simrel(tmp_path: Path, concrete: MetricSystem, abstract: MetricSystem,
            epsilon: float, delta: float | None = None) -> tuple[int, str, str]:
    """Run `opacue simrel` on the two systems; return (code, stdout, reference)."""
    c_path, a_path = tmp_path / "concrete.json", tmp_path / "abstract.json"
    c_path.write_text(serialize_system(concrete), encoding="utf-8")
    a_path.write_text(serialize_system(abstract), encoding="utf-8")
    argv = ["simrel", "--system", str(c_path), "--abstract", str(a_path),
            "--epsilon", repr(epsilon)]
    if delta is not None:
        argv += ["--delta", repr(delta)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    concrete, abstract = parse_system(c_path.read_text()), parse_system(a_path.read_text())
    report = max_initsop_relation(concrete, abstract, epsilon)
    doc = report.to_report(concrete, abstract)
    if delta is not None:
        doc["abstraction_verdict"] = opacity_via_abstraction(
            concrete, abstract, epsilon, delta).to_report()
    return code, out.getvalue(), json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_simrel_stdout_matches_the_report_on_related_systems(tmp_path):
    rng = random.Random(8803)
    related = 0
    for _ in range(40):
        sys_ = nasty_system(rng)
        for delta in (None, 0.0, 1e300):
            code, out, expected = _simrel(tmp_path, sys_, sys_, 0.0, delta)
            assert out == expected and code in (0, 2)
            related += json.loads(out)["related"]
    assert related == 120  # a system is 0-related to itself


def test_simrel_stdout_matches_the_report_on_random_pairs(tmp_path):
    rng = random.Random(8804)
    seen = set()
    for _ in range(60):
        dim = rng.randint(1, 2)
        concrete, abstract = nasty_system(rng, dim), nasty_system(rng, dim)
        epsilon = rng.choice([0.0, 0.5, 1e300])
        delta = rng.choice([None, 2 * epsilon, 2 * epsilon + 1])
        code, out, expected = _simrel(tmp_path, concrete, abstract, epsilon, delta)
        assert out == expected and code in (0, 1, 2)
        doc = json.loads(out)
        seen.add((doc["related"], "abstraction_verdict" in doc))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_simrel_stdout_matches_the_report_on_an_empty_relation(tmp_path):
    # no concrete initial state, only secret abstract initial states, and
    # no two outputs within epsilon: related, with not a single pair
    concrete = MetricSystem(('"c"',), ("u",), ((0.0,),), (), (), ((0, 0, 0),))
    abstract = MetricSystem(("a\\",), ("u",), ((1.0,),), (0,), (0,), ((0, 0, 0),))
    for delta in (None, 0.5):
        code, out, expected = _simrel(tmp_path, concrete, abstract, 0.25, delta)
        assert out == expected and code in (0, 2)
        assert json.loads(out)["pairs"] == [] and '"pairs": []' in out


# -- malformed documents ----------------------------------------------------


def _doc(**changes) -> dict:
    doc = {
        "states": [{"name": "a", "output": [0.0]}, {"name": "b", "output": [1.0]}],
        "inputs": ["u", "v"],
        "initial": ["a"],
        "secret": ["b"],
        "transitions": [["a", "u", "b"], ["b", "v", "a"]],
    }
    doc.update(changes)
    return doc


def _state(name, output):
    return {"name": name, "output": output}


# name -> document (a dict is dumped to JSON first; a str or bytes is parsed as is)
MALFORMED = {
    "not utf-8": b'{"states": "\xff"}',
    "not json": '{"states": [',
    "trailing data": '{} []',
    "top level array": [],
    "missing states": {k: v for k, v in _doc().items() if k != "states"},
    "missing transitions": {k: v for k, v in _doc().items() if k != "transitions"},
    "states not array": _doc(states={"a": [0.0]}),
    "inputs not array": _doc(inputs="u"),
    "initial not array": _doc(initial=None),
    "secret not array": _doc(secret="b"),
    "transitions not array": _doc(transitions={}),
    "state not object": _doc(states=[_state("a", [0.0]), ["b", [1.0]]]),
    "state name missing": _doc(states=[_state("a", [0.0]), {"output": [1.0]}]),
    "state name not string": _doc(states=[_state("a", [0.0]), _state(2, [1.0])]),
    "state output missing": _doc(states=[_state("a", [0.0]), {"name": "b"}]),
    "state output not array": _doc(states=[_state("a", [0.0]), _state("b", 1.0)]),
    "output value string": _doc(states=[_state("a", [0.0, "1"]), _state("b", [1.0, 2])]),
    "output value bool": _doc(states=[_state("a", [0.0]), _state("b", [True])]),
    "output value null": _doc(states=[_state("a", [None]), _state("b", ["x"])]),
    "output value past float range": _doc(
        states=[_state("a", [0.0]), _state("b", [1.0, 10 ** 400])]),
    "input not string": _doc(inputs=["u", 5]),
    "duplicate state names": _doc(states=[_state("a", [0.0]), _state("a", [1.0])]),
    "initial not name": _doc(initial=["a", 0]),
    "initial unknown": _doc(initial=["a", "zz"]),
    "secret not name": _doc(secret=[["b"]]),
    "secret unknown": _doc(secret=["c"]),
    "transition not array": _doc(transitions=[["a", "u", "b"], "avb"]),
    "transition too short": _doc(transitions=[["a", "u"]]),
    "transition too long": _doc(transitions=[["a", "u", "b", "c"]]),
    "transition source not name": _doc(transitions=[["a", "u", "b"], [0, "u", "b"]]),
    "transition target not name": _doc(transitions=[["a", "u", None]]),
    "transition input not label": _doc(transitions=[["a", 1, "b"]]),
    "transition unknown source": _doc(transitions=[["a", "u", "b"], ["x", "u", "b"]]),
    "transition unknown target": _doc(transitions=[["a", "u", "y"]]),
    "transition unknown input": _doc(transitions=[["a", "w", "b"]]),
    "duplicate transitions": _doc(transitions=[["a", "u", "b"], ["b", "v", "a"],
                                               ["a", "u", "b"]]),
    "no states": _doc(states=[], initial=[], secret=[], transitions=[]),
    "duplicate input labels": _doc(inputs=["u", "v", "u"]),
    "empty output": _doc(states=[_state("a", []), _state("b", [])]),
    "output arity": _doc(states=[_state("a", [0.0]), _state("b", [1.0, 2.0])]),
    "output nan": '{"states": [{"name": "a", "output": [0.0]}, '
                  '{"name": "b", "output": [NaN]}], "inputs": [], "initial": [], '
                  '"secret": [], "transitions": []}',
    "output infinity": _doc(states=[_state("a", [0.0]), _state("b", [-math.inf])]),
    "output past float literal": '{"states": [{"name": "a", "output": [1e400]}], '
                                 '"inputs": [], "initial": [], "secret": [], '
                                 '"transitions": []}',
    # the first failing check wins when a document breaks several
    "arity before finiteness": _doc(states=[_state("a", [0.0, 1.0]), _state("b", [math.nan]),
                                            _state("c", [1.0])]),
    "finiteness before arity": _doc(states=[_state("a", [0.0]), _state("b", [math.inf]),
                                            _state("c", [1.0, 2.0])]),
    "state error before input error": _doc(states=[_state("a", ["x"])], inputs=[1]),
    "names before transitions": _doc(states=[_state("a", [0.0]), _state("a", [1.0])],
                                     transitions=[["q", "u", "a"]]),
    "duplicate transitions before duplicate inputs": _doc(
        inputs=["u", "v", "u"], transitions=[["a", "u", "b"], ["a", "u", "b"]]),
    "shape before lookup": _doc(transitions=[["x", "u", "b"], ["a", "u"]]),
    "lookup order": _doc(transitions=[["x", "w", "y"]]),
}

# Constructor arguments that no document can produce.
BAD_SYSTEMS = {
    "outputs not total": (("a", "b"), ("u",), ((0.0,),), (), (), ()),
    "initial out of range": (("a",), ("u",), ((0.0,),), (0, 1), (), ()),
    "secret out of range": (("a",), ("u",), ((0.0,),), (), (-1,), ()),
    "secret range checked after initial": (("a",), ("u",), ((0.0,),), (2,), (3,), ()),
    "constructor duplicate transitions": (("a",), ("u",), ((0.0,),), (), (),
                                          ((0, 0, 0), (0, 0, 0))),
    "transition source unknown": (("a",), ("u",), ((0.0,),), (), (), ((1, 0, 0),)),
    "transition target unknown": (("a",), ("u",), ((0.0,),), (), (), ((0, 0, -1),)),
    "transition input unknown": (("a",), ("u",), ((0.0,),), (), (), ((0, 1, 0),)),
    "transition index nan": (("a",), ("u",), ((0.0,),), (), (), ((0, 0, math.nan),)),
    "first bad transition": (("a", "b"), ("u",), ((0.0,), (1.0,)), (), (),
                             ((0, 0, 1), (0, 3, 0), (5, 0, 0))),
    "constructor output nan": (("a", "b"), ("u",), ((0.0,), (math.nan,)), (), (), ()),
    "constructor empty": ((), (), (), (), (), ()),
    # a transition that is not a tuple of three ints, named as given
    "constructor transition too short": (("a", "b"), ("u",), ((0.0,), (1.0,)), (0,), (),
                                         ((0, 0),)),
    "constructor transition a list": (("a", "b"), ("u",), ((0.0,), (1.0,)), (0,), (),
                                      ([0, 0, 0],)),
    "constructor transition none": (("a", "b"), ("u",), ((0.0,), (1.0,)), (0,), (),
                                    (None,)),
}


def _outcome(fn, arg) -> list[str]:
    try:
        fn(arg)
    except Exception as exc:  # the class and message are what is pinned
        return [type(exc).__name__, str(exc)]
    return ["accepted", ""]


def outcomes() -> dict:
    found = {}
    for name, doc in MALFORMED.items():
        text = doc if isinstance(doc, (str, bytes)) else json.dumps(doc)
        found[name] = _outcome(parse_system, text)
    for name, args in BAD_SYSTEMS.items():
        found[name] = _outcome(lambda a: MetricSystem(*a), args)
    return found


def test_malformed_documents_fail_with_pinned_messages():
    expected = json.loads(EXPECTED.read_text())
    found = outcomes()
    assert sorted(found) == sorted(expected)
    for name in expected:
        assert found[name] == expected[name], name
    assert not any(kind == "accepted" for kind, _ in found.values())


# -- the parser against the item-by-item route ------------------------------


def reference_parse(text: str) -> MetricSystem:
    """The item-by-item route to a system: check and resolve each state,
    label, name and triple in document order, then build the system with
    the keyword constructor from index triples. Documents here are valid
    JSON objects holding every key, as `mutated_documents` writes them."""
    doc = json.loads(text)
    for key in ("states", "inputs", "initial", "secret", "transitions"):
        if not isinstance(doc[key], list):
            raise ParseError(f"{key}: must be an array")
    names, outputs = [], []
    for i, entry in enumerate(doc["states"]):
        if not isinstance(entry, dict):
            raise ParseError(f"states[{i}]: must be an object")
        if not isinstance(entry.get("name"), str):
            raise ParseError(f"states[{i}]: needs a string 'name'")
        out = entry.get("output")
        if not isinstance(out, list):
            raise ParseError(f"states[{i}]: needs an array 'output'")
        for j, value in enumerate(out):
            if type(value) not in (int, float):
                raise ParseError(f"states[{i}].output[{j}]: must be a number")
        try:
            outputs.append(tuple(map(float, out)))
        except OverflowError:
            raise ParseError(f"states[{i}].output: a number is past float range") from None
        names.append(entry["name"])
    for i, label in enumerate(doc["inputs"]):
        if not isinstance(label, str):
            raise ParseError(f"inputs[{i}]: must be a string")
    if len(set(names)) != len(names):
        raise ValidationError("duplicate state names")
    index = {name: i for i, name in enumerate(names)}
    labels = {label: u for u, label in enumerate(doc["inputs"])}
    sets = {}
    for key in ("initial", "secret"):
        for i, name in enumerate(doc[key]):
            if not isinstance(name, str):
                raise ParseError(f"{key}[{i}]: must be a state name")
            if name not in index:
                raise ValidationError(f"{key}[{i}]: unknown state {name!r}")
        sets[key] = tuple(sorted({index[name] for name in doc[key]}))
    for i, triple in enumerate(doc["transitions"]):
        where = f"transitions[{i}]"
        if not (isinstance(triple, list) and len(triple) == 3):
            raise ParseError(f"{where}: must be a [src, input, dst] triple")
        src, label, dst = triple
        if not (isinstance(src, str) and isinstance(dst, str)):
            raise ParseError(f"{where}: endpoints must be state names")
        if not isinstance(label, str):
            raise ParseError(f"{where}: input must be a label string")
        for what, name, known in (("source state", src, index), ("target state", dst, index),
                                  ("input", label, labels)):
            if name not in known:
                raise ValidationError(f"{where}: unknown {what} {name!r}")
    return MetricSystem(tuple(names), tuple(doc["inputs"]), tuple(outputs), sets["initial"],
                        sets["secret"], tuple((index[s], labels[u], index[d])
                                              for s, u, d in doc["transitions"]))


UNKNOWN = "\x00not a name"  # no `_text` draw: ALPHABET strings are at most 6 long


def _mutate(doc: dict, rng: random.Random) -> str:
    """Break `doc` in one of its ways, in place; return the way's name."""
    states, inputs, triples = doc["states"], doc["inputs"], doc["transitions"]
    lists = [triple for triple in triples if type(triple) is list]
    outs = [state["output"] for state in states if type(state["output"]) is list]
    ways = ["unknown initial", "unknown secret", "non-array output", "non-list triple",
            "string triple"]
    if outs:
        ways.append("bad output")
    if lists:
        ways += ["repeated triple", "unknown source", "unknown input", "unknown target"]
    if inputs:
        ways.append("duplicate input label")
    if len(states) > 1:
        ways.append("duplicate state name")
    way = rng.choice(ways)
    if way == "repeated triple":
        triples.insert(rng.randrange(len(triples) + 1), list(rng.choice(lists)))
    elif way.startswith("unknown "):
        slot = way[len("unknown "):]
        if slot in ("initial", "secret"):
            doc[slot].insert(rng.randrange(len(doc[slot]) + 1), UNKNOWN)
        else:
            rng.choice(lists)[["source", "input", "target"].index(slot)] = UNKNOWN
    elif way == "bad output":
        out = rng.choice(outs)
        out[rng.randrange(len(out))] = rng.choice([True, False, "1", None, 10 ** 400])
    elif way == "non-array output":  # empty ones too, which hold no bad value
        rng.choice(states)["output"] = rng.choice(["", {}, "1", 1.0, None])
    elif way == "non-list triple":
        triples.insert(rng.randrange(len(triples) + 1), rng.choice([None, 7, {"a": 1}, "ab"]))
    elif way == "string triple":
        # three one-character names and labels, where there are any, so that
        # unpacking the string and looking up its characters succeeds
        short = [s["name"] for s in states if len(s["name"]) == 1] or ["a"]
        labels = [label for label in inputs if len(label) == 1] or ["u"]
        text = rng.choice(short) + rng.choice(labels) + rng.choice(short)
        triples.insert(rng.randrange(len(triples) + 1), text)
    elif way == "duplicate input label":
        inputs.insert(rng.randrange(len(inputs) + 1), rng.choice(inputs))
    else:
        i, j = rng.sample(range(len(states)), 2)
        states[i]["name"] = states[j]["name"]
    return way


def mutated_documents(seed: int, count: int):
    """(ways, text) for `count` seeded `nasty_system` documents, each broken
    in none, one or several ways at the JSON level."""
    rng = random.Random(seed)
    for _ in range(count):
        doc = json.loads(serialize_system(nasty_system(rng)))
        ways = [_mutate(doc, rng) for _ in range(rng.choice([0, 1, 1, 1, 2, 3]))]
        yield ways, json.dumps(doc)


def test_the_parser_answers_as_the_item_by_item_route():
    """On valid documents and on documents broken in one or several ways,
    `parse_system` gives the reference route's system, all six fields and
    the sign of every zero, or raises its exception class with its message:
    the first failing check wins, as the reference's order names it."""
    messages, accepted, seen = set(), 0, set()
    for ways, text in mutated_documents(3201, 1500):
        seen.update(ways)
        try:
            want = reference_parse(text)
        except (ParseError, ValidationError) as exc:
            with pytest.raises((ParseError, ValidationError)) as got:
                parse_system(text)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc)), (ways, text)
            messages.add(re.sub(r"\[\d+\]|'.*'|\(.*\)", "", str(exc)))
            continue
        system = parse_system(text)
        assert system == want and repr(system.outputs) == repr(want.outputs), (ways, text)
        accepted += 1
    # every way of breaking a document was drawn, and named by its own message
    assert len(seen) == len(messages) == 12 and accepted >= 200


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(outcomes(), indent=1, sort_keys=True) + "\n")

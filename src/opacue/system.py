"""Finite metric transition systems: states, transitions, outputs, file format.

States are interned to dense integers 0..n-1 and every state set in this
package is carried as a Python int used as a bitset (bit i == state i), so
that the observer construction can hash sets of state pairs cheaply.
"""

from __future__ import annotations

import enum
import gc
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionError, ParseError, ValidationError

__all__ = [
    "MetricSystem",
    "NotionKind",
    "OpacityNotion",
    "delta_close",
    "parse_system",
    "serialize_system",
    "bits_of",
    "check_delta",
    "check_threshold",
    "DEFAULT_MARGIN",
    "close_rows",
    "iter_bits",
    "json_array",
    "json_number",
    "json_texts",
    "read_object",
]


def bits_of(indices: Iterable[int]) -> int:
    """Pack state indices into a bitset."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions of a bitset in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# The strictness margin of a sampled strict inequality (B > margin) when
# none is given: `barrier`, `compositional` and the CLI all default to it.
DEFAULT_MARGIN = 1e-9


def check_threshold(name: str, value: float) -> None:
    """Raise ValidationError unless value is a finite nonnegative number.

    A NaN threshold would make every comparison false and silently empty
    every set it bounds; an infinite one cannot be written as JSON.
    """
    if not 0 <= value < math.inf:
        raise ValidationError(
            f"{name} must be a finite nonnegative number, got {value}"
        )


def check_delta(delta: float) -> None:
    """Raise ValidationError unless delta is a finite nonnegative number."""
    check_threshold("delta", delta)


def delta_close(y: Sequence[float], y2: Sequence[float], delta: float) -> bool:
    """True iff the infinity-norm distance of y and y2, the only output
    metric, is at most delta: an exact <= on the parsed floats, with no
    tolerance, since verdicts depend on the sharp threshold."""
    check_delta(delta)
    if len(y) != len(y2):
        raise DimensionError(f"output dimension mismatch: {len(y)} vs {len(y2)}")
    return all(abs(a - b) <= delta for a, b in zip(y, y2))


def close_rows(
    row_outputs: Sequence[Sequence[float]],
    col_outputs: Sequence[Sequence[float]],
    threshold: float,
) -> list[int]:
    """rows[i] = bitset of the columns j whose output is within `threshold`
    of row i's in the infinity norm: the table `delta_close` gives pair by
    pair, built in O((rows + cols) * log(cols) * dim) float comparisons.

    Per output coordinate the columns are sorted once and prefix bitsets
    of the sorted order are kept. For a row value a, fl(a - v) is monotone
    in v, so the values v with abs(a - v) <= threshold form one window of
    the sorted order; bisection with that exact predicate finds its ends,
    and the row is the AND over coordinates of its windows. No tolerance
    is involved, so every bit equals the pairwise comparison's. Outputs
    must be finite, as `MetricSystem` ensures for its outputs and the
    abstraction builder for its images: a NaN or infinite value matches
    no window, so its row would read as empty.
    """
    check_threshold("threshold", threshold)
    if not row_outputs:
        return []
    dim = len(row_outputs[0])
    for group in (row_outputs, col_outputs):
        for y in group:
            if len(y) != dim:
                raise DimensionError(f"output dimensions differ: {dim} vs {len(y)}")
    rows = [(1 << len(col_outputs)) - 1] * len(row_outputs)
    for k in range(dim):
        order = sorted(range(len(col_outputs)), key=lambda j: col_outputs[j][k])
        values = [col_outputs[j][k] for j in order]
        prefix = [0]
        for j in order:
            prefix.append(prefix[-1] | 1 << j)
        windows: dict[float, int] = {}  # row value -> window bitset
        for i, y in enumerate(row_outputs):
            a = y[k]
            bits = windows.get(a)
            if bits is None:
                lo = bisect_left(values, True, key=lambda v: a - v <= threshold)
                hi = bisect_left(values, True, lo, key=lambda v: a - v < -threshold)
                bits = windows[a] = prefix[hi] ^ prefix[lo]
            rows[i] &= bits
    return rows


class NotionKind(enum.Enum):
    INITIAL_STATE = "initial-state"
    CURRENT_STATE = "current-state"
    K_STEP = "k-step"
    INFINITE_STEP = "infinite-step"


@dataclass(frozen=True)
class OpacityNotion:
    """Which state-based secret the intruder must never pin down."""

    kind: NotionKind
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind is NotionKind.K_STEP:
            if self.k is None or self.k < 0:
                raise ValidationError("k-step notion requires k >= 0")
        elif self.k is not None:
            raise ValidationError(f"{self.kind.value} notion takes no k")

    @classmethod
    def initial_state(cls) -> "OpacityNotion":
        return cls(NotionKind.INITIAL_STATE)

    @classmethod
    def current_state(cls) -> "OpacityNotion":
        return cls(NotionKind.CURRENT_STATE)

    @classmethod
    def k_step(cls, k: int) -> "OpacityNotion":
        return cls(NotionKind.K_STEP, k)

    @classmethod
    def infinite_step(cls) -> "OpacityNotion":
        return cls(NotionKind.INFINITE_STEP)

    def label(self) -> str:
        if self.kind is NotionKind.K_STEP:
            return f"k-step(k={self.k})"
        return self.kind.value


@dataclass(frozen=True)
class MetricSystem:
    """A finite transition system with real-vector outputs and a secret set.

    Immutable after construction; safe to share across concurrent readers.
    """

    names: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[tuple[float, ...], ...]
    initial: tuple[int, ...]
    secret: tuple[int, ...]
    transitions: tuple[tuple[int, int, int], ...]  # (src, input, dst) indices

    def __post_init__(self):
        n = len(self.names)
        if n == 0:
            raise ValidationError("a system must have at least one state")
        if len(set(self.names)) != n:
            raise ValidationError("duplicate state names")
        # before the input labels: a document names duplicate transitions first
        if len(set(self.transitions)) != len(self.transitions):
            raise ValidationError("duplicate transitions")
        if len(set(self.inputs)) != len(self.inputs):
            raise ValidationError("duplicate input labels")
        if len(self.outputs) != n:
            raise ValidationError("outputs must be total on states")
        dim = len(self.outputs[0]) if self.outputs else 0
        if dim < 1:
            raise ValidationError("output dimension must be positive")
        # Each per-item check runs in bulk first; only when one fails is
        # the first offender looked for, one item at a time.
        try:
            outputs_ok = (all(len(y) == dim for y in self.outputs)
                          and all(map(math.isfinite, chain.from_iterable(self.outputs))))
        except TypeError:
            outputs_ok = False
        if not outputs_ok:
            for i, y in enumerate(self.outputs):
                if len(y) != dim:
                    raise ValidationError(
                        f"state {self.names[i]!r}: output arity {len(y)} != {dim}"
                    )
                if not all(math.isfinite(v) for v in y):
                    raise ValidationError(
                        f"state {self.names[i]!r}: output {list(y)} is not finite"
                    )
        for label, group in (("initial", self.initial), ("secret", self.secret)):
            for i in group:
                if not 0 <= i < n:
                    raise ValidationError(f"{label} state index {i} out of range")
        for src, u, dst in self.transitions:
            if not 0 <= src < n or not 0 <= dst < n:
                raise ValidationError(f"transition ({src},{u},{dst}) endpoint unknown")
            if not 0 <= u < len(self.inputs):
                raise ValidationError(f"transition ({src},{u},{dst}) input unknown")

    # -- derived lookups (cached, read-only) --------------------------------

    @property
    def n_states(self) -> int:
        return len(self.names)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def input_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.inputs)}

    @cached_property
    def initial_bits(self) -> int:
        return bits_of(self.initial)

    @cached_property
    def secret_bits(self) -> int:
        return bits_of(self.secret)

    @cached_property
    def post_bits(self) -> tuple[tuple[int, ...], ...]:
        """post_bits[u][x] = bitset of u-successors of x."""
        table = [[0] * self.n_states for _ in self.inputs]
        for src, u, dst in self.transitions:
            table[u][src] |= 1 << dst
        return tuple(tuple(row) for row in table)

    @cached_property
    def pre_bits(self) -> tuple[tuple[int, ...], ...]:
        """pre_bits[u][x] = bitset of u-predecessors of x."""
        table = [[0] * self.n_states for _ in self.inputs]
        for src, u, dst in self.transitions:
            table[u][dst] |= 1 << src
        return tuple(tuple(row) for row in table)

    @cached_property
    def succ_any(self) -> tuple[int, ...]:
        """succ_any[x] = bitset of successors of x under any input."""
        out = [0] * self.n_states
        for src, _, dst in self.transitions:
            out[src] |= 1 << dst
        return tuple(out)

    @cached_property
    def pred_any(self) -> tuple[int, ...]:
        """pred_any[x] = bitset of predecessors of x under any input."""
        out = [0] * self.n_states
        for src, _, dst in self.transitions:
            out[dst] |= 1 << src
        return tuple(out)

    def close_bits(self, reference: int, delta: float) -> int:
        """Bitset of states whose output is delta-close to that of `reference`,
        tested pair by pair as `delta_close` does."""
        check_delta(delta)
        ref = self.outputs[reference]
        out = 0
        for i, y in enumerate(self.outputs):
            if all(abs(a - b) <= delta for a, b in zip(ref, y)):
                out |= 1 << i
        return out


# -- file format ------------------------------------------------------------


def read_object(text: str | bytes, keys: Sequence[str]) -> dict:
    """Decode a JSON input document whose top level is an object holding
    every key in `keys`. Bytes that are not UTF-8 are a ParseError naming
    the first bad byte; malformed JSON is one naming its line and column;
    nesting past the decoder's recursion limit, an integer past the
    interpreter's digit limit, a top level that is not an object, or a
    missing key, is one too."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {exc.start}: not UTF-8 ({exc.reason})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("$: nested too deeply") from exc
    except ValueError as exc:  # int() of a literal past sys.get_int_max_str_digits()
        raise ParseError("$: an integer has too many digits") from exc
    if not isinstance(doc, dict):
        raise ParseError("$: top level must be an object")
    for key in keys:
        if key not in doc:
            raise ParseError(f"$: missing key {key!r}")
    return doc


def json_number(value) -> float:
    """A JSON number as a float: TypeError for a bool, a string or any
    other non-number, OverflowError for an int past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _output_error(i: int, out: list) -> ParseError:
    """The error of states[i].output: its first non-number, else overflow."""
    for j, value in enumerate(out):
        try:
            json_number(value)
        except TypeError:
            return ParseError(f"states[{i}].output[{j}]: must be a number")
        except OverflowError:
            pass
    return ParseError(f"states[{i}].output: a number is past float range")


def parse_system(text: str | bytes) -> MetricSystem:
    """Parse the JSON system format into a validated MetricSystem.

    Schema: {"states": [{"name": str, "output": [number, ...]}, ...],
             "inputs": [str, ...], "initial": [name, ...],
             "secret": [name, ...], "transitions": [[src, input, dst], ...]}

    The first failing check, in document order, names the error. Checks
    that run per item build their message only when they fail.
    """
    # The decoded document and the transition tuples are many small
    # containers that all stay alive: cyclic garbage collection, triggered
    # over and over while they are allocated, would find nothing to free.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_system(text)
    finally:
        if enabled:
            gc.enable()


def _parse_system(text: str | bytes) -> MetricSystem:
    keys = ("states", "inputs", "initial", "secret", "transitions")
    doc = read_object(text, keys)
    for key in keys:
        if not isinstance(doc[key], list):
            raise ParseError(f"{key}: must be an array")

    names: list[str] = []
    outputs: list[tuple[float, ...]] = []
    for i, entry in enumerate(doc["states"]):
        if not isinstance(entry, dict):
            raise ParseError(f"states[{i}]: must be an object")
        name = entry.get("name")
        if not isinstance(name, str):
            raise ParseError(f"states[{i}]: needs a string 'name'")
        out = entry.get("output")
        if not isinstance(out, list):
            raise ParseError(f"states[{i}]: needs an array 'output'")
        try:
            outputs.append(tuple(map(json_number, out)))
        except (TypeError, OverflowError):
            raise _output_error(i, out) from None
        names.append(name)

    inputs: list[str] = doc["inputs"]
    for i, label in enumerate(inputs):
        if not isinstance(label, str):
            raise ParseError(f"inputs[{i}]: must be a string")

    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ValidationError("duplicate state names")
    input_index = {label: i for i, label in enumerate(inputs)}

    def resolve(key: str) -> tuple[int, ...]:
        out = []
        for i, name in enumerate(doc[key]):
            if not isinstance(name, str):
                raise ParseError(f"{key}[{i}]: must be a state name")
            if name not in index:
                raise ValidationError(f"{key}[{i}]: unknown state {name!r}")
            out.append(index[name])
        return tuple(sorted(set(out)))

    initial = resolve("initial")
    secret = resolve("secret")

    triples = doc["transitions"]
    try:
        # A lookup that succeeds saw a name: only a str equals a str key.
        transitions = [(index[s], input_index[u], index[d]) for s, u, d in triples]
        well_formed = all(type(t) is list for t in triples)
    except (TypeError, ValueError, KeyError):
        well_formed = False
    if not well_formed:  # find the first offender, one triple at a time
        transitions = _resolve_transitions(triples, index, input_index)

    return MetricSystem(
        names=tuple(names),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        initial=initial,
        secret=secret,
        transitions=tuple(sorted(transitions)),
    )


def _resolve_transitions(
    triples: list, index: dict[str, int], input_index: dict[str, int]
) -> list[tuple[int, int, int]]:
    """Index triples, checking each [src, input, dst] in turn."""
    out = []
    for i, triple in enumerate(triples):
        where = f"transitions[{i}]"
        if not (isinstance(triple, list) and len(triple) == 3):
            raise ParseError(f"{where}: must be a [src, input, dst] triple")
        src, label, dst = triple
        if not (isinstance(src, str) and isinstance(dst, str)):
            raise ParseError(f"{where}: endpoints must be state names")
        if not isinstance(label, str):
            raise ParseError(f"{where}: input must be a label string")
        if src not in index:
            raise ValidationError(f"{where}: unknown source state {src!r}")
        if dst not in index:
            raise ValidationError(f"{where}: unknown target state {dst!r}")
        if label not in input_index:
            raise ValidationError(f"{where}: unknown input {label!r}")
        out.append((index[src], input_index[label], index[dst]))
    return out


def _json_text(value) -> str:
    """`value` as `json.dumps(value, indent=2)` writes it."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value, indent=2)


def _indented(texts: list[str], depth: int) -> list[str]:
    """Texts rendered at depth 0, moved `depth` levels deeper: every line
    break gains 2*depth spaces. `json` escapes line breaks inside strings,
    so only a container's own lines move; a string's text stays as it is."""
    pad = "\n" + "  " * depth
    return [text.replace("\n", pad) for text in texts]


def json_texts(values: Iterable, depth: int) -> list[str]:
    """Each value as `json.dumps(..., indent=2)` writes it `depth` levels deep."""
    return _indented([_json_text(value) for value in values], depth)


def json_array(items: Sequence[str], depth: int) -> str:
    """An array as `json.dumps(..., indent=2)` writes it `depth` levels
    deep, from items already rendered one level deeper."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def serialize_system(sys: MetricSystem) -> str:
    """Emit the canonical JSON document for a system.

    Canonical form: state/input order preserved, initial/secret sorted by
    state index, transitions sorted by (src, input, dst) index triples. The
    text is exactly `json.dumps(doc, indent=2) + "\n"` of that document,
    written without `json`'s token-by-token encoder: each name and label is
    encoded once and reused. serialize(parse(doc)) is the identity on
    canonical documents.
    """
    names = [_json_text(name) for name in sys.names]
    labels = [_json_text(label) for label in sys.inputs]
    names2, names3 = _indented(names, 2), _indented(names, 3)
    labels3 = _indented(labels, 3)
    states = [
        f'{{\n      "name": {name},\n      "output": {json_array([_json_text(v) for v in out], 3)}\n    }}'
        for name, out in zip(names3, sys.outputs)
    ]
    triples = [
        f"[\n      {names3[s]},\n      {labels3[u]},\n      {names3[d]}\n    ]"
        for s, u, d in sorted(sys.transitions)
    ]
    return (
        f'{{\n  "states": {json_array(states, 1)},'
        f'\n  "inputs": {json_array(_indented(labels, 2), 1)},'
        f'\n  "initial": {json_array([names2[i] for i in sorted(sys.initial)], 1)},'
        f'\n  "secret": {json_array([names2[i] for i in sorted(sys.secret)], 1)},'
        f'\n  "transitions": {json_array(triples, 1)}\n}}\n'
    )

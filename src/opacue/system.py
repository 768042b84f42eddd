"""Finite metric transition systems: states, transitions, outputs, file format.

States are interned to dense integers 0..n-1 and every state set in this
package is carried as a Python int used as a bitset (bit i == state i), so
that the observer construction can hash sets of state pairs cheaply.

A system stores its transitions in one form, per-input successor bitset
rows (`MetricSystem.post_bits`); its predecessor and any-input tables, its
(src, input, dst) triples and its file are all derived from the rows.
`parse_system` builds the rows from a file's named triples, and the
constructor from index triples, each in one pass. A bitset with one
successor is that successor's one shared `1 << dst` int, so a system with
one successor per (state, input) costs a reference per pair:
`sample_system`'s 3-D eta = 0.025 stand-in (68,921 states, 27 inputs,
2,744 distinct targets) peaks at 386 MB. Names and labels are `str` and
outputs `float` or `int`, so every system reads back from its file as
itself. One writer, `json_rows`, renders bitset rows as JSON name rows:
the file's triples and a relation's pairs.
"""

from __future__ import annotations

import enum
import gc
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import chain, repeat
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
    "DEFAULT_STATE_CAP",
    "close_rows",
    "iter_bits",
    "json_array",
    "json_number",
    "json_rows",
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

# The most states or classes a construction may intern when no cap is given.
DEFAULT_STATE_CAP = 2_000_000


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
    pair, in O((rows + cols) * log(rows + cols) * dim) float comparisons.

    Per output coordinate the columns are sorted once, with prefix bitsets
    of that order. fl(a - v) is monotone in v and in a, so the columns v
    with abs(a - v) <= threshold form one window whose ends only move up
    over the sorted distinct row values a: one sweep finds them with that
    exact predicate, and a row is the AND of its windows, so no tolerance
    is involved and every bit is the pairwise comparison's. Columns must be
    finite (`MetricSystem` outputs and lattice points are); a NaN or
    infinite row value stays out of the sweep, and its row reads as empty.
    """
    check_threshold("threshold", threshold)
    if not row_outputs:
        return []
    dim = len(row_outputs[0])
    for group in (row_outputs, col_outputs):
        for y in group:
            if len(y) != dim:
                raise DimensionError(f"output dimensions differ: {dim} vs {len(y)}")
    # Each row is ANDed with its window of every coordinate through chained
    # lazy maps, so only the final rows are kept as new ints.
    rows = repeat((1 << len(col_outputs)) - 1, len(row_outputs))
    for k in range(dim):
        order = sorted(range(len(col_outputs)), key=lambda j: col_outputs[j][k])
        values = [col_outputs[j][k] for j in order] + [math.inf]  # a - inf stops both ends
        prefix = [0]
        for j in order:
            prefix.append(prefix[-1] | 1 << j)
        column = [y[k] for y in row_outputs]
        windows = dict.fromkeys(column, 0)  # row value -> window bitset
        lo = hi = 0
        for a in sorted(filter(math.isfinite, windows)):
            while not a - values[lo] <= threshold:
                lo += 1
            while not a - values[hi] < -threshold:
                hi += 1
            windows[a] = prefix[hi] ^ prefix[lo]
        rows = map(operator.and_, rows, map(windows.__getitem__, column))
    return list(rows)


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


@dataclass(frozen=True, init=False)
class MetricSystem:
    """A finite transition system with real-vector outputs and a secret set.

    Its transitions are stored in one form, `post_bits[u][x]`, the bitset of
    the u-successors of x: one row per input, one bitset per state in each
    row. `MetricSystem(..., transitions)` turns (src, input, dst) index
    triples into rows in one pass, with one `1 << dst` int per distinct
    target, shared by every bitset that holds it alone;
    `MetricSystem.from_rows` takes the rows themselves. Every other table
    is derived from the rows. Both constructors refuse, with a
    ValidationError, a field that is not a sequence, a name or label that
    is not a `str`, an output value that is not a finite `float` or an
    `int` that a float holds exactly, and an index or bitset that is not
    exactly an `int` (never a bool); they keep `initial` and `secret`
    sorted, each index once. Equality compares all six fields.

    Immutable after construction; safe to share across concurrent readers.
    """

    names: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[tuple[float, ...], ...]
    initial: tuple[int, ...]
    secret: tuple[int, ...]
    # post_bits[u][x] = bitset of u-successors of x
    post_bits: tuple[tuple[int, ...], ...]

    def __init__(self, names, inputs, outputs, initial, secret, transitions):
        vars(self).update(names=names, inputs=inputs, outputs=outputs, initial=initial,
                          secret=secret)
        self._validate(transitions)
        vars(self)["post_bits"] = _triple_rows(transitions, len(names), len(inputs))

    @classmethod
    def from_rows(cls, names, inputs, outputs, initial, secret,
                  post_bits: Sequence[Sequence[int]]) -> "MetricSystem":
        """A system whose transitions are given as `post_bits[u][x]`, each
        bitset in [0, 2**n). Shape and range are checked in bulk over all
        rows."""
        system = cls._of_rows(names, inputs, outputs, initial, secret, post_bits)
        system._validate_rows()
        return system

    @classmethod
    def _of_rows(cls, names, inputs, outputs, initial, secret,
                 post_bits: Sequence[Sequence[int]]) -> "MetricSystem":
        """`from_rows` without the rows' checks, for in-package builders
        whose rows hold one int in [0, 2**n) per state per input by
        construction; every other field is checked."""
        system = cls.__new__(cls)
        vars(system).update(names=names, inputs=inputs, outputs=outputs, initial=initial,
                            secret=secret, post_bits=tuple(map(tuple, post_bits)))
        system._validate(())  # no triples, so none repeated
        return system

    def _validate(self, transitions: Sequence[tuple[int, int, int]]) -> None:
        """Check every field but the transitions' ranges, which are checked
        as the rows are built or read, last; keep each as its file reads it
        back: tuples, surrogate pairs joined, `initial`/`secret` sorted once."""
        # Each per-item check runs in bulk first; only when one fails is
        # the first offender looked for, one item at a time.
        for field, value in (("names", self.names), ("inputs", self.inputs),
                             ("outputs", self.outputs), ("initial", self.initial),
                             ("secret", self.secret), ("transitions", transitions)):
            try:
                len(value)
            except TypeError:
                raise ValidationError(f"{field}: {value!r} is not a sequence") from None
        n = len(self.names)
        if n == 0:
            raise ValidationError("a system must have at least one state")
        vars(self)["names"] = _as_read("state name", self.names)
        if len(set(self.names)) != n:
            raise ValidationError("duplicate state names")
        # before the input labels: a document names duplicate transitions first
        try:
            repeated = len(set(transitions)) != len(transitions)
        except TypeError:  # an unhashable transition
            raise _triple_error(transitions) from None
        if repeated:
            raise ValidationError("duplicate transitions")
        vars(self)["inputs"] = _as_read("input label", self.inputs)
        if len(set(self.inputs)) != len(self.inputs):
            raise ValidationError("duplicate input labels")
        outputs = tuple(self.outputs)
        if len(outputs) != n:
            raise ValidationError("outputs must be total on states")
        dim = None
        try:
            dim = len(outputs[0])
            kinds = set(map(type, chain.from_iterable(outputs)))
            outputs_ok = (all(len(y) == dim for y in outputs) and kinds <= {float, int}
                          and all(map(math.isfinite, chain.from_iterable(outputs)))
                          # an int reads back as its float, which must be the int
                          and (int not in kinds
                               or all(map(operator.eq, map(float, chain.from_iterable(outputs)),
                                          chain.from_iterable(outputs)))))
        except (TypeError, OverflowError):  # OverflowError: an int past float range
            outputs_ok = False
        if dim == 0:
            raise ValidationError("output dimension must be positive")
        if not outputs_ok:
            for name, y in zip(self.names, outputs):
                _check_output(name, y, dim)
        vars(self)["outputs"] = tuple(map(tuple, outputs))
        for label, group in (("initial", self.initial), ("secret", self.secret)):
            if not (set(map(type, group)) <= {int}
                    and (not group or 0 <= min(group) and max(group) < n)):
                for i in group:  # a bool is not an index
                    if type(i) is not int:
                        raise ValidationError(f"{label} state index {i!r} is not an integer")
                    if not 0 <= i < n:
                        raise ValidationError(f"{label} state index {i} out of range")
            vars(self)[label] = tuple(sorted(set(group)))  # each once, in state order

    def _validate_rows(self) -> None:
        n, rows = len(self.names), self.post_bits
        if len(rows) != len(self.inputs):
            raise ValidationError(
                f"successor rows: {len(rows)} rows for {len(self.inputs)} inputs")
        for u, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError(f"successor row {u}: {len(row)} bitsets for {n} states")
        if rows and not (set(map(type, chain.from_iterable(rows))) <= {int}  # never a bool
                         and min(map(min, rows)) >= 0 and max(map(max, rows)) >> n == 0):
            u, x, bits = next((u, x, bits) for u, row in enumerate(rows) for x, bits in
                              enumerate(row) if not (type(bits) is int and 0 <= bits < 1 << n))
            what = f"not in [0, 2**{n})" if type(bits) is int else f"{bits!r}, not an int"
            raise ValidationError(f"successor row {u}: the bitset of state "
                                  f"{self.names[x]!r} is {what}")

    # -- derived lookups (cached, read-only) --------------------------------

    @property
    def n_states(self) -> int:
        return len(self.names)

    @cached_property
    def transitions(self) -> tuple[tuple[int, int, int], ...]:
        """The (src, input, dst) index triples, read off the rows in sorted
        order the first time they are asked for."""
        post = self.post_bits
        return tuple((x, u, d) for x in range(self.n_states)
                     for u, row in enumerate(post) for d in iter_bits(row[x]))

    @property
    def n_transitions(self) -> int:
        """How many transitions there are, counted off the successor rows."""
        return sum(map(int.bit_count, chain.from_iterable(self.post_bits)))

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
    def pre_bits(self) -> tuple[tuple[int, ...], ...]:
        """pre_bits[u][x] = bitset of u-predecessors of x."""
        return tuple(_transpose(row) for row in self.post_bits)

    @cached_property
    def succ_any(self) -> tuple[int, ...]:
        """succ_any[x] = bitset of successors of x under any input: the OR
        of column x of the rows, one column at a time, and of a zero row
        that keeps a system without inputs total."""
        columns = zip(*self.post_bits, (0,) * self.n_states)
        return tuple(map(partial(reduce, operator.or_), columns))

    @cached_property
    def pred_any(self) -> tuple[int, ...]:
        """pred_any[x] = bitset of predecessors of x under any input."""
        return _transpose(self.succ_any)

    def close_bits(self, reference: int, delta: float) -> int:
        """Bitset of states whose output is delta-close to that of `reference`,
        tested pair by pair by `delta_close`."""
        ref = self.outputs[reference]
        return bits_of(i for i, y in enumerate(self.outputs) if delta_close(ref, y, delta))


def _check_output(name: str, y, dim: int) -> None:
    """Raise the ValidationError of state `name`'s output `y` when it is
    not `dim` finite numbers, each read back from a file as itself."""
    try:
        arity = len(y)
    except TypeError:
        raise ValidationError(f"state {name!r}: output {y!r} is not a sequence") from None
    if arity != dim:
        raise ValidationError(f"state {name!r}: output arity {arity} != {dim}")
    try:
        if not all(map(math.isfinite, map(json_number, y))):
            raise ValidationError(f"state {name!r}: output {list(y)} is not finite")
    except (TypeError, OverflowError) as exc:
        raise ValidationError(f"state {name!r}: output: {exc}") from None
    for value in y:
        if float(value) != value:
            raise ValidationError(f"state {name!r}: output {value} reads back as "
                                  f"{float(value)!r}")


def _as_read(what: str, items: Sequence[str]) -> tuple[str, ...]:
    """`items` as a file reads them back, where `json` joins the escapes of
    a surrogate pair; ValidationError names the first item not a `str`."""
    if not set(map(type, items)) <= {str}:
        bad = next(item for item in items if type(item) is not str)
        raise ValidationError(f"{what} {bad!r} is not a string")
    if not "".join(items).isascii():  # one bulk test: most names hold no surrogate
        items = [item.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")
                 for item in items]
    return tuple(items)


def _triple_rows(transitions: Iterable[tuple[int, int, int]], n: int, m: int
                 ) -> tuple[tuple[int, ...], ...]:
    """Successor rows of (src, input, dst) triples over n states and m
    inputs, each triple's range checked in turn. A bitset holding one
    target is that target's one shared `1 << dst` int. Each index indexes
    a list, and every index is exactly an int, checked in bulk after the
    loop: only when a triple fails is the first malformed one sought."""
    bits = [0] * n
    table = [[0] * n for _ in range(m)]
    try:
        for src, u, dst in transitions:
            if not 0 <= src < n or not 0 <= dst < n:
                raise ValidationError(f"transition ({src},{u},{dst}) endpoint unknown")
            if not 0 <= u < m:
                raise ValidationError(f"transition ({src},{u},{dst}) input unknown")
            bit = bits[dst]
            if not bit:
                bit = bits[dst] = 1 << dst
            row = table[u]
            row[src] = row[src] | bit if row[src] else bit
        exact = set(map(type, chain.from_iterable(transitions))) <= {int}  # never a bool
    except (TypeError, ValueError):
        exact = False
    if not exact:
        raise _triple_error(transitions)
    return tuple(map(tuple, table))


def _triple_error(transitions: Iterable) -> ValidationError:
    """The error of the first transition that is not a tuple of three ints."""
    bad = next(t for t in transitions if not (isinstance(t, tuple) and len(t) == 3
                                              and all(type(i) is int for i in t)))
    return ValidationError(f"transition {bad!r} is not three integer indices")


def _transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """The square bit matrix transposed: bit i of out[j] is bit j of rows[i]."""
    out = [0] * len(rows)
    for i, bits in enumerate(rows):
        bit = 1 << i
        # iter_bits would copy the whole int to find a lone member
        for j in (bits.bit_length() - 1,) if bits.bit_count() == 1 else iter_bits(bits):
            out[j] |= bit
    return tuple(out)


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
    """A JSON number, exactly a `float` or an `int`, as a float: TypeError
    for any other value, OverflowError for an int past the float range."""
    if type(value) not in (float, int):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def parse_system(text: str | bytes) -> MetricSystem:
    """Parse the JSON system format into a validated MetricSystem.

    Schema: {"states": [{"name": str, "output": [number, ...]}, ...],
             "inputs": [str, ...], "initial": [name, ...],
             "secret": [name, ...], "transitions": [[src, input, dst], ...]}

    The first failing check, in document order, names the error. Checks
    that run per item build their message only when they fail.
    """
    # The decoded document is many small containers that all stay alive
    # while the system is built: cyclic garbage collection, triggered over
    # and over while they are allocated, would find nothing to free.
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

    # Each per-item check runs in bulk first; only when one fails is the
    # first offender looked for, one item at a time. A subscript that
    # succeeds saw an object: every other JSON value raises TypeError.
    states = doc["states"]
    try:
        names = list(map(operator.itemgetter("name"), states))
        raw = list(map(operator.itemgetter("output"), states))
        kinds = set(map(type, chain.from_iterable(raw)))
        bulk_ok = (set(map(type, names)) <= {str} and set(map(type, raw)) <= {list}
                   and kinds <= {float, int})  # a bool is neither
        if bulk_ok:  # float() of a float is that float
            outputs = (list(map(tuple, raw)) if int not in kinds
                       else [tuple(map(float, out)) for out in raw])
    except (KeyError, TypeError, OverflowError):
        bulk_ok = False
    if not bulk_ok:
        raise _state_error(states)

    inputs: list[str] = doc["inputs"]
    for i, label in enumerate(inputs):
        if not isinstance(label, str):
            raise ParseError(f"inputs[{i}]: must be a string")

    n = len(names)
    index = dict(zip(names, range(n)))
    if len(index) != n:
        raise ValidationError("duplicate state names")

    def resolve(key: str) -> tuple[int, ...]:
        try:
            # A lookup that succeeds saw a name: only a str equals a str key.
            return tuple(map(index.__getitem__, doc[key]))
        except (KeyError, TypeError):  # find the first offender
            for i, name in enumerate(doc[key]):
                if not isinstance(name, str):
                    raise ParseError(f"{key}[{i}]: must be a state name") from None
                if name not in index:
                    raise ValidationError(f"{key}[{i}]: unknown state {name!r}") from None
            raise

    initial = resolve("initial")
    secret = resolve("secret")

    # Each triple ORs its target's one shared `1 << dst` int into its row,
    # as `_triple_rows` does for index triples.
    triples = doc["transitions"]
    bits = [0] * n
    table = [[0] * n for _ in inputs]
    row_of = dict(zip(inputs, table))
    try:
        for s, u, d in triples:
            dst = index[d]
            bit = bits[dst]
            if not bit:
                bit = bits[dst] = 1 << dst
            row, src = row_of[u], index[s]
            row[src] = row[src] | bit if row[src] else bit
        well_formed = all(type(t) is list for t in triples)
    except (TypeError, ValueError, KeyError):
        well_formed = False
    if not well_formed:  # find the first offender, one triple at a time
        raise _transition_error(triples, index, row_of)
    # a repeated triple set a bit that was already set
    if sum(map(int.bit_count, chain.from_iterable(table))) != len(triples):
        raise ValidationError("duplicate transitions")

    return MetricSystem._of_rows(tuple(names), tuple(inputs), tuple(outputs), initial,
                                 secret, table)


def _state_error(states: list) -> ParseError:
    """The error of the first state entry that is not a {"name": str,
    "output": [number, ...]} object, checking each in turn."""
    for i, entry in enumerate(states):
        if not isinstance(entry, dict):
            return ParseError(f"states[{i}]: must be an object")
        if not isinstance(entry.get("name"), str):
            return ParseError(f"states[{i}]: needs a string 'name'")
        out = entry.get("output")
        if not isinstance(out, list):
            return ParseError(f"states[{i}]: needs an array 'output'")
        for j, value in enumerate(out):  # its first non-number, else overflow
            if type(value) not in (float, int):
                return ParseError(f"states[{i}].output[{j}]: must be a number")
        try:
            tuple(map(float, out))
        except OverflowError:
            return ParseError(f"states[{i}].output: a number is past float range")
    raise AssertionError("every state entry is well formed")


def _transition_error(triples: list, index: dict[str, int], labels: dict) -> Exception:
    """The error of the first triple that is not [src, input, dst] over
    known names, checking each in turn."""
    for i, triple in enumerate(triples):
        where = f"transitions[{i}]"
        if not (isinstance(triple, list) and len(triple) == 3):
            return ParseError(f"{where}: must be a [src, input, dst] triple")
        src, label, dst = triple
        if not (isinstance(src, str) and isinstance(dst, str)):
            return ParseError(f"{where}: endpoints must be state names")
        if not isinstance(label, str):
            return ParseError(f"{where}: input must be a label string")
        if src not in index:
            return ValidationError(f"{where}: unknown source state {src!r}")
        if dst not in index:
            return ValidationError(f"{where}: unknown target state {dst!r}")
        if label not in labels:
            return ValidationError(f"{where}: unknown input {label!r}")
    raise AssertionError("every transition is well formed")


def json_array(items: Sequence[str], depth: int) -> str:
    """An array as `json.dumps(..., indent=2)` writes it `depth` levels
    deep, from items already rendered one level deeper."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def json_rows(heads: Iterable[str], rows: Iterable[int], names: Sequence[str]) -> list[str]:
    """The items of an array of name rows, as `json.dumps(..., indent=2)`
    writes them one level deep. For each nonempty row, one text holds an
    item per member j: the row's head, then the encoded name `names[j]` as
    the item's last name, each joined to the next as `json_array` joins
    items. Each distinct row value's members are listed once."""
    tails = [f"{name}\n    ]" for name in names]
    listed: dict[int, list[str]] = {}
    return [head + (",\n    " + head).join(
                listed.get(bits) or listed.setdefault(bits, [tails[j] for j in iter_bits(bits)]))
            for head, bits in zip(heads, rows) if bits]


def serialize_system(sys: MetricSystem) -> str:
    """Emit the canonical JSON document for a system.

    Canonical form: state/input order preserved, initial/secret sorted by
    state index, transitions sorted by (src, input, dst) index triples. The
    text is exactly `json.dumps(doc, indent=2) + "\n"` of that document,
    written without `json`'s token-by-token encoder: each name and label is
    encoded once and reused, each output value is its `repr`, and the
    triples are the name rows `json_rows` writes, one head per (src, input)
    and one name per successor. serialize(parse(doc)) is the identity on
    canonical documents, and parse(serialize(system)) equals the system
    (past 2**53, an int output reads back as its nearest float).
    """
    names = list(map(encode_basestring_ascii, sys.names))
    labels = list(map(encode_basestring_ascii, sys.inputs))
    states = [
        f'{{\n      "name": {name},\n      "output": {json_array(list(map(repr, out)), 3)}\n    }}'
        for name, out in zip(names, sys.outputs)
    ]
    heads = (f"[\n      {name},\n      {label},\n      " for name in names for label in labels)
    rows = chain.from_iterable(zip(*sys.post_bits))
    return (
        f'{{\n  "states": {json_array(states, 1)},'
        f'\n  "inputs": {json_array(labels, 1)},'
        f'\n  "initial": {json_array([names[i] for i in sys.initial], 1)},'
        f'\n  "secret": {json_array([names[i] for i in sys.secret], 1)},'
        f'\n  "transitions": {json_array(json_rows(heads, rows, names), 1)}\n}}\n'
    )

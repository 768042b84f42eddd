"""Seeded input generators and reference checks for the four workloads.

Each generator writes JSON input files into a work directory and yields a
pool of `Query` objects: a fixed population, listed in an order set by the
seed (see POPULATION_SEED). A query is one or more `opacue` command lines plus
everything needed to judge the answers afterwards. The program under test
sees only the files; the expected answers come from code that shares no
path with the one being timed:

* finite systems: `opacue.brute.brute_force_opacity` decides the verdict
  and `opacue.brute.confirm_witness` replays each reported witness. Both
  are called on systems built directly from the generator's data, never on
  the output of the CLI's parser.
* abstractions: the route may only answer `opaque` or `inconclusive`, and
  each `opaque` is re-decided by brute force on the sampled system.
* certificates: the expected status follows from how each candidate was
  built, and every falsification is re-evaluated at its witness point with
  this module's own polynomial and dynamics code.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from decimal import Decimal
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Optional

NOTIONS = ("initial-state", "current-state", "k-step", "infinite-step")
K_STEP = 2

# Seed of the fixed warm-up query, so that set-up time is comparable
# across workload seeds.
WARMUP_SEED = 7


@dataclass
class Query:
    """One benchmark query: CLI argument lists run back to back.

    `check(codes, outputs)` returns None when every answer is right, or a
    one-line reason when it is not. It runs outside the timed region. It is
    a `partial` of a module-level function, so that a pool can be pickled
    and handed from the process that generates it to the one that measures.
    """

    label: str
    argvs: list[list[str]]
    check: Callable[[list[int], list[str]], Optional[str]] = field(repr=False)


# -- finite systems ------------------------------------------------------


def _finite_doc(rng: random.Random, n: int) -> dict:
    """Random system: |U| = 3, one or two successors per (x, u), outputs
    on the 11 levels 0, 0.1, ..., 1, and at least one secret and one
    non-secret initial state."""
    names = [f"s{i}" for i in range(n)]
    inputs = ["u0", "u1", "u2"]
    levels = [float(Decimal(k) / 10) for k in range(11)]
    outputs = [[rng.choice(levels)] for _ in range(n)]
    secret = sorted(rng.sample(range(n), rng.randint(2, max(2, n // 3))))
    nonsecret = [i for i in range(n) if i not in secret]
    initial = {rng.choice(secret), rng.choice(nonsecret)}
    initial.update(i for i in range(n) if rng.random() < 0.3)
    transitions = []
    for x in range(n):
        for u in inputs:
            for y in sorted(rng.sample(range(n), rng.randint(1, 2))):
                transitions.append([names[x], u, names[y]])
    return {
        "states": [{"name": s, "output": y} for s, y in zip(names, outputs)],
        "inputs": inputs,
        "initial": [names[i] for i in sorted(initial)],
        "secret": [names[i] for i in secret],
        "transitions": transitions,
    }


def _metric_system(doc: dict):
    """Reference-side system, built from the document without the parser."""
    from opacue.system import MetricSystem

    index = {s["name"]: i for i, s in enumerate(doc["states"])}
    inputs = {u: i for i, u in enumerate(doc["inputs"])}
    return MetricSystem(
        names=tuple(s["name"] for s in doc["states"]),
        inputs=tuple(doc["inputs"]),
        outputs=tuple(tuple(s["output"]) for s in doc["states"]),
        initial=tuple(sorted(index[s] for s in doc["initial"])),
        secret=tuple(sorted(index[s] for s in doc["secret"])),
        transitions=tuple(sorted(
            (index[a], inputs[u], index[b]) for a, u, b in doc["transitions"]
        )),
    )


def _notion(name: str):
    from opacue.system import OpacityNotion

    if name == "k-step":
        return OpacityNotion.k_step(K_STEP)
    return {
        "initial-state": OpacityNotion.initial_state(),
        "current-state": OpacityNotion.current_state(),
        "infinite-step": OpacityNotion.infinite_step(),
    }[name]


def _verify_argv(path: Path, notion: str, delta: float) -> list[str]:
    argv = ["verify", "--system", str(path), "--notion", notion,
            "--delta", repr(delta)]
    if notion == "k-step":
        argv += ["--k", str(K_STEP)]
    return argv


def _finite_check(doc: dict, notion_name: str, delta: float, opaque: bool,
                  codes: list[int], outputs: list[str]) -> Optional[str]:
    """Expected verdict from the oracle; witnesses must replay."""
    from opacue.brute import confirm_witness
    from opacue.verdict import Witness

    code = codes[0]
    if code != (0 if opaque else 1):
        return f"exit code {code}, oracle says opaque={opaque}"
    report = json.loads(outputs[0])
    if report.get("opaque") is not opaque:
        return f"report says opaque={report.get('opaque')}, oracle {opaque}"
    if opaque:
        return None
    witness = report.get("witness")
    if not witness:
        return "negative verdict without a witness"
    system = _metric_system(doc)
    try:
        rebuilt = Witness(
            states=tuple(system.index[s] for s in witness["states"]),
            inputs=tuple(system.input_index[u] for u in witness["inputs"]),
            revealing_instant=witness["revealing_instant"],
        )
        replayed = confirm_witness(system, delta, _notion(notion_name), rebuilt)
    except (KeyError, TypeError, ValueError) as exc:
        return f"witness cannot be rebuilt: {exc!r}"
    return None if replayed else "witness does not replay"


def _reorder(doc: dict, rng: random.Random) -> dict:
    """The same system with its states, inputs and transitions listed in a
    new order. The program numbers states and inputs by list position, so
    this renumbers them; every verdict and every observer size is unchanged."""
    out = dict(doc)
    for key in ("states", "inputs", "initial", "secret", "transitions"):
        out[key] = list(doc[key])
        rng.shuffle(out[key])
    return out


def _shuffle_keys(obj, rng: random.Random):
    """The same JSON value with every object's keys in a new order."""
    if isinstance(obj, dict):
        keys = list(obj)
        rng.shuffle(keys)
        return {k: _shuffle_keys(obj[k], rng) for k in keys}
    if isinstance(obj, list):
        return [_shuffle_keys(v, rng) for v in obj]
    return obj


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# Every workload draws its systems, plants and candidates from this fixed
# seed; the run's seed only reorders the queries and the listings inside
# each file. Query cost swings twentyfold between random systems of one
# size, and with the plant parameters, so a pool of a few dozen drawn
# afresh per seed would move p50 and p90 by more than any useful bound.
POPULATION_SEED = 20260802


def _finite_pool(
    seed: int, workdir: Path, sizes: range, delta: float, want_opaque: bool,
) -> Iterator[Query]:
    """One system per (n, notion) cell, kept only when the oracle's verdict
    equals `want_opaque`, reordered by `seed`."""
    from opacue.brute import brute_force_opacity

    population = random.Random(POPULATION_SEED)
    reorder = random.Random(seed)
    for n in sizes:
        for notion in NOTIONS:
            while True:
                doc = _finite_doc(population, n)
                verdict = brute_force_opacity(
                    _metric_system(doc), delta, _notion(notion))
                if verdict.opaque is want_opaque:
                    break
            doc = _reorder(doc, reorder)
            path = workdir / f"sys-n{n}-{notion}.json"
            _write(path, doc)
            yield Query(
                label=f"verify n={n} {notion}",
                argvs=[_verify_argv(path, notion, delta)],
                check=partial(_finite_check, doc, notion, delta, want_opaque),
            )


def finite_opaque(seed: int, workdir: Path) -> Iterator[Query]:
    return _finite_pool(seed, workdir, range(16, 29, 2), 0.5, True)


def finite_revealing(seed: int, workdir: Path) -> Iterator[Query]:
    return _finite_pool(seed, workdir, range(14, 20), 0.2, False)


# -- abstraction route ------------------------------------------------------


def _lattice(lo: float, hi: float, step: float) -> list[float]:
    """Decimal-exact multiples of step in [lo, hi]."""
    d = Decimal(str(step))
    k0 = int((Decimal(str(lo)) / d).to_integral_value(rounding="ROUND_CEILING"))
    k1 = int((Decimal(str(hi)) / d).to_integral_value(rounding="ROUND_FLOOR"))
    return [float(k * d) for k in range(k0, k1 + 1)]


def _plant_doc(a: float, b: float, secret: tuple[float, float],
               initial=(0.0, 1.0), cert: Optional[dict] = None) -> dict:
    if cert is None:
        lam = abs(a)
        cert = {"c": 1.0, "lambda": lam, "g": abs(b) / (1 - lam), "a": 1.0}
    return {
        "dim": 1,
        "state_box": [[0.0, 1.0]],
        "initial_box": [list(initial)],
        "secret_box": [list(secret)],
        "input_box": [[0.0, 0.1]],
        "dynamics": [f"{a!r}*x1 + {b!r}*u1"],
        "output": ["x1"],
        "iss_cert": cert,
    }


def _sampled_doc(a: float, b: float, secret: tuple[float, float],
                 step: float, input_step: float) -> dict:
    """Concrete stand-in: the step-lattice of [0, 1], every point initial,
    one successor per input obtained by snapping a*x + b*u to the nearest
    lattice point."""
    points = _lattice(0.0, 1.0, step)
    inputs = _lattice(0.0, 0.1, input_step)
    names = [repr(p) for p in points]
    transitions = set()
    for i, x in enumerate(points):
        for u in inputs:
            k = min(max(round((a * x + b * u) / step), 0), len(points) - 1)
            transitions.add((i, repr(u), k))
    return {
        "states": [{"name": n, "output": [p]} for n, p in zip(names, points)],
        "inputs": [repr(u) for u in inputs],
        "initial": names,
        "secret": [n for n, p in zip(names, points) if secret[0] <= p <= secret[1]],
        "transitions": [[names[i], u, names[k]] for i, u, k in sorted(transitions)],
    }


ETAS = (0.025, 0.02, 0.0125)
DELTA_SLACKS = (0.0, 0.05, 0.2, 0.3)
# Plants drawn per (eta, slack) cell.
ABSTRACTION_COPIES = 2


def _abstraction_instance(rng: random.Random, eta: float, slack: float):
    a = round(rng.uniform(0.1, 0.5), 2)
    b = round(rng.uniform(0.0, 0.4), 2)
    width = rng.choice([0.2, 0.3])
    lo = round(rng.uniform(0.0, 1.0 - width), 1)
    secret = (lo, round(lo + width, 1))
    g = b / (1 - a)
    epsilon = round((eta + g * eta) / (1 - a) * 1.25, 3)
    delta = round(2 * epsilon + slack, 3)
    return a, b, secret, epsilon, delta


def _abstraction_check(sampled: dict, delta: float,
                       codes: list[int], outputs: list[str]) -> Optional[str]:
    """Never `not-opaque`; every `opaque` must hold on the sampled system."""
    from opacue.brute import brute_force_opacity
    from opacue.system import OpacityNotion

    if codes[0] != 0:
        return f"abstract exited {codes[0]}"
    built = json.loads(outputs[0])
    if built.get("certified") is not True:
        return "abstraction not certified"
    report = json.loads(outputs[1])
    status = report.get("abstraction_verdict", {}).get("status")
    expected_code = {"opaque": 0, "inconclusive": 2}.get(status)
    if expected_code is None:
        return f"abstraction route answered {status!r}"
    if codes[1] != expected_code:
        return f"simrel exited {codes[1]} for status {status}"
    if status == "opaque":
        direct = brute_force_opacity(
            _metric_system(sampled), delta, OpacityNotion.initial_state())
        if not direct.opaque:
            return "opaque via abstraction but not opaque on the sampled system"
    return None


def abstraction(seed: int, workdir: Path) -> Iterator[Query]:
    rng = random.Random(POPULATION_SEED)
    reorder = random.Random(seed)
    for rep in range(ABSTRACTION_COPIES):
        for eta in ETAS:
            for slack in DELTA_SLACKS:
                a, b, secret, epsilon, delta = _abstraction_instance(rng, eta, slack)
                tag = f"eta{eta}-d{slack}-{rep}"
                plant = workdir / f"plant-{tag}.json"
                sampled_path = workdir / f"sampled-{tag}.json"
                out = workdir / f"abstract-{tag}.json"
                # State order is kept: the relation's pruning cost depends on it.
                sampled = _sampled_doc(a, b, secret, eta / 2, eta)
                _write(plant, _shuffle_keys(_plant_doc(a, b, secret), reorder))
                _write(sampled_path, _shuffle_keys(sampled, reorder))
                yield Query(
                    label=f"abstract+simrel eta={eta} delta={delta}",
                    argvs=[
                        ["abstract", "--system", str(plant), "--eta", repr(eta),
                         "--mu", repr(eta), "--epsilon", repr(epsilon),
                         "--out", str(out)],
                        ["simrel", "--system", str(sampled_path), "--abstract",
                         str(out), "--epsilon", repr(epsilon), "--delta", repr(delta)],
                    ],
                    check=partial(_abstraction_check, sampled, delta),
                )


# -- certificates ----------------------------------------------------------


def _poly_doc(terms: dict[tuple[int, ...], float]) -> dict:
    n = len(next(iter(terms)))
    return {"vars": n,
            "terms": [{"exps": list(e), "coef": c} for e, c in terms.items()]}


def _poly_eval(doc: dict, point) -> float:
    total = 0.0
    for term in doc["terms"]:
        mono = term["coef"]
        for v, e in zip(point, term["exps"]):
            mono *= v ** e
        total += mono
    return total


# Rounding allowance when re-evaluating a violation with this module's own
# arithmetic, whose evaluation order differs from the program's.
RECHECK_TOL = 1e-9


def _barrier_violation(kind: str, condition: str, poly: dict, facts: dict,
                       delta: float, resolution: float, margin: float,
                       point: list[float]) -> Optional[float]:
    """Amount by which `condition` is violated at `point` (> 0 violated),
    or None when the point is not in the condition's sample region."""
    a, b = facts["a"], facts["b"]
    x, xh = point
    sec_lo, sec_hi = facts["secret"]
    ini_lo, ini_hi = facts["initial"]
    value = _poly_eval(poly, point)
    close = abs(x - xh) <= delta
    if condition == "initial":
        in_region = (ini_lo <= x <= ini_hi and sec_lo <= x <= sec_hi
                     and ini_lo <= xh <= ini_hi and not sec_lo <= xh <= sec_hi
                     and close)
        return value if in_region else None
    if condition == "unsafe":
        return margin - value if not close else None
    if condition == "boundary":
        on_ring = x in (0.0, 1.0) or xh in (0.0, 1.0)
        return margin - value if on_ring and close else None
    if condition == "decrease":
        if kind == "lack" and not close:
            return None
        inputs = _lattice(0.0, 0.1, resolution)
        def nxt(u, uh):
            return _poly_eval(poly, (a * x + b * u, a * xh + b * uh))
        if kind == "opacity":
            # violated iff some u makes every u_hat increase the candidate
            return max(min(nxt(u, uh) - value for uh in inputs) for u in inputs)
        # violated iff every u meets some u_hat without strict decrease
        return min(max(nxt(u, uh) - value + margin for uh in inputs)
                   for u in inputs)
    return None


def _barrier_check(kind: str, expected: Optional[str], poly: dict, facts: dict,
                   delta: float, resolution: float, margin: float,
                   codes: list[int], outputs: list[str]) -> Optional[str]:
    report = json.loads(outputs[0])
    if expected is None:
        if codes[0] != 2 or report.get("status") != "sample-passed":
            return f"expected sample-passed, got exit {codes[0]} {report.get('status')}"
        return None
    if codes[0] != 1 or report.get("status") != "falsified":
        return f"expected falsified, got exit {codes[0]} {report.get('status')}"
    if report.get("condition") != expected:
        return f"expected condition {expected}, got {report.get('condition')}"
    witness = report.get("witness") or {}
    point = witness.get("point")
    if not isinstance(point, list) or len(point) != 2:
        return "falsified without a witness point"
    amount = _barrier_violation(kind, expected, poly, facts, delta,
                                resolution, margin, point)
    if amount is None:
        return f"witness {point} lies outside the {expected} region"
    if amount < -RECHECK_TOL:
        return f"{expected} holds at witness {point} (slack {-amount})"
    return None


def _quadratic_gap(c: float) -> dict:
    """(x - xh)^2 - c."""
    return _poly_doc({(2, 0): 1.0, (0, 2): 1.0, (1, 1): -2.0, (0, 0): -c})


BARRIER_RESOLUTIONS = (0.05, 0.04, 0.025)
MARGIN = 1e-9


def _barrier_instance(rng: random.Random, kind: str, variant: Optional[str],
                      resolution: float):
    """A 1-D plant, delta, and a candidate built to pass or to fail
    `variant` first (conditions are checked in the program's order)."""
    # delta sits halfway between lattice gaps, so rounding in the sampled
    # gaps cannot move a pair across it
    k = rng.randint(2, 6)
    delta = float((Decimal(k) + Decimal("0.5")) * Decimal(str(resolution)))
    b = round(rng.uniform(0.0, 0.4), 2)
    if kind == "opacity":
        width = rng.choice([0.2, 0.3])
        lo = round(rng.uniform(0.0, 1.0 - width), 1)
        secret, initial = (lo, round(lo + width, 1)), (0.0, 1.0)
        # an expanding plant breaks the decrease condition
        a = round(rng.uniform(1.2, 1.5) if variant == "decrease"
                  else rng.uniform(0.1, 0.9), 2)
        offset = {"initial": -0.01,
                  "unsafe": ((k + 1.5) * resolution) ** 2}.get(variant, delta ** 2)
        poly = _quadratic_gap(offset)
    else:
        secret, initial = (0.5, 0.7), (0.3, 0.7)
        a = round(rng.uniform(0.1, 0.9), 2)
        m = float(round(Decimal("0.5") / Decimal(str(resolution)))
                  * Decimal(str(resolution)))
        poly = {
            "initial": _poly_doc({(0, 0): 1.0}),
            "boundary": _poly_doc({(0, 0): -1.0}),
            # centred bowl: negative on the initial box, positive on the
            # ring, and never strictly decreasing at (m, m)
            "decrease": _poly_doc({(2, 0): 1.0, (1, 0): -2 * m, (0, 2): 1.0,
                                   (0, 1): -2 * m, (0, 0): 2 * m * m - 0.15}),
        }[variant]
    cert = {"c": 1.0, "lambda": 0.5, "g": 1.0, "a": 1.0}
    plant = _plant_doc(a, b, secret, initial, cert)
    facts = {"a": a, "b": b, "secret": secret, "initial": initial}
    return plant, facts, poly, delta


# Sampled-pass interconnection: b_i = 1 + x + xh with a_i <= 0 and
# b_i <= -a_i meets every local condition; a_i > 0 breaks the decrease.
# The failing variants that still scan every other condition run only at
# the coarser resolution, which keeps a pass over the pool short.
COMPOSE_PLANS = ((0.1, (None, "norm-lower-bound", "initial", "decrease")),
                 (0.0625, (None, "decrease")))


def _compose_instance(rng: random.Random, variant: Optional[str]):
    subs = []
    for _ in range(2):
        if variant == "decrease":
            a = round(rng.uniform(0.2, 0.6), 2)
            b = round(rng.uniform(0.0, 0.2), 2)
        else:
            a = round(rng.uniform(-0.6, -0.2), 2)
            b = round(rng.uniform(0.0, -0.9 * a), 2)
        initial, secret = ((0.3, 0.7), (0.5, 1.0)) if variant == "initial" \
            else ((0.0, 0.2), (0.6, 1.0))
        subs.append({"a": a, "b": b, "state": [0.0, 1.0],
                     "initial": list(initial), "secret": list(secret)})
    barrier = _poly_doc({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
    if variant == "norm-lower-bound":
        barrier = _poly_doc({(1, 0): 0.5, (0, 1): 0.5})
    return {"sub1": subs[0], "sub2": subs[1]}, barrier


def _compose_check(expected: Optional[str], doc: dict, barrier: dict,
                   codes: list[int], outputs: list[str]) -> Optional[str]:
    report = json.loads(outputs[0])
    if expected is None:
        if codes[0] != 2 or report.get("all_passed") is not True:
            return f"expected sample-passed, got exit {codes[0]}"
        return None
    failed = [c for c in report.get("checks", []) if not c.get("passed")]
    if codes[0] != 1 or report.get("all_passed") is not False or not failed:
        return f"expected a falsified check, got exit {codes[0]}"
    first = failed[0]
    if (first.get("subsystem"), first.get("condition")) != (1, expected):
        return f"expected subsystem 1 {expected}, got {first}"
    if not (isinstance(first.get("min_margin"), float) and first["min_margin"] < 0):
        return f"failed check reports no negative margin: {first}"
    # The report names no point: re-evaluate at a point known to
    # violate the condition by construction.
    sub = doc["sub1"]
    if expected == "norm-lower-bound":
        amount = 1.0 - _poly_eval(barrier, (1.0, 0.0))
    elif expected == "initial":
        amount = _poly_eval(barrier, (0.5, 0.4))
    else:  # decrease at x = xh = w = wh = 0: B(0, 0) <= (1 - a) B(0, 0)
        amount = sub["a"] * _poly_eval(barrier, (0.0, 0.0))
    if amount <= 0:
        return f"{expected} is not violated at the constructed point"
    return None


def certificates(seed: int, workdir: Path) -> Iterator[Query]:
    rng = random.Random(POPULATION_SEED)
    reorder = random.Random(seed)
    count = 0
    plans = [("opacity", v) for v in (None, "initial", "unsafe", "decrease")]
    plans += [("lack", v) for v in ("initial", "boundary", "decrease")]
    for resolution in BARRIER_RESOLUTIONS:
        for kind, variant in plans:
            plant, facts, poly, delta = _barrier_instance(rng, kind, variant, resolution)
            count += 1
            tag = f"{kind}-{variant}-r{resolution}-{count}"
            plant_path = workdir / f"plant-{tag}.json"
            poly_path = workdir / f"candidate-{tag}.json"
            _write(plant_path, _shuffle_keys(plant, reorder))
            _write(poly_path, _shuffle_keys(poly, reorder))
            yield Query(
                label=f"barrier {kind} {variant or 'pass'} res={resolution}",
                argvs=[["barrier", "--system", str(plant_path), "--candidate",
                        str(poly_path), "--kind", kind, "--delta", repr(delta),
                        "--resolution", repr(resolution)]],
                check=partial(_barrier_check, kind, variant, poly, facts, delta,
                                     resolution, MARGIN),
            )
    for resolution, variants in COMPOSE_PLANS:
        for variant in variants:
            doc, barrier = _compose_instance(rng, variant)
            count += 1
            tag = f"compose-{variant}-r{resolution}-{count}"
            sys_path = workdir / f"{tag}.json"
            poly_path = workdir / f"{tag}-barrier.json"
            _write(sys_path, _shuffle_keys(doc, reorder))
            _write(poly_path, _shuffle_keys(barrier, reorder))
            yield Query(
                label=f"compose {variant or 'pass'} res={resolution}",
                argvs=[["compose", "--system", str(sys_path), "--barrier1",
                        str(poly_path), "--barrier2", str(poly_path),
                        "--delta", "0.1", "--resolution", repr(resolution)]],
                check=partial(_compose_check, variant, doc, barrier),
            )


GENERATORS = {
    "finite-opaque": finite_opaque,
    "finite-revealing": finite_revealing,
    "abstraction": abstraction,
    "certificates": certificates,
}

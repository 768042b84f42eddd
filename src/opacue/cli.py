"""Command-line front end.

Exit codes: 0 opaque / pass / related, 1 not opaque / falsified / not
related, 2 inconclusive or sample-passed (non-conclusive), 3 usage or
validation errors, 4 resource cap exceeded, 5 internal error (a defect in
opacue; never a verdict).

Reports are JSON on stdout; diagnostics go to stderr only. Identical
inputs produce byte-identical reports; timing is therefore reported only
when --timing is given.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

# Each command imports the modules it runs in its own body, so a command
# loads only those. `errors`, `system` and `observer` stay here: every
# finite-system command loads them.
from . import __version__
from .errors import OpacueError, ParseError, ResourceError, ValidationError
from .observer import build_observer, observer_verdict
from .system import (
    DEFAULT_MARGIN, DEFAULT_STATE_CAP, NotionKind, OpacityNotion, parse_system,
    serialize_system,
)

if TYPE_CHECKING:
    from .compositional import LinearSubsystem

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


def _emit(doc: dict, pairs: str | None = None) -> None:
    """Print `doc` as indent-2, key-sorted JSON. `pairs`, when given, is a
    top-level "pairs" value already rendered one level deep, spliced in
    place of a null. `json` escapes quotes and line breaks inside strings,
    so a line break, two spaces and "pairs": can only begin that entry."""
    if pairs is None:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    text = json.dumps({**doc, "pairs": None}, indent=2, sort_keys=True)
    print(text.replace('\n  "pairs": null', '\n  "pairs": ' + pairs, 1))


def _read(path: str) -> bytes:
    """The bytes of an input file; the parser that reads them decodes them."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OpacueError(f"{path}: {exc.strerror}") from exc


def _notion_from(args: argparse.Namespace) -> OpacityNotion:
    kind = NotionKind(args.notion)
    if kind is NotionKind.K_STEP:
        if args.k is None:
            raise ValidationError("--notion k-step requires --k")
        return OpacityNotion.k_step(args.k)
    if args.k is not None:
        raise ValidationError("--k only applies to --notion k-step")
    return OpacityNotion(kind)


def _cap_from(args: argparse.Namespace) -> int:
    """The state cap: --cap, else the default. A cap below 1 admits no
    search at all, so it is a usage error."""
    if args.cap is None:
        return DEFAULT_STATE_CAP
    if args.cap < 1:
        raise ValidationError(f"--cap={args.cap}: the cap must be at least 1")
    return args.cap


def _cmd_verify(args: argparse.Namespace) -> int:
    from .api import verify_opacity
    from .brute import brute_force_opacity, confirm_witness

    system = parse_system(_read(args.system))
    notion = _notion_from(args)
    cap = _cap_from(args)
    t0 = time.perf_counter()
    verdict = verify_opacity(system, args.delta, notion, cap)
    wall_ms = int((time.perf_counter() - t0) * 1000)
    report = verdict.to_report(system)
    if args.timing:
        report["stats"]["wall_ms"] = wall_ms
    if args.oracle:
        other = brute_force_opacity(system, args.delta, notion, cap)
        report["oracle_agrees"] = other.opaque == verdict.opaque
        if verdict.witness is not None:
            report["witness_confirmed"] = confirm_witness(
                system, args.delta, notion, verdict.witness
            )
    _emit(report)
    if args.oracle and not report["oracle_agrees"]:
        defect = "the brute-force oracle disagrees with the verifier"
    elif report.get("witness_confirmed") is False:
        defect = "the witness does not replay against the notion's definition"
    else:
        return EXIT_PASS if verdict.opaque else EXIT_FAIL
    print(f"internal error: {defect}", file=_sys.stderr)
    return EXIT_INTERNAL


def _cmd_observer(args: argparse.Namespace) -> int:
    system = parse_system(_read(args.system))
    notion = OpacityNotion(NotionKind(args.notion))
    obs = build_observer(system, args.delta, _cap_from(args))
    if args.export_dot:
        from .dotexport import observer_dot

        _write(args.export_dot, observer_dot(obs, notion))
    verdict = observer_verdict(obs, notion)
    _emit(verdict.to_report(system))
    return EXIT_PASS if verdict.opaque else EXIT_FAIL


def _cmd_estimator(args: argparse.Namespace) -> int:
    from .estimator import build_initial_estimator, estimator_verdict

    system = parse_system(_read(args.system))
    cap = _cap_from(args)
    est = build_initial_estimator(system, args.delta, cap)
    if args.export_dot:
        from .dotexport import estimator_dot

        _write(args.export_dot, estimator_dot(est))
    verdict = estimator_verdict(est)
    _emit(verdict.to_report(system))
    return EXIT_PASS if verdict.opaque else EXIT_FAIL


def _cmd_simrel(args: argparse.Namespace) -> int:
    from .simrel import (
        AbstractionStatus, abstract_threshold, max_initsop_relation,
        opacity_via_abstraction,
    )

    concrete = parse_system(_read(args.system))
    abstract = parse_system(_read(args.abstract))
    if args.delta is not None:  # a bad threshold is named before a bad cap
        abstract_threshold(args.epsilon, args.delta)
    cap = _cap_from(args)
    if args.delta is None:
        verdict = None
        report = max_initsop_relation(concrete, abstract, args.epsilon)
    else:
        verdict = opacity_via_abstraction(concrete, abstract, args.epsilon, args.delta, cap)
        report = verdict.report
    # The pairs are written straight from the relation, as in
    # `report.to_report`, without building the list of name pairs.
    doc = report.summary(concrete, abstract)
    pairs = None
    if report.relation is not None:
        pairs = report.relation.pairs_json(concrete, abstract)
    if verdict is None:
        _emit(doc, pairs)
        return EXIT_PASS if report.related else EXIT_FAIL
    doc["abstraction_verdict"] = verdict.to_report()
    _emit(doc, pairs)
    return EXIT_PASS if verdict.status is AbstractionStatus.OPAQUE else EXIT_INCONCLUSIVE


def _cmd_abstract(args: argparse.Namespace) -> int:
    from .abstraction import build_abstraction
    from .control import QuantizationParams, parse_control_system

    cs = parse_control_system(_read(args.system))
    params = QuantizationParams(eta=args.eta, mu=args.mu, epsilon=args.epsilon)
    result = build_abstraction(cs, params, allow_unsound=args.unsound, cap=_cap_from(args))
    if args.out:
        _write(args.out, serialize_system(result.system))
    _emit({
        "states": result.system.n_states,
        "inputs": len(result.system.inputs),
        "transitions": len(result.system.transitions),
        "secret_states": len(result.system.secret),
        "eta": params.eta,
        "mu": params.mu,
        "epsilon": args.epsilon,
        "certified": result.certified,
        "quantization": asdict(result.check),
        "written_to": args.out,
    })
    return EXIT_PASS


def _cmd_barrier(args: argparse.Namespace) -> int:
    from .barrier import check_lack_barrier, check_opacity_barrier
    from .control import parse_control_system
    from .polynomial import parse_candidate

    cs = parse_control_system(_read(args.system))
    candidate = parse_candidate(_read(args.candidate), 2 * cs.dim,
                                f"--candidate {args.candidate}")
    checker = check_opacity_barrier if args.kind == "opacity" else check_lack_barrier
    report = checker(candidate, cs, args.delta, args.resolution, args.margin)
    _emit(report.to_report())
    return EXIT_FAIL if report.status == "falsified" else EXIT_INCONCLUSIVE


def _parse_interconnection(text: bytes) -> tuple[LinearSubsystem, LinearSubsystem]:
    from .boxes import Box
    from .compositional import LinearSubsystem
    from .system import json_number, read_object

    doc = read_object(text, ("sub1", "sub2"))
    subs = []
    for key in ("sub1", "sub2"):
        entry = doc[key]
        try:
            subs.append(LinearSubsystem(
                json_number(entry["a"]), json_number(entry["b"]),
                *(Box((tuple(map(json_number, entry[name])),))
                  for name in ("state", "initial", "secret")),
            ))
        # a ValueError is a [lo, hi] pair of the wrong length
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{key}: expected a, b, state, initial, secret") from exc
        except ValidationError as exc:
            raise ValidationError(f"{key}: {exc}") from exc
    return subs[0], subs[1]


def _cmd_compose(args: argparse.Namespace) -> int:
    from .compositional import compose_barriers, small_gain
    from .polynomial import parse_candidate

    sub1, sub2 = _parse_interconnection(_read(args.system))
    gains = small_gain(sub1, sub2)
    doc = {"small_gain": gains.to_report()}
    # Any barrier or sampling flag asks for barrier composition, which
    # needs all four; a failed small-gain condition is answered alike
    # with and without them, before any candidate is read.
    needed = (args.barrier1, args.barrier2, args.delta, args.resolution)
    barriers = any(flag is not None for flag in (*needed, args.margin))
    if barriers and None in needed:
        raise ValidationError(
            "barrier composition needs --barrier1, --barrier2, --delta, "
            "and --resolution"
        )
    if not (barriers and gains.small_gain_ok):
        _emit(doc)
        return EXIT_PASS if gains.small_gain_ok else EXIT_FAIL
    text1 = _read(args.barrier1)
    b1 = parse_candidate(text1, 2, f"--barrier1 {args.barrier1}")
    text2 = _read(args.barrier2)
    # One candidate for both subsystems is parsed, and its table
    # kernels compiled, once.
    b2 = b1 if text2 == text1 else parse_candidate(text2, 2, f"--barrier2 {args.barrier2}")
    margin = DEFAULT_MARGIN if args.margin is None else args.margin
    report = compose_barriers(b1, b2, sub1, sub2, args.delta, args.resolution, margin)
    doc.update(report.to_report())
    _emit(doc)
    if not report.all_passed:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE  # sampled evidence only


def _common(p: argparse.ArgumentParser, delta_required=True, cap=True) -> None:
    p.add_argument("--system", required=True, help="input file")
    if delta_required:
        p.add_argument("--delta", type=float, required=True,
                       help="measurement precision threshold (no default)")
    if cap:
        p.add_argument("--cap", type=int, default=None,
                       help="state cap, at least 1 (default: 2,000,000)")


def _define_verify(p: argparse.ArgumentParser) -> None:
    _common(p)
    p.add_argument("--notion", required=True, choices=sorted(k.value for k in NotionKind))
    p.add_argument("--k", type=int, default=None, help="delay bound for k-step")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the brute-force oracle")
    p.add_argument("--timing", action="store_true",
                   help="include wall_ms in the report (breaks byte-identity)")
    p.set_defaults(fn=_cmd_verify)


def _define_observer(p: argparse.ArgumentParser) -> None:
    _common(p)
    p.add_argument("--notion", default="initial-state",
                   choices=["initial-state", "current-state"])
    p.add_argument("--export-dot", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_observer)


def _define_estimator(p: argparse.ArgumentParser) -> None:
    _common(p)
    p.add_argument("--export-dot", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_estimator)


def _define_simrel(p: argparse.ArgumentParser) -> None:
    _common(p, delta_required=False)
    p.add_argument("--abstract", required=True, help="abstract system file")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="also transfer an opacity verdict at this threshold")
    p.set_defaults(fn=_cmd_simrel)


def _define_abstract(p: argparse.ArgumentParser) -> None:
    _common(p, delta_required=False)
    p.add_argument("--eta", type=float, required=True, help="state grid step")
    p.add_argument("--mu", type=float, required=True, help="input grid step")
    p.add_argument("--epsilon", type=float, required=True, help="target precision")
    p.add_argument("--unsound", action="store_true",
                   help="build even if the quantization inequality fails")
    p.add_argument("--out", default=None, help="write the abstraction here")
    p.set_defaults(fn=_cmd_abstract)


def _define_barrier(p: argparse.ArgumentParser) -> None:
    _common(p, cap=False)
    p.add_argument("--candidate", required=True, help="polynomial file")
    p.add_argument("--kind", required=True, choices=["opacity", "lack"])
    p.add_argument("--resolution", type=float, required=True)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN,
                   help="strictness margin for strict inequalities")
    p.set_defaults(fn=_cmd_barrier)


def _define_compose(p: argparse.ArgumentParser) -> None:
    _common(p, delta_required=False, cap=False)
    p.add_argument("--barrier1", default=None, help="local barrier for subsystem 1")
    p.add_argument("--barrier2", default=None, help="local barrier for subsystem 2")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.set_defaults(fn=_cmd_compose)


# Each command's help line and the function that adds its options and its
# body to its parser, in the order `opacue -h` lists them.
_COMMANDS = {
    "verify": ("decide opacity of a finite system", _define_verify),
    "observer": ("build the paper's forward pair observer", _define_observer),
    "estimator": ("build the backward initial-state estimator", _define_estimator),
    "simrel": ("compute the greatest InitSOP simulation relation", _define_simrel),
    "abstract": ("build a grid abstraction of a control system", _define_abstract),
    "barrier": ("check a candidate barrier certificate", _define_barrier),
    "compose": ("small-gain composition of two subsystems", _define_compose),
}


def _build_parser() -> argparse.ArgumentParser:
    """The full command-line parser, with every command's parser under it."""
    parser = argparse.ArgumentParser(
        prog="opacue",
        description="Exact and approximate opacity verification for finite "
                    "metric transition systems and their finite abstractions.",
    )
    parser.add_argument("--version", action="version", version=f"opacue {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, define) in _COMMANDS.items():
        define(sub.add_parser(name, help=help_line))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """`argv` as the full parser parses it, by the command's parser if that suffices."""
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"opacue {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = _sys.argv[1:] if argv is None else list(argv)
    # A run builds one ArgumentParser, its command's; the full parser answers
    # -h, --version, no or an unknown command, or an unrecognized argument.
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        if exc.code not in (0, None):
            return EXIT_USAGE
        return 0
    try:
        return args.fn(args)
    except ResourceError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_RESOURCE
    except OpacueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # InternalError or a defect: never a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())

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
import os
import sys as _sys
import time
from pathlib import Path

from . import __version__
from .abstraction import build_abstraction
from .api import verify_opacity
from .barrier import check_lack_barrier, check_opacity_barrier
from .brute import brute_force_opacity, confirm_witness
from .compositional import (
    Interval,
    LinearSubsystem,
    compose_barriers,
    small_gain,
)
from .control import QuantizationParams, parse_control_system
from .dotexport import estimator_dot, observer_dot
from .errors import OpacueError, ParseError, ResourceError, ValidationError
from .estimator import build_initial_estimator, estimator_verdict
from .observer import DEFAULT_STATE_CAP, build_observer, observer_verdict
from .polynomial import parse_polynomial
from .simrel import AbstractionStatus, max_initsop_relation, opacity_via_abstraction
from .system import NotionKind, OpacityNotion, parse_system, serialize_system

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5

_NOTIONS = {
    "initial-state": NotionKind.INITIAL_STATE,
    "current-state": NotionKind.CURRENT_STATE,
    "k-step": NotionKind.K_STEP,
    "infinite-step": NotionKind.INFINITE_STEP,
    "pre": NotionKind.PRE,
}


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc


def _notion_from(args: argparse.Namespace) -> OpacityNotion:
    kind = _NOTIONS[args.notion]
    if kind is NotionKind.K_STEP:
        if args.k is None:
            raise ValidationError("--notion k-step requires --k")
        return OpacityNotion.k_step(args.k)
    if args.k is not None:
        raise ValidationError("--k only applies to --notion k-step")
    return OpacityNotion(kind)


def _cap_from(args: argparse.Namespace) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("OPACUE_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"OPACUE_CAP={env!r} is not an integer") from None
    return DEFAULT_STATE_CAP


def _cmd_verify(args: argparse.Namespace) -> int:
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
        other = brute_force_opacity(system, args.delta, notion)
        report["oracle_agrees"] = other.opaque == verdict.opaque
        if verdict.witness is not None:
            report["witness_confirmed"] = confirm_witness(
                system, args.delta, notion, verdict.witness
            )
        if not report["oracle_agrees"]:
            _emit(report)
            print("error: brute-force oracle disagrees with the verifier",
                  file=_sys.stderr)
            return EXIT_USAGE
    _emit(report)
    return EXIT_PASS if verdict.opaque else EXIT_FAIL


def _cmd_observer(args: argparse.Namespace) -> int:
    system = parse_system(_read(args.system))
    notion = _notion_from(args)
    if notion.kind not in (NotionKind.INITIAL_STATE, NotionKind.CURRENT_STATE):
        raise ValidationError("observer export supports initial-state/current-state")
    obs = build_observer(system, args.delta, _cap_from(args))
    if args.export_dot:
        Path(args.export_dot).write_text(observer_dot(obs, notion), encoding="utf-8")
    verdict = observer_verdict(obs, notion)
    _emit(verdict.to_report(system))
    return EXIT_PASS if verdict.opaque else EXIT_FAIL


def _cmd_estimator(args: argparse.Namespace) -> int:
    system = parse_system(_read(args.system))
    cap = _cap_from(args)
    est = build_initial_estimator(system, args.delta, cap)
    if args.export_dot:
        Path(args.export_dot).write_text(estimator_dot(est), encoding="utf-8")
    verdict = estimator_verdict(est)
    _emit(verdict.to_report(system))
    return EXIT_PASS if verdict.opaque else EXIT_FAIL


def _cmd_simrel(args: argparse.Namespace) -> int:
    concrete = parse_system(_read(args.system))
    abstract = parse_system(_read(args.abstract))
    report = max_initsop_relation(concrete, abstract, args.epsilon)
    doc = report.to_report(concrete, abstract)
    if args.delta is not None:
        verdict = opacity_via_abstraction(concrete, abstract, args.epsilon,
                                          args.delta, _cap_from(args))
        doc["abstraction_verdict"] = verdict.to_report()
        _emit(doc)
        if verdict.status is AbstractionStatus.OPAQUE:
            return EXIT_PASS
        return EXIT_INCONCLUSIVE
    _emit(doc)
    return EXIT_PASS if report.related else EXIT_FAIL


def _cmd_abstract(args: argparse.Namespace) -> int:
    cs = parse_control_system(_read(args.system))
    params = QuantizationParams(eta=args.eta, mu=args.mu, epsilon=args.epsilon)
    result = build_abstraction(cs, params, allow_unsound=args.unsound, cap=_cap_from(args))
    text = serialize_system(result.system)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    _emit({
        "states": result.system.n_states,
        "inputs": len(result.system.inputs),
        "transitions": len(result.system.transitions),
        "secret_states": len(result.system.secret),
        "eta": result.eta,
        "mu": result.mu,
        "epsilon": args.epsilon,
        "certified": result.certified,
        "quantization": {
            "passed": result.check.passed,
            "lhs": result.check.lhs,
            "rhs": result.check.rhs,
            "slack": result.check.slack,
        },
        "written_to": args.out,
    })
    return EXIT_PASS


def _cmd_barrier(args: argparse.Namespace) -> int:
    cs = parse_control_system(_read(args.system))
    candidate = parse_polynomial(_read(args.candidate))
    checker = check_opacity_barrier if args.kind == "opacity" else check_lack_barrier
    report = checker(candidate, cs, args.delta, args.resolution, args.margin)
    _emit(report.to_report())
    return EXIT_FAIL if report.status == "falsified" else EXIT_INCONCLUSIVE


def _json_number(value) -> float:
    """A JSON number as a float: TypeError for a bool or a non-number,
    OverflowError for an int past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _parse_interconnection(text: str) -> tuple[LinearSubsystem, LinearSubsystem]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("$: expected an object with keys 'sub1' and 'sub2'")
    subs = []
    for key in ("sub1", "sub2"):
        if key not in doc:
            raise ParseError(f"$: missing key {key!r}")
        entry = doc[key]
        try:
            subs.append(LinearSubsystem(
                a=_json_number(entry["a"]), b=_json_number(entry["b"]),
                state=Interval(*map(_json_number, entry["state"])),
                initial=Interval(*map(_json_number, entry["initial"])),
                secret=Interval(*map(_json_number, entry["secret"])),
            ))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{key}: expected a, b, state, initial, secret") from exc
    return subs[0], subs[1]


def _cmd_compose(args: argparse.Namespace) -> int:
    sub1, sub2 = _parse_interconnection(_read(args.system))
    gains = small_gain(sub1, sub2)
    doc = {"small_gain": gains.to_report()}
    if args.barrier1 or args.barrier2:
        if not (args.barrier1 and args.barrier2 and args.delta is not None
                and args.resolution is not None):
            raise ValidationError(
                "barrier composition needs --barrier1, --barrier2, --delta, "
                "and --resolution"
            )
        b1 = parse_polynomial(_read(args.barrier1))
        b2 = parse_polynomial(_read(args.barrier2))
        report = compose_barriers(b1, b2, sub1, sub2, args.delta,
                                  args.resolution, args.margin)
        doc.update(report.to_report())
        _emit(doc)
        if not report.all_passed:
            return EXIT_FAIL
        return EXIT_INCONCLUSIVE  # sampled evidence only
    _emit(doc)
    return EXIT_PASS if gains.small_gain_ok else EXIT_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opacue",
        description="Exact and approximate opacity verification for finite "
                    "metric transition systems and their finite abstractions.",
    )
    parser.add_argument("--version", action="version", version=f"opacue {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, delta_required=True):
        p.add_argument("--system", required=True, help="input file")
        if delta_required:
            p.add_argument("--delta", type=float, required=True,
                           help="measurement precision threshold (no default)")
        p.add_argument("--cap", type=int, default=None,
                       help="state cap (default: OPACUE_CAP or 2,000,000)")

    p = sub.add_parser("verify", help="decide opacity of a finite system")
    common(p)
    p.add_argument("--notion", required=True, choices=sorted(_NOTIONS))
    p.add_argument("--k", type=int, default=None, help="delay bound for k-step")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the brute-force oracle")
    p.add_argument("--timing", action="store_true",
                   help="include wall_ms in the report (breaks byte-identity)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("observer", help="build the paper's forward pair observer")
    common(p)
    p.add_argument("--notion", default="initial-state",
                   choices=["initial-state", "current-state"])
    p.add_argument("--k", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--export-dot", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_observer)

    p = sub.add_parser("estimator", help="build the backward initial-state estimator")
    common(p)
    p.add_argument("--export-dot", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_estimator)

    p = sub.add_parser("simrel", help="compute the greatest InitSOP simulation relation")
    common(p, delta_required=False)
    p.add_argument("--abstract", required=True, help="abstract system file")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="also transfer an opacity verdict at this threshold")
    p.set_defaults(fn=_cmd_simrel)

    p = sub.add_parser("abstract", help="build a grid abstraction of a control system")
    common(p, delta_required=False)
    p.add_argument("--eta", type=float, required=True, help="state grid step")
    p.add_argument("--mu", type=float, required=True, help="input grid step")
    p.add_argument("--epsilon", type=float, required=True, help="target precision")
    p.add_argument("--unsound", action="store_true",
                   help="build even if the quantization inequality fails")
    p.add_argument("--out", default=None, help="write the abstraction here")
    p.set_defaults(fn=_cmd_abstract)

    p = sub.add_parser("barrier", help="check a candidate barrier certificate")
    common(p)
    p.add_argument("--candidate", required=True, help="polynomial file")
    p.add_argument("--kind", required=True, choices=["opacity", "lack"])
    p.add_argument("--resolution", type=float, required=True)
    p.add_argument("--margin", type=float, default=1e-9,
                   help="strictness margin for strict inequalities")
    p.set_defaults(fn=_cmd_barrier)

    p = sub.add_parser("compose", help="small-gain composition of two subsystems")
    common(p, delta_required=False)
    p.add_argument("--barrier1", default=None, help="local barrier for subsystem 1")
    p.add_argument("--barrier2", default=None, help="local barrier for subsystem 2")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--margin", type=float, default=1e-9)
    p.set_defaults(fn=_cmd_compose)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
    except (OpacueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # InternalError or a defect: never a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())

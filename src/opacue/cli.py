"""Command-line front end.

Exit codes: 0 opaque / pass / related, 1 not opaque / falsified / not
related, 2 inconclusive or sample-passed (non-conclusive), 3 usage or
validation errors, 4 resource cap exceeded, 5 internal error (a defect in
opacue; never a verdict).

Reports are JSON on stdout; diagnostics go to stderr only. Identical
inputs produce byte-identical reports; timing is therefore reported only
when --timing is given. Each input file is parsed by the module of its
model (`system`, `control`, `polynomial`, `compositional`), never here.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
import time
from dataclasses import asdict
from pathlib import Path

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
    so a line break, two spaces and "pairs": can only begin that entry. A
    NaN or an infinity is not JSON: it raises ValueError, an internal
    error, before anything is printed."""
    if pairs is None:
        print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))
        return
    text = json.dumps({**doc, "pairs": None}, indent=2, sort_keys=True, allow_nan=False)
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
    """The state cap, --cap. A cap below 1 admits no search at all, so it
    is a usage error."""
    if args.cap < 1:
        raise ValidationError(f"--cap={args.cap}: the cap must be at least 1")
    return args.cap


def _cmd_verify(args: argparse.Namespace) -> int:
    from .api import verify_opacity

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
        from .brute import brute_force_opacity, confirm_witness

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
        report = max_initsop_relation(concrete, abstract, args.epsilon)
        extra, code = {}, EXIT_PASS if report.related else EXIT_FAIL
    else:
        verdict = opacity_via_abstraction(concrete, abstract, args.epsilon, args.delta, cap)
        report = verdict.report
        extra = {"abstraction_verdict": verdict.to_report()}
        code = EXIT_PASS if verdict.status is AbstractionStatus.OPAQUE else EXIT_INCONCLUSIVE
    # The related pairs are counted off the rows against the cap before
    # anything is rendered; they are then written straight from the rows, as in
    # `report.to_report`, without building the list of name pairs.
    pairs = None
    if report.relation is not None:
        if sum(map(int.bit_count, report.relation.rows)) > cap:
            raise ResourceError(f"relation exceeds the cap of {cap} pairs")
        pairs = report.relation.pairs_json(concrete, abstract)
    _emit({**report.summary(concrete, abstract), **extra}, pairs)
    return code


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
        "transitions": result.system.n_transitions,
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


def _cmd_compose(args: argparse.Namespace) -> int:
    from .compositional import compose_barriers, parse_interconnection, small_gain
    from .polynomial import parse_candidate

    sub1, sub2 = parse_interconnection(_read(args.system))
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


# The options shared by several commands, each a (flag, add_argument
# keywords) pair as in every command's entry below.
_SYSTEM = ("--system", dict(required=True, help="input file"))
_DELTA = ("--delta", dict(type=float, required=True,
                          help="measurement precision threshold (no default)"))
_CAP = ("--cap", dict(type=int, default=DEFAULT_STATE_CAP,
                      help=f"state cap, at least 1 (default: {DEFAULT_STATE_CAP:,})"))
_EXPORT_DOT = ("--export-dot", dict(default=None, metavar="PATH"))

# Each command's help line, its body and its options, in the order `opacue
# -h` and the command's own help list them. The full parser and the plain
# reader both read the options from here.
_COMMANDS = {
    "verify": ("decide opacity of a finite system", _cmd_verify, (
        _SYSTEM, _DELTA, _CAP,
        ("--notion", dict(required=True, choices=sorted(k.value for k in NotionKind))),
        ("--k", dict(type=int, default=None, help="delay bound for k-step")),
        ("--oracle", dict(action="store_true", help="cross-check with the brute-force oracle")),
        ("--timing", dict(action="store_true",
                          help="include wall_ms in the report (breaks byte-identity)")),
    )),
    "observer": ("build the paper's forward pair observer", _cmd_observer, (
        _SYSTEM, _DELTA, _CAP,
        ("--notion", dict(default="initial-state", choices=["initial-state", "current-state"])),
        _EXPORT_DOT,
    )),
    "estimator": ("build the backward initial-state estimator", _cmd_estimator, (
        _SYSTEM, _DELTA, _CAP, _EXPORT_DOT,
    )),
    "simrel": ("compute the greatest InitSOP simulation relation", _cmd_simrel, (
        _SYSTEM, _CAP,
        ("--abstract", dict(required=True, help="abstract system file")),
        ("--epsilon", dict(type=float, required=True)),
        ("--delta", dict(type=float, default=None,
                         help="also transfer an opacity verdict at this threshold")),
    )),
    "abstract": ("build a grid abstraction of a control system", _cmd_abstract, (
        _SYSTEM, _CAP,
        ("--eta", dict(type=float, required=True, help="state grid step")),
        ("--mu", dict(type=float, required=True, help="input grid step")),
        ("--epsilon", dict(type=float, required=True, help="target precision")),
        ("--unsound", dict(action="store_true",
                           help="build even if the quantization inequality fails")),
        ("--out", dict(default=None, help="write the abstraction here")),
    )),
    "barrier": ("check a candidate barrier certificate", _cmd_barrier, (
        _SYSTEM, _DELTA,
        ("--candidate", dict(required=True, help="polynomial file")),
        ("--kind", dict(required=True, choices=["opacity", "lack"])),
        ("--resolution", dict(type=float, required=True)),
        ("--margin", dict(type=float, default=DEFAULT_MARGIN,
                          help="strictness margin for strict inequalities")),
    )),
    "compose": ("small-gain composition of two subsystems", _cmd_compose, (
        _SYSTEM,
        ("--barrier1", dict(default=None, help="local barrier for subsystem 1")),
        ("--barrier2", dict(default=None, help="local barrier for subsystem 2")),
        ("--delta", dict(type=float, default=None)),
        ("--resolution", dict(type=float, default=None)),
        ("--margin", dict(type=float, default=None)),
    )),
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
    for name, (help_line, body, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
        command.set_defaults(fn=body)
    return parser


def _read_plain(command: str, argv: list[str]) -> argparse.Namespace | None:
    """The namespace the full parser gives for a plain `argv` after
    `command`, read off the command's options in `_COMMANDS`; None if it
    is not plain. Plain means: each token is one of the command's flags,
    spelled in full, and each store option takes one value that does not
    begin with "-" and passes its `type` and `choices`; every required flag
    is given, and a repeated flag's last value wins."""
    _, body, declared = _COMMANDS[command]
    options = dict(declared)
    dest = {flag: flag[2:].replace("-", "_") for flag in options}
    switch = {flag for flag, kwargs in options.items() if kwargs.get("action") == "store_true"}
    values = {dest[flag]: kwargs.get("default", False if flag in switch else None)
              for flag, kwargs in options.items()}
    values["fn"] = body
    missing = {flag for flag, kwargs in options.items() if kwargs.get("required")}
    tokens = iter(argv)
    for flag in tokens:
        kwargs = options.get(flag)
        if kwargs is None:
            return None
        value = True
        if flag not in switch:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                value = kwargs.get("type", str)(value)
            except (TypeError, ValueError):
                return None
            choices = kwargs.get("choices")
            if choices is not None and value not in choices:
                return None
        values[dest[flag]] = value
        missing.discard(flag)
    return None if missing else argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """`argv` as the full parser parses it: read off the command's entry
    in `_COMMANDS` when it is plain, else by the full parser, which answers
    -h, --version, --opt=value, abbreviations, values beginning with "-"
    and every usage error."""
    if argv and argv[0] in _COMMANDS:
        args = _read_plain(argv[0], argv[1:])
        if args is not None:
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = _sys.argv[1:] if argv is None else list(argv)
    # A plain argv builds no ArgumentParser; any other builds the full one.
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

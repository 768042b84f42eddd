"""CLI: exit codes, JSON reports, determinism, file exports."""

import argparse
import ast
import dataclasses
import importlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opacue.brute
import opacue.cli
from opacue.cli import main
from opacue.errors import InternalError
from opacue.system import MetricSystem, parse_system

from .conftest import FIXTURES

C1 = str(FIXTURES / "gridworld_c1.json")
C2 = str(FIXTURES / "gridworld_c2.json")


def _not_json(constant):
    raise AssertionError(f"the report holds {constant}, which is not JSON")


def run(capsys, *argv):
    """main's exit code, stdout and stderr; a verdict's report (exit 0, 1
    or 2) must parse as strict JSON, without NaN or Infinity."""
    code = main(list(argv))
    captured = capsys.readouterr()
    if code in (0, 1, 2) and captured.out.startswith("{"):
        json.loads(captured.out, parse_constant=_not_json)
    return code, captured.out, captured.err


def test_verify_controller1_not_opaque(capsys):
    code, out, err = run(capsys, "verify", "--system", C1,
                         "--notion", "initial-state", "--delta", "0")
    assert code == 1
    report = json.loads(out)
    assert report["opaque"] is False
    assert report["witness"]["states"][0] == "5:0:5"
    assert err == ""


def test_verify_controller2_opaque(capsys):
    code, out, _ = run(capsys, "verify", "--system", C2,
                       "--notion", "initial-state", "--delta", "0")
    assert code == 0
    assert json.loads(out)["opaque"] is True


def test_verify_empty_secret_exit_zero(capsys, tmp_path):
    doc = json.loads((FIXTURES / "gridworld.json").read_text())
    doc["secret"] = []
    path = tmp_path / "empty_secret.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--system", str(path),
                       "--notion", "initial-state", "--delta", "0")
    assert code == 0


def test_verify_reports_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "verify", "--system", C1,
                     "--notion", "k-step", "--k", "2", "--delta", "0")
    _, out2, _ = run(capsys, "verify", "--system", C1,
                     "--notion", "k-step", "--k", "2", "--delta", "0")
    assert out1 == out2


def test_verify_oracle_crosscheck(capsys):
    code, out, _ = run(capsys, "verify", "--system", C1,
                       "--notion", "initial-state", "--delta", "0", "--oracle")
    assert code == 1
    report = json.loads(out)
    assert report["oracle_agrees"] is True
    assert report["witness_confirmed"] is True


def test_oracle_disagreement_is_an_internal_error(capsys, monkeypatch):
    oracle = opacue.brute.brute_force_opacity

    def flipped(*args):
        verdict = oracle(*args)
        return dataclasses.replace(verdict, opaque=not verdict.opaque)

    monkeypatch.setattr(opacue.brute, "brute_force_opacity", flipped)
    code, out, err = run(capsys, "verify", "--system", C1,
                         "--notion", "initial-state", "--delta", "0", "--oracle")
    assert code == 5
    assert json.loads(out)["oracle_agrees"] is False
    assert err.startswith("internal error:") and err.count("\n") == 1


def test_verify_oracle_honors_the_cap(capsys, tmp_path):
    # The engine decides at its one seed class: the secret initial state a
    # has no other initial state close to it. The oracle's prefix search
    # still walks the whole chain a -> s1 -> ... -> s20, 21 classes.
    chain = ["a"] + [f"s{i}" for i in range(1, 21)]
    doc = {"states": [{"name": name, "output": [0.0]} for name in chain],
           "inputs": ["u"], "initial": ["a"], "secret": ["a"],
           "transitions": [[src, "u", dst] for src, dst in zip(chain, chain[1:])]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", "--system", str(path), "--notion", "k-step", "--k", "2",
            "--delta", "0", "--cap", "10"]
    code, out, err = run(capsys, *argv)
    assert (code, json.loads(out)["stats"]["classes"], err) == (1, 1, "")
    code, out, err = run(capsys, *argv, "--oracle")
    assert (code, out, err) == (4, "", "error: oracle exceeded the cap of 10 states\n")
    code, out, _ = run(capsys, *argv[:-2], "--oracle")
    assert code == 1 and json.loads(out)["oracle_agrees"] is True


def test_unconfirmed_witness_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(opacue.brute, "confirm_witness", lambda *args: False)
    code, out, err = run(capsys, "verify", "--system", C1,
                         "--notion", "initial-state", "--delta", "0", "--oracle")
    assert code == 5
    report = json.loads(out)
    assert report["oracle_agrees"] is True and report["witness_confirmed"] is False
    assert err.startswith("internal error:") and err.count("\n") == 1


def test_verify_pre_notion_rejected(capsys):
    code, out, err = run(capsys, "verify", "--system", C1,
                         "--notion", "pre", "--delta", "0")
    assert code == 3
    assert "invalid choice: 'pre'" in err
    assert out == ""


def test_observer_has_no_k_flag(capsys):
    code, out, err = run(capsys, "observer", "--system", C1, "--delta", "0", "--k", "1")
    assert (code, out) == (3, "")
    assert "unrecognized arguments: --k 1" in err


# Every subcommand's option strings, and the choices of those that have any.
CLI_SURFACE = {
    "verify": (["--cap", "--delta", "--help", "--k", "--notion", "--oracle",
                "--system", "--timing", "-h"],
               {"--notion": ["current-state", "infinite-step", "initial-state", "k-step"]}),
    "observer": (["--cap", "--delta", "--export-dot", "--help", "--notion", "--system", "-h"],
                 {"--notion": ["initial-state", "current-state"]}),
    "estimator": (["--cap", "--delta", "--export-dot", "--help", "--system", "-h"], {}),
    "simrel": (["--abstract", "--cap", "--delta", "--epsilon", "--help", "--system", "-h"],
               {}),
    "abstract": (["--cap", "--epsilon", "--eta", "--help", "--mu", "--out", "--system",
                  "--unsound", "-h"], {}),
    "barrier": (["--candidate", "--delta", "--help", "--kind", "--margin", "--resolution",
                 "--system", "-h"], {"--kind": ["opacity", "lack"]}),
    "compose": (["--barrier1", "--barrier2", "--delta", "--help", "--margin",
                 "--resolution", "--system", "-h"], {}),
}


def test_cli_surface_is_pinned():
    # a flag or a choice can only be added or dropped by editing this table
    parser = opacue.cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    surface = {
        name: (sorted(flag for action in sub._actions for flag in action.option_strings),
               {action.option_strings[0]: list(action.choices)
                for action in sub._actions if action.choices})
        for name, sub in commands.items()
    }
    assert surface == CLI_SURFACE


_VERIFY = ["verify", "--system", C1, "--notion", "initial-state"]
# Usage-level argvs: help, version, no or an unknown command, unrecognized
# flags (reported with the top-level usage line), bad choices and values.
USAGE_CORPUS = [
    ["-h"], ["--help"], ["--version"], [], ["bogus"], ["-h", "verify"],
    ["--version", "verify"], ["--bogus"],
    *([name, "-h"] for name in CLI_SURFACE),
    ["verify"], ["verify", "--help", "--bogus"], ["verify", "--version"],
    [*_VERIFY, "--delta", "0", "--bogus"], [*_VERIFY, "--delta", "0", "extra"],
    ["observer", "--system", C1, "--delta", "0", "--k", "1"],
    ["compose", "--system", C1, "--cap", "5"],
    ["verify", "--system", C1, "--notion", "pre", "--delta", "0"],
    ["barrier", "--system", C1, "--candidate", C1, "--kind", "both",
     "--delta", "0", "--resolution", "0.1"],
    _VERIFY, [*_VERIFY, "--delta", "-inf"], [*_VERIFY, "--delta", "x"],
    [*_VERIFY, "--delta", "0", "--k", "one"], [*_VERIFY, "--delta", "0"],
    ["observer", "--system", C1, "--delta", "0"],
    ["estimator", "--system", C2, "--delta", "0", "--cap", "-3"],
    ["simrel", "--system", C1, "--abstract", C1],
    ["abstract", "--system", C1, "--eta", "0.5", "--mu", "0.1"],
]


def _argv_id(argv):
    return " ".join(argv).replace(f"{FIXTURES}/", "") or "no-arguments"


@pytest.mark.parametrize("argv", USAGE_CORPUS, ids=_argv_id)
def test_command_parser_answers_as_the_full_parser(capsys, monkeypatch, argv):
    # main reads a plain argv off the command's declarations; every exit
    # code and byte of output must be what the parser with all commands
    # gives when it parses the whole argv
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    build = opacue.cli._build_parser
    got = run(capsys, *argv)
    monkeypatch.setattr(opacue.cli, "_parse", lambda argv: build().parse_args(argv))
    assert got == run(capsys, *argv)


# One valid argv for each command.
VALID_ARGVS = {
    "verify": [*_VERIFY, "--delta", "0.5", "--k", "2", "--oracle"],
    "observer": ["observer", "--system", C1, "--delta", "0", "--export-dot", "o.dot"],
    "estimator": ["estimator", "--system", C2, "--delta", "1", "--cap", "7"],
    "simrel": ["simrel", "--system", C1, "--abstract", C2, "--epsilon", "0.5"],
    "abstract": ["abstract", "--system", C1, "--eta", "0.5", "--mu", "0.1",
                 "--epsilon", "1", "--unsound"],
    "barrier": ["barrier", "--system", C1, "--candidate", C2, "--kind", "lack",
                "--delta", "0.1", "--resolution", "0.2"],
    "compose": ["compose", "--system", C1, "--barrier1", C2, "--margin", "0.01"],
}


@pytest.mark.parametrize("command", CLI_SURFACE)
def test_command_parser_gives_the_full_parsers_namespace(command):
    argv = VALID_ARGVS[command]
    full = vars(opacue.cli._build_parser().parse_args(argv))
    assert full.pop("command") == command
    assert vars(opacue.cli._parse(argv)) == full


_FLAGS = sorted({flag for flags, _ in CLI_SURFACE.values() for flag in flags})
_CHOICES = sorted({c for _, choices in CLI_SURFACE.values() for cs in choices.values()
                   for c in cs})
# Values that do not begin with "-", valid for some options and not others.
_PLAIN = ["", "0", "2", "0.5", "1e999", "nan", "x", C1, "pre", *_CHOICES]
# Tokens the reader must hand to the full parser: help, version, the end of
# options, abbreviations (--e is ambiguous in abstract), --flag=value and a
# stray positional.
_ODD = ["-h", "--help", "--version", "--", "--sys", "--del", "--no", "--e", "--k=2",
        "--delta=0", "--system=" + C1, "--notion=k-step", "--cap=-3", "verify"]


def _parsed(parse, argv):
    """vars of the namespace `parse` gives, without "command", or the exit
    code and both output streams of its SystemExit; values by repr, so that
    NaN equals NaN and -0.0 differs from 0.0."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            got = vars(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    got.pop("command", None)
    return {key: repr(value) for key, value in got.items()}


@pytest.mark.parametrize("command", CLI_SURFACE)
def test_reader_answers_as_the_full_parser_on_generated_argvs(command):
    # argvs near the command's plain ones: its valid argv with more of its
    # own flags, or with flags of every command, odd tokens and values
    flags = [flag for flag in CLI_SURFACE[command][0] if flag not in ("-h", "--help")]
    own = st.tuples(st.sampled_from(flags), st.sampled_from(_PLAIN))
    token = st.one_of(
        own,
        st.tuples(st.sampled_from(flags)),
        st.tuples(st.sampled_from(_FLAGS), st.sampled_from(["-0.0", "-1", *_PLAIN])),
        st.tuples(st.sampled_from(_ODD)),
    )
    valid = VALID_ARGVS[command][1:]
    argvs = st.one_of(st.tuples(st.just(valid), st.lists(own, max_size=3)),
                      st.tuples(st.sampled_from([valid, []]), st.lists(token, max_size=3)))
    full, read = opacue.cli._build_parser(), []

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(argvs)
    def check(case):
        base, tokens = case
        argv = [command, *base, *(t for group in tokens for t in group)]
        got = _parsed(opacue.cli._parse, argv)
        assert got == _parsed(full.parse_args, argv)
        read.append(opacue.cli._read_plain(command, argv[1:]) is not None)

    # usage lines wrap at COLUMNS; a non-plain argv goes to the full parser
    # itself, built once here
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            mock.patch.object(opacue.cli, "_build_parser", lambda: full):
        check()
    assert any(read) and not all(read)


def test_unknown_command_is_named_as_the_command_argument(capsys):
    code, out, err = run(capsys, "bogus")
    assert (code, out) == (3, "")
    assert "opacue: error: argument command: invalid choice: 'bogus'" in err


def _count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_a_plain_argv_builds_no_parser(capsys, monkeypatch):
    built = _count_parsers(monkeypatch)
    code, out, _ = run(capsys, *_VERIFY, "--delta", "0")
    assert (code, len(built)) == (1, 0)
    # any other argv goes to the full parser, which answers alike
    assert run(capsys, *_VERIFY, "--delta=0")[:2] == (code, out)
    assert len(built) == 8
    built.clear()
    code, _, err = run(capsys, *_VERIFY, "--delta", "0", "--bogus")
    assert (code, len(built)) == (3, 8)
    assert err.startswith("usage: opacue [-h] [--version]")


@pytest.mark.parametrize("argv,code", [(["-h"], 0), (["--version"], 0), (["bogus"], 3)])
def test_help_version_and_unknown_commands_build_every_parser(capsys, monkeypatch,
                                                              argv, code):
    built = _count_parsers(monkeypatch)
    assert (run(capsys, *argv)[0], len(built)) == (code, 8)


def test_missing_delta_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--system", C1, "--notion", "initial-state")
    assert code == 3


def test_cap_flag_maps_to_resource_exit(capsys):
    code, _, err = run(capsys, "verify", "--system", C1,
                       "--notion", "initial-state", "--delta", "0", "--cap", "3")
    assert code == 4
    assert "cap" in err


def test_cap_env_variable(capsys, monkeypatch):
    # OPACUE_CAP is not read: a cap of 3 would stop this search (exit 4,
    # as with --cap 3 above)
    argv = ("verify", "--system", C1, "--notion", "initial-state", "--delta", "0")
    default = run(capsys, *argv)
    monkeypatch.setenv("OPACUE_CAP", "3")
    assert run(capsys, *argv) == default and default[0] == 1


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_flag_below_one_is_usage_error(capsys, cap):
    code, out, err = run(capsys, "verify", "--system", C1, "--notion",
                         "initial-state", "--delta", "0", "--cap", cap)
    assert (code, out) == (3, "") and f"--cap={cap}" in err


def test_cap_of_one_is_a_cap_not_a_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--system", C1, "--notion",
                       "initial-state", "--delta", "0", "--cap", "1")
    assert code == 4 and "cap of 1" in err


def test_bad_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "verify", "--system", str(bad),
                       "--notion", "initial-state", "--delta", "0")
    assert code == 3
    assert "error:" in err


def test_missing_input_file_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "verify", "--system", str(missing),
                         "--notion", "initial-state", "--delta", "0")
    assert (code, out) == (3, "")
    assert f"{missing}: No such file or directory" in err


def test_k_flag_goes_with_the_k_step_notion_only(capsys):
    _rejected(capsys, "verify", "--system", C1, "--delta", "0", "--notion", "k-step",
              reason="--notion k-step requires --k")
    _rejected(capsys, "verify", "--system", C1, "--delta", "0", "--notion",
              "current-state", "--k", "2", reason="--k only applies to --notion k-step")


def test_verify_timing_adds_only_the_wall_time(capsys):
    argv = ("verify", "--system", C1, "--notion", "initial-state", "--delta", "0")
    code, out, _ = run(capsys, *argv)
    timed_code, timed_out, _ = run(capsys, *argv, "--timing")
    report, timed = json.loads(out), json.loads(timed_out)
    wall_ms = timed["stats"].pop("wall_ms")
    assert type(wall_ms) is int and wall_ms >= 0
    assert (timed_code, timed) == (code, report) and "wall_ms" not in report["stats"]


def test_observer_export_dot(capsys, tmp_path):
    dot = tmp_path / "obs.dot"
    code, out, _ = run(capsys, "observer", "--system", C1, "--delta", "0",
                       "--notion", "initial-state", "--export-dot", str(dot))
    assert code == 1
    text = dot.read_text()
    assert text.startswith("digraph observer")
    assert "doublecircle" in text  # the revealing state is marked
    json.loads(out)


def test_estimator_export_dot(capsys, tmp_path):
    dot = tmp_path / "est.dot"
    code, out, _ = run(capsys, "estimator", "--system", C2, "--delta", "0",
                       "--export-dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph estimator")


def _dot_strings(line: str):
    """The double-quoted strings of one DOT line, un-escaped (a backslash
    takes the next character as it is), or None if one is left open."""
    strings, i = [], line.find('"')
    while i != -1:
        chars, i = [], i + 1
        while i < len(line) and line[i] != '"':
            i += line[i] == "\\"
            if i < len(line):
                chars.append(line[i])
                i += 1
        if i >= len(line):
            return None
        strings.append("".join(chars))
        i = line.find('"', i + 1)
    return strings


def test_export_dot_quotes_backslashes_and_double_quotes():
    from opacue.dotexport import estimator_dot, observer_dot
    from opacue.estimator import build_initial_estimator
    from opacue.observer import build_observer
    from opacue.system import OpacityNotion, iter_bits

    sys_ = MetricSystem(names=("a\\", 'b"\\'), inputs=("u\\",),
                        outputs=((0.0,), (0.05,)), initial=(0, 1), secret=(0,),
                        transitions=((0, 0, 1), (1, 0, 0)))
    names, n = sys_.names, sys_.n_states
    obs, est = build_observer(sys_, 0.1), build_initial_estimator(sys_, 0.1)
    graphs = [
        (observer_dot(obs, OpacityNotion.initial_state()), obs.forest,
         lambda pairs: ", ".join(f"({names[b // n]},{names[b % n]})" for b in iter_bits(pairs))),
        (estimator_dot(est), est.forest,
         lambda members: ", ".join(names[b] for b in iter_bits(members))),
    ]
    for text, found, members in graphs:
        lines = text.splitlines()[2:-1]
        labels = [_dot_strings(line) for line in lines]
        assert None not in labels, text
        nodes, edges = labels[:len(found.classes)], labels[len(found.classes):]
        assert nodes == [[f"{names[ref]} | {{{members(bits)}}}"] for ref, bits in found.classes]
        assert edges and edges == [["u\\"]] * len(found.edges)


def _rejected(capsys, *argv, reason="finite"):
    """Exit 3, an error naming `reason` on stderr and nothing on stdout."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and reason in err, (argv, code, out, err)


def test_verify_rejects_non_finite_delta(capsys):
    for delta in ("nan", "inf", "-inf"):
        for notion in (["initial-state"], ["current-state"], ["k-step", "--k", "1"],
                       ["infinite-step"]):
            _rejected(capsys, "verify", "--system", C2, f"--delta={delta}",
                      "--notion", *notion)


def test_observer_rejects_non_finite_delta(capsys):
    for delta in ("nan", "inf", "-inf"):
        _rejected(capsys, "observer", "--system", C2, f"--delta={delta}")


def test_estimator_rejects_non_finite_delta(capsys):
    for delta in ("nan", "inf", "-inf"):
        _rejected(capsys, "estimator", "--system", C2, f"--delta={delta}")


def test_nan_output_in_system_file_is_rejected(capsys, tmp_path):
    doc = json.loads((FIXTURES / "gridworld_c2.json").read_text())
    doc["states"][3]["output"] = [float("nan")]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    code, out, err = run(capsys, "verify", "--system", str(path),
                         "--notion", "initial-state", "--delta", "0")
    assert (code, out) == (3, "") and "not finite" in err


def test_output_past_float_range_in_system_file_is_rejected(capsys, tmp_path):
    doc = json.loads((FIXTURES / "gridworld_c2.json").read_text())
    doc["states"][3]["output"] = [10 ** 400]  # used to crash with OverflowError
    path = _write(tmp_path, "big.json", doc)
    code, out, err = run(capsys, "verify", "--system", path,
                         "--notion", "initial-state", "--delta", "0")
    assert (code, out) == (3, "") and "float range" in err


def test_verify_stats_count_search_classes(capsys):
    _, out, _ = run(capsys, "verify", "--system", C1,
                    "--notion", "initial-state", "--delta", "0")
    stats = json.loads(out)["stats"]
    assert list(stats) == ["classes"] and stats["classes"] > 0


def _count_calls(monkeypatch, module_names, attr):
    """Wrap every binding of `attr` in the named modules, the defining one
    first, with one counter; return the list of recorded calls. A command
    that imports `attr` in its body reads the defining module's binding."""
    calls = []
    original = getattr(importlib.import_module(module_names[0]), attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name in module_names:
        monkeypatch.setattr(importlib.import_module(name), attr, counted)
    return calls


def test_observer_subcommand_builds_the_observer_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, ["opacue.observer", "opacue.cli"], "build_observer")
    code, out, _ = run(capsys, "observer", "--system", C1, "--delta", "0")
    assert code == 1 and len(calls) == 1
    report = json.loads(out)
    assert report["witness"]["states"][0] == "5:0:5"
    assert report["stats"]["observer_states"] > 0


def test_simrel_identity(capsys):
    code, out, _ = run(capsys, "simrel", "--system", C1, "--abstract", C1,
                       "--epsilon", "0")
    assert code == 0
    report = json.loads(out)
    assert report["related"] is True
    assert ["5:0:5", "5:0:5"] in report["pairs"]


def test_simrel_with_delta_runs_abstraction_route(capsys):
    code, out, _ = run(capsys, "simrel", "--system", C2, "--abstract", C2,
                       "--epsilon", "0", "--delta", "0")
    assert code == 0
    report = json.loads(out)
    assert report["abstraction_verdict"]["status"] == "opaque"
    assert report["abstraction_verdict"]["abstract_delta"] == 0.0


def test_abstract_writes_loadable_system(capsys, tmp_path):
    cs_doc = {
        "dim": 1,
        "state_box": [[0.0, 1.0]],
        "initial_box": [[0.0, 1.0]],
        "secret_box": [[0.0, 0.5]],
        "input_box": [[0.0, 0.1]],
        "dynamics": ["0.5*x1 + u1"],
        "output": ["x1"],
        "iss_cert": {"c": 1.0, "lambda": 0.5, "g": 2.0, "a": 1.0},
    }
    src = tmp_path / "cs.json"
    src.write_text(json.dumps(cs_doc))
    out_path = tmp_path / "abs.json"
    code, out, _ = run(capsys, "abstract", "--system", str(src),
                       "--eta", "0.5", "--mu", "0.1", "--epsilon", "1.5",
                       "--out", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["certified"] is True
    assert report["states"] == 3
    loaded = parse_system(out_path.read_text())
    assert loaded.n_states == 3
    assert loaded.initial == (0, 1, 2)


def test_abstraction_takes_its_initial_states_from_the_plant(capsys, tmp_path):
    # Every initial state of this plant is secret, so no run can hide a
    # secret start. An abstraction with every lattice point initial would
    # answer "opaque".
    plant = {
        "dim": 1,
        "state_box": [[0.0, 1.0]],
        "initial_box": [[0.4, 0.7]],
        "secret_box": [[0.4, 0.7]],
        "input_box": [[0.0, 0.1]],
        "dynamics": ["0.3*x1 + 0.2*u1"],
        "output": ["x1"],
        "iss_cert": {"c": 1.0, "lambda": 0.3, "g": 0.2857, "a": 1.0},
    }
    out_path = tmp_path / "abs.json"
    code, out, _ = run(capsys, "abstract", "--system", _write(tmp_path, "plant.json", plant),
                       "--eta", "0.05", "--mu", "0.05", "--epsilon", "0.2",
                       "--out", str(out_path))
    assert code == 0 and json.loads(out)["states"] == 21
    abstraction = parse_system(out_path.read_bytes())
    assert abstraction.initial == abstraction.secret and len(abstraction.initial) == 7
    code, out, _ = run(capsys, "verify", "--system", str(out_path),
                       "--notion", "initial-state", "--delta", "0.2", "--oracle")
    assert code == 1 and json.loads(out)["witness_confirmed"] is True


def test_abstraction_refuses_an_initial_region_narrower_than_eta(capsys, tmp_path):
    # Every initial state of this plant is secret, but none lies on the
    # 0.05-lattice: the abstraction used to be certified with no initial
    # state at all, and `verify` on it answered a false "opaque".
    plant = {**PLANT, "initial_box": [[0.41, 0.44]], "secret_box": [[0.4, 0.7]],
             "input_box": [[0.0, 0.1]], "dynamics": ["0.3*x1 + 0.2*u1"],
             "iss_cert": {"c": 1.0, "lambda": 0.3, "g": 0.2857, "a": 1.0}}
    out_path = tmp_path / "abs.json"
    code, out, err = run(capsys, "abstract", "--system", _write(tmp_path, "plant.json", plant),
                         "--eta", "0.05", "--mu", "0.05", "--epsilon", "0.2",
                         "--out", str(out_path))
    assert (code, out) == (3, "") and not out_path.exists()
    assert err.startswith("error: eta 0.05 exceeds the span") and \
        err.endswith("of the initial-and-secret region\n"), err


def test_barrier_falsified_and_sample_passed(capsys, tmp_path):
    cs_doc = {
        "dim": 1,
        "state_box": [[0.0, 1.0]],
        "initial_box": [[0.0, 1.0]],
        "secret_box": [[0.5, 1.0]],
        "input_box": [[0.0, 0.2]],
        "dynamics": ["0.5*x1"],
        "output": ["x1"],
        "iss_cert": {"c": 1.0, "lambda": 0.5, "g": 0.0, "a": 1.0},
    }
    src = tmp_path / "cs.json"
    src.write_text(json.dumps(cs_doc))
    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps({"vars": 2, "terms": [{"exps": [0, 0], "coef": -1.0}]}))
    code, out, _ = run(capsys, "barrier", "--system", str(src),
                       "--candidate", str(neg), "--kind", "opacity",
                       "--delta", "0.1", "--resolution", "0.1")
    assert code == 1
    assert json.loads(out)["status"] == "falsified"

    # (x - xh)^2 - 0.03 is nonpositive with slack on delta-close grid pairs
    # (gaps 0 or 0.1), positive on separated ones (gaps >= 0.2), and
    # contracts along f = 0.5x; delta sits strictly between the grid gaps
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"vars": 2, "terms": [
        {"exps": [2, 0], "coef": 1.0}, {"exps": [0, 2], "coef": 1.0},
        {"exps": [1, 1], "coef": -2.0}, {"exps": [0, 0], "coef": -0.03},
    ]}))
    code, out, _ = run(capsys, "barrier", "--system", str(src),
                       "--candidate", str(ok), "--kind", "opacity",
                       "--delta", "0.15", "--resolution", "0.1")
    assert code == 2
    assert json.loads(out)["status"] == "sample-passed"


def test_compose_gains_and_barriers(capsys, tmp_path):
    ic = tmp_path / "ic.json"
    ic.write_text(json.dumps({
        "sub1": {"a": 0.5, "b": 0.2, "state": [0.0, 1.0],
                 "initial": [0.0, 0.2], "secret": [0.6, 1.0]},
        "sub2": {"a": 0.5, "b": 0.2, "state": [0.0, 1.0],
                 "initial": [0.0, 0.2], "secret": [0.6, 1.0]},
    }))
    code, out, _ = run(capsys, "compose", "--system", str(ic))
    assert code == 0
    report = json.loads(out)
    assert report["small_gain"]["product"] == pytest.approx(0.16)
    assert report["small_gain"]["small_gain_ok"] is True

    # norm-like quadratic local barriers cannot meet the norm lower bound
    # near zero, so the composition reports the falsified local condition
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"vars": 2, "terms": [
        {"exps": [2, 0], "coef": 1.0}, {"exps": [0, 2], "coef": 1.0},
    ]}))
    code, out, _ = run(capsys, "compose", "--system", str(ic),
                       "--barrier1", str(b), "--barrier2", str(b),
                       "--delta", "0.5", "--resolution", "0.2")
    report = json.loads(out)
    assert code in (1, 2)
    assert "checks" in report


PLANT = {
    "dim": 1, "state_box": [[0.0, 1.0]], "initial_box": [[0.0, 1.0]],
    "secret_box": [[0.5, 1.0]], "input_box": [[0.0, 0.2]], "dynamics": ["0.5*x1"],
    "output": ["x1"], "iss_cert": {"c": 1.0, "lambda": 0.5, "g": 0.0, "a": 1.0},
}
# (x - xh)^2 - 0.03
GAP = {"vars": 2, "terms": [
    {"exps": [2, 0], "coef": 1.0}, {"exps": [0, 2], "coef": 1.0},
    {"exps": [1, 1], "coef": -2.0}, {"exps": [0, 0], "coef": -0.03},
]}
SUBS = {
    "sub1": {"a": -0.4, "b": 0.3, "state": [0.0, 1.0], "initial": [0.0, 0.2],
             "secret": [0.6, 1.0]},
    "sub2": {"a": -0.5, "b": 0.2, "state": [0.0, 1.0], "initial": [0.0, 0.2],
             "secret": [0.6, 1.0]},
}
AFFINE = {"vars": 2, "terms": [{"exps": [0, 0], "coef": 1.0},
                               {"exps": [1, 0], "coef": 1.0},
                               {"exps": [0, 1], "coef": 1.0}]}
FIVE = {"vars": 2, "terms": [{"exps": [0, 0], "coef": 5.0}]}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _barrier_argv(tmp_path, candidate=GAP, **flags):
    values = {"delta": "0.15", "resolution": "0.1", **flags}
    return ["barrier", "--system", _write(tmp_path, "plant.json", PLANT),
            "--candidate", _write(tmp_path, "b.json", candidate), "--kind", "opacity",
            *(f"--{key}={value}" for key, value in values.items())]


def _compose_argv(tmp_path, subs=SUBS, barrier=AFFINE, **flags):
    """`compose` with `barrier` for both subsystems and default sampling
    numbers; with no barrier, with the given flags alone."""
    argv = ["compose", "--system", _write(tmp_path, "ic.json", subs)]
    if barrier is not None:
        path = _write(tmp_path, "b.json", barrier)
        argv += ["--barrier1", path, "--barrier2", path]
        flags = {"delta": "0.1", "resolution": "0.1", **flags}
    return [*argv, *(f"--{key}={value}" for key, value in flags.items())]


def test_compose_parses_one_candidate_named_twice_once(capsys, monkeypatch, tmp_path):
    # the same file for both subsystems compiles its table kernel once per
    # split; the report is the one two separate parses give
    from opacue.polynomial import Polynomial

    kernels = []
    generate = Polynomial._table_kernel

    def counted(self, split):
        kernels.append((id(self), split))
        return generate(self, split)

    monkeypatch.setattr(Polynomial, "_table_kernel", counted)
    argv = _compose_argv(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and len(kernels) == len({split for _, split in kernels}) == 1
    other = tmp_path / "b2.json"
    other.write_text(" " + json.dumps(AFFINE))  # same polynomial, other text
    argv[argv.index("--barrier2") + 1] = str(other)
    kernels.clear()
    assert run(capsys, *argv) == (code, out, err) and len(kernels) == 2


def test_barrier_refuses_an_exponent_past_the_bound_at_once(capsys, tmp_path):
    # the table kernel's time grows linearly with the largest exponent, so a
    # candidate past the bound is refused when read, before any kernel runs
    from opacue.polynomial import MAX_EXPONENT

    huge = {"vars": 2, "terms": [{"exps": [10 ** 7, 0], "coef": 1.0},
                                 {"exps": [3, 1], "coef": 2.0}]}
    start = time.perf_counter()
    code, out, err = run(capsys, *_barrier_argv(tmp_path, huge))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert f"exponents must be at most MAX_EXPONENT = {MAX_EXPONENT}" in err


def test_barrier_and_compose_flags_accept_the_valid_cases(capsys, tmp_path):
    code, out, _ = run(capsys, *_barrier_argv(tmp_path))
    assert code == 2 and json.loads(out)["status"] == "sample-passed"
    code, out, _ = run(capsys, *_compose_argv(tmp_path))
    assert code == 2 and json.loads(out)["all_passed"] is True


def _cap_argvs(tmp_path):
    """(argv, refused lattice) of each sampled lattice whose pairs pass the
    cap: [0, 1] at resolution 1e-6 has 1,000,001 points, 10^12 pairs (once
    a MemoryError, exit 5); at 0.001 its 1,002,001 pairs fit, but those of
    an input box [0, 2] (2,001 points) or of a partner's state interval
    [0, 200] at 0.1 do not."""
    wide_input = _write(tmp_path, "wide.json", {**PLANT, "input_box": [[0.0, 2.0]]})
    wide_partner = {**SUBS, "sub2": {**SUBS["sub2"], "state": [0.0, 200.0]}}
    return [
        (_barrier_argv(tmp_path, resolution="1e-6"), "state lattice"),
        (_barrier_argv(tmp_path, kind="lack", resolution="1e-6"), "state lattice"),
        (_compose_argv(tmp_path, resolution="1e-6"), "state lattice of subsystem 1"),
        (["barrier", "--system", wide_input, "--candidate", _write(tmp_path, "b.json", GAP),
          "--kind", "opacity", "--delta", "0.15", "--resolution", "0.001"], "input lattice"),
        (_compose_argv(tmp_path, wide_partner), "state lattice of subsystem 2"),
    ]


@pytest.mark.parametrize("build_points", [True, False], ids=["points", "no-points"])
def test_barrier_and_compose_refuse_lattice_pairs_past_the_cap(capsys, monkeypatch, tmp_path,
                                                              build_points):
    # the pairs are counted from Lattice.size: with Lattice.points raising,
    # the refusal is the same, so it comes before any point is built
    from opacue.boxes import Lattice
    from opacue.system import DEFAULT_STATE_CAP

    if not build_points:
        monkeypatch.setattr(Lattice, "points", lambda self: 1 / 0)
    for argv, lattice in _cap_argvs(tmp_path):
        assert run(capsys, *argv) == (
            4, "", f"error: {lattice} exceeds the cap of {DEFAULT_STATE_CAP} pairs\n")


@pytest.mark.parametrize("flags", [
    {"delta": "nan"},  # used to check 0 samples and report sample-passed
    {"delta": "inf"},  # used to report falsified
    {"resolution": "nan"},  # used to crash with ValueError
    {"margin": "nan"},
    {"margin": "-0.5"},
], ids=lambda flags: "-".join(f"{k}={v}" for k, v in flags.items()))
def test_barrier_rejects_bad_sampling_numbers(capsys, tmp_path, flags):
    _rejected(capsys, *_barrier_argv(tmp_path, **flags))


@pytest.mark.parametrize("flags", [
    {"resolution": "nan"},  # used to crash with ValueError
    {"resolution": "0"},  # used to crash with decimal.InvalidOperation
    {"resolution": "-0.1"},  # used to pass on 0 samples
    {"margin": "nan"},  # used to pass
    {"margin": "-0.5"},
    {"delta": "nan"},
    {"delta": "inf"},
    # without a barrier these used to be ignored: the gains, exit 0
    {"barrier": None, "delta": "nan"},
    {"barrier": None, "resolution": "0"},
    {"barrier": None, "margin": "-1"},
    {"barrier": None, "delta": "0.1", "resolution": "0.2"},
], ids=lambda flags: "-".join(f"{k}={v}" for k, v in flags.items()))
def test_compose_rejects_bad_sampling_numbers(capsys, tmp_path, flags):
    reason = "finite" if flags.get("barrier", AFFINE) else "needs --barrier1"
    _rejected(capsys, *_compose_argv(tmp_path, **flags), reason=reason)


def test_compose_answers_a_failed_small_gain_condition_alike_in_both_modes(
        capsys, tmp_path):
    # with barriers this used to print nothing and exit 3 (SmallGainError);
    # no candidate is read, so a missing one changes nothing
    subs = {key: {**sub, "a": 0.5, "b": 2.5} for key, sub in SUBS.items()}
    code, out, err = run(capsys, "compose", "--system", _write(tmp_path, "ic.json", subs))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"small_gain": {"gamma1": 5.0, "gamma2": 5.0,
                                              "product": 25.0, "small_gain_ok": False}}
    argv = _compose_argv(tmp_path, subs)
    assert run(capsys, *argv) == (code, out, err)
    argv[argv.index("--barrier1") + 1] = str(tmp_path / "missing.json")
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("coef", [float("nan"), float("inf"), float("-inf")])
def test_barrier_rejects_non_finite_candidate_coefficients(capsys, tmp_path, coef):
    # a NaN coefficient used to sample-pass with a NaN margin in the report
    candidate = {"vars": 2, "terms": [{"exps": [0, 0], "coef": coef}]}
    _rejected(capsys, *_barrier_argv(tmp_path, candidate))


@pytest.mark.parametrize("field,value", [
    ("b", float("nan")),  # used to print "gamma1": NaN and exit 1
    ("b", float("inf")),
    ("state", [0.0, float("inf")]),
], ids=["b-nan", "b-inf", "state-inf"])
def test_compose_rejects_non_finite_interconnections(capsys, tmp_path, field, value):
    subs = json.loads(json.dumps(SUBS))
    subs["sub1"][field] = value
    path = _write(tmp_path, "ic.json", subs)
    _rejected(capsys, "compose", "--system", path)
    _rejected(capsys, *_compose_argv(tmp_path, subs))


@pytest.mark.parametrize("gains,reason", [
    # used to exit 1 with "product": Infinity
    ({"sub1": (0.0, 1e308), "sub2": (0.0, 1e308)}, "gain product gamma1*gamma2 overflows"),
    # used to exit 1 with "gamma1": Infinity and "product": NaN
    ({"sub1": (0.9999999999999999, 1e300), "sub2": (-0.5, 0.0)},
     "sub1: subsystem gain |b/(1-a)| overflows"),
], ids=["product", "gamma1"])
def test_compose_refuses_gains_that_overflow(capsys, tmp_path, gains, reason):
    subs = {key: {**sub, "a": gains[key][0], "b": gains[key][1]}
            for key, sub in SUBS.items()}
    _rejected(capsys, "compose", "--system", _write(tmp_path, "ic.json", subs), reason=reason)
    _rejected(capsys, *_compose_argv(tmp_path, subs), reason=reason)


@pytest.mark.parametrize("bounds", [
    [0.0, 10 ** 400],  # an int past float range: used to pass the small-gain check
    [0, True],  # used to be taken as the interval [0, 1]
    [0.0], [0.0, 0.5, 1.0],  # not a [lo, hi] pair
    [1.0, 0.0],  # lo > hi
], ids=["huge-int", "bool", "one-bound", "three-bounds", "reversed"])
def test_compose_rejects_malformed_interval_bounds(capsys, tmp_path, bounds):
    subs = json.loads(json.dumps(SUBS))
    subs["sub1"]["state"] = bounds
    code, out, err = run(capsys, "compose", "--system", _write(tmp_path, "ic.json", subs))
    assert (code, out) == (3, "") and "sub1" in err, err


def test_compose_rejects_a_document_that_is_not_an_object(capsys, tmp_path):
    # used to crash with exit 5
    code, out, err = run(capsys, "compose", "--system", _write(tmp_path, "ic.json", 5))
    assert (code, out) == (3, "") and err.startswith("error:"), err


def test_compose_rejects_non_numeric_gain(capsys, tmp_path):
    subs = json.loads(json.dumps(SUBS))
    for gain in ("half", 10 ** 400):  # the int past float range used to crash
        subs["sub1"]["a"] = gain
        code, out, err = run(capsys, "compose", "--system",
                             _write(tmp_path, "ic.json", subs))
        assert (code, out) == (3, "") and "sub1" in err


def test_estimator_subcommand_builds_the_estimator_once(capsys, monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, ["opacue.estimator"], "build_initial_estimator")
    code, out, _ = run(capsys, "estimator", "--system", C1, "--delta", "0",
                       "--export-dot", str(tmp_path / "est.dot"))
    assert code == 1 and len(calls) == 1
    report = json.loads(out)
    assert report["witness"]["states"][0] == "5:0:5"
    assert report["stats"]["estimator_states"] > 0


def test_simrel_with_delta_computes_the_relation_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, ["opacue.simrel"], "max_initsop_relation")
    code, out, _ = run(capsys, "simrel", "--system", C2, "--abstract", C2,
                       "--epsilon", "0", "--delta", "0")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["abstraction_verdict"]["status"] == "opaque"


@pytest.mark.parametrize("epsilon,delta,message", [
    ("0", "nan", "delta must be a finite nonnegative number"),
    ("0.1", "0.1", "epsilon=0.1 exceeds delta/2=0.05"),
    ("nan", "nan", "epsilon must be a finite nonnegative number"),
])
def test_simrel_rejects_bad_thresholds_before_the_relation(capsys, monkeypatch,
                                                          epsilon, delta, message):
    calls = _count_calls(monkeypatch, ["opacue.simrel"], "max_initsop_relation")
    code, out, err = run(capsys, "simrel", "--system", C1, "--abstract", C1,
                         "--epsilon", epsilon, "--delta", delta)
    assert (code, out, calls) == (3, "", []) and message in err


def test_simrel_rejects_a_bad_cap_before_the_relation(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, ["opacue.simrel"], "max_initsop_relation")
    code, out, err = run(capsys, "simrel", "--system", C2, "--abstract", C2,
                         "--epsilon", "0", "--delta", "0", "--cap", "0")
    assert (code, out, calls) == (3, "", []) and "--cap=0" in err


@pytest.mark.parametrize("notion", ["initial-state", "current-state", "k-step",
                                    "infinite-step"])
def test_verify_builds_its_closeness_table_without_close_bits(capsys, monkeypatch,
                                                               notion):
    def refuse(self, reference, delta):
        raise AssertionError("the decision path called MetricSystem.close_bits")

    monkeypatch.setattr(MetricSystem, "close_bits", refuse)
    k = ["--k", "1"] if notion == "k-step" else []
    for system in (C1, C2):
        code, _, err = run(capsys, "verify", "--system", system, "--notion", notion,
                           "--delta", "0.5", *k)
        assert code in (0, 1), err


def test_oracles_do_not_share_the_closeness_table_helper(capsys, monkeypatch, tmp_path):
    # brute force, witness replay, the pair observer and the estimator read
    # the pairwise MetricSystem.close_bits, so they stay independent checks
    # of the decision path's close_rows; every module that binds it is patched
    bindings = [name for name, module in sorted(sys.modules.items())
                if name.startswith("opacue.") and hasattr(module, "close_rows")]
    bindings.remove("opacue.system")
    calls = _count_calls(monkeypatch, ["opacue.system", *bindings], "close_rows")
    for notion in ("initial-state", "infinite-step"):
        calls.clear()
        code, out, _ = run(capsys, "verify", "--system", C1, "--notion", notion,
                           "--delta", "0", "--oracle")
        report = json.loads(out)
        assert code == 1 and report["oracle_agrees"] and report["witness_confirmed"]
        assert len(calls) == 1  # the decision path's own table
    calls.clear()
    assert run(capsys, "observer", "--system", C1, "--delta", "0")[0] == 1
    assert run(capsys, "estimator", "--system", C1, "--delta", "0",
               "--export-dot", str(tmp_path / "est.dot"))[0] == 1
    assert calls == []


def test_abstract_has_no_delta_flag(capsys, tmp_path):
    plant = _write(tmp_path, "plant.json", PLANT)
    code, _, _ = run(capsys, "abstract", "--system", plant, "--eta", "0.5",
                     "--mu", "0.1", "--epsilon", "1.5", "--delta", "0.1")
    assert code == 3


def test_simrel_rejects_bad_epsilon(capsys):
    # -0.1 used to crash with NameError and exit 1; NaN was blamed on "delta"
    for epsilon in ("-0.1", "nan", "inf"):
        code, out, err = run(capsys, "simrel", "--system", C1, "--abstract", C1,
                             "--epsilon", epsilon)
        assert (code, out) == (3, "") and "epsilon must be a finite" in err, epsilon


@pytest.mark.parametrize("field,value", [
    ("state_box", [[0.0, float("inf")]]),  # used to crash with OverflowError
    ("iss_cert", {**PLANT["iss_cert"], "c": float("inf")}),
    ("iss_cert", {**PLANT["iss_cert"], "g": float("nan")}),
    ("iss_cert", {**PLANT["iss_cert"], "a": float("inf")}),
], ids=["state_box", "c", "g", "a"])
def test_abstract_rejects_non_finite_plants(capsys, tmp_path, field, value):
    plant = _write(tmp_path, "plant.json", {**PLANT, field: value})
    _rejected(capsys, "abstract", "--system", plant, "--eta", "0.5", "--mu", "0.1",
              "--epsilon", "1.5", "--unsound")


@pytest.mark.parametrize("a", [5e-324, 6e-309], ids=["epsilon-over-a", "decay-term"])
@pytest.mark.parametrize("unsound", [[], ["--unsound"]], ids=["certified", "unsound"])
def test_abstract_refuses_an_overflowing_quantization_inequality(capsys, tmp_path, a,
                                                                 unsound):
    # c*lambda = 1.2 holds for no epsilon/a, but epsilon/a or the decay term
    # overflows: this used to exit 0 with "lhs": Infinity and "slack": NaN
    # or -Infinity, certified at a = 5e-324
    cert = {"c": 2.0, "lambda": 0.6, "g": 0.2857, "a": a}
    plant = _write(tmp_path, "plant.json", {**PLANT, "iss_cert": cert})
    _rejected(capsys, "abstract", "--system", plant, "--eta", "0.1", "--mu", "0.1",
              "--epsilon", "1", *unsound, reason="quantization inequality overflows")


@pytest.mark.parametrize("field,value", [
    ("state_box", [[0, 10 ** 400]]),  # an int past float range
    ("iss_cert", {**PLANT["iss_cert"], "c": "abc"}),
    ("iss_cert", {**PLANT["iss_cert"], "g": None}),
], ids=["state_box", "c", "g"])
def test_abstract_rejects_malformed_plant_numbers(capsys, tmp_path, field, value):
    # each used to crash with a Python error instead of a parse error
    plant = _write(tmp_path, "plant.json", {**PLANT, field: value})
    code, out, err = run(capsys, "abstract", "--system", plant, "--eta", "0.5",
                         "--mu", "0.1", "--epsilon", "1.5")
    assert (code, out) == (3, "") and err.startswith("error:"), err


@pytest.mark.parametrize("flag,value", [
    ("epsilon", "nan"),  # used to exit 0 with NaN in the report
    ("eta", "inf"),
    ("mu", "nan"),
])
def test_abstract_rejects_non_finite_quantization(capsys, tmp_path, flag, value):
    values = {"eta": "0.5", "mu": "0.1", "epsilon": "1.5", flag: value}
    _rejected(capsys, "abstract", "--system", _write(tmp_path, "plant.json", PLANT),
              "--unsound", *(f"--{key}={val}" for key, val in values.items()))


@pytest.mark.parametrize("dynamics,error", [
    ("1/x1", "ZeroDivisionError: float division by zero"),  # each used to exit 5
    ("exp(1000 + x1)", "OverflowError: math range error"),
    ("sin(x1*1e308*1e308)", "ValueError: math domain error"),  # sin(inf)
    ("0.5*x1 + 1/(x1 - 0.5)", "ZeroDivisionError: float division by zero"),
], ids=["division", "overflow", "sin-inf", "mid-grid-division"])
def test_expression_errors_are_domain_errors(capsys, tmp_path, dynamics, error):
    plant = _write(tmp_path, "faulty.json", {**PLANT, "dynamics": [dynamics]})
    barrier = _barrier_argv(tmp_path)
    barrier[barrier.index("--system") + 1] = plant
    abstract = ["abstract", "--system", plant, "--eta", "0.5", "--mu", "0.1",
                "--epsilon", "1.5", "--unsound"]
    for argv in (barrier, abstract):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), (argv, code, err)
        assert err.startswith(f"error: expression {dynamics!r} at state (")
        assert err.endswith(f"{error}\n"), err


def test_input_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    # used to exit 5 with a UnicodeDecodeError
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    barrier = _barrier_argv(tmp_path)
    barrier[barrier.index("--system") + 1] = str(bad)
    verify = ["verify", "--system", str(bad), "--notion", "initial-state", "--delta", "0"]
    for argv in (verify, barrier):
        assert run(capsys, *argv) == (3, "", "error: byte 0: not UTF-8 (invalid start byte)\n")


@pytest.mark.parametrize("value,message", [
    ("[" * 100000 + "]" * 100000, "$: nested too deeply"),
    pytest.param("1" + "0" * 5000, "$: an integer has too many digits",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no integer digit limit")),
], ids=["nested", "digits"])
def test_input_past_the_decoder_limits_is_a_parse_error(capsys, tmp_path, value, message):
    # each used to exit 5 with a RecursionError or a ValueError
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"a": {value}}}')
    barrier = _barrier_argv(tmp_path)
    barrier[barrier.index("--candidate") + 1] = str(bad)
    for argv in (["verify", "--system", str(bad), "--notion", "initial-state", "--delta", "0"],
                 ["abstract", "--system", str(bad), "--eta", "0.5", "--mu", "0.1",
                  "--epsilon", "1.5", "--unsound"],
                 barrier,
                 ["compose", "--system", str(bad)]):
        assert run(capsys, *argv) == (3, "", f"error: {message}\n"), argv


@pytest.mark.parametrize("depth", [1500, 5000])
def test_dynamics_nested_too_deeply_is_a_parse_error(capsys, tmp_path, depth):
    # used to exit 5 with a RecursionError
    dynamics = "-" * depth + "x1"
    plant = _write(tmp_path, "deep.json", {**PLANT, "dynamics": [dynamics]})
    assert run(capsys, "abstract", "--system", plant, "--eta", "0.5", "--mu", "0.1",
               "--epsilon", "1.5", "--unsound") == (
        3, "", f"error: expression {dynamics!r}: nested too deeply\n")


def test_compose_rejects_resolution_wider_than_a_part_of_an_initial_interval(
        capsys, tmp_path):
    # the initial conditions used to see no sample: all_passed, exit 2
    subs = {key: {**sub, "secret": [0.11, 0.19]} for key, sub in SUBS.items()}
    code, out, err = run(capsys, *_compose_argv(tmp_path, subs, FIVE))
    assert (code, out) == (3, "")
    assert err.endswith("of the initial-and-secret interval of subsystem 1\n"), err


def test_compose_rejects_resolution_wider_than_a_state_interval(capsys, tmp_path):
    # used to sample x = 0 only and report all_passed
    code, out, err = run(capsys, *_compose_argv(tmp_path, resolution="5"))
    assert (code, out) == (3, "") and "state interval" in err


@pytest.mark.parametrize("exc", [RuntimeError("boom"), InternalError("broken"),
                                 NotImplementedError("not a usage error")])
def test_unexpected_errors_exit_with_the_internal_code(capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    help_line, _, options = opacue.cli._COMMANDS["verify"]
    monkeypatch.setitem(opacue.cli._COMMANDS, "verify", (help_line, fail, options))
    code, out, err = run(capsys, "verify", "--system", C1, "--delta", "0",
                         "--notion", "initial-state")
    assert (code, out) == (5, "")
    assert err.startswith("internal error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_report_value_is_an_internal_error(capsys, monkeypatch, tmp_path,
                                                         value):
    # a report is JSON: a NaN or an infinity that reaches one is a defect,
    # never a verdict's exit code over a report no JSON reader accepts
    compositional = importlib.import_module("opacue.compositional")
    real = compositional.small_gain
    monkeypatch.setattr(compositional, "small_gain", lambda sub1, sub2: dataclasses.replace(
        real(sub1, sub2), product=value))
    code, out, err = run(capsys, "compose", "--system", _write(tmp_path, "ic.json", SUBS))
    assert (code, out) == (5, "")
    assert err.startswith("internal error: ValueError:") and err.count("\n") == 1, err


def test_source_has_no_assert_statements():
    # python -O strips asserts; internal checks raise InternalError instead
    src = Path(opacue.cli.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_source_generates_code_only_from_validated_inputs():
    # eval/exec/compile run only on checked expressions and polynomial exponents
    src = Path(opacue.cli.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             if path.name not in ("expr.py", "polynomial.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("eval", "exec", "compile")]
    assert found == []


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 3


def test_console_script_entry_point():
    import subprocess
    import sys as _sys

    proc = subprocess.run(
        [_sys.executable, "-m", "opacue.cli", "verify", "--system", C2,
         "--notion", "initial-state", "--delta", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["opaque"] is True
    assert proc.stderr == ""


def _abstract_argv(tmp_path, *more):
    return ["abstract", "--system", _write(tmp_path, "plant.json", PLANT),
            "--eta", "0.1", "--mu", "0.1", "--epsilon", "1.0", *more]


@pytest.mark.parametrize("argv", [
    lambda tmp, out: _abstract_argv(tmp, "--out", out),
    lambda tmp, out: ["observer", "--system", C1, "--delta", "0", "--export-dot", out],
    lambda tmp, out: ["estimator", "--system", C1, "--delta", "0", "--export-dot", out],
], ids=["abstract", "observer", "estimator"])
def test_unwritable_output_path_is_usage_error(capsys, tmp_path, argv):
    # used to print "internal error: FileNotFoundError" and exit 5
    out_path = str(tmp_path / "no" / "such" / "dir" / "x.out")
    code, out, err = run(capsys, *argv(tmp_path, out_path))
    assert (code, out) == (3, "")
    assert err == f"error: {out_path}: No such file or directory\n"


def test_abstract_serializes_only_what_it_writes(capsys, monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, ["opacue.system", "opacue.cli"], "serialize_system")
    code, out, _ = run(capsys, *_abstract_argv(tmp_path))
    assert code == 0 and json.loads(out)["written_to"] is None and len(calls) == 0
    out_path = tmp_path / "abs.json"
    code, out, _ = run(capsys, *_abstract_argv(tmp_path, "--out", str(out_path)))
    assert code == 0 and len(calls) == 1
    assert parse_system(out_path.read_text()).n_states == json.loads(out)["states"]


@pytest.mark.parametrize("argv", [
    lambda tmp: _compose_argv(tmp, cap="5"),
    lambda tmp: ["compose", "--system", _write(tmp, "ic.json", SUBS), "--cap", "5"],
    lambda tmp: _barrier_argv(tmp, cap="5"),
], ids=["compose-barriers", "compose-gains", "barrier"])
def test_cap_is_an_unknown_flag_where_nothing_searches(capsys, tmp_path, argv):
    # used to be accepted and ignored
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out) == (3, "") and "--cap" in err


def test_simrel_checks_the_cap_without_delta(capsys, monkeypatch):
    # used to exit 0: the cap was read only with --delta
    calls = _count_calls(monkeypatch, ["opacue.simrel"], "max_initsop_relation")
    code, out, err = run(capsys, "simrel", "--system", C2, "--abstract", C2,
                         "--epsilon", "0", "--cap", "-3")
    assert (code, out, calls) == (3, "", []) and "--cap=-3" in err


@pytest.mark.parametrize("delta", [[], ["--delta", "0"]], ids=["relation", "transfer"])
def test_simrel_counts_the_printed_pairs_against_the_cap(capsys, delta):
    # a relation past the cap used to be rendered whatever its size
    argv = ["simrel", "--system", C2, "--abstract", C2, "--epsilon", "0", *delta]
    code, full, _ = run(capsys, *argv)
    count = len(json.loads(full)["pairs"])
    assert run(capsys, *argv, "--cap", str(count)) == (code, full, "") and code == 0
    code, out, err = run(capsys, *argv, "--cap", str(count - 1))
    assert (code, out) == (4, "")
    assert err == f"error: relation exceeds the cap of {count - 1} pairs\n"


@pytest.mark.parametrize("field,value", [
    ("iss_cert", {**PLANT["iss_cert"], "c": True}),
    ("iss_cert", {**PLANT["iss_cert"], "lambda": "0.5"}),
    ("dim", True),
], ids=["c-bool", "lambda-string", "dim-bool"])
def test_abstract_rejects_plant_numbers_that_are_not_json_numbers(capsys, tmp_path,
                                                                  field, value):
    # each used to be read as 1.0, 0.5 and 1 and certified, exit 0
    plant = _write(tmp_path, "plant.json", {**PLANT, field: value})
    code, out, err = run(capsys, "abstract", "--system", plant, "--eta", "0.5",
                         "--mu", "0.1", "--epsilon", "1.5")
    assert (code, out) == (3, "") and err.startswith("error:"), err

"""The package namespace and the modules each entry point loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opacue

from .test_cli import C1, C2, _barrier_argv

# Every public name of `opacue`, by defining module, as the package exported
# them when its __init__ imported all of them eagerly.
PUBLIC = {
    "abstraction": "Abstraction build_abstraction sample_system",
    "api": "verify_opacity",
    "barrier": "AugmentedRegions CheckReport build_regions check_lack_barrier "
               "check_opacity_barrier",
    "boxes": "Box BoxUnion grid",
    "brute": "brute_force_opacity confirm_witness",
    "compositional": "GainReport LinearSubsystem compose_barriers "
                     "interconnect small_gain",
    "control": "DtControlSystem IssCertificate QuantizationParams affine_certificate "
               "evaluate_quantization_inequality parse_control_system",
    "delayed": "product_opacity verify_delayed_opacity",
    "errors": "DimensionError DomainError OpacueError ParseError "
              "PrecisionError QuantizationError ResourceError SmallGainError "
              "ValidationError",
    "estimator": "InitialStateEstimator build_initial_estimator estimator_verdict",
    "observer": "DEFAULT_STATE_CAP Observer build_observer observer_verdict "
                "verify_state_opacity",
    "polynomial": "Polynomial parse_polynomial",
    "simrel": "AbstractionStatus AbstractionVerdict SimRelation SimReport "
              "check_relation max_initsop_relation opacity_via_abstraction",
    "system": "MetricSystem NotionKind OpacityNotion delta_close parse_system "
              "serialize_system",
    "verdict": "Verdict Witness",
}
PUBLIC_NAMES = [(module, name) for module, names in PUBLIC.items()
                for name in names.split()]

# What `import opacue.cli` loads: the package, the CLI, and the modules the
# CLI imports at module level with theirs.
CLI_MODULES = {"opacue", "opacue.cli", "opacue.errors", "opacue.system",
               "opacue.observer", "opacue.search", "opacue.verdict"}
CONTINUOUS_MODULES = {"opacue.compositional", "opacue.barrier", "opacue.control",
                      "opacue.expr", "opacue.polynomial", "opacue.abstraction",
                      "opacue.boxes", "opacue.simrel", "opacue.dotexport"}


def test_all_lists_exactly_the_public_names():
    assert opacue.__all__ == sorted(name for _, name in PUBLIC_NAMES)
    assert set(opacue.__all__) <= set(dir(opacue))


@pytest.mark.parametrize("module,name", PUBLIC_NAMES)
def test_public_name_is_the_defining_modules_object(module, name):
    defined = getattr(importlib.import_module(f"opacue.{module}"), name)
    assert getattr(opacue, name) is defined
    namespace: dict = {}
    exec(f"from opacue import {name}", namespace)
    assert namespace[name] is defined


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        opacue.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from opacue import no_such_name", {})


def _loaded_after(code: str) -> tuple[set[str], object]:
    """The `opacue` modules loaded in a fresh interpreter after `code` has
    run, and the value `code` left in `result`."""
    script = (f"import json, sys\nresult = None\n{code}\n"
              "print(json.dumps([sorted(n for n in sys.modules "
              "if n == 'opacue' or n.startswith('opacue.')), result]))")
    src = str(Path(opacue.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules, result = json.loads(proc.stdout.splitlines()[-1])
    return set(modules), result


def _main_codes(*argvs) -> str:
    return ("import contextlib, io\nfrom opacue.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    result = [main(argv) for argv in {list(map(list, argvs))!r}]")


def test_import_opacue_loads_no_submodule():
    assert _loaded_after("import opacue")[0] == {"opacue"}


def test_import_cli_loads_only_the_finite_core():
    assert _loaded_after("import opacue.cli")[0] == CLI_MODULES


def test_import_abstraction_loads_no_finite_decision_layer():
    modules = _loaded_after("import opacue.abstraction")[0]
    assert "opacue.abstraction" in modules
    assert modules & {"opacue.observer", "opacue.brute", "opacue.search"} == set()


def test_verify_loads_no_continuous_layer():
    argvs = [["verify", "--system", system, "--notion", notion, "--delta", "0",
              "--oracle", *extra]
             for system in (C1, C2)
             for notion, extra in (("initial-state", []), ("current-state", []),
                                   ("k-step", ["--k", "2"]), ("infinite-step", []))]
    modules, codes = _loaded_after(_main_codes(*argvs))
    assert set(codes) <= {0, 1} and 1 in codes
    assert "opacue.delayed" in modules  # k-step and infinite-step ran
    assert modules & CONTINUOUS_MODULES == set()


def test_plain_verify_loads_no_oracle():
    argvs = [["verify", "--system", system, "--notion", notion, "--delta", "0", *extra]
             for system in (C1, C2)
             for notion, extra in (("initial-state", []), ("current-state", []),
                                   ("k-step", ["--k", "2"]), ("infinite-step", []))]
    modules, codes = _loaded_after(_main_codes(*argvs))
    assert set(codes) <= {0, 1} and 1 in codes
    assert "opacue.delayed" in modules  # k-step and infinite-step ran
    assert modules & {"opacue.brute", "opacue.estimator"} == set()


def test_barrier_loads_no_finite_decision_layer(tmp_path):
    modules, codes = _loaded_after(_main_codes(_barrier_argv(tmp_path)))
    assert codes == [2]
    assert "opacue.barrier" in modules
    assert modules & {"opacue.simrel", "opacue.delayed"} == set()

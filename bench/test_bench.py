"""Self-tests of the benchmark. Run: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    gen = workloads.GENERATORS[name]
    dirs = {}
    for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
        dirs[tag] = tmp_path / tag
        dirs[tag].mkdir()
        list(gen(seed, dirs[tag]))
    assert _files(dirs["a"]) and _files(dirs["a"]) == _files(dirs["b"])
    assert _files(dirs["a"]) != _files(dirs["c"])


@pytest.fixture
def small_pools(monkeypatch):
    """Cut every pool to its first three queries, generated in this
    process, so a run takes seconds."""
    for name, gen in list(workloads.GENERATORS.items()):
        monkeypatch.setitem(workloads.GENERATORS, name,
                            lambda seed, wd, gen=gen: islice(gen(seed, wd), 3))
    monkeypatch.setattr(run, "generate_apart", run.generate)


@pytest.mark.parametrize("name", ["finite-revealing", "certificates"])
def test_pool_generated_apart_equals_pool_generated_here(tmp_path, name):
    here, apart = tmp_path / "here", tmp_path / "apart"
    here.mkdir()
    apart.mkdir()
    made_here = run.generate(name, 5, here)
    made_apart = run.generate_apart(name, 5, apart)
    flat_here = [made_here[0]] + made_here[1]
    flat_apart = [made_apart[0]] + made_apart[1]
    assert ([q.label for q in flat_here] == [q.label for q in flat_apart]
            and len(flat_here) > 1)
    for a, b in zip(flat_here, flat_apart):
        assert a.check.args == b.check.args
        assert str(a.argvs).replace(str(here), str(apart)) == str(b.argvs)
    assert _files(here) == {k: v for k, v in _files(apart).items()
                            if k != run.POOL_FILE}


def _run(name, trace=False, issuer=run.issue):
    return run.run_workload(name, seed=1, seconds=0, trace=trace, min_passes=1,
                            min_queries=1, issuer=issuer)


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_metric_names_match_benchmark_json(small_pools, name):
    plain = _run(name)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    traced = _run(name, trace=True)
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for result in (plain, traced):
        for key, metric in result["metrics"].items():
            assert metric["unit"] == units[key]


def _flip_exit(main, query):
    codes, outs, error, took = run.issue(main, query)
    return [{0: 1, 1: 0}.get(c, c) for c in codes], outs, error, took


def _corrupt_witness(main, query):
    codes, outs, error, took = run.issue(main, query)
    doc = json.loads(outs[0])
    if doc.get("witness"):
        doc["witness"]["states"] = doc["witness"]["states"][:1] * len(
            doc["witness"]["states"])
        outs = [json.dumps(doc)] + outs[1:]
    return codes, outs, error, took


def _move_barrier_witness(main, query):
    codes, outs, error, took = run.issue(main, query)
    doc = json.loads(outs[0])
    if isinstance(doc.get("witness"), dict) and "point" in doc["witness"]:
        doc["witness"]["point"] = [0.5, 0.5]
        outs = [json.dumps(doc)]
    return codes, outs, error, took


@pytest.mark.parametrize("name,issuer", [
    ("finite-opaque", _flip_exit),
    ("abstraction", _flip_exit),
    ("finite-revealing", _corrupt_witness),
])
def test_wrong_answers_raise_failed_fraction(small_pools, name, issuer):
    result = _run(name, issuer=issuer)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_moved_certificate_witness_is_caught(monkeypatch):
    # the "initial" and "unsafe" falsifications of the opacity kind
    gen = workloads.GENERATORS["certificates"]
    monkeypatch.setitem(workloads.GENERATORS, "certificates",
                        lambda seed, wd: islice(gen(seed, wd), 1, 3))
    result = _run("certificates", issuer=_move_barrier_witness)
    assert result["failed"] > 0


def test_tracer_patches_every_binding_and_restores():
    cli = run._import_cli()
    import opacue.api
    import opacue.delayed
    import opacue.observer
    import opacue.simrel

    bindings = [(opacue.api, "verify_state_opacity"),
                (opacue.simrel, "verify_state_opacity"),
                (opacue.delayed, "build_observer"),
                (cli, "build_observer"),
                (opacue.observer, "build_observer")]
    before = [getattr(m, a) for m, a in bindings]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, attr), original in zip(bindings, before):
            assert getattr(module, attr) is not original
            assert getattr(module, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    assert [getattr(m, a) for m, a in bindings] == before


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans[:] = [(0, "cli", 0.0, 10.0, None, 0),
                       (1, "observer.check", 1.0, 9.0, 0, 0),
                       (2, "observer.build", 2.0, 7.0, 1, 0)]
    assert tracer.self_times() == {"cli": 2.0, "observer.check": 3.0,
                                   "observer.build": 5.0}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + [
            "--workload", "abstraction", "--seed", "1", "--seconds", "1",
            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

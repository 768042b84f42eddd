#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the `opacue` command line.

    python3 bench/run.py                      # all workloads, seed 1
    python3 bench/run.py --workload finite-opaque --seed 3 --seconds 12 --trace 0

Each query is an in-process call of `opacue.cli.main(argv)` with stdout
captured, issued in a closed loop by one caller: the next query starts when
the previous one returns. A run makes whole passes over its workload's
query pool until `--seconds` have passed, at least MIN_PASSES passes are
done and at least MIN_QUERIES queries were issued. The pool and its input
files are generated by a child process, so that the brute-force reference
searches are not part of this process's peak RSS. Every answer is checked
against a reference after the timed region (see workloads.py).

Times are reported in reference-host seconds: each measured wall time is
divided by the host slowdown that a fixed reference loop shows right before
and right after it (see `host_slowdown`). On a shared host, other tenants slow every
process by 1.5-2x for minutes at a time; the ratio of a query's time to the
reference loop's stays within a few percent while raw times drift.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics instead (see spans.py).
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Without `--workload` every workload
runs in a child process of its own and a combined JSON line ends the output.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import pickle
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# Each query's time is the median of its repeats, one per pass. A run also
# issues at least MIN_QUERIES queries, so that ten or more lie beyond p90.
MIN_PASSES = 4
MIN_QUERIES = 100
SETUP_REPEATS = 15
# Measuring stops at this wall time even mid-pass, so a run ends in time.
DEADLINE_S = 120.0
WORK = ROOT / ".bench_work"
POOL_FILE = "pool.pickle"
SPAN_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "query_s_p50": "s",
    "query_s_p90": "s",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The reference loop, and its fastest time on an undisturbed 2.1 GHz Xeon
# vCPU under Python 3.11 (the host the baseline was recorded on).
REFERENCE_ITERATIONS = 20_000
REFERENCE_QUIET_S = 0.00205


def _reference_loop() -> int:
    """Two kinds of pure-Python work in about equal parts: integer
    arithmetic, and hashing small frozensets into a dict, as the observer
    constructions do. Co-tenants slow the two kinds by different amounts,
    and a mix of both tracks the program's slowdown better than either."""
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    seen: dict = {}
    for i in range(REFERENCE_ITERATIONS * 3 // 20):
        key = frozenset((i % 97, i % 89, i % 83))
        seen[key] = seen.get(key, 0) + 1
    return total + len(seen)


def host_slowdown() -> float:
    """How much slower than undisturbed the host runs right now: the median
    of five timings of the reference loop over its undisturbed time."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_QUIET_S


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class BenchError(Exception):
    """The benchmark cannot run here (for example, no sources to test)."""


# -- the program under test ----------------------------------------------------


def _purge_opacue() -> None:
    for name in [n for n in sys.modules if n == "opacue" or n.startswith("opacue.")]:
        del sys.modules[name]


def _import_cli():
    """Import `opacue.cli` from this checkout's `src/`, and nowhere else."""
    src = ROOT / "src"
    if not (src / "opacue" / "cli.py").is_file():
        raise BenchError(f"no opacue sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("opacue.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise BenchError(f"opacue imported from {cli.__file__}, not {src}")
    return cli


def issue(main: Callable, query: workloads.Query):
    """Run one query; return (exit codes, stdouts, error, seconds in main)."""
    codes: list[Optional[int]] = []
    outs: list[str] = []
    took = 0.0
    for argv in query.argvs:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = main(list(argv))
            except Exception as exc:  # a crash is a failed query, not a crash here
                took += time.perf_counter() - start
                return codes + [None], outs + [out.getvalue()], repr(exc), took
            took += time.perf_counter() - start
        codes.append(code)
        outs.append(out.getvalue())
        if code not in (0, 1, 2):
            break
    return codes, outs, None, took


def judge(query: workloads.Query, codes, outs, error) -> Optional[str]:
    """None if the answers are right, else why not."""
    if error is not None:
        return f"raised {error}"
    if len(codes) != len(query.argvs) or any(c not in (0, 1, 2) for c in codes):
        return f"exit codes {codes}"
    try:
        return query.check(codes, outs)
    except Exception as exc:  # malformed output
        return f"answer could not be checked: {exc!r}"


# -- one run ------------------------------------------------------------------


class Passes:
    """Per-query timings and distinct outcomes over repeated pool passes."""

    def __init__(self, size: int) -> None:
        self.times: list[list[float]] = [[] for _ in range(size)]
        self.slowdowns: list[float] = []
        self.outcomes: list[dict] = [{} for _ in range(size)]
        self.issued = 0
        self.wall_in_main = 0.0  # raw seconds, for layer shares
        self.normalized_in_main = 0.0  # reference-host seconds

    def run(self, main: Callable, pool, order, deadline: float,
            issuer: Callable = issue) -> None:
        """One pass in `order`; stops early at `deadline`.

        Each query's wall time is divided by the mean host slowdown measured
        just before and just after it.
        """
        slowdowns = [host_slowdown()]
        samples = []
        for idx in order:
            codes, outs, error, took = issuer(main, pool[idx])
            slowdowns.append(host_slowdown())
            samples.append((idx, took))
            self.wall_in_main += took
            key = (tuple(codes), error, tuple(outs))
            self.outcomes[idx][key] = self.outcomes[idx].get(key, 0) + 1
            self.issued += 1
            if time.perf_counter() >= deadline:
                break
        for (idx, took), before, after in zip(samples, slowdowns, slowdowns[1:]):
            slowdown = (before + after) / 2
            self.times[idx].append(took / slowdown)
            self.normalized_in_main += took / slowdown
            self.slowdowns.append(slowdown)

    def typical(self) -> list[float]:
        """Median reference-host time of every query issued at least once."""
        return [statistics.median(t) for t in self.times if t]

    def failures(self, pool) -> tuple[int, list[str]]:
        failed, reasons = 0, []
        for idx, outcomes in enumerate(self.outcomes):
            for (codes, error, outs), count in outcomes.items():
                reason = judge(pool[idx], list(codes), list(outs), error)
                if reason is not None:
                    failed += count
                    reasons.append(f"{pool[idx].label}: {reason}")
        return failed, reasons


def generate(name: str, seed: int, workdir: Path):
    """The fixed warm-up query and the seeded pool, with their input files
    written under `workdir`. The finite workloads run brute force here."""
    warm_dir = workdir / "warmup"
    warm_dir.mkdir()
    warm = next(iter(workloads.GENERATORS[name](workloads.WARMUP_SEED, warm_dir)))
    return warm, list(workloads.GENERATORS[name](seed, workdir))


def generate_apart(name: str, seed: int, workdir: Path):
    """`generate` in a child process, so that the reference searches it runs
    do not count in the peak RSS of the process that measures."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--generate-into", str(workdir)],
        stdout=subprocess.DEVNULL, check=False)
    if proc.returncode != 0:
        raise BenchError(f"generating {name} failed (exit {proc.returncode})")
    with (workdir / POOL_FILE).open("rb") as fh:
        return pickle.load(fh)


def _setup(warm: workloads.Query, repeats: int, issuer: Callable):
    """Import `opacue.cli` afresh and run the warm-up query, `repeats` times.

    Returns (cli module, median seconds, the warm-up's distinct outcomes).
    """
    times, outcomes = [], set()
    for _ in range(repeats):
        _purge_opacue()
        slowdown = host_slowdown()
        start = time.perf_counter()
        cli = _import_cli()
        codes, outs, error, _ = issuer(cli.main, warm)
        times.append((time.perf_counter() - start) / slowdown)
        outcomes.add((tuple(codes), tuple(outs), error))
    return cli, statistics.median(times), outcomes


def _warm_failure(warm: workloads.Query, outcomes) -> Optional[str]:
    """Why an answer to the warm-up query is wrong, or None."""
    for codes, outs, error in outcomes:
        reason = judge(warm, list(codes), list(outs), error)
        if reason is not None:
            return reason
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_passes: int = MIN_PASSES, min_queries: int = MIN_QUERIES,
                 issuer: Callable = issue) -> dict:
    """Generate, set up, measure and check one workload; return the result."""
    if name not in workloads.GENERATORS:
        raise BenchError(f"unknown workload {name!r}")
    _import_cli()  # fail before generating anything when there is no program
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        warm, pool = generate_apart(name, seed, workdir)
        order = list(range(len(pool)))
        random.Random(seed).shuffle(order)
        cli, setup_s, warm_outcomes = _setup(
            warm, 1 if trace else SETUP_REPEATS, issuer)
        rss_after_setup_mb = _peak_rss_mb()
        if trace:
            return _traced(name, seed, seconds, pool, order, cli,
                           _warm_failure(warm, warm_outcomes), issuer)
        runs = Passes(len(pool))
        start = time.perf_counter()
        deadline = start + DEADLINE_S
        passes = 0
        while True:
            runs.run(cli.main, pool, order, deadline, issuer)
            passes += 1
            wall = time.perf_counter() - start
            if wall >= DEADLINE_S or (wall >= seconds and passes >= min_passes
                                      and runs.issued >= min_queries):
                break
        peak_rss_mb = _peak_rss_mb()
        # references run from here on, after the peak is read
        warm_reason = _warm_failure(warm, warm_outcomes)
        failed, reasons = runs.failures(pool)
        if warm_reason:
            failed += 1
            reasons.append(f"warm-up: {warm_reason}")
        attempted = runs.issued + 1
        typical = runs.typical()
        values = {
            "query_s_p50": statistics.median(typical),
            "query_s_p90": statistics.quantiles(typical, n=10, method="inclusive")[8],
            "queries_per_s": runs.issued / runs.normalized_in_main,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"workload {name} seed {seed}: {len(pool)} distinct queries, "
          f"{passes} passes, {runs.issued} issued in {wall:.1f} s "
          f"(closed loop, one caller, one process)")
        slow = statistics.quantiles(runs.slowdowns, n=4)
        print(f"  host slowdown seen by the reference loop: median "
              f"{statistics.median(runs.slowdowns):.2f}x, quartiles "
              f"{slow[0]:.2f}x-{slow[2]:.2f}x; times below are divided by it")
        notes = {
            "query_s_p50": f"median over {len(typical)} queries of each one's "
                           f"median of {passes} repeats",
            "query_s_p90": f"90th percentile of the same {len(typical)} values",
            "queries_per_s": f"{runs.issued} issued queries / their summed "
                             f"time in main, each divided by its slowdown",
            "setup_s": f"median of {SETUP_REPEATS} fresh imports + warm-up query",
            "peak_rss_mb": f"ru_maxrss of this process ({rss_after_setup_mb:.1f} "
                           f"MB when set-up ended); inputs were generated apart",
        }
        for key, value in values.items():
            print(f"  {key:<14} {value:12.6f} {END_TO_END_UNITS[key]:<4} {notes[key]}")
        print(f"  {'failed_frac':<14} {failed / attempted:12.6f} ratio "
          f"{failed} failed of {attempted} attempted")
        for line in reasons[:20]:
            print(f"  FAILED {line}")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in values.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


# Predictions from the benchmark's design: (workload, description, test).
PREDICTIONS = [
    ("finite-opaque", "observer.build share of query time >= 0.80",
     lambda share, per_pass, pool: share["observer.build"] >= 0.80),
    ("finite-revealing", "observer.build share of query time >= 0.80",
     lambda share, per_pass, pool: share["observer.build"] >= 0.80),
    ("certificates", "observer.* is 0",
     lambda share, per_pass, pool: all(
         v == 0 for k, v in per_pass.items() if k.startswith("observer."))),
    ("abstraction", "simrel.relation_calls == 2 x queries",
     lambda share, per_pass, pool: per_pass["simrel.relation_calls"] == 2 * pool),
]

SHARE_LAYERS = [spans.ROOT] + list(dict.fromkeys(name for _, _, name, _ in spans.SPANS))


def _traced(name, seed, seconds, pool, order, cli, warm_reason, issuer):
    """Alternate untraced and traced passes (ABBA order, so neither side
    always runs first); report per-layer metrics per pass."""
    plain, traced = Passes(len(pool)), Passes(len(pool))
    tracer = spans.Tracer()
    root = tracer.wrap(spans.ROOT, cli.main, {})

    def traced_issue(main, query):
        tracer.query = traced.issued
        return issuer(main, query)

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    n_traced = 0
    while True:
        if n_traced % 2 == 0:
            plain.run(cli.main, pool, order, deadline, issuer)
        tracer.install()
        try:
            traced.run(root, pool, order, deadline, traced_issue)
        finally:
            tracer.uninstall()
        if n_traced % 2 == 1:
            plain.run(cli.main, pool, order, deadline, issuer)
        n_traced += 1
        wall = time.perf_counter() - start
        if wall >= seconds or wall >= DEADLINE_S:
            break
    tracer.write(SPAN_DIR / f"spans-{name}-seed{seed}.jsonl")

    failed_plain, reasons = plain.failures(pool)
    failed_traced, reasons_traced = traced.failures(pool)
    failed = failed_plain + failed_traced + (1 if warm_reason else 0)
    attempted = plain.issued + traced.issued + 1
    self_s = {k: v / n_traced for k, v in tracer.self_times().items()}
    counts = {k: v // n_traced for k, v in tracer.counts.items()}  # same every pass
    layers = spans.layer_metrics(self_s, counts)
    query_s = traced.wall_in_main / n_traced
    overhead = sum(traced.typical()) / sum(plain.typical()) - 1
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layers.items()}
    metrics["trace.query_s"] = {"value": query_s, "unit": "s"}
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}

    print(f"traced workload {name} seed {seed}: {len(pool)} queries per pass, "
           f"{n_traced} traced and {n_traced} untraced passes; values per pass")
    print(f"  tracing overhead {overhead:+.1%} (traced / untraced reference-host times)")
    print(f"  {'layer':<22} {'self s':>10} {'share':>7}")
    share = {}
    for layer in SHARE_LAYERS:
        share[layer] = self_s.get(layer, 0.0) / query_s if query_s else 0.0
        print(f"  {layer:<22} {self_s.get(layer, 0.0):10.4f} {share[layer]:7.1%}")
    print(f"  {'sum':<22} {sum(self_s.get(k, 0.0) for k in SHARE_LAYERS):10.4f} "
           f"{sum(share.values()):7.1%} of {query_s:.4f} s traced query time")
    for key, (value, unit) in layers.items():
        if unit == "count":
            print(f"  {key:<26} {value:14.1f}")
    per_pass = {k: v for k, (v, _) in layers.items()}
    for workload, text, test in PREDICTIONS:
        if workload == name:
            verdict = "agrees" if test(share, per_pass, len(pool)) else "DISAGREES"
            print(f"  prediction on {workload}: {text} -> {verdict}")
    for line in (reasons + reasons_traced)[:20]:
        print(f"  FAILED {line}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# -- command line -------------------------------------------------------------


def _run_all(args) -> int:
    """Each workload in a child process of its own, one after another."""
    results = {}
    for name in workloads.GENERATORS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 2
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.GENERATORS), default=None,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate-into", type=Path, default=None,
                        help="only generate --workload's pool into this "
                             "directory (the child that `generate_apart` starts)")
    args = parser.parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.generate_into is not None:
            if args.workload is None:
                raise BenchError("--generate-into needs --workload")
            _import_cli()
            made = generate(args.workload, args.seed, args.generate_into)
            with (args.generate_into / POOL_FILE).open("wb") as fh:
                pickle.dump(made, fh)
            return 0
        if args.workload is None:
            _import_cli()
            return _run_all(args)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

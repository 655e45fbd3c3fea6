"""ltlgen benchmark: closed-loop test-generation workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--runs R]

Each workload runs one engine call per seed, ``seed .. seed+R-1``, back to
back in one thread; the next call starts only when the last returns.  With
``--trace 0`` the seed set is swept repeatedly for ``--seconds`` with no
wrappers installed and the end-to-end metrics are reported.  With
``--trace 1`` the first seeds of the set are swept once untraced, once with
span wrappers, once with layer counters and once under cProfile, and the
per-layer metrics are reported.  Every returned test is replayed and checked
against the brute-force trace semantics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a JSON record of the environment and run details.  Spans, the profile table
and the record are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import importlib
import io
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

from hostspeed import SpeedProbe
from tracing import LAYER_FUNCTIONS, LayerCounters, Patches, SpanRecorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODELS = ROOT / "models"
OUT = BENCH / "out"

# Formula texts as used by the test suite (NEEDLE_B and GO_ABOUT_AND_BACK).
NEEDLE_B = (
    "X (([actionType=click] & [activity~Vault1])"
    " & X (([actionType=click] & [activity~Vault2])"
    " & X ([actionType=click] & [activity~Treasure])))"
)
GO_ABOUT_AND_BACK = (
    "X ([activity~Main] U ([activity~About] & X ([activity~About] U [activity~Main])))"
)


@dataclass(frozen=True)
class Workload:
    model: str
    formula: str
    engine: str  # function name in ltlgen.engine
    runs: int  # seeds per sweep
    trace_runs: int  # seeds in each traced sweep


WORKLOADS = {
    # Screening prunes (about half of the screened actions survive); next-only
    # formula, so expand does no work.
    "needle-learn": Workload("needle", NEEDLE_B, "generate", 1500, 150),
    # No screening or learning: projection, model steps and labeling dominate;
    # a third of the runs use the whole episode budget.
    "needle-random": Workload("needle", NEEDLE_B, "random_policy_generate", 800, 60),
    # Nested untils unrolled every step; screening runs but prunes nothing;
    # short runs, so per-run and per-episode fixed costs weigh more.
    "chesswalk-learn": Workload("chesswalk_abstract", GO_ABOUT_AND_BACK, "generate", 4000, 300),
}

END_TO_END_UNITS = {
    "steps_per_s": "steps/s",
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "steps_to_test_p50": "steps",
    "solve_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
COUNTER_UNITS = {
    "engine.prune_and_predict.screened": "actions",
    "engine.prune_and_predict.survivor_ratio": "fraction",
    "engine.prune_and_predict.dead_ends": "count",
    "engine.prune_and_predict.shortcuts": "count",
    "engine.prune_and_predict.distinct_keys": "count",
    "progression.projection.distinct_keys": "count",
    "engine.learn.elig_per_call": "decisions",
    "engine.learn.distinct_decisions": "decisions/run",
}
PER_LAYER_UNITS = {
    **{
        f"{name}.{suffix}": unit
        for name in LAYER_FUNCTIONS
        for suffix, unit in (("calls", "count"), ("ns_per_call", "ns"), ("self_share", "fraction"))
    },
    **COUNTER_UNITS,
    "trace_overhead": "ratio",
}

SETUP_REPEATS = 25
TAIL_BEYOND = 10  # the tail percentile leaves at least this many runs beyond it


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


@dataclass(frozen=True)
class Row:
    """What one engine call returned, as compared across sweeps and processes."""

    seed: int
    outcome: str
    episodes: int
    steps: int
    test: tuple | None
    problem: str | None = None

    def key(self) -> list:
        test = None if self.test is None else [a.describe() for a in self.test]
        return [self.seed, self.outcome, self.episodes, self.steps, test]


def set_up(workload: Workload):
    """Import ``ltlgen`` from this checkout, build the CLI parser, load the
    model and parse the formula, ``SETUP_REPEATS`` times; keep the last.
    Returns the median set-up time scaled to the reference host speed and
    the raw median."""
    if not (SRC / "ltlgen" / "__init__.py").is_file():
        raise BenchError(f"no ltlgen package under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    probe = SpeedProbe(interval_s=0.0)
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "ltlgen" or m.startswith("ltlgen.")]:
            del sys.modules[name]
        probe.before_call()
        begin = perf_counter()
        package = importlib.import_module("ltlgen")
        importlib.import_module("ltlgen.cli").build_parser()
        model = package.load_model(MODELS / f"{workload.model}.json")
        phi = package.parse(workload.formula)
        times.append(perf_counter() - begin)
    probe.end()
    if Path(package.__file__).resolve().parent != SRC / "ltlgen":
        raise BenchError(f"imported ltlgen from {package.__file__}, not from {SRC}")
    scaled = [t * scale for t, scale in zip(times, probe.scales())]
    return package, model, phi, statistics.median(scaled), statistics.median(times)


def sweep(engine_fn, config_cls, model, phi, seeds, on_run=None):
    """One closed-loop pass: per-seed wall seconds and returned rows."""
    times: list[float] = []
    rows: list[Row] = []
    for seed in seeds:
        if on_run is not None:
            on_run(seed)
        config = config_cls(seed=seed)
        begin = perf_counter()
        try:
            result = engine_fn(model, phi, config)
        except Exception as exc:  # a raising run is a failed operation, not a crash
            times.append(perf_counter() - begin)
            rows.append(Row(seed, "raised", 0, 0, None, f"{type(exc).__name__}: {exc}"))
            continue
        times.append(perf_counter() - begin)
        rows.append(summarise(result, seed, config.episodes))
    return times, rows


def summarise(result, seed: int, budget: int) -> Row:
    stats = result.stats
    test = None if result.test is None else tuple(result.test)
    problem = None
    if stats.episodes != len(result.episodes) or stats.steps != sum(
        len(log.steps) for log in result.episodes
    ):
        problem = "run statistics disagree with the episode logs"
    elif test is None and (stats.outcome != "exhausted" or stats.episodes != budget):
        problem = f"no test, outcome {stats.outcome!r} after {stats.episodes} of {budget} episodes"
    return Row(seed, stats.outcome, stats.episodes, stats.steps, test, problem)


def check(package, model, phi, row: Row) -> str | None:
    """Replay a returned test at the run's seed and evaluate its labeling
    trace with the brute-force semantics, independent of projection."""
    if row.problem is not None or row.test is None:
        return row.problem
    try:
        log = package.replay(model, row.test, phi, seed=row.seed)
        trace = [step.labels for step in log.steps]
        holds = package.progression.evaluate(trace, 0, phi)
    except Exception as exc:  # a test that cannot be replayed fails the check
        return f"replay raised {type(exc).__name__}: {exc}"
    if log.outcome != "satisfied" or len(log.steps) != len(row.test):
        return f"replay ended {log.outcome!r} after {len(log.steps)} of {len(row.test)} actions"
    if not holds:
        return "replayed trace does not satisfy the formula"
    return None


class Tally:
    """Attempted and failed engine calls; a call fails if it raises, its
    test fails the check, or it disagrees with the first sweep of its seed."""

    def __init__(self, package, model, phi) -> None:
        self._inputs = (package, model, phi)
        self.reference: dict[int, list] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, rows: list[Row]) -> None:
        for row in rows:
            self.attempted += 1
            problem = check(*self._inputs, row)
            expected = self.reference.setdefault(row.seed, row.key())
            if problem is None and row.key() != expected:
                problem = "result differs from an earlier run of the same seed"
            if problem is not None:
                self.failures.append(f"seed {row.seed}: {problem}")


def digest(rows: list[Row]) -> str:
    text = json.dumps([row.key() for row in rows], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ``TAIL_BEYOND`` values beyond it,
    as (percentile, value); the maximum if there are too few values."""
    ordered = sorted(values)
    index = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def timings(sweeps: list[list[float]], steps: int) -> dict[str, float]:
    """Each timing is the median of its per-sweep values."""
    return {
        "steps_per_s": statistics.median(steps / sum(times) for times in sweeps),
        "run_ms_p50": 1000.0 * statistics.median(statistics.median(t) for t in sweeps),
        "run_ms_tail": 1000.0 * statistics.median(tail(times)[1] for times in sweeps),
    }


def measure_end_to_end(package, model, phi, workload, seeds, seconds, tally):
    """Sweep the seed set until the next sweep would overrun ``seconds``.

    Wall times are reported scaled to the reference host speed (see
    ``hostspeed``); the record keeps the raw ones.
    """
    engine_fn = getattr(package.engine, workload.engine)
    scaled: list[list[float]] = []
    raw: list[list[float]] = []
    first_rows: list[Row] = []
    start = perf_counter()
    while True:
        begin = perf_counter()
        probe = SpeedProbe()
        times, rows = sweep(engine_fn, package.LearnerConfig, model, phi, seeds, probe.before_call)
        probe.end()
        tally.add(rows)
        raw.append(times)
        scaled.append([t * scale for t, scale in zip(times, probe.scales())])
        first_rows = first_rows or rows
        now = perf_counter()
        if now - start + (now - begin) > seconds:
            break
    steps = sum(row.steps for row in first_rows)
    metrics = {
        **timings(scaled, steps),
        "steps_to_test_p50": statistics.median(row.steps for row in first_rows),
        "solve_rate": sum(row.test is not None for row in first_rows) / len(first_rows),
    }
    details = {
        "sweeps": len(raw),
        "runs_per_sweep": len(seeds),
        "tail_percentile": tail(raw[0])[0],
        "tail_samples": len(seeds),
        "sweep_seconds": [sum(times) for times in raw],
        "raw": timings(raw, steps),
        "digest": digest(first_rows),
    }
    return metrics, details


def measure_layers(package, model, phi, workload, seeds, tally):
    """Untraced, span-traced, counted and profiled sweeps of the same seeds.

    Each sweep's tests are checked after its wrappers are removed, so the
    check's own calls are neither traced nor counted.
    """

    def run(on_run=None):
        engine_fn = getattr(package.engine, workload.engine)
        return sweep(engine_fn, package.LearnerConfig, model, phi, seeds, on_run)

    untraced, rows = run()
    tally.add(rows)
    details = {"traced_runs": len(seeds), "digest": digest(rows)}

    patches = Patches()
    recorder = SpanRecorder()
    try:
        recorder.install(package, patches, workload.engine)
        package.model.load_model(MODELS / f"{workload.model}.json")
        package.parser.parse(workload.formula)
        traced, rows = run(partial(setattr, recorder, "run_id"))
    finally:
        patches.restore()
    tally.add(rows)

    counters = LayerCounters(package)
    try:
        counters.install(package, patches)
        _, rows = run(partial(setattr, counters, "run_id"))
    finally:
        patches.restore()
    tally.add(rows)

    profile = cProfile.Profile()
    profile.enable()
    try:
        _, rows = run()
    finally:
        profile.disable()
    tally.add(rows)

    metrics = recorder.metrics(1e9 * sum(traced))
    metrics.update(counters.metrics())
    metrics["trace_overhead"] = sum(traced) / sum(untraced)
    return metrics, details, recorder, profile


def profile_table(profile: cProfile.Profile) -> str:
    buffer = io.StringIO()
    pstats.Stats(profile, stream=buffer).strip_dirs().sort_stats("tottime").print_stats(10)
    return buffer.getvalue()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(workload_name: str, seed: int) -> dict:
    return {
        "workload": workload_name,
        "workload_seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="first workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--runs", type=int, help="seeds per sweep (default: the workload's)")
    args = parser.parse_args(argv)
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    record = environment(args.workload, args.seed)
    try:
        package, model, phi, setup_s, raw_setup_s = set_up(workload)
    except (BenchError, ImportError, OSError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    runs = args.runs or workload.runs
    tally = Tally(package, model, phi)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"

    if args.trace:
        seeds = range(args.seed, args.seed + min(runs, workload.trace_runs))
        values, details, recorder, profile = measure_layers(
            package, model, phi, workload, seeds, tally
        )
        units = PER_LAYER_UNITS
        recorder.write(OUT / f"{args.workload}.spans.csv.gz")
        (OUT / f"{args.workload}.profile.txt").write_text(profile_table(profile), encoding="utf-8")
    else:
        seeds = range(args.seed, args.seed + runs)
        values, details = measure_end_to_end(
            package, model, phi, workload, seeds, args.seconds, tally
        )
        values["setup_s"] = setup_s
        details["raw"]["setup_s"] = raw_setup_s
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    record.update(details)

    record["loadavg_end"] = list(os.getloadavg())
    record["failures"] = tally.failures[:20]
    for name, unit in units.items():
        print(f"{args.workload:16} {name:48} {values[name]:>16.6g} {unit}")
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

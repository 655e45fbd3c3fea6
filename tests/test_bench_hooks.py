"""The benchmark's tracer patches functions by name; these names must exist.

``bench/tracing.py`` wraps module attributes and methods of ``ltlgen`` from
outside the package.  A rename or a changed call signature would otherwise
surface only when ``bench/run.py --trace 1`` runs.
"""

import importlib.util
import inspect
from pathlib import Path

import ltlgen
from ltlgen import LearnerConfig, parse
from conftest import NEEDLE_B

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    for owner, attr, _ in tracing.TRACED:
        assert callable(getattr(tracing.resolve(ltlgen, owner), attr)), (owner, attr)
    for name in tracing.SETUP_TRACED:
        assert callable(tracing.resolve(ltlgen, name)), name


def test_screening_takes_the_arguments_the_counters_pass():
    # LayerCounters calls prune_and_predict(phi, tail, enabled, action_alphabet).
    inspect.signature(ltlgen.engine.prune_and_predict).bind("phi", (), (), frozenset())


def test_tracer_and_counters_install_run_and_restore(needle):
    tracing = _tracing()
    phi = parse(NEEDLE_B)
    originals = {
        (owner, attr): getattr(tracing.resolve(ltlgen, owner), attr)
        for owner, attr, _ in tracing.TRACED
    }
    patches = tracing.Patches()
    recorder = tracing.SpanRecorder()
    try:
        recorder.install(ltlgen, patches, "generate")
        for seed in range(3):
            ltlgen.engine.generate(needle, phi, LearnerConfig(seed=seed))
    finally:
        patches.restore()
    metrics = recorder.metrics(1.0)
    for name in ("engine.run_episode", "engine.prune_and_predict", "model.EnvSession.execute"):
        assert metrics[f"{name}.calls"] > 0, name

    counters = tracing.LayerCounters(ltlgen)
    try:
        counters.install(ltlgen, patches)
        ltlgen.engine.generate(needle, phi, LearnerConfig(seed=0))
    finally:
        patches.restore()
    counted = counters.metrics()
    assert counted["engine.prune_and_predict.screened"] > 0
    assert counted["progression.projection.distinct_keys"] > 0

    for (owner, attr), original in originals.items():
        assert getattr(tracing.resolve(ltlgen, owner), attr) is original, (owner, attr)


def test_counted_projection_keys_are_the_runs_distinct_steps(needle):
    # Each run computes every edge it meets, so the counter pass sees each
    # (obligation, labels) pair of its run; a table that outlived the run
    # would hide the pairs an earlier run met.
    tracing = _tracing()
    phi = parse(NEEDLE_B)
    patches = tracing.Patches()
    counters = tracing.LayerCounters(ltlgen)
    try:
        counters.install(ltlgen, patches)
        result = ltlgen.engine.generate(needle, phi, LearnerConfig(seed=0))
    finally:
        patches.restore()
    pairs = set()
    for log in result.episodes:
        before = ltlgen.engine._start(phi)[0]
        for record in log.steps:
            pairs.add((before, record.labels))
            before = record.formula
    counted = counters.metrics()["progression.projection.distinct_keys"]
    assert counted == len(pairs), (
        "progression.projection.distinct_keys no longer counts the run's "
        "distinct (obligation, labels) steps: is projection skipped for edges "
        "an earlier run computed?"
    )

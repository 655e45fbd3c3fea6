"""Span tracing and layer counters installed from outside the program.

Both work by replacing a function with a wrapper on the name as bound in
the calling module (``ltlgen.engine.projection``, not
``ltlgen.progression.projection``), or on the class for methods, and
restoring the original afterwards.  Nothing under ``src/`` is changed.

A span records its name, start, end, parent span and run id.  Spans live in
flat arrays until the traced pass ends, then are aggregated and written out.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from pathlib import Path
from time import perf_counter_ns

# (module attribute holding the owner, attribute name, metric name).  The
# owner is a module of the ``ltlgen`` package, or ``model.EnvSession``.
# ``expand``/``restrict``/``advance`` are wrapped only where screening calls
# them; inside ``projection`` their cost is part of projection's self time.
TRACED = (
    ("engine", "run_episode", "engine.run_episode"),
    ("engine", "prune_and_predict", "engine.prune_and_predict"),
    ("engine", "decide_next_action", "engine.decide_next_action"),
    ("engine", "learn", "engine.learn"),
    ("engine", "projection", "progression.projection"),
    ("engine", "shaped_reward", "progression.shaped_reward"),
    ("engine", "expand", "progression.expand"),
    ("engine", "restrict", "progression.restrict"),
    ("engine", "advance", "progression.advance"),
    ("engine", "simplify", "formula.simplify"),
    ("progression", "simplify", "formula.simplify"),
    ("engine", "atom_set", "formula.atom_set"),
    ("progression", "count_atoms", "formula.count_atoms"),
    ("model.EnvSession", "execute", "model.EnvSession.execute"),
    ("model.EnvSession", "enabled_actions", "model.EnvSession.enabled_actions"),
    ("engine", "state_labeling", "model.state_labeling"),
    ("engine", "action_labeling", "model.action_labeling"),
)
SETUP_TRACED = ("model.load_model", "parser.parse")
LAYER_FUNCTIONS = tuple(dict.fromkeys(name for _, _, name in TRACED)) + SETUP_TRACED


def resolve(package, path: str):
    owner = package
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class SpanRecorder:
    """In-memory spans with a per-name re-entrancy guard.

    While a span of some name is open, further calls of that name (for
    example ``simplify`` recursing through a wrapped module global) run
    unrecorded, so one outer call is one span.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.run = array("q")
        self.start = array("q")
        self.end = array("q")
        self.run_id = -1
        self._stack = [-1]
        self._open: list[bool] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(False)
        return self._ids[name]

    def wrapper_for(self, name: str):
        nid = self.name_id(name)
        recorder = self
        is_open = self._open
        stack = self._stack

        def make(original):
            def traced(*args, **kwargs):
                if is_open[nid]:
                    return original(*args, **kwargs)
                is_open[nid] = True
                index = len(recorder.start)
                recorder.name.append(nid)
                recorder.parent.append(stack[-1])
                recorder.run.append(recorder.run_id)
                recorder.start.append(0)
                recorder.end.append(0)
                stack.append(index)
                begin = perf_counter_ns()
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder.end[index] = perf_counter_ns()
                    recorder.start[index] = begin
                    stack.pop()
                    is_open[nid] = False

            return traced

        return make

    def install(self, package, patches: Patches, root: str) -> None:
        """Wrap every traced function, the set-up functions, and the engine
        entry point ``root``, whose span is the root of each run."""
        for owner, attr, name in TRACED:
            patches.replace(resolve(package, owner), attr, self.wrapper_for(name))
        patches.replace(package.engine, root, self.wrapper_for(f"engine.{root}"))
        for name in SETUP_TRACED:
            module, attr = name.split(".")
            patches.replace(getattr(package, module), attr, self.wrapper_for(name))

    def metrics(self, sweep_ns: float) -> dict[str, float]:
        """Calls, mean span ns and self share for each layer function; self
        time is span time minus child spans, shared out of ``sweep_ns``."""
        count = len(self.start)
        child_ns = [0] * count
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                child_ns[parent] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(count):
            nid = self.name[i]
            duration = self.end[i] - self.start[i]
            calls[nid] += 1
            total_ns[nid] += duration
            self_ns[nid] += duration - child_ns[i]
        metrics: dict[str, float] = {}
        for name in LAYER_FUNCTIONS:
            nid = self._ids[name]
            metrics[f"{name}.calls"] = calls[nid]
            metrics[f"{name}.ns_per_call"] = _ratio(total_ns[nid], calls[nid])
            metrics[f"{name}.self_share"] = self_ns[nid] / sweep_ns
        return metrics

    def write(self, path: Path) -> None:
        """Gzipped CSV, one span per line; ``parent`` is a span id or -1."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id,parent,run,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.start)):
                handle.write(
                    f"{i},{self.parent[i]},{self.run[i]},{names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )


class LayerCounters:
    """Screening, progression and learning counts, gathered in an untimed pass.

    Hashing obligations is costly, so these counts are never taken in the
    pass whose spans are timed.
    """

    def __init__(self, package) -> None:
        self._action_labeling = package.model.action_labeling
        self._satisfied = package.engine.SATISFIED
        self._dead_end = package.engine.DEAD_END
        self.run_id = -1
        self.screened = 0
        self.survivors = 0
        self.dead_ends = 0
        self.shortcuts = 0
        self.screen_keys: set = set()
        self.projection_keys: set = set()
        self.learn_calls = 0
        self.eligible = 0
        self.decisions: set = set()
        self.runs: set = set()

    def install(self, package, patches: Patches) -> None:
        patches.replace(package.engine, "prune_and_predict", self._screening)
        patches.replace(package.engine, "projection", self._projection)
        patches.replace(package.engine, "learn", self._learn)

    def _screening(self, original):
        def counted(phi, tail, enabled, action_alphabet):
            prediction = original(phi, tail, enabled, action_alphabet)
            examined = list(enabled)
            if prediction.kind == self._satisfied:
                examined = examined[: examined.index(prediction.action) + 1]
                self.shortcuts += 1
            elif prediction.kind == self._dead_end:
                self.dead_ends += 1
            self.screened += len(examined)
            self.survivors += len(prediction.survivors)
            for action in examined:
                self.screen_keys.add((phi, self._action_labeling(action, action_alphabet)))
            return prediction

        return counted

    def _projection(self, original):
        def counted(phi, labels):
            self.projection_keys.add((phi, labels))
            return original(phi, labels)

        return counted

    def _learn(self, original):
        def counted(store, decision, *args, **kwargs):
            self.learn_calls += 1
            self.eligible += len(store.elig) + (decision not in store.elig)
            self.decisions.add((self.run_id, decision))
            self.runs.add(self.run_id)
            return original(store, decision, *args, **kwargs)

        return counted

    def metrics(self) -> dict[str, float]:
        return {
            "engine.prune_and_predict.screened": self.screened,
            "engine.prune_and_predict.survivor_ratio": _ratio(self.survivors, self.screened),
            "engine.prune_and_predict.dead_ends": self.dead_ends,
            "engine.prune_and_predict.shortcuts": self.shortcuts,
            "engine.prune_and_predict.distinct_keys": len(self.screen_keys),
            "progression.projection.distinct_keys": len(self.projection_keys),
            "engine.learn.elig_per_call": _ratio(self.eligible, self.learn_calls),
            "engine.learn.distinct_decisions": _ratio(len(self.decisions), len(self.runs)),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

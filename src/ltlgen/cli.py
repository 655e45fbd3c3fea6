"""Command-line front end: generate, replay, and experiment commands.

Exit codes partition the outcomes: 0 success, 2 usage or configuration
error, 3 budget exhausted / test not satisfied, 4 model, test or output file
error, 5 formula error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from pathlib import Path

from .engine import ENGINES, EpisodeLog, GenerationResult, LearnerConfig, RunStats, replay
from .formula import AtomicProposition, Formula, atom_set, render
from .model import (
    ActionNotEnabled,
    AppModel,
    ModelError,
    load_model,
    load_test,
    save_test,
)
from .parser import ParseError, parse

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_MODEL_ERROR = 4
EXIT_FORMULA_ERROR = 5

# Each knob's flag is its LearnerConfig field, with its type and default;
# only the help text is kept here.
_KNOB_HELP = {
    "episodes": "maximum number of episodes (E)",
    "steps": "maximum number of steps per episode (K)",
    "t0": "initial softmax temperature",
    "t_delta": "temperature decrease per episode",
    "t_min": "temperature floor",
    "eps0": "initial random-decision probability",
    "eps_update": "epsilon decay factor per episode",
    "eps_min": "epsilon floor",
    "eta0": "initial learning rate",
    "eta_update": "learning-rate decay factor per episode",
    "eta_min": "learning-rate floor",
    "elig_decay": "eligibility trace discount",
    "doubleness": "double-Q mixing ratio",
    "vigilance": "hard bound on Q-value magnitude",
    "elig_min": "eligibility threshold below which entries drop",
    "tail_length": "maximum recent-history length used as the RL state",
}
_KNOBS = tuple(knob for knob in dataclasses.fields(LearnerConfig) if knob.name in _KNOB_HELP)


def build_parser() -> argparse.ArgumentParser:
    # The flag groups the subcommands share, built once and taken as parents.
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--model", required=True, help="model file (JSON)")
    group = inputs.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text")
    group.add_argument("--formula-file", help="file containing the formula text")
    inputs.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument(
        "--engine", choices=tuple(ENGINES), default="farlead",
        help="learning engine or the uniform-random baseline",
    )
    for knob in _KNOBS:
        search.add_argument(
            "--" + knob.name.replace("_", "-"), type=type(knob.default), default=knob.default,
            help=_KNOB_HELP[knob.name],
        )
    for flag, help_text in (
        ("--no-reward-shaping", "disable intermediate rewards (terminal 1/-1 only)"),
        ("--no-prediction", "disable pre-execution action screening"),
        ("--no-timing", "report wall times as 0 for byte-reproducible output"),
    ):
        search.add_argument(flag, action="store_true", help=help_text)

    parser = argparse.ArgumentParser(
        prog="ltlgen",
        description="Generate, replay, and benchmark GUI tests against temporal-logic specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser(
        "generate", parents=[inputs, search], help="search for a satisfying test"
    )
    p_generate.add_argument(
        "-o", "--output", default="test.json", help="replayable test file written on success"
    )
    p_generate.add_argument("--log", help="write per-step episode records to this file")
    p_generate.add_argument("--verbose", action="store_true", help="print episode records to stdout")
    p_generate.set_defaults(func=cmd_generate)

    p_replay = sub.add_parser(
        "replay", parents=[inputs], help="re-execute a test file and check the formula"
    )
    p_replay.add_argument("--test", required=True, help="replayable test file")
    p_replay.add_argument(
        "--times", type=int, default=1, help="repetitions for the reliability check (default 1)"
    )
    p_replay.set_defaults(func=cmd_replay)

    p_experiment = sub.add_parser(
        "experiment", parents=[inputs, search], help="run seeded repetitions and emit a CSV"
    )
    p_experiment.add_argument("--reps", type=int, default=1, help="number of repetitions")
    p_experiment.add_argument("--csv", default="experiment.csv", help="per-run CSV output path")
    p_experiment.set_defaults(func=cmd_experiment)

    return parser


def _config_from_args(args: argparse.Namespace) -> LearnerConfig:
    # Not validated here: every engine validates its config before a run.
    return LearnerConfig(
        seed=args.seed,
        shaping=not args.no_reward_shaping,
        predict=not args.no_prediction,
        **{knob.name: getattr(args, knob.name) for knob in _KNOBS},
    )


def _run_stats(args: argparse.Namespace, result: GenerationResult) -> RunStats:
    """A run's stats as reported: ``--no-timing`` zeroes the wall time."""
    return result.stats._replace(wall_time_ms=0.0) if args.no_timing else result.stats


def _load_inputs(args: argparse.Namespace) -> tuple[AppModel, Formula]:
    model = load_model(args.model)
    if args.formula is not None:
        text = args.formula
    else:
        try:
            text = Path(args.formula_file).read_text(encoding="utf-8").strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read formula file: {exc}") from exc
    phi = parse(text)
    # A state key no state observes a value under would never hold, so a
    # typo, or a widget key no widget shows, would pass unseen.
    keys = {key for s in model.states.values() for key, values in s.observed.items() if values}
    unknown = sorted({ap.key for ap in atom_set(phi) if not ap.is_action} - keys)
    if unknown:
        raise ParseError(f"no state of the model has the key {unknown[0]!r}")
    return model, phi


def _labels_text(labels: frozenset[AtomicProposition]) -> str:
    # By fields, not by text: "[a~x]" sorts after "[ab=x]" as text.  Sorted,
    # since a set's order follows identity hashes, which differ per process.
    ordered = sorted(labels, key=lambda a: (a.key, a.op, a.value))
    return "{" + ", ".join(map(str, ordered)) + "}"


def _episode_lines(i: int, log: EpisodeLog) -> list[str]:
    """The log lines of episode ``i``, its steps numbered by position."""
    return [
        f"i={i} k={k} action={record.action.describe()} "
        f"L={_labels_text(record.labels)} phi={render(record.formula)} r={record.reward:g}"
        for k, record in enumerate(log.steps)
    ]


def _emit_logs(args: argparse.Namespace, result: GenerationResult) -> None:
    if not args.log and not args.verbose:
        return
    lines = []
    for i, log in enumerate(result.episodes, 1):
        lines.extend(_episode_lines(i, log))
    if args.log:
        Path(args.log).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.verbose:
        for line in lines:
            print(line)


def _stats_line(stats: RunStats) -> str:
    return (
        f"outcome={stats.outcome} episodes={stats.episodes} steps={stats.steps} "
        f"wallTimeMs={stats.wall_time_ms:.3f} seed={stats.seed}"
    )


def cmd_generate(args: argparse.Namespace) -> int:
    model, phi = _load_inputs(args)
    config = _config_from_args(args)
    result = ENGINES[args.engine](model, phi, config)
    _emit_logs(args, result)
    print(_stats_line(_run_stats(args, result)))
    if not result.satisfied:
        return EXIT_EXHAUSTED
    save_test(args.output, result.test)
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    model, phi = _load_inputs(args)
    if args.times < 1:
        raise ValueError("--times must be >= 1")
    records = load_test(args.test)
    satisfied = 0
    for attempt in range(args.times):
        log = replay(model, records, phi, seed=args.seed + attempt)
        # Each attempt replays one episode, so it is always episode 1.
        for line in _episode_lines(1, log):
            print(line)
        print(f"attempt={attempt} verdict={log.outcome}")
        if log.satisfied:
            satisfied += 1
    print(f"satisfaction rate {satisfied}/{args.times}")
    return EXIT_OK if satisfied == args.times else EXIT_EXHAUSTED


def cmd_experiment(args: argparse.Namespace) -> int:
    model, phi = _load_inputs(args)
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    base_config = _config_from_args(args)
    engine = ENGINES[args.engine]
    rows: list[RunStats] = []
    for rep in range(args.reps):
        config = dataclasses.replace(base_config, seed=args.seed + rep)
        rows.append(_run_stats(args, engine(model, phi, config)))
    with open(args.csv, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rep", "seed", "outcome", "episodes", "steps", "wallTimeMs"])
        for rep, stats in enumerate(rows):
            writer.writerow([
                rep, stats.seed, stats.outcome, stats.episodes, stats.steps,
                f"{stats.wall_time_ms:.3f}",
            ])
    failures = sum(1 for s in rows if s.outcome != "satisfied")
    steps = [s.steps for s in rows]
    walls = [s.wall_time_ms for s in rows]
    # statistics.fmean's own arithmetic, without importing statistics, which
    # pulls decimal and fractions into every command.
    print(
        f"engine={args.engine} reps={args.reps} failures={failures} "
        f"meanSteps={math.fsum(steps) / len(steps):.2f} maxSteps={max(steps)} "
        f"meanWallTimeMs={math.fsum(walls) / len(walls):.3f} maxWallTimeMs={max(walls):.3f}"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"formula error: {exc}", file=sys.stderr)
        return EXIT_FORMULA_ERROR
    except RecursionError:
        # Formula trees are walked recursively; the model and test loaders
        # turn their own deep nesting into ModelError.
        print("formula error: the formula or its obligation nests too deeply", file=sys.stderr)
        return EXIT_FORMULA_ERROR
    except (ModelError, ActionNotEnabled) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR
    except OSError as exc:
        # Inputs are read into ModelError or ParseError, so this is a failed
        # write of the test file, the --log file or the experiment CSV.
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

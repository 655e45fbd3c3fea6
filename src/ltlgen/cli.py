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
from .formula import Formula, render
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

_CONFIG_FLAGS = (
    ("episodes", int, "maximum number of episodes (E)"),
    ("steps", int, "maximum number of steps per episode (K)"),
    ("t0", float, "initial softmax temperature"),
    ("t-delta", float, "temperature decrease per episode"),
    ("t-min", float, "temperature floor"),
    ("eps0", float, "initial random-decision probability"),
    ("eps-update", float, "epsilon decay factor per episode"),
    ("eps-min", float, "epsilon floor"),
    ("eta0", float, "initial learning rate"),
    ("eta-update", float, "learning-rate decay factor per episode"),
    ("eta-min", float, "learning-rate floor"),
    ("elig-decay", float, "eligibility trace discount"),
    ("doubleness", float, "double-Q mixing ratio"),
    ("vigilance", float, "hard bound on Q-value magnitude"),
    ("elig-min", float, "eligibility threshold below which entries drop"),
    ("tail-length", int, "maximum recent-history length used as the RL state"),
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help="model file (JSON)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text")
    group.add_argument("--formula-file", help="file containing the formula text")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


def _add_engine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=tuple(ENGINES), default="farlead",
        help="learning engine or the uniform-random baseline",
    )
    for flag, kind, help_text in _CONFIG_FLAGS:
        parser.add_argument(f"--{flag}", type=kind, default=None, help=help_text)
    parser.add_argument(
        "--no-reward-shaping", action="store_true",
        help="disable intermediate rewards (terminal 1/-1 only)",
    )
    parser.add_argument(
        "--no-prediction", action="store_true",
        help="disable pre-execution action screening",
    )
    parser.add_argument(
        "--no-timing", action="store_true",
        help="report wall times as 0 for byte-reproducible output",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlgen",
        description="Generate, replay, and benchmark GUI tests against temporal-logic specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="search for a satisfying test")
    _add_common(p_generate)
    _add_engine(p_generate)
    p_generate.add_argument(
        "-o", "--output", default="test.json", help="replayable test file written on success"
    )
    p_generate.add_argument("--log", help="write per-step episode records to this file")
    p_generate.add_argument("--verbose", action="store_true", help="print episode records to stdout")
    p_generate.set_defaults(func=cmd_generate)

    p_replay = sub.add_parser("replay", help="re-execute a test file and check the formula")
    _add_common(p_replay)
    p_replay.add_argument("--test", required=True, help="replayable test file")
    p_replay.add_argument(
        "--times", type=int, default=1, help="repetitions for the reliability check (default 1)"
    )
    p_replay.set_defaults(func=cmd_replay)

    p_experiment = sub.add_parser("experiment", help="run seeded repetitions and emit a CSV")
    _add_common(p_experiment)
    _add_engine(p_experiment)
    p_experiment.add_argument("--reps", type=int, default=1, help="number of repetitions")
    p_experiment.add_argument("--csv", default="experiment.csv", help="per-run CSV output path")
    p_experiment.set_defaults(func=cmd_experiment)

    return parser


def _config_from_args(args: argparse.Namespace) -> LearnerConfig:
    overrides = {}
    for flag, _, _ in _CONFIG_FLAGS:
        name = flag.replace("-", "_")
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    # Not validated here: every engine validates its config before a run.
    return dataclasses.replace(
        LearnerConfig(),
        seed=args.seed,
        shaping=not args.no_reward_shaping,
        predict=not args.no_prediction,
        **overrides,
    )


def _load_inputs(args: argparse.Namespace) -> tuple[AppModel, Formula]:
    model = load_model(args.model)
    if args.formula is not None:
        text = args.formula
    else:
        try:
            text = Path(args.formula_file).read_text(encoding="utf-8").strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read formula file: {exc}", 0) from exc
    return model, parse(text)


def _episode_lines(log: EpisodeLog) -> list[str]:
    lines = []
    for record in log.steps:
        lines.append(
            f"i={log.index} k={record.index} action={record.action.describe()} "
            f"L={record.labels} phi={render(record.formula)} r={record.reward:g}"
        )
    return lines


def _emit_logs(args: argparse.Namespace, result: GenerationResult) -> None:
    if not args.log and not args.verbose:
        return
    lines = []
    for log in result.episodes:
        lines.extend(_episode_lines(log))
    if args.log:
        Path(args.log).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.verbose:
        for line in lines:
            print(line)


def _stats_line(stats: RunStats, no_timing: bool) -> str:
    wall = 0.0 if no_timing else stats.wall_time_ms
    return (
        f"outcome={stats.outcome} episodes={stats.episodes} steps={stats.steps} "
        f"wallTimeMs={wall:.3f} seed={stats.seed}"
    )


def cmd_generate(args: argparse.Namespace) -> int:
    model, phi = _load_inputs(args)
    config = _config_from_args(args)
    result = ENGINES[args.engine](model, phi, config)
    _emit_logs(args, result)
    print(_stats_line(result.stats, args.no_timing))
    if not result.satisfied:
        return EXIT_EXHAUSTED
    save_test(args.output, result.test)
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    model, phi = _load_inputs(args)
    records = load_test(args.test)
    if args.times < 1:
        raise ValueError("--times must be >= 1")
    satisfied = 0
    for attempt in range(args.times):
        log = replay(model, records, phi, seed=args.seed + attempt)
        for line in _episode_lines(log):
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
        rows.append(engine(model, phi, config).stats)
    with open(args.csv, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rep", "seed", "outcome", "episodes", "steps", "wallTimeMs"])
        for rep, stats in enumerate(rows):
            wall = 0.0 if args.no_timing else stats.wall_time_ms
            writer.writerow(
                [rep, stats.seed, stats.outcome, stats.episodes, stats.steps, f"{wall:.3f}"]
            )
    failures = sum(1 for s in rows if s.outcome != "satisfied")
    steps = [s.steps for s in rows]
    walls = [0.0 if args.no_timing else s.wall_time_ms for s in rows]
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

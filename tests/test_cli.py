import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ltlgen.cli import (
    EXIT_EXHAUSTED,
    EXIT_FORMULA_ERROR,
    EXIT_MODEL_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    _config_from_args,
    build_parser,
    main,
)
from ltlgen.engine import LearnerConfig
from conftest import GO_ABOUT_AND_BACK, MODELS, NEEDLE_B

CHESSWALK = str(MODELS / "chesswalk_abstract.json")
FLAKY = str(MODELS / "flaky.json")
NEEDLE = str(MODELS / "needle.json")
SRC = MODELS.parent / "src"
# Every LearnerConfig field but these three is a knob flag of the same name.
KNOBS = [
    knob for knob in dataclasses.fields(LearnerConfig)
    if knob.name not in ("seed", "shaping", "predict")
]
FLOAT_FLAGS = [knob.name.replace("_", "-") for knob in KNOBS if type(knob.default) is float]


def run(*argv):
    return main(list(argv))


def test_generate_then_replay_round_trip(tmp_path, capsys):
    out = tmp_path / "about.json"
    code = run(
        "generate", "--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK,
        "--seed", "7", "-o", str(out),
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "outcome=satisfied" in stdout
    records = json.loads(out.read_text())
    assert records[0]["type"] == "reinitialize"

    code = run(
        "replay", "--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK, "--test", str(out),
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "verdict=satisfied" in stdout
    assert "satisfaction rate 1/1" in stdout


def test_generate_exhausts_with_distinct_exit(tmp_path, capsys):
    code = run(
        "generate", "--model", CHESSWALK,
        "--formula", "X ([activity~Main] & [activity=NoSuchActivityZZZ])",
        "--episodes", "5", "-o", str(tmp_path / "t.json"),
    )
    assert code == EXIT_EXHAUSTED
    assert not (tmp_path / "t.json").exists()
    assert "outcome=exhausted" in capsys.readouterr().out


def test_malformed_formula_exit(tmp_path, capsys):
    code = run("generate", "--model", CHESSWALK, "--formula", "[p=]", "-o", str(tmp_path / "t.json"))
    assert code == EXIT_FORMULA_ERROR
    assert "formula error" in capsys.readouterr().err


def test_misspelled_action_key_exit(tmp_path, capsys):
    # No action has the key, so the predicate could never hold.
    code = run(
        "generate", "--model", CHESSWALK, "--formula", "F ![actionTyp=click]",
        "-o", str(tmp_path / "t.json"),
    )
    assert code == EXIT_FORMULA_ERROR
    assert not (tmp_path / "t.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("formula error: action key must be one of ")
    assert "got 'actionTyp' (at position 3)" in err
    assert err.count("\n") == 1


def test_misspelled_state_key_exit(tmp_path, capsys):
    # No state has the key, so the predicate could never hold.
    code = run(
        "generate", "--model", CHESSWALK, "--formula", "F ![activty~About]",
        "-o", str(tmp_path / "t.json"),
    )
    assert code == EXIT_FORMULA_ERROR
    assert not (tmp_path / "t.json").exists()
    assert capsys.readouterr().err == "formula error: no state of the model has the key 'activty'\n"


def test_widget_key_no_widget_shows_exit(tmp_path, capsys):
    # needle's widgets have no checked flag, so the key observes no value.
    code = run(
        "generate", "--model", NEEDLE, "--formula", "F [checked=true]",
        "--episodes", "5", "-o", str(tmp_path / "t.json"),
    )
    assert code == EXIT_FORMULA_ERROR
    assert not (tmp_path / "t.json").exists()
    assert capsys.readouterr().err == "formula error: no state of the model has the key 'checked'\n"


def test_model_error_exit(tmp_path, capsys):
    code = run(
        "generate", "--model", str(tmp_path / "absent.json"),
        "--formula", "true", "-o", str(tmp_path / "t.json"),
    )
    assert code == EXIT_MODEL_ERROR
    assert "model error" in capsys.readouterr().err


@pytest.mark.parametrize("where, value, message", [
    ("widgets", None, "state 'main': 'widgets' must be a list"),
    ("on", ["0:0"], "state 'main': action 'click' 'on' must be a widget id string"),
    *(
        ("attributes", key, f"state 'main': no formula can read attribute {key!r}")
        for key in ("text", "objectID", "checked", "actionFoo")
    ),
])
def test_malformed_model_value_exit(where, value, message, tmp_path, capsys):
    data = json.loads((MODELS / "chesswalk_abstract.json").read_text())
    state = next(s for s in data["states"] if s["id"] == "main")
    if where == "widgets":
        state["widgets"] = value
    elif where == "attributes":
        state["attributes"][value] = "About"
    else:
        next(a for a in state["actions"] if "on" in a)["on"] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    code = run("generate", "--model", str(model), "--formula", "true", "-o", str(tmp_path / "t.json"))
    assert code == EXIT_MODEL_ERROR
    assert capsys.readouterr().err == f"model error: {model}: {message}\n"


@pytest.mark.parametrize("kind", ["model", "test"])
def test_boolean_param_exit(kind, tmp_path, capsys):
    data = json.loads((MODELS / "chesswalk_abstract.json").read_text())
    test_records = [{"type": "reinitialize", "params": ["MainActivity"]}]
    if kind == "model":
        state = next(s for s in data["states"] if s["id"] == "main")
        next(a for a in state["actions"] if "on" not in a)["params"] = [True]
    else:
        test_records[0]["params"] = [True]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    test_file = tmp_path / "t.json"
    test_file.write_text(json.dumps(test_records))
    code = run("replay", "--model", str(model), "--formula", "true", "--test", str(test_file))
    assert code == EXIT_MODEL_ERROR
    where = f"{model}: state 'main': action 'pauseresume'" if kind == "model" else f"{test_file}: record 0"
    assert capsys.readouterr().err == f"model error: {where} params must be strings or integers\n"


def test_bad_config_exit(tmp_path, capsys):
    code = run(
        "generate", "--model", CHESSWALK, "--formula", "true",
        "--t0", "-5", "-o", str(tmp_path / "t.json"),
    )
    assert code == EXIT_USAGE
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "replay", "experiment"])
def test_negative_seed_exit(command, tmp_path, capsys):
    # random.Random seeds with the absolute value, so -1 would repeat 1.
    test_file = tmp_path / "t.json"
    test_file.write_text('[{"type": "reinitialize", "params": ["MainActivity"]}]')
    csv_path = tmp_path / "runs.csv"
    extra = {
        "generate": ("-o", str(tmp_path / "out.json")),
        "replay": ("--test", str(test_file)),
        "experiment": ("--csv", str(csv_path)),
    }[command]
    code = run(command, "--model", CHESSWALK, "--formula", "true", *extra, "--seed", "-1")
    assert code == EXIT_USAGE
    assert capsys.readouterr() == ("", "invalid configuration: seed must be >= 0\n")
    assert not csv_path.exists() and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command, flag", [("replay", "--times"), ("experiment", "--reps")])
def test_zero_repetitions_exit(command, flag, tmp_path, capsys):
    test_file = tmp_path / "t.json"
    test_file.write_text("[]")
    csv_path = tmp_path / "runs.csv"
    extra = ("--test", str(test_file)) if command == "replay" else ("--csv", str(csv_path))
    code = run(command, "--model", CHESSWALK, "--formula", "true", *extra, flag, "0")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"invalid configuration: {flag} must be >= 1\n"
    assert not csv_path.exists()


def test_empty_test_file_exit(tmp_path, capsys):
    # A replay of no actions would end exhausted, as if a budget had run out.
    test_file = tmp_path / "t.json"
    test_file.write_text("[]")
    code = run("replay", "--model", CHESSWALK, "--formula", "true", "--test", str(test_file))
    assert code == EXIT_MODEL_ERROR
    assert capsys.readouterr() == ("", f"model error: {test_file}: test file has no action records\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", FLOAT_FLAGS)
def test_non_finite_config_exit(flag, value, tmp_path, capsys):
    code = run(
        "generate", "--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK,
        f"--{flag}={value}", "-o", str(tmp_path / "t.json"),
    )
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid configuration: {flag.replace('-', '_')} must be finite, got {value}\n"


def test_overflowing_policy_config_exit(tmp_path, capsys):
    # Scores of inf would make every policy probability NaN.
    code = run(
        "generate", "--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK,
        "--vigilance", "1e300", "--t0", "1e-300", "--t-min", "1e-300",
        "-o", str(tmp_path / "t.json"),
    )
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid configuration: vigilance / t_min overflows the policy's scores\n"
    assert not (tmp_path / "t.json").exists()


def test_unwritable_output_exit(tmp_path, capsys):
    code = run(
        "generate", "--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK,
        "--seed", "7", "-o", str(tmp_path / "missing" / "t.json"),
    )
    assert code == EXIT_MODEL_ERROR
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1


def test_unwritable_log_exit(tmp_path, capsys):
    code = run(
        "generate", "--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK,
        "--seed", "7", "-o", str(tmp_path / "t.json"),
        "--log", str(tmp_path / "missing" / "episodes.log"),
    )
    assert code == EXIT_MODEL_ERROR
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1


def test_unwritable_csv_exit(tmp_path, capsys):
    code = run(
        "experiment", "--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK,
        "--reps", "2", "--csv", str(tmp_path / "missing" / "runs.csv"),
    )
    assert code == EXIT_MODEL_ERROR
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag, expected_code, prefix", [
    ("--model", EXIT_MODEL_ERROR, "model error: "),
    ("--test", EXIT_MODEL_ERROR, "model error: "),
    ("--formula-file", EXIT_FORMULA_ERROR, "formula error: "),
])
def test_undecodable_input_file_exit(flag, expected_code, prefix, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe[")
    empty_test = tmp_path / "t.json"
    empty_test.write_text("[]")
    inputs = {"--model": CHESSWALK, "--test": str(empty_test), "--formula": "true"}
    if flag == "--formula-file":
        del inputs["--formula"]
    # An unreadable file has no text, so no message names a position in it.
    for path in (bad, tmp_path / "missing"):
        inputs[flag] = str(path)
        assert run("replay", *(part for item in inputs.items() for part in item)) == expected_code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
        assert "(at position" not in err


def _deep_json(path):
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


# Each input nests far beyond the interpreter's recursion limit, which is
# lowered while they run to keep them quick.
DEEP_INPUTS = {
    "model-json": (
        lambda tmp: ("generate", "--model", _deep_json(tmp / "m.json"), "--formula", "true"),
        EXIT_MODEL_ERROR, "model error: ",
    ),
    "test-json": (
        lambda tmp: ("replay", "--model", CHESSWALK, "--formula", "true",
                     "--test", _deep_json(tmp / "t.json")),
        EXIT_MODEL_ERROR, "model error: ",
    ),
    "next-chain": (
        lambda tmp: ("generate", "--model", CHESSWALK, "--formula", "X " * 3000 + "[activity~Main]"),
        EXIT_FORMULA_ERROR, "formula error: formula nests too deeply",
    ),
    # Short enough to parse at the lowered limit, too deep for the walkers.
    "until-chain": (
        lambda tmp: ("generate", "--model", CHESSWALK,
                     "--formula", " U ".join(f"[activity~A{i}]" for i in range(120))),
        EXIT_FORMULA_ERROR, "formula error: the formula or its obligation nests too deeply",
    ),
}


@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_deep_nesting_exits_with_one_line(name, tmp_path, capsys):
    argv, expected_code, prefix = DEEP_INPUTS[name]
    args = argv(tmp_path)
    if args[0] == "generate":
        args = (*args, "-o", str(tmp_path / "out.json"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        code = run(*args)
    finally:
        sys.setrecursionlimit(limit)
    assert code == expected_code
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


def _step_sequence(steps):
    """A ``steps``-step spec of the paper's shape: ``a & X (b & X (...))``."""
    text = "[activity~End]"
    for _ in range(steps - 2):
        text = f"[actionType=click] & X ({text})"
    return f"[actionType=reinitialize] & X ({text})"


def test_a_long_step_sequence_runs_at_the_default_recursion_limit(tmp_path, capsys):
    formula = tmp_path / "steps.txt"
    formula.write_text(_step_sequence(240))
    test_file = tmp_path / "t.json"
    test_file.write_text('[{"type": "reinitialize", "params": ["MainActivity"]}]')
    inputs = ("--model", CHESSWALK, "--formula-file", str(formula))
    generate = ("generate", *inputs, "--episodes", "20", "-o", str(tmp_path / "out.json"))
    for argv in (generate, (*generate, "--log", str(tmp_path / "log.txt")),
                 ("replay", *inputs, "--test", str(test_file))):
        assert run(*argv) in (EXIT_OK, EXIT_EXHAUSTED)
        assert capsys.readouterr().err == ""
    assert (tmp_path / "log.txt").stat().st_size > 0


def test_a_long_conjunction_runs_at_a_low_recursion_limit(tmp_path, capsys):
    # A conjunction is one flat node, so its length adds no nesting.
    formula = " & ".join(f"X [activity~A{i}]" for i in range(2000))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        code = run(
            "generate", "--model", CHESSWALK, "--formula", formula,
            "--episodes", "3", "--steps", "3", "-o", str(tmp_path / "out.json"),
        )
    finally:
        sys.setrecursionlimit(limit)
    assert code == EXIT_EXHAUSTED
    captured = capsys.readouterr()
    assert captured.out.startswith("outcome=exhausted episodes=3 ")
    assert captured.err == ""


def test_liveness_obligation_stays_bounded_over_a_long_episode(tmp_path, capsys):
    # G F p re-arms F p at every step.  Were conjunctions not sets, the
    # obligation would gain a conjunct per step and nest past this limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    start = time.monotonic()
    try:
        code = run(
            "generate", "--model", CHESSWALK, "--formula", "G F [activity~About]",
            "--episodes", "1", "--steps", "3000", "-o", str(tmp_path / "out.json"),
        )
    finally:
        sys.setrecursionlimit(limit)
    elapsed = time.monotonic() - start
    assert code == EXIT_EXHAUSTED
    captured = capsys.readouterr()
    assert captured.out.startswith("outcome=exhausted episodes=1 steps=3000 ")
    assert captured.err == ""
    assert not (tmp_path / "out.json").exists()
    assert elapsed < 10.0


def test_usage_error_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        run("generate", "--formula", "true")  # --model missing
    assert info.value.code == EXIT_USAGE
    capsys.readouterr()


def test_experiment_rejects_generate_only_flags(tmp_path, capsys):
    argv = (
        "experiment", "--model", CHESSWALK, "--formula", "X [activity~About]",
        "--reps", "2", "--csv", str(tmp_path / "runs.csv"),
    )
    for extra in (("--log", str(tmp_path / "episodes.log")), ("--verbose",)):
        with pytest.raises(SystemExit) as info:
            run(*argv, *extra)
        assert info.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_each_knob_flag_sets_its_field_alone(command):
    parser = build_parser()
    for knob in KNOBS:
        value = knob.default + 1
        args = parser.parse_args([
            command, "--model", CHESSWALK, "--formula", "true",
            f"--{knob.name.replace('_', '-')}", str(value),
        ])
        config = _config_from_args(args)
        assert config == dataclasses.replace(LearnerConfig(), **{knob.name: value})
        assert type(getattr(config, knob.name)) is type(knob.default)


INPUT_FLAGS = {"-h", "--help", "--model", "--formula", "--formula-file", "--seed"}
SEARCH_FLAGS = {
    "--engine", "--episodes", "--steps", "--t0", "--t-delta", "--t-min", "--eps0",
    "--eps-update", "--eps-min", "--eta0", "--eta-update", "--eta-min", "--elig-decay",
    "--doubleness", "--vigilance", "--elig-min", "--tail-length",
    "--no-reward-shaping", "--no-prediction", "--no-timing",
}


def test_each_subcommand_accepts_its_flags():
    # Sets of option strings, not help text, which argparse formats
    # differently across Python versions.
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    accepted = {
        name: {flag for action in sub._actions for flag in action.option_strings}
        for name, sub in commands.items()
    }
    assert accepted == {
        "generate": INPUT_FLAGS | SEARCH_FLAGS | {"-o", "--output", "--log", "--verbose"},
        "replay": INPUT_FLAGS | {"--test", "--times"},
        "experiment": INPUT_FLAGS | SEARCH_FLAGS | {"--reps", "--csv"},
    }


def test_exit_codes_are_distinct():
    codes = {EXIT_OK, EXIT_USAGE, EXIT_EXHAUSTED, EXIT_MODEL_ERROR, EXIT_FORMULA_ERROR}
    assert len(codes) == 5


# What the exit-code property below feeds the command line: the values a
# model or test file field is replaced with, formula tokens, valid or not,
# knob values and repetition counts.
FIELD_VALUES = (None, True, False, float("nan"), 2**70, "∅", [[1, ["x"]]], [])
FORMULA_TOKENS = (
    "[activity~Main]", "[activity~About]", "[actionType=click]", "[actionType=back]",
    "[colour=red]", "[activity=", "]", "true", "false", "!", "X", "F", "G", "U", "&", "|",
    "->", "(", ")", "Y",
)
KNOB_FLAGS = [knob.name.replace("_", "-") for knob in KNOBS]
KNOB_VALUES = ("nan", "inf", "1e300", "-1", "0")
COUNTS = ("-1", "0", "1", "2", "nan", "1e300")
CHESSWALK_DATA = json.loads((MODELS / "chesswalk_abstract.json").read_text(encoding="utf-8"))
TEST_RECORDS = [
    {"type": "reinitialize", "params": ["MainActivity"]},
    {"type": "back", "params": []},
]


@st.composite
def mutated(draw, document):
    """A copy of the JSON ``document`` with up to three fields, each at a
    random depth, deleted or replaced by one of ``FIELD_VALUES``."""
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(0, 3))):
        node = document
        while node:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if draw(st.booleans()):
                del node[key]
            else:
                node[key] = copy.deepcopy(draw(st.sampled_from(FIELD_VALUES)))
            break
    return document


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_input_ends_in_a_documented_exit_code(data):
    # The contract: no exception escapes, every exit code is documented, and
    # an error that argparse does not report is one line on stderr.
    draw = data.draw
    command = draw(st.sampled_from(("generate", "replay", "experiment")))
    formula = draw(st.one_of(
        st.sampled_from(("X [activity~About]", "F [activity~About]", GO_ABOUT_AND_BACK)),
        st.lists(st.sampled_from(FORMULA_TOKENS), max_size=8).map(" ".join),
    ))
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        model = scratch / "model.json"
        model.write_text(json.dumps(draw(mutated(CHESSWALK_DATA))), encoding="utf-8")
        argv = [command, f"--model={model}", f"--formula={formula}"]
        if command == "replay":
            test_file = scratch / "test.json"
            test_file.write_text(json.dumps(draw(mutated(TEST_RECORDS))), encoding="utf-8")
            argv += [f"--test={test_file}", f"--times={draw(st.sampled_from(COUNTS))}"]
        else:
            argv += ["--episodes=3", "--steps=4"]
            for flag in draw(st.lists(st.sampled_from(KNOB_FLAGS), max_size=2)):
                argv.append(f"--{flag}={draw(st.sampled_from(KNOB_VALUES))}")
            if command == "generate":
                argv += [f"--output={scratch / 'out.json'}", f"--log={scratch / 'log.txt'}"]
            else:
                argv += [f"--csv={scratch / 'runs.csv'}", f"--reps={draw(st.sampled_from(COUNTS))}"]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code, by_argparse = main(argv), False
            except SystemExit as exit:
                code, by_argparse = exit.code, True
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_EXHAUSTED, EXIT_MODEL_ERROR, EXIT_FORMULA_ERROR)
    if by_argparse:
        assert code == EXIT_USAGE
    elif code in (EXIT_USAGE, EXIT_MODEL_ERROR, EXIT_FORMULA_ERROR):
        assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n")


def test_formula_file_input(tmp_path, capsys):
    formula_file = tmp_path / "spec.ltl"
    formula_file.write_text(GO_ABOUT_AND_BACK + "\n")
    code = run(
        "generate", "--model", CHESSWALK, "--formula-file", str(formula_file),
        "--seed", "7", "-o", str(tmp_path / "t.json"),
    )
    assert code == EXIT_OK
    capsys.readouterr()


def test_verbose_log_mirrors_episode_columns(tmp_path, capsys):
    log_path = tmp_path / "episodes.log"
    code = run(
        "generate", "--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK,
        "--seed", "7", "-o", str(tmp_path / "t.json"), "--log", str(log_path), "--verbose",
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    lines = log_path.read_text().strip().splitlines()
    assert lines
    first = lines[0]
    for column in ("i=", "k=", "action=", "L=", "phi=", "r="):
        assert column in first
    assert first.startswith("i=1 k=0 action=reinitialize MainActivity")
    assert first in stdout


def test_replay_times_reports_rate_on_flaky_model(tmp_path, capsys):
    test_file = tmp_path / "spin.json"
    test_file.write_text(json.dumps([
        {"type": "reinitialize", "params": ["StartActivity"]},
        {"type": "click", "params": ["30", "30"]},
    ]))
    code = run(
        "replay", "--model", FLAKY, "--formula", "X [activity~Win]",
        "--test", str(test_file), "--times", "12", "--seed", "1",
    )
    out = capsys.readouterr().out
    assert code == EXIT_EXHAUSTED  # at least one attempt misses the 0.7 branch
    rates = [line for line in out.splitlines() if line.startswith("satisfaction rate")]
    assert len(rates) == 1
    hits = int(rates[0].split()[-1].split("/")[0])
    assert 0 < hits < 12


def test_experiment_writes_csv_and_summary(tmp_path, capsys):
    csv_path = tmp_path / "runs.csv"
    code = run(
        "experiment", "--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK,
        "--reps", "4", "--seed", "100", "--csv", str(csv_path),
    )
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "rep,seed,outcome,episodes,steps,wallTimeMs"
    assert len(lines) == 5
    seeds = [int(line.split(",")[1]) for line in lines[1:]]
    assert seeds == [100, 101, 102, 103]
    summary = capsys.readouterr().out
    assert "failures=0" in summary
    assert "meanSteps=" in summary


def test_experiment_is_byte_deterministic_without_timing(tmp_path, capsys):
    args = (
        "experiment", "--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK,
        "--reps", "3", "--seed", "40", "--no-timing",
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(*args, "--csv", str(first)) == EXIT_OK
    assert run(*args, "--csv", str(second)) == EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_random_engine_flag(tmp_path, capsys):
    code = run(
        "generate", "--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK,
        "--engine", "random", "--seed", "3", "-o", str(tmp_path / "t.json"),
    )
    assert code in (EXIT_OK, EXIT_EXHAUSTED)
    capsys.readouterr()


def test_ablation_flags_are_accepted(tmp_path, capsys):
    code = run(
        "generate", "--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK,
        "--no-reward-shaping", "--no-prediction", "--seed", "7",
        "-o", str(tmp_path / "t.json"),
    )
    assert code == EXIT_OK
    capsys.readouterr()


def _artifacts_under_hash_seed(hash_seed: str, out_dir) -> dict[str, bytes]:
    out_dir.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    common = ("--model", CHESSWALK, "--formula", GO_ABOUT_AND_BACK, "--no-timing")
    commands = {
        "generate": ("generate", *common, "--seed", "7",
                     "-o", str(out_dir / "test.json"), "--log", str(out_dir / "episodes.log")),
        "experiment": ("experiment", *common, "--seed", "40", "--reps", "5",
                       "--csv", str(out_dir / "runs.csv")),
        # Screening prunes here, so the learner chooses among cached candidates.
        "needle": ("generate", "--model", NEEDLE, "--formula", NEEDLE_B, "--no-timing",
                   "--seed", "3", "-o", str(out_dir / "needle.json"),
                   "--log", str(out_dir / "needle.log")),
    }
    artifacts = {}
    for name, argv in commands.items():
        done = subprocess.run(
            [sys.executable, "-m", "ltlgen.cli", *argv],
            env=env, capture_output=True, timeout=120, check=True,
        )
        artifacts[f"{name}.stdout"] = done.stdout
    for path in sorted(out_dir.iterdir()):
        artifacts[path.name] = path.read_bytes()
    return artifacts


def test_artifacts_identical_across_hash_seeds(tmp_path):
    # Predicates, formula nodes and learner decisions hash by identity, which
    # must not leak into the test file, the episode log or the experiment
    # CSV.
    first = _artifacts_under_hash_seed("0", tmp_path / "seed0")
    second = _artifacts_under_hash_seed("1", tmp_path / "seed1")
    assert sorted(first) == [
        "episodes.log", "experiment.stdout", "generate.stdout", "needle.json", "needle.log",
        "needle.stdout", "runs.csv", "test.json",
    ]
    assert first == second


def test_cli_import_leaves_statistics_out():
    # statistics pulls in decimal and fractions; every command would pay for them.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ltlgen.cli; print('statistics' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "False\n"


# sha256 of every --no-timing artifact of four fixed runs, taken before the
# learner, the random baseline and replay shared one episode loop.  Any
# change to a test file, an episode log, an experiment CSV or replay output
# shows here.
# The formula has no action predicates, so screening prunes nothing on
# chesswalk and both chesswalk runs write the same bytes.
_CHESSWALK_DIGESTS = {
        "test": "d7c61e09ba3b0fb1dca0f85856df13649b01e7c19aa3fc4729ab796f25affbb6",
        "log": "706e531d26dc9adc7c2d8b16958cc27e3dfa3598747289267127e375978ad80e",
        "csv": "dcd01e1c59ff42caf2e8a2dc55d8b9ec2cce55db89b4bf92d8e6550d2340f691",
        "replay": "74c843e4ec77d08e36f24cdda2202c482eee0f99de7d7e08cce3bd00e7fff118",
    }
PINNED_RUNS = {
    "needle-b-learner": (NEEDLE, NEEDLE_B, ("--seed", "0"), {
        "test": "ebc3a467743bebf010b7f65f08418beddb78a388202c80f47afb4ae042a42c5f",
        "log": "292cd2da1276e5d2a5dedcdbfdfc4ee9fe4d6f0955ae46ff4b8bed09a9b34fc9",
        "csv": "5fdc43da41c4547572e2f5146fc0fd1b7992328fe6c367184cb4241f5a8f103e",
        "replay": "8711aaf6ea764e7e2f88cf9f1e51bd10e0a06a43cc16fc24e19ff006446bf62d",
    }),
    "needle-b-random": (NEEDLE, NEEDLE_B, ("--seed", "0", "--engine", "random"), {
        "test": "ebc3a467743bebf010b7f65f08418beddb78a388202c80f47afb4ae042a42c5f",
        "log": "b4fa00d6041196a8627c3d6b2dcaad52a7867fe903487c3ddcfe42923accab1a",
        "csv": "d8d633e2f9a290f668e2583bc86c1c4f0232a6c254d627ec36bad9c8f16cffe7",
        "replay": "8711aaf6ea764e7e2f88cf9f1e51bd10e0a06a43cc16fc24e19ff006446bf62d",
    }),
    "chesswalk-learner": (CHESSWALK, GO_ABOUT_AND_BACK, ("--seed", "7"), _CHESSWALK_DIGESTS),
    "chesswalk-no-prediction": (
        CHESSWALK, GO_ABOUT_AND_BACK, ("--seed", "7", "--no-prediction"), _CHESSWALK_DIGESTS,
    ),
    # Unscreened, the learner also weighs the actions screening would drop,
    # so the log and the CSV differ from needle-b-learner's.
    "needle-no-prediction": (NEEDLE, NEEDLE_B, ("--seed", "0", "--no-prediction"), {
        "test": "ebc3a467743bebf010b7f65f08418beddb78a388202c80f47afb4ae042a42c5f",
        "log": "212f28c65cf9ee2b91229628c408dcb25ec7d906031b246a06a61da4f1076dfe",
        "csv": "887109c0b2fb25b69404e4794950f6c73d4dcca8037f7621a7f96e10ffc4c119",
        "replay": "8711aaf6ea764e7e2f88cf9f1e51bd10e0a06a43cc16fc24e19ff006446bf62d",
    }),
    # Screening finds no survivor three times, and charges the previous
    # decision with each dead end, before an episode is satisfied.
    "needle-dead-ends": (
        NEEDLE, "X ([actionType=click] & X ([actionType=swipe] & X [actionType=click]))",
        ("--seed", "3"), {
            "test": "60f07ced8199a47a8586bf5ab5026a0f48e5550188ccf608d80aca859a19d1d1",
            "log": "985dde5c40cc3b13e4aea2a5216a672b702020c595aa11b139bafe91fba9017a",
            "csv": "802096dd74f37ed54ccbec62e6bda5829bc93a56754fbed3228f2fb4de9c45be",
            "replay": "1998b4a4eec07f26288976f570d30ad2854e0d82ad67f4204071b8296fae3718",
        },
    ),
    # The vigilance clamp binds on 135 of the run's 224 clamped values, and
    # the softmax runs near its temperature floor with little exploration.
    # It finds the same test as chesswalk-learner, after 30 episodes and 67
    # steps.
    "chesswalk-tight-vigilance": (
        CHESSWALK, GO_ABOUT_AND_BACK,
        ("--seed", "11", "--vigilance", "0.25", "--t0", "0.6", "--t-min", "0.55", "--eps0", "0.05"),
        {
            "test": "d7c61e09ba3b0fb1dca0f85856df13649b01e7c19aa3fc4729ab796f25affbb6",
            "log": "9de44f9597bbcff77833328ee96e7b58afbe0d0a49e87ccb05d5804199fdf858",
            "csv": "da4b780b4c52c893002c44644d218fd796e7e3cdb7e66469b934369baa66cc40",
            "replay": "74c843e4ec77d08e36f24cdda2202c482eee0f99de7d7e08cce3bd00e7fff118",
        },
    ),
    # Screening takes the action whose labels alone satisfy the formula at step 1.
    "chesswalk-shortcut": (CHESSWALK, "X [actionType=back]", ("--seed", "1"), {
        "test": "9bf4c19fd9128dd2d41b6f24be499772cfa2059ebfa6395cbf8dd7a53a7b6515",
        "log": "56277baf31d3248e1c4a96629602ab6c3641255471ceac7944a9c1c9cd972b16",
        "csv": "8a87ea5360216ff3e8e4902e087dfe5babc5c8e97501dce2f6c944bdfa535323",
        "replay": "7f15721f804aac63735131c792d84d3c038471bf3fa0f339c3d0124c4c4ca311",
    }),
    # A 0.7/0.3 transition that satisfies the formula on either branch; the
    # two replay attempts take both.  Terminal rewards only, and no history
    # in the learner's state.
    "flaky-either-branch": (
        FLAKY, "X ([actionType=click] & ([activity~Win] | [activity~Lose]))",
        ("--seed", "5", "--no-reward-shaping", "--tail-length", "0"), {
            "test": "319706df170f2c32c6fe9770abd29e8e3ecd0ef4a447484116739a641faf693c",
            "log": "09fd2fc4bf30695967f69d7d1b0a33b2d36505ae45219e2c69fbdeced6770c03",
            "csv": "43892cc31c1238b3362f3d0a987b1a9b39c954de5d511889070b0bf10d473cad",
            "replay": "b57b86321baed401ba565570590616346873a62d2d20b778ad585db2e31ee506",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_pinned_artifact_digests(name, tmp_path, capsys):
    model, formula, flags, expected = PINNED_RUNS[name]
    common = ("--model", model, "--formula", formula)
    test, log, csv = tmp_path / "test.json", tmp_path / "episodes.log", tmp_path / "runs.csv"
    assert run("generate", *common, *flags, "--no-timing", "-o", str(test), "--log", str(log)) == EXIT_OK
    assert run("experiment", *common, *flags, "--no-timing", "--reps", "3", "--csv", str(csv)) == EXIT_OK
    capsys.readouterr()
    assert run("replay", *common, "--seed", "0", "--test", str(test), "--times", "2") == EXIT_OK
    artifacts = {
        "test": test.read_bytes(),
        "log": log.read_bytes(),
        "csv": csv.read_bytes(),
        "replay": capsys.readouterr().out.encode(),
    }
    assert {key: hashlib.sha256(data).hexdigest() for key, data in artifacts.items()} == expected


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The uniform baseline alone, pinned before its episodes shared one run
# object.  On flaky the session's random stream runs on across episodes:
# the first click loses, the second wins.
def test_pinned_uniform_baseline_on_a_stochastic_model(tmp_path, capsys):
    common = ("--model", FLAKY, "--formula", "X [activity~Win]", "--engine", "random",
              "--seed", "5", "--no-timing")
    test, log, csv = tmp_path / "test.json", tmp_path / "episodes.log", tmp_path / "runs.csv"
    assert run("generate", *common, "-o", str(test), "--log", str(log)) == EXIT_OK
    assert run("experiment", *common, "--reps", "3", "--csv", str(csv)) == EXIT_OK
    capsys.readouterr()
    assert {"test": sha256_of(test), "log": sha256_of(log), "csv": sha256_of(csv)} == {
        "test": "319706df170f2c32c6fe9770abd29e8e3ecd0ef4a447484116739a641faf693c",
        "log": "76c5e489a55693192e77fbd614dd8af425e78313e2b70a0d249bf8dced564f67",
        "csv": "de072426e02419eff796d3d8db988b526452efc4a1f9ad58be91649fcfc3e265",
    }


# Every rep exhausts its 40 episodes, so the digest covers runs that use
# their whole budget.
def test_pinned_uniform_baseline_experiment_over_whole_budgets(tmp_path, capsys):
    csv = tmp_path / "runs.csv"
    assert run(
        "experiment", "--model", NEEDLE, "--formula", NEEDLE_B, "--engine", "random",
        "--episodes", "40", "--reps", "3", "--no-timing", "--csv", str(csv),
    ) == EXIT_OK
    capsys.readouterr()
    rows = csv.read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["exhausted"] * 3
    assert sha256_of(csv) == "31cfaa5a74a9c362b8d7f67746b9b938d046daa2b86f38740a10fbad948d0775"

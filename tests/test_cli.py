import json
import os
import subprocess
import sys

import pytest

from ltlgen.cli import (
    EXIT_EXHAUSTED,
    EXIT_FORMULA_ERROR,
    EXIT_MODEL_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    _CONFIG_FLAGS,
    main,
)
from conftest import GO_ABOUT_AND_BACK, MODELS

CHESSWALK = str(MODELS / "chesswalk_abstract.json")
FLAKY = str(MODELS / "flaky.json")
SRC = MODELS.parent / "src"
FLOAT_FLAGS = [flag for flag, kind, _ in _CONFIG_FLAGS if kind is float]


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


def test_model_error_exit(tmp_path, capsys):
    code = run(
        "generate", "--model", str(tmp_path / "absent.json"),
        "--formula", "true", "-o", str(tmp_path / "t.json"),
    )
    assert code == EXIT_MODEL_ERROR
    assert "model error" in capsys.readouterr().err


def test_bad_config_exit(tmp_path, capsys):
    code = run(
        "generate", "--model", CHESSWALK, "--formula", "true",
        "--t0", "-5", "-o", str(tmp_path / "t.json"),
    )
    assert code == EXIT_USAGE
    assert "invalid configuration" in capsys.readouterr().err


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


def test_usage_error_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        run("generate", "--formula", "true")  # --model missing
    assert info.value.code == EXIT_USAGE
    capsys.readouterr()


def test_exit_codes_are_distinct():
    codes = {EXIT_OK, EXIT_USAGE, EXIT_EXHAUSTED, EXIT_MODEL_ERROR, EXIT_FORMULA_ERROR}
    assert len(codes) == 5


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
    # Formula nodes hash by identity and predicates by string hash; neither
    # may leak into the test file, the episode log or the experiment CSV.
    first = _artifacts_under_hash_seed("0", tmp_path / "seed0")
    second = _artifacts_under_hash_seed("1", tmp_path / "seed1")
    assert sorted(first) == ["episodes.log", "experiment.stdout", "generate.stdout", "runs.csv", "test.json"]
    assert first == second

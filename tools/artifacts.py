"""Write the artifacts of a fixed matrix of command-line runs into a directory.

Usage::

    PYTHONPATH=<checkout>/src python tools/artifacts.py OUT_DIR

Runs ``ltlgen.cli.main`` in this one process over five inputs (needle,
chesswalk twice, flaky twice), both engines, four flag sets and three
seeds.
Every case writes its ``generate`` log and stdout, and its ``experiment``
CSV and stdout; a case whose ``generate`` finds a test also writes the test
file and the stdout of ``replay --times 2`` of it.  Each stdout file holds
stderr and the exit code too.  Timings are zeroed with ``--no-timing``, so
two runs of the same code write the same bytes: ``diff -r`` of the
directories written from two checkouts' ``src`` shows any change in
behaviour, and of two runs under different ``PYTHONHASHSEED`` values any
output that follows hash order.

``ltlgen`` is imported from ``PYTHONPATH`` and the models from this
checkout's ``models``.  The script writes nothing but ``OUT_DIR``, which must
be empty or absent, and it writes no bytecode.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.dont_write_bytecode = True

from ltlgen import cli  # noqa: E402

MODELS = Path(__file__).resolve().parent.parent / "models"

# (name, model file, formula, extra flags)
INPUTS = (
    (
        "needle", "needle.json",
        "X (([actionType=click] & [activity~Vault1])"
        " & X (([actionType=click] & [activity~Vault2])"
        " & X ([actionType=click] & [activity~Treasure])))",
        (),
    ),
    (
        "chesswalk", "chesswalk_abstract.json",
        "X ([activity~Main] U ([activity~About] & X ([activity~About] U [activity~Main])))",
        (),
    ),
    (
        "chesswalk-liveness", "chesswalk_abstract.json",
        "G ([activity~Main] -> F [activity~About])",
        ("--steps", "8", "--episodes", "40"),
    ),
    ("flaky", "flaky.json", "X [activity~Win]", ()),
    # Holds on either side of the stochastic click, so a replay may reach the other side.
    ("flaky-either", "flaky.json", "X ([actionType=click] & ([activity~Win] | [activity~Lose]))", ()),
)
ENGINES = ("farlead", "random")
FLAGS = (
    ("plain", ()),
    ("no-prediction", ("--no-prediction",)),
    ("tail-0", ("--tail-length", "0")),
    ("no-shaping", ("--no-reward-shaping",)),
)
SEEDS = (0, 3, 17)


def run(argv: list[str], out: Path) -> None:
    """Run the command line on ``argv``; write its stdout, stderr and exit
    code to ``out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    out.write_text(
        f"{stdout.getvalue()}--- stderr\n{stderr.getvalue()}--- exit {code}\n", encoding="utf-8"
    )


def write_all(directory: Path) -> int:
    """Write every case's artifacts; returns how many files were written."""
    for name, model_file, formula, extra in INPUTS:
        inputs = ["--model", str(MODELS / model_file), "--formula", formula]
        for engine in ENGINES:
            for flag_name, flags in FLAGS:
                for seed in SEEDS:
                    case = directory / f"{name}-{engine}-{flag_name}-seed{seed}"
                    search = [*inputs, "--seed", str(seed), "--engine", engine, *flags, *extra]
                    test = case.with_suffix(".test.json")
                    run(
                        ["generate", *search, "--no-timing",
                         "-o", str(test), "--log", str(case.with_suffix(".log"))],
                        case.with_suffix(".generate.out"),
                    )
                    if test.exists():
                        run(
                            ["replay", *inputs, "--seed", str(seed),
                             "--test", str(test), "--times", "2"],
                            case.with_suffix(".replay.out"),
                        )
                    run(
                        ["experiment", *search, "--no-timing",
                         "--reps", "3", "--csv", str(case.with_suffix(".csv"))],
                        case.with_suffix(".experiment.out"),
                    )
    return sum(1 for _ in directory.iterdir())


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: PYTHONPATH=<checkout>/src python tools/artifacts.py OUT_DIR", file=sys.stderr)
        return 2
    directory = Path(argv[0])
    if directory.exists() and any(directory.iterdir()):
        print(f"{directory} is not empty", file=sys.stderr)
        return 2
    directory.mkdir(parents=True, exist_ok=True)
    print(f"{write_all(directory)} files written to {directory}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

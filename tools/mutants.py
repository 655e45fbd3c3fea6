"""Check that the reference-run test kills each of a list of seeded faults.

Usage::

    python tools/mutants.py

Each mutant is one textual replacement in ``src/ltlgen/engine.py`` or
``src/ltlgen/progression.py``; its pattern must occur exactly once there.
The unmutated code and then each mutant are copied, with ``tests`` and
``models``, into a temporary directory, where
``tests/test_random_models.py::test_runs_equal_the_reference_run`` runs
under a fixed Hypothesis seed.  The unmutated copy must pass and every
mutant must fail it.  One line is printed per copy.

Exits 0 when every mutant is killed, 1 when the unmutated copy fails or a
mutant survives or breaks the test run itself, and 2 when a pattern does
not match exactly once.  Nothing is written into the checkout.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST = "tests/test_random_models.py::test_runs_equal_the_reference_run"
ENGINE = "src/ltlgen/engine.py"
PROGRESSION = "src/ltlgen/progression.py"

# (name, file, pattern, replacement)
MUTANTS = (
    ("edge key (phi, action)", ENGINE,
     "key = (phi, action, state)", "key = (phi, action)"),
    ("edge key (action, state)", ENGINE,
     "key = (phi, action, state)", "key = (action, state)"),
    # The first tail's prediction is served for every later tail.
    ("screening keyed without the tail", ENGINE,
     "    return _predict(phi, tail, tuple(enabled), alphabet)",
     "    return _predict.__dict__.setdefault("
     "(phi, tuple(enabled), alphabet), _predict(phi, tail, tuple(enabled), alphabet))"),
    ("tail slice [:L] for [-L:]", ENGINE,
     "[-config.tail_length:]", "[:config.tail_length]"),
    ("no seeding of a new tail's value", ENGINE,
     "        q1[decision] = qa1.get(action_labels, 0.0)", "        pass"),
    ("reversed candidate order", ENGINE,
     "for a in survivors}", "for a in reversed(survivors)}"),
    ("no annealing", ENGINE,
     "run.temperature, run.epsilon, run.eta = anneal(", "anneal("),
    ("doubled eps floor", ENGINE,
     "max(config.eps_update * epsilon, config.eps_min)",
     "max(config.eps_update * epsilon, 2 * config.eps_min)"),
    ("shaped reward's sign flipped", PROGRESSION,
     "    return abs(n_after - n_before) / total", "    return -abs(n_after - n_before) / total"),
    ("eligibility trace not cleared per episode", ENGINE,
     "    store.elig.clear()\n", ""),
    # The uniform pick redraws at most once, or draws too few bits for a power of two.
    ("pick redraws once at most", ENGINE,
     "        while r >= n:", "        if r >= n:"),
    ("pick draws (n - 1).bit_length() bits", ENGINE,
     "bits = n.bit_length()", "bits = (n - 1).bit_length()"),
    # An edge's record holds the obligation before its step, not the one after.
    ("edge record with the obligation before the step", ENGINE,
     "(action, labels, verdict.formula, reward)", "(action, labels, phi, reward)"),
)


def copy_checkout(destination: Path) -> None:
    for part in ("src", "tests", "models"):
        shutil.copytree(ROOT / part, destination / part, ignore=shutil.ignore_patterns("__pycache__"))


def run_test(copy: Path) -> int:
    """pytest's exit code for the test in ``copy``: 0 passed, 1 failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=12345", TEST,
    ]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    # Every pattern is checked before anything runs.
    for name, file, pattern, _ in MUTANTS:
        count = (ROOT / file).read_text(encoding="utf-8").count(pattern)
        if count != 1:
            print(f"error: mutant {name!r}: {pattern!r} occurs {count} times in {file}", file=sys.stderr)
            return 2
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for index, mutant in enumerate((None, *MUTANTS)):
            copy = Path(scratch) / str(index)
            copy_checkout(copy)
            if mutant is None:
                code = run_test(copy)
                print(f"{'passes' if code == 0 else f'FAILS (exit {code})':<10} unmutated")
                failed |= code != 0
                continue
            name, file, pattern, replacement = mutant
            path = copy / file
            path.write_text(
                path.read_text(encoding="utf-8").replace(pattern, replacement), encoding="utf-8"
            )
            code = run_test(copy)
            # Exit 1 is a failed test; any other code means the run itself broke.
            verdict = {0: "SURVIVES", 1: "killed"}.get(code, f"ERROR (exit {code})")
            print(f"{verdict:<10} {name}")
            failed |= code != 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that each of a list of seeded faults is killed by the tests listed
with it.

Usage::

    python tools/mutants.py

Each mutant is one textual replacement in a module of ``src/ltlgen``; its
pattern must occur exactly once there.  The unmutated code and then each
mutant are copied, with ``tests`` and ``models``, into a temporary
directory.  The unmutated copy runs the union of every mutant's tests and
must pass; each mutant copy runs only its own tests and must fail them.
Every run uses a fixed Hypothesis seed, and copies run two at a time.  One
line is printed per copy.

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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = "src/ltlgen/engine.py"
FORMULA = "src/ltlgen/formula.py"
MODEL = "src/ltlgen/model.py"
PARSER = "src/ltlgen/parser.py"
PROGRESSION = "src/ltlgen/progression.py"
REFERENCE = "tests/test_random_models.py::test_runs_equal_the_reference_run"
WORKERS = 2

# (name, file, pattern, replacement, the tests that kill it)
MUTANTS = (
    ("edge key (phi, action)", ENGINE,
     "key = (phi, action, state)", "key = (phi, action)", (REFERENCE,)),
    ("edge key (action, state)", ENGINE,
     "key = (phi, action, state)", "key = (action, state)", (REFERENCE,)),
    # The first tail's prediction is served for every later tail.
    ("screening keyed without the tail", ENGINE,
     "    return _predict(phi, tail, tuple(enabled), alphabet)",
     "    return _predict.__dict__.setdefault("
     "(phi, tuple(enabled), alphabet), _predict(phi, tail, tuple(enabled), alphabet))",
     (REFERENCE,)),
    ("tail slice [:L] for [-L:]", ENGINE,
     "[-config.tail_length:]", "[:config.tail_length]", (REFERENCE,)),
    ("no seeding of a new tail's value", ENGINE,
     "            q1[decision] = qa1.get(action_labels, 0.0)", "            pass", (REFERENCE,)),
    # A repeat update redoes the first one's bookkeeping: a dead-end charge,
    # which passes no labels, then stores the empty labeling over the decision's.
    ("a learned decision takes the first-update branch", ENGINE,
     "if decision not in labels_of:", "if True:",
     ("tests/test_engine.py::test_a_dead_end_charge_updates_the_stored_labeling",)),
    ("no zero entry for a first update's decision in q2", ENGINE,
     "        q2.setdefault(decision, 0.0)\n", "",
     ("tests/test_engine.py::test_every_labeled_decision_has_its_table_entries",)),
    ("reversed candidate order", ENGINE,
     "for a in survivors}", "for a in reversed(survivors)}", (REFERENCE,)),
    ("no annealing", ENGINE,
     "run.temperature, run.epsilon, run.eta = anneal(", "anneal(", (REFERENCE,)),
    ("doubled eps floor", ENGINE,
     "eps_min if eps_min > epsilon else epsilon",
     "2 * eps_min if 2 * eps_min > epsilon else epsilon", (REFERENCE,)),
    # The temperature passes its floor: only a step that stays above it is cut to it.
    ("anneal's temperature comparison reversed", ENGINE,
     "t_min if t_min > temperature else temperature",
     "t_min if t_min < temperature else temperature",
     ("tests/test_engine.py::test_anneal_moves_toward_the_floors",)),
    ("shaped reward's sign flipped", PROGRESSION,
     "    return abs(n_after - n_before) / total", "    return -abs(n_after - n_before) / total",
     (REFERENCE,)),
    ("eligibility trace not cleared per episode", ENGINE,
     "    store.elig.clear()\n", "", (REFERENCE,)),
    # The uniform pick redraws at most once, or draws too few bits for a power of two.
    ("pick redraws once at most", ENGINE,
     "        while r >= n:", "        if r >= n:", (REFERENCE,)),
    ("pick draws (n - 1).bit_length() bits", ENGINE,
     "bits = n.bit_length()", "bits = (n - 1).bit_length()", (REFERENCE,)),
    # An edge's record holds the obligation before its step, not the one after.
    ("edge record with the obligation before the step", ENGINE,
     "(action, labels, verdict.formula, reward)", "(action, labels, phi, reward)", (REFERENCE,)),
    # The dead end's charge is also stored in its edge, so later episodes read it.
    ("dead-end charge written into its edge", ENGINE,
     "steps[-1] = steps[-1]._replace(reward=-1.0)",
     "steps[-1] = steps[-1]._replace(reward=-1.0)\n"
     "                    edges[key] = (*edge[:2], steps[-1])",
     ("tests/test_engine.py::test_a_dead_end_charge_stays_with_its_episode",)),
    ("~ as a prefix match", FORMULA,
     "return self.value in observed", "return observed.startswith(self.value)",
     ("tests/test_formula.py::test_a_substring_predicate_matches_anywhere_in_the_value",)),
    ("render wraps a right until operand", FORMULA,
     "_wrap(phi.right, And)", "_wrap(phi.right, (And, Until))",
     ("tests/test_formula.py::test_render_leaves_a_right_nested_until_bare",)),
    ("a one-conjunct conjunction", FORMULA,
     "if len(key) < 2:", "if not key:",
     ("tests/test_formula.py::test_a_conjunction_needs_two_conjuncts",)),
    ("render prints what is not a formula", FORMULA,
     'raise TypeError(f"not a formula: {phi!r}")', "return repr(phi)",
     ("tests/test_formula.py::test_render_rejects_what_is_not_a_formula",)),
    ("-> left-associative", PARSER,
     '"->": (1, "right",', '"->": (1, "left",',
     ("tests/test_parser.py::test_implication_is_right_associative",)),
    ("| binding tighter than &", PARSER,
     '"|": (2, "left", _or),', '"|": (5, "left", _or),',
     ("tests/test_parser.py::test_conjunction_binds_tighter_than_disjunction",)),
    ("weight-sum tolerance 1e-3", MODEL,
     "abs(total - 1.0) > 1e-9", "abs(total - 1.0) > 1e-3",
     ("tests/test_model.py::test_validation_rejects_weights_a_millionth_off_one",)),
    ("eligibility floor exclusive", ENGINE,
     "if decayed >= elig_min:", "if decayed > elig_min:",
     ("tests/test_engine.py::test_a_trace_decayed_onto_the_floor_stays_eligible",)),
    # Draws on a bound: a roll equal to a partial sum, or above the rounded total.
    ("policy roll on a partial sum taken", ENGINE,
     "        if roll < acc:", "        if roll <= acc:",
     ("tests/test_engine.py::test_a_roll_on_a_partial_sum_picks_the_next_candidate",)),
    # The pick's running sum loses the epsilon-uniform floor of each probability.
    ("policy walk without the floor", ENGINE,
     "acc += keep * w / total + floor", "acc += keep * w / total",
     ("tests/test_engine.py::test_the_pick_walks_the_published_distribution",)),
    ("policy rounding fallback to the first candidate", ENGINE,
     "    # Rounding left the roll above the last sum: the last candidate takes it.\n"
     "    return decision",
     "    return next(iter(candidates))",
     ("tests/test_engine.py::test_a_roll_above_the_rounded_sum_picks_the_last_candidate",)),
    ("swap on a roll of one half", ENGINE,
     "if rng.random() < 0.5:", "if rng.random() <= 0.5:",
     ("tests/test_engine.py::test_a_swap_roll_of_one_half_keeps_both_table_pairs",)),
    ("session roll on a partial sum taken", MODEL,
     "if roll < acc:", "if roll <= acc:",
     ("tests/test_model.py::test_a_roll_on_a_partial_weight_sum_goes_to_the_next_successor",)),
    ("session rounding fallback to the first successor", MODEL,
     "target = distribution[-1][0]", "target = distribution[0][0]",
     ("tests/test_model.py::test_a_roll_above_the_rounded_weight_sum_goes_to_the_last_successor",)),
)


def prepare(scratch: Path, index: int, mutant) -> Path:
    """A copy of the checkout in ``scratch``, with ``mutant`` applied."""
    copy = scratch / str(index)
    for part in ("src", "tests", "models"):
        shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        _, file, pattern, replacement, _ = mutant
        path = copy / file
        path.write_text(path.read_text(encoding="utf-8").replace(pattern, replacement), encoding="utf-8")
    return copy


def run_tests(copy: Path, tests) -> int:
    """pytest's exit code for ``tests`` in ``copy``: 0 passed, 1 failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=12345", *tests,
    ]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def outcome(scratch: Path, index: int, mutant, every_test) -> str:
    """What one copy's tests did: the unmutated copy passes, a mutant is killed."""
    copy = prepare(scratch, index, mutant)
    if mutant is None:
        code = run_tests(copy, every_test)
        return "passes" if code == 0 else f"FAILS (exit {code})"
    code = run_tests(copy, mutant[4])
    # Exit 1 is a failed test; any other code means the run itself broke.
    return {0: "SURVIVES", 1: "killed"}.get(code, f"ERROR (exit {code})")


def main() -> int:
    # Every pattern is checked before anything runs.
    for name, file, pattern, _, _ in MUTANTS:
        count = (ROOT / file).read_text(encoding="utf-8").count(pattern)
        if count != 1:
            print(f"error: mutant {name!r}: {pattern!r} occurs {count} times in {file}", file=sys.stderr)
            return 2
    every_test = sorted({test for *_, tests in MUTANTS for test in tests})
    copies = (None, *MUTANTS)
    failed = False
    with tempfile.TemporaryDirectory() as scratch, ThreadPoolExecutor(WORKERS) as pool:
        outcomes = pool.map(
            lambda indexed: outcome(Path(scratch), *indexed, every_test), enumerate(copies)
        )
        for mutant, result in zip(copies, outcomes):
            print(f"{result:<10} {'unmutated' if mutant is None else mutant[0]}", flush=True)
            failed |= result != ("passes" if mutant is None else "killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

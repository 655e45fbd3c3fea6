"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and case counts.
"""

import dataclasses
import random
import statistics
import time

import pytest

from ltlgen import (
    Atom,
    DONT_CARE,
    Decision,
    LearnerConfig,
    QStore,
    TRUE,
    anneal,
    decide_next_action,
    evaluate,
    generate,
    learn,
    parse,
    policy_probabilities,
    projection,
    prune_and_predict,
    random_policy_generate,
    replay,
    simplify,
)
from ltlgen.cli import EXIT_OK, main
from ltlgen.engine import CONTINUE, DEAD_END
from ltlgen.formula import atom_set
from ltlgen.model import action_labeling, state_labeling

from conftest import GO_ABOUT_AND_BACK, MODELS, NEEDLE_A, NEEDLE_B, NEEDLE_C
from helpers import P, Q, enumerate_formulas, has_redex, lab, random_formula


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# --- criterion 1: golden reproduction of the worked example ---

def test_criterion_1_worked_example_golden(chesswalk):
    start = time.monotonic()
    phi = parse(GO_ABOUT_AND_BACK)
    reinit = ("reinitialize", ("MainActivity",))

    episode3 = replay(chesswalk, [reinit, ("click", ("239", "669")), ("back", ())], phi)
    assert episode3.outcome == "satisfied"
    expected_formulas = [
        simplify(parse("[activity~Main] U ([activity~About] & X ([activity~About] U [activity~Main]))")),
        simplify(parse("[activity~About] U [activity~Main]")),
        TRUE,
    ]
    assert [s.formula for s in episode3.steps] == expected_formulas
    for got, want in zip((s.reward for s in episode3.steps), (0.0, 1 / 3, 1.0)):
        assert abs(got - want) <= 1e-12

    episode1 = replay(chesswalk, [reinit, ("pauseresume", ()), ("back", ())], phi)
    assert episode1.outcome == "falsified"
    for got, want in zip((s.reward for s in episode1.steps), (0.0, 0.0, -1.0)):
        assert abs(got - want) <= 1e-12

    episode2 = replay(chesswalk, [reinit, ("click", ("239", "669")), ("click", ("143", "32"))], phi)
    assert episode2.outcome == "falsified"
    for got, want in zip((s.reward for s in episode2.steps), (0.0, 1 / 3, -1.0)):
        assert abs(got - want) <= 1e-12

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, True, f"three golden episodes reproduced exactly in {elapsed * 1000:.0f} ms")


# --- criterion 2: progression agrees with the brute-force semantics ---

LABELINGS = [lab(), lab(P), lab(Q), lab(P, Q)]


def _check_against_oracle(phi0, proj_memo) -> tuple[int, int]:
    checked = resolved = 0

    def proj(phi, labeling):
        key = (phi, labeling)
        verdict = proj_memo.get(key)
        if verdict is None:
            verdict = proj_memo[key] = projection(phi, labeling)
        return verdict

    def walk(current, prefix):
        nonlocal checked, resolved
        for labeling in LABELINGS:
            verdict = proj(current, labeling)
            trace = prefix + [labeling]
            checked += 1
            if verdict.is_true:
                resolved += 1
                assert evaluate(trace, 0, phi0) is True, (phi0, trace)
                for later in LABELINGS:  # verdicts are irrevocable
                    assert proj(verdict.formula, later).is_true
            elif verdict.is_false:
                resolved += 1
                assert evaluate(trace, 0, phi0) is False, (phi0, trace)
                for later in LABELINGS:
                    assert proj(verdict.formula, later).is_false
            elif len(trace) < 4:
                walk(verdict.formula, trace)

    walk(phi0, [])
    return checked, resolved


def test_criterion_2_progression_oracle_equivalence():
    start = time.monotonic()
    leaves = [TRUE, Atom(P), Atom(Q)]
    formulas = enumerate_formulas(3, leaves)
    assert len(formulas) == 6219  # 3 leaves closed under !, X, &, U up to 3 operators

    memo = {}
    checked = resolved = 0
    for phi in formulas:
        c, r = _check_against_oracle(phi, memo)
        checked += c
        resolved += r

    rng = random.Random(99)
    for _ in range(1000):
        c, r = _check_against_oracle(random_formula(rng, 6, leaves), memo)
        checked += c
        resolved += r

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(
        2,
        True,
        f"{len(formulas)} exhaustive + 1000 random formulas, {checked} projections, "
        f"{resolved} resolved verdicts matched the oracle in {elapsed:.1f} s",
    )


# --- criteria 3-6 share one experiment matrix over the needle model ---

@pytest.fixture(scope="module")
def needle_matrix(needle):
    def sweep(engine, formula_text, seed_base, **overrides):
        phi = parse(formula_text)
        stats = []
        for i in range(100):
            config = dataclasses.replace(LearnerConfig(), seed=seed_base + i, **overrides)
            stats.append(engine(needle, phi, config).stats)
        return stats

    start = time.monotonic()
    matrix = {
        "random_b": sweep(random_policy_generate, NEEDLE_B, 1000),
        "farlead_a": sweep(generate, NEEDLE_A, 2000),
        "farlead_b": sweep(generate, NEEDLE_B, 3000),
        "farlead_c": sweep(generate, NEEDLE_C, 4000),
        "farlead_c_nopred": sweep(generate, NEEDLE_C, 5000, predict=False),
    }
    matrix["elapsed"] = time.monotonic() - start
    return matrix


def _failures(stats) -> int:
    return sum(1 for s in stats if s.outcome != "satisfied")


def test_criterion_3_effectiveness_vs_random(needle_matrix):
    farlead = _failures(needle_matrix["farlead_b"])
    baseline = _failures(needle_matrix["random_b"])
    assert needle_matrix["elapsed"] < 600.0
    report(
        3,
        farlead < baseline and farlead <= 10,
        f"failures across 100 runs: learner {farlead}, random {baseline} "
        f"(matrix built in {needle_matrix['elapsed']:.1f} s)",
    )


def test_criterion_4_detail_level_monotonicity(needle_matrix):
    medians = {
        level: statistics.median(s.steps for s in needle_matrix[f"farlead_{level}"])
        for level in ("a", "b", "c")
    }
    report(
        4,
        medians["c"] <= medians["b"] <= medians["a"],
        f"median total steps: level a {medians['a']}, b {medians['b']}, c {medians['c']}",
    )


def test_criterion_5_step_bound(needle_matrix, chesswalk):
    worst = 0
    for key in ("random_b", "farlead_a", "farlead_b", "farlead_c", "farlead_c_nopred"):
        for stats in needle_matrix[key]:
            if stats.outcome == "satisfied":
                worst = max(worst, stats.steps)
    for seed in range(20):
        config = dataclasses.replace(LearnerConfig(), seed=seed)
        result = generate(chesswalk, parse(GO_ABOUT_AND_BACK), config)
        assert result.satisfied
        worst = max(worst, result.stats.steps)
    report(5, worst < 4000, f"worst successful run used {worst} steps")


def test_criterion_6_prediction_ablation(needle_matrix):
    pruned = statistics.fmean(s.steps for s in needle_matrix["farlead_c"])
    unpruned = statistics.fmean(s.steps for s in needle_matrix["farlead_c_nopred"])
    report(
        6,
        pruned < unpruned,
        f"mean executed actions with screening {pruned:.1f}, without {unpruned:.1f}",
    )


# --- criterion 7: byte-identical artifacts for identical inputs ---

def test_criterion_7_determinism(tmp_path, capsys):
    model = str(MODELS / "chesswalk_abstract.json")
    tests = [tmp_path / "a_test.json", tmp_path / "b_test.json"]
    for out in tests:
        code = main([
            "generate", "--model", model, "--formula", GO_ABOUT_AND_BACK,
            "--seed", "17", "-o", str(out),
        ])
        assert code == EXIT_OK
    assert tests[0].read_bytes() == tests[1].read_bytes()

    code = main([
        "replay", "--model", model, "--formula", GO_ABOUT_AND_BACK, "--test", str(tests[0]),
    ])
    assert code == EXIT_OK

    csvs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in csvs:
        code = main([
            "experiment", "--model", model, "--formula", GO_ABOUT_AND_BACK,
            "--reps", "5", "--seed", "60", "--no-timing", "--csv", str(out),
        ])
        assert code == EXIT_OK
    capsys.readouterr()
    assert csvs[0].read_bytes() == csvs[1].read_bytes()
    report(7, True, "repeated invocations produced byte-identical test files and CSVs")


# --- criterion 8: generated-input property suites, >= 10,000 cases total ---

def _suite_simplify_idempotence() -> int:
    rng = random.Random(81)
    leaves = [TRUE, Atom(P), Atom(Q)]
    cases = 3000
    for _ in range(cases):
        phi = random_formula(rng, 8, leaves)
        once = simplify(phi)
        assert simplify(once) == once
        assert not has_redex(once)
    return cases


def _suite_policy_normalization() -> int:
    rng = random.Random(82)
    cases = 2500
    for _ in range(cases):
        count = rng.randrange(1, 12)
        candidates = [Decision((), (f"a{i}", (), "")) for i in range(count)]
        store = QStore()
        for d in candidates:
            if rng.random() < 0.7:
                store.q1[d] = rng.uniform(-5, 5)
                store.q2[d] = rng.uniform(-5, 5)
        temperature = rng.uniform(0.01, 10.0)
        epsilon = rng.random()
        probs = policy_probabilities(store, candidates, temperature, epsilon)
        assert all(p >= 0 for p in probs)
        assert abs(sum(probs) - 1.0) <= 1e-9
        chosen = decide_next_action(store, candidates, temperature, epsilon, rng)
        assert chosen in candidates
    return cases


def _suite_q_clamp() -> int:
    rng = random.Random(83)
    cases = 2500
    calls = 0
    while calls < cases:
        config = dataclasses.replace(
            LearnerConfig(),
            vigilance=rng.uniform(0.05, 2.0),
            doubleness=rng.random(),
            elig_decay=rng.random(),
            elig_min=rng.uniform(0.001, 0.5),
        )
        store = QStore()
        pool = [
            Decision(
                tuple((f"s{rng.randrange(3)}", f"t{rng.randrange(3)}") for _ in range(rng.randrange(3))),
                (f"a{rng.randrange(4)}", (), ""),
            )
            for _ in range(6)
        ]
        for _ in range(25):
            learn(
                store,
                rng.choice(pool),
                rng.uniform(-1, 1),
                config,
                eta=rng.uniform(0.05, 1.5),
                rng=rng,
            )
            calls += 1
            bound = config.vigilance + 1e-12
            assert all(abs(v) <= bound for v in store.q1.values())
            assert all(abs(v) <= bound for v in store.q2.values())
            assert all(v >= 0 for v in store.elig.values())
    return calls


def _suite_annealing_monotonicity() -> int:
    rng = random.Random(84)
    cases = 1000
    for _ in range(cases):
        t0 = rng.uniform(0.5, 10.0)
        eps0 = rng.uniform(0.05, 1.0)
        eta0 = rng.uniform(0.1, 1.5)
        config = dataclasses.replace(
            LearnerConfig(),
            t0=t0,
            t_min=rng.uniform(0.01, t0),
            t_delta=rng.uniform(0.001, 1.0),
            eps0=eps0,
            eps_min=rng.uniform(0.001, eps0),
            eps_update=rng.uniform(0.5, 1.0),
            eta0=eta0,
            eta_min=rng.uniform(0.01, eta0),
            eta_update=rng.uniform(0.5, 1.0),
        )
        config.validate()
        t, eps, eta = config.t0, config.eps0, config.eta0
        for _ in range(150):
            nt, neps, neta = anneal(t, eps, eta, config)
            assert nt <= t and neps <= eps and neta <= eta
            assert nt >= config.t_min and neps >= config.eps_min and neta >= config.eta_min
            t, eps, eta = nt, neps, neta
    return cases


def _suite_pruning_soundness(models) -> tuple[int, int]:
    rng = random.Random(85)
    screened = pruned_total = 0
    for model, atom_pool in models:
        leaves = [Atom(ap) for ap in atom_pool]
        states = [DONT_CARE] + list(model.states.values())
        for _ in range(150):
            phi = simplify(random_formula(rng, 6, leaves))
            alphabet = atom_set(phi)
            action_alpha = frozenset(a for a in alphabet if a.is_action)
            state_alpha = alphabet - action_alpha
            for state in states:
                enabled = model.enabled_in(state)
                prediction = prune_and_predict(phi, (), enabled, action_alpha)
                if prediction.kind not in (CONTINUE, DEAD_END):
                    continue  # early satisfaction: no action was ruled out
                survivors = {a.signature for _, a in prediction.survivors}
                screened += len(enabled)
                for action in enabled:
                    if action.signature in survivors:
                        continue
                    pruned_total += 1
                    for successor, _ in model.transition(state, action):
                        labels = action_labeling(action, action_alpha) | state_labeling(
                            successor, state_alpha
                        )
                        assert projection(phi, labels).is_false, (phi, state.id, action)
    return screened, pruned_total


def test_criterion_8_property_suites(chesswalk, needle):
    from ltlgen import AtomicProposition as AP

    chesswalk_atoms = [
        AP("activity", "~", "Main"), AP("activity", "~", "About"), AP("activity", "~", "Settings"),
        AP("text", "~", "About"), AP("checked", "=", "true"),
        AP("actionType", "=", "click"), AP("actionType", "=", "back"),
        AP("actionType", "=", "pauseresume"), AP("actionDetail", "~", "About"),
        AP("actionObjectID", "=", "0:4"),
    ]
    needle_atoms = [
        AP("activity", "~", "Vault1"), AP("activity", "~", "Vault2"), AP("activity", "~", "Treasure"),
        AP("actionType", "=", "click"), AP("actionType", "=", "swipe"),
        AP("actionDetail", "~", "Gamma"), AP("actionDetail", "~", "Gold"),
    ]

    counts = {
        "simplify idempotence": _suite_simplify_idempotence(),
        "policy normalization": _suite_policy_normalization(),
        "q-clamp": _suite_q_clamp(),
        "annealing monotonicity": _suite_annealing_monotonicity(),
    }
    screened, pruned = _suite_pruning_soundness(
        [(chesswalk, chesswalk_atoms), (needle, needle_atoms)]
    )
    assert pruned > 0  # the soundness sweep must actually exercise pruning
    counts["pruning soundness"] = screened
    total = sum(counts.values())
    detail = ", ".join(f"{name} {count}" for name, count in counts.items())
    report(8, total >= 10_000, f"{total} generated cases ({detail}; {pruned} actions pruned)")

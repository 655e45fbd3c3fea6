import random

from hypothesis import given, strategies as st

from ltlgen import (
    And,
    Atom,
    AtomicProposition,
    FALSE,
    GuiAction,
    Next,
    Not,
    TRUE,
    Until,
    Verdict,
    evaluate,
    parse,
    projection,
    prune_and_predict,
    simplify,
)
from ltlgen import engine
from ltlgen.model import action_labeling
from ltlgen.progression import advance, expand, restrict, shaped_reward
from helpers import P, Q, enumerate_formulas, lab, random_formula

# The worked example's objective: first reach a Q-position via P-positions,
# then return to a P-position via Q-positions, all starting one step in.
PHI0 = parse("X ([p=1] U ([q=1] & X ([q=1] U [p=1])))")
PHI1 = parse("[p=1] U ([q=1] & X ([q=1] U [p=1]))")


# --- evaluate: the brute-force reference semantics ---

def test_satisfying_trace():
    assert evaluate([lab(P), lab(Q), lab(P)], 0, PHI0) is True


def test_non_satisfying_trace():
    assert evaluate([lab(P), lab(P), lab()], 0, PHI0) is False


def test_truth_holds_anywhere():
    for trace in ([], [lab()], [lab(P), lab(Q)]):
        assert evaluate(trace, 0, TRUE) is True
        assert evaluate(trace, len(trace), TRUE) is True


def test_atoms_are_false_beyond_the_trace():
    assert evaluate([lab(P)], 1, Atom(P)) is False
    assert evaluate([lab(P)], 0, Next(Atom(P))) is False
    assert evaluate([lab(P)], 0, Next(TRUE)) is True


def test_until_needs_a_witness_inside_the_trace():
    assert evaluate([lab(P)], 0, Until(Atom(P), Atom(Q))) is False
    assert evaluate([lab(P), lab(Q)], 0, Until(Atom(P), Atom(Q))) is True
    assert evaluate([lab()], 1, Until(TRUE, Atom(Q))) is False


# --- expand ---

def test_expand_unrolls_until_once():
    phi = Until(Atom(P), Atom(Q))
    expected = Not(And(Not(Atom(Q)), Not(And(Atom(P), Next(phi)))))
    assert expand(phi) == expected


def test_expand_leaves_other_nodes():
    assert expand(Atom(P)) == Atom(P)
    assert expand(TRUE) == TRUE
    assert expand(Next(Until(Atom(P), Atom(Q)))) == Next(Until(Atom(P), Atom(Q)))


def test_expand_worked_example_unrolling():
    expected = parse(
        "!(!([q=1] & X ([q=1] U [p=1]))"
        " & !([p=1] & X ([p=1] U ([q=1] & X ([q=1] U [p=1])))))"
    )
    assert expand(PHI1) == expected


# --- restrict ---

def test_restrict_worked_example_substitution():
    expected = parse(
        "!(!(!true & X ([q=1] U [p=1]))"
        " & !(true & X ([p=1] U ([q=1] & X ([q=1] U [p=1])))))"
    )
    assert restrict(expand(PHI1), lab(P)) == expected


def test_restrict_matching_atom_becomes_true():
    assert restrict(Atom(P), lab(P)) == TRUE
    assert restrict(Atom(P), lab(Q)) == FALSE


def test_restrict_leaves_next_guarded_atoms():
    assert restrict(Next(Atom(P)), lab()) == Next(Atom(P))


def test_restrict_action_only_keeps_state_atoms_symbolic():
    action_atom = parse("[actionType=back]")
    state_atom = parse("[activity~Main]")
    phi = And(action_atom, state_atom)
    got = restrict(phi, lab(), action_only=True)
    assert got == And(FALSE, state_atom)


# --- advance ---

def test_advance_strips_one_next():
    assert advance(Next(Atom(P))) == Atom(P)
    assert advance(Next(Next(Atom(P)))) == Next(Atom(P))
    assert advance(Atom(P)) == Atom(P)
    assert advance(Until(Atom(P), Atom(Q))) == Until(Atom(P), Atom(Q))


def test_advance_preserves_negation():
    assert advance(Not(Next(Atom(P)))) == Not(Atom(P))


def test_advance_after_simplify_matches_worked_example():
    restricted = parse(
        "!(!(!true & X ([q=1] U [p=1]))"
        " & !(true & X ([p=1] U ([q=1] & X ([q=1] U [p=1])))))"
    )
    assert simplify(restricted) == Next(PHI1)
    assert advance(simplify(restricted)) == PHI1


# --- projection ---

def test_projection_consumes_the_leading_next():
    assert projection(PHI0, lab(P)) == Verdict(PHI1)


def test_projection_progress_toward_the_return_leg():
    assert projection(PHI1, lab(Q)) == Verdict(parse("[q=1] U [p=1]"))


def test_projection_falsifies_on_empty_labeling():
    assert projection(PHI1, lab()).is_false


def test_projection_is_irrevocable():
    for labeling in (lab(), lab(P), lab(Q), lab(P, Q)):
        assert projection(TRUE, labeling).is_true
        assert projection(FALSE, labeling).is_false


# --- shaped rewards ---

def test_reward_is_relative_atom_count_change():
    verdict = projection(PHI1, lab(Q))
    assert abs(shaped_reward(PHI1, verdict) - 1 / 3) <= 1e-12


def test_reward_is_zero_without_progress():
    verdict = projection(PHI0, lab(P))
    assert shaped_reward(PHI0, verdict) == 0.0


def test_terminal_rewards_dominate():
    assert shaped_reward(PHI1, Verdict(TRUE)) == 1.0
    assert shaped_reward(PHI1, Verdict(FALSE)) == -1.0


def test_shaping_flag_disables_intermediate_reward():
    verdict = projection(PHI1, lab(Q))
    assert shaped_reward(PHI1, verdict, shaping=False) == 0.0
    assert shaped_reward(PHI1, Verdict(TRUE), shaping=False) == 1.0
    assert shaped_reward(PHI1, Verdict(FALSE), shaping=False) == -1.0


def test_reward_guard_when_no_atoms_remain():
    phi = Next(Next(TRUE))
    verdict = projection(phi, lab())
    assert not (verdict.is_true or verdict.is_false)
    assert shaped_reward(phi, verdict) == 0.0


def test_reward_range_over_generated_formulas():
    # Predicate-leaved formulas keep at least one predicate in every residual
    # obligation, so intermediate rewards stay strictly below 1.
    rng = random.Random(37)
    leaves = [Atom(P), Atom(Q)]
    for _ in range(400):
        phi = simplify(random_formula(rng, 6, leaves))
        labeling = rng.choice([lab(), lab(P), lab(Q), lab(P, Q)])
        verdict = projection(phi, labeling)
        reward = shaped_reward(phi, verdict)
        if verdict.is_true:
            assert reward == 1.0
        elif verdict.is_false:
            assert reward == -1.0
        else:
            assert 0.0 <= reward < 1.0


# --- quick oracle agreement sweep; the exhaustive one is in the acceptance suite ---

def _resolved_matches_oracle(phi):
    labelings = [lab(), lab(P), lab(Q), lab(P, Q)]

    def walk(current, prefix):
        for labeling in labelings:
            verdict = projection(current, labeling)
            trace = prefix + [labeling]
            if verdict.is_true:
                assert evaluate(trace, 0, phi) is True
            elif verdict.is_false:
                assert evaluate(trace, 0, phi) is False
            elif len(trace) < 3:
                walk(verdict.formula, trace)

    walk(phi, [])


def test_small_formulas_agree_with_oracle():
    for phi in enumerate_formulas(2, [TRUE, Atom(P), Atom(Q)]):
        _resolved_matches_oracle(phi)


def test_random_formulas_agree_with_oracle():
    rng = random.Random(23)
    for _ in range(150):
        _resolved_matches_oracle(random_formula(rng, 5, [TRUE, Atom(P), Atom(Q)]))


# --- memoized projection and screening against the uncached pipeline ---

CLICK = AtomicProposition("actionType", "=", "click")
GO = AtomicProposition("actionDetail", "~", "Go")
MEMO_LEAVES = [TRUE, Atom(P), Atom(Q), Atom(CLICK), Atom(GO)]
MEMO_LABELINGS = [lab(), lab(P), lab(Q, CLICK), lab(P, Q, CLICK, GO)]
ACTIONS = [
    GuiAction("back"),
    GuiAction("click", ("5", "5"), "0:0", "Go"),
    GuiAction("click", ("7", "7"), "0:1", "Stop"),
]
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
def test_memoized_projection_matches_direct_pipeline(seed):
    phi = random_formula(random.Random(seed), 8, MEMO_LEAVES)
    expected = [simplify(advance(restrict(expand(phi), labels))) for labels in MEMO_LABELINGS]
    projection.cache_clear()
    first = [projection(phi, labels) for labels in MEMO_LABELINGS]
    repeat = [projection(phi, labels) for labels in MEMO_LABELINGS]
    assert [verdict.formula for verdict in first] == expected
    assert all(again is verdict for again, verdict in zip(repeat, first))
    info = projection.cache_info()
    assert (info.misses, info.hits) == (len(MEMO_LABELINGS), len(MEMO_LABELINGS))


@given(seeds)
def test_memoized_screening_matches_direct_pipeline(seed):
    phi = random_formula(random.Random(seed), 8, MEMO_LEAVES)
    alphabet = frozenset((CLICK, GO))
    kinds = {}
    for action in ACTIONS:
        labels = action_labeling(action, alphabet)
        residue = simplify(advance(restrict(expand(phi), labels, action_only=True)))
        kinds[action] = (
            engine.SATISFIED if residue is TRUE
            else engine.DEAD_END if residue is FALSE
            else engine.CONTINUE
        )
    engine._predict.cache_clear()
    for _ in range(2):
        for action in ACTIONS:
            assert prune_and_predict(phi, (), [action], alphabet).kind == kinds[action]
    # One screening per distinct enabled tuple; every repeat is a hit.
    info = engine._predict.cache_info()
    assert (info.misses, info.hits) == (len(ACTIONS), len(ACTIONS))
    # A list and a tuple of the same actions are one key and one prediction:
    # the first action that satisfies outright, or every one not falsified.
    prediction = prune_and_predict(phi, (), list(ACTIONS), alphabet)
    assert prune_and_predict(phi, (), tuple(ACTIONS), alphabet) is prediction
    info = engine._predict.cache_info()
    assert (info.misses, info.hits) == (len(ACTIONS) + 1, len(ACTIONS) + 1)
    shortcut = next((a for a in ACTIONS if kinds[a] == engine.SATISFIED), None)
    survivors = [] if shortcut else [a for a in ACTIONS if kinds[a] == engine.CONTINUE]
    kind = engine.SATISFIED if shortcut else engine.CONTINUE if survivors else engine.DEAD_END
    assert (prediction.kind, prediction.action) == (kind, shortcut)
    assert [a for _, a in prediction.survivors] == survivors

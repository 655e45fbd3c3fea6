import copy
import itertools
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, reject, settings, strategies as st

from ltlgen import (
    And,
    Atom,
    AtomicProposition,
    FALSE,
    Next,
    Not,
    TRUE,
    Truth,
    Until,
    Verdict,
    parse,
    render,
    simplify,
)
from ltlgen import cli
from ltlgen.formula import _ACTION_KEYS, atom_set, count_atoms
from ltlgen.progression import evaluate, projection
from helpers import P, Q, has_redex, lab, random_formula


def test_double_negation_false_conjunct_collapses_to_true():
    # !(!true & psi) -> true
    psi = Until(Atom(P), Atom(Q))
    assert simplify(Not(And(FALSE, psi))) == TRUE


def test_duplicate_conjunct_is_dropped():
    assert simplify(And(Atom(P), Atom(P))) == Atom(P)


def test_a_repeated_conjunct_is_dropped_anywhere_in_the_chain():
    # Kept in order of first occurrence and rebuilt left-associated.
    assert simplify(parse("([p=1] & [q=1]) & [p=1]")) == And(Atom(P), Atom(Q))
    assert simplify(parse("([q=1] & [p=1]) & ([r=1] & [q=1])")) == parse("[q=1] & [p=1] & [r=1]")


def test_a_conjunction_without_a_repeat_keeps_its_shape():
    phi = parse("[p=1] & ([q=1] & [r=1])")
    assert simplify(phi) == phi


def test_a_conjunct_holds_inside_the_others():
    # Absorption, both ways round.
    assert simplify(parse("[p=1] & ([p=1] | [q=1])")) == Atom(P)
    assert simplify(parse("[p=1] | ([p=1] & [q=1])")) == Atom(P)
    assert simplify(parse("[p=1] & !([p=1] & [q=1])")) == parse("[p=1] & ![q=1]")
    assert simplify(parse("[p=1] & ![p=1]")) == FALSE
    # A negated conjunction falsifies a larger one that holds its conjuncts
    # in another order, whichever of them comes first.
    weaker = parse("!([q=1] & [p=1])")
    assert simplify(parse("!([q=1] & [p=1]) & !([p=1] & [r=1] & [q=1])")) == weaker
    assert simplify(parse("!([p=1] & [r=1] & [q=1]) & !([q=1] & [p=1])")) == weaker
    # The shape (F p) U (F q) takes after two steps: the inner copy of the
    # disjunction adds nothing.
    nested = parse("[q=1] | ([p=1] & ([q=1] | ([p=1] & X [q=1])))")
    assert simplify(nested) == simplify(parse("[q=1] | ([p=1] & X [q=1])"))


@pytest.mark.parametrize("operands", [(), (Atom(P),)])
def test_a_conjunction_needs_two_conjuncts(operands):
    with pytest.raises(ValueError, match="at least two conjuncts"):
        And(*operands)


def test_true_conjuncts_are_dropped_on_both_sides():
    assert simplify(And(TRUE, Atom(P))) == Atom(P)
    assert simplify(And(Atom(P), TRUE)) == Atom(P)


def test_false_conjunct_dominates():
    assert simplify(And(Atom(P), FALSE)) == FALSE
    assert simplify(And(FALSE, Atom(P))) == FALSE


def test_simplify_reaches_inside_next_and_until():
    assert simplify(Next(Not(Not(Atom(P))))) == Next(Atom(P))
    assert simplify(Until(And(TRUE, Atom(P)), Atom(Q))) == Until(Atom(P), Atom(Q))


def test_restricted_unrolling_collapses_to_next():
    # The one-step residue of the worked example's first in-app position:
    # !(!(!true & X(q U p)) & !(true & X(p U (q & X(q U p))))) -> X(p U (q & X(q U p)))
    phi = parse("!(!(!true & X ([q=1] U [p=1])) & !(true & X ([p=1] U ([q=1] & X ([q=1] U [p=1])))))")
    expected = parse("X ([p=1] U ([q=1] & X ([q=1] U [p=1])))")
    assert simplify(phi) == expected


def test_count_atoms_uses_multiplicity():
    phi = parse("X ([p=1] U ([q=1] & X ([q=1] U [p=1])))")
    assert count_atoms(phi) == 4
    assert count_atoms(TRUE) == 0
    assert count_atoms(parse("[q=1] U [p=1]")) == 2


def test_atom_set_is_distinct():
    phi = parse("X ([p=1] U ([q=1] & X ([q=1] U [p=1])))")
    assert atom_set(phi) == frozenset((P, Q))


def test_atom_set_visits_each_shared_node_once():
    # 65 distinct nodes, and a path to the predicate for each of 2**64 leaves.
    phi = Atom(P)
    for _ in range(64):
        phi = Until(phi, phi)
    assert count_atoms(phi) == 2**64
    assert atom_set(phi) == {P}


def test_atom_set_takes_no_frame_per_level():
    phi = Atom(P)
    for _ in range(5000):
        phi = Next(phi)
    assert atom_set(phi) == {P}


def test_structural_equality_after_simplify():
    left = simplify(parse("!![p=1] & true"))
    assert left == Atom(P)
    assert hash(left) == hash(Atom(P))


@pytest.mark.parametrize(
    "key,op,value",
    [
        ("", "=", "v"),
        ("a b", "=", "v"),
        ("k", "?", "v"),
        ("k", "=", ""),
        ("actionTyp", "=", "click"),
        ("k", "=", " x"),
        ("k", "~", "x\n"),
        ("k", "=", "a]b"),
    ],
)
def test_atomic_proposition_validation(key, op, value):
    with pytest.raises(ValueError):
        AtomicProposition(key, op, value)


@given(
    st.one_of(st.sampled_from(_ACTION_KEYS), st.from_regex(r"\w+", fullmatch=True)),
    st.sampled_from("=~"),
    st.text(min_size=1),
)
def test_every_predicate_the_constructor_accepts_parses_back(key, op, value):
    try:
        ap = AtomicProposition(key, op, value)
    except ValueError:
        reject()
    assert parse(render(Atom(ap))) is Atom(ap)


def test_matchers():
    exact = AtomicProposition("activity", "=", "Main")
    sub = AtomicProposition("activity", "~", "Main")
    assert exact.matches("Main") and not exact.matches("MainActivity")
    assert sub.matches("MainActivity") and not sub.matches("mainactivity")


def test_a_substring_predicate_matches_anywhere_in_the_value():
    # "~" is a substring match, not a prefix match.
    sub = AtomicProposition("activity", "~", "Activity")
    assert sub.matches("MainActivity") and sub.matches("Activity")
    assert AtomicProposition("activity", "~", "inAct").matches("MainActivity")
    assert not sub.matches("MainActivit")


def test_scope_follows_key_prefix():
    assert AtomicProposition("actionType", "=", "back").is_action
    assert AtomicProposition("actionDetail", "~", "About").is_action
    assert not AtomicProposition("activity", "~", "Main").is_action
    assert not AtomicProposition("checked", "=", "true").is_action


def test_labeling_split_and_union():
    state = AtomicProposition("activity", "~", "Main")
    action = AtomicProposition("actionType", "=", "back")
    combined = lab(state) | lab(action)
    assert combined == frozenset((state, action))
    assert hash(combined) == hash(frozenset((state, action)))
    assert state in combined and action in combined
    text = cli._labels_text(combined)
    assert text == cli._labels_text(lab(action) | lab(state))
    assert text == "{[actionType=back], [activity~Main]}"
    assert cli._labels_text(frozenset()) == "{}"


def test_verdict_normalization():
    assert Verdict(TRUE).is_true
    assert Verdict(FALSE).is_false
    undetermined = Verdict(Atom(P))
    assert not undetermined.is_true and not undetermined.is_false


@pytest.mark.parametrize("phi", [TRUE, FALSE, Atom(P)], ids=["true", "false", "undetermined"])
def test_verdict_stores_its_resolved_flags(phi):
    verdict = Verdict(phi)
    assert verdict is Verdict(phi)
    assert (verdict.is_true, verdict.is_false) == (phi is TRUE, phi is FALSE)
    assert b"is_true" not in pickle.dumps(verdict)
    for other in (copy.copy(verdict), copy.deepcopy(verdict), pickle.loads(pickle.dumps(verdict))):
        assert other is verdict
        assert other == verdict and hash(other) == hash(verdict)
        assert (other.is_true, other.is_false) == (phi is TRUE, phi is FALSE)


def test_verdict_equality_and_repr_ignore_the_flags():
    assert projection(Atom(P), lab(P)) == Verdict(TRUE)
    assert projection(Atom(P), lab(Q)) == Verdict(FALSE)
    assert projection(Next(Atom(P)), lab(Q)) == Verdict(Atom(P))
    assert repr(Verdict(TRUE)) == "Verdict(formula=Truth())"
    assert repr(Verdict(FALSE)) == "Verdict(formula=Not(operand=Truth()))"


def test_render_canonical_forms():
    assert render(TRUE) == "true"
    assert render(Not(And(Atom(P), Atom(Q)))) == "!([p=1] & [q=1])"
    assert render(Next(Until(Atom(P), Atom(Q)))) == "X ([p=1] U [q=1])"
    assert render(And(Atom(P), And(Atom(P), Atom(Q)))) == "[p=1] & [p=1] & [q=1]"
    assert render(Until(Until(Atom(P), Atom(Q)), Atom(P))) == "([p=1] U [q=1]) U [p=1]"


def test_render_rejects_what_is_not_a_formula():
    with pytest.raises(TypeError, match="not a formula"):
        render(P)


def test_render_leaves_a_right_nested_until_bare():
    # Until associates right, so its right operand needs no parentheses.
    phi = Until(Atom(P), Until(Atom(Q), Atom(P)))
    assert render(phi) == "[p=1] U [q=1] U [p=1]"
    assert render(Next(phi)) == "X ([p=1] U [q=1] U [p=1])"


leaves = st.sampled_from([TRUE, Atom(P), Atom(Q)])
formulas = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(Next, children),
        st.builds(And, children, children),
        st.builds(Until, children, children),
    ),
    max_leaves=16,
)


@given(formulas)
def test_simplify_idempotent_and_normal(phi):
    once = simplify(phi)
    assert simplify(once) == once
    assert not has_redex(once)


LABELINGS = [frozenset(s) for s in ((), (P,), (Q,), (P, Q))]
SHORT_TRACES = [list(t) for n in range(3) for t in itertools.product(LABELINGS, repeat=n)]


# Dense in conjunctions whose conjuncts reappear inside one another.
boolean_formulas = st.recursive(
    st.sampled_from([Atom(P), Atom(Q), Next(Atom(P))]),
    lambda children: st.one_of(st.builds(Not, children), st.builds(And, children, children)),
    max_leaves=8,
)


@settings(max_examples=500)
@given(formulas | boolean_formulas)
def test_simplify_keeps_the_meaning(phi):
    once = simplify(phi)
    for trace in SHORT_TRACES:
        for position in range(len(trace) + 1):
            assert evaluate(trace, position, once) == evaluate(trace, position, phi)


def test_reordered_negated_conjunction_is_not_its_own_context():
    # Each negation sits in the other's context with the same conjuncts in
    # another order; only a proper subset may be replaced by falsity.
    phi = simplify(parse("!([p=1] & [q=1]) & !([q=1] & [p=1])"))
    assert phi != TRUE
    one = parse("!([p=1] & [q=1])")
    for trace in SHORT_TRACES:
        for position in range(len(trace) + 1):
            assert evaluate(trace, position, phi) == evaluate(trace, position, one)


def test_conjunctions_of_negated_conjunctions_keep_their_meaning():
    # Every conjunction of one to three building blocks over three
    # predicates: literals, two-literal conjunctions, the six orders of
    # p & q & r, and the negation of each conjunction.  The context rule
    # meets each negated conjunction inside the others, in every order.
    preds = (P, Q, AtomicProposition("r", "=", "1"))
    literals = [f for ap in preds for f in (Atom(ap), Not(Atom(ap)))]
    conjunctions = [
        And(a, b)
        for (i, a), (j, b) in itertools.combinations(enumerate(literals), 2)
        if i // 2 != j // 2
    ] + [And(*map(Atom, order)) for order in itertools.permutations(preds)]
    blocks = literals + conjunctions + [Not(c) for c in conjunctions]
    formulas = (
        blocks
        + [And(a, b) for a, b in itertools.permutations(blocks, 2)]
        + [And(*c) for c in itertools.combinations(blocks, 3)]
    )
    assert (len(blocks), len(formulas)) == (42, 13244)
    labelings = [frozenset(s) for n in range(4) for s in itertools.combinations(preds, n)]
    for phi in formulas:
        once = simplify(phi)
        for labels in labelings:
            holds = evaluate([labels], 0, phi)
            assert evaluate([labels], 0, once) == holds, (phi, labels)
            assert projection(once, labels).formula is (TRUE if holds else FALSE), (phi, labels)


# --- hash-consed nodes ---

R = AtomicProposition("actionType", "=", "click")
NODE_LEAVES = [TRUE, FALSE, Atom(P), Atom(Q), Atom(R)]
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def rebuild(phi):
    """A structurally equal tree built bottom-up from fresh constructor calls,
    with a fresh copy of every predicate."""
    if isinstance(phi, Truth):
        return Truth()
    if isinstance(phi, Atom):
        return Atom(AtomicProposition(phi.ap.key, phi.ap.op, phi.ap.value))
    if isinstance(phi, (Not, Next)):
        return type(phi)(rebuild(phi.operand))
    if isinstance(phi, And):
        return And(*map(rebuild, phi.conjuncts))
    return type(phi)(rebuild(phi.left), rebuild(phi.right))


def reference_count(phi):
    if isinstance(phi, Atom):
        return 1
    if isinstance(phi, (Not, Next)):
        return reference_count(phi.operand)
    if isinstance(phi, And):
        return sum(map(reference_count, phi.conjuncts))
    if isinstance(phi, Until):
        return reference_count(phi.left) + reference_count(phi.right)
    return 0


def reference_atoms(phi):
    if isinstance(phi, Atom):
        return {phi.ap}
    if isinstance(phi, (Not, Next)):
        return reference_atoms(phi.operand)
    if isinstance(phi, And):
        return set().union(*map(reference_atoms, phi.conjuncts))
    if isinstance(phi, Until):
        return reference_atoms(phi.left) | reference_atoms(phi.right)
    return set()


@given(seeds)
def test_equal_trees_are_one_object(seed):
    phi = random_formula(random.Random(seed), 8, NODE_LEAVES)
    assert random_formula(random.Random(seed), 8, NODE_LEAVES) is phi
    assert rebuild(phi) is phi
    assert hash(rebuild(phi)) == hash(phi)


@given(seeds)
def test_render_parse_round_trip_is_identity(seed):
    phi = simplify(random_formula(random.Random(seed), 8, NODE_LEAVES))
    assert parse(render(phi)) is phi


@given(seeds)
def test_copies_and_pickles_are_canonical(seed):
    phi = random_formula(random.Random(seed), 8, NODE_LEAVES)
    assert copy.copy(phi) is phi
    assert copy.deepcopy(phi) is phi
    assert pickle.loads(pickle.dumps(phi)) is phi
    assert copy.deepcopy(Verdict(phi)).formula is phi


@given(seeds)
def test_cached_counts_match_recursive_reference(seed):
    phi = random_formula(random.Random(seed), 10, NODE_LEAVES)
    assert count_atoms(phi) == reference_count(phi)
    assert atom_set(phi) == frozenset(reference_atoms(phi))


def test_distinct_trees_stay_distinct():
    assert And(Atom(P), Atom(Q)) is not And(Atom(Q), Atom(P))
    assert And(Atom(P), Atom(Q)) != Until(Atom(P), Atom(Q))
    assert Next(TRUE) is not Not(TRUE)
    assert Atom(AtomicProposition("p", "~", "1")) is not Atom(P)


def test_nodes_are_immutable():
    phi = And(Atom(P), Atom(Q))
    with pytest.raises(AttributeError):
        phi.conjuncts = (TRUE, TRUE)
    with pytest.raises(AttributeError):
        del phi.conjuncts
    with pytest.raises(AttributeError):
        phi.atom_count = 0
    assert phi.conjuncts == (Atom(P), Atom(Q))


def test_repr_names_the_fields():
    assert repr(Not(TRUE)) == "Not(operand=Truth())"
    assert repr(Until(TRUE, Atom(P))) == (
        "Until(left=Truth(), right=Atom(ap=AtomicProposition(key='p', op='=', value='1')))"
    )


def test_threads_building_the_same_trees_share_nodes():
    # Fresh predicates, so every node below is built for the first time and
    # the threads race to intern it.
    leaves = [TRUE] + [Atom(AtomicProposition("race", "=", str(i))) for i in range(3)]
    results: list[list] = []
    start = threading.Barrier(4, timeout=60)

    def build() -> None:
        rng = random.Random(5)
        start.wait()
        results.append([random_formula(rng, 12, leaves) for _ in range(2000)])

    threads = [threading.Thread(target=build) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4
    for trees in results[1:]:
        assert all(tree is first for tree, first in zip(trees, results[0]))

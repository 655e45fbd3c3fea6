import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ltlgen import (
    And,
    Atom,
    AtomicProposition,
    Next,
    Not,
    ParseError,
    TRUE,
    Until,
    parse,
    render,
)
from helpers import P, Q, random_formula

import random

MAIN = Atom(AtomicProposition("activity", "~", "Main"))
ABOUT = Atom(AtomicProposition("activity", "~", "About"))


def test_worked_example_formula_structure():
    phi = parse("X ([activity~Main] U ([activity~About] & X ([activity~About] U [activity~Main])))")
    assert phi == Next(Until(MAIN, And(ABOUT, Next(Until(ABOUT, MAIN)))))


def test_true_literal():
    assert parse("true") == TRUE


def test_false_literal_desugars():
    assert parse("false") == Not(TRUE)


def test_finally_desugars_to_until():
    assert parse("F [screen=off]") == Until(TRUE, Atom(AtomicProposition("screen", "=", "off")))


def test_globally_desugars():
    assert parse("G [p=1]") == Not(Until(TRUE, Not(Atom(P))))


def test_disjunction_desugars():
    assert parse("[p=1] | [q=1]") == Not(And(Not(Atom(P)), Not(Atom(Q))))


def test_implication_desugars():
    assert parse("[p=1] -> [q=1]") == Not(And(Not(Not(Atom(P))), Not(Atom(Q))))


def test_until_binds_tighter_than_and():
    phi = parse("[p=1] U [q=1] & [activity~Main]")
    assert phi == And(Until(Atom(P), Atom(Q)), MAIN)


def test_until_is_right_associative():
    phi = parse("[p=1] U [q=1] U [activity~Main]")
    assert phi == Until(Atom(P), Until(Atom(Q), MAIN))


def test_implication_is_right_associative():
    phi = parse("[p=1] -> [q=1] -> [activity~Main]")
    assert phi == parse("[p=1] -> ([q=1] -> [activity~Main])")
    assert phi != parse("([p=1] -> [q=1]) -> [activity~Main]")


def test_conjunction_binds_tighter_than_disjunction():
    assert parse("[p=1] | [q=1] & [activity~Main]") == parse("[p=1] | ([q=1] & [activity~Main])")
    assert parse("[p=1] & [q=1] | [activity~Main]") == parse("([p=1] & [q=1]) | [activity~Main]")
    assert parse("[p=1] | [q=1] & [activity~Main]") != parse("([p=1] | [q=1]) & [activity~Main]")


def test_conjunction_is_left_associative():
    phi = parse("[p=1] & [q=1] & [activity~Main]")
    assert phi == And(And(Atom(P), Atom(Q)), MAIN)


def test_unary_operators_chain():
    assert parse("! X [p=1]") == Not(Next(Atom(P)))
    assert parse("X ! [p=1]") == Next(Not(Atom(P)))


def test_predicate_whitespace_is_stripped():
    assert parse("[ activity~Main ]") == MAIN


def test_predicate_value_may_contain_spaces():
    phi = parse("[text~New text]")
    assert phi == Atom(AtomicProposition("text", "~", "New text"))


def test_predicate_value_keeps_second_separator():
    phi = parse("[text~a=b]")
    assert phi == Atom(AtomicProposition("text", "~", "a=b"))


@pytest.mark.parametrize(
    "text",
    [
        "[p=]",          # empty value
        "[p]",           # missing separator
        "[=v]",          # empty key
        "[p q=v]",       # key with whitespace
        "R [p=1]",       # unknown operator
        "([p=1]",        # unbalanced paren
        "[p=1])",        # trailing token
        "[p=1] [q=1]",   # two formulas in a row
        "",              # nothing at all
        "[p=1",          # unterminated predicate
        "?",             # stray character
        "[p=1] &",       # dangling operator
    ],
)
def test_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("([p=1]", "expected ')'", 6),
        ("[p=1])", "unexpected ')' after formula", 5),
        ("[p=1] [q=1]", "unexpected 'atom' after formula", 6),
        ("(X [p=1] [q=1])", "expected ')'", 9),
        ("X ( [p=1] U [q=1] ", "expected ')'", 18),
        ("-> [p=1]", "expected a formula, found '->'", 0),
        ("[p=1] U", "expected a formula, found 'end'", 7),
        ("G )", "expected a formula, found ')'", 2),
        ("( )", "expected a formula, found ')'", 2),
        ("([p=1] | ) & [q=1]", "expected a formula, found ')'", 9),
        ("", "expected a formula, found 'end'", 0),
        ("!", "expected a formula, found 'end'", 1),
        ("[p=1] &", "expected a formula, found 'end'", 7),
        ("[p=1] & & [q=1]", "expected a formula, found '&'", 8),
        ("[p=1] -> -> [q=1]", "expected a formula, found '->'", 9),
        ("[p=1] U [q=1] ) & [q=1]", "unexpected ')' after formula", 14),
        ("[p=1] -> [q=1] true", "unexpected 'true' after formula", 15),
        ("[p=1] | true false", "unexpected 'false' after formula", 13),
        ("R [p=1]", "unknown operator 'R'", 0),
        ("F ( [p=1] -> [q=1] ] ", "unexpected character ']'", 19),
        ("[p=1", "unterminated predicate", 0),
        ("[p]", "predicate needs '=' or '~'", 0),
    ],
)
def test_parse_error_names_message_and_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == position
    assert str(info.value) == f"{message} (at position {position})"


@pytest.mark.parametrize("text", ["[actionTyp=click]", "X [action=back]", "true & [actionobjectID=0:1]"])
def test_rejects_an_action_key_no_action_has(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == text.index("[")
    assert "action key must be one of actionType, actionDetail, actionObjectID" in str(info.value)


def test_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("[p=1] ? [q=1]")
    assert info.value.position == 6
    assert "position 6" in str(info.value)


leaves = st.sampled_from([TRUE, Atom(P), Atom(Q), MAIN])
formulas = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(Next, children),
        st.builds(And, children, children),
        st.builds(Until, children, children),
    ),
    max_leaves=12,
)


@given(formulas)
def test_parse_render_round_trip(phi):
    assert parse(render(phi)) == phi


def test_round_trip_on_seeded_sample():
    rng = random.Random(11)
    for _ in range(300):
        phi = random_formula(rng, 8, [TRUE, Atom(P), Atom(Q), MAIN, ABOUT])
        assert parse(render(phi)) == phi


def test_a_long_disjunction_parses_in_little_memory():
    # A "|" run builds a left-deep tree without recursion; its nodes keep
    # only their children, so memory grows with its length alone.
    text = " | ".join(f"[activity~A{i}]" for i in range(2000))
    tracemalloc.start()
    try:
        parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20

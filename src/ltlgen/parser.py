"""Precedence-climbing parser for formula text (Pratt, "Top Down Operator
Precedence", POPL 1973).

Binary operators, loosest first::

    ->   1   right-associative
    |    2   left-associative
    &    3   n-ary: a run builds one flat ``And``
    U    4   right-associative

The prefix operators ``!``, ``X``, ``F`` and ``G`` bind tighter than all of
them.  An operand is ``true``, ``false``, a predicate ``[key=value]`` or
``[key~value]``, or a parenthesised formula.

``F``, ``G``, ``|``, ``->`` and ``false`` desugar during parsing, so the
returned tree contains core connectives only.  The tree is not simplified.
Tokens are named tuples, the package's record idiom (``formula.Interned``).

Nesting is bounded by the interpreter's stack: each parenthesis, prefix
operator or right-associative operator takes a frame or two, and a deeper
input ends in ``ParseError("formula nests too deeply")``.  The bound stays
because the walkers that read a tree (``formula.render`` and
``formula.simplify``, and progression's) recurse too, a frame or more per
level, so a tree parsed past the frames would fail in them.  A node keeps
only its children, so building a deep tree costs memory in its size alone.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .formula import And, Atom, AtomicProposition, FALSE, Formula, Not, Next, TRUE, Until


class ParseError(ValueError):
    """Formula text rejected; ``position`` is a 0-based character offset, or None."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


_WORD_RE = re.compile(r"[A-Za-z]+")
_KEYWORDS = frozenset(("true", "false", "U", "X", "F", "G"))


class _Token(NamedTuple):
    kind: str
    pos: int
    atom: AtomicProposition | None = None


def _predicate(body: str, pos: int) -> AtomicProposition:
    candidates = [i for i in (body.find("="), body.find("~")) if i >= 0]
    if not candidates:
        raise ParseError("predicate needs '=' or '~'", pos)
    split = min(candidates)
    key = body[:split].strip()
    value = body[split + 1:].strip()
    try:
        return AtomicProposition(key, body[split], value)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "[":
            end = text.find("]", i)
            if end < 0:
                raise ParseError("unterminated predicate", i)
            tokens.append(_Token("atom", i, _predicate(text[i + 1:end], i)))
            i = end + 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token("->", i))
            i += 2
            continue
        if c in "!&|()":
            tokens.append(_Token(c, i))
            i += 1
            continue
        match = _WORD_RE.match(text, i)
        if match:
            word = match.group()
            if word not in _KEYWORDS:
                raise ParseError(f"unknown operator {word!r}", i)
            tokens.append(_Token(word, i))
            i = match.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", len(text)))
    return tokens


def _or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


# Each binary operator's binding power, associativity and desugaring.  The
# right operand of a right-associative operator binds at the operator's own
# power, any other at the next one up; a run of an n-ary operator builds one
# node.
_BINARY = {
    "->": (1, "right", lambda left, right: _or(Not(left), right)),
    "|": (2, "left", _or),
    "&": (3, "n-ary", And),
    "U": (4, "right", Until),
}
_PREFIX = {
    "!": Not,
    "X": Next,
    "F": lambda phi: Until(TRUE, phi),
    "G": lambda phi: Not(Until(TRUE, Not(phi))),
}
_CONSTANT = {"true": TRUE, "false": FALSE}


class _Parser:
    __slots__ = ("_tokens", "_i")

    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _take(self) -> _Token:
        token = self._tokens[self._i]
        self._i += 1
        return token

    def expression(self, phi: Formula, floor: int = 1) -> Formula:
        """``phi`` joined with each binary operator after it that binds at
        ``floor`` or tighter.

        Each right operand is parsed from this frame, so a step of
        ``a & X (b ...)`` costs three frames: this one and two of ``operand``.
        """
        while (kind := self._peek().kind) in _BINARY:
            power, associativity, build = _BINARY[kind]
            if power < floor:
                break
            right_floor = power if associativity == "right" else power + 1
            self._take()
            operands = [phi, self.expression(self.operand(), right_floor)]
            while associativity == "n-ary" and self._peek().kind == kind:
                self._take()
                operands.append(self.expression(self.operand(), right_floor))
            phi = build(*operands)
        return phi

    def operand(self) -> Formula:
        token = self._take()
        if token.kind in _PREFIX:
            return _PREFIX[token.kind](self.operand())
        if token.kind in _CONSTANT:
            return _CONSTANT[token.kind]
        if token.kind == "atom":
            assert token.atom is not None
            return Atom(token.atom)
        if token.kind == "(":
            phi = self.expression(self.operand())
            closing = self._take()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.pos)
            return phi
        raise ParseError(f"expected a formula, found {token.kind!r}", token.pos)


def parse(text: str) -> Formula:
    """Parse formula text into a desugared, unsimplified tree."""
    parser = _Parser(_tokenize(text))
    try:
        phi = parser.expression(parser.operand())
    except RecursionError:
        raise ParseError("formula nests too deeply", parser._peek().pos) from None
    token = parser._peek()
    if token.kind != "end":
        raise ParseError(f"unexpected {token.kind!r} after formula", token.pos)
    return phi

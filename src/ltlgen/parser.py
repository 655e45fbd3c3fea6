"""Recursive-descent parser for formula text.

Grammar (highest precedence last)::

    formula := disj ("->" formula)?
    disj    := conj ("|" conj)*
    conj    := until ("&" until)*
    until   := unary ("U" until)?          # right-associative
    unary   := ("!" | "X" | "F" | "G") unary | primary
    primary := "true" | "false" | "[" key ("=" | "~") value "]" | "(" formula ")"

``F``, ``G``, ``|``, ``->`` and ``false`` desugar during parsing, so the
returned tree contains core connectives only.  The tree is not simplified.
Tokens are named tuples, the package's record idiom (``formula.Interned``).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .formula import And, Atom, AtomicProposition, Formula, Not, Next, TRUE, Until


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


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _take(self) -> _Token:
        token = self._tokens[self._i]
        self._i += 1
        return token

    def formula(self) -> Formula:
        left = self.disj()
        if self._peek().kind == "->":
            self._take()
            right = self.formula()
            return _or(Not(left), right)
        return left

    def disj(self) -> Formula:
        phi = self.conj()
        while self._peek().kind == "|":
            self._take()
            phi = _or(phi, self.conj())
        return phi

    def conj(self) -> Formula:
        operands = [self.until()]
        while self._peek().kind == "&":
            self._take()
            operands.append(self.until())
        return And(*operands) if len(operands) > 1 else operands[0]

    def until(self) -> Formula:
        phi = self.unary()
        if self._peek().kind == "U":
            self._take()
            return Until(phi, self.until())
        return phi

    def unary(self) -> Formula:
        token = self._peek()
        if token.kind == "!":
            self._take()
            return Not(self.unary())
        if token.kind == "X":
            self._take()
            return Next(self.unary())
        if token.kind == "F":
            self._take()
            return Until(TRUE, self.unary())
        if token.kind == "G":
            self._take()
            return Not(Until(TRUE, Not(self.unary())))
        return self.primary()

    def primary(self) -> Formula:
        token = self._take()
        if token.kind == "true":
            return TRUE
        if token.kind == "false":
            return Not(TRUE)
        if token.kind == "atom":
            assert token.atom is not None
            return Atom(token.atom)
        if token.kind == "(":
            phi = self.formula()
            closing = self._take()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.pos)
            return phi
        raise ParseError(f"expected a formula, found {token.kind!r}", token.pos)

    def finish(self) -> None:
        token = self._peek()
        if token.kind != "end":
            raise ParseError(f"unexpected {token.kind!r} after formula", token.pos)


def _or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def parse(text: str) -> Formula:
    """Parse formula text into a desugared, unsimplified tree."""
    parser = _Parser(_tokenize(text))
    try:
        phi = parser.formula()
    except RecursionError:
        raise ParseError("formula nests too deeply", parser._peek().pos) from None
    parser.finish()
    return phi

"""Immutable temporal-logic syntax trees over bracketed GUI predicates.

The only primitive connectives are truth, predicates, negation, conjunction,
next, and until.  Disjunction, implication, finally, globally, and the
``false`` literal are parser sugar and never appear in a tree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class AtomicProposition:
    """One bracketed predicate such as ``[activity~Main]`` or ``[actionType=back]``.

    ``=`` demands exact equality of the observed value; ``~`` demands
    case-sensitive substring containment.  Predicates whose key starts with
    ``action`` describe the action being executed; all others describe the
    resulting state.
    """

    key: str
    op: str
    value: str

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("predicate key must not be empty")
        if self.op not in ("=", "~"):
            raise ValueError(f"predicate operator must be '=' or '~', got {self.op!r}")
        if not self.value:
            raise ValueError("predicate value must not be empty")

    @property
    def is_action(self) -> bool:
        return self.key.startswith("action")

    def matches(self, observed: str) -> bool:
        if self.op == "=":
            return observed == self.value
        return self.value in observed

    def __str__(self) -> str:
        return f"[{self.key}{self.op}{self.value}]"


class Formula:
    """Base class for formula nodes: immutable and hash-consed.

    Building a node equal to an existing one returns that node, so two
    trees are structurally equal exactly when they are the same object, and
    ``==`` and ``hash`` are the identity defaults.  Identity hashes differ
    between processes; nothing iterates a collection keyed by nodes in an
    order that reaches output.  Each node computes its predicate count
    (``atom_count``) and distinct predicates (``alphabet``) once, when it is
    first built.  Nodes are never evicted: the table grows with the number
    of distinct subformulas a process builds.
    """

    __slots__ = ("atom_count", "alphabet")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        # Copies and unpickled nodes are rebuilt through the constructor, so
        # they come back as the canonical node.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


# Every node ever built, keyed by its class and its fields.  Children are
# canonical nodes, so keys hash and compare by identity.
_NODES: dict[tuple, Formula] = {}


def _intern(key: tuple, fields: tuple, atom_count: int, alphabet: frozenset) -> Formula:
    node = _NODES.get(key)
    if node is not None:
        return node
    cls = key[0]
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "atom_count", atom_count)
    object.__setattr__(node, "alphabet", alphabet)
    # setdefault keeps one node when two threads build the same tree.
    return _NODES.setdefault(key, node)


def _union(left: frozenset, right: frozenset) -> frozenset:
    # Reusing a child's set when it already is the union keeps large node
    # tables about 15% smaller than building a new set per node.
    if right <= left:
        return left
    if left <= right:
        return right
    return left | right


class Truth(Formula):
    __slots__ = ()

    def __new__(cls) -> Truth:
        return _intern((cls,), (), 0, frozenset())


class Atom(Formula):
    __slots__ = ("ap",)

    def __new__(cls, ap: AtomicProposition) -> Atom:
        return _intern((cls, ap.key, ap.op, ap.value), (ap,), 1, frozenset((ap,)))


class Not(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand: Formula) -> Not:
        return _intern((cls, operand), (operand,), operand.atom_count, operand.alphabet)


class And(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> And:
        return _intern(
            (cls, left, right),
            (left, right),
            left.atom_count + right.atom_count,
            _union(left.alphabet, right.alphabet),
        )


class Next(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand: Formula) -> Next:
        return _intern((cls, operand), (operand,), operand.atom_count, operand.alphabet)


class Until(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> Until:
        return _intern(
            (cls, left, right),
            (left, right),
            left.atom_count + right.atom_count,
            _union(left.alphabet, right.alphabet),
        )


TRUE = Truth()
FALSE = Not(TRUE)


def count_atoms(phi: Formula) -> int:
    """Number of predicate occurrences, with multiplicity; truth counts zero."""
    return phi.atom_count


def atom_set(phi: Formula) -> frozenset[AtomicProposition]:
    """The distinct predicates appearing anywhere in the formula."""
    return phi.alphabet


def simplify(phi: Formula) -> Formula:
    """Bottom-up normal form: no double negation, no true/false conjunct,
    and no conjunction of two equal operands.  Idempotent.

    Only a conjunction's own two operands are compared, so a repeated
    conjunct deeper in a chain survives: ``([p=1] & [q=1]) & [p=1]`` stays
    as it is (ROADMAP item 1)."""
    if isinstance(phi, Not):
        operand = simplify(phi.operand)
        if isinstance(operand, Not):
            return operand.operand
        return Not(operand)
    if isinstance(phi, And):
        left = simplify(phi.left)
        right = simplify(phi.right)
        if left == FALSE or right == FALSE:
            return FALSE
        if left == TRUE:
            return right
        if right == TRUE:
            return left
        if left == right:
            return left
        return And(left, right)
    if isinstance(phi, Next):
        return Next(simplify(phi.operand))
    if isinstance(phi, Until):
        return Until(simplify(phi.left), simplify(phi.right))
    return phi


class Labeling(frozenset):
    """The set of predicates observed true at one trace position.

    A frozenset, so it hashes, compares and serves as a memo key like the
    set of its predicates."""

    __slots__ = ()

    def __or__(self, other: frozenset) -> Labeling:
        return Labeling(frozenset.__or__(self, other))

    def __str__(self) -> str:
        return "{" + ", ".join(str(a) for a in sorted(self)) + "}"


@dataclass(frozen=True)
class Verdict:
    """Three-valued outcome of one projection step.

    Wraps the simplified remaining obligation; ``true`` and ``!true``
    collapse to the determined verdicts, anything else is undetermined.
    """

    formula: Formula

    @property
    def is_true(self) -> bool:
        return self.formula == TRUE

    @property
    def is_false(self) -> bool:
        return self.formula == FALSE


# Renderer precedence; higher binds tighter.  The parser accepts the same
# grammar, so render/parse round-trip structurally.
_PREC_AND = 20
_PREC_UNTIL = 30
_PREC_UNARY = 40
_PREC_LEAF = 100


def _prec(phi: Formula) -> int:
    if isinstance(phi, And):
        return _PREC_AND
    if isinstance(phi, Until):
        return _PREC_UNTIL
    if isinstance(phi, (Not, Next)):
        return _PREC_UNARY
    return _PREC_LEAF


def _wrap(phi: Formula, min_prec: int) -> str:
    text = render(phi)
    if _prec(phi) < min_prec:
        return f"({text})"
    return text


def render(phi: Formula) -> str:
    """Emit formula text; conjunction associates left, until right."""
    if isinstance(phi, Truth):
        return "true"
    if isinstance(phi, Atom):
        return str(phi.ap)
    if isinstance(phi, Not):
        return "!" + _wrap(phi.operand, _PREC_UNARY)
    if isinstance(phi, Next):
        return "X " + _wrap(phi.operand, _PREC_UNARY)
    if isinstance(phi, And):
        return _wrap(phi.left, _PREC_AND) + " & " + _wrap(phi.right, _PREC_AND + 1)
    if isinstance(phi, Until):
        return _wrap(phi.left, _PREC_UNTIL + 1) + " U " + _wrap(phi.right, _PREC_UNTIL)
    raise TypeError(f"not a formula: {phi!r}")

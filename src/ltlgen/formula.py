"""Immutable temporal-logic syntax trees over bracketed GUI predicates.

The only primitive connectives are truth, predicates, negation, conjunction,
next, and until.  Disjunction, implication, finally, globally, and the
``false`` literal are parser sugar and never appear in a tree.

Predicates and nodes are hash-consed through ``Interned`` and ``intern``,
which verdicts, GUI actions and the learner's decisions share; its base,
``Frozen``, also serves the model's states and the model itself.
``simplify`` gives the normal form every obligation is kept in; it treats
conjunctions as sets, which keeps the obligation of a formula such as
``G F p`` from growing with the length of an episode.
"""

from __future__ import annotations


class Frozen:
    """Base class for immutable objects that keep their fields in slots.

    The slots of the class itself are its constructor's arguments, which the
    repr shows and pickling passes back, so copies and unpickled objects are
    rebuilt through the constructor.  Values derived from them, computed
    once, go in the slots of a base class.  A constructor is a ``__new__``
    that fills the slots through ``build``; ``==`` and ``hash`` are the
    identity defaults.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def build(cls: type, values: tuple):
    """A new ``cls`` object: ``values`` fill its slots and then those of its
    bases, in that order."""
    obj = object.__new__(cls)
    names = (name for klass in cls.__mro__ for name in vars(klass).get("__slots__", ()))
    for name, value in zip(names, values):
        object.__setattr__(obj, name, value)
    return obj


class Interned(Frozen):
    """Base class for hash-consed values: one object per value.

    Formula nodes, predicates, verdicts, GUI actions (``model.GuiAction``)
    and learner decisions (``engine.Decision``) derive from it.  A
    constructor returns the stored object equal to what it would build (see
    ``intern``), so identity is value equality, a lookup never walks the
    value, and copies and unpickled objects come back as the stored object.
    Identity hashes differ between processes; nothing iterates a collection
    keyed by interned objects in an order that reaches output.  Interned
    objects are never evicted: each table grows with the number of distinct
    values a process builds.

    The package has one idiom per kind of class: values are ``Interned``,
    records are ``typing.NamedTuple``s, and state is a plain class with
    ``__slots__`` (a ``Frozen`` one when it never changes).  The only
    dataclass is ``engine.LearnerConfig``, which callers copy with
    ``dataclasses.replace``.
    """

    __slots__ = ()


def intern(table: dict, key: tuple, cls: type, values: tuple):
    """The object stored under ``key``, built by ``build`` on first use."""
    obj = table.get(key)
    if obj is not None:
        return obj
    # setdefault keeps one object when two threads build the same value.
    return table.setdefault(key, build(cls, values))


class AtomicProposition(Interned):
    """One bracketed predicate such as ``[activity~Main]`` or ``[actionType=back]``.

    ``=`` demands exact equality of the observed value; ``~`` demands
    case-sensitive substring containment.  Predicates whose key starts with
    ``action`` describe the action being executed, by one of ``_ACTION_KEYS``;
    all others describe the resulting state.
    """

    __slots__ = ("key", "op", "value")

    def __new__(cls, key: str, op: str, value: str) -> AtomicProposition:
        if not key:
            raise ValueError("predicate key must not be empty")
        if op not in ("=", "~"):
            raise ValueError(f"predicate operator must be '=' or '~', got {op!r}")
        if not value:
            raise ValueError("predicate value must not be empty")
        if key.startswith("action") and key not in _ACTION_KEYS:
            raise ValueError(f"action key must be one of {', '.join(_ACTION_KEYS)}, got {key!r}")
        values = (key, op, value)
        return intern(_PREDICATES, values, cls, values)

    @property
    def is_action(self) -> bool:
        return self.key.startswith("action")

    def matches(self, observed: str) -> bool:
        if self.op == "=":
            return observed == self.value
        return self.value in observed

    def __str__(self) -> str:
        return f"[{self.key}{self.op}{self.value}]"


# The keys model.action_labeling reads from an action.
_ACTION_KEYS = ("actionType", "actionDetail", "actionObjectID")
# Every predicate ever built, keyed by its fields.
_PREDICATES: dict[tuple[str, str, str], AtomicProposition] = {}


class Formula(Interned):
    """Base class for formula nodes.

    Two trees are structurally equal exactly when they are the same node.
    Each node computes its predicate count (``atom_count``) and distinct
    predicates (``alphabet``) once, when it is first built.
    """

    __slots__ = ("atom_count", "alphabet")


# Every node ever built, keyed by its class and its fields.  Children are
# canonical nodes, so keys hash and compare by identity.
_NODES: dict[tuple, Formula] = {}


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
        return intern(_NODES, (cls,), cls, (0, frozenset()))


class Atom(Formula):
    __slots__ = ("ap",)

    def __new__(cls, ap: AtomicProposition) -> Atom:
        return intern(_NODES, (cls, ap), cls, (ap, 1, frozenset((ap,))))


class Not(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand: Formula) -> Not:
        return intern(_NODES, (cls, operand), cls, (operand, operand.atom_count, operand.alphabet))


class And(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> And:
        count = left.atom_count + right.atom_count
        alphabet = _union(left.alphabet, right.alphabet)
        return intern(_NODES, (cls, left, right), cls, (left, right, count, alphabet))


class Next(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand: Formula) -> Next:
        return intern(_NODES, (cls, operand), cls, (operand, operand.atom_count, operand.alphabet))


class Until(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> Until:
        count = left.atom_count + right.atom_count
        alphabet = _union(left.alphabet, right.alphabet)
        return intern(_NODES, (cls, left, right), cls, (left, right, count, alphabet))


TRUE = Truth()
FALSE = Not(TRUE)


def count_atoms(phi: Formula) -> int:
    """Number of predicate occurrences, with multiplicity; truth counts zero."""
    return phi.atom_count


def atom_set(phi: Formula) -> frozenset[AtomicProposition]:
    """The distinct predicates appearing anywhere in the formula."""
    return phi.alphabet


def _conjuncts(phi: Formula) -> list[Formula]:
    """The operands of a tree of conjunctions, left to right."""
    found: list[Formula] = []
    pending = [phi]
    while pending:
        node = pending.pop()
        if isinstance(node, And):
            pending += (node.right, node.left)
        else:
            found.append(node)
    return found


def _given(phi: Formula, holds: set, fails: set) -> Formula:
    """``phi`` with the subformulas in ``holds`` replaced by truth and those
    in ``fails`` by falsity, looking through negations and conjunctions."""
    if phi in holds:
        return TRUE
    if phi in fails:
        return FALSE
    if isinstance(phi, Not):
        return Not(_given(phi.operand, holds, fails))
    if isinstance(phi, And):
        return And(_given(phi.left, holds, fails), _given(phi.right, holds, fails))
    return phi


def _in_context(conjuncts: list[Formula]) -> list[Formula]:
    """Each of the distinct ``conjuncts`` with every other one assumed true."""
    fails = {c.operand for c in conjuncts if isinstance(c, Not)}
    if not fails:
        # Conjuncts are not conjunctions, so only a negation has others inside.
        return conjuncts
    holds = set(conjuncts)
    result = []
    for conjunct in conjuncts:
        negated = conjunct.operand if isinstance(conjunct, Not) else None
        holds.discard(conjunct)
        fails.discard(negated)
        result.append(_given(conjunct, holds, fails))
        holds.add(conjunct)
        if negated is not None:
            fails.add(negated)
    return result


def simplify(phi: Formula) -> Formula:
    """Bottom-up normal form: no double negation and no true/false conjunct.
    Conjunctions are sets, and each conjunct holds inside the others: no
    conjunct repeats, and none reappears, plain or negated, inside another
    through negations and conjunctions.  Idempotent.

    Without this, progression grows obligations with every step: ``G F p``
    gains a conjunct, and ``(F p) U (F q)`` a nested disjunction
    (``q | (p & (q | (p & U)))`` reduces to ``q | (p & U)``).  A
    conjunction that changes is rebuilt left-associated from its conjuncts
    in order of first occurrence, never in order of identity or hash, which
    differ between processes; one that does not keeps its shape."""
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
        conjuncts = _conjuncts(left) + _conjuncts(right)
        reduced = _in_context(list(dict.fromkeys(conjuncts)))
        if reduced == conjuncts:
            return And(left, right)
        phi = reduced[0]
        for conjunct in reduced[1:]:
            phi = And(phi, conjunct)
        return simplify(phi)
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
        # By fields, not by text: "[a~x]" sorts after "[ab=x]" as text.
        ordered = sorted(self, key=lambda a: (a.key, a.op, a.value))
        return "{" + ", ".join(str(a) for a in ordered) + "}"


class _Resolved(Interned):
    # Resolved once, when a verdict is built: a step reads them and calls
    # nothing.  Slots of a base class, so left out of repr and pickling.
    __slots__ = ("is_true", "is_false")


class Verdict(_Resolved):
    """Three-valued outcome of one projection step.

    Wraps the simplified remaining obligation; ``true`` and ``!true``
    collapse to the determined verdicts, anything else is undetermined.
    """

    __slots__ = ("formula",)

    def __new__(cls, formula: Formula) -> Verdict:
        return intern(_VERDICTS, (formula,), cls, (formula, formula is TRUE, formula is FALSE))


# Every verdict ever built, keyed by its formula.
_VERDICTS: dict[tuple[Formula], Verdict] = {}


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

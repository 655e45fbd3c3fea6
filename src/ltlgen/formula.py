"""Immutable temporal-logic syntax trees over bracketed GUI predicates.

The only primitive connectives are truth, predicates, negation, conjunction,
next, and until.  Disjunction, implication, finally, globally, and the
``false`` literal are parser sugar and never appear in a tree.

Predicates and nodes are hash-consed through ``Interned`` and ``intern``,
which verdicts, GUI actions and the learner's decisions share; each class
keeps its objects in its own table.  The base of ``Interned``, ``Frozen``,
also serves the model's states and the model itself.
A conjunction is one flat node over all its conjuncts, so its length adds
no nesting.  ``simplify`` gives the normal form every obligation is kept
in; it treats each conjunction as the set of its conjuncts, which keeps the
obligation of a formula such as ``G F p`` from growing with the length of
an episode.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import repeat


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
    and learner decisions (``engine.Decision``) derive from it.  Every
    subclass gets its own table, ``_table``, from each of its constructor's
    keys to the object built for it, so a key never names the class and a
    subclass never shares its base's objects.  A constructor returns the
    stored object equal to what it would build (see ``intern``), so identity
    is value equality, a lookup never walks the value, and copies and
    unpickled objects come back as the stored object.  Identity hashes
    differ between processes; nothing iterates a collection keyed by
    interned objects in an order that reaches output.  Interned objects are
    never evicted: each class's table grows with the number of distinct
    values a process builds of it.

    The package has one idiom per kind of class: values are ``Interned``,
    records are ``typing.NamedTuple``s, and state is a plain class with
    ``__slots__`` (a ``Frozen`` one when it never changes), such as a
    session (``model.EnvSession``) or the parser's cursor.  A labeling, the
    predicates that hold at one step, is a plain ``frozenset``: no class
    subclasses a builtin but a named tuple, which is a ``tuple``.  The engine
    builds its records, one ``engine.StepRecord`` per edge of a run and one
    ``engine.EpisodeLog`` per episode, with ``tuple.__new__``, which skips
    the named tuple's Python-level ``__new__`` and builds the same record;
    no record stores its position in the list that holds it.  The only
    dataclass is ``engine.LearnerConfig``, which callers copy with
    ``dataclasses.replace``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._table = {}


def intern(cls: type, key: tuple, values: tuple):
    """The ``cls`` object stored under ``key`` in ``cls``'s own table, built
    by ``build`` on first use."""
    obj = cls._table.get(key)
    if obj is not None:
        return obj
    # setdefault keeps one object when two threads build the same value.
    return cls._table.setdefault(key, build(cls, values))


class AtomicProposition(Interned):
    """One bracketed predicate such as ``[activity~Main]`` or ``[actionType=back]``.

    The key is one or more word characters.  The value is not empty, has no
    leading or trailing whitespace and no ``]``, so the predicate's text
    parses back to it.  The parser leaves these checks to this constructor.
    ``=`` demands exact equality of the observed value; ``~`` demands
    case-sensitive substring containment.  Predicates whose key starts with ``action`` describe the
    action being executed, by one of ``_ACTION_KEYS``; all others describe
    the resulting state.
    """

    __slots__ = ("key", "op", "value")

    def __new__(cls, key: str, op: str, value: str) -> AtomicProposition:
        if not _KEY.fullmatch(key):
            raise ValueError(f"bad predicate key {key!r}")
        if op not in ("=", "~"):
            raise ValueError(f"predicate operator must be '=' or '~', got {op!r}")
        if not value:
            raise ValueError("predicate value must not be empty")
        if value != value.strip() or "]" in value:
            raise ValueError(
                f"predicate value must not contain ']' or start or end with whitespace, got {value!r}"
            )
        if key.startswith("action") and key not in _ACTION_KEYS:
            raise ValueError(f"action key must be one of {', '.join(_ACTION_KEYS)}, got {key!r}")
        values = (key, op, value)
        return intern(cls, values, values)

    @property
    def is_action(self) -> bool:
        return self.key.startswith("action")

    def matches(self, observed: str) -> bool:
        if self.op == "=":
            return observed == self.value
        return self.value in observed

    def __str__(self) -> str:
        return f"[{self.key}{self.op}{self.value}]"


# A predicate key is one or more word characters, as the parser reads it.
_KEY = re.compile(r"\w+")
# The keys model.action_labeling reads from an action.
_ACTION_KEYS = ("actionType", "actionDetail", "actionObjectID")


class Formula(Interned):
    """Base class for formula nodes.

    Two trees are structurally equal exactly when they are the same node.
    A node class's table is keyed by the node's children (a conjunction's
    by its conjuncts), which are canonical nodes, so keys hash and compare
    by identity.  Besides its children, a node keeps only its predicate
    count (``atom_count``), computed once, when it is first built;
    ``atom_set`` walks a formula for its distinct predicates.
    """

    __slots__ = ("atom_count",)


class Truth(Formula):
    __slots__ = ()

    def __new__(cls) -> Truth:
        return intern(cls, (), (0,))


class Atom(Formula):
    __slots__ = ("ap",)

    def __new__(cls, ap: AtomicProposition) -> Atom:
        return intern(cls, (ap,), (ap, 1))


class Not(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand: Formula) -> Not:
        return intern(cls, (operand,), (operand, operand.atom_count))


class And(Formula):
    """A conjunction, kept as the tuple of its conjuncts, which ``simplify``
    reads as a set.

    An operand that is itself a conjunction contributes its conjuncts, in
    order, so ``conjuncts`` never holds an ``And`` and association does not
    matter: ``And(a, And(b, c))`` is ``And(And(a, b), c)`` is ``And(a, b, c)``.
    """

    __slots__ = ("conjuncts",)

    def __new__(cls, *operands: Formula) -> And:
        conjuncts: list[Formula] = []
        for operand in operands:
            conjuncts += operand.conjuncts if isinstance(operand, And) else (operand,)
        key = tuple(conjuncts)
        if len(key) < 2:
            raise ValueError("a conjunction needs at least two conjuncts")
        return intern(cls, key, (key, sum(c.atom_count for c in key)))

    def __reduce__(self):
        return And, self.conjuncts


class Next(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand: Formula) -> Next:
        return intern(cls, (operand,), (operand, operand.atom_count))


class Until(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> Until:
        return intern(cls, (left, right), (left, right, left.atom_count + right.atom_count))


TRUE = Truth()
FALSE = Not(TRUE)


def count_atoms(phi: Formula) -> int:
    """Number of predicate occurrences, with multiplicity; truth counts zero."""
    return phi.atom_count


def atom_set(phi: Formula) -> frozenset[AtomicProposition]:
    """The distinct predicates appearing anywhere in the formula.  A run
    reads them once per input formula, through ``engine._start``'s cache.

    The walk keeps its own stack, so depth costs no frames, and visits each
    distinct node once, so a shared subformula is read once however many
    paths reach it."""
    atoms = set()
    seen = {phi}
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            atoms.add(node.ap)
            continue
        if isinstance(node, And):
            children = node.conjuncts
        elif isinstance(node, Until):
            children = (node.left, node.right)
        elif isinstance(node, (Not, Next)):
            children = (node.operand,)
        else:
            children = ()
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return frozenset(atoms)


def _given(phi: Formula, holds: set, fails: set, under: dict) -> Formula:
    """``phi`` with the subformulas in ``holds`` replaced by truth and those
    in ``fails`` by falsity, looking through negations and conjunctions.  A
    conjunction is also false when the conjuncts of one in ``fails`` are a
    proper subset of its own: two of the same conjuncts in another order
    would each make the other false.  ``under`` lists each conjunction that
    may be in ``fails`` under one of its conjuncts, so only those filed
    under a conjunct of a conjunction are compared with it."""
    if phi in holds:
        return TRUE
    if phi in fails:
        return FALSE
    if isinstance(phi, Not):
        return Not(_given(phi.operand, holds, fails, under))
    if isinstance(phi, And):
        own = set(phi.conjuncts)
        if any(f in fails and own > set(f.conjuncts) for c in own for f in under.get(c, ())):
            return FALSE
        # map calls _given itself; a comprehension would add a frame per level.
        return And(*map(_given, phi.conjuncts, repeat(holds), repeat(fails), repeat(under)))
    return phi


def _in_context(conjuncts: list[Formula]) -> list[Formula]:
    """Each of the distinct ``conjuncts`` with every other one assumed true."""
    fails = {c.operand for c in conjuncts if isinstance(c, Not)}
    if not fails:
        # Conjuncts are not conjunctions, so only a negation has others inside.
        return conjuncts
    holds = set(conjuncts)
    conjunctions = [f for f in fails if isinstance(f, And)]
    containing = Counter(c for f in conjunctions for c in f.conjuncts)
    # Each under its rarest conjunct, so that conjunctions sharing one
    # conjunct do not all land in one list.
    under: dict[Formula, list[And]] = {}
    for f in conjunctions:
        under.setdefault(min(f.conjuncts, key=containing.__getitem__), []).append(f)
    result = []
    for conjunct in conjuncts:
        negated = conjunct.operand if isinstance(conjunct, Not) else None
        holds.discard(conjunct)
        fails.discard(negated)
        result.append(_given(conjunct, holds, fails, under))
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
    conjunction keeps its conjuncts in order of first occurrence, never in
    order of identity or hash, which differ between processes.  One pass
    over a conjunction costs time linear in its conjuncts."""
    if isinstance(phi, Not):
        operand = simplify(phi.operand)
        if isinstance(operand, Not):
            return operand.operand
        return Not(operand)
    if isinstance(phi, And):
        parts: list[Formula] = []
        for conjunct in map(simplify, phi.conjuncts):
            if conjunct is FALSE:
                return FALSE
            parts += conjunct.conjuncts if isinstance(conjunct, And) else (conjunct,)
        conjuncts = [c for c in dict.fromkeys(parts) if c is not TRUE]
        if len(conjuncts) < 2:
            return conjuncts[0] if conjuncts else TRUE
        reduced = _in_context(conjuncts)
        return And(*conjuncts) if reduced == conjuncts else simplify(And(*reduced))
    if isinstance(phi, Next):
        return Next(simplify(phi.operand))
    if isinstance(phi, Until):
        return Until(simplify(phi.left), simplify(phi.right))
    return phi


class _Resolved(Interned):
    # Resolved once, when a verdict is built, so reading them calls nothing.
    # Slots of a base class, so left out of repr and pickling.
    __slots__ = ("is_true", "is_false")


class Verdict(_Resolved):
    """Three-valued outcome of one projection step.

    Wraps the simplified remaining obligation; ``true`` and ``!true``
    collapse to the determined verdicts, anything else is undetermined.
    """

    __slots__ = ("formula",)

    def __new__(cls, formula: Formula) -> Verdict:
        return intern(cls, (formula,), (formula, formula is TRUE, formula is FALSE))


"""Finite-trace evaluation and single-step formula progression.

``evaluate`` is the brute-force reference semantics over a complete trace of
labelings.  ``projection`` consumes one position's labeling and returns the
obligation on the remainder: every until is unrolled once (``expand``),
exposed predicates are replaced by their observed truth (``restrict``), and
one level of next is stripped (``advance``).  Predicates guarded by a next
operator are left symbolic for the following step.

Projection is a pure function of (obligation, labeling), and a run meets
only a handful of either, so it is a cached function of the two: its cache
holds the obligation-to-obligation edges of an automaton built on the fly,
the reward machine of the formula.  An executed step reads that machine's
transitions through its run's edge table (see ``engine``), which calls
``projection`` at the run's first visit to each edge.
"""

from __future__ import annotations

import functools

from .formula import (
    And,
    Atom,
    FALSE,
    Formula,
    Next,
    Not,
    TRUE,
    Until,
    Verdict,
    count_atoms,
    simplify,
)


def evaluate(trace: list[frozenset] | tuple[frozenset, ...], position: int, phi: Formula) -> bool:
    """Pointwise truth of ``phi`` at ``position``.

    Positions at or beyond the end of the trace carry no labels: every
    predicate is false there while truth still holds, which keeps the
    function total for next operators that run off the trace.
    """
    if isinstance(phi, Atom):
        return position < len(trace) and phi.ap in trace[position]
    if isinstance(phi, Not):
        return not evaluate(trace, position, phi.operand)
    if isinstance(phi, And):
        # A loop: all() over a map would add a frame per level of nesting.
        for conjunct in phi.conjuncts:
            if not evaluate(trace, position, conjunct):
                return False
        return True
    if isinstance(phi, Next):
        return evaluate(trace, position + 1, phi.operand)
    if isinstance(phi, Until):
        for j in range(position, len(trace)):
            if evaluate(trace, j, phi.right):
                return True
            if not evaluate(trace, j, phi.left):
                return False
        return False
    return True  # truth


def expand(phi: Formula) -> Formula:
    """Unroll every until reachable without crossing a next operator.

    ``l U r`` becomes ``!(!r & !(l & X (l U r)))``; the copy under the new
    next keeps the original until, so each node unrolls exactly once.
    """
    if isinstance(phi, Not):
        return Not(expand(phi.operand))
    if isinstance(phi, And):
        return And(*map(expand, phi.conjuncts))
    if isinstance(phi, Until):
        return Not(And(Not(expand(phi.right)), Not(And(expand(phi.left), Next(phi)))))
    return phi


def restrict(phi: Formula, labels: frozenset, *, action_only: bool = False) -> Formula:
    """Replace exposed predicates by their observed truth.

    Predicates under a next operator are untouched.  With ``action_only``,
    state-scope predicates stay symbolic as well; this is the pre-execution
    variant used to screen candidate actions by their labels alone.
    """
    if isinstance(phi, Atom):
        if action_only and not phi.ap.is_action:
            return phi
        return TRUE if phi.ap in labels else FALSE
    if isinstance(phi, Not):
        return Not(restrict(phi.operand, labels, action_only=action_only))
    if isinstance(phi, And):
        # A loop: map cannot pass the keyword, and a comprehension would add
        # a frame per level of nesting.
        parts = []
        for conjunct in phi.conjuncts:
            parts.append(restrict(conjunct, labels, action_only=action_only))
        return And(*parts)
    return phi


def advance(phi: Formula) -> Formula:
    """Strip one level of next operators, distributing over negation and
    conjunction; until nodes and leaves pass through unchanged."""
    if isinstance(phi, Not):
        return Not(advance(phi.operand))
    if isinstance(phi, And):
        return And(*map(advance, phi.conjuncts))
    if isinstance(phi, Next):
        return phi.operand
    return phi


@functools.cache
def projection(phi: Formula, labels: frozenset) -> Verdict:
    """Consume one position's labeling and return the verdict on the rest.

    Equal to ``Verdict(simplify(advance(restrict(expand(phi), labels))))``,
    computed once per distinct (obligation, labeling) and then looked up.
    The cache is never evicted: it grows with the distinct obligations
    episodes reach, which the step budget bounds.
    """
    return Verdict(simplify(advance(restrict(expand(phi), labels))))


def shaped_reward(phi: Formula, verdict: Verdict, shaping: bool = True) -> float:
    """Reward for the projection step that turned ``phi`` into ``verdict``.

    1 on satisfaction, -1 on falsification; otherwise the relative change in
    predicate count between the two obligations (0 if shaping is disabled or
    both counts are zero).
    """
    if verdict.is_true:
        return 1.0
    if verdict.is_false:
        return -1.0
    if not shaping:
        return 0.0
    n_before = count_atoms(phi)
    n_after = count_atoms(verdict.formula)
    total = n_before + n_after
    if total == 0:
        return 0.0
    return abs(n_after - n_before) / total

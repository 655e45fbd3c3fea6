"""Shared builders for the test suite: predicates, labelings, formula
generators, the reference learner update, policy and run, and exact oracles
for the shortest test and for the uniform baseline's chance of finding one."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from ltlgen import (
    And,
    AtomicProposition,
    DONT_CARE,
    EnvSession,
    FALSE,
    Formula,
    Next,
    Not,
    QStore,
    TRUE,
    Until,
    projection,
    simplify,
)
from ltlgen.formula import atom_set
from ltlgen.model import action_labeling, state_labeling
from ltlgen.progression import advance, expand, restrict

P = AtomicProposition("p", "=", "1")
Q = AtomicProposition("q", "=", "1")


def lab(*atoms: AtomicProposition) -> frozenset[AtomicProposition]:
    return frozenset(atoms)


def enumerate_formulas(max_ops: int, leaves: list[Formula]) -> list[Formula]:
    """All formula trees with at most ``max_ops`` connectives over the leaves."""
    by_ops: dict[int, list[Formula]] = {0: list(leaves)}
    for n in range(1, max_ops + 1):
        forms: list[Formula] = []
        for child in by_ops[n - 1]:
            forms.append(Not(child))
            forms.append(Next(child))
        for left_ops in range(n):
            for left in by_ops[left_ops]:
                for right in by_ops[n - 1 - left_ops]:
                    forms.append(And(left, right))
                    forms.append(Until(left, right))
        by_ops[n] = forms
    return [phi for n in range(max_ops + 1) for phi in by_ops[n]]


def random_formula(rng: random.Random, max_ops: int, leaves: list[Formula]) -> Formula:
    """One random formula tree with at most ``max_ops`` connectives."""
    if max_ops == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    pick = rng.randrange(4)
    if pick == 0:
        return Not(random_formula(rng, max_ops - 1, leaves))
    if pick == 1:
        return Next(random_formula(rng, max_ops - 1, leaves))
    split = rng.randrange(max_ops)
    left = random_formula(rng, split, leaves)
    right = random_formula(rng, max_ops - 1 - split, leaves)
    return And(left, right) if pick == 2 else Until(left, right)


def conjuncts(phi: Formula) -> list[Formula]:
    return list(phi.conjuncts) if isinstance(phi, And) else [phi]


def occurs_in(target: Formula, phi: Formula) -> bool:
    """True if ``target`` is ``phi`` or sits in it below negations and
    conjunctions only; a conjunction also sits in one that has all its
    conjuncts and more."""
    if phi == target:
        return True
    if isinstance(phi, Not):
        return occurs_in(target, phi.operand)
    if isinstance(phi, And):
        if isinstance(target, And) and set(target.conjuncts) < set(phi.conjuncts):
            return True
        return any(occurs_in(target, part) for part in phi.conjuncts)
    return False


def has_redex(phi: Formula) -> bool:
    """True if any subterm matches a shape simplify is required to remove."""
    if isinstance(phi, Not):
        if isinstance(phi.operand, Not):
            return True
        return has_redex(phi.operand)
    if isinstance(phi, And):
        parts = conjuncts(phi)
        if TRUE in parts or FALSE in parts or any(isinstance(part, And) for part in parts):
            return True
        if len(set(parts)) < len(parts):
            return True
        for part in parts:
            for other in parts:
                if other is part:
                    continue
                if occurs_in(other, part):
                    return True
                if isinstance(other, Not) and occurs_in(other.operand, part):
                    return True
        return any(has_redex(part) for part in parts)
    if isinstance(phi, (Next, Until)):
        children = (phi.operand,) if isinstance(phi, Next) else (phi.left, phi.right)
        return any(has_redex(child) for child in children)
    return False


def shortest_test(model, phi: Formula, steps: int) -> int | None:
    """The fewest steps of any action sequence from the don't-care state
    whose trace satisfies ``phi``, over every successor a transition can
    reach (the loader admits only positive weights), or None if no sequence of at most ``steps`` steps does.

    A breadth-first walk over (state, obligation) pairs: the product of the
    model with the formula's progression.  A pair whose obligation is false
    has no successors."""
    phi = simplify(phi)
    alphabet = atom_set(phi)
    frontier = {(DONT_CARE, phi)}
    for depth in range(1, steps + 1):
        reached = set()
        for state, obligation in frontier:
            for action in model.enabled_in(state):
                action_labels = action_labeling(action, alphabet)
                for successor, _ in model.transition(state, action):
                    labels = action_labels | state_labeling(successor, alphabet)
                    verdict = projection(obligation, labels)
                    if verdict.is_true:
                        return depth
                    if not verdict.is_false:
                        reached.add((successor, verdict.formula))
        frontier = reached
    return None


def satisfaction_probability(model, phi: Formula, steps: int) -> Fraction:
    """The exact probability that one episode of uniformly drawn actions
    satisfies ``phi`` within ``steps`` steps.

    Each enabled action is drawn with probability 1/n and each successor
    with its transition weight, taken as the exact value of the float.  The
    walk is ``shortest_test``'s product, carrying the probability of each
    (state, obligation) pair; a path stops when its verdict resolves."""
    phi = simplify(phi)
    alphabet = atom_set(phi)
    frontier = {(DONT_CARE, phi): Fraction(1)}
    satisfied = Fraction(0)
    for _ in range(steps):
        reached: dict = {}
        for (state, obligation), mass in frontier.items():
            actions = model.enabled_in(state)
            for action in actions:
                action_labels = action_labeling(action, alphabet)
                for successor, weight in model.transition(state, action):
                    labels = action_labels | state_labeling(successor, alphabet)
                    verdict = projection(obligation, labels)
                    share = mass * Fraction(weight) / len(actions)
                    if verdict.is_true:
                        satisfied += share
                    elif not verdict.is_false:
                        key = (successor, verdict.formula)
                        reached[key] = reached.get(key, 0) + share
        frontier = reached
    return satisfied


class FixedRoll:
    """random()-compatible stub returning a constant: puts a swap, policy or
    session draw where a test wants it, on a bound too."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value

    def randrange(self, n: int) -> int:
        return int(self.value * n)


def _clamp(value: float, bound: float) -> float:
    return min(max(value, -bound), bound)


def reference_learn(store, decision, reward, config, eta, rng, action_labels=None) -> float:
    """``engine.learn`` as written before decisions were hash-consed, kept as
    the reference its float results and table key orders must equal.

    ``decision`` is a plain ``(tail, action)`` tuple, so every table access
    hashes the whole tail."""
    tail, _ = decision
    if action_labels is None:
        action_labels = store.action_labels.get(decision, frozenset())
    store.action_labels.setdefault(decision, action_labels)
    if tail not in store.seen_tails:
        store.seen_tails.add(tail)
        store.q1[decision] = store.qa1.get(action_labels, 0.0)
    delta = reward - store.q1.get(decision, 0.0)
    store.elig[decision] = store.elig.get(decision, 0.0) + 1.0
    bound = config.vigilance
    mix = config.doubleness
    for eligible, trace_value in list(store.elig.items()):
        labels = store.action_labels[eligible]
        step = eta * delta * trace_value
        store.qa1[labels] = _clamp(store.qa1.get(labels, 0.0) + step, bound)
        store.q1[eligible] = _clamp(store.q1.get(eligible, 0.0) + step, bound)
        store.qa2[labels] = (1.0 - mix) * store.qa1[labels] + mix * store.qa2.get(labels, 0.0)
        store.q2[eligible] = (1.0 - mix) * store.q1[eligible] + mix * store.q2.get(eligible, 0.0)
        decayed = config.elig_decay * trace_value
        if decayed >= config.elig_min:
            store.elig[eligible] = decayed
        else:
            del store.elig[eligible]
    if rng.random() < 0.5:
        store.q1, store.q2 = store.q2, store.q1
        store.qa1, store.qa2 = store.qa2, store.qa1
    return delta


def reference_policy_probabilities(store, candidates, temperature, epsilon) -> list[float]:
    """``engine.policy_probabilities`` as written before its lookups were
    hoisted, kept as the reference its floats must equal."""
    scores = [
        (store.q1.get(d, 0.0) + store.q2.get(d, 0.0)) / (2.0 * temperature) for d in candidates
    ]
    peak = max(scores)
    weights = [math.exp(s - peak) for s in scores]
    total = sum(weights)
    uniform = 1.0 / len(candidates)
    return [(1.0 - epsilon) * w / total + epsilon * uniform for w in weights]


def reference_decide_next_action(store, candidates, temperature, epsilon, rng):
    """``engine.decide_next_action`` as written before a lone candidate
    skipped the softmax, kept as the reference its choices and draws must
    equal."""
    if not candidates:
        raise ValueError("no candidate decisions to choose from")
    probabilities = reference_policy_probabilities(store, candidates, temperature, epsilon)
    roll = rng.random()
    acc = 0.0
    for decision, probability in zip(candidates, probabilities):
        acc += probability
        if roll < acc:
            return decision
    return candidates[-1]


def reference_run(model, phi, config, uniform):
    """A run of ``engine.generate``, or with ``uniform`` of
    ``random_policy_generate``, written plainly, kept as the reference their
    episodes and tables must equal.

    It caches nothing and keeps no edge table: every screening and every
    step progresses the obligation afresh, and the reward is recomputed from
    the predicate counts.  Decisions are plain ``(tail, signature)`` tuples,
    learned by ``reference_learn`` and chosen by
    ``reference_decide_next_action``.  The streams are seeded as ``_drive``
    seeds them: master, then policy, then swap, then session.

    Returns each episode as ``(records, outcome)``, a record being
    ``(action, labels, obligation, reward)``, and the store."""
    phi = simplify(phi)
    alphabet = atom_set(phi)
    master = random.Random(config.seed)
    policy_rng = random.Random(master.getrandbits(64))
    swap_rng = random.Random(master.getrandbits(64))
    session = EnvSession(model, seed=master.getrandbits(64))
    store = QStore()
    temperature, epsilon, eta = config.t0, config.eps0, config.eta0
    episodes = []
    for _ in range(config.episodes):
        session.reset()
        store.elig.clear()
        obligation, tail, records, previous, outcome = phi, (), [], None, "exhausted"
        for _ in range(config.steps):
            enabled = session.enabled_actions()
            if uniform:
                action = policy_rng.choice(enabled)
            else:
                survivors, shortcut = list(enabled), None
                if config.predict:
                    survivors = []
                    for candidate in enabled:
                        labels = action_labeling(candidate, alphabet)
                        residue = simplify(
                            advance(restrict(expand(obligation), labels, action_only=True))
                        )
                        if residue is TRUE:
                            shortcut = candidate
                            break
                        if residue is not FALSE:
                            survivors.append(candidate)
                    if shortcut is None and not survivors:
                        if previous is not None:
                            reference_learn(store, previous, -1.0, config, eta, swap_rng)
                            records[-1] = records[-1][:3] + (-1.0,)
                        outcome = "dead_end"
                        break
                if shortcut is not None:
                    action = shortcut
                    decision = (tail, action.signature)
                else:
                    by_decision = {(tail, a.signature): a for a in survivors}
                    decision = reference_decide_next_action(
                        store, list(by_decision), temperature, epsilon, policy_rng
                    )
                    action = by_decision[decision]
            state = session.execute(action)
            action_labels = action_labeling(action, alphabet)
            labels = action_labels | state_labeling(state, alphabet)
            after = simplify(advance(restrict(expand(obligation), labels)))
            before, count = obligation.atom_count, after.atom_count
            if after is TRUE:
                reward = 1.0
            elif after is FALSE:
                reward = -1.0
            elif config.shaping and before + count:
                reward = abs(count - before) / (before + count)
            else:
                reward = 0.0
            if not uniform:
                reference_learn(store, decision, reward, config, eta, swap_rng, action_labels)
                previous = decision
                if config.tail_length > 0:
                    tail = (tail + ((action.signature, state.id),))[-config.tail_length:]
            records.append((action, labels, after, reward))
            obligation = after
            if after is TRUE:
                outcome = "satisfied"
                break
            if after is FALSE:
                outcome = "falsified"
                break
        episodes.append((records, outcome))
        if outcome == "satisfied":
            break
        if not uniform:
            temperature = max(temperature - config.t_delta, config.t_min)
            epsilon = max(config.eps_update * epsilon, config.eps_min)
            eta = max(config.eta_update * eta, config.eta_min)
    return episodes, store

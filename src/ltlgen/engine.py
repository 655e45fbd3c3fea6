"""Episode loop, policy, and tabular double-Q learning over decision keys.

The learner's state space is the set of tails: bounded recent
(action, state) history, so the same GUI state reached along different
paths can earn different values.  A decision is a tail plus an action
signature; decisions are interned like formula nodes (``formula.Interned``),
so the learner's tables hash and compare them by identity and never walk a
tail.  Stateless side tables keyed by action labelings seed values for
decisions made from tails never seen before.  A labeling, the set of
predicates that hold at a step, is a plain ``frozenset``, so it hashes and
compares by its predicates; only the command line's log prints one, in
sorted order.

Before choosing an action the engine screens the enabled set using action
labels alone: actions whose labels already falsify the formula are dropped
before execution, an action whose labels alone satisfy it is taken
immediately, and if nothing survives the previous decision is charged with
the dead end.

Once its action has executed, a step reads one table, the run's edge
table: a plain dict from (obligation, action, resulting state) to the
step's action labels and its ``StepRecord``, the transitions of the
formula's reward machine (see ``progression``) as the run meets them.
Within a run the alphabet and the shaping flag are fixed, so neither is
part of the key.  A run's first visit to an edge computes it from the
tables below (``_edge``), so every run still calls ``projection`` once per
edge it meets, and the table is freed with the run.  A record is the
edge's action, labels, resulting obligation and reward, and nothing else:
the step reads its next obligation from the record, and the episode's
outcome from whether that is ``TRUE`` or ``FALSE``.  A step's position is
its place in its episode's list, and an episode's its place in the run's,
so every step that repeats an edge appends the edge's one immutable
record.  The dead end's charge replaces the episode's last record with a
copy of its own, which no entry keeps.

The edge table lives in the run object, ``Run``, with the rest of what a
run's episodes share: the session, the formula they start from, the
learner's tables and config, the pick, the policy's and the swaps' random
streams, the formula's alphabet and the annealing schedule.  A run takes
the input formula and starts from its normal form, and it builds its own
store and edge table, so both belong to its formula and config.
``run_episode(run)`` drives one episode of a run, and it is the one way to
drive one: ``_drive`` builds a run per generation run and ``replay`` one
per replayed test, so an episode fills no defaults and computes no
alphabet.

Every other table is a cached pure function of its arguments, kept for the
life of the process: projection, the prediction for an obligation over a
state's enabled actions at a tail, screened or not (a continuing
prediction carries the learner's candidates: a map from each surviving
action's decision to that action), and the labeling of a step by its
action and resulting state object.  So is each input formula's start
(``_start``): its normal form, which every run of it starts from, and the
predicates of that form, the run's alphabet.

A step builds only the key of its edge, and its ``StepRecord`` only on its
edge's first visit.  Records, and each episode's ``EpisodeLog``, are built
with ``tuple.__new__(cls, values)``: a named tuple is the tuple of its
values, so this builds what calling the class builds, without the class's
Python-level ``__new__``.  A learner step reads its whole
``Prediction`` from the cache in one lookup.  The learner's step builds no dict
either, and no decision except the one for an action that satisfies the
obligation outright: it reads them from the prediction.  Its only lists
are the softmax's scores and weights, for a choice among two or more
candidates: the pick walks the weights once, adding up the probabilities
``policy_probabilities`` returns without building their list.  A lone
candidate is taken without the softmax, at the cost of the one random draw
every choice makes.  ``learn`` does a decision's bookkeeping once per
run, on its first update: it stores the decision's labeling, hashes its
tail against the tails seen, seeds its value and gives it and its labeling
their table entries.  Every later update of the decision goes straight to
the sweep, which reads those entries by subscript, walks the trace in
place and computes ``eta * delta`` once.  ``learn`` clamps each update to
the vigilance bound, and ``anneal`` cuts each schedule value to its floor,
with comparisons, not ``min``/``max`` calls.

``run_episode`` is the only loop that executes actions.  The learner, the
uniform baseline and replay differ only in their run's pick: a run with a
pick screens nothing, learns nothing and keeps no tail, which only the
learner reads.  The baseline's pick, which ``_uniform`` returns, is one
Python frame bound to its stream's ``getrandbits``: it draws what
``random.Random.choice`` draws, by the same algorithm, without the two
frames of the library's.  ``_streams`` draws a run's streams from its
master seed, in one order: the policy's stream, the swap stream's seed and
the session's seed.  A baseline run builds no swap stream, though its seed
is still drawn, so the session's seed stays the third draw.

The classes follow the package's one idiom (``formula.Interned``):
decisions are interned values; step records, episode logs, predictions,
run statistics and generation results are named tuples; the learner's
tables (``QStore``) and a run (``Run``) are ``__slots__`` classes;
labelings are frozensets.  ``LearnerConfig`` is the one dataclass, since
callers copy it with ``dataclasses.replace``.
"""

from __future__ import annotations

import functools
import math
import random
import time
from collections.abc import Callable, Collection, ItemsView, Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

from .formula import FALSE, Formula, Interned, TRUE, atom_set, intern, simplify
from .model import (
    ActionNotEnabled,
    ActionSig,
    AppModel,
    EnvSession,
    GuiAction,
    GuiState,
    action_labeling,
    state_labeling,
)
from .progression import advance, expand, projection, restrict, shaped_reward

Tail = tuple[tuple[ActionSig, str], ...]
# Chooses the action of step k from the enabled ones, in place of the learner.
# Built from collections.abc: typing caches subscripted aliases, and that
# cache would keep every re-imported copy of this package alive.
Pick = Callable[[int, Sequence[GuiAction]], GuiAction]


class Decision(Interned):
    """A choice point: the recent history it was made from plus the action.

    Interned like formula nodes, keyed in the class's own table by the tail
    and the action, so a learner table lookup does not walk the tail.
    """

    __slots__ = ("tail", "action")

    def __new__(cls, tail: Tail, action: ActionSig) -> Decision:
        key = (tail, action)
        return intern(cls, key, key)


@dataclass
class LearnerConfig:
    """All knobs of a generation run; defaults are tuned for desk-scale models."""

    episodes: int = 500
    steps: int = 4
    t0: float = 5.0
    t_delta: float = 0.05
    t_min: float = 0.5
    eps0: float = 0.2
    eps_update: float = 0.99
    eps_min: float = 0.01
    eta0: float = 1.0
    eta_update: float = 0.999
    eta_min: float = 0.1
    elig_decay: float = 0.9
    doubleness: float = 0.5
    vigilance: float = 1.0
    elig_min: float = 0.01
    tail_length: int = 2
    shaping: bool = True
    predict: bool = True
    seed: int = 0

    def validate(self) -> None:
        # NaN passes every comparison below, so non-finite values go first.
        for name in _KNOBS:
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        for name in ("t0", "t_delta", "t_min", "eps0", "eps_min", "eta0", "eta_min"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.t_min > self.t0:
            raise ValueError("t_min must not exceed t0")
        if self.eps_min > self.eps0:
            raise ValueError("eps_min must not exceed eps0")
        if self.eta_min > self.eta0:
            raise ValueError("eta_min must not exceed eta0")
        if self.eps0 > 1:
            raise ValueError("eps0 must be a probability")
        for name in ("eps_update", "eta_update"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in (0, 1]")
        for name in ("elig_decay", "doubleness"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.vigilance <= 0:
            raise ValueError("vigilance must be positive")
        # A policy score is a summed Q-value, at most 2 * vigilance, over 2 * temperature.
        if not math.isfinite(2.0 * self.vigilance / (2.0 * self.t_min)):
            raise ValueError("vigilance / t_min overflows the policy's scores")
        if self.elig_min <= 0:
            raise ValueError("elig_min must be positive")
        if self.tail_length < 0:
            raise ValueError("tail_length must be >= 0")
        if self.seed < 0:
            # random.Random seeds with the absolute value, so -1 would repeat 1.
            raise ValueError("seed must be >= 0")


# The knob names in declaration order, read once: validate runs once per run.
_KNOBS = tuple(knob.name for knob in fields(LearnerConfig))


class QStore:
    """Tabular double-Q state plus the stateless action-label side tables.

    ``learn`` is the one writer of ``action_labels``.  The call that adds a
    decision there also adds its tail to ``seen_tails`` and gives the
    decision an entry in ``q1`` and ``q2`` and its labeling one in ``qa1``
    and ``qa2``, so every later call finds them and reads them by
    subscript; a table swap exchanges tables that hold the same keys.
    """

    __slots__ = ("q1", "q2", "qa1", "qa2", "elig", "seen_tails", "action_labels")

    def __init__(self) -> None:
        self.q1: dict[Decision, float] = {}
        self.q2: dict[Decision, float] = {}
        self.qa1: dict[frozenset, float] = {}
        self.qa2: dict[frozenset, float] = {}
        self.elig: dict[Decision, float] = {}
        self.seen_tails: set[Tail] = set()
        self.action_labels: dict[Decision, frozenset] = {}


class StepRecord(NamedTuple):
    """One executed action: its labeling, the remaining obligation and its reward."""

    action: GuiAction
    labels: frozenset
    formula: Formula
    reward: float


# A run's edge table; see the module docstring.
Edges = dict[tuple[Formula, GuiAction, GuiState], tuple[frozenset, StepRecord]]


class EpisodeLog(NamedTuple):
    """One episode's executed steps and how it ended: satisfied, falsified,
    dead_end or exhausted."""

    steps: list[StepRecord]
    outcome: str

    @property
    def satisfied(self) -> bool:
        return self.outcome == "satisfied"


class RunStats(NamedTuple):
    outcome: str  # satisfied | exhausted
    episodes: int
    steps: int
    wall_time_ms: float
    seed: int


class GenerationResult(NamedTuple):
    test: list[GuiAction] | None
    stats: RunStats
    episodes: list[EpisodeLog]

    @property
    def satisfied(self) -> bool:
        return self.test is not None


def _softmax(
    store: QStore, candidates: Collection[Decision], temperature: float
) -> tuple[list[float], float]:
    """The softmax weights of the candidates' summed Q-values, in candidate
    order, and their sum: the one copy of the softmax."""
    q1, q2, exp = store.q1.get, store.q2.get, math.exp
    scale = 2.0 * temperature
    scores = [(q1(d, 0.0) + q2(d, 0.0)) / scale for d in candidates]
    peak = max(scores)
    weights = [exp(s - peak) for s in scores]
    # Keep the builtin sum: from CPython 3.12 it compensates, and outputs depend on its bytes.
    return weights, sum(weights)


def policy_probabilities(
    store: QStore, candidates: Collection[Decision], temperature: float, epsilon: float
) -> list[float]:
    """Softmax over summed Q-values mixed with an epsilon-uniform floor:
    each candidate's probability is ``keep * w / total + floor``, the float
    ``decide_next_action`` adds to its running sum."""
    weights, total = _softmax(store, candidates, temperature)
    keep = 1.0 - epsilon
    floor = epsilon * (1.0 / len(candidates))
    return [keep * w / total + floor for w in weights]


def decide_next_action(
    store: QStore,
    candidates: Collection[Decision],
    temperature: float,
    epsilon: float,
    rng: random.Random,
) -> Decision:
    """Sample one decision according to the policy distribution.

    Every call draws once from ``rng``.  A lone candidate is certain, so it
    is taken without the softmax.  Otherwise one pass over the softmax
    weights adds up, in candidate order, the probabilities
    ``policy_probabilities`` returns, float for float, without building
    their list; the first candidate whose running sum exceeds the roll is
    taken.

    The candidates are any sized collection of decisions, iterated in
    order; a learner step passes its prediction's map from decision to
    action, whose iteration yields the decisions.
    """
    n = len(candidates)
    if not n:
        raise ValueError("no candidate decisions to choose from")
    if n == 1:
        rng.random()
        (decision,) = candidates
        return decision
    weights, total = _softmax(store, candidates, temperature)
    keep = 1.0 - epsilon
    floor = epsilon * (1.0 / n)
    roll = rng.random()
    acc = 0.0
    for decision, w in zip(candidates, weights):
        acc += keep * w / total + floor
        if roll < acc:
            return decision
    # Rounding left the roll above the last sum: the last candidate takes it.
    return decision


SATISFIED = "satisfied"
DEAD_END = "dead_end"
CONTINUE = "continue"


class Prediction(NamedTuple):
    """Outcome of pre-execution action screening; a CONTINUE prediction's
    ``survivors`` are the learner's (decision, action) candidates."""

    kind: str
    action: GuiAction | None = None
    survivors: ItemsView[Decision, GuiAction] | tuple[()] = ()


# The caches below, like projection's, are never evicted.  The labeling
# functions skip predicates of the other kind, so every caller passes the
# formula's whole alphabet.


@functools.cache
def _start(phi0: Formula) -> tuple[Formula, frozenset]:
    """Where every run of an input formula starts: its normal form, which
    obligations are kept in, and that form's predicates, the alphabet."""
    phi = simplify(phi0)
    return phi, atom_set(phi)


@functools.cache
def _predict(
    phi: Formula,
    tail: Tail,
    enabled: tuple[GuiAction, ...],
    alphabet: frozenset,
    screen: bool = True,
) -> Prediction:
    """Screening of an obligation over an enabled tuple at a tail: the
    action that satisfies it outright, a dead end, or the learner's
    candidates among the actions it does not falsify; unscreened, among
    all of them.

    The candidates are the (decision, action) items of a map from each
    decision to its action, in action order.  Actions of one signature
    make one decision, which maps to the last of them.  Every caller
    shares the map, so it is reached only through the view's read-only
    ``.mapping``, which the learner's step passes to ``decide_next_action``
    as the candidates and reads the chosen action from."""
    survivors = enabled
    if screen:
        expanded = expand(phi)
        survivors = []
        for action in enabled:
            labels = action_labeling(action, alphabet)
            residue = simplify(advance(restrict(expanded, labels, action_only=True)))
            if residue is TRUE:
                return Prediction(SATISFIED, action)
            if residue is not FALSE:
                survivors.append(action)
        if not survivors:
            return Prediction(DEAD_END)
    return Prediction(CONTINUE, None, {Decision(tail, a.signature): a for a in survivors}.items())


@functools.cache
def _step_labels(
    action: GuiAction, state: GuiState, alphabet: frozenset
) -> tuple[frozenset, frozenset]:
    """(action labels, full labels) of a step.  Keyed by the state object,
    not its id: ids repeat across models."""
    action_labels = action_labeling(action, alphabet)
    return action_labels, action_labels | state_labeling(state, alphabet)


def prune_and_predict(
    phi: Formula,
    tail: Tail,
    enabled: Sequence[GuiAction],
    alphabet: frozenset,
) -> Prediction:
    """Screen enabled actions by what their labels alone do to the formula.

    An action whose label-restricted projection is already false can never
    be part of a satisfying continuation and is dropped; one whose
    projection is already true satisfies the formula regardless of the
    resulting state.  State-scope predicates stay symbolic here, so
    surviving actions still face the full projection after execution.
    Cached whole: a repeated call returns the same ``Prediction`` object.
    """
    return _predict(phi, tail, tuple(enabled), alphabet)


def learn(
    store: QStore,
    decision: Decision,
    reward: float,
    config: LearnerConfig,
    eta: float,
    rng: random.Random,
    action_labels: frozenset | None = None,
) -> float:
    """One reinforcement: myopic update swept over all eligible decisions.

    A decision made from a never-seen tail is first seeded from the
    stateless table for its action labeling.  The stateless tables learn in
    step with the per-decision tables and share the vigilance clamp, and the
    table pairs swap together half of the time.

    ``store.action_labels`` keeps the action labeling first seen for each
    decision.  With a tail length of 1 or more, a decision's tail ends in
    the state it was made in, so it names one action; with
    ``--tail-length 0`` a decision still stands for every action of its
    signature, and they share the first one's labeling.

    Only a decision's first update, the call that stores its labeling,
    checks its tail, seeds its value and gives it and its labeling their
    entries, ``0.0`` where the sweep would have inserted them; a later call
    for it does none of this.  The sweep then reads every entry by
    subscript and walks the trace in place, deleting the entries that
    decayed below ``elig_min`` once it is done.
    """
    labels_of = store.action_labels
    q1, q2, qa1, qa2, elig = store.q1, store.q2, store.qa1, store.qa2, store.elig
    if decision not in labels_of:
        if action_labels is None:
            action_labels = frozenset()
        labels_of[decision] = action_labels
        if decision.tail not in store.seen_tails:
            store.seen_tails.add(decision.tail)
            q1[decision] = qa1.get(action_labels, 0.0)
        # The keys the sweep would insert, at the end of each table as it would.
        q1.setdefault(decision, 0.0)
        q2.setdefault(decision, 0.0)
        qa1.setdefault(action_labels, 0.0)
        qa2.setdefault(action_labels, 0.0)
    delta = reward - q1[decision]
    elig[decision] = elig.get(decision, 0.0) + 1.0
    bound = config.vigilance
    low = -bound
    mix = config.doubleness
    keep = 1.0 - mix
    decay = config.elig_decay
    elig_min = config.elig_min
    # eta * delta * trace_value multiplies eta * delta first, so this is the same float.
    eta_delta = eta * delta
    faded = []
    for eligible, trace_value in elig.items():
        labels = labels_of[eligible]
        step = eta_delta * trace_value
        # Cheaper than min/max calls, and the same float for every value, NaN too, as low < bound.
        value = qa1[labels] + step
        value_a1 = low if value < low else bound if value > bound else value
        qa1[labels] = value_a1
        value = q1[eligible] + step
        value_1 = low if value < low else bound if value > bound else value
        q1[eligible] = value_1
        qa2[labels] = keep * value_a1 + mix * qa2[labels]
        q2[eligible] = keep * value_1 + mix * q2[eligible]
        decayed = decay * trace_value
        if decayed >= elig_min:
            # A new value for a present key: the walk goes on.
            elig[eligible] = decayed
        else:
            faded.append(eligible)
    for eligible in faded:
        del elig[eligible]
    if rng.random() < 0.5:
        store.q1, store.q2 = q2, q1
        store.qa1, store.qa2 = qa2, qa1
    return delta


def anneal(
    temperature: float, epsilon: float, eta: float, config: LearnerConfig
) -> tuple[float, float, float]:
    """Post-episode schedule step; each value decays onto its floor.

    Comparisons, not ``max`` calls: ``floor if floor > x else x`` is the
    float ``max(x, floor)`` returns, NaN too, and ``validate`` keeps every
    floor finite and positive."""
    temperature = temperature - config.t_delta
    epsilon = config.eps_update * epsilon
    eta = config.eta_update * eta
    t_min, eps_min, eta_min = config.t_min, config.eps_min, config.eta_min
    return (
        t_min if t_min > temperature else temperature,
        eps_min if eps_min > epsilon else epsilon,
        eta_min if eta_min > eta else eta,
    )


def _streams(seed: int) -> tuple[random.Random, int, int]:
    """A run's random streams, drawn from its master ``seed`` in this order:
    the policy's stream, the swap stream's seed and the session's seed.  The
    one place a run's master seed seeds a ``random.Random``."""
    master = random.Random(seed)
    return random.Random(master.getrandbits(64)), master.getrandbits(64), master.getrandbits(64)


class Run:
    """What one run's episodes share: the session, the formula they start
    from, the learner's tables and config, the way steps are picked, the
    edge table, the policy's and the swaps' random streams, the formula's
    alphabet and the annealing schedule.

    The run starts from the normal form of the input formula ``phi0``, as
    every run of that input does, and builds its own store and edge table.
    Without ``pick`` the learner chooses, and without streams both are
    drawn from ``config.seed`` by ``_streams``, as ``_drive`` draws them; a
    run with a pick learns nothing, so it needs no swap stream.  The
    schedule starts at ``config``'s initial temperature, epsilon and eta.
    """

    __slots__ = (
        "session", "phi", "store", "config", "pick", "edges", "policy_rng", "swap_rng",
        "alphabet", "temperature", "epsilon", "eta",
    )

    def __init__(
        self,
        session: EnvSession,
        phi0: Formula,
        config: LearnerConfig,
        pick: Pick | None = None,
        policy_rng: random.Random | None = None,
        swap_rng: random.Random | None = None,
    ) -> None:
        if pick is None and policy_rng is None:
            policy_rng, swap_seed, _ = _streams(config.seed)
            swap_rng = random.Random(swap_seed)
        self.session = session
        self.phi, self.alphabet = _start(phi0)
        self.store = QStore()
        self.config = config
        self.pick = pick
        self.edges: Edges = {}
        self.policy_rng = policy_rng
        self.swap_rng = swap_rng
        self.temperature, self.epsilon, self.eta = config.t0, config.eps0, config.eta0


def _edge(run: Run, phi: Formula, action: GuiAction, state: GuiState) -> tuple[frozenset, StepRecord]:
    """The value of ``run``'s edge table for a step from ``phi`` that
    executed ``action`` into ``state``: the step's action labels and its
    record, whose formula is the next obligation.  Computed at the run's
    first visit to the edge."""
    action_labels, labels = _step_labels(action, state, run.alphabet)
    verdict = projection(phi, labels)
    reward = shaped_reward(phi, verdict, run.config.shaping)
    return action_labels, tuple.__new__(StepRecord, (action, labels, verdict.formula, reward))


def run_episode(run: Run) -> EpisodeLog:
    """Drive one episode of ``run`` from the don't-care state until the
    verdict resolves or the step budget runs out.  Clears the eligibility
    trace first.

    Without a pick the learner screens, chooses and learns.  With one, step
    ``k`` executes ``pick(k, enabled)`` and nothing is screened or learned;
    the uniform baseline and replay are such picks.

    Each step appends its edge's one record, so a step's number is its
    position in the log's ``steps``; the log stores no number of its own.
    """
    session = run.session
    store = run.store
    config = run.config
    pick = run.pick
    edges = run.edges
    alphabet = run.alphabet
    session.reset()
    store.elig.clear()
    phi = run.phi
    tail: Tail = ()
    steps: list[StepRecord] = []
    previous: Decision | None = None
    outcome = "exhausted"
    for k in range(config.steps):
        enabled = session.enabled_actions()
        if pick is not None:
            action = pick(k, enabled)
        else:
            if config.predict:
                prediction = prune_and_predict(phi, tail, enabled, alphabet)
            else:
                prediction = _predict(phi, tail, tuple(enabled), alphabet, False)
            if prediction.kind == DEAD_END:
                # Its labels are already stored and its tail seen, so learn needs no labels.
                if previous is not None:
                    learn(store, previous, -1.0, config, run.eta, run.swap_rng)
                    steps[-1] = steps[-1]._replace(reward=-1.0)
                outcome = "dead_end"
                break
            if prediction.kind == SATISFIED:
                assert prediction.action is not None
                action = prediction.action
                decision = Decision(tail, action.signature)
            else:
                by_decision = prediction.survivors.mapping
                decision = decide_next_action(
                    store, by_decision, run.temperature, run.epsilon, run.policy_rng
                )
                action = by_decision[decision]
        state = session.execute(action)
        key = (phi, action, state)
        edge = edges.get(key)
        if edge is None:
            edge = edges[key] = _edge(run, phi, action, state)
        action_labels, record = edge
        if pick is None:
            learn(store, decision, record.reward, config, run.eta, run.swap_rng, action_labels)
            previous = decision
            if config.tail_length > 0:
                tail = (tail + ((action.signature, state.id),))[-config.tail_length:]
        phi = record.formula
        steps.append(record)
        if phi is TRUE:
            outcome = "satisfied"
            break
        if phi is FALSE:
            outcome = "falsified"
            break
    return tuple.__new__(EpisodeLog, (steps, outcome))


def _uniform(rng: random.Random) -> Pick:
    """The baseline's pick: one uniform draw from the enabled actions per
    step, the one ``rng.choice(enabled)`` makes.

    ``Random.choice`` draws ``getrandbits(k)`` for ``k = n.bit_length()``
    until the draw is below ``n``, the number of actions (CPython 3.10 to
    3.13); this pick runs that loop in its own frame.  Enabled tuples are
    never empty.
    """
    getrandbits = rng.getrandbits

    def pick(k: int, enabled: Sequence[GuiAction]) -> GuiAction:
        n = len(enabled)
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        return enabled[r]

    return pick


def _drive(
    model: AppModel,
    phi0: Formula,
    config: LearnerConfig,
    policy: Callable[[random.Random], Pick] | None = None,
) -> GenerationResult:
    config.validate()
    policy_rng, swap_seed, session_seed = _streams(config.seed)
    session = EnvSession(model, seed=session_seed)
    pick = None if policy is None else policy(policy_rng)
    # Only the learner swaps its tables, so only it builds the swap stream.
    swap_rng = random.Random(swap_seed) if pick is None else None
    run = Run(session, phi0, config, pick, policy_rng, swap_rng)
    start = time.monotonic()
    logs: list[EpisodeLog] = []
    total_steps = 0
    test: list[GuiAction] | None = None
    for _ in range(config.episodes):
        log = run_episode(run)
        logs.append(log)
        total_steps += len(log.steps)
        if log.outcome == "satisfied":
            test = [record.action for record in log.steps]
            break
        if pick is None:
            run.temperature, run.epsilon, run.eta = anneal(
                run.temperature, run.epsilon, run.eta, config
            )
    wall_ms = (time.monotonic() - start) * 1000.0
    outcome = "satisfied" if test is not None else "exhausted"
    stats = RunStats(outcome, len(logs), total_steps, wall_ms, config.seed)
    return GenerationResult(test, stats, logs)


def generate(model: AppModel, phi0: Formula, config: LearnerConfig) -> GenerationResult:
    """Learn and return a satisfying test, or exhaust the episode budget."""
    return _drive(model, phi0, config)


def random_policy_generate(model: AppModel, phi0: Formula, config: LearnerConfig) -> GenerationResult:
    """Baseline: uniform action choice, no learning, no screening; the
    formula is still checked by projection after every step."""
    return _drive(model, phi0, config, _uniform)


# The engines the command line offers, by the name of its --engine choice.
ENGINES = {"farlead": generate, "random": random_policy_generate}


def replay(
    model: AppModel,
    test: Sequence[GuiAction] | Sequence[tuple[str, tuple[str, ...]]],
    phi0: Formula,
    seed: int = 0,
) -> EpisodeLog:
    """Execute a fixed action sequence and report per-step rewards and the
    final verdict.  Stops early once the verdict resolves."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    session = EnvSession(model, seed=seed)

    def pick(k: int, enabled: Sequence[GuiAction]) -> GuiAction:
        item = test[k]
        if isinstance(item, GuiAction):
            wanted = (item.action_type, item.params)
        else:
            wanted = (item[0], tuple(item[1]))
        for action in enabled:
            if (action.action_type, action.params) == wanted:
                return action
        description = " ".join((wanted[0],) + wanted[1])
        raise ActionNotEnabled(
            f"step {k}: {description!r} is not enabled in state {session.current.id!r}"
        )

    return run_episode(Run(session, phi0, LearnerConfig(steps=len(test)), pick))

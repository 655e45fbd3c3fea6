"""Properties over small random models and random formulas over their predicates."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ltlgen import (
    And,
    Atom,
    AtomicProposition,
    Decision,
    EnvSession,
    LearnerConfig,
    Next,
    Not,
    QStore,
    TRUE,
    Until,
    Verdict,
    decide_next_action,
    generate,
    learn,
    model_from_dict,
    parse,
    policy_probabilities,
    random_policy_generate,
    replay,
    simplify,
)
from ltlgen.engine import ENGINES, Run, run_episode
from ltlgen.formula import atom_set
from ltlgen.model import action_labeling, state_labeling
from ltlgen.progression import advance, evaluate, expand, restrict, shaped_reward
from conftest import GO_ABOUT_AND_BACK, NEEDLE_A, NEEDLE_B, NEEDLE_C
from helpers import (
    reference_decide_next_action,
    reference_learn,
    reference_policy_probabilities,
    reference_run,
    satisfaction_probability,
    shortest_test,
)

ACTIVITIES = ("MainActivity", "AboutActivity", "SettingsActivity")
TEXTS = ("Go", "About", "Off")
PREDICATES = [
    AtomicProposition("activity", "~", "Main"),
    AtomicProposition("activity", "~", "About"),
    AtomicProposition("activity", "=", "SettingsActivity"),
    AtomicProposition("text", "~", "About"),
    AtomicProposition("objectID", "=", "0:1"),
    AtomicProposition("checked", "=", "true"),
    AtomicProposition("actionType", "=", "click"),
    AtomicProposition("actionType", "=", "back"),
    AtomicProposition("actionDetail", "~", "Go"),
    AtomicProposition("actionObjectID", "=", "0:0"),
]
LEAVES = [TRUE] + [Atom(ap) for ap in PREDICATES]


def formula_trees(*unary):
    return st.recursive(
        st.sampled_from(LEAVES),
        lambda children: st.one_of(
            *(children.map(op) for op in (Not, Next, *unary)),
            st.tuples(children, children).map(lambda pair: And(*pair)),
            st.tuples(children, children).map(lambda pair: Until(*pair)),
        ),
        max_leaves=6,
    ).map(simplify)


formulas = formula_trees()
# With the parser's F and G sugar, liveness such as G F p comes up often.
sugared_formulas = formula_trees(
    lambda phi: Until(TRUE, phi), lambda phi: Not(Until(TRUE, Not(phi)))
)


@st.composite
def models(draw, stochastic: bool = False):
    """A valid model of 1-4 states; with ``stochastic`` some actions fork."""
    ids = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    targets = st.sampled_from(ids)

    def arrows():
        if stochastic and draw(st.booleans()):
            return [{"to": draw(targets), "weight": 0.5}, {"to": draw(targets), "weight": 0.5}]
        return [{"to": draw(targets)}]

    states = []
    for state_id in ids:
        widgets = [
            {
                "objectID": f"0:{w}",
                "text": draw(st.sampled_from(TEXTS)),
                "bounds": [0, 10 * w, 10, 10 * w + 10],
                "checked": draw(st.sampled_from((None, True, False))),
            }
            for w in range(draw(st.integers(0, 2)))
        ]
        actions = [
            {"type": "click", "on": widget["objectID"], "transitions": arrows()}
            for widget in widgets
            if draw(st.booleans())
        ]
        for kind in ("back", "swipe"):
            if not actions or draw(st.booleans()):
                actions.append({"type": kind, "transitions": arrows()})
        states.append({
            "id": state_id,
            "attributes": {"activity": draw(st.sampled_from(ACTIVITIES)), "package": "demo"},
            "widgets": widgets,
            "actions": actions,
        })
    launchable = draw(st.lists(st.sampled_from(ACTIVITIES), min_size=1, max_size=2, unique=True))
    initial = {activity: draw(targets) for activity in launchable}
    return model_from_dict({"screen": [100, 100], "initial": initial, "states": states})


class RecordingSession(EnvSession):
    """Keeps every state an executed action led to."""

    def __init__(self, model, seed: int = 0):
        super().__init__(model, seed)
        self.reached = []

    def execute(self, action):
        state = super().execute(action)
        self.reached.append(state)
        return state


@settings(max_examples=60, deadline=None)
@given(models(stochastic=True), models(stochastic=True), formulas, st.integers(0, 2**32 - 1))
def test_memoized_step_labels_equal_direct_labeling(model_a, model_b, phi, seed):
    # Both models name their states s0, s1, ...: a memo keyed by state id
    # would hand one model's labels to the other's states.
    sessions = [RecordingSession(model_a, seed=seed), RecordingSession(model_b, seed=seed)]
    config = LearnerConfig(steps=5, seed=seed)
    runs = [
        (Run(session, phi, config, lambda k, enabled: enabled[0]), Run(session, phi, config))
        for session in sessions
    ]
    alphabet = atom_set(runs[0][0].phi)
    action_alphabet = frozenset(ap for ap in alphabet if ap.is_action)
    state_alphabet = alphabet - action_alphabet
    logs = ([], [])
    for index in range(8):
        # Alternate the two models, and on each the first enabled action with
        # the learner; every episode reads the same process-wide memo.
        which = index % 2
        logs[which].append(run_episode(runs[which][index // 2 % 2]))
    for session, model_logs in zip(sessions, logs):
        steps = [record for log in model_logs for record in log.steps]
        assert len(steps) == len(session.reached)
        for record, state in zip(steps, session.reached):
            expected = action_labeling(record.action, action_alphabet) | state_labeling(
                state, state_alphabet
            )
            assert record.labels == expected


def assert_steps_equal_direct_progression(phi, logs, reached, shaping):
    """Each record of the episodes ``logs``, run in order from ``phi``, holds
    the labels of the state ``reached`` lists for it and the verdict and
    reward that progression computes afresh."""
    alphabet = atom_set(phi)
    action_alphabet = frozenset(ap for ap in alphabet if ap.is_action)
    state_alphabet = alphabet - action_alphabet
    reached = iter(reached)
    for log in logs:
        before = phi
        for record in log.steps:
            labels = action_labeling(record.action, action_alphabet) | state_labeling(
                next(reached), state_alphabet
            )
            assert record.labels == labels
            verdict = Verdict(simplify(advance(restrict(expand(before), labels))))
            assert record.formula is verdict.formula
            if log.outcome == "dead_end" and record is log.steps[-1]:
                assert record.reward == -1.0  # the dead end's charge
            else:
                assert record.reward == shaped_reward(before, verdict, shaping)
            before = record.formula


@settings(max_examples=60, deadline=None)
@given(
    models(stochastic=True), models(stochastic=True), formulas, st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_edge_table_entries_equal_direct_progression(model_a, model_b, phi, shaping, seed):
    # Each model's episodes share one edge table, as a run's do, on the
    # learner path and the pick path alike.
    sessions = [RecordingSession(model_a, seed=seed), RecordingSession(model_b, seed=seed)]
    config = LearnerConfig(steps=5, seed=seed, shaping=shaping)
    runs = []
    for session in sessions:
        picked = Run(session, phi, config, lambda k, enabled: enabled[0])
        learner = Run(session, phi, config)
        picked.edges = learner.edges
        runs.append((picked, learner))
    logs = ([], [])
    for index in range(8):
        which = index % 2
        logs[which].append(run_episode(runs[which][index // 2 % 2]))
    for session, model_logs, (picked, _) in zip(sessions, logs, runs):
        assert_steps_equal_direct_progression(picked.phi, model_logs, session.reached, shaping)


# A coin: from start, one click reaches heads or tails at even odds; a swipe
# stays on start, and back returns to it.
COIN = model_from_dict({
    "screen": [100, 100],
    "initial": {"StartActivity": "start"},
    "states": [
        {
            "id": "start",
            "attributes": {"activity": "StartActivity", "package": "demo.coin"},
            "widgets": [{"objectID": "0:0", "text": "Flip", "bounds": [10, 10, 50, 50]}],
            "actions": [
                {"type": "click", "on": "0:0",
                 "transitions": [{"to": "heads", "weight": 0.5}, {"to": "tails", "weight": 0.5}]},
                {"type": "swipe", "transitions": [{"to": "start"}]},
            ],
        },
        *(
            {
                "id": side,
                "attributes": {"activity": f"{side.title()}Activity", "package": "demo.coin"},
                "widgets": [],
                "actions": [{"type": "back", "transitions": [{"to": "start"}]}],
            }
            for side in ("heads", "tails")
        ),
    ],
})


def play(pick_type, phi, seed, episodes):
    """Episodes of one run on ``COIN``, sharing an edge table: step 0
    launches, and every later step takes the action of type ``pick_type``
    while start enables it, else back."""

    def pick(k, enabled):
        by_type = {action.action_type: action for action in enabled}
        return by_type.get(pick_type, by_type.get("back", enabled[0]))

    session = RecordingSession(COIN, seed=seed)
    run = Run(session, phi, LearnerConfig(steps=4, seed=seed), pick)
    logs = [run_episode(run) for _ in range(episodes)]
    assert_steps_equal_direct_progression(run.phi, logs, session.reached, run.config.shaping)
    return session


@pytest.mark.parametrize("seed", range(5))
def test_an_edge_is_keyed_by_the_state_it_reached(seed):
    # The click is taken under the one obligation [activity~Heads] and lands
    # on both sides within the run: a table keyed by (obligation, action)
    # would hand one side's labels and verdict to the other.
    session = play("click", parse("X [activity~Heads]"), seed, episodes=30)
    assert {"heads", "tails"} <= {state.id for state in session.reached}


@pytest.mark.parametrize("seed", range(5))
def test_an_edge_is_keyed_by_the_obligation_it_was_met_under(seed):
    # Every episode swipes from start back to start under X X [activity~Heads],
    # then X [activity~Heads], then [activity~Heads], which it falsifies: a
    # table keyed by (action, state) would serve the first obligation's
    # verdict for the later ones.
    session = play("swipe", parse("X X X [activity~Heads]"), seed, episodes=3)
    assert [state.id for state in session.reached[:4]] == ["start"] * 4


@settings(max_examples=60, deadline=None)
@given(models(stochastic=True), formulas, st.integers(0, 2**32 - 1))
def test_episode_verdicts_agree_with_evaluate(model, phi, seed):
    rng = random.Random(seed)

    def uniform(k, enabled):
        return enabled[rng.randrange(len(enabled))]

    run = Run(EnvSession(model, seed=seed), phi, LearnerConfig(steps=6, seed=seed), uniform)
    for _ in range(4):
        log = run_episode(run)
        trace = [record.labels for record in log.steps]
        if log.outcome == "satisfied":
            assert evaluate(trace, 0, phi)
        elif log.outcome == "falsified":
            assert not evaluate(trace, 0, phi)
        else:
            # Past the trace no predicate holds, in the obligation's
            # semantics as in the formula's.
            assert log.outcome == "exhausted"
            assert evaluate((), 0, log.steps[-1].formula) == evaluate(trace, 0, phi)


def subformulas(phi) -> set:
    names = ("operand", "left", "right")
    children = [*getattr(phi, "conjuncts", ()), *(getattr(phi, n) for n in names if hasattr(phi, n))]
    return {phi}.union(*map(subformulas, children))


@settings(max_examples=60, deadline=None)
@given(models(stochastic=True), sugared_formulas, st.integers(0, 2**32 - 1))
def test_obligations_stay_bounded_over_long_episodes(model, phi, seed):
    # Every obligation is a negation-and-conjunction combination of the
    # formula's subformulas, kept in simplify's normal form.  The bound is
    # the square of their number: in 2 x 10^5 random 300-step runs with up
    # to six predicates, no obligation grew past 0.6 of it.  Episodes get
    # more steps than the bound, so an obligation that gains a predicate per
    # step fails.
    bound = len(subformulas(phi)) ** 2
    rng = random.Random(seed)
    config = LearnerConfig(steps=max(300, bound + 1), seed=seed)
    log = run_episode(
        Run(
            EnvSession(model, seed=seed), phi, config,
            lambda k, enabled: enabled[rng.randrange(len(enabled))],
        )
    )
    assert max(record.formula.atom_count for record in log.steps) < bound


@settings(max_examples=60, deadline=None)
@given(models(), formulas, st.integers(0, 2**32 - 1), st.sampled_from(sorted(ENGINES)))
def test_generated_tests_replay_and_satisfy_the_formula(model, phi, seed, engine):
    result = ENGINES[engine](model, phi, LearnerConfig(episodes=30, steps=5, seed=seed))
    if result.test is None:
        return
    log = replay(model, result.test, phi, seed=seed)
    assert log.satisfied
    assert [record.action for record in log.steps] == result.test
    assert evaluate([record.labels for record in log.steps], 0, phi)


@settings(max_examples=60, deadline=None)
@given(models(stochastic=True), formulas, st.integers(0, 2**32 - 1), st.sampled_from(sorted(ENGINES)))
def test_no_engine_finds_a_test_shorter_than_the_shortest(model, phi, seed, engine):
    config = LearnerConfig(episodes=30, steps=5, seed=seed)
    result = ENGINES[engine](model, phi, config)
    shortest = shortest_test(model, phi, config.steps)
    if shortest is None:
        assert result.test is None
    elif result.test is not None:
        assert shortest <= len(result.test) <= config.steps


@pytest.mark.parametrize("model_name, formula, shortest", [
    ("needle", NEEDLE_A, 4),
    ("needle", NEEDLE_B, 4),
    ("needle", NEEDLE_C, 4),
    ("chesswalk", GO_ABOUT_AND_BACK, 3),
])
def test_shortest_tests_of_the_benchmark_formulas(model_name, formula, shortest, request):
    model = request.getfixturevalue(model_name)
    steps = LearnerConfig().steps
    assert shortest_test(model, parse(formula), steps) == shortest
    # One step fewer leaves no test at all.
    assert shortest_test(model, parse(formula), shortest - 1) is None


@pytest.mark.parametrize("model_name, formula, probability", [
    ("needle", NEEDLE_A, Fraction(1, 512)),
    ("needle", NEEDLE_B, Fraction(1, 512)),
    ("needle", NEEDLE_C, Fraction(1, 512)),
    ("chesswalk", GO_ABOUT_AND_BACK, Fraction(23, 225)),
])
def test_success_probabilities_of_the_benchmark_formulas(model_name, formula, probability, request):
    model = request.getfixturevalue(model_name)
    assert satisfaction_probability(model, parse(formula), LearnerConfig().steps) == probability


def test_random_baseline_succeeds_as_often_as_its_probability(needle):
    # 400 seeds of 100 episodes: a run succeeds with P = 1 - (1 - p)^100, and
    # the count of successes must lie within 4 binomial standard deviations
    # of 400 P (41 to 101 runs).
    phi = parse(NEEDLE_B)
    runs, episodes = 400, 100
    p = satisfaction_probability(needle, phi, LearnerConfig().steps)
    success = float(1 - (1 - p) ** episodes)
    assert round(success, 5) == 0.17758
    satisfied = sum(
        random_policy_generate(needle, phi, LearnerConfig(seed=seed, episodes=episodes)).satisfied
        for seed in range(runs)
    )
    assert abs(satisfied - runs * success) <= 4 * math.sqrt(runs * success * (1 - success))


SIGNATURES = [("back", (), ""), ("swipe", (), ""), ("click", ("5", "5"), "0:0")]
tails = st.lists(
    st.tuples(st.sampled_from(SIGNATURES), st.sampled_from(("s0", "s1"))), max_size=2
).map(tuple)
learn_steps = st.tuples(
    st.tuples(tails, st.sampled_from(SIGNATURES)),
    st.floats(-2.0, 2.0),
    st.floats(0.01, 1.0),
    st.integers(0, 2**32 - 1),
    st.none() | st.frozensets(st.sampled_from(PREDICATES[6:]), max_size=2).map(frozenset),
)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.05, 5.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.001, 1.0),
    st.lists(learn_steps, min_size=1, max_size=40),
)
def test_learn_equals_the_reference_update(vigilance, doubleness, elig_decay, elig_min, steps):
    config = LearnerConfig(
        vigilance=vigilance, doubleness=doubleness, elig_decay=elig_decay, elig_min=elig_min
    )
    store, reference = QStore(), QStore()
    for (tail, action), reward, eta, seed, action_labels in steps:
        delta = learn(
            store, Decision(tail, action), reward, config, eta, random.Random(seed), action_labels
        )
        expected = reference_learn(
            reference, (tail, action), reward, config, eta, random.Random(seed), action_labels
        )
        assert delta == expected
    for name in ("q1", "q2", "elig", "action_labels"):
        table = [((d.tail, d.action), value) for d, value in getattr(store, name).items()]
        assert table == list(getattr(reference, name).items())
    for name in ("qa1", "qa2"):
        assert list(getattr(store, name).items()) == list(getattr(reference, name).items())
    assert store.seen_tails == reference.seen_tails


DECISIONS = [
    Decision(tail, action) for tail in ((), ((SIGNATURES[0], "s0"),)) for action in SIGNATURES
]


@st.composite
def policy_inputs(draw):
    """A store with Q-values of every kind a run reaches, including 0 and
    the vigilance bounds exactly, and 1-6 candidates, repeats allowed."""
    bound = draw(st.floats(0.05, 5.0))
    values = st.sampled_from((0.0, bound, -bound)) | st.floats(-bound, bound)
    store = QStore()
    for table in (store.q1, store.q2):
        for decision in draw(st.lists(st.sampled_from(DECISIONS), unique=True)):
            table[decision] = draw(values)
    candidates = draw(st.lists(st.sampled_from(DECISIONS), min_size=1, max_size=6))
    return store, candidates


@settings(max_examples=300, deadline=None)
@given(policy_inputs(), st.floats(0.01, 10.0), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_policy_equals_the_reference_policy(inputs, temperature, epsilon, seed):
    store, candidates = inputs
    forms = [candidates]
    if len(set(candidates)) == len(candidates):
        # A run passes the keys of its candidate map, which hold distinct decisions.
        forms.append(dict.fromkeys(candidates).keys())
    for collection in forms:
        assert policy_probabilities(store, collection, temperature, epsilon) == (
            reference_policy_probabilities(store, candidates, temperature, epsilon)
        )
        rng, reference_rng = random.Random(seed), random.Random(seed)
        chosen = decide_next_action(store, collection, temperature, epsilon, rng)
        expected = reference_decide_next_action(
            store, candidates, temperature, epsilon, reference_rng
        )
        assert chosen is expected
        # One draw per call, also for a lone candidate.
        assert rng.getstate() == reference_rng.getstate()


@st.composite
def short_schedules(draw):
    """A learner config of a few short episodes whose temperature, epsilon
    and eta reach their floors within the first four."""
    eps0 = draw(st.floats(0.6, 1.0))
    return LearnerConfig(
        episodes=draw(st.integers(1, 16)),
        steps=draw(st.integers(1, 6)),
        t0=1.0,
        t_delta=0.3,
        t_min=draw(st.floats(0.02, 0.2)),
        eps0=eps0,
        eps_update=0.25,
        eps_min=eps0 * draw(st.floats(0.15, 0.45)),
        eta_update=0.25,
        eta_min=draw(st.floats(0.1, 0.5)),
        tail_length=draw(st.integers(0, 3)),
        shaping=draw(st.booleans()),
        predict=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(models(stochastic=True), sugared_formulas, short_schedules(), st.booleans())
# Runs that tell apart, on every seed, an edge table keyed without the
# state reached, values of new tails left unseeded, and an epsilon floor
# other than eps_min.
@example(COIN, parse("F [activity~Heads]"), LearnerConfig(episodes=3, steps=4, seed=1), False)
@example(
    COIN, parse("X X [activity~Heads]"), LearnerConfig(episodes=6, tail_length=1, seed=0), False
)
@example(
    COIN,
    parse("X [activity~Tails]"),
    LearnerConfig(
        episodes=8, steps=2, t0=1.0, t_delta=0.3, t_min=0.05, eps0=1.0, eps_update=0.25,
        eps_min=0.25, eta_update=0.25, eta_min=0.5, seed=0,
    ),
    False,
)
# A baseline run that tells apart from ``Random.choice`` a pick that draws
# too few bits or redraws at most once.
@example(COIN, parse("F [activity~Heads]"), LearnerConfig(episodes=4, steps=4, seed=0), True)
def test_runs_equal_the_reference_run(model, phi, config, uniform):
    # A cache or table keyed by less than its entry depends on serves a
    # stale entry somewhere in a run; the reference keeps neither.
    stores = []

    def recording_store():
        stores.append(QStore())
        return stores[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ltlgen.engine.QStore", recording_store)
        result = (random_policy_generate if uniform else generate)(model, phi, config)
    episodes, reference = reference_run(model, phi, config, uniform)

    def plain(records):
        return [(*record[:3], repr(record[3])) for record in records]

    assert [(plain(log.steps), log.outcome) for log in result.episodes] == [
        (plain(records), outcome) for records, outcome in episodes
    ]
    (store,) = stores
    for name in ("q1", "q2"):
        assert [((d.tail, d.action), repr(v)) for d, v in getattr(store, name).items()] == [
            (d, repr(v)) for d, v in getattr(reference, name).items()
        ]
    for name in ("qa1", "qa2"):
        assert [(labels, repr(v)) for labels, v in getattr(store, name).items()] == [
            (labels, repr(v)) for labels, v in getattr(reference, name).items()
        ]

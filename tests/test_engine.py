import copy
import dataclasses
import inspect
import itertools
import math
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from ltlgen import (
    Atom,
    AtomicProposition,
    Decision,
    EnvSession,
    GuiAction,
    LearnerConfig,
    Next,
    QStore,
    TRUE,
    anneal,
    decide_next_action,
    generate,
    learn,
    model_from_dict,
    parse,
    policy_probabilities,
    prune_and_predict,
    random_policy_generate,
    replay,
    simplify,
)
from ltlgen import engine
from ltlgen.engine import (
    CONTINUE,
    DEAD_END,
    SATISFIED,
    EpisodeLog,
    Prediction,
    Run,
    StepRecord,
    run_episode,
)
from ltlgen.formula import atom_set
from conftest import GO_ABOUT_AND_BACK, NEEDLE_A, NEEDLE_B, NEEDLE_C
from helpers import FixedRoll, lab

BACK = GuiAction("back")
CLICK = GuiAction("click", ("10", "10"), "0:0", "Go")
PAUSE = GuiAction("pauseresume")

TYPE_PAUSE = AtomicProposition("actionType", "=", "pauseresume")
ACTIVITY_MAIN = AtomicProposition("activity", "~", "Main")


def decision_for(action: GuiAction) -> Decision:
    return Decision((), action.signature)


# --- configuration ---

def test_default_config_is_valid():
    LearnerConfig().validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("episodes", -1),
        ("steps", 0),
        ("t0", 0.0),
        ("t_min", -0.1),
        ("eps0", 1.5),
        ("eps_update", 0.0),
        ("eta_update", 1.5),
        ("elig_decay", 1.2),
        ("doubleness", -0.5),
        ("vigilance", 0.0),
        ("elig_min", 0.0),
        ("tail_length", -1),
        # random.Random seeds with the absolute value, so -1 would repeat 1.
        ("seed", -1),
        ("t0", math.nan),
        ("eps_update", math.inf),
        ("vigilance", -math.inf),
        # Finite knobs whose policy scores would overflow to inf.
        ("vigilance", 1e308),
        ("t_min", 5e-324),
        # A floor above its start.
        ("t_min", 6.0),
        ("eps_min", 0.5),
        ("eta_min", 2.0),
    ],
)
def test_config_validation_rejects(field, value):
    config = dataclasses.replace(LearnerConfig(), **{field: value})
    with pytest.raises(ValueError, match=field.split("_")[0]):
        config.validate()


# --- policy ---

def test_policy_is_uniform_at_full_epsilon():
    store = QStore()
    store.q1[decision_for(BACK)] = 0.9
    candidates = [decision_for(BACK), decision_for(CLICK), decision_for(PAUSE)]
    probs = policy_probabilities(store, candidates, temperature=1.0, epsilon=1.0)
    assert all(abs(p - 1 / 3) <= 1e-12 for p in probs)


def test_policy_matches_hand_computed_softmax():
    store = QStore()
    store.q1[decision_for(BACK)] = 1.5
    store.q2[decision_for(BACK)] = 0.5  # summed Q of 2 against 0
    candidates = [decision_for(BACK), decision_for(CLICK)]
    probs = policy_probabilities(store, candidates, temperature=1.0, epsilon=0.0)
    expected_hot = math.exp(1.0) / (math.exp(1.0) + math.exp(0.0))
    assert abs(probs[0] - expected_hot) <= 1e-12
    assert abs(probs[0] - 0.731) <= 1e-3
    assert abs(probs[1] - 0.269) <= 1e-3


def test_single_candidate_is_certain():
    store = QStore()
    probs = policy_probabilities(store, [decision_for(BACK)], temperature=5.0, epsilon=0.3)
    assert probs == [1.0]
    chosen = decide_next_action(store, [decision_for(BACK)], 5.0, 0.3, random.Random(0))
    assert chosen == decision_for(BACK)


def test_decide_requires_candidates():
    with pytest.raises(ValueError):
        decide_next_action(QStore(), [], 1.0, 0.1, random.Random(0))


def test_decide_is_seed_deterministic():
    store = QStore()
    candidates = [decision_for(BACK), decision_for(CLICK), decision_for(PAUSE)]
    first = [decide_next_action(store, candidates, 1.0, 0.2, random.Random(42)) for _ in range(5)]
    second = [decide_next_action(store, candidates, 1.0, 0.2, random.Random(42)) for _ in range(5)]
    assert first == second


def test_a_roll_on_a_partial_sum_picks_the_next_candidate():
    # A candidate takes the rolls below its partial sum, not the sum itself.
    store = QStore()
    candidates = [decision_for(BACK), decision_for(CLICK)]
    assert policy_probabilities(store, candidates, 1.0, 0.2) == [0.5, 0.5]
    assert decide_next_action(store, candidates, 1.0, 0.2, FixedRoll(0.5)) is candidates[1]


def test_a_roll_above_the_rounded_sum_picks_the_last_candidate():
    # Ten 0.1s add up to 1 - 2**-53, the largest roll random() returns, so
    # that roll passes every partial sum and the last candidate takes it.
    store = QStore()
    candidates = [decision_for(GuiAction("click", (str(i), str(i)))) for i in range(10)]
    probabilities = policy_probabilities(store, candidates, 1.0, 1.0)
    assert probabilities == [0.1] * 10
    roll = 1.0 - 2.0**-53
    assert list(itertools.accumulate(probabilities))[-1] == roll
    assert decide_next_action(store, candidates, 1.0, 1.0, FixedRoll(roll)) is candidates[-1]


def _walk(candidates, probabilities, roll):
    """The first candidate whose running sum of ``probabilities`` exceeds
    ``roll``, else the last: the pick the published distribution makes."""
    for decision, acc in zip(candidates, itertools.accumulate(probabilities)):
        if roll < acc:
            return decision
    return candidates[-1]


def test_the_pick_walks_the_published_distribution():
    # Seeded stores with Q-values of every kind a run reaches: unset, 0, the
    # vigilance bounds and values between; scores low enough that a softmax
    # weight underflows to 0 are among them.
    pool = [Decision((), GuiAction("click", (str(i), str(i))).signature) for i in range(12)]
    for case in range(300):
        gen = random.Random(case)
        bound = gen.choice((0.05, 1.0, 5.0))
        store = QStore()
        for table in (store.q1, store.q2):
            for decision in gen.sample(pool, gen.randint(0, len(pool))):
                table[decision] = gen.choice((0.0, bound, -bound, gen.uniform(-bound, bound)))
        candidates = gen.sample(pool, gen.randint(2, 11))
        temperature = gen.choice((0.01, 10.0, gen.uniform(0.01, 10.0)))
        epsilon = gen.choice((0.0, 1.0, gen.random()))
        probabilities = policy_probabilities(store, candidates, temperature, epsilon)
        seed = gen.getrandbits(32)
        stream = random.Random(seed)
        expected = _walk(candidates, probabilities, stream.random())
        for collection in (candidates, dict.fromkeys(candidates).keys()):
            rng = random.Random(seed)
            assert decide_next_action(store, collection, temperature, epsilon, rng) is expected
            # Exactly one draw.
            assert rng.getstate() == stream.getstate()
        # A roll on a partial sum goes to a later candidate: the next one
        # with a larger sum, or the last if none has one.
        for roll in itertools.accumulate(probabilities):
            chosen = decide_next_action(store, candidates, temperature, epsilon, FixedRoll(roll))
            assert chosen is _walk(candidates, probabilities, roll)


# --- step records and screening results ---

def test_record_types_keep_their_fields_and_defaults():
    # No record stores its position: a step's is its place in its episode's
    # list, and an episode's its place in the run's.
    assert StepRecord._fields == ("action", "labels", "formula", "reward")
    assert StepRecord._field_defaults == {}
    assert EpisodeLog._fields == ("steps", "outcome")
    assert EpisodeLog._field_defaults == {}
    assert list(inspect.signature(run_episode).parameters) == ["run"]
    assert Prediction._fields == ("kind", "action", "survivors")
    assert Prediction._field_defaults == {"action": None, "survivors": ()}
    prediction = Prediction(DEAD_END)
    assert (prediction.kind, prediction.action, prediction.survivors) == (DEAD_END, None, ())


def test_record_types_are_immutable():
    record = StepRecord(CLICK, lab(ACTIVITY_MAIN), TRUE, 1.0)
    with pytest.raises(AttributeError):
        record.reward = -1.0
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        Prediction(SATISFIED, action=CLICK).survivors = ()
    log = EpisodeLog([record], "satisfied")
    with pytest.raises(AttributeError):
        log.outcome = "falsified"
    with pytest.raises(AttributeError):
        log.extra = 1
    assert record.reward == 1.0 and log.outcome == "satisfied" and log.satisfied


def test_step_record_repr_is_unchanged():
    record = StepRecord(CLICK, lab(ACTIVITY_MAIN), Next(Atom(ACTIVITY_MAIN)), 0.5)
    # The text the frozen dataclass printed for these fields.
    assert repr(record) == (
        "StepRecord(action=GuiAction(action_type='click', params=('10', '10'), "
        "target='0:0', detail='Go'), labels=frozenset({AtomicProposition(key='activity', "
        "op='~', value='Main')}), formula=Next(operand=Atom(ap=AtomicProposition("
        "key='activity', op='~', value='Main'))), reward=0.5)"
    )


def test_step_record_equals_the_tuple_of_its_values():
    values = (BACK, lab(ACTIVITY_MAIN), TRUE, 0.25)
    record = StepRecord(*values)
    assert record == values and hash(record) == hash(values)
    charged = record._replace(reward=-1.0)
    assert charged == values[:3] + (-1.0,)
    assert record.reward == 0.25
    steps = [record]
    log = EpisodeLog(steps, "dead_end")
    assert log == (steps, "dead_end") and log.steps is steps and not log.satisfied


# --- decisions ---

def test_equal_decisions_are_one_object():
    tail = ((BACK.signature, "main"),)
    rebuilt = ((GuiAction("back").signature, "main"),)
    assert rebuilt is not tail
    assert Decision(tail, CLICK.signature) is Decision(rebuilt, ("click", ("10", "10"), "0:0"))
    assert Decision((), BACK.signature) is not Decision((), PAUSE.signature)
    assert Decision((), BACK.signature) != Decision(tail, BACK.signature)


def test_decision_copies_and_pickles_are_canonical():
    decision = Decision(((BACK.signature, "main"),), CLICK.signature)
    assert copy.copy(decision) is decision
    assert copy.deepcopy(decision) is decision
    assert pickle.loads(pickle.dumps(decision)) is decision


def test_decision_is_immutable():
    decision = Decision((), BACK.signature)
    with pytest.raises(AttributeError):
        decision.tail = ((BACK.signature, "main"),)
    with pytest.raises(AttributeError):
        decision.extra = 1
    with pytest.raises(AttributeError):
        del decision.action
    assert decision.tail == () and decision.action == BACK.signature


def test_decision_repr_names_the_fields():
    assert repr(Decision(((BACK.signature, "main"),), PAUSE.signature)) == (
        "Decision(tail=((('back', (), ''), 'main'),), action=('pauseresume', (), ''))"
    )


def test_threads_building_the_same_decisions_share_them():
    # Fresh state ids, so every decision below is built for the first time
    # and the threads race to intern it.  Each thread builds its own tails.
    signatures = [BACK.signature, CLICK.signature, PAUSE.signature]
    results: list[list] = []
    start = threading.Barrier(4, timeout=60)

    def build() -> None:
        start.wait()
        results.append([
            Decision(((signatures[i % 3], f"race{i}"),), signatures[i // 3 % 3])
            for i in range(6000)
        ])

    threads = [threading.Thread(target=build) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4
    for decisions in results[1:]:
        assert all(decision is first for decision, first in zip(decisions, results[0]))


# --- learning ---

def test_learn_full_step_reaches_the_reward():
    store = QStore()
    config = dataclasses.replace(LearnerConfig(), vigilance=10.0, doubleness=0.5)
    d = decision_for(BACK)
    delta = learn(store, d, 1.0, config, eta=1.0, rng=FixedRoll(0.9), action_labels=frozenset())
    assert delta == 1.0
    assert store.q1[d] == 1.0


def test_learn_clamps_at_vigilance():
    store = QStore()
    config = dataclasses.replace(LearnerConfig(), vigilance=0.5)
    d = decision_for(BACK)
    learn(store, d, 1.0, config, eta=1.0, rng=FixedRoll(0.9), action_labels=frozenset())
    assert store.q1[d] == 0.5


def test_zero_doubleness_keeps_tables_equal():
    store = QStore()
    config = dataclasses.replace(LearnerConfig(), doubleness=0.0, vigilance=10.0)
    d = decision_for(BACK)
    rng = random.Random(3)
    for reward in (0.4, -0.2, 1.0):
        learn(store, d, reward, config, eta=0.5, rng=rng, action_labels=frozenset())
        assert store.q1[d] == store.q2[d]


def test_new_tail_bootstraps_from_stateless_table():
    store = QStore()
    labels = lab(TYPE_PAUSE)
    store.qa1[labels] = 0.7
    config = dataclasses.replace(LearnerConfig(), vigilance=10.0)
    d = decision_for(PAUSE)
    delta = learn(store, d, 1.0, config, eta=1.0, rng=FixedRoll(0.9), action_labels=labels)
    assert abs(delta - 0.3) <= 1e-12  # surprise measured against the seeded value


def test_seen_tail_skips_bootstrap():
    store = QStore()
    labels = lab(TYPE_PAUSE)
    config = dataclasses.replace(LearnerConfig(), vigilance=10.0)
    learn(store, decision_for(BACK), 0.5, config, eta=1.0, rng=FixedRoll(0.9), action_labels=frozenset())
    store.qa1[labels] = 0.7
    # same (empty) tail, different action: no reseeding happens
    delta = learn(store, decision_for(PAUSE), 1.0, config, eta=1.0, rng=FixedRoll(0.9), action_labels=labels)
    assert delta == 1.0


def test_eligibility_decays_and_drops():
    store = QStore()
    config = dataclasses.replace(LearnerConfig(), elig_decay=0.5, elig_min=0.2, vigilance=10.0)
    first, second = decision_for(BACK), decision_for(PAUSE)
    learn(store, first, 0.1, config, eta=1.0, rng=FixedRoll(0.9), action_labels=frozenset())
    assert store.elig[first] == 0.5
    learn(store, second, 0.1, config, eta=1.0, rng=FixedRoll(0.9), action_labels=frozenset())
    assert store.elig[first] == 0.25
    learn(store, second, 0.1, config, eta=1.0, rng=FixedRoll(0.9), action_labels=frozenset())
    assert first not in store.elig  # 0.125 fell below the threshold
    assert store.elig[second] == 0.75  # (0.5 + 1) * 0.5


def test_a_trace_decayed_onto_the_floor_stays_eligible():
    # The floor is inclusive: with elig_decay = elig_min = 1, a valid config,
    # no trace ever decays below it, so every decision stays eligible.
    store = QStore()
    config = dataclasses.replace(LearnerConfig(), elig_decay=1.0, elig_min=1.0)
    config.validate()
    first, second = decision_for(BACK), decision_for(PAUSE)
    learn(store, first, 0.1, config, eta=1.0, rng=FixedRoll(0.9), action_labels=frozenset())
    assert store.elig == {first: 1.0}
    learn(store, second, 0.1, config, eta=1.0, rng=FixedRoll(0.9), action_labels=frozenset())
    assert store.elig == {first: 1.0, second: 1.0}


def test_swap_exchanges_both_table_pairs():
    store = QStore()
    config = dataclasses.replace(LearnerConfig(), doubleness=1.0, vigilance=10.0)
    d = decision_for(BACK)
    learn(store, d, 1.0, config, eta=1.0, rng=FixedRoll(0.1), action_labels=frozenset())
    # with doubleness=1 the q2 side stays 0; the swap moved the learned value there
    assert store.q2[d] == 1.0
    assert store.q1[d] == 0.0


def test_a_swap_roll_of_one_half_keeps_both_table_pairs():
    # The tables swap on rolls below 0.5, so a roll of exactly 0.5 keeps them.
    store = QStore()
    config = dataclasses.replace(LearnerConfig(), doubleness=1.0, vigilance=10.0)
    d = decision_for(BACK)
    learn(store, d, 1.0, config, eta=1.0, rng=FixedRoll(0.5), action_labels=frozenset())
    assert (store.q1[d], store.q2[d]) == (1.0, 0.0)
    assert (store.qa1[frozenset()], store.qa2[frozenset()]) == (1.0, 0.0)


def test_a_dead_end_charge_updates_the_stored_labeling():
    # A dead-end charge passes no labels: it learns under the labeling the
    # decision's first update stored, and the empty labeling stays unknown.
    store = QStore()
    config = dataclasses.replace(LearnerConfig(), vigilance=10.0, doubleness=0.5)
    labels = lab(TYPE_PAUSE)
    d = decision_for(PAUSE)
    learn(store, d, 0.5, config, eta=1.0, rng=FixedRoll(0.9), action_labels=labels)
    assert (store.qa1[labels], store.qa2[labels]) == (0.5, 0.25)
    delta = learn(store, d, -1.0, config, eta=1.0, rng=FixedRoll(0.9))
    assert delta == -1.5
    assert store.action_labels == {d: labels}
    value = 0.5 + -1.5 * (0.9 + 1.0)
    assert (store.qa1[labels], store.qa2[labels]) == (value, 0.5 * value + 0.5 * 0.25)
    assert frozenset() not in store.qa1 and frozenset() not in store.qa2


LEARN_DECISIONS = [
    Decision(tail, action.signature)
    for tail in ((), ((BACK.signature, "s0"),), ((CLICK.signature, "s1"),))
    for action in (BACK, CLICK, PAUSE)
]
learn_calls = st.tuples(
    st.sampled_from(LEARN_DECISIONS),
    st.floats(-2.0, 2.0),
    st.none() | st.frozensets(st.sampled_from((TYPE_PAUSE, ACTIVITY_MAIN)), max_size=2),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(learn_calls, min_size=1, max_size=30))
def test_every_labeled_decision_has_its_table_entries(calls):
    # learn's sweep reads these entries by subscript; a new episode clears the trace.
    store = QStore()
    config = dataclasses.replace(LearnerConfig(), elig_decay=0.5, elig_min=0.2)
    for decision, reward, action_labels, seed, new_episode in calls:
        if new_episode:
            store.elig.clear()
        learn(store, decision, reward, config, 0.5, random.Random(seed), action_labels)
        for labeled, labeling in store.action_labels.items():
            assert labeled in store.q1 and labeled in store.q2
            assert labeling in store.qa1 and labeling in store.qa2
            assert labeled.tail in store.seen_tails
        assert store.elig.keys() <= store.action_labels.keys()


# --- pruning / prediction ---

def test_prune_keeps_only_type_compatible_actions():
    phi = parse("[actionType=pauseresume] & [activity~Main]")
    enabled = [CLICK, BACK, PAUSE]
    result = prune_and_predict(phi, (), enabled, frozenset((TYPE_PAUSE,)))
    assert result.kind == CONTINUE
    assert [a.action_type for _, a in result.survivors] == ["pauseresume"]


def test_prune_without_action_atoms_keeps_everything():
    phi = parse("[activity~Main]")
    enabled = [CLICK, BACK, PAUSE]
    result = prune_and_predict(phi, (), enabled, frozenset())
    assert result.kind == CONTINUE
    assert len(result.survivors) == 3


def test_prune_detects_dead_end():
    phi = parse("[actionType=click] & [activity~Main]")
    result = prune_and_predict(phi, (), [BACK, PAUSE], frozenset((AtomicProposition("actionType", "=", "click"),)))
    assert result.kind == DEAD_END


def test_prune_detects_satisfaction_from_labels_alone():
    phi = parse("[actionType=back]")
    result = prune_and_predict(
        phi, (), [CLICK, BACK], frozenset((AtomicProposition("actionType", "=", "back"),))
    )
    assert result.kind == SATISFIED
    assert result.action == BACK


# --- candidate table ---

TAIL = ((BACK.signature, "main"),)
# No action predicate, so screening keeps every action.
MAIN = parse("[activity~Main]")


def candidates(tail, actions):
    """The learner's candidates among actions at a tail, screened and unscreened."""
    screened = prune_and_predict(MAIN, tail, actions, frozenset())
    unscreened = engine._predict(MAIN, tail, tuple(actions), frozenset(), False)
    return screened.survivors, unscreened.survivors


def test_candidates_pair_each_action_with_its_decision():
    actions = (CLICK, BACK, PAUSE)
    expected = [(Decision(TAIL, a.signature), a) for a in actions]
    for pairs in candidates(TAIL, actions):
        by_decision = pairs.mapping
        decisions = tuple(by_decision)
        assert len(pairs) == len(expected)
        for (decision, action), (want_decision, want_action) in zip(pairs, expected):
            assert decision is want_decision and action is want_action
        assert decisions == tuple(d for d, _ in expected)
        assert by_decision == dict(expected)
        # Every caller shares the cached map, so it is read-only.
        with pytest.raises(TypeError):
            by_decision[decisions[0]] = BACK


def test_candidates_are_computed_once_per_key():
    actions = (PAUSE, CLICK)
    engine._predict.cache_clear()
    first = engine._predict(MAIN, TAIL, actions, frozenset(), False)
    again = engine._predict(MAIN, TAIL, actions, frozenset(), False)
    assert again is first
    assert all(
        decision is first_decision and action is first_action
        for (decision, action), (first_decision, first_action) in zip(
            again.survivors, first.survivors
        )
    )
    info = engine._predict.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # Screening is part of the key: the screened prediction is a key of its own.
    screened = prune_and_predict(MAIN, TAIL, actions, frozenset())
    assert screened is not first
    assert screened.survivors.mapping == first.survivors.mapping
    info = engine._predict.cache_info()
    assert (info.misses, info.hits) == (2, 1)


def test_candidates_key_a_list_and_a_tuple_alike():
    engine._predict.cache_clear()
    from_list = prune_and_predict(MAIN, TAIL, [CLICK, BACK], frozenset())
    from_tuple = prune_and_predict(MAIN, TAIL, (CLICK, BACK), frozenset())
    assert from_tuple is from_list
    info = engine._predict.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_a_repeated_screening_returns_the_cached_prediction():
    phi = parse("[activity~Main]")
    alphabet = atom_set(phi)
    enabled = [CLICK, BACK, PAUSE]
    first = prune_and_predict(phi, TAIL, enabled, alphabet)
    assert prune_and_predict(phi, TAIL, enabled, alphabet) is first
    other_tail = ((CLICK.signature, "settings"),)
    other = prune_and_predict(phi, other_tail, enabled, alphabet)
    assert other is not first
    assert (other.kind, other.action) == (first.kind, first.action) == (CONTINUE, None)
    assert [a for _, a in other.survivors] == [a for _, a in first.survivors] == enabled
    assert all(d.tail == TAIL for d, _ in first.survivors)
    assert all(d.tail == other_tail for d, _ in other.survivors)


def test_actions_of_one_signature_make_one_decision_for_the_later_action():
    twin = GuiAction(CLICK.action_type, CLICK.params, CLICK.target, "Stop")
    assert twin is not CLICK and twin.signature == CLICK.signature
    enabled = (CLICK, BACK, twin)
    for pairs in candidates(TAIL, enabled):
        by_decision = pairs.mapping
        decisions = tuple(by_decision)
        # One entry per decision, so the twin's signature counts once.
        assert len(pairs) == 2
        # As dict() keeps them: one decision per signature, mapped to its last action.
        assert by_decision == dict((Decision(TAIL, a.signature), a) for a in enabled)
        assert decisions == (Decision(TAIL, CLICK.signature), Decision(TAIL, BACK.signature))
        assert by_decision[decisions[0]] is twin


def test_an_unscreened_run_reads_its_predictions_from_the_screening_table(needle):
    phi = parse(NEEDLE_B)
    engine._predict.cache_clear()
    result = generate(needle, phi, LearnerConfig(episodes=20, predict=False))
    info = engine._predict.cache_info()
    # One lookup per executed step, and a repeated key is not computed again.
    assert info.hits + info.misses == result.stats.steps
    assert info.hits > 0
    # After the first step, screening drops the actions that are not clicks.
    first = result.episodes[0].steps[0]
    session = EnvSession(needle)
    session.reset()
    session.execute(first.action)
    enabled = session.enabled_actions()
    alphabet = atom_set(phi)
    screened = prune_and_predict(first.formula, TAIL, enabled, alphabet)
    assert screened.kind == CONTINUE and 0 < len(screened.survivors) < len(enabled)
    unscreened = engine._predict(first.formula, TAIL, tuple(enabled), alphabet, False)
    assert engine._predict(first.formula, TAIL, tuple(enabled), alphabet, False) is unscreened
    assert (unscreened.kind, unscreened.action) == (CONTINUE, None)
    assert [a for _, a in unscreened.survivors] == list(enabled)


# --- the run's edge table ---

def edge_spies(monkeypatch):
    """Record the arguments of every projection and shaped reward the engine
    computes, and every state an executed action leads to."""
    calls = {"projection": [], "shaped_reward": [], "states": []}
    projection, shaped_reward, execute = engine.projection, engine.shaped_reward, EnvSession.execute

    def spy_projection(phi, labels):
        calls["projection"].append((phi, labels))
        return projection(phi, labels)

    def spy_shaped_reward(phi, verdict, shaping=True):
        calls["shaped_reward"].append((phi, verdict.formula))
        return shaped_reward(phi, verdict, shaping)

    def spy_execute(session, action):
        state = execute(session, action)
        calls["states"].append(state)
        return state

    monkeypatch.setattr(engine, "projection", spy_projection)
    monkeypatch.setattr(engine, "shaped_reward", spy_shaped_reward)
    monkeypatch.setattr(EnvSession, "execute", spy_execute)
    return calls


def first_visits(phi0, logs, states):
    """Each distinct (obligation, action, resulting state) the episodes met,
    in order, with the record of its first step."""
    states = iter(states)
    visits = {}
    for log in logs:
        phi = engine._start(phi0)[0]
        for record in log.steps:
            visits.setdefault((phi, record.action, next(states)), record)
            phi = record.formula
    assert next(states, None) is None
    return visits


@pytest.mark.parametrize("engine_fn", [generate, random_policy_generate])
def test_a_run_computes_each_edge_once(engine_fn, needle, monkeypatch):
    calls = edge_spies(monkeypatch)
    phi = parse(NEEDLE_B)
    result = engine_fn(needle, phi, LearnerConfig(seed=0))
    visits = first_visits(phi, result.episodes, calls["states"])
    assert len(visits) < result.stats.steps
    expected_projections = [(edge[0], record.labels) for edge, record in visits.items()]
    expected_rewards = [(edge[0], record.formula) for edge, record in visits.items()]
    assert calls["projection"] == expected_projections
    assert calls["shaped_reward"] == expected_rewards
    # The table is the run's: a second run of the seed computes its edges again.
    for values in calls.values():
        values.clear()
    engine_fn(needle, phi, LearnerConfig(seed=0))
    assert calls["projection"] == expected_projections
    assert calls["shaped_reward"] == expected_rewards


def test_replay_starts_its_own_edge_table(needle, monkeypatch):
    phi = parse(NEEDLE_B)
    result = generate(needle, phi, LearnerConfig(seed=0))
    calls = edge_spies(monkeypatch)
    logs = [replay(needle, result.test, phi), replay(needle, result.test, phi)]
    visits = first_visits(phi, logs[:1], calls["states"][: len(logs[0].steps)])
    assert len(calls["projection"]) == len(calls["shaped_reward"]) == 2 * len(visits)

    def records(log):
        return [tuple(record) for record in log.steps]

    assert records(logs[0]) == records(logs[1]) == records(result.episodes[-1])
    # An episode reading a warm table logs what a fresh table gives.
    config = LearnerConfig(steps=len(result.test))
    run = Run(EnvSession(needle), phi, config, lambda k, enabled: result.test[k])
    for _ in range(2):
        assert records(run_episode(run)) == records(logs[0])
    assert len(run.edges) == len(visits)


def test_a_repeated_step_shares_its_record(chesswalk, monkeypatch):
    # A record is built on its edge's first visit and shared by every later
    # step over that edge, at whatever position in whatever episode.
    calls = edge_spies(monkeypatch)
    phi = parse("G F [activity~About]")
    config = LearnerConfig(episodes=40, steps=6, seed=0)
    result = random_policy_generate(chesswalk, phi, config)
    states = iter(calls["states"])
    shared = {}
    positions = {}
    for log in result.episodes:
        before = engine._start(phi)[0]
        for k, record in enumerate(log.steps):
            edge = (before, record.action, next(states))
            assert shared.setdefault(edge, record) is record
            positions.setdefault(edge, set()).add(k)
            before = record.formula
    assert next(states, None) is None
    # On chesswalk one edge recurs at different positions, and they share it.
    assert any(len(ks) > 1 for ks in positions.values())
    built = {id(record) for log in result.episodes for record in log.steps}
    assert len(built) == len(shared) == len(calls["projection"]) < result.stats.steps


def fork_model() -> dict:
    """From a, a click reaches b, which enables only back, and back stays on a."""
    return {
        "screen": [100, 100],
        "initial": {"AActivity": "a"},
        "states": [
            {
                "id": "a",
                "attributes": {"activity": "AActivity", "package": "demo"},
                "widgets": [{"objectID": "0:0", "text": "Go", "bounds": [0, 0, 20, 20]}],
                "actions": [
                    {"type": "click", "on": "0:0", "transitions": [{"to": "b"}]},
                    {"type": "back", "transitions": [{"to": "a"}]},
                ],
            },
            {
                "id": "b",
                "attributes": {"activity": "BActivity", "package": "demo"},
                "widgets": [],
                "actions": [{"type": "back", "transitions": [{"to": "a"}]}],
            },
        ],
    }


def test_a_dead_end_charge_stays_with_its_episode():
    # The obligation left by a click is one only another click satisfies,
    # and b enables none: every episode that clicks at step 1 dead-ends.
    model = model_from_dict(fork_model())
    phi = parse("X X [actionType=click]")
    run = Run(EnvSession(model), phi, LearnerConfig(seed=0))
    dead = [log for log in (run_episode(run) for _ in range(40)) if log.outcome == "dead_end"]
    assert len(dead) >= 2
    charged = [log.steps[-1] for log in dead]
    assert all(record.reward == -1.0 for record in charged)
    assert len({id(record) for record in charged}) == len(dead)
    (stored,) = [record for *_, record in run.edges.values() if record[:3] == charged[0][:3]]
    assert stored.reward != -1.0 and all(record is not stored for record in charged)
    # A picked run over the same edge table steps through that edge at that
    # position without a dead end, and reads the edge's own record.
    test = [record.action for record in dead[0].steps]
    picked = Run(EnvSession(model), phi, LearnerConfig(steps=len(test)), lambda k, _: test[k])
    picked.edges = run.edges
    log = run_episode(picked)
    assert log.outcome == "exhausted" and log.steps[-1] is stored


# --- episodes ---

def single_path_model() -> dict:
    return {
        "screen": [100, 100],
        "initial": {"StartActivity": "start"},
        "states": [
            {
                "id": "start",
                "attributes": {"activity": "StartActivity", "package": "demo"},
                "widgets": [{"objectID": "0:0", "text": "Go", "bounds": [0, 0, 20, 20]}],
                "actions": [{"type": "click", "on": "0:0", "transitions": [{"to": "finish"}]}],
            },
            {
                "id": "finish",
                "attributes": {"activity": "FinishActivity", "package": "demo"},
                "widgets": [],
                "actions": [{"type": "pauseresume", "transitions": [{"to": "finish"}]}],
            },
        ],
    }


def lobby_model() -> dict:
    return {
        "screen": [100, 100],
        "initial": {"LobbyActivity": "lobby"},
        "states": [
            {
                "id": "lobby",
                "attributes": {"activity": "LobbyActivity", "package": "demo"},
                "widgets": [],
                "actions": [
                    {"type": "back", "transitions": [{"to": "lobby"}]},
                    {"type": "pauseresume", "transitions": [{"to": "lobby"}]},
                ],
            }
        ],
    }


def test_a_run_of_raw_text_starts_where_generate_starts(chesswalk):
    # Runs of one input, however built, read one start: its normal form and
    # that form's alphabet, computed once.
    text = "!![activity~Main] & X [activity~About] & true"
    engine._start.cache_clear()
    run = Run(EnvSession(chesswalk), parse(text), LearnerConfig())
    assert run.phi is simplify(parse(text)) and run.phi is not parse(text)
    assert run.alphabet == atom_set(run.phi)
    again = Run(EnvSession(chesswalk), parse(text), LearnerConfig())
    assert again.phi is run.phi and again.alphabet is run.alphabet
    result = generate(chesswalk, parse(text), LearnerConfig(seed=0))
    assert replay(chesswalk, result.test, parse(text)).satisfied
    info = engine._start.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_step_cap_limits_an_episode(chesswalk):
    config = dataclasses.replace(LearnerConfig(), steps=1, seed=5)
    log = run_episode(Run(EnvSession(chesswalk, seed=1), parse(GO_ABOUT_AND_BACK), config))
    assert len(log.steps) == 1
    assert log.steps[0].action.action_type == "reinitialize"
    assert log.outcome == "exhausted"


def test_dead_end_charges_the_previous_decision():
    model = model_from_dict(lobby_model())
    phi = parse("X ([actionType=click] & [activity~Lobby])")
    run = Run(EnvSession(model, seed=0), phi, LearnerConfig())
    log = run_episode(run)
    assert log.outcome == "dead_end"
    assert len(log.steps) == 1  # only the reinitialize executed
    assert log.steps[-1].reward == -1.0
    reinit_decision = Decision((), ("reinitialize", ("LobbyActivity",), ""))
    assert run.store.q1[reinit_decision] < 0 or run.store.q2[reinit_decision] < 0


def test_dead_end_charge_is_what_the_learner_learns(monkeypatch):
    # The log's reward comes from the record; this checks the value learned.
    calls = []

    def spy(store, decision, reward, *args, **kwargs):
        calls.append((decision, reward))
        return learn(store, decision, reward, *args, **kwargs)

    monkeypatch.setattr(engine, "learn", spy)
    model = model_from_dict(lobby_model())
    phi = parse("X ([actionType=click] & [activity~Lobby])")
    log = run_episode(Run(EnvSession(model, seed=0), phi, LearnerConfig()))
    assert log.outcome == "dead_end"
    assert calls[-1] == (Decision((), ("reinitialize", ("LobbyActivity",), "")), -1.0)


def test_a_picked_run_screens_and_learns_nothing(needle, monkeypatch):
    phi = parse(NEEDLE_B)
    test = generate(needle, phi, LearnerConfig(seed=0)).test
    called = []
    for name in ("prune_and_predict", "_predict", "learn", "decide_next_action"):
        monkeypatch.setattr(engine, name, lambda *args, name=name, **kwargs: called.append(name))
    baseline = random_policy_generate(needle, phi, LearnerConfig(episodes=20, seed=0))
    assert baseline.stats.steps > 0
    assert replay(needle, test, phi).satisfied
    run = Run(EnvSession(needle), phi, LearnerConfig(), lambda k, enabled: enabled[-1])
    assert run_episode(run).steps
    assert called == []
    assert all(not getattr(run.store, table) for table in QStore.__slots__)


def test_step_labels_tell_apart_actions_with_one_signature():
    # Both states show widget 0:0 in one place, so clicking it has the same
    # signature and the same successor in both; only the widget text, and so
    # the action's detail label, differs.
    def state(state_id, activity, text):
        return {
            "id": state_id,
            "attributes": {"activity": activity, "package": "demo"},
            "widgets": [{"objectID": "0:0", "text": text, "bounds": [0, 0, 20, 20]}],
            "actions": [{"type": "click", "on": "0:0", "transitions": [{"to": "b"}]}],
        }

    model = model_from_dict({
        "screen": [100, 100],
        "initial": {"MainActivity": "a"},
        "states": [state("a", "MainActivity", "Go"), state("b", "OtherActivity", "Stop")],
    })
    go = AtomicProposition("actionDetail", "~", "Go")
    stop = AtomicProposition("actionDetail", "~", "Stop")
    phi = parse("X X X ([actionDetail~Go] | [actionDetail~Stop])")
    clicks = [("reinitialize", ("MainActivity",)), ("click", ("10", "10")), ("click", ("10", "10"))]
    log = replay(model, clicks, phi)
    assert [record.labels & {go, stop} for record in log.steps] == [set(), {go}, {stop}]


def test_learner_labels_tell_apart_actions_with_one_signature():
    # A Start/Stop button: one widget id, so one signature, in two states.
    model = model_from_dict({
        "screen": [100, 100],
        "initial": {"MainActivity": "a"},
        "states": [
            {
                "id": state_id,
                "attributes": {"activity": "MainActivity", "package": "demo"},
                "widgets": [{"objectID": "0:0", "text": text, "bounds": [0, 0, 20, 20]}],
                "actions": [{"type": "click", "on": "0:0", "transitions": [{"to": "b"}]}],
            }
            for state_id, text in (("a", "Start"), ("b", "Stop"))
        ],
    })
    stop = lab(AtomicProposition("actionDetail", "~", "Stop"))
    config = LearnerConfig(steps=3, seed=1, episodes=1)
    run = Run(EnvSession(model, seed=0), parse("F [actionDetail~Stop]"), config)
    log = run_episode(run)
    store = run.store
    assert log.outcome == "satisfied"
    assert [record.action.detail for record in log.steps[1:]] == ["Start", "Stop"]
    assert log.steps[-1].reward == 1.0
    assert list(store.action_labels.values()) == [lab(), lab(), stop]
    assert set(store.qa1) == set(store.qa2) == {lab(), stop}


def test_tails_respect_the_length_bound(needle):
    from conftest import NEEDLE_B

    config = dataclasses.replace(LearnerConfig(), seed=9, tail_length=2)
    result = generate(needle, parse(NEEDLE_B), config)
    assert result.satisfied
    # generate keeps its store to itself, so one learner episode on a new
    # store shows the tails decisions are keyed by; none may exceed the bound
    run = Run(EnvSession(needle, seed=1), parse(NEEDLE_B), config)
    run_episode(run)
    assert all(len(d.tail) <= 2 for d in run.store.q1)


def test_zero_tail_length_degrades_to_stateless_keys(needle):
    from conftest import NEEDLE_B

    config = dataclasses.replace(LearnerConfig(), seed=9, tail_length=0)
    run = Run(EnvSession(needle, seed=1), parse(NEEDLE_B), config)
    run_episode(run)
    assert all(d.tail == () for d in run.store.q1)


# --- generation ---

def test_generate_finds_the_worked_example_test(chesswalk):
    config = dataclasses.replace(LearnerConfig(), seed=7)
    result = generate(chesswalk, parse(GO_ABOUT_AND_BACK), config)
    assert result.satisfied
    assert result.stats.outcome == "satisfied"
    check = replay(chesswalk, result.test, parse(GO_ABOUT_AND_BACK))
    assert check.satisfied


def test_generate_exhausts_on_unsatisfiable_formula(chesswalk):
    phi = parse("X ([activity~Main] & [activity=NoSuchActivityZZZ])")
    config = dataclasses.replace(LearnerConfig(), episodes=40, seed=3)
    result = generate(chesswalk, phi, config)
    assert not result.satisfied
    assert result.stats.outcome == "exhausted"
    assert result.stats.episodes == 40
    assert len(result.episodes) == 40


def test_zero_episode_budget_exhausts_immediately(chesswalk):
    config = dataclasses.replace(LearnerConfig(), episodes=0)
    result = generate(chesswalk, parse(GO_ABOUT_AND_BACK), config)
    assert not result.satisfied
    assert result.stats.episodes == 0
    assert result.stats.steps == 0


def test_single_path_model_succeeds_in_first_episode():
    model = model_from_dict(single_path_model())
    phi = parse("X X [activity~Finish]")
    for engine in (generate, random_policy_generate):
        result = engine(model, phi, dataclasses.replace(LearnerConfig(), seed=11))
        assert result.satisfied
        assert result.stats.episodes == 1


def test_generate_is_deterministic_per_seed(needle):
    from conftest import NEEDLE_B

    phi = parse(NEEDLE_B)
    config = dataclasses.replace(LearnerConfig(), seed=21)
    first = generate(needle, phi, config)
    second = generate(needle, phi, config)
    assert [a.signature for a in first.test] == [a.signature for a in second.test]
    assert first.stats.episodes == second.stats.episodes
    assert first.stats.steps == second.stats.steps


def test_random_engine_is_deterministic_per_seed(chesswalk):
    phi = parse(GO_ABOUT_AND_BACK)
    config = dataclasses.replace(LearnerConfig(), seed=13)
    first = random_policy_generate(chesswalk, phi, config)
    second = random_policy_generate(chesswalk, phi, config)
    assert first.stats.episodes == second.stats.episodes
    assert first.stats.steps == second.stats.steps


def test_the_uniform_pick_draws_what_choice_draws():
    """The baseline's pick reimplements ``random.Random.choice`` for speed,
    so it must draw the same index and leave the generator in the same
    state.  CI runs this suite on CPython 3.10 to 3.13, so this test is what
    catches a change to ``choice``'s algorithm in any of them.  The sizes
    cover the powers of two and their neighbours up to 64."""
    for n in range(1, 71):
        enabled = range(n)
        for seed in range(50):
            ours, reference = random.Random(seed), random.Random(seed)
            pick = engine._uniform(ours)
            assert [pick(k, enabled) for k in range(200)] == [
                reference.choice(enabled) for _ in range(200)
            ], (n, seed)
            assert ours.getstate() == reference.getstate(), (n, seed)


def test_rewards_stay_in_range_and_terminal_is_last(chesswalk):
    config = dataclasses.replace(LearnerConfig(), episodes=30, seed=2)
    result = generate(chesswalk, parse(GO_ABOUT_AND_BACK), config)
    for log in result.episodes:
        for record in log.steps:
            assert -1.0 <= record.reward <= 1.0
        for record in log.steps[:-1]:
            assert record.reward not in (1.0, -1.0)


# --- annealing ---

def test_anneal_moves_toward_the_floors():
    config = LearnerConfig()
    t, eps, eta = config.t0, config.eps0, config.eta0
    for _ in range(200):
        nt, neps, neta = anneal(t, eps, eta, config)
        assert nt <= t and neps <= eps and neta <= eta
        t, eps, eta = nt, neps, neta
    assert t == config.t_min
    assert abs(eps - max(config.eps0 * config.eps_update**200, config.eps_min)) <= 1e-12


def _anneal_by_max(temperature, epsilon, eta, config):
    """The schedule step written with ``max``, the reference ``anneal`` must equal."""
    return (
        max(temperature - config.t_delta, config.t_min),
        max(config.eps_update * epsilon, config.eps_min),
        max(config.eta_update * eta, config.eta_min),
    )


def test_anneal_equals_the_max_form_bit_for_bit():
    # A schedule that lands exactly on each floor, one that starts on them,
    # then seeded random ones.
    configs = [
        LearnerConfig(t0=1.0, t_delta=0.5, t_min=0.5, eps0=0.5, eps_update=0.5, eps_min=0.25,
                      eta0=1.0, eta_update=0.5, eta_min=0.25),
        LearnerConfig(t0=0.5, t_delta=0.5, t_min=0.5, eps0=0.01, eps_update=1.0, eps_min=0.01,
                      eta0=0.1, eta_update=1.0, eta_min=0.1),
    ]
    gen = random.Random(33)
    for _ in range(200):
        t_min, eps_min = gen.uniform(0.01, 2.0), gen.uniform(1e-4, 0.5)
        eta_min = gen.uniform(1e-3, 1.0)
        configs.append(LearnerConfig(
            t0=t_min + gen.choice((0.0, gen.uniform(0.0, 10.0))),
            t_delta=gen.choice((t_min, gen.uniform(1e-3, 1.0))),
            t_min=t_min,
            eps0=gen.uniform(eps_min, 1.0),
            eps_update=gen.choice((0.5, 1.0, gen.uniform(0.5, 1.0))),
            eps_min=eps_min,
            eta0=eta_min + gen.uniform(0.0, 2.0),
            eta_update=gen.choice((0.5, 1.0, gen.uniform(0.5, 1.0))),
            eta_min=eta_min,
        ))
    for config in configs:
        config.validate()
        schedule = (config.t0, config.eps0, config.eta0)
        for _ in range(60):
            expected = _anneal_by_max(*schedule, config)
            schedule = anneal(*schedule, config)
            assert [value.hex() for value in schedule] == [value.hex() for value in expected]
    # The first schedule's step from (1.0, 0.5, 0.5) lands on every floor exactly.
    assert anneal(1.0, 0.5, 0.5, configs[0]) == (0.5, 0.25, 0.25)


# --- replay ---

def test_replay_rejects_unavailable_action(chesswalk):
    from ltlgen import ActionNotEnabled

    with pytest.raises(ActionNotEnabled, match="step 0"):
        replay(chesswalk, [("click", ("1", "1"))], parse(GO_ABOUT_AND_BACK))


@pytest.mark.parametrize("engine", [generate, random_policy_generate])
@pytest.mark.parametrize("model_name, formula", [
    ("needle", NEEDLE_A),
    ("needle", NEEDLE_B),
    ("needle", NEEDLE_C),
    ("chesswalk", GO_ABOUT_AND_BACK),
])
def test_replay_reproduces_the_generating_episode(engine, model_name, formula, request):
    model = request.getfixturevalue(model_name)
    phi = parse(formula)
    config = dataclasses.replace(LearnerConfig(), seed=0)
    result = engine(model, phi, config)
    assert result.satisfied
    replayed = replay(model, result.test, phi, seed=config.seed)

    def records(log):
        return [tuple(record) for record in log.steps]

    assert replayed.outcome == "satisfied"
    assert records(replayed) == records(result.episodes[-1])


def test_replay_reports_reliability_on_stochastic_model(flaky):
    phi = parse("X [activity~Win]")
    test = [("reinitialize", ("StartActivity",)), ("click", ("30", "30"))]
    outcomes = [replay(flaky, test, phi, seed=s).satisfied for s in range(40)]
    rate = sum(outcomes) / len(outcomes)
    assert 0.5 < rate < 0.9  # seeded draw around the 0.7 transition weight
    again = [replay(flaky, test, phi, seed=s).satisfied for s in range(40)]
    assert outcomes == again


@pytest.mark.parametrize("engine", [generate, random_policy_generate])
def test_only_a_stochastic_model_seeds_the_environment_generator(engine, needle, flaky, monkeypatch):
    # The baseline draws the swap generator's seed but builds no generator from it.
    generators = 3 if engine is generate else 2
    seeded = []
    seed = random.Random.seed

    def counted(self, *args, **kwargs):
        seeded.append(self)
        seed(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counted)
    engine(needle, parse(NEEDLE_B), LearnerConfig(episodes=20))
    # The master and policy generators, and the learner's swap generator;
    # the session never draws.
    assert len(seeded) == generators
    seeded.clear()
    engine(flaky, parse("X X [activity~Win]"), LearnerConfig(episodes=20))
    assert len(seeded) == generators + 1

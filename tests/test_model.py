import copy
import itertools
import json
import pickle
import random

import pytest

from ltlgen import (
    ActionNotEnabled,
    AtomicProposition,
    DONT_CARE,
    EnvSession,
    GuiAction,
    ModelError,
    load_model,
    load_test,
    model_from_dict,
    save_test,
)
from ltlgen.formula import _ACTION_KEYS
from ltlgen.model import AppModel, GuiState, action_labeling, state_labeling
from conftest import MODELS
from helpers import FixedRoll, lab

ACTIVITY_MAIN = AtomicProposition("activity", "~", "Main")
ACTIVITY_ABOUT = AtomicProposition("activity", "~", "About")


def minimal_model() -> dict:
    return {
        "screen": [100, 100],
        "initial": {"MainActivity": "a"},
        "states": [
            {
                "id": "a",
                "attributes": {"activity": "MainActivity", "package": "demo"},
                "widgets": [{"objectID": "0:0", "text": "Go", "bounds": [0, 0, 10, 10]}],
                "actions": [
                    {"type": "click", "on": "0:0", "transitions": [{"to": "b"}]},
                    {"type": "back", "transitions": [{"to": "a"}]},
                ],
            },
            {
                "id": "b",
                "attributes": {"activity": "OtherActivity", "package": "demo"},
                "widgets": [],
                "actions": [{"type": "back", "transitions": [{"to": "a"}]}],
            },
        ],
    }


# --- loading and validation ---

def test_loads_the_shipped_model(chesswalk):
    assert set(chesswalk.states) == {"main", "about", "settings", "settings_off", "newgame", "outside"}
    assert chesswalk.states["main"].observed == {
        "text": ("New Game", "Settings", "About"),
        "objectID": ("0:0", "0:3", "0:4"),
        "checked": (),
        "activity": ("MainActivity",),
        "package": ("net.chesswalk",),
    }


def test_dont_care_state_is_implicit(chesswalk):
    assert DONT_CARE.id not in chesswalk.states
    assert DONT_CARE.observed == {}


def test_click_params_are_widget_centers(chesswalk):
    session = EnvSession(chesswalk)
    session.execute(GuiAction("reinitialize", ("MainActivity",)))
    clicks = {a.params for a in session.enabled_actions() if a.action_type == "click"}
    assert ("239", "669") in clicks


def test_validation_weights_must_sum_to_one():
    data = minimal_model()
    data["states"][0]["actions"][0]["transitions"] = [
        {"to": "b", "weight": 0.5},
        {"to": "a", "weight": 0.4},
    ]
    with pytest.raises(ModelError, match="weights sum to 0.9"):
        model_from_dict(data)


@pytest.mark.parametrize("off", [1e-6, -1e-6])
def test_validation_rejects_weights_a_millionth_off_one(off):
    # Weights must sum to 1 within float rounding, not within a loose tolerance.
    data = minimal_model()
    data["states"][0]["actions"][0]["transitions"] = [
        {"to": "b", "weight": 0.5},
        {"to": "a", "weight": 0.5 + off},
    ]
    with pytest.raises(ModelError, match="transition weights sum to"):
        model_from_dict(data)


def test_validation_rejects_empty_states():
    data = minimal_model()
    data["states"] = []
    with pytest.raises(ModelError, match="'states'"):
        model_from_dict(data)


def test_validation_names_dangling_target():
    data = minimal_model()
    data["states"][0]["actions"][0]["transitions"] = [{"to": "nowhere"}]
    with pytest.raises(ModelError, match="unknown state 'nowhere'"):
        model_from_dict(data)


def test_validation_rejects_declared_reinitialize():
    data = minimal_model()
    data["states"][0]["actions"].append({"type": "reinitialize", "transitions": [{"to": "a"}]})
    with pytest.raises(ModelError, match="reinitialize"):
        model_from_dict(data)


@pytest.mark.parametrize("bounds", [[10, 10, 10, 20], [0, 0, 200, 10], [-1, 0, 10, 10]])
def test_validation_rejects_bad_bounds(bounds):
    data = minimal_model()
    data["states"][0]["widgets"][0]["bounds"] = bounds
    with pytest.raises(ModelError, match="bounds"):
        model_from_dict(data)


def test_validation_requires_activity_and_package():
    data = minimal_model()
    del data["states"][0]["attributes"]["activity"]
    with pytest.raises(ModelError, match="'activity'"):
        model_from_dict(data)


def test_validation_names_unknown_widget_reference():
    data = minimal_model()
    data["states"][0]["actions"][0]["on"] = "9:9"
    with pytest.raises(ModelError, match="unknown widget '9:9'"):
        model_from_dict(data)


@pytest.mark.parametrize("widgets", [None, 3, "0:0", {"objectID": "0:0"}])
def test_validation_requires_a_widget_list(widgets):
    data = minimal_model()
    data["states"][0]["widgets"] = widgets
    with pytest.raises(ModelError, match="^<model>: state 'a': 'widgets' must be a list$"):
        model_from_dict(data)


@pytest.mark.parametrize("on", [None, 0, ["0:0"], {"objectID": "0:0"}])
def test_validation_requires_a_widget_id_string(on):
    data = minimal_model()
    data["states"][0]["actions"][0]["on"] = on
    with pytest.raises(
        ModelError, match="^<model>: state 'a': action 'click' 'on' must be a widget id string$"
    ):
        model_from_dict(data)


def test_validation_rejects_duplicate_state_ids():
    data = minimal_model()
    data["states"].append(copy.deepcopy(data["states"][0]))
    with pytest.raises(ModelError, match="duplicate state id"):
        model_from_dict(data)


def test_validation_rejects_duplicate_actions():
    data = minimal_model()
    data["states"][1]["actions"].append({"type": "back", "transitions": [{"to": "b"}]})
    with pytest.raises(ModelError, match="duplicate action"):
        model_from_dict(data)


def test_validation_rejects_click_with_params():
    data = minimal_model()
    data["states"][0]["actions"][0]["params"] = ["1", "2"]
    with pytest.raises(ModelError, match="derived from the widget center"):
        model_from_dict(data)


BAD_PARAMS = [True, [1, 2], {"a": 1}, 1.5, None]


@pytest.mark.parametrize("param", BAD_PARAMS)
def test_validation_rejects_params_other_than_strings_and_integers(param):
    data = minimal_model()
    data["states"][0]["actions"][1]["params"] = ["x", param]
    with pytest.raises(ModelError, match="^<model>: state 'a': action 'back' params must be strings or integers$"):
        model_from_dict(data)


def test_integer_params_load_as_text():
    data = minimal_model()
    data["states"][0]["actions"][1]["params"] = ["x", 3]
    model = model_from_dict(data)
    actions = model.enabled[model.states["a"]]
    assert [a.params for a in actions if a.action_type == "back"] == [("x", "3")]


def test_validation_requires_positive_weights():
    data = minimal_model()
    data["states"][0]["actions"][0]["transitions"] = [{"to": "b", "weight": 0}]
    with pytest.raises(ModelError, match="positive"):
        model_from_dict(data)


@pytest.mark.parametrize(
    "weights",
    [[float("nan")], [float("inf")], [float("nan"), 0.3], [0.7, float("nan")]],
)
def test_validation_rejects_non_finite_weights(weights):
    data = minimal_model()
    data["states"][0]["actions"][0]["transitions"] = [
        {"to": "b", "weight": weight} for weight in weights
    ]
    with pytest.raises(ModelError, match="state 'a': action 'click' transition weight must be positive and finite"):
        model_from_dict(data)


def test_load_rejects_nan_weight_in_json(tmp_path):
    # json.loads accepts the bare NaN literal, so the check has to catch it.
    text = (MODELS / "flaky.json").read_text()
    path = tmp_path / "nan.json"
    path.write_text(text.replace('"weight": 0.7', '"weight": NaN'))
    with pytest.raises(ModelError, match="state 'start': action 'click'.*finite, got nan"):
        load_model(path)


def test_validation_requires_an_action_per_state():
    data = minimal_model()
    data["states"][1]["actions"] = []
    with pytest.raises(ModelError, match="at least one enabled action"):
        model_from_dict(data)


@pytest.mark.parametrize("case", ["not an object", "reserved state id"])
def test_validation_rejects_a_non_object_and_the_reserved_state_id(case):
    data = minimal_model()
    if case == "not an object":
        data, message = [data], "model must be a JSON object"
    else:
        data["states"][1]["id"] = "∅"
        message = "state id '∅' is reserved for the don't-care state"
    with pytest.raises(ModelError) as info:
        model_from_dict(data)
    assert str(info.value) == f"<model>: {message}"


def test_validation_checks_initial_targets():
    data = minimal_model()
    data["initial"] = {"MainActivity": "ghost"}
    with pytest.raises(ModelError, match="unknown state 'ghost'"):
        model_from_dict(data)


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"screen": [100, 100],')
    with pytest.raises(ModelError, match="line"):
        load_model(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(ModelError):
        load_model(tmp_path / "absent.json")


# One value of each kind JSON has, to put in place of a value of a model file.
_REPLACEMENTS = (None, True, False, 0, -1, 2.5, "", "x", [], [0], {}, {"x": 1})
_DELETE = object()


def _json_values(value, path=()):
    """(path, value) of every value nested in decoded JSON, the root excluded."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _json_values(child, path + (key,))


@pytest.mark.parametrize("name", ["chesswalk_abstract.json", "flaky.json", "needle.json"])
def test_one_replaced_value_loads_or_raises_model_error(name):
    text = (MODELS / name).read_text()
    nested = list(_json_values(json.loads(text)))
    # Besides one value of each kind, each path gets a seeded draw from the
    # file's own values, such as another state's id as a transition target.
    own = sorted({json.dumps(v) for _, v in nested if not isinstance(v, (dict, list))})
    rng = random.Random(0)
    for path, _ in nested:
        for replacement in (*_REPLACEMENTS, json.loads(rng.choice(own)), _DELETE):
            data = json.loads(text)
            owner = data
            for key in path[:-1]:
                owner = owner[key]
            if replacement is _DELETE:
                del owner[path[-1]]
            else:
                owner[path[-1]] = replacement
            try:
                model = model_from_dict(data)
            except ModelError:
                continue
            except Exception as exc:
                pytest.fail(f"{name} at {path}, replaced by {replacement!r}: {exc!r}")
            assert isinstance(model, AppModel)


# --- sessions ---

def test_only_reinitialize_enabled_before_launch(chesswalk):
    session = EnvSession(chesswalk)
    actions = session.enabled_actions()
    assert [a.action_type for a in actions] == ["reinitialize"]
    assert actions[0].params == ("MainActivity",)


def test_reinitialize_never_enabled_after_launch(chesswalk):
    session = EnvSession(chesswalk)
    session.execute(session.enabled_actions()[0])
    for state_id in chesswalk.states:
        session.current = chesswalk.states[state_id]
        assert all(a.action_type != "reinitialize" for a in session.enabled_actions())


def test_enabled_actions_are_sorted_deterministically(chesswalk):
    session = EnvSession(chesswalk)
    session.execute(GuiAction("reinitialize", ("MainActivity",)))
    signatures = [a.signature for a in session.enabled_actions()]
    assert signatures == sorted(signatures)


def test_execute_rejects_disabled_action(chesswalk):
    session = EnvSession(chesswalk)
    with pytest.raises(ActionNotEnabled):
        session.execute(GuiAction("back"))


def test_dont_care_actions_are_one_stored_tuple(chesswalk):
    session = EnvSession(chesswalk)
    first = session.enabled_actions()
    assert isinstance(first, tuple)
    assert session.enabled_actions() is first
    session.execute(first[0])
    session.reset()
    assert session.enabled_actions() is first
    assert chesswalk.enabled_in(DONT_CARE) is first


@pytest.mark.parametrize("case", ["reinitialize after launch", "unknown activity", "other state"])
def test_execute_rejects_disabled_action_by_name(chesswalk, case):
    session = EnvSession(chesswalk)
    if case == "unknown activity":
        action, where = GuiAction("reinitialize", ("NoSuchActivity",)), "∅"
    else:
        session.execute(GuiAction("reinitialize", ("MainActivity",)))
        if case == "reinitialize after launch":
            action, where = GuiAction("reinitialize", ("MainActivity",)), "main"
        else:
            here = {a.signature for a in session.enabled_actions()}
            action = next(a for a in chesswalk.enabled[chesswalk.states["about"]] if a.signature not in here)
            where = "main"
    message = f"{action.describe()!r} is not enabled in state {where!r}"
    with pytest.raises(ActionNotEnabled) as caught:
        session.execute(action)
    assert str(caught.value) == message
    assert session.current.id == ("∅" if case == "unknown activity" else "main")


def test_transition_rejects_undeclared_action(chesswalk):
    main = chesswalk.states["main"]
    with pytest.raises(ActionNotEnabled, match="state 'main' has no transition for 'swipe up'"):
        chesswalk.transition(main, GuiAction("swipe", ("up",)))
    with pytest.raises(ActionNotEnabled):
        chesswalk.transition(DONT_CARE, GuiAction("back"))
    assert chesswalk.transition(DONT_CARE, GuiAction("reinitialize", ("MainActivity",))) == (
        (chesswalk.states["main"], 1.0),
    )


def test_action_signature_is_stored_but_not_a_field_value():
    action = GuiAction("click", ("5", "5"), "0:0", "Go")
    assert action.signature == ("click", ("5", "5"), "0:0")
    assert action.signature is action.signature
    assert action == GuiAction("click", ("5", "5"), "0:0", "Go")
    assert action is GuiAction("click", ("5", "5"), "0:0", "Go")
    assert GuiAction("back") is GuiAction("back")
    assert repr(action) == "GuiAction(action_type='click', params=('5', '5'), target='0:0', detail='Go')"
    assert b"signature" not in pickle.dumps(action)
    for clone in (pickle.loads(pickle.dumps(action)), copy.copy(action), copy.deepcopy(action)):
        assert clone is action
        assert clone == action and clone.signature == action.signature
    first = load_model(MODELS / "chesswalk_abstract.json")
    second = load_model(MODELS / "chesswalk_abstract.json")
    for state, actions in first.enabled.items():
        twin = second.states.get(state.id, DONT_CARE)
        assert all(a is b for a, b in zip(actions, second.enabled[twin], strict=True))


def test_execute_counts_steps_and_reset(chesswalk):
    session = EnvSession(chesswalk)
    session.execute(GuiAction("reinitialize", ("MainActivity",)))
    session.execute(GuiAction("back"))
    assert session.current.id == "outside"
    session.reset()
    assert session.current is DONT_CARE


def test_deterministic_model_is_a_pure_function(chesswalk):
    for seed in (0, 1, 2):
        session = EnvSession(chesswalk, seed=seed)
        session.execute(GuiAction("reinitialize", ("MainActivity",)))
        state = session.execute(GuiAction("pauseresume"))
        assert state.id == "main"


def test_fixed_seed_replays_stochastic_transitions(flaky):
    def roll(seed, n=12):
        session = EnvSession(flaky, seed=seed)
        out = []
        for _ in range(n):
            session.reset()
            session.execute(GuiAction("reinitialize", ("StartActivity",)))
            out.append(session.execute(GuiAction("click", ("30", "30"), "0:0", "Spin")).id)
        return out

    assert roll(7) == roll(7)
    assert roll(7) != roll(8)  # different stream actually samples differently
    assert {"win", "lose"} <= set(roll(7, 60))


def test_a_session_draws_as_a_generator_seeded_when_it_is_built(flaky):
    start = GuiAction("reinitialize", ("StartActivity",))
    spin = GuiAction("click", ("30", "30"), "0:0", "Spin")
    distribution = flaky.transitions[(flaky.states["start"], spin)]
    for seed in (0, 7, 2**64 - 1):
        session = EnvSession(flaky, seed=seed)
        reference = random.Random(seed)
        for _ in range(40):
            session.reset()
            session.execute(start)
            roll, acc = reference.random(), 0.0
            for expected, weight in distribution:
                acc += weight
                if roll < acc:
                    break
            assert session.execute(spin) is expected


def session_at_a_fork(weights, roll):
    """A session in state ``a`` whose every draw is ``roll``, its click, and
    the click's successors, one per weight."""
    data = minimal_model()
    targets = [f"t{i}" for i in range(len(weights))]
    data["states"][0]["actions"][0]["transitions"] = [
        {"to": target, "weight": weight} for target, weight in zip(targets, weights)
    ]
    data["states"] += [
        {"id": target, "attributes": {"activity": "OtherActivity", "package": "demo"}, "widgets": [],
         "actions": [{"type": "back", "transitions": [{"to": "a"}]}]}
        for target in targets
    ]
    session = EnvSession(model_from_dict(data))
    session.execute(GuiAction("reinitialize", ("MainActivity",)))
    click = next(a for a in session.enabled_actions() if a.action_type == "click")
    session._rng = FixedRoll(roll)
    return session, click, session.model.transitions[(session.current, click)]


def test_a_roll_on_a_partial_weight_sum_goes_to_the_next_successor():
    # A successor takes the rolls below its partial sum, not the sum itself.
    session, click, distribution = session_at_a_fork((0.5, 0.5), 0.5)
    assert session.execute(click) is distribution[1][0]


def test_a_roll_above_the_rounded_weight_sum_goes_to_the_last_successor():
    # Ten 0.1 weights add up to 1 - 2**-53, the largest roll random()
    # returns, so that roll passes every partial sum.
    roll = 1.0 - 2.0**-53
    session, click, distribution = session_at_a_fork((0.1,) * 10, roll)
    assert list(itertools.accumulate(weight for _, weight in distribution))[-1] == roll
    assert session.execute(click) is distribution[-1][0]


def test_an_action_of_an_enabled_signature_with_another_detail_is_not_enabled(chesswalk):
    # The table is keyed by the action object, and its detail is part of it.
    session = EnvSession(chesswalk)
    session.execute(GuiAction("reinitialize", ("MainActivity",)))
    about = next(a for a in session.enabled_actions() if a.detail == "About")
    relabelled = GuiAction(about.action_type, about.params, about.target, "Abut")
    assert relabelled.signature == about.signature
    with pytest.raises(ActionNotEnabled, match="is not enabled in state 'main'"):
        session.execute(relabelled)
    with pytest.raises(ActionNotEnabled, match="state 'main' has no transition for"):
        chesswalk.transition(session.current, relabelled)
    assert session.execute(about).id == "about"


def test_the_dont_care_state_copies_and_pickles_as_itself():
    assert copy.copy(DONT_CARE) is DONT_CARE
    assert copy.deepcopy(DONT_CARE) is DONT_CARE
    assert pickle.loads(pickle.dumps(DONT_CARE)) is DONT_CARE
    state = GuiState("a", {"activity": ("MainActivity",)})
    clone = copy.deepcopy(state)
    assert clone is not state and (clone.id, clone.observed) == (state.id, state.observed)


@pytest.mark.parametrize("name", ["chesswalk_abstract.json", "flaky.json", "needle.json"])
def test_copied_and_unpickled_models_step_like_the_original(name):
    original = load_model(MODELS / name)

    def walk(model, seed):
        # Seeded actions from a seeded session: every state's id and table,
        # and every enabled tuple, which holds the interned actions.
        session, chooser, seen = EnvSession(model, seed=seed), random.Random(seed), []
        for _ in range(30):
            session.reset()
            for _ in range(6):
                enabled = session.enabled_actions()
                state = session.execute(chooser.choice(enabled))
                seen.append((enabled, state.id, state.observed))
        return seen

    first = next(iter(original.states))
    for clone in (copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
        assert clone.states[first] is not original.states[first]
        for seed in range(5):
            assert walk(clone, seed) == walk(original, seed)


# --- labelings ---

def test_state_labeling_matches_activities(chesswalk):
    alphabet = {ACTIVITY_MAIN, ACTIVITY_ABOUT}
    assert state_labeling(chesswalk.states["main"], alphabet) == lab(ACTIVITY_MAIN)
    assert state_labeling(chesswalk.states["outside"], alphabet) == lab()
    assert state_labeling(chesswalk.states["main"], set()) == lab()


def test_state_labeling_widget_keys(chesswalk):
    text = AtomicProposition("text", "~", "Settings")
    object_id = AtomicProposition("objectID", "=", "0:4")
    checked_on = AtomicProposition("checked", "=", "true")
    checked_off = AtomicProposition("checked", "=", "false")
    main = chesswalk.states["main"]
    assert text in state_labeling(main, {text})
    assert object_id in state_labeling(main, {object_id})
    settings = chesswalk.states["settings"]
    assert state_labeling(settings, {checked_on, checked_off}) == lab(checked_on)
    assert state_labeling(chesswalk.states["settings_off"], {checked_on, checked_off}) == lab(checked_off)


@pytest.mark.parametrize("where", ["no checked values", "a widget without a flag"])
def test_state_labeling_without_a_checked_flag(where, chesswalk):
    checked_on = AtomicProposition("checked", "=", "true")
    checked_off = AtomicProposition("checked", "=", "false")
    if where == "no checked values":
        state = GuiState("s", {"checked": ()})
    else:
        state = chesswalk.states["main"]
        assert state.observed["objectID"] and not state.observed["checked"]
    assert state_labeling(state, {checked_on, checked_off}) == lab()


def test_state_labeling_contextual_attribute():
    data = minimal_model()
    data["states"][0]["attributes"]["screen"] = "off"
    model = model_from_dict(data)
    ap = AtomicProposition("screen", "=", "off")
    assert ap in state_labeling(model.states["a"], {ap})
    assert ap not in state_labeling(model.states["b"], {ap})


def test_state_labeling_is_monotone_in_alphabet(chesswalk):
    small = {ACTIVITY_MAIN}
    big = {ACTIVITY_MAIN, ACTIVITY_ABOUT, AtomicProposition("text", "~", "About")}
    for state in chesswalk.states.values():
        inner = state_labeling(state, small)
        outer = state_labeling(state, big)
        assert inner <= outer


def test_action_labeling_by_type_detail_and_object(chesswalk):
    back = GuiAction("back")
    by_type = AtomicProposition("actionType", "=", "back")
    assert action_labeling(back, {by_type}) == lab(by_type)

    session = EnvSession(chesswalk)
    session.execute(GuiAction("reinitialize", ("MainActivity",)))
    about_click = next(a for a in session.enabled_actions() if a.detail == "About")
    detail = AtomicProposition("actionDetail", "~", "About")
    object_id = AtomicProposition("actionObjectID", "=", "0:4")
    got = action_labeling(about_click, {detail, object_id, by_type})
    assert got == lab(detail, object_id)


def test_an_action_observes_exactly_the_action_keys():
    assert set(GuiAction("back").observed) == set(_ACTION_KEYS)


def test_action_labeling_reinitialize_matches_nothing_clicky():
    reinit = GuiAction("reinitialize", ("MainActivity",))
    alphabet = {
        AtomicProposition("actionType", "=", "click"),
        AtomicProposition("actionDetail", "~", "About"),
        AtomicProposition("actionObjectID", "=", "0:0"),
    }
    assert action_labeling(reinit, alphabet) == lab()


def test_action_labeling_ignores_state_atoms():
    back = GuiAction("back")
    assert action_labeling(back, {ACTIVITY_MAIN}) == lab()


# --- test files ---

def test_test_file_round_trip(tmp_path):
    actions = [
        GuiAction("reinitialize", ("MainActivity",)),
        GuiAction("click", ("239", "669"), "0:4", "About"),
        GuiAction("back"),
    ]
    path = tmp_path / "test.json"
    save_test(path, actions)
    records = load_test(path)
    assert records == [
        ("reinitialize", ("MainActivity",)),
        ("click", ("239", "669")),
        ("back", ()),
    ]
    # target/detail are session-local derivations and never serialized
    data = json.loads(path.read_text())
    assert all(set(entry) == {"type", "params"} for entry in data)


def test_load_test_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"not": "a list"}')
    with pytest.raises(ModelError, match="list"):
        load_test(path)
    path.write_text('[{"params": []}]')
    with pytest.raises(ModelError, match="record 0"):
        load_test(path)


@pytest.mark.parametrize("param", BAD_PARAMS)
def test_load_test_rejects_params_other_than_strings_and_integers(param, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"type": "back", "params": []}, {"type": "scroll", "params": [1, param]}]))
    with pytest.raises(ModelError, match="record 1 params must be strings or integers$"):
        load_test(path)
    path.write_text(json.dumps([{"type": "scroll", "params": ["up", 2]}]))
    assert load_test(path) == [("scroll", ("up", "2"))]

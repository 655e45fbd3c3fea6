"""One idiom per kind of class: ``Interned`` values, named-tuple records,
``__slots__`` state, and ``LearnerConfig`` as the only dataclass."""

import copy
import dataclasses
import pickle

import pytest

import ltlgen
from ltlgen import AtomicProposition, EnvSession, LearnerConfig, QStore, generate, parse
from ltlgen import cli, engine, formula, model, parser, progression
from ltlgen.engine import EpisodeLog, RunStats, StepRecord
from ltlgen.model import AppModel, GuiState, Widget
from ltlgen.parser import _Token
from conftest import GO_ABOUT_AND_BACK

MODULES = (ltlgen, cli, engine, formula, model, parser, progression)


def test_learner_config_is_the_only_dataclass():
    classes = {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__.startswith("ltlgen")
    }
    assert {cls for cls in classes if dataclasses.is_dataclass(cls)} == {LearnerConfig}
    assert dataclasses.replace(LearnerConfig(), seed=3).seed == 3


def test_every_class_follows_the_idiom_of_its_kind():
    defined = {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    }
    assert {LearnerConfig, EnvSession, parser._Parser, formula.Verdict} <= defined
    for cls in defined:
        named_tuple = issubclass(cls, tuple) and hasattr(cls, "_fields")
        exception = issubclass(cls, BaseException)
        if exception or cls is LearnerConfig:
            continue
        assert issubclass(cls, formula.Frozen) or named_tuple or "__slots__" in vars(cls), cls
        # A labeling is a plain frozenset, not a subclass of one.
        builtins = {base for base in cls.__mro__ if base.__module__ == "builtins"} - {object}
        assert builtins == ({tuple} if named_tuple else set()), cls
        # Slots over a base without them would still give each object a __dict__.
        assert not any("__dict__" in vars(base) for base in cls.__mro__), cls


def same(a, b) -> bool:
    """Equal by value, also where a class compares by identity."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (GuiState, AppModel)):
        # Their repr shows every field.
        return repr(a) == repr(b)
    if isinstance(a, QStore):
        return all(same(getattr(a, name), getattr(b, name)) for name in a.__slots__)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.fixture(scope="module")
def converted(chesswalk):
    """One object of each converted type, taken from a short learner run."""
    phi = parse(GO_ABOUT_AND_BACK)
    result = generate(chesswalk, phi, dataclasses.replace(LearnerConfig(), episodes=3, seed=1))
    run = engine.Run(EnvSession(chesswalk), phi, LearnerConfig())
    engine.run_episode(run)
    assert run.store.q1
    return {
        "predicate": AtomicProposition("activity", "~", "Main"),
        "widget": Widget("0:4", "About", (214, 644, 264, 694)),
        "state": chesswalk.states["main"],
        "model": chesswalk,
        "store": run.store,
        "episode": result.episodes[-1],
        "stats": result.stats,
        "result": result,
        "token": parser._tokenize("[activity~Main]")[0],
    }


@pytest.mark.parametrize(
    "name", ["predicate", "widget", "state", "model", "store", "episode", "stats", "result", "token"]
)
def test_copies_and_pickles_round_trip(converted, name):
    original = converted[name]
    for clone in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
        assert same(clone, original)
    if name == "predicate":
        assert pickle.loads(pickle.dumps(original)) is original


@pytest.mark.parametrize(
    "obj,field",
    [
        (AtomicProposition("activity", "~", "Main"), "value"),
        (Widget("0:0"), "text"),
        (GuiState("main", {}), "id"),
        (AppModel({}, {}, {}), "states"),
        (RunStats("exhausted", 1, 1, 0.0, 0), "steps"),
        (_Token("end", 0), "kind"),
    ],
)
def test_value_and_record_fields_refuse_assignment(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, None)


def test_states_compare_by_identity():
    state = GuiState("main", {"activity": ("MainActivity",)})
    twin = GuiState("main", {"activity": ("MainActivity",)})
    assert state == state and state != twin
    assert len({state, twin}) == 2


def test_predicates_are_one_object_per_value():
    assert AtomicProposition("a", "=", "x") is AtomicProposition("a", "=", "x")
    assert AtomicProposition("a", "=", "x") is not AtomicProposition("a", "~", "x")


def test_subclasses_intern_their_own_objects():
    class Predicate(AtomicProposition):
        __slots__ = ()

    class Choice(engine.Decision):
        __slots__ = ()

    for base, sub, fields in (
        (AtomicProposition, Predicate, ("a", "=", "x")),
        (engine.Decision, Choice, ((), ("back", (), ""))),
    ):
        built = base(*fields)
        own = sub(*fields)
        assert type(own) is sub and own is not built
        assert sub(*fields) is own and base(*fields) is built


def test_labeling_text_sorts_by_fields_not_text():
    # As text "[ab=x]" sorts first; by (key, op, value), as the log always
    # has, "[a~x]" does.
    labels = frozenset((AtomicProposition("ab", "=", "x"), AtomicProposition("a", "~", "x")))
    assert cli._labels_text(labels) == "{[a~x], [ab=x]}"



def test_every_step_record_is_a_step_record(needle):
    # The pinned needle-dead-ends run: three episodes end in a dead end, and
    # each charges its last record through _replace.
    phi = parse("X ([actionType=click] & X ([actionType=swipe] & X [actionType=click]))")
    result = generate(needle, phi, dataclasses.replace(LearnerConfig(), seed=3))
    records = [record for log in result.episodes for record in log.steps]
    charged = [log.steps[-1] for log in result.episodes if log.outcome == "dead_end"]
    assert len(charged) == 3 and all(record.reward == -1.0 for record in charged)
    assert {type(record) for record in records} == {StepRecord}
    record = records[0]
    assert record == tuple(record) and repr(record).startswith("StepRecord(action=GuiAction(")
    assert all(type(log) is EpisodeLog for log in result.episodes)

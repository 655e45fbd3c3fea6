"""Simulated GUI application models.

A model file declares states (attributes plus widgets), the actions enabled
in each state, and weighted transitions.  Loading keeps of each state, and
of each action, only its observation table: a dict from each key a
predicate can read to the tuple of values observed under it.  Both labeling
functions read those tables, so what a predicate key reads is decided here,
once.  An :class:`EnvSession` exposes the two observations an episode needs
from the model: the enabled actions of the current state and the sampled
successor of an executed action.

A model's step tables are keyed by objects, not ids: the enabled table
maps each ``GuiState`` to its actions, and the transition table each
``(GuiState, GuiAction)`` pair of a state and an action enabled there to
the weighted distribution of its successors, ``(GuiState, weight)`` pairs.
Both kinds of key hash by identity, so reading a session's enabled actions
and taking its step are one lookup each that hashes no string or
signature, and a step with one successor returns the state stored in the
table.

Actions are hash-consed like formula nodes (``formula.Interned``), in the
table of their class: one object per distinct action, shared by every model
that enables it, and compared and hashed by identity.  States and the model
are immutable ``formula.Frozen`` objects: a state compares by identity too,
since ids repeat across models.  A widget is a named tuple the loader validates and
reads; a loaded state keeps only what its widgets show a formula.

The pre-launch don't-care state is implicit: it is never listed in a file,
and the only actions enabled there are the reinitialize actions derived from
the file's ``initial`` map.  Loading stores them, and their transitions,
under the don't-care state like those of any other state.  ``DONT_CARE`` is
one object for the process: copies and unpickled objects come back as it,
so a copied model's launches are keyed by the state sessions reset to.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .formula import AtomicProposition, Frozen, Interned, build, intern


class ModelError(Exception):
    """Model or test file failed to load or validate."""


class ActionNotEnabled(Exception):
    """An action was executed in, or looked up for, a state that does not enable it."""


DONT_CARE_ID = "∅"

ActionSig = tuple[str, tuple[str, ...], str]
# What a predicate key reads: the values observed under it.  A predicate
# holds when it matches any of them.
Observed = dict[str, tuple[str, ...]]


class Widget(NamedTuple):
    object_id: str
    text: str = ""
    bounds: tuple[int, int, int, int] = (0, 0, 1, 1)
    checked: bool | None = None

    @property
    def center(self) -> tuple[int, int]:
        x1, y1, x2, y2 = self.bounds
        return (x1 + x2) // 2, (y1 + y2) // 2


class _Signed(Interned):
    # Built once: a step reads the signature several times.  Slots of a base
    # class, so left out of repr and pickling.
    __slots__ = ("signature", "observed")


class GuiAction(_Signed):
    """One executable gesture; ``target``/``detail`` come from the widget it
    acts on and are empty for widget-independent actions."""

    __slots__ = ("action_type", "params", "target", "detail")

    def __new__(
        cls, action_type: str, params: tuple[str, ...] = (), target: str = "", detail: str = ""
    ) -> GuiAction:
        key = (action_type, params, target, detail)
        observed = {"actionType": (action_type,), "actionDetail": (detail,), "actionObjectID": (target,)}
        return intern(cls, key, key + ((action_type, params, target), observed))

    def describe(self) -> str:
        return " ".join((self.action_type,) + self.params)


class GuiState(Frozen):
    """One screen of a model, as its observation table.  Compared and hashed
    by identity: ids repeat across models, state objects do not."""

    __slots__ = ("id", "observed")

    def __new__(cls, id: str, observed: Observed) -> GuiState:
        return build(cls, (id, observed))

    def __reduce__(self):
        # A name makes copy and pickle return the module's object itself.
        return "DONT_CARE" if self is DONT_CARE else super().__reduce__()


DONT_CARE = GuiState(DONT_CARE_ID, {})

Distribution = tuple[tuple[GuiState, float], ...]


class AppModel(Frozen):
    """Validated, immutable model; sessions over it may run in parallel.

    ``states`` maps each state id to its state.  The other two tables are
    keyed by state objects: ``enabled`` maps each ``GuiState`` to its
    actions in signature order, and ``transitions`` each ``(GuiState,
    GuiAction)`` pair, of a state and an action it enables, to the
    distribution of successors: ``(GuiState, weight)`` pairs whose weights
    sum to 1.  ``enabled`` and ``transitions`` also hold the don't-care
    state, ``DONT_CARE``, though ``states`` does not."""

    __slots__ = ("states", "enabled", "transitions")

    def __new__(
        cls,
        states: dict[str, GuiState],
        enabled: dict[GuiState, tuple[GuiAction, ...]],
        transitions: dict[tuple[GuiState, GuiAction], Distribution],
    ) -> AppModel:
        return build(cls, (states, enabled, transitions))

    def enabled_in(self, state: GuiState) -> tuple[GuiAction, ...]:
        return self.enabled[state]

    def transition(self, state: GuiState, action: GuiAction) -> Distribution:
        distribution = self.transitions.get((state, action))
        if distribution is None:
            raise ActionNotEnabled(f"state {state.id!r} has no transition for {action.describe()!r}")
        return distribution


def _fail(source: str, message: str) -> ModelError:
    return ModelError(f"{source}: {message}")


def _check_widget(raw: object, state_id: str, screen: tuple[int, int], source: str) -> Widget:
    if not isinstance(raw, dict) or not isinstance(raw.get("objectID"), str) or not raw["objectID"]:
        raise _fail(source, f"state {state_id!r}: widget needs a nonempty 'objectID'")
    bounds = raw.get("bounds")
    if (
        not isinstance(bounds, list)
        or len(bounds) != 4
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in bounds)
    ):
        raise _fail(source, f"state {state_id!r}: widget {raw['objectID']!r} needs integer bounds [x1,y1,x2,y2]")
    x1, y1, x2, y2 = bounds
    width, height = screen
    if not (0 <= x1 < x2 <= width and 0 <= y1 < y2 <= height):
        raise _fail(
            source,
            f"state {state_id!r}: widget {raw['objectID']!r} bounds {bounds} degenerate or outside {screen}",
        )
    checked = raw.get("checked")
    if checked is not None and not isinstance(checked, bool):
        raise _fail(source, f"state {state_id!r}: widget {raw['objectID']!r} 'checked' must be a boolean")
    text = raw.get("text", "")
    if not isinstance(text, str):
        raise _fail(source, f"state {state_id!r}: widget {raw['objectID']!r} 'text' must be a string")
    return Widget(raw["objectID"], text, (x1, y1, x2, y2), checked)


def _params(raw: object) -> tuple[str, ...] | None:
    """A JSON params list as the strings an action keeps, or None unless
    every param is a string or an integer (not a boolean)."""
    if not isinstance(raw, list) or not all(
        isinstance(p, str) or (isinstance(p, int) and not isinstance(p, bool)) for p in raw
    ):
        return None
    return tuple(map(str, raw))


def _check_action(
    raw: object,
    state_id: str,
    widgets: dict[str, Widget],
    source: str,
) -> tuple[GuiAction, list[tuple[str, float]]]:
    if not isinstance(raw, dict) or not isinstance(raw.get("type"), str) or not raw["type"]:
        raise _fail(source, f"state {state_id!r}: action needs a nonempty 'type'")
    action_type = raw["type"]
    if action_type == "reinitialize":
        raise _fail(source, f"state {state_id!r}: reinitialize is only available in the don't-care state")
    target = ""
    detail = ""
    if "on" in raw:
        if not isinstance(raw["on"], str):
            raise _fail(source, f"state {state_id!r}: action {action_type!r} 'on' must be a widget id string")
        if raw["on"] not in widgets:
            raise _fail(source, f"state {state_id!r}: action {action_type!r} targets unknown widget {raw['on']!r}")
        widget = widgets[raw["on"]]
        target = widget.object_id
        detail = widget.text
    params = _params(raw.get("params", []))
    if params is None:
        raise _fail(source, f"state {state_id!r}: action {action_type!r} params must be strings or integers")
    if action_type == "click":
        if not target:
            raise _fail(source, f"state {state_id!r}: click actions need an 'on' widget reference")
        if params:
            raise _fail(source, f"state {state_id!r}: click params are derived from the widget center")
        params = tuple(str(c) for c in widgets[target].center)
    raw_transitions = raw.get("transitions")
    if not isinstance(raw_transitions, list) or not raw_transitions:
        raise _fail(source, f"state {state_id!r}: action {action_type!r} needs a nonempty 'transitions' list")
    arrows: list[tuple[str, float]] = []
    for entry in raw_transitions:
        if not isinstance(entry, dict) or not isinstance(entry.get("to"), str):
            raise _fail(source, f"state {state_id!r}: action {action_type!r} transition needs a 'to' state id")
        weight = entry.get("weight", 1.0)
        if (
            isinstance(weight, bool)
            or not isinstance(weight, (int, float))
            or not math.isfinite(weight)
            or weight <= 0
        ):
            raise _fail(
                source,
                f"state {state_id!r}: action {action_type!r} transition weight must be positive"
                f" and finite, got {weight!r}",
            )
        arrows.append((entry["to"], float(weight)))
    total = sum(w for _, w in arrows)
    if abs(total - 1.0) > 1e-9:
        raise _fail(
            source,
            f"state {state_id!r}: action {action_type!r} transition weights sum to {total:g}, expected 1",
        )
    return GuiAction(action_type, params, target, detail), arrows


def model_from_dict(data: object, source: str = "<model>") -> AppModel:
    """Build and validate a model from already-parsed JSON data."""
    if not isinstance(data, dict):
        raise _fail(source, "model must be a JSON object")
    screen_raw = data.get("screen")
    if (
        not isinstance(screen_raw, list)
        or len(screen_raw) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in screen_raw)
    ):
        raise _fail(source, "'screen' must be a pair of positive integers")
    screen = (screen_raw[0], screen_raw[1])
    initial_raw = data.get("initial")
    if (
        not isinstance(initial_raw, dict)
        or not initial_raw
        or not all(isinstance(k, str) and isinstance(v, str) for k, v in initial_raw.items())
    ):
        raise _fail(source, "'initial' must map at least one launchable activity to a state id")
    states_raw = data.get("states")
    if not isinstance(states_raw, list) or not states_raw:
        raise _fail(source, "'states' must be a nonempty list")

    states: dict[str, GuiState] = {}
    enabled: dict[GuiState, tuple[GuiAction, ...]] = {}
    # Successors by id until every state is built: (state id, action, arrows).
    arrows_of: list[tuple[str, GuiAction, list[tuple[str, float]]]] = []

    for raw_state in states_raw:
        if not isinstance(raw_state, dict) or not isinstance(raw_state.get("id"), str) or not raw_state["id"]:
            raise _fail(source, "every state needs a nonempty string 'id'")
        state_id = raw_state["id"]
        if state_id == DONT_CARE_ID:
            raise _fail(source, f"state id {DONT_CARE_ID!r} is reserved for the don't-care state")
        if state_id in states:
            raise _fail(source, f"duplicate state id {state_id!r}")
        attributes = raw_state.get("attributes")
        if not isinstance(attributes, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in attributes.items()
        ):
            raise _fail(source, f"state {state_id!r}: 'attributes' must map strings to strings")
        for required in ("activity", "package"):
            if required not in attributes:
                raise _fail(source, f"state {state_id!r}: missing required attribute {required!r}")
        raw_widgets = raw_state.get("widgets", [])
        if not isinstance(raw_widgets, list):
            raise _fail(source, f"state {state_id!r}: 'widgets' must be a list")
        widgets: dict[str, Widget] = {}
        for raw_widget in raw_widgets:
            widget = _check_widget(raw_widget, state_id, screen, source)
            if widget.object_id in widgets:
                raise _fail(source, f"state {state_id!r}: duplicate widget id {widget.object_id!r}")
            widgets[widget.object_id] = widget
        observed: Observed = {
            "text": tuple(w.text for w in widgets.values()),
            "objectID": tuple(widgets),
            "checked": tuple(
                "true" if w.checked else "false" for w in widgets.values() if w.checked is not None
            ),
        }
        for key, value in attributes.items():
            # The widget keys read the widgets, and a key starting with
            # "action" parses as an action predicate.
            if key in observed or key.startswith("action"):
                raise _fail(source, f"state {state_id!r}: no formula can read attribute {key!r}")
            observed[key] = (value,)
        raw_actions = raw_state.get("actions")
        if not isinstance(raw_actions, list) or not raw_actions:
            raise _fail(source, f"state {state_id!r}: needs at least one enabled action")
        actions: list[GuiAction] = []
        seen_visible: set[tuple[str, tuple[str, ...]]] = set()
        for raw_action in raw_actions:
            action, arrows = _check_action(raw_action, state_id, widgets, source)
            if (action.action_type, action.params) in seen_visible:
                raise _fail(
                    source,
                    f"state {state_id!r}: duplicate action {action.describe()!r}",
                )
            seen_visible.add((action.action_type, action.params))
            actions.append(action)
            arrows_of.append((state_id, action, arrows))
        state = states[state_id] = GuiState(state_id, observed)
        enabled[state] = tuple(sorted(actions, key=lambda a: a.signature))

    transitions: dict[tuple[GuiState, GuiAction], Distribution] = {}
    for state_id, action, arrows in arrows_of:
        for target, _ in arrows:
            if target not in states:
                raise _fail(
                    source,
                    f"state {state_id!r}: action {action.describe()!r} targets unknown state {target!r}",
                )
        transitions[(states[state_id], action)] = tuple((states[to], w) for to, w in arrows)
    for activity, target in initial_raw.items():
        if target not in states:
            raise _fail(source, f"initial activity {activity!r} targets unknown state {target!r}")
    launches = tuple(GuiAction("reinitialize", (activity,)) for activity in sorted(initial_raw))
    for launch in launches:
        transitions[(DONT_CARE, launch)] = ((states[initial_raw[launch.params[0]]], 1.0),)
    enabled[DONT_CARE] = launches

    return AppModel(states, enabled, transitions)


def _read_json(path: Path) -> object:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ModelError(f"{path}: JSON nested too deeply") from None


def load_model(path: str | Path) -> AppModel:
    """Load and validate a model file."""
    path = Path(path)
    return model_from_dict(_read_json(path), source=str(path))


class EnvSession:
    """Single-owner episode driver over a shared immutable model.

    The successor of a stochastic transition is sampled from the session's
    own seeded generator, so a fixed seed replays the same state sequence
    for the same action sequence.  The generator is seeded at its first
    draw, so a session that meets no stochastic transition seeds none.
    """

    __slots__ = ("model", "_seed", "_rng", "current")

    def __init__(self, model: AppModel, seed: int = 0):
        self.model = model
        self._seed = seed
        self._rng: random.Random | None = None
        self.current = DONT_CARE

    def reset(self) -> None:
        self.current = DONT_CARE

    def enabled_actions(self) -> tuple[GuiAction, ...]:
        return self.model.enabled[self.current]

    def execute(self, action: GuiAction) -> GuiState:
        # Every enabled action has a transition, so a miss is a disabled action.
        distribution = self.model.transitions.get((self.current, action))
        if distribution is None:
            raise ActionNotEnabled(
                f"{action.describe()!r} is not enabled in state {self.current.id!r}"
            )
        if len(distribution) == 1:
            target = distribution[0][0]
        else:
            if self._rng is None:
                self._rng = random.Random(self._seed)
            roll = self._rng.random()
            acc = 0.0
            target = distribution[-1][0]
            for state, weight in distribution:
                acc += weight
                if roll < acc:
                    target = state
                    break
        self.current = target
        return target


def state_labeling(state: GuiState, alphabet: Iterable[AtomicProposition]) -> frozenset[AtomicProposition]:
    """Predicates from the alphabet that hold on the state's attributes and widgets."""
    return _labeling(state.observed, alphabet)


def action_labeling(action: GuiAction, alphabet: Iterable[AtomicProposition]) -> frozenset[AtomicProposition]:
    """Predicates from the alphabet that hold on the action, known before execution."""
    return _labeling(action.observed, alphabet)


def _labeling(observed: Observed, alphabet: Iterable[AtomicProposition]) -> frozenset[AtomicProposition]:
    # No key is observed by both states and actions, so each labeling skips
    # the predicates of the other kind.
    return frozenset(ap for ap in alphabet if any(map(ap.matches, observed.get(ap.key, ()))))


def save_test(path: str | Path, actions: Sequence[GuiAction]) -> None:
    """Write a replayable test file: the ordered action records of a trace."""
    records = [{"type": a.action_type, "params": list(a.params)} for a in actions]
    Path(path).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")


def load_test(path: str | Path) -> list[tuple[str, tuple[str, ...]]]:
    """Read a replayable test file back as (type, params) records."""
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, list):
        raise ModelError(f"{path}: test file must be a JSON list of action records")
    if not data:
        # A replay of no actions ends exhausted, as if a budget had run out.
        raise ModelError(f"{path}: test file has no action records")
    records = []
    for index, entry in enumerate(data):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("type"), str)
            or not isinstance(entry.get("params", []), list)
        ):
            raise ModelError(f"{path}: record {index} must be {{'type': ..., 'params': [...]}}")
        params = _params(entry.get("params", []))
        if params is None:
            raise ModelError(f"{path}: record {index} params must be strings or integers")
        records.append((entry["type"], params))
    return records

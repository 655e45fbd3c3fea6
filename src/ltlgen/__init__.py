"""Test generation for simulated GUI apps from finite-trace temporal specs.

A formula over state and action predicates doubles as the search objective
and the test oracle: an episode loop learns, by reinforcement, an action
sequence whose execution trace satisfies the formula, and emits it as a
replayable test.

The package exports the library API.  The stages the engine composes each
step (``expand``, ``restrict``, ``advance`` and ``shaped_reward``, the
labelings and the predicate counts and sets) stay public in the modules
that define them.
"""

from .engine import (
    Decision,
    LearnerConfig,
    QStore,
    anneal,
    decide_next_action,
    generate,
    learn,
    policy_probabilities,
    prune_and_predict,
    random_policy_generate,
    replay,
)
from .formula import (
    And,
    Atom,
    AtomicProposition,
    FALSE,
    Formula,
    Next,
    Not,
    TRUE,
    Truth,
    Until,
    Verdict,
    render,
    simplify,
)
from .model import (
    ActionNotEnabled,
    DONT_CARE,
    EnvSession,
    GuiAction,
    ModelError,
    load_model,
    load_test,
    model_from_dict,
    save_test,
)
from .parser import ParseError, parse
from .progression import evaluate, projection

__version__ = "0.1.0"

__all__ = [
    "And",
    "Atom",
    "AtomicProposition",
    "ActionNotEnabled",
    "DONT_CARE",
    "Decision",
    "EnvSession",
    "FALSE",
    "Formula",
    "GuiAction",
    "LearnerConfig",
    "ModelError",
    "Next",
    "Not",
    "ParseError",
    "QStore",
    "TRUE",
    "Truth",
    "Until",
    "Verdict",
    "anneal",
    "decide_next_action",
    "evaluate",
    "generate",
    "learn",
    "load_model",
    "load_test",
    "model_from_dict",
    "parse",
    "policy_probabilities",
    "projection",
    "prune_and_predict",
    "random_policy_generate",
    "render",
    "replay",
    "save_test",
    "simplify",
]

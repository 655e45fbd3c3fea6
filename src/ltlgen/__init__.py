"""Test generation for simulated GUI apps from finite-trace temporal specs.

A formula over state and action predicates doubles as the search objective
and the test oracle: an episode loop learns, by reinforcement, an action
sequence whose execution trace satisfies the formula, and emits it as a
replayable test.
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
    atom_set,
    count_atoms,
    render,
    simplify,
)
from .model import (
    ActionNotEnabled,
    DONT_CARE,
    EnvSession,
    GuiAction,
    ModelError,
    action_labeling,
    load_model,
    load_test,
    model_from_dict,
    save_test,
    state_labeling,
)
from .parser import ParseError, parse
from .progression import advance, evaluate, expand, projection, restrict, shaped_reward

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
    "action_labeling",
    "advance",
    "anneal",
    "atom_set",
    "count_atoms",
    "decide_next_action",
    "evaluate",
    "expand",
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
    "restrict",
    "save_test",
    "shaped_reward",
    "simplify",
    "state_labeling",
]

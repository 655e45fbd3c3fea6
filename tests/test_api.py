"""What ``import ltlgen`` exports: the library API, not the step's stages."""

import importlib

import pytest

import ltlgen

EXPORTED = (
    "ActionNotEnabled",
    "And",
    "Atom",
    "AtomicProposition",
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
)

# The stages the engine composes each step, by the module that defines them.
STAGES = {
    "expand": "progression",
    "restrict": "progression",
    "advance": "progression",
    "shaped_reward": "progression",
    "count_atoms": "formula",
    "atom_set": "formula",
    "action_labeling": "model",
    "state_labeling": "model",
}


def test_the_package_exports_the_library_api():
    assert sorted(ltlgen.__all__) == sorted(EXPORTED)
    assert all(hasattr(ltlgen, name) for name in ltlgen.__all__)


@pytest.mark.parametrize("name", sorted(STAGES))
def test_a_step_stage_lives_only_in_its_module(name):
    assert not hasattr(ltlgen, name)
    module = importlib.import_module(f"ltlgen.{STAGES[name]}")
    stage = getattr(module, name)
    assert stage.__module__ == module.__name__

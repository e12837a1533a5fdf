"""The public surface: every exported name exists, so ``from gtproj import *``
cannot fail, and the exported names are exactly the reviewed list."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import gtproj

from . import reference


def test_every_exported_name_exists():
    modules = [gtproj] + [
        importlib.import_module(f"gtproj.{info.name}")
        for info in pkgutil.iter_modules(gtproj.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


#: Every name ``gtproj`` exports; adding or removing one is a reviewed change.
PUBLIC = [
    "AsyncEvent",
    "AvailableMessageQuery",
    "AvailableMessageResult",
    "Branch",
    "Choice",
    "Csm",
    "CsmConfiguration",
    "Direction",
    "END",
    "End",
    "ExplorationReport",
    "FidelityReport",
    "GlobalType",
    "IllFormedProtocolError",
    "InternalError",
    "LocalNfa",
    "Message",
    "NotEnabled",
    "ParseError",
    "Rec",
    "ReceiveViolationDetails",
    "Role",
    "SendViolationDetails",
    "StepFailure",
    "SubsetMachine",
    "SubsetState",
    "SyncAutomaton",
    "SyncEvent",
    "ValidityViolation",
    "Var",
    "Verdict",
    "ViolationKind",
    "WellFormednessReport",
    "WellFormednessRule",
    "WellFormednessViolation",
    "available_messages",
    "bounded_fidelity_check",
    "build_counterexample",
    "build_gaut",
    "build_projections",
    "check_implementability",
    "check_no_mixed_choice",
    "check_receive_validity",
    "check_send_validity",
    "csm_step",
    "determinize",
    "erase",
    "erase_label",
    "exchange",
    "explore",
    "format_trace",
    "generate_gk",
    "initial_configuration",
    "intersection_witness",
    "machine_to_dot",
    "measure_size",
    "messages_of",
    "nfa_to_dot",
    "parse_global_type",
    "parse_trace",
    "pretty",
    "pretty_inline",
    "project_word",
    "receive",
    "replay_trace",
    "roles_of",
    "send",
    "split_event",
    "split_word",
    "subset_construction",
    "subterms",
    "sync_to_dot",
    "validate_well_formedness",
]


def test_the_exported_names_are_the_reviewed_list():
    assert sorted(gtproj.__all__) == PUBLIC


@pytest.mark.parametrize(
    "name",
    [
        "BudgetExhausted",
        "indistinguishable_finite",
        "check_channel_compliance",
        "bounded_local_language_check",
    ],
)
def test_test_only_oracles_live_in_the_tests(name):
    assert hasattr(reference, name)
    assert not hasattr(gtproj, name)

"""Independent oracles: trace equivalence, run intersection, bounded fidelity."""
from __future__ import annotations

from random import Random

import pytest

from gtproj import (
    BudgetExhausted,
    Csm,
    END,
    Message,
    Role,
    RunPrefix,
    SubsetMachine,
    SyncEvent,
    bounded_fidelity_check,
    build_gaut,
    build_projections,
    check_implementability,
    explore,
    generate_gk,
    indistinguishable_finite,
    intersection_witness,
    parse_global_type,
    parse_trace,
    replay_trace,
    roles_of,
    send,
    split_word,
    subset_construction,
    validate_well_formedness,
)
from gtproj.corpus import load

P, Q, R = Role("p"), Role("q"), Role("r")


def system_for(g) -> Csm:
    _, table = build_projections(g)
    return Csm({role: machine for role, (_, machine) in table.items()})


# --------------------------------------------------------------------------- #
# Trace equivalence up to reordering of independent events
# --------------------------------------------------------------------------- #


def test_every_word_is_equivalent_to_itself():
    w = parse_trace("p>q!a.q<p?a")
    assert indistinguishable_finite(w, w, budget=0)


def test_unrelated_events_commute():
    assert indistinguishable_finite(
        parse_trace("p>q!a.r>s!b"), parse_trace("r>s!b.p>q!a")
    )


def test_send_commutes_forward_over_unmatched_receive():
    assert indistinguishable_finite(
        parse_trace("p>q!a.p>q!b.q<p?a"), parse_trace("p>q!a.q<p?a.p>q!b")
    )


def test_matched_send_receive_pair_does_not_commute():
    assert not indistinguishable_finite(
        parse_trace("p>q!a.q<p?a"), parse_trace("q<p?a.p>q!a")
    )


def test_events_of_one_role_do_not_commute():
    assert not indistinguishable_finite(
        parse_trace("p>q!a.p>r!b"), parse_trace("p>r!b.p>q!a")
    )


def test_receives_by_different_roles_commute():
    assert indistinguishable_finite(
        parse_trace("p>q!a.p>r!b.q<p?a.r<p?b"),
        parse_trace("p>q!a.p>r!b.r<p?b.q<p?a"),
    )


def test_different_multisets_are_distinguished_quickly():
    assert not indistinguishable_finite(
        parse_trace("p>q!a"), parse_trace("p>q!b"), budget=0
    )
    assert not indistinguishable_finite(parse_trace("p>q!a"), (), budget=0)


def test_same_role_reorderings_are_distinguished_quickly():
    # same multiset, but p's own order differs; caught without search
    assert not indistinguishable_finite(
        parse_trace("p>q!a.p>q!b"), parse_trace("p>q!b.p>q!a"), budget=0
    )


def test_single_swap_answers_need_no_budget():
    assert indistinguishable_finite(
        parse_trace("p>q!a.r>s!b"), parse_trace("r>s!b.p>q!a"), budget=0
    )


def test_budget_zero_aborts_a_real_search():
    # reversing three pairwise-independent events needs intermediate words
    with pytest.raises(BudgetExhausted):
        indistinguishable_finite(
            parse_trace("p>q!a.r>s!b.t>u!c"),
            parse_trace("t>u!c.r>s!b.p>q!a"),
            budget=0,
        )


# --------------------------------------------------------------------------- #
# Intersection with the protocol's runs
# --------------------------------------------------------------------------- #


def test_empty_word_is_consistent():
    g = load("g_s")
    witness = intersection_witness(g, ())
    assert isinstance(witness, RunPrefix)
    assert witness.start == g
    assert witness.trace() == ()


def test_full_branch_split_is_consistent():
    g = load("g_s")
    sync = (SyncEvent(P, Q, Message("o")), SyncEvent(R, Q, Message("o")))
    word = split_word(sync)
    witness = intersection_witness(g, word)
    assert witness is not None
    assert witness.end() == END
    assert witness.trace() == sync


def test_prefixes_of_consistent_words_are_consistent():
    g = load("g_s")
    word = split_word((SyncEvent(P, Q, Message("m")), SyncEvent(R, Q, Message("m"))))
    for cut in range(len(word) + 1):
        assert intersection_witness(g, word[:cut]) is not None


def test_cross_branch_mixture_is_inconsistent():
    g = load("g_s")
    assert intersection_witness(g, parse_trace("p>q!o.q<p?o.r>q!m")) is None


def test_foreign_role_is_inconsistent():
    g = load("g_s")
    assert intersection_witness(g, parse_trace("z>p!o")) is None


def test_inconsistency_is_stable_under_extension():
    g = load("g_s")
    base = parse_trace("p>q!o.q<p?o.r>q!m")
    assert intersection_witness(g, base) is None
    for extra in parse_trace("q<r?m.p>q!o"):
        assert intersection_witness(g, base + (extra,)) is None


def test_consistency_agrees_on_equivalent_words():
    g = parse_global_type("p->q:m . r->s:a . 0")
    u = parse_trace("p>q!m.q<p?m.r>s!a.s<r?a")
    v = parse_trace("r>s!a.p>q!m.q<p?m.s<r?a")
    assert indistinguishable_finite(u, v)
    assert intersection_witness(g, u) is not None
    assert intersection_witness(g, v) is not None


def test_explored_machine_traces_of_good_protocols_are_consistent():
    g = load("g_s_prime")
    report = explore(system_for(g), keep_traces=True)
    for trace in report.trace_prefixes:
        assert intersection_witness(g, trace) is not None


def test_accepts_a_prebuilt_automaton():
    g = load("g_s")
    a = build_gaut(g)
    assert intersection_witness(g, (), automaton=a) is not None


# --------------------------------------------------------------------------- #
# Bounded fidelity
# --------------------------------------------------------------------------- #


def test_fidelity_passes_on_an_implementable_protocol():
    g = load("g_r_prime")
    report = bounded_fidelity_check(g, system_for(g))
    assert report.ok
    assert report.obligation is None and report.witness is None
    assert report.run_prefixes_checked > 0
    assert report.csm_traces_checked > 0


def test_fidelity_catches_the_racing_receiver():
    g = load("g_r")
    report = bounded_fidelity_check(g, system_for(g))
    assert not report.ok
    assert report.obligation == "intersection"
    # the witness is machine behaviour that no protocol run explains
    replay_trace(system_for(g), report.witness)
    assert intersection_witness(g, report.witness) is None


def test_fidelity_catches_the_uninformed_sender():
    g = load("g_s")
    report = bounded_fidelity_check(g, system_for(g))
    assert not report.ok
    assert report.obligation == "intersection"
    assert intersection_witness(g, report.witness) is None


def test_fidelity_reports_missing_machine_behaviour_as_replay():
    g = parse_global_type("p->q:m . 0")
    _, table = build_projections(g)
    machines = {role: machine for role, (_, machine) in table.items()}
    # cripple q: remove its only transition so the protocol cannot replay
    q_machine = machines[Q]
    machines[Q] = SubsetMachine(
        Q, q_machine.nodes, q_machine.masks[:1], ((),), q_machine.events, 0
    )
    report = bounded_fidelity_check(g, Csm(machines))
    assert not report.ok
    assert report.obligation == "replay"


def test_fidelity_reports_a_pure_deadlock():
    g = parse_global_type("p->q:m . 0")
    _, table = build_projections(g)
    machines = {role: machine for role, (_, machine) in table.items()}
    # q keeps its behaviour but loses its final marking: every run now ends
    # in a non-final configuration with no enabled event
    q_machine = machines[Q]
    machines[Q] = SubsetMachine(
        Q, q_machine.nodes, q_machine.masks, q_machine.arcs, q_machine.events, 0
    )
    report = bounded_fidelity_check(g, Csm(machines))
    assert not report.ok
    assert report.obligation == "deadlock"


# --------------------------------------------------------------------------- #
# The scalable family
# --------------------------------------------------------------------------- #


def test_family_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        generate_gk(0)


def test_family_members_are_well_formed_and_implementable():
    for k in range(1, 5):
        g = generate_gk(k)
        assert validate_well_formedness(g).ok
        assert check_implementability(g).implementable


#: Summed member counts of q's machine states for k = 1..10.
GK_MEMBERS = (19, 47, 111, 255, 575, 1279, 2815, 6143, 13311, 28671)


def test_family_blows_up_the_receiver_machine():
    for k, members in enumerate(GK_MEMBERS, start=1):
        m = subset_construction(generate_gk(k), Q)
        assert len(m.states) == 2 ** (k + 1) + 2, k
        assert len(m.transitions) == 5 * 2**k, k
        assert sum(map(len, m.states)) == members, k


def test_family_choices_are_directed_at_one_receiver():
    g = generate_gk(3)
    stack, seen = [g], set()
    while stack:
        node = stack.pop()
        if node.intern_id in seen:
            continue
        seen.add(node.intern_id)
        if hasattr(node, "branches"):
            assert len({b.receiver for b in node.branches}) == 1
            stack.extend(b.continuation for b in node.branches)
        elif hasattr(node, "body"):
            stack.append(node.body)


# --------------------------------------------------------------------------- #
# Run prefixes
# --------------------------------------------------------------------------- #


def test_run_prefix_validates_edge_chaining():
    g = load("g_s")
    a = build_gaut(g)
    (first,) = [e for e in a.out(g) if e[1] == SyncEvent(P, Q, Message("o"))]
    with pytest.raises(ValueError):
        RunPrefix(g, (first, first))  # second edge does not start where first ends

"""Protocol automaton, event splitting/erasure, traces, DOT output."""
from __future__ import annotations

from random import Random

import pytest

from gtproj import (
    AsyncEvent,
    AvailableMessageQuery,
    Branch,
    Choice,
    Direction,
    END,
    IllFormedProtocolError,
    Message,
    Rec,
    Role,
    SyncEvent,
    Var,
    WellFormednessRule,
    available_messages,
    build_gaut,
    build_projections,
    erase,
    erase_label,
    exchange,
    format_trace,
    generate_gk,
    intersection_witness,
    measure_size,
    nfa_to_dot,
    parse_global_type,
    parse_trace,
    project_word,
    receive,
    send,
    split_event,
    split_word,
    subset_construction,
    sync_to_dot,
    validate_well_formedness,
)
from gtproj.automata import _closures, _select
from gtproj.corpus import load, names

from .strategies import random_global_type

P, Q, R = Role("p"), Role("q"), Role("r")
O, M = Message("o"), Message("m")


# --------------------------------------------------------------------------- #
# Events
# --------------------------------------------------------------------------- #


def test_sync_event_rejects_self_communication():
    with pytest.raises(ValueError):
        SyncEvent(P, P, M)


def test_async_event_rejects_equal_active_and_peer():
    with pytest.raises(ValueError):
        AsyncEvent(Direction.SEND, P, P, M)


def test_event_formatting():
    assert str(SyncEvent(P, Q, M)) == "p->q:m"
    assert str(send(P, Q, M)) == "p>q!m"
    assert str(receive(Q, P, M)) == "q<p?m"


def test_split_event():
    assert split_event(SyncEvent(P, Q, M)) == (send(P, Q, M), receive(Q, P, M))


def test_split_word_interleaves_in_order():
    w = (SyncEvent(P, Q, O), SyncEvent(R, Q, M))
    assert split_word(w) == (
        send(P, Q, O),
        receive(Q, P, O),
        send(R, Q, M),
        receive(Q, R, M),
    )


def test_erase_label():
    e = SyncEvent(P, Q, M)
    assert erase_label(e, P) == send(P, Q, M)
    assert erase_label(e, Q) == receive(Q, P, M)
    assert erase_label(e, R) is None


def test_project_word():
    w = (send(P, Q, O), receive(Q, P, O), send(R, Q, M))
    assert project_word(w, P) == (send(P, Q, O),)
    assert project_word(w, Q) == (receive(Q, P, O),)
    assert project_word(w, R) == (send(R, Q, M),)


# --------------------------------------------------------------------------- #
# Traces as text
# --------------------------------------------------------------------------- #


def test_trace_text_round_trip():
    text = "p>q!o.q<p?o.r>q!m"
    assert format_trace(parse_trace(text)) == text
    assert parse_trace("") == ()


@pytest.mark.parametrize("bad", ["p>q?m", "p<q!m", "pq!m", "p>q!m.", "hello"])
def test_parse_trace_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_trace(bad)


# --------------------------------------------------------------------------- #
# The protocol automaton
# --------------------------------------------------------------------------- #


def test_gaut_of_two_branch_choice():
    g = load("g_s")
    a = build_gaut(g)
    top_o = parse_global_type("r->q:o . 0")
    top_m = parse_global_type("r->q:m . 0")
    assert set(a.states) == {g, top_o, top_m, END}
    assert set(a.transitions) == {
        (g, SyncEvent(P, Q, O), top_o),
        (g, SyncEvent(P, Q, M), top_m),
        (top_o, SyncEvent(R, Q, O), END),
        (top_m, SyncEvent(R, Q, M), END),
    }
    assert a.initial == g
    assert a.finals == frozenset((END,))
    assert top_o in a
    assert len(a.states) + len(a.transitions) == measure_size(g) == 8


def test_gaut_of_recursion_uses_silent_unfold_and_loop_edges():
    g = parse_global_type("mu t . p->q:o . t")
    a = build_gaut(g)
    choice = g.body
    var = choice.branches[0].continuation
    assert set(a.states) == {g, choice, var, END}
    assert set(a.transitions) == {
        (g, None, choice),
        (choice, SyncEvent(P, Q, O), var),
        (var, None, g),
    }
    # End is always a state (it is the only final), even when unreachable;
    # the size measure counts reachable states only.
    assert a.finals == frozenset((END,))
    assert measure_size(g) == 6


def test_gaut_rejects_unbound_variable():
    with pytest.raises(ValueError):
        build_gaut(parse_global_type("p->q:m . t"))


def _ill_formed(rule):
    """A hand-built protocol that breaks ``rule`` and no other rule."""
    if rule is WellFormednessRule.BRANCH_DISTINCTNESS:
        return Choice(P, (Branch(Q, M, END), Branch(Q, M, END)))
    if rule is WellFormednessRule.SELF_COMMUNICATION:
        return exchange(P, P, M, END)
    if rule is WellFormednessRule.UNGUARDED:
        return Rec("t", Rec("u", Var("t")))
    binder = Rec("t", exchange(P, Q, O, Var("t")))
    if rule is WellFormednessRule.UNBOUND_VARIABLE:
        # branch order meets the variable first, outside its binder
        return Choice(R, (Branch(P, O, Var("t")), Branch(Q, M, binder)))
    # the parser refuses a reused binder name; a hand-built AST can have one
    other = Rec("t", exchange(P, Q, M, Var("t")))
    return Choice(R, (Branch(P, O, binder), Branch(Q, M, other)))


@pytest.mark.parametrize("rule", WellFormednessRule, ids=lambda rule: rule.value)
def test_every_automaton_builder_refuses_an_ill_formed_protocol(rule):
    g = _ill_formed(rule)
    report = validate_well_formedness(g)
    assert [v.rule for v in report.violations] == [rule]
    for build in (
        build_gaut,
        lambda g: subset_construction(g, P),
        build_projections,
        lambda g: intersection_witness(g, ()),
        lambda g: available_messages(g, AvailableMessageQuery(g, frozenset())),
    ):
        with pytest.raises(IllFormedProtocolError) as info:
            build(g)
        assert info.value.report == report


def test_gaut_rejects_a_hand_built_unbound_variable():
    with pytest.raises(
        IllFormedProtocolError,
        match=r"^protocol is not well-formed: recursion variable 't' is not bound here$",
    ) as info:
        build_gaut(exchange(P, Q, M, Var("t")))
    assert [v.rule for v in info.value.report.violations] == [
        WellFormednessRule.UNBOUND_VARIABLE
    ]


def test_gaut_links_a_variable_met_before_its_binder():
    # branch order meets the variable first, outside its binder: there it is
    # unbound, so build_gaut refuses the protocol rather than linking the
    # variable to the binder met later
    var = Var("t")
    binder = Rec("t", exchange(P, Q, O, var))
    g = Choice(R, (Branch(P, O, var), Branch(Q, M, binder)))
    with pytest.raises(IllFormedProtocolError) as info:
        build_gaut(g)
    (violation,) = info.value.report.violations
    assert violation.rule is WellFormednessRule.UNBOUND_VARIABLE
    # the same binder, reached before its variable, is linked
    a = build_gaut(binder)
    inner = binder.body
    assert a.states == (binder, inner, var, END)
    assert a.out(var) == ((var, None, binder),)
    assert a.transitions == (
        (binder, None, inner),
        (inner, SyncEvent(P, Q, O), var),
        (var, None, binder),
    )


def test_gaut_out_groups_by_source():
    a = build_gaut(load("g_s"))
    labels = {label for _, label, _ in a.out(a.initial)}
    assert labels == {SyncEvent(P, Q, O), SyncEvent(P, Q, M)}


def test_succ_indexes_each_states_edges():
    rng = Random(7)
    protocols = [load(name) for name in names()] + [generate_gk(k) for k in range(1, 5)]
    protocols += [random_global_type(rng, max_size=25) for _ in range(200)]
    for g in protocols:
        a = build_gaut(g)
        assert len(a.succ) == len(a.states)
        for i, entries in enumerate(a.succ):
            # exactly the edges with source i, by ascending position
            positions = [j for j, (src, _, _) in enumerate(a.edges) if src == i]
            assert [entry[0] for entry in entries] == positions, g
            for j, k, tgt, halves in entries:
                assert a.edges[j] == (i, k, tgt), g
                if k is None:
                    assert halves == (), g
                    continue
                sender, receiver = a.ends[k]
                assert halves == ((sender, 2 * k), (receiver, 2 * k + 1)), g
                send_half, receive_half = a.events[2 * k], a.events[2 * k + 1]
                assert send_half.is_send and not receive_half.is_send, g
                assert a.roles[sender] == send_half.active == receive_half.peer, g
                assert a.roles[receiver] == receive_half.active == send_half.peer, g
            state = a.states[i]
            assert a.out(state) == tuple(t for t in a.transitions if t[0] == state), g


# --------------------------------------------------------------------------- #
# Per-role erasure
# --------------------------------------------------------------------------- #


def view_edges(nfa) -> list:
    """The view's edges as (state, event or None, state), in edge order."""
    states, events = nfa.states, nfa.events
    return [
        (states[src], None if r is None else events[r], states[tgt])
        for src, r, tgt in nfa.edges
    ]


def test_gaut_edges_number_the_distinct_labels():
    a = build_gaut(load("g_s"))
    # each distinct label once, in order of first appearance
    labels = [label for _, label, _ in a.transitions if label is not None]
    assert list(a.labels) == list(dict.fromkeys(labels))
    assert len(a.labels) == 4
    assert [
        (a.states[src], None if k is None else a.labels[k], a.states[tgt])
        for src, k, tgt in a.edges
    ] == list(a.transitions)
    assert a.label_number == {
        (e.sender.name, e.receiver.name, e.message.label): k
        for k, e in enumerate(a.labels)
    }
    # the halves are numbered by label: send 2k, receive 2k + 1, between
    # the roles that ``ends`` numbers
    assert a.events == split_word(a.labels)
    assert [(a.roles[s], a.roles[r]) for s, r in a.ends] == [
        (e.sender, e.receiver) for e in a.labels
    ]


def test_erase_relabels_one_to_one():
    g = load("g_s")
    a = build_gaut(g)
    top_o = parse_global_type("r->q:o . 0")
    top_m = parse_global_type("r->q:m . 0")

    for_r = erase(a, R)
    assert for_r.role == R
    assert set(view_edges(for_r)) == {
        (g, None, top_o),
        (g, None, top_m),
        (top_o, send(R, Q, O), END),
        (top_m, send(R, Q, M), END),
    }

    for_p = erase(a, P)
    assert set(view_edges(for_p)) == {
        (g, send(P, Q, O), top_o),
        (g, send(P, Q, M), top_m),
        (top_o, None, END),
        (top_m, None, END),
    }


def test_event_number_finds_each_half_and_nothing_else():
    unknown = Message("unknown")
    for g in [load(name) for name in names()] + [generate_gk(3)]:
        a = build_gaut(g)
        for label in a.labels:
            for e in split_event(label):
                assert a.events[a.event_number(e)] == e
            assert a.event_number(send(label.sender, label.receiver, unknown)) == -1
            assert a.event_number(receive(Role("nobody"), label.sender, label.message)) == -1
            # read the wrong way round, a half is the other direction's label
            reverse = a.label_number.get(
                (label.receiver.name, label.sender.name, label.message.label)
            )
            wrong = send(label.receiver, label.sender, label.message)
            assert a.event_number(wrong) == (-1 if reverse is None else 2 * reverse)
    a = build_gaut(parse_global_type("p->q:m . 0"))
    assert a.event_number(send(Q, P, M)) == -1
    assert a.event_number(receive(P, Q, M)) == -1


def test_views_share_the_automatons_halves():
    rng = Random(7)
    protocols = [load(name) for name in names()] + [generate_gk(3)]
    protocols += [random_global_type(rng, max_size=25) for _ in range(200)]
    for g in protocols:
        a = build_gaut(g)
        for p in a.roles:
            view = erase(a, p)
            for (_, k, _), (_, r, _) in zip(a.edges, view.edges):
                if r is None:
                    assert k is None or erase_label(a.labels[k], p) is None
                    continue
                assert any(view.events[r] is e for e in a.events)
                assert view.events[r] == erase_label(a.labels[k], p)
        outsider = erase(a, Role("outsider"))
        assert outsider.events == ()
        assert all(r is None for _, r, _ in outsider.edges)


def test_eps_closure_of_is_reflexive_and_transitive():
    g = parse_global_type("mu t . p->q:o . t")
    nfa = erase(build_gaut(g), R)  # every edge is silent for r
    closure = frozenset(nfa.members(nfa.closures[nfa.bit[g]]))
    assert closure == frozenset(nfa.states) - {END}



def test_select_reads_only_the_set_bits():
    seq = list(range(200))
    assert list(_select(seq, 0)) == []
    assert list(_select(seq, 1)) == [0]
    assert list(_select(seq, 1 << 150 | 1 << 70)) == [70, 150]
    rng = Random(5)
    for _ in range(200):
        mask = rng.getrandbits(200)
        assert list(_select(seq, mask)) == [i for i in seq if mask >> i & 1]


def test_closures_match_a_plain_search():
    rng = Random(9)
    for _ in range(300):
        n = rng.randint(1, 12)
        step = [0] * n
        for _ in range(rng.randint(0, 2 * n)):  # cycles and self-loops included
            step[rng.randrange(n)] |= 1 << rng.randrange(n)
        expected = []
        for i in range(n):
            seen, stack = {i}, [i]
            while stack:
                j = stack.pop()
                for k in range(n):
                    if step[j] >> k & 1 and k not in seen:
                        seen.add(k)
                        stack.append(k)
            expected.append(sum(1 << k for k in seen))
        assert _closures(step) == expected

# --------------------------------------------------------------------------- #
# DOT rendering
# --------------------------------------------------------------------------- #


def test_sync_to_dot_shape():
    text = sync_to_dot(build_gaut(load("g_s")), name="gs")
    assert text.startswith('digraph "gs"')
    assert "doublecircle" in text  # final state
    assert "__start" in text
    assert "p->q:o" in text


def test_nfa_to_dot_renders_silent_edges():
    nfa = erase(build_gaut(load("g_s")), R)
    text = nfa_to_dot(nfa)
    assert 'digraph "view_r"' in text
    assert "ε" in text

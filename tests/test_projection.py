"""Subset construction: per-role deterministic machines."""
from __future__ import annotations

from collections import deque
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gtproj import (
    END,
    Branch,
    Choice,
    Message,
    Rec,
    Role,
    SubsetState,
    Var,
    build_gaut,
    build_projections,
    erase,
    erase_label,
    exchange,
    generate_gk,
    machine_to_dot,
    parse_global_type,
    receive,
    roles_of,
    send,
    subset_construction,
)
from gtproj import projection
from gtproj.automata import _select
from gtproj.corpus import entries, load

from .reference import bounded_local_language_check
from .strategies import random_global_type

P, Q, R = Role("p"), Role("q"), Role("r")
O, M, B = Message("o"), Message("m"), Message("b")

global_types = st.builds(
    lambda seed: random_global_type(Random(seed), max_size=14),
    st.integers(0, 2**32 - 1),
)


def members(state: SubsetState) -> set:
    return set(state)


# --------------------------------------------------------------------------- #
# Subset states
# --------------------------------------------------------------------------- #


def test_subset_state_reads_its_members_from_the_mask():
    g = load("g_s")
    m = subset_construction(g, P)
    top_o = parse_global_type("r->q:o . 0")
    s = m.step(m.initial, send(P, Q, O))
    assert s == SubsetState(m, m.state_number(s))
    # members and ids by position in the automaton's states
    states = build_gaut(g).states
    assert s.members == (top_o, END)
    assert len(s) == 2
    assert top_o in s and g not in s
    assert s.ids == (states.index(top_o), states.index(END))
    assert str(s) == "{" + ",".join(str(i) for i in s.ids) + "}"


def test_machine_rejects_states_of_another_machine():
    g = load("g_s")
    m, other = subset_construction(g, Q), subset_construction(g, Q)
    assert [s.ids for s in m.states] == [s.ids for s in other.states]
    assert m.initial != other.initial
    event, _ = m.out(m.initial)[0]
    for ask in (m.out, m.state_number, lambda state: m.step(state, event)):
        with pytest.raises(KeyError):
            ask(other.initial)
    assert m.transitions.get((other.initial, event)) is None
    assert (other.initial, event) not in m.transitions
    assert len(m.transitions) == sum(len(m.out(s)) for s in m.states)


# --------------------------------------------------------------------------- #
# Closures and hand-checked machines
# --------------------------------------------------------------------------- #


def test_epsilon_closure_collects_silently_reachable_states():
    g = load("g_s")
    nfa = erase(build_gaut(g), R)  # p->q edges are silent for r
    top_o = parse_global_type("r->q:o . 0")
    top_m = parse_global_type("r->q:m . 0")
    assert frozenset(nfa.members(nfa.closures[nfa.bit[g]])) == frozenset((g, top_o, top_m))


def test_machine_of_sender_after_silent_prefix():
    g = load("g_s")
    m = subset_construction(g, R)
    top_o = parse_global_type("r->q:o . 0")
    top_m = parse_global_type("r->q:m . 0")
    assert members(m.initial) == {g, top_o, top_m}
    assert len(m.states) == 2
    assert [(e, members(t)) for e, t in m.out(m.initial)] == [
        (send(R, Q, M), {END}),
        (send(R, Q, O), {END}),
    ]
    assert m.finals == frozenset((m.states[1],))


def test_machine_of_receiver_tracks_both_branches():
    g = load("g_s")
    m = subset_construction(g, Q)
    assert len(m.states) == 4
    assert members(m.initial) == {g}
    first = dict(m.out(m.initial))
    assert set(first) == {receive(Q, P, O), receive(Q, P, M)}
    after_o = first[receive(Q, P, O)]
    assert members(after_o) == {parse_global_type("r->q:o . 0")}
    assert dict(m.out(after_o)).keys() == {receive(Q, R, O)}


def test_machine_folds_states_reached_by_both_branches():
    # p's view of the continuations is silent, so both branch targets close
    # into the same subset and the machine has a single post-send state.
    g = load("g_s")
    m = subset_construction(g, P)
    top_o = parse_global_type("r->q:o . 0")
    top_m = parse_global_type("r->q:m . 0")
    assert len(m.states) == 3
    assert members(m.step(m.initial, send(P, Q, O))) == {top_o, END}
    assert members(m.step(m.initial, send(P, Q, M))) == {top_m, END}
    assert len(m.finals) == 2


def test_machine_of_terminated_protocol():
    m = subset_construction(parse_global_type("0"), P)
    assert len(m.states) == 1
    assert m.finals == frozenset((m.initial,))
    assert m.out(m.initial) == ()


def test_step_returns_none_for_missing_transition():
    m = subset_construction(load("g_s"), R)
    assert m.step(m.initial, receive(R, Q, O)) is None


def test_subset_state_built_by_hand_is_the_discovered_state():
    m = subset_construction(load("g_s"), Q)
    for number, state in enumerate(m.states):
        twin = SubsetState(m, number)
        assert twin is not state
        assert twin == state and hash(twin) == hash(state)
        assert m.state_number(twin) == m.state_number(state)
        for event, target in m.out(state):
            assert m.step(twin, event) == target
            assert m.transitions[(twin, event)] == target
    assert SubsetState(m, 1) != m.initial


def test_state_numbers_follow_discovery_order():
    m = subset_construction(load("g_r"), R)
    assert m.state_number(m.initial) == 0
    assert [m.state_number(s) for s in m.states] == list(range(len(m.states)))


# --------------------------------------------------------------------------- #
# Machine invariants
# --------------------------------------------------------------------------- #


def _machine_invariants(g):
    _, table = build_projections(g)
    for role, (nfa, m) in table.items():
        assert m.role == role
        assert m.states[0] == m.initial
        # reachable: walk transitions from the initial state
        seen = {m.initial}
        frontier = [m.initial]
        while frontier:
            state = frontier.pop()
            for _, target in m.out(state):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        assert seen == set(m.states)
        # deterministic: one successor per (state, label)
        for state in m.states:
            labels = [e for e, _ in m.out(state)]
            assert len(labels) == len(set(labels))
            assert len(members(state)) > 0
        # finals are exactly the states containing the terminated protocol
        assert m.finals == frozenset(s for s in m.states if END in s)


def test_corpus_machines_satisfy_invariants():
    for entry in entries():
        _machine_invariants(entry.load())


@settings(max_examples=40, deadline=None)
@given(global_types)
def test_random_machines_satisfy_invariants(g):
    _machine_invariants(g)


def test_build_projections_orders_roles_by_first_occurrence():
    g = load("g_s")
    _, table = build_projections(g)
    assert tuple(table) == roles_of(g) == (P, Q, R)


# --------------------------------------------------------------------------- #
# The machine accepts exactly the view's language (bounded)
# --------------------------------------------------------------------------- #


def test_bounded_language_equality_on_corpus():
    for entry in entries():
        g = entry.load()
        for role in roles_of(g):
            assert bounded_local_language_check(g, role, depth=6), (
                entry.name,
                role.name,
            )


@settings(max_examples=25, deadline=None)
@given(global_types)
def test_bounded_language_equality_on_random_types(g):
    for role in roles_of(g):
        assert bounded_local_language_check(g, role, depth=5)


# --------------------------------------------------------------------------- #
# DOT rendering
# --------------------------------------------------------------------------- #


def test_machine_to_dot_shape():
    text = machine_to_dot(subset_construction(load("g_s"), R))
    assert 'digraph "machine_r"' in text
    assert "doublecircle" in text
    assert "r>q!o" in text


# --------------------------------------------------------------------------- #
# The mask construction against the set-based one
# --------------------------------------------------------------------------- #


def _reference_view(a, role):
    """Role ``role``'s view of automaton ``a``: per state, its outgoing
    transitions ``(source, event or None, target)``, each label of
    ``a.transitions`` erased on its own."""
    out = {state: [] for state in a.states}
    for src, label, tgt in a.transitions:
        out[src].append((src, None if label is None else erase_label(label, role), tgt))
    return out


def _reference_closure(view, seed):
    """Silently reachable states of ``seed``, walked over ``view``."""
    seen = set(seed)
    stack = list(seed)
    while stack:
        for _, label, tgt in view[stack.pop()]:
            if label is None and tgt not in seen:
                seen.add(tgt)
                stack.append(tgt)
    return seen


def _subset(position, nodes):
    """A set of subterms as one value: its members by ascending
    ``position``, the index of each in the automaton's ``states``."""
    return tuple(sorted(set(nodes), key=position.__getitem__))


def _label_key(e):
    return (e.peer.name, e.message.label, e.direction.value)


def _reference_determinize(a, role):
    """The textbook subset construction over sets of subterms, as a
    reference for :func:`determinize`: (states, transitions, initial,
    finals) with states as :func:`_subset` values and transitions keyed by
    (state, event), each state's in label order."""
    view = _reference_view(a, role)
    position = {state: i for i, state in enumerate(a.states)}
    initial = _subset(position, _reference_closure(view, (a.initial,)))
    order = {initial: 0}
    transitions = {}
    queue = deque((initial,))
    while queue:
        state = queue.popleft()
        moves = {}
        for member in state:
            for _, label, tgt in view[member]:
                if label is not None:
                    moves.setdefault(label, set()).add(tgt)
        for label in sorted(moves, key=_label_key):
            successor = _subset(position, _reference_closure(view, moves[label]))
            transitions[(state, label)] = successor
            if successor not in order:
                order[successor] = len(order)
                queue.append(successor)
    states = tuple(order)
    finals = frozenset(s for s in states if any(m in a.finals for m in s))
    return states, transitions, initial, finals


def _reference_inputs(draws=500):
    for entry in entries():
        yield entry.name, entry.load()
    for k in range(1, 7):
        yield f"gk({k})", generate_gk(k)
    rng = Random(7)
    for draw in range(draws):
        yield f"draw {draw}", random_global_type(rng, max_size=25)


def _prime_cycles(k):
    """``+ { p->q:c_i . mu t_i . + { p->r:e . 0, p->r:a^(P_i) . t_i } }``
    over the first ``k`` primes ``P_i``: r's machine counts ``a`` modulo
    their product."""
    p, q, r = Role("p"), Role("q"), Role("r")
    branches = []
    for i, prime in enumerate((2, 3, 5, 7, 11, 13, 17)[:k]):
        body = Var(f"t{i}")
        for _ in range(prime - 1):  # the branch itself is the first a
            body = exchange(p, r, Message("a"), body)
        loop = Choice(p, (Branch(r, Message("e"), END), Branch(r, Message("a"), body)))
        branches.append(Branch(q, Message(f"c{i}"), Rec(f"t{i}", loop)))
    return Choice(p, tuple(branches))


def _wide_inputs():
    """Protocols whose machines have many states of more than 8 members,
    the states :func:`determinize` reads by byte."""
    for k in range(7, 11):
        yield f"gk({k})", generate_gk(k)
    yield "prime cycles (4)", _prime_cycles(4)
    # 2100 exchanges between s and t ahead of gk(8): q's view has more than
    # 2048 nodes, and its wide states lie at byte positions above 255
    g = generate_gk(8)
    s, t = Role("s"), Role("t")
    for i in range(2100):
        g = exchange(s, t, Message(f"m{i}"), g)
    yield "2100 exchanges, then gk(8)", g
    # gk(4) with 2046 exchanges from p to r ahead of its leave branch's
    # letters: q's wide states hold members with the same labels both in
    # the first bytes and 256 bytes further on
    g = generate_gk(4)
    stay, leave = g.body.branches
    body = leave.continuation
    for i in range(2046):
        body = exchange(P, R, Message(f"c{i}"), body)
    yield "gk(4), 2046 exchanges in its leave branch", Rec(
        g.var, Choice(P, (stay, Branch(R, leave.message, body)))
    )
    # 2000 distinct messages from p to q ahead of gk(8): p's and q's views
    # have more labels than any state has members
    g = generate_gk(8)
    for i in range(2000):
        g = exchange(P, Q, Message(f"m{i}"), g)
    yield "2000 labels, then gk(8)", g


def test_determinize_matches_the_set_based_reference():
    wide = high = by_label = 0
    for name, g in [*_reference_inputs(), *_wide_inputs()]:
        a, table = build_projections(g)
        for role, (_, m) in table.items():
            for mask in m.masks:
                if mask.bit_count() > 8:
                    wide += 1
                    high += (mask & -mask) >= 1 << 2048  # no member in bytes 0..255
                    by_label += mask.bit_count() > len(m.events)
            states, transitions, initial, finals = _reference_determinize(a, role)
            where = (name, role.name)
            assert [s.members for s in m.states] == list(states), where
            assert {
                (s.members, e): t.members for (s, e), t in m.transitions.items()
            } == transitions, where
            out = {s: [] for s in states}
            for (src, e), t in transitions.items():
                out[src].append((e, t))
            for s in m.states:
                assert [(e, t.members) for e, t in m.out(s)] == out[s.members], where
            assert m.initial.members == initial, where
            assert {s.members for s in m.finals} == finals, where
    # the inputs reach the byte parts, also beyond the first 256 bytes, and
    # both kinds of wide state: read label by label, and member by member
    assert wide >= 300 and high >= 100, (wide, high)
    assert by_label >= 100 and wide - by_label >= 100, (by_label, wide - by_label)


def test_wide_states_reuse_the_moves_of_their_bytes(monkeypatch):
    nfa = erase(build_gaut(generate_gk(10)), Q)
    calls = []

    def select(seq, mask):
        calls.append(mask)
        return _select(seq, mask)

    monkeypatch.setattr(projection, "_select", select)
    m = projection.determinize(nfa)
    assert len(m.masks) == 2050
    # one selection per state read member by member, and none for the
    # others, which read byte tables; stepping every member makes one per
    # state
    narrow = [mask for mask in m.masks if mask.bit_count() <= max(8, len(nfa.events))]
    assert calls == narrow
    assert len(calls) < len(m.masks) // 2, len(calls)


def test_wide_states_compute_each_label_successor_once_per_key(monkeypatch):
    nfa = erase(build_gaut(generate_gk(10)), Q)
    byte_tables_of, byte_union_of = projection._byte_tables, projection._byte_union
    made = []  # the ranks whose tables were made
    window = {}  # table id -> (rank, shift, table)
    calls, fills = [], []

    def byte_tables(steps, r, sources_r):
        parts = byte_tables_of(steps, r, sources_r)
        made.append(r)
        for shift, table in parts:
            window[id(table)] = (r, shift, table)  # keeps the table alive
        return parts

    def byte_union(parts, key):
        r = window[id(parts[0][1])][0]
        calls.append((r, key))
        unset = [{b for b, part in enumerate(table) if part is None} for _, table in parts]
        union = byte_union_of(parts, key)
        for (shift, table), before in zip(parts, unset):
            assert window[id(table)][:2] == (r, shift)
            assert table[key >> shift & 255] is not None  # what was read is kept
            fills.extend((r, shift, b) for b in before if table[b] is not None)
        return union

    monkeypatch.setattr(projection, "_byte_tables", byte_tables)
    monkeypatch.setattr(projection, "_byte_union", byte_union)
    m = projection.determinize(nfa)
    assert sum(map(len, m.arcs)) == 5120
    sources = [0] * len(nfa.events)
    for src, r, _ in nfa.edges:
        if r is not None:
            sources[r] |= 1 << src
    # a label's successor depends only on the members with that label's edge
    keys = {
        (r, mask & s)
        for mask in m.masks
        if mask.bit_count() > max(8, len(nfa.events))
        for r, s in enumerate(sources)
        if mask & s
    }
    # one union per distinct (label, key), each computed once
    assert len(calls) == len(set(calls)) and set(calls) == keys
    assert len(calls) < 5120 // 2, len(calls)
    # each label's tables are made once, and no (rank, byte, entry) is
    # filled twice
    assert sorted(made) == sorted({r for r, _ in keys})
    assert fills and len(fills) == len(set(fills)), len(fills)

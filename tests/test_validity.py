"""Send/receive validity, available messages, verdicts, counterexamples."""
from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gtproj import (
    AvailableMessageQuery,
    AvailableMessageResult,
    Branch,
    Choice,
    Csm,
    Direction,
    END,
    IllFormedProtocolError,
    InternalError,
    Message,
    Rec,
    ReceiveViolationDetails,
    Role,
    SendViolationDetails,
    SyncEvent,
    ValidityViolation,
    Var,
    ViolationKind,
    available_messages,
    build_counterexample,
    build_gaut,
    build_projections,
    check_implementability,
    check_no_mixed_choice,
    check_receive_validity,
    check_send_validity,
    erase_label,
    exchange,
    format_trace,
    intersection_witness,
    parse_global_type,
    parse_trace,
    replay_trace,
    roles_of,
    send,
    subset_construction,
    subterms,
    validate_well_formedness,
)
from gtproj.corpus import entries, load
from gtproj.validity import _AvailableWalks, _send_violations

from .strategies import random_global_type, rename_consistently
from .test_projection import _reference_closure, _reference_inputs, _reference_view

P, Q, R = Role("p"), Role("q"), Role("r")
O, M = Message("o"), Message("m")

global_types = st.builds(
    lambda seed: random_global_type(Random(seed), max_size=12),
    st.integers(0, 2**32 - 1),
)


def projection_of(g, role):
    _, table = build_projections(g)
    return table[role]


# --------------------------------------------------------------------------- #
# Origins and destinations against the set-based reference
# --------------------------------------------------------------------------- #


def _reference_origins_destinations(view, state, x):
    """For machine transition ``state --x--> s'``: the members of ``state``
    that perform ``x`` after silent steps (origins), and the silent closure
    of the nodes they land in (destinations), computed on sets over the
    role's ``view`` (see ``_reference_view``)."""
    origins, landing = set(), set()
    for member in state:
        for node in _reference_closure(view, (member,)):
            for _, label, tgt in view[node]:
                if label == x:
                    origins.add(member)
                    landing.add(tgt)
    return origins, _reference_closure(view, landing)


def test_validity_reads_the_reference_origins_and_destinations():
    for name, g in _reference_inputs():
        a, table = build_projections(g)
        for role, (nfa, m) in table.items():
            view = _reference_view(a, role)
            expected = []
            for state in m.states:
                for event, target in m.out(state):
                    origins, destinations = _reference_origins_destinations(
                        view, state, event
                    )
                    if event.is_send:
                        missing = tuple(g2 for g2 in state if g2 not in origins)
                        if missing:
                            expected.append(((state, event, target), missing))
                    else:
                        assert destinations == set(target), (name, role.name)
            found = [
                (v.details.transition, v.details.missing)
                for v in _send_violations(m, nfa)
            ]
            assert found == expected, (name, role.name)


def test_all_violations_name_each_unable_member():
    verdict = check_implementability(load("g_s"), all_violations=True)
    unable = {
        str(v.details.transition[1]): v.details.missing
        for v in verdict.violations
        if v.kind is ViolationKind.SEND_VALIDITY
    }
    # the root reaches both sends after a silent step; each branch only one
    assert unable == {
        "r>q!m": (parse_global_type("r->q:o . 0"),),
        "r>q!o": (parse_global_type("r->q:m . 0"),),
    }
    agreeing = check_implementability(load("g_s_prime"), all_violations=True)
    assert not any(
        v.kind is ViolationKind.SEND_VALIDITY for v in agreeing.violations
    )


# --------------------------------------------------------------------------- #
# Available messages
# --------------------------------------------------------------------------- #


def ask(g, subterm, *blocked):
    return available_messages(g, AvailableMessageQuery(subterm, frozenset(blocked)))


def test_available_at_a_direct_send():
    g = load("g_r")
    sub = parse_global_type("p->r:o . 0")
    result = ask(g, sub, R)
    assert result.events == frozenset((send(P, R, O),))


def test_nothing_available_at_termination():
    g = load("g_s")
    assert ask(g, END, R).events == frozenset()


def test_blocked_sender_freezes_its_receivers():
    g = parse_global_type("p->q:m . q->r:o . 0")
    # p never moves, so q never receives m and never sends o to r
    assert ask(g, g, P).events == frozenset()


def test_choice_offers_heads_and_filtered_continuations():
    g = load("g_r")
    result = ask(g, g, R)
    assert result.events == frozenset(
        (send(P, Q, O), send(P, Q, M), send(Q, R, O), send(P, R, O))
    )


def test_earlier_exchange_hides_later_sends_on_the_same_channel():
    g = parse_global_type("p->q:m . p->q:o . 0")
    # only the first p->q send can be the next message r observes... and for
    # the receiver q the head send is visible but the one behind it is not
    result = ask(g, g, Q)
    assert result.events == frozenset((send(P, Q, M),))


def test_witnesses_chain_from_the_queried_subterm_to_the_event():
    g = load("g_r")
    result = ask(g, g, R)
    for event, path in result.witness.items():
        assert event in result.events
        assert path[0][0] == g
        for (_, _, tgt), (src, _, _) in zip(path, path[1:]):
            assert tgt == src
        last_label = path[-1][1]
        assert send(last_label.sender, last_label.receiver, last_label.message) == event


def test_blocked_roles_never_appear_as_senders():
    rng = Random(7)
    for _ in range(50):
        g = random_global_type(rng, max_size=15)
        nodes = subterms(g)
        roles = roles_of(g) or (P,)
        for _ in range(3):
            sub = rng.choice(nodes)
            blocked = frozenset(rng.sample(roles, rng.randint(1, len(roles))))
            result = available_messages(g, AvailableMessageQuery(sub, blocked))
            assert all(e.active not in blocked for e in result.events)


def _reference_binders(g_root):
    """Each recursion variable's binder, from a recursive walk of its own
    (the parser gives a variable one binder)."""
    bind, seen = {}, set()

    def walk(node):
        if node.intern_id in seen:
            return
        seen.add(node.intern_id)
        if isinstance(node, Rec):
            bind[node.var] = node
            walk(node.body)
        elif isinstance(node, Choice):
            for b in node.branches:
                walk(b.continuation)

    walk(g_root)
    return bind


def _reference_available_messages(g_root, q):
    """The recursive walk that :func:`available_messages` replaced, as a
    reference: one memo per query, one Python frame per protocol step."""
    bind = _reference_binders(g_root)
    memo = {}

    def walk(node, blocked, unfolded):
        key = (node.intern_id, blocked, unfolded)
        cached = memo.get(key)
        if cached is not None:
            return cached
        table = {}
        if isinstance(node, Rec):
            inner = walk(node.body, blocked, unfolded | {node.var})
            step = (node, None, node.body)
            table = {ev: (step,) + sfx for ev, sfx in inner.items()}
        elif isinstance(node, Var):
            if node.var not in unfolded:
                binder = bind[node.var]
                inner = walk(binder.body, blocked, unfolded | {node.var})
                hops = ((node, None, binder), (binder, None, binder.body))
                table = {ev: hops + sfx for ev, sfx in inner.items()}
        elif isinstance(node, Choice):
            branches = sorted(node.branches, key=lambda b: (b.receiver.name, b.message.label))
            if node.sender not in blocked:
                for b in branches:
                    step = (node, SyncEvent(node.sender, b.receiver, b.message), b.continuation)
                    inner = walk(b.continuation, blocked, unfolded)
                    for ev, sfx in inner.items():
                        if ev.active == node.sender and ev.peer == b.receiver:
                            continue
                        table.setdefault(ev, (step,) + sfx)
                    table.setdefault(send(node.sender, b.receiver, b.message), (step,))
            else:
                for b in branches:
                    step = (node, SyncEvent(node.sender, b.receiver, b.message), b.continuation)
                    inner = walk(b.continuation, blocked | {b.receiver}, unfolded)
                    for ev, sfx in inner.items():
                        table.setdefault(ev, (step,) + sfx)
        memo[key] = table
        return table

    table = walk(q.subterm, q.blocked, frozenset())
    return AvailableMessageResult(frozenset(table), dict(table))


def test_iterative_walk_matches_the_recursive_one():
    rng = Random(3)
    for name, g in _reference_inputs(300):
        roles = roles_of(g)
        walks = _AvailableWalks(build_gaut(g))
        for sub in subterms(g):
            blocked_sets = [frozenset((role,)) for role in roles]
            blocked_sets.append(frozenset(rng.sample(roles, rng.randint(0, len(roles)))))
            for blocked in blocked_sets:
                q = AvailableMessageQuery(sub, blocked)
                expected = _reference_available_messages(g, q)
                for got in (available_messages(g, q), available_messages(g, q, _walks=walks)):
                    assert got.events == expected.events, name
                    # same witnesses, inserted in the same order
                    assert list(got.witness.items()) == list(expected.witness.items()), name


def test_a_path_reenters_an_inner_binder_after_unfolding_an_outer_variable():
    # the shape of draw 275 of random_global_type(Random(7), max_size=25)
    g = parse_global_type(
        "s->r:b . mu t1 . mu t2 . + { r->q:e . t1,"
        " r->p:c . + { s->r:e . 0, s->q:b . t1, s->q:a . t2 }, r->s:c . 0 }"
    )
    mu_t1 = g.branches[0].continuation
    mu_t2 = mu_t1.body
    top = mu_t2.body
    to_q, to_p, _ = top.branches
    inner = to_p.continuation
    t1 = inner.branches[1].continuation
    s = Role("s")
    # the first branch in edge order, r->p:c, reaches r->q:e through s->q:b
    # and t1, whose binder leads into mu t2 again
    assert ask(g, mu_t2, Q).witness[send(R, Q, Message("e"))] == (
        (mu_t2, None, top),
        (top, SyncEvent(R, P, Message("c")), inner),
        (inner, SyncEvent(s, Q, Message("b")), t1),
        (t1, None, mu_t1),
        (mu_t1, None, mu_t2),
        (mu_t2, None, top),
        (top, SyncEvent(R, Q, Message("e")), to_q.continuation),
    )


def test_available_messages_walks_deeper_than_the_recursion_limit():
    chain = " . ".join(f"p->q:m{i}" for i in range(3000))
    g = parse_global_type(f"p->r:a . {chain} . 0")
    result = ask(g, g, Q)
    # later sends on the p->q channel hide behind m0, but the walk still
    # descends the whole chain
    assert result.events == frozenset((send(P, R, Message("a")), send(P, Q, Message("m0"))))
    assert len(result.witness[send(P, Q, Message("m0"))]) == 2


def test_available_messages_rejects_foreign_subterm():
    g = load("g_s")
    other = parse_global_type("p->q:x . 0")
    with pytest.raises(InternalError):
        ask(g, other, R)


# --------------------------------------------------------------------------- #
# Send validity
# --------------------------------------------------------------------------- #


def test_send_validity_violation_on_uninformed_sender():
    g = load("g_s")
    nfa, m = projection_of(g, R)
    violation = check_send_validity(m, nfa)
    assert violation is not None
    assert violation.kind is ViolationKind.SEND_VALIDITY
    assert violation.role == R
    assert violation.state == m.initial
    _, event, _ = violation.details.transition
    assert event == send(R, Q, M)  # label order puts m before o
    assert violation.details.missing == (parse_global_type("r->q:o . 0"),)


def test_send_validity_passes_when_branches_agree():
    g = load("g_s_prime")
    for role in roles_of(g):
        nfa, m = projection_of(g, role)
        assert check_send_validity(m, nfa) is None


# --------------------------------------------------------------------------- #
# Receive validity
# --------------------------------------------------------------------------- #


def test_receive_validity_violation_on_racing_senders():
    g = load("g_r")
    nfa, m = projection_of(g, R)
    violation = check_receive_validity(m, nfa, g)
    assert violation is not None
    assert violation.kind is ViolationKind.RECEIVE_VALIDITY
    assert violation.role == R
    assert violation.state == m.initial
    d = violation.details
    assert d.transition_one[1] == parse_trace("r<p?o")[0]
    assert d.transition_two[1] == parse_trace("r<q?o")[0]
    assert d.witness_subterm == parse_global_type("p->r:o . 0")
    assert d.offending_event == send(P, R, O)
    assert d.witness_suffix[0][0] == d.witness_subterm


def test_receive_validity_passes_when_the_protocol_orders_the_senders():
    g = load("g_r_prime")
    for role in roles_of(g):
        nfa, m = projection_of(g, role)
        assert check_receive_validity(m, nfa, g) is None


def test_same_sender_races_are_allowed():
    # both receives come from p over one queue, so their order is fixed
    g = parse_global_type("+ { p->q:o . 0, p->q:m . 0 }")
    nfa, m = projection_of(g, Q)
    assert check_receive_validity(m, nfa, g) is None


# --------------------------------------------------------------------------- #
# Validity on masks against the object-based scan
# --------------------------------------------------------------------------- #


def _reference_send_violations(m, nfa, a):
    """Send validity scanned over the machine's state objects, member by
    member, as a reference for the mask test; the sends are erased from
    automaton ``a``'s transitions label by label."""
    bit, closures = nfa.bit, nfa.closures
    sources = {}
    for src, sync, _ in a.transitions:
        label = None if sync is None else erase_label(sync, m.role)
        if label is not None and label.direction is Direction.SEND:
            sources[label] = sources.get(label, 0) | 1 << bit[src]
    for state in m.states:
        for event, target in m.out(state):
            if event.direction is not Direction.SEND:
                continue
            can = sources[event]
            missing = tuple(g for g in state if not closures[bit[g]] & can)
            if missing:
                yield ValidityViolation(
                    ViolationKind.SEND_VALIDITY,
                    m.role,
                    state,
                    SendViolationDetails((state, event, target), missing),
                )


def _reference_receive_violations(m, g):
    """Receive validity scanned over the machine's state objects, querying
    each destination member in turn, as a reference for the mask test."""
    available_cache = {}

    def available_at(subterm):
        cached = available_cache.get(subterm.intern_id)
        if cached is None:
            cached = available_messages(
                g, AvailableMessageQuery(subterm, frozenset((m.role,)))
            )
            available_cache[subterm.intern_id] = cached
        return cached

    for state in m.states:
        receives = [
            (event, target)
            for event, target in m.out(state)
            if event.direction is Direction.RECEIVE
        ]
        for first, target_one in receives:
            for second, target_two in receives:
                if first.peer == second.peer:
                    continue
                offending = send(first.peer, m.role, first.message)
                for witness in target_two:
                    result = available_at(witness)
                    if offending in result.events:
                        yield ValidityViolation(
                            ViolationKind.RECEIVE_VALIDITY,
                            m.role,
                            state,
                            ReceiveViolationDetails(
                                (state, first, target_one),
                                (state, second, target_two),
                                witness,
                                offending,
                                result.witness[offending],
                            ),
                        )
                        break


def _ids(nodes):
    return tuple(n.intern_id for n in nodes)


def _transition_fields(t):
    source, event, target = t
    return (source.ids, event, target.ids)


def _violation_fields(v):
    """What a violation reports: kind, role, state ids, transitions,
    missing members, witness, offending event and suffix."""
    fields = (v.kind, v.role, v.state.ids)
    d = v.details
    if v.kind is ViolationKind.SEND_VALIDITY:
        return fields + (_transition_fields(d.transition), _ids(d.missing))
    suffix = tuple((src.intern_id, label, tgt.intern_id) for src, label, tgt in d.witness_suffix)
    return fields + (
        _transition_fields(d.transition_one),
        _transition_fields(d.transition_two),
        d.witness_subterm.intern_id,
        d.offending_event,
        suffix,
    )


def test_mask_validity_matches_the_object_scan():
    for name, g in _reference_inputs(1000):
        a, table = build_projections(g)
        expected = []
        for nfa, m in table.values():
            expected.extend(_reference_send_violations(m, nfa, a))
            expected.extend(_reference_receive_violations(m, g))
        verdict = check_implementability(g, all_violations=True)
        assert list(map(_violation_fields, verdict.violations)) == list(
            map(_violation_fields, expected)
        ), name
        assert verdict.implementable == (not expected), name


# --------------------------------------------------------------------------- #
# Mixed states
# --------------------------------------------------------------------------- #


def test_mixed_state_detected():
    g = parse_global_type("+ { p->q:l . q->r:m . 0, p->q:r . r->q:m . 0 }")
    assert check_no_mixed_choice(subset_construction(g, R)) is False


def test_unmixed_machines_on_good_corpus():
    for entry in entries():
        if not entry.implementable:
            continue
        g = entry.load()
        for role in roles_of(g):
            assert check_no_mixed_choice(subset_construction(g, role))


# --------------------------------------------------------------------------- #
# The decision procedure
# --------------------------------------------------------------------------- #


def test_corpus_verdict_parity():
    for entry in entries():
        verdict = check_implementability(entry.load())
        assert verdict.implementable == entry.implementable, entry.name
        if entry.implementable:
            assert verdict.projections is not None
            assert verdict.violation is None
            assert verdict.counterexample is None
        else:
            assert verdict.projections is None
            assert verdict.violation.kind is entry.violation
            assert verdict.counterexample


def test_ill_formed_protocol_is_rejected():
    with pytest.raises(IllFormedProtocolError) as exc:
        check_implementability(parse_global_type("mu t . t"))
    assert exc.value.report.violations


def test_reused_binder_names_are_ill_formed():
    # hand-built: the parser refuses distinct binders of one name
    loop_b = Rec("t", exchange(P, Q, Message("b"), Var("t")))
    loop_d = Rec("t", exchange(P, Q, Message("d"), Var("t")))
    for g in (
        Choice(P, (Branch(Q, Message("a"), loop_b), Branch(Q, Message("c"), loop_d))),
        Rec("t", exchange(P, Q, Message("a"), loop_b)),
    ):
        with pytest.raises(IllFormedProtocolError) as exc:
            check_implementability(g)
        assert [v.rule.value for v in exc.value.report.violations] == ["DuplicateBinder"]


def test_counterexample_for_uninformed_sender():
    verdict = check_implementability(load("g_s"))
    assert verdict.counterexample == parse_trace("p>q!o.q<p?o.r>q!m")


def test_counterexample_for_racing_senders():
    verdict = check_implementability(load("g_r"))
    assert verdict.counterexample == parse_trace("p>q!o.q<p?o.q>r!o.p>r!o.r<p?o")


def test_counterexample_for_mixed_send():
    g = parse_global_type("+ { p->q:l . q->r:m . 0, p->q:r . r->q:m . 0 }")
    verdict = check_implementability(g)
    assert not verdict.implementable
    assert verdict.violation.kind is ViolationKind.SEND_VALIDITY
    assert verdict.counterexample[-1] == send(R, Q, M)


def _counterexample_is_verified(g):
    verdict = check_implementability(g)
    assert not verdict.implementable
    _, table = build_projections(g)
    system = Csm({role: machine for role, (_, machine) in table.items()})
    replay_trace(system, verdict.counterexample)  # raises if not executable
    assert intersection_witness(g, verdict.counterexample) is None


def test_counterexamples_replay_but_are_not_protocol_behaviour():
    for name in ("g_s", "g_r"):
        _counterexample_is_verified(load(name))


def test_counterexample_from_a_violation_on_other_machines():
    # Called on its own, build_counterexample builds fresh machines: the
    # violation's state belongs to the checker's machines, not to these.
    for name in ("g_s", "g_r"):
        g = load(name)
        verdict = check_implementability(g)
        for v in verdict.violations:
            assert build_counterexample(g, v) == build_counterexample(
                g, v, _projections=build_projections(g)
            )
        assert build_counterexample(g, verdict.violation) == verdict.counterexample


def test_receive_counterexample_keeps_the_exchanges_of_its_silent_path():
    # q's receive from s lands in a subterm from which r's still-available
    # message is reached only through s->q:b and the loop; that exchange must
    # appear in the counterexample, or the trace does not execute.
    g = parse_global_type(
        "mu t1 . + { q->r:a . + { s->r:c . 0, s->p:d . 0, s->q:b . t1 }, q->r:d . 0 }"
    )
    verdict = check_implementability(g)
    assert verdict.violation.kind is ViolationKind.RECEIVE_VALIDITY
    assert "s>q!b.q<s?b" in format_trace(verdict.counterexample)
    _counterexample_is_verified(g)


def test_random_protocols_never_crash_the_checker():
    rng = Random(7)
    for draw in range(1000):
        g = random_global_type(rng, max_size=25)
        assert validate_well_formedness(g).ok, draw
        try:
            check_implementability(g)
        except InternalError as exc:
            pytest.fail(f"draw {draw}: {exc}")


def test_all_violations_extends_the_first():
    verdict = check_implementability(load("g_s"), all_violations=True)
    assert len(verdict.violations) >= 2  # both of r's sends are uninformed
    assert verdict.violations[0] == verdict.violation
    assert all(v.role == R for v in verdict.violations)


def test_verdict_invariant_under_renaming():
    role_map = {P: Role("x"), Q: Role("y"), R: Role("z")}
    message_map = {O: Message("u"), M: Message("v"), Message("b"): Message("w")}
    for entry in entries():
        g = entry.load()
        renamed = rename_consistently(g, role_map, message_map)
        original = check_implementability(g)
        mirrored = check_implementability(renamed)
        assert original.implementable == mirrored.implementable, entry.name
        if not original.implementable:
            assert original.violation.kind is mirrored.violation.kind
            assert mirrored.violation.role == role_map[original.violation.role]
            assert len(original.counterexample) == len(mirrored.counterexample)


@settings(max_examples=25, deadline=None)
@given(global_types)
def test_random_verdicts_are_stable_under_renaming(g):
    renamed = rename_consistently(
        g,
        {P: Role("z"), Role("z"): P, Q: Role("y"), Role("y"): Q},
        {Message("a"): Message("m"), Message("m"): Message("a")},
    )
    assert (
        check_implementability(g).implementable
        == check_implementability(renamed).implementable
    )

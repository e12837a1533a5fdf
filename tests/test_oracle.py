"""Independent oracles: trace equivalence, run intersection, bounded fidelity."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from random import Random

import pytest

from gtproj import csm, oracle
from gtproj import (
    Csm,
    CsmConfiguration,
    END,
    ExplorationReport,
    FidelityReport,
    Message,
    NotEnabled,
    Role,
    StepFailure,
    SubsetMachine,
    SyncEvent,
    bounded_fidelity_check,
    build_gaut,
    build_projections,
    check_implementability,
    explore,
    generate_gk,
    intersection_witness,
    parse_global_type,
    parse_trace,
    project_word,
    replay_trace,
    roles_of,
    send,
    split_event,
    split_word,
    subset_construction,
    validate_well_formedness,
)
from gtproj.automata import _shortest_path
from gtproj.corpus import entries, load

from .reference import BudgetExhausted, indistinguishable_finite, reference_tail
from .strategies import random_global_type

P, Q, R = Role("p"), Role("q"), Role("r")


def machines_for(g) -> dict[Role, SubsetMachine]:
    _, table = build_projections(g)
    return {role: machine for role, (_, machine) in table.items()}


def system_for(g) -> Csm:
    return Csm(machines_for(g))


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


def _trace(edges):
    """The non-silent labels of a run's edges."""
    return tuple(label for _, label, _ in edges if label is not None)


def test_empty_word_is_consistent():
    g = load("g_s")
    assert intersection_witness(g, ()) == ()


def test_full_branch_split_is_consistent():
    g = load("g_s")
    sync = (SyncEvent(P, Q, Message("o")), SyncEvent(R, Q, Message("o")))
    word = split_word(sync)
    witness = intersection_witness(g, word)
    assert witness is not None
    assert witness[0][0] == g
    assert witness[-1][2] == END
    assert _trace(witness) == sync


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


def test_events_the_protocol_lacks_are_inconsistent():
    g = load("g_s")
    for text in ("p>q!z", "r>q!z", "q>p!o", "q<r?z", "r>q!o.q<r?z"):
        assert intersection_witness(g, parse_trace(text)) is None, text


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


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"channel_bound": 0}, "channel_bound must be at least 1"),
        ({"depth": -1}, "depth must be non-negative"),
    ],
)
def test_fidelity_rejects_bad_bounds_before_any_search(bounds, message):
    g = parse_global_type("p->q:m . 0")
    machines = machines_for(g)
    # q cannot replay the protocol: without the bound check the search
    # would report "replay" instead of raising
    q_machine = machines[Q]
    crippled = dict(machines)
    crippled[Q] = SubsetMachine(
        Q, q_machine.nodes, q_machine.masks[:1], ((),), q_machine.events, 0
    )
    for system in (Csm(machines), Csm(crippled)):
        with pytest.raises(ValueError, match=message):
            bounded_fidelity_check(g, system, **bounds)


@pytest.mark.parametrize(
    "bounds", [{"depth": 2.5}, {"depth": 2.0}, {"depth": True}, {"channel_bound": 3.0}]
)
def test_fidelity_rejects_bounds_that_are_not_ints(bounds):
    # at depth 2.5 the replay stopped at two events while the machine
    # search went to three, and reported (2, 3) where depth 2 gives (2, 2)
    g = parse_global_type("p->q:a . q->r:b . 0")
    c = system_for(g)
    assert bounded_fidelity_check(g, c, 2) == FidelityReport(True, None, None, 2, 2)
    with pytest.raises(TypeError, match="must be an int"):
        bounded_fidelity_check(g, c, **bounds)


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


@pytest.mark.parametrize("k", [True, False, 2.0, "3", None])
def test_family_rejects_a_size_that_is_not_an_int(k):
    # a bool is an int to Python, yet generate_gk(True) must not be gk(1)
    with pytest.raises(TypeError, match="k must be an int"):
        generate_gk(k)


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


def test_family_machine_sizes_for_every_role():
    # (states, transitions, final states) of each role's machine: q's is the
    # blow-up, p's and r's stay linear and constant
    for k in range(1, 14):
        _, table = build_projections(generate_gk(k))
        rows = {
            role.name: (len(m), len(m.transitions), len(m.finals))
            for role, (_, m) in table.items()
        }
        assert rows == {
            "p": (2 * k + 7, 4 * k + 8, 1),
            "q": (2 ** (k + 1) + 2, 5 * 2**k, 1),
            "r": (3, 4, 1),
        }, k


#: run_prefixes_checked and csm_traces_checked of gk(k), k = 1..6, at depth
#: 14 and channel bound 4.
GK_FIDELITY = ((19, 2984), (47, 4100), (111, 5420), (159, 6844), (222, 8252), (284, 9500))


def test_fidelity_confirms_the_family_at_depth_fourteen():
    for k, (prefixes, traces) in enumerate(GK_FIDELITY, start=1):
        g = generate_gk(k)
        report = bounded_fidelity_check(g, system_for(g), 14, channel_bound=4)
        assert report.ok, k
        assert report.run_prefixes_checked == prefixes, k
        assert report.csm_traces_checked == traces, k


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
# The numbered oracle against the object-based one
# --------------------------------------------------------------------------- #


def _reference_intersection(g, w, a):
    """Run-prefix edges of a run consistent with ``w``, searched over
    ``a.out`` with freshly split events and a role index from
    :func:`roles_of`: a reference for :func:`intersection_witness`."""
    roles = roles_of(g)
    w = tuple(w)
    if any(e.active not in roles or e.peer not in roles for e in w):
        return None
    index = {r: i for i, r in enumerate(roles)}
    targets = tuple(project_word(w, r) for r in roles)
    goal = tuple(len(t) for t in targets)

    def successors(node):
        state, counts = node
        for edge in a.out(state):
            label = edge[1]
            if label is None:
                yield edge, (edge[2], counts)
                continue
            nxt = list(counts)
            for event in split_event(label):
                i = index[event.active]
                want = targets[i]
                if nxt[i] < len(want):
                    if want[nxt[i]] != event:
                        break
                    nxt[i] += 1
            else:
                yield edge, (edge[2], tuple(nxt))

    return _shortest_path(
        (a.initial, (0,) * len(roles)), successors, lambda node: node[1] == goal
    )


def _name_pair(pair):
    return (pair[0].name, pair[1].name)


@dataclass(frozen=True)
class _Configuration:
    """Per-role machine states as objects, sorted by role name, and the
    non-empty channels sorted by (sender, receiver): a reference for
    :class:`CsmConfiguration`."""

    states: tuple
    channels: tuple

    @staticmethod
    def of(c, cfg):
        """The reference form of a numbered configuration of ``c``."""
        channels = [(pair, cfg.channel(*pair)) for pair in c.slot]
        channels.sort(key=lambda item: _name_pair(item[0]))
        return _Configuration(
            tuple((r, cfg.state_of(r)) for r in c.roles),
            tuple((pair, content) for pair, content in channels if content),
        )

    def state_of(self, role):
        for r, s in self.states:
            if r == role:
                return s
        raise KeyError(role)

    def channel(self, sender, receiver):
        for pair, content in self.channels:
            if pair == (sender, receiver):
                return content
        return ()

    def step(self, role, state, pair, content):
        states = tuple((r, state if r == role else s) for r, s in self.states)
        rest = [(p, m) for p, m in self.channels if p != pair]
        if content:
            rest.append((pair, content))
        rest.sort(key=lambda item: _name_pair(item[0]))
        return _Configuration(states, tuple(rest))


def _reference_initial(c):
    return _Configuration(tuple((r, c.machines[r].initial) for r in c.roles), ())


def _reference_step(c, cfg, e):
    machine = c.machines.get(e.active)
    if machine is None:
        raise NotEnabled(StepFailure.NO_LOCAL_TRANSITION, e)
    successor = machine.step(cfg.state_of(e.active), e)
    if successor is None:
        raise NotEnabled(StepFailure.NO_LOCAL_TRANSITION, e)
    if e.is_send:
        pair = (e.active, e.peer)
        content = cfg.channel(*pair) + (e.message,)
    else:
        pair = (e.peer, e.active)
        content = cfg.channel(*pair)
        if not content:
            raise NotEnabled(StepFailure.EMPTY_CHANNEL, e)
        if content[0] != e.message:
            raise NotEnabled(StepFailure.WRONG_HEAD, e)
        content = content[1:]
    return cfg.step(e.active, successor, pair, content)


def _reference_enabled(c, cfg):
    out = []
    for role in c.roles:
        for event, _ in c.machines[role].out(cfg.state_of(role)):
            if event.is_send:
                out.append(event)
            else:
                content = cfg.channel(event.peer, event.active)
                if content and content[0] == event.message:
                    out.append(event)
    return tuple(out)


def _reference_explore(c, channel_bound, depth):
    """Breadth-first search over object configurations with every trace
    kept: a reference for :func:`explore`."""
    init = _reference_initial(c)
    visited = {init}
    queue = deque(((init, ()),))
    deadlocks, traces, frontier_cut = [], {()}, False
    while queue:
        cfg, trace = queue.popleft()
        enabled = _reference_enabled(c, cfg)
        if not enabled:
            final = all(s in c.machines[r].finals for r, s in cfg.states)
            if cfg.channels or not final:
                deadlocks.append((cfg, trace))
            continue
        if len(trace) >= depth:
            frontier_cut = True
            continue
        for e in enabled:
            if e.is_send and len(cfg.channel(e.active, e.peer)) >= channel_bound:
                frontier_cut = True
                continue
            successor = _reference_step(c, cfg, e)
            if successor not in visited:
                visited.add(successor)
                traces.add(trace + (e,))
                queue.append((successor, trace + (e,)))
    return ExplorationReport(
        len(visited), tuple(deadlocks), frontier_cut, frozenset(traces)
    )


def _reference_fidelity(g, c, depth, channel_bound):
    """The three obligations over object configurations, freshly split
    events and views as event tuples: a reference for
    :func:`bounded_fidelity_check`."""
    a = build_gaut(g)
    replayed = 0
    init = _reference_initial(c)
    seen_replay = {(a.initial, init)}
    queue = deque(((a.initial, init, ()),))
    while queue:
        state, cfg, trace = queue.popleft()
        replayed += 1
        for _, label, tgt in a.out(state):
            if label is None:
                nxt_cfg, nxt_trace = cfg, trace
            elif len(trace) + 2 <= depth:
                nxt_cfg, nxt_trace = cfg, trace
                for event in split_event(label):
                    try:
                        nxt_cfg = _reference_step(c, nxt_cfg, event)
                    except NotEnabled:
                        witness = nxt_trace + (event,)
                        return FidelityReport(False, "replay", witness, replayed, 0)
                    nxt_trace = nxt_trace + (event,)
            else:
                continue
            if (tgt, nxt_cfg) not in seen_replay:
                seen_replay.add((tgt, nxt_cfg))
                queue.append((tgt, nxt_cfg, nxt_trace))
    roles = c.roles
    checked = 0
    empty_key = ((),) * len(roles)
    seen_views = {empty_key}
    frontier = deque(((init, (), empty_key),))
    while frontier:
        cfg, trace, key = frontier.popleft()
        if len(trace) >= depth:
            continue
        for e in _reference_enabled(c, cfg):
            if e.is_send and len(cfg.channel(e.active, e.peer)) >= channel_bound:
                continue
            i = roles.index(e.active)
            nxt_key = key[:i] + (key[i] + (e,),) + key[i + 1 :]
            if nxt_key in seen_views:
                continue
            seen_views.add(nxt_key)
            checked += 1
            if _reference_intersection(g, trace + (e,), a) is None:
                witness = trace + (e,)
                return FidelityReport(False, "intersection", witness, replayed, checked)
            frontier.append((_reference_step(c, cfg, e), trace + (e,), nxt_key))
    deadlocks = _reference_explore(c, channel_bound, depth).deadlocks
    if deadlocks:
        return FidelityReport(False, "deadlock", deadlocks[0][1], replayed, checked)
    return FidelityReport(True, None, None, replayed, checked)


def _differential_inputs():
    for entry in entries():
        yield entry.name, entry.load()
    for k in range(1, 4):
        yield f"gk({k})", generate_gk(k)
    rng = Random(11)
    for draw in range(150):
        yield f"draw {draw}", random_global_type(rng, max_size=8)


def _deadlocking_systems():
    """Crippled systems whose fidelity check ends in ``"deadlock"``, with
    the depths to check them at: no differential input ends in one."""
    g = parse_global_type("p->q:m . 0")
    machines = machines_for(g)
    q_machine = machines[Q]
    machines[Q] = SubsetMachine(
        Q, q_machine.nodes, q_machine.masks, q_machine.arcs, q_machine.events, 0
    )
    yield "p->q:m with q never final", g, Csm(machines), 10
    g = parse_global_type("p->q:a . r->q:x . 0")
    machines = machines_for(g)
    del machines[R]
    for depth in (2, 3):
        yield f"p->q:a . r->q:x without r, depth {depth}", g, Csm(machines), depth


def test_fidelity_matches_the_object_based_reference():
    outcomes = set()
    for name, g in _differential_inputs():
        c = system_for(g)
        report = bounded_fidelity_check(g, c, 10, channel_bound=3)
        assert report == _reference_fidelity(g, c, 10, 3), name
        outcomes.add(report.obligation)
    for name, g, c, depth in _deadlocking_systems():
        report = bounded_fidelity_check(g, c, depth, channel_bound=3)
        assert report == _reference_fidelity(g, c, depth, 3), name
        outcomes.add(report.obligation)
    assert outcomes == {None, "intersection", "deadlock"}


@pytest.fixture
def configurations(monkeypatch):
    """The configuration objects made while the test runs, counted at
    construction."""
    made = []
    init = CsmConfiguration.__init__

    def counted(cfg, *args, **kwargs):
        init(cfg, *args, **kwargs)
        made.append(cfg)

    monkeypatch.setattr(CsmConfiguration, "__init__", counted)
    return made


def test_fidelity_makes_no_configuration_objects(configurations):
    # the replay steps machine state numbers, since a split trace leaves
    # every channel empty between exchanges, and the search steps raw tuples
    cases = [(e.name, e.load(), None, 10) for e in entries()]
    cases += [(f"gk({k})", generate_gk(k), None, 10) for k in range(1, 4)]
    g = parse_global_type("p->q:m . 0")
    machines = machines_for(g)
    q_machine = machines[Q]
    machines[Q] = SubsetMachine(
        Q, q_machine.nodes, q_machine.masks[:1], ((),), q_machine.events, 0
    )
    cases.append(("p->q:m with q unable to receive", g, Csm(machines), 10))
    cases += _deadlocking_systems()
    outcomes = set()
    for name, g, c, depth in cases:
        c = c or system_for(g)
        report = bounded_fidelity_check(g, c, depth, channel_bound=3)
        assert configurations == [], name
        assert report == _reference_fidelity(g, c, depth, 3), name
        outcomes.add(report.obligation)
    assert outcomes == {None, "intersection", "replay", "deadlock"}


@pytest.fixture
def automata_built(monkeypatch):
    """The protocols whose automaton the oracle builds while the test runs."""
    built = []
    build = oracle.build_gaut

    def counting(g):
        built.append(g)
        return build(g)

    monkeypatch.setattr(oracle, "build_gaut", counting)
    return built


def test_fidelity_reads_the_automaton_its_machines_were_built_from(automata_built):
    inputs = [(e.name, e.load()) for e in entries()]
    inputs += [(f"gk({k})", generate_gk(k)) for k in range(1, 4)]
    other = parse_global_type("p->q:m . 0")
    for name, g in inputs:
        c = system_for(g)
        report = bounded_fidelity_check(g, c, 10, channel_bound=3)
        assert automata_built == [], name
        assert report == _reference_fidelity(g, c, 10, 3), name
        hand_built = Csm({
            role: SubsetMachine(role, m.nodes, m.masks, m.arcs, m.events, m.final_mask)
            for role, m in c.machines.items()
        })
        assert bounded_fidelity_check(g, hand_built, 10, channel_bound=3) == report, name
        assert automata_built == [g], name
        automata_built.clear()
        # one machine of another build of the automaton of g
        role, _ = next(iter(c.machines.items()))
        mixed = Csm({**c.machines, role: subset_construction(g, role)})
        assert bounded_fidelity_check(g, mixed, 10, channel_bound=3) == report, name
        assert automata_built == [g], name
        automata_built.clear()
        # the machines of another protocol
        foreign = system_for(other)
        assert bounded_fidelity_check(g, foreign, 10, channel_bound=3) == (
            _reference_fidelity(g, foreign, 10, 3)
        ), name
        assert automata_built == [g], name
        automata_built.clear()


def test_fidelity_refutes_events_that_no_run_has():
    g = parse_global_type("p->q:m . 0")
    Z = Role("z")
    z_machine = machines_for(parse_global_type("z->w:n . 0"))[Z]
    systems = {
        "role z is not in the protocol": Csm({**machines_for(g), Z: z_machine}),
        "p sends to a role not in the protocol": system_for(
            parse_global_type("p->q:m . p->z:n . 0")
        ),
        "no exchange of the protocol carries x": system_for(
            parse_global_type("+ { p->q:m . 0, p->q:x . 0 }")
        ),
    }
    for why, c in systems.items():
        report = bounded_fidelity_check(g, c, 10, channel_bound=3)
        assert report.obligation == "intersection", why
        assert report == _reference_fidelity(g, c, 10, 3), why


def test_fidelity_searches_again_when_the_parents_run_does_not_extend():
    # draw 115 of Random(11) with at most 8 exchanges
    g = parse_global_type("mu t1 . + { s->q:b . p->q:b . t1, s->q:e . t1, s->q:a . t1 }")
    a = build_gaut(g)
    S, A, B = Role("s"), Message("a"), Message("b")
    parent = intersection_witness(g, parse_trace("p>q!b"), automaton=a)
    assert _trace(parent) == (SyncEvent(S, Q, B), SyncEvent(P, Q, B))
    # every run that extends the parent's has s send b first, so the child
    # is consistent only through s->q:a, back round the loop, and then b
    child = intersection_witness(g, parse_trace("p>q!b.s>q!a"), automaton=a)
    assert _trace(child) == (SyncEvent(S, Q, A), SyncEvent(S, Q, B), SyncEvent(P, Q, B))
    c = system_for(g)
    assert bounded_fidelity_check(g, c, 8, channel_bound=4) == _reference_fidelity(g, c, 8, 4)
    # the reference's report at depth 14, which takes it about 17 s
    assert bounded_fidelity_check(g, c, 14, channel_bound=4) == FidelityReport(
        True, None, None, 9, 56595
    )


def test_each_checked_trace_gets_the_verdict_of_a_fresh_search(monkeypatch):
    """Every trace the fidelity search checks is consistent exactly when
    :func:`intersection_witness` finds a run, and every run it carries,
    ``(end, halves)``, extends every role's view and stands for a path from
    the initial state to ``end`` whose halves are exactly ``halves``.  The
    check passes the views as nodes of its trie, spelled out here."""
    checked = []
    extend = oracle._extend

    def recording(out, root, run, views, j, tails, trie):
        found = extend(out, root, run, views, j, tails, trie)
        checked.append((tuple(map(trie.path, views)), found))
        return found

    monkeypatch.setattr(oracle, "_extend", recording)
    refuted = 0
    for name, g in _differential_inputs():
        a = build_gaut(g)
        checked.clear()
        report = bounded_fidelity_check(g, system_for(g), 10, channel_bound=3)
        assert len(checked) == report.csm_traces_checked, name
        for targets, run in checked:
            # a trace with these per-role views (event numbers of halves)
            views = [
                tuple(split_event(a.labels[n // 2])[n % 2] for n in view) for view in targets
            ]
            trace = tuple(e for view in views for e in view)
            consistent = intersection_witness(g, trace, automaton=a) is not None
            assert (run is not None) == consistent, (name, trace)
            if run is None:
                refuted += 1
                continue
            end, halves = run
            for view, mine in zip(targets, halves):
                assert mine[: len(view)] == view, (name, trace)
            assert _realizes(a, end, halves), (name, trace)
    assert refuted


def _realizes(a, end, halves):
    """Whether a path of ``a`` from its initial state to bit ``end`` has,
    per role, exactly the halves ``halves`` (event numbers): a product
    search in which each half must be its role's next one in ``halves``."""
    ends = a.ends

    def successors(node):
        state, counts = node
        for src, k, tgt in a.edges:
            if src != state:
                continue
            if k is None:
                yield None, (tgt, counts)
                continue
            moved = list(counts)
            for i, event in zip(ends[k], (2 * k, 2 * k + 1)):
                if moved[i] >= len(halves[i]) or halves[i][moved[i]] != event:
                    break
                moved[i] += 1
            else:
                yield None, (tgt, tuple(moved))

    start = (a.bit[a.initial], (0,) * len(halves))
    goal = (end, tuple(map(len, halves)))
    return _shortest_path(start, successors, lambda node: node == goal) is not None


def test_a_run_that_still_matches_is_kept_without_a_search(monkeypatch):
    # draw 115 of Random(11), as in the test above that searches again
    g = parse_global_type("mu t1 . + { s->q:b . p->q:b . t1, s->q:e . t1, s->q:a . t1 }")
    c = system_for(g)
    searches = 0

    def counting(search):
        def counted(*args):
            nonlocal searches
            searches += 1
            return search(*args)

        return counted

    # a search from the initial state and a tail from a run's end both count
    monkeypatch.setattr(oracle, "_search", counting(oracle._search))
    monkeypatch.setattr(oracle, "_tail", counting(oracle._tail))
    report = bounded_fidelity_check(g, c, 8, channel_bound=4)
    monkeypatch.undo()
    assert searches < report.csm_traces_checked
    assert report == _reference_fidelity(g, c, 8, 4)


def test_each_tail_from_a_runs_end_is_searched_once_per_check(monkeypatch):
    # draw 115 of Random(11), as in the tests above
    g = parse_global_type("mu t1 . + { s->q:b . p->q:b . t1, s->q:e . t1, s->q:a . t1 }")
    c = system_for(g)
    keys = []
    tail = oracle._tail

    def recording(out, end, j, event, roles):
        keys.append((end, j, event))
        return tail(out, end, j, event, roles)

    monkeypatch.setattr(oracle, "_tail", recording)
    # the table lasts one check, so the second check searches again
    for _ in range(2):
        keys.clear()
        report = bounded_fidelity_check(g, c, 8, channel_bound=4)
        assert keys
        assert len(keys) == len(set(keys))
    monkeypatch.undo()
    assert report == _reference_fidelity(g, c, 8, 4)


def test_fidelity_pins_a_deep_recursive_draw():
    # draw 342 of random_global_type(Random(7), max_size=25): 86 991
    # traces at depth 10, nearly all of them extending a run at its end
    g = parse_global_type(
        "mu t1 . mu t2 . mu t3 . + { r->p:e . t1, r->s:c . t2, r->q:d . t1 }"
    )
    report = bounded_fidelity_check(g, system_for(g), 10, channel_bound=3)
    assert report == FidelityReport(True, None, None, 18, 86991)


def test_only_a_search_from_the_initial_state_spells_out_views(monkeypatch):
    # a tail from a run's end follows automaton state bits, so every product
    # search starts at the initial state with no half taken: on the draw
    # above, whose traces nearly all extend a run at its end, and on draw
    # 115 of Random(11), whose runs mostly cannot be kept or continued
    cases = [
        ("mu t1 . mu t2 . mu t3 . + { r->p:e . t1, r->s:c . t2, r->q:d . t1 }",
         10, 3, FidelityReport(True, None, None, 18, 86991)),
        ("mu t1 . + { s->q:b . p->q:b . t1, s->q:e . t1, s->q:a . t1 }",
         8, 4, FidelityReport(True, None, None, 9, 3452)),
    ]
    starts, tails = [], []
    search, tail = oracle._search, oracle._tail

    def searching(out, targets, start):
        starts.append(start)
        return search(out, targets, start)

    def extending(*args):
        tails.append(args[1:4])
        return tail(*args)

    for text, depth, bound, expected in cases:
        g = parse_global_type(text)
        a, c = build_gaut(g), system_for(g)
        starts.clear()
        tails.clear()
        monkeypatch.setattr(oracle, "_search", searching)
        monkeypatch.setattr(oracle, "_tail", extending)
        report = bounded_fidelity_check(g, c, depth, channel_bound=bound)
        monkeypatch.undo()
        assert report == expected, text
        assert tails, text
        assert set(starts) <= {(a.bit[a.initial], (0,) * len(a.roles))}, text
    assert starts


def _tail_inputs():
    """The corpus, gk(1..4) and 1000 random draws."""
    for entry in entries():
        yield entry.name, entry.load()
    for k in range(1, 5):
        yield f"gk({k})", generate_gk(k)
    rng = Random(7)
    for draw in range(1000):
        yield f"draw {draw}", random_global_type(rng, max_size=25)


def test_tails_match_the_product_search_reference():
    # every (end bit, role, own half) triple: the tail over state bits is
    # the product search's tail from that end, with only that role short
    found = missed = 0
    for name, g in _tail_inputs():
        a = build_gaut(g)
        out, roles = a.succ, len(a.roles)
        for end in range(len(a.states)):
            for event in range(len(a.events)):
                j = a.ends[event // 2][event % 2]
                tail = oracle._tail(out, end, j, event, roles)
                assert tail == reference_tail(out, end, j, event, roles), (name, end, event)
                found += tail is not None
                missed += tail is None
    assert found and missed


def test_exploration_matches_the_object_based_reference():
    deadlocked = 0
    for name, g in _differential_inputs():
        c = system_for(g)
        report = explore(c, channel_bound=3, depth=10, keep_traces=True)
        reference = _reference_explore(c, 3, 10)
        assert report.visited == reference.visited, name
        assert report.frontier_cut == reference.frontier_cut, name
        assert report.trace_prefixes == reference.trace_prefixes, name
        assert [
            (_Configuration.of(c, cfg), trace) for cfg, trace in report.deadlocks
        ] == list(reference.deadlocks), name
        deadlocked += bool(report.deadlocks)
    assert deadlocked


def test_enabled_events_match_the_reference_on_every_explored_configuration():
    # explore keeps one shortest trace per configuration it visits
    inputs = [(e.name, e.load()) for e in entries()]
    inputs += [(f"gk({k})", generate_gk(k)) for k in range(1, 4)]
    for name, g in inputs:
        c = system_for(g)
        report = explore(c, keep_traces=True)
        assert len(report.trace_prefixes) == report.visited, name
        for trace in report.trace_prefixes:
            cfg = replay_trace(c, trace)
            reference = _reference_enabled(c, _Configuration.of(c, cfg))
            enabled = csm._enabled(c, cfg.states, cfg.channels)
            assert tuple(c.events[move[5]] for move in enabled) == reference, (name, trace)


def test_intersection_matches_the_object_based_reference():
    found = missed = 0
    for name, g in _differential_inputs():
        a = build_gaut(g)
        rng = Random(name)
        report = explore(system_for(g), channel_bound=3, depth=10, keep_traces=True)
        traces = sorted(report.trace_prefixes, key=lambda t: (len(t), list(map(str, t))))
        for trace in traces:
            for w in (trace, tuple(rng.sample(trace, len(trace)))):
                witness = intersection_witness(g, w, automaton=a)
                assert witness == _reference_intersection(g, w, a), (name, w)
                found += witness is not None
                missed += witness is None
    assert found and missed

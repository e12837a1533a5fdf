"""The implementability decision: send and receive validity.

A protocol is implementable exactly when, for every role, the deterministic
machine built by subset construction satisfies two conditions:

* **send validity** — whenever a state takes a send transition, *every*
  member subterm of that state can perform that send (via some path whose
  only other steps are silent for the role).  Otherwise the role could
  commit to a send that part of the protocol never allows, and
  :func:`build_counterexample` turns the unable member into a concrete bad
  execution.

* **receive validity** — whenever a state can receive from two *different*
  senders, taking the second receive must not leave the first sender's
  message available: otherwise both messages can be in flight at once and
  the role may consume them in an order the protocol cannot explain.
  Availability is computed by :func:`available_messages`, a walk of the
  protocol's automaton for the sends that can "bubble up" to the front of a
  subterm while a set of roles stands still.

Both checks are sound and complete, so a violation always yields a real
counterexample trace, verified against the machine semantics before it is
returned.

Both are tests on the machine's masks (see
:class:`~gtproj.projection.SubsetMachine`).  A send x from a state with
mask ``s`` is valid when ``s & ~can[x]`` is empty, where ``can[x]`` masks
the nodes whose silent closure meets an x-labeled edge.  Receive validity
asks :func:`available_messages` about the members of the second receive's
target mask, lowest position (nearest the root) first, up to the first at
which the offending send is available, and asks about each member once.
State objects are made only for a violation that is reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Optional

from .automata import (
    AsyncEvent,
    Direction,
    Edge,
    LocalNfa,
    SyncAutomaton,
    SyncEvent,
    _closures,
    _select,
    _shortest_path,
    _span,
    build_gaut,
    receive,
    send,
    split_word,
)
from .csm import Csm, NotEnabled, replay_trace
from .oracle import intersection_witness
from .projection import (
    SubsetMachine,
    SubsetState,
    build_projections,
)
from .syntax import (
    GlobalType,
    Role,
    pretty_inline,
    validate_well_formedness,
    WellFormednessReport,
)

__all__ = [
    "MachineTransition",
    "AvailableMessageQuery",
    "AvailableMessageResult",
    "available_messages",
    "ViolationKind",
    "SendViolationDetails",
    "ReceiveViolationDetails",
    "ValidityViolation",
    "check_send_validity",
    "check_receive_validity",
    "check_no_mixed_choice",
    "IllFormedProtocolError",
    "InternalError",
    "Verdict",
    "check_implementability",
    "build_counterexample",
]


#: A deterministic-machine transition: (source, event, target).
MachineTransition = tuple[SubsetState, AsyncEvent, SubsetState]


class InternalError(RuntimeError):
    """A should-be-impossible situation: an invariant the checks rely on
    failed to hold.  Indicates a bug, never bad user input."""


class IllFormedProtocolError(ValueError):
    """Raised when an operation that requires a well-formed protocol is
    handed one that is not; carries the full report."""

    def __init__(self, report: WellFormednessReport) -> None:
        lines = "; ".join(v.message for v in report.violations)
        super().__init__(f"protocol is not well-formed: {lines}")
        self.report = report


# --------------------------------------------------------------------------- #
# Available messages
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class AvailableMessageQuery:
    """Ask which sends can reach the front of ``subterm``'s execution while
    the ``blocked`` roles perform nothing."""

    subterm: GlobalType
    blocked: frozenset[Role]


@dataclass(frozen=True)
class AvailableMessageResult:
    """The available send events, each with a witness: a chained sequence of
    synchronous-automaton transitions from the queried subterm whose last
    transition is the exchange producing the event."""

    events: frozenset[AsyncEvent]
    witness: Mapping[AsyncEvent, tuple[Edge, ...]]


class _AvailableWalks:
    """The available-message tables of one protocol's automaton.

    A walk is a state bit, the blocked roles as a mask over the automaton's
    ``roles`` and the unfolded binders as a mask over state bits.  Its
    table maps the number of each label whose send is available to the
    positions in ``edges`` of that send's witness, and depends on nothing
    else, so one memo serves every query on the protocol.  Walks follow the
    numbered edges with an explicit stack, so a deep protocol reaches no
    recursion limit.
    """

    __slots__ = ("automaton", "ends", "channel", "memo")

    def __init__(self, a: SyncAutomaton) -> None:
        self.automaton = a
        number = {r.name: i for i, r in enumerate(a.roles)}
        ends = [(number[l.sender.name], number[l.receiver.name]) for l in a.labels]
        # per label: the masks of its sender and receiver, its channel's number
        self.ends = [(1 << s, 1 << r) for s, r in ends]
        self.channel = [s * len(number) + r for s, r in ends]
        self.memo: dict[tuple[int, int, int], dict[int, tuple[int, ...]]] = {}

    def table(self, bit: int, blocked: int) -> dict[int, tuple[int, ...]]:
        """Each send available from state ``bit``, by label number, with the
        positions of its witness edges."""
        edges, variables = self.automaton.edges, self.automaton.variables
        ends, channel, memo = self.ends, self.channel, self.memo
        # A frame is a walk and, once its steps are pushed, those steps:
        # per edge followed, (position, inner walk, hidden channel, own
        # label).  A cycle passes a variable's edge to its binder, followed
        # only while that binder is not unfolded and then unfolding it, so
        # along any chain of steps the walks differ and none waits on itself.
        stack: list[tuple] = [((bit, blocked, 0), None)]
        while stack:
            walk, steps = stack.pop()
            if walk in memo:
                continue
            if steps is None:
                i, walk_blocked, unfolded = walk
                steps = []
                for j in _span(edges, i):
                    _, k, tgt = edges[j]
                    if k is None:
                        if not variables >> i & 1:  # a binder: into its body
                            steps.append((j, (tgt, walk_blocked, unfolded | 1 << i), -1, None))
                        elif not unfolded >> tgt & 1:  # a variable: to its binder
                            steps.append((j, (tgt, walk_blocked, unfolded), -1, None))
                    else:
                        sender, receiver = ends[k]
                        if walk_blocked & sender:  # its receiver waits too
                            steps.append((j, (tgt, walk_blocked | receiver, unfolded), -1, None))
                        else:  # its send hides later sends on its channel
                            steps.append((j, (tgt, walk_blocked, unfolded), channel[k], k))
                stack.append((walk, steps))
                stack.extend((step[1], None) for step in reversed(steps))
                continue
            table = memo[walk] = {}
            for j, inner, hidden, own in steps:
                for k, witness in memo[inner].items():
                    if channel[k] != hidden:
                        table.setdefault(k, (j,) + witness)
                if own is not None:
                    table.setdefault(own, (j,))
        return memo[(bit, blocked, 0)]


def available_messages(
    g_root: GlobalType,
    q: AvailableMessageQuery,
    *,
    _walks: Optional[_AvailableWalks] = None,
) -> AvailableMessageResult:
    """Compute the messages available at a subterm of ``g_root``.

    A send ``a>b!m`` is available when the protocol, starting at the
    subterm, can reach that exchange without any blocked role taking a step
    first — choices by a blocked sender freeze their receivers too (they
    would wait forever), and an earlier exchange on the same channel hides
    later sends on it.  Each binder is unfolded at most once per path (a
    variable's edge back to its binder is followed only while that binder
    is not unfolded), which suffices because availability is not increased
    by a second pass through a loop.  The walk follows the automaton's
    edges, so a choice's branches come by (receiver, message) names.

    ``_walks``, when given, must be built from ``g_root``'s automaton;
    callers that ask many queries on one protocol share its memo.
    """
    walks = _walks if _walks is not None else _AvailableWalks(build_gaut(g_root))
    a = walks.automaton
    i = a.bit.get(q.subterm)
    if i is None:
        raise InternalError("queried subterm does not occur in the protocol")
    blocked = sum(1 << n for n, r in enumerate(a.roles) if r in q.blocked)
    labels, step = a.labels, a.transitions.__getitem__
    witness = {
        send(labels[k].sender, labels[k].receiver, labels[k].message): tuple(map(step, w))
        for k, w in walks.table(i, blocked).items()
    }
    return AvailableMessageResult(frozenset(witness), witness)


# --------------------------------------------------------------------------- #
# Violations
# --------------------------------------------------------------------------- #


class ViolationKind(Enum):
    SEND_VALIDITY = "SendValidity"
    RECEIVE_VALIDITY = "ReceiveValidity"


@dataclass(frozen=True)
class SendViolationDetails:
    """A send transition some members of its source state cannot perform."""

    transition: MachineTransition
    missing: tuple[GlobalType, ...]  # members of the source state unable to send


@dataclass(frozen=True)
class ReceiveViolationDetails:
    """Two receives from different senders where taking the second leaves
    the first sender's message available."""

    transition_one: MachineTransition  # the receive whose message stays available
    transition_two: MachineTransition  # the receive that was taken
    witness_subterm: GlobalType  # destination subterm where it stays available
    offending_event: AsyncEvent  # the still-available send
    witness_suffix: tuple[Edge, ...]  # how it becomes available from there


@dataclass(frozen=True)
class ValidityViolation:
    """One failed validity condition at one machine state."""

    kind: ViolationKind
    role: Role
    state: SubsetState
    details: object

    def describe(self) -> str:
        if self.kind is ViolationKind.SEND_VALIDITY:
            d: SendViolationDetails = self.details  # type: ignore[assignment]
            _, event, _ = d.transition
            unable = ", ".join(pretty_inline(m) for m in d.missing)
            return (
                f"send validity fails for role {self.role}: transition {event} "
                f"at state {self.state} is impossible for member(s): {unable}"
            )
        d2: ReceiveViolationDetails = self.details  # type: ignore[assignment]
        _, first, _ = d2.transition_one
        _, second, _ = d2.transition_two
        return (
            f"receive validity fails for role {self.role}: at state {self.state}, "
            f"after {second} the message of {first} is still available "
            f"({d2.offending_event} at {pretty_inline(d2.witness_subterm)})"
        )


def _sendable(nfa: LocalNfa) -> list[Optional[int]]:
    """Per rank of ``nfa.events``: for a send x, the mask of the nodes that
    can perform x after silent steps, that is whose silent closure meets an
    x-labeled edge's source; ``None`` for a receive.

    The mask is the union of those sources' co-closures (the nodes whose
    closure contains the source), one union per x-labeled edge.
    """
    can: list[Optional[int]] = [
        0 if e.direction is Direction.SEND else None for e in nfa.events
    ]
    back = [0] * len(nfa.states)
    sources: list[tuple[int, int]] = []
    for src, r, tgt in nfa.edges:
        if r is None:
            back[tgt] |= 1 << src
        elif can[r] is not None:
            sources.append((r, src))
    # a silent step mostly goes from a node to a child, which the pre-order
    # numbers later; ascending order mostly closes a node's predecessors first
    co = _closures(back, range(len(back))) if any(back) else None
    for r, src in sources:
        can[r] |= co[src] if co is not None else 1 << src
    return can


def _send_violations(m: SubsetMachine, nfa: LocalNfa) -> Iterator[ValidityViolation]:
    # A send from a state is valid when every member can perform it: the
    # state's mask lies inside the send's mask from _sendable (the machine's
    # label ranks are the view's).
    can = _sendable(nfa)
    for number, (mask, moves) in enumerate(zip(m.masks, m.arcs)):
        for r, target in moves:
            able = can[r]
            if able is None or not mask & ~able:
                continue
            state = SubsetState(m, number)
            yield ValidityViolation(
                ViolationKind.SEND_VALIDITY,
                m.role,
                state,
                SendViolationDetails(
                    (state, m.events[r], SubsetState(m, target)),
                    nfa.members(mask & ~able),
                ),
            )


def check_send_validity(m: SubsetMachine, nfa: LocalNfa) -> Optional[ValidityViolation]:
    """First send-validity violation in scan order (states in discovery
    order, transitions in label order), or ``None``."""
    return next(_send_violations(m, nfa), None)


def _receive_violations(
    m: SubsetMachine, nfa: LocalNfa, g: GlobalType
) -> Iterator[ValidityViolation]:
    role, events, nodes, masks = m.role, m.events, m.nodes, m.masks
    # per rank of a receive: the send that must not stay available after
    # a receive from another sender
    offending = [
        None if e.direction is Direction.SEND else send(e.peer, role, e.message)
        for e in events
    ]
    peers = [e.peer.name for e in events]
    blocked = frozenset((role,))
    walks: Optional[_AvailableWalks] = None  # made at the first query
    results: dict[int, AvailableMessageResult] = {}  # per node asked

    def first_available(x: AsyncEvent, destinations: int) -> Optional[int]:
        """The lowest destination at which ``x`` is available, asking each
        node once, in ascending order, up to the first hit."""
        nonlocal walks
        for i in _select(range(len(nodes)), destinations):
            result = results.get(i)
            if result is None:
                walks = walks or _AvailableWalks(nfa.automaton)
                result = results[i] = available_messages(
                    g, AvailableMessageQuery(nodes[i], blocked), _walks=walks
                )
            if x in result.events:
                return i
        return None

    for number, moves in enumerate(m.arcs):
        receives = [(r, t) for r, t in moves if offending[r] is not None]
        for r1, t1 in receives:
            x = offending[r1]
            for r2, t2 in receives:
                if peers[r2] == peers[r1]:
                    continue
                # the destinations of the second receive are its target's members
                w = first_available(x, masks[t2])
                if w is None:
                    continue
                state = SubsetState(m, number)
                yield ValidityViolation(
                    ViolationKind.RECEIVE_VALIDITY,
                    role,
                    state,
                    ReceiveViolationDetails(
                        (state, events[r1], SubsetState(m, t1)),
                        (state, events[r2], SubsetState(m, t2)),
                        nodes[w],
                        x,
                        results[w].witness[x],
                    ),
                )


def check_receive_validity(
    m: SubsetMachine, nfa: LocalNfa, g: GlobalType
) -> Optional[ValidityViolation]:
    """First receive-validity violation in scan order, or ``None``.

    Only pairs of receives from *different* senders are constrained: same-
    sender alternatives arrive on one FIFO channel and cannot race.  The
    destinations of a receive are its target state's members, and
    :func:`available_messages` walks ``nfa``'s automaton from each of them.
    """
    return next(_receive_violations(m, nfa, g), None)


def check_no_mixed_choice(m: SubsetMachine) -> bool:
    """True when no state of the machine offers both a send and a receive.

    Machines of implementable protocols are never mixed; a projectable
    protocol in the classical, syntactic sense additionally never *shares*
    a state between different peers, but mixedness is the part that matters
    for comparing against classical projection.
    """
    for moves in m.arcs:
        directions = {m.events[r].direction for r, _ in moves}
        if len(directions) > 1:
            return False
    return True


# --------------------------------------------------------------------------- #
# The decision procedure
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Verdict:
    """Outcome of :func:`check_implementability`.

    ``projections`` is present exactly when the protocol is implementable;
    ``violation``/``counterexample`` exactly when it is not.  ``violations``
    collects every violation found (more than one only when requested).
    """

    implementable: bool
    projections: Optional[dict[Role, SubsetMachine]]
    violation: Optional[ValidityViolation]
    counterexample: Optional[tuple[AsyncEvent, ...]]
    violations: tuple[ValidityViolation, ...] = ()


#: What :func:`build_projections` returns for ``g``.  Passing it as
#: ``_projections`` says that :func:`validate_well_formedness` has accepted
#: ``g``: neither :func:`check_implementability` nor
#: :func:`build_counterexample` validates ``g`` then, so an ill-formed ``g``
#: raises no :class:`IllFormedProtocolError`.
_Projections = tuple[SyncAutomaton, dict[Role, tuple[LocalNfa, SubsetMachine]]]


def check_implementability(
    g: GlobalType,
    *,
    all_violations: bool = False,
    _projections: Optional[_Projections] = None,
) -> Verdict:
    """Decide whether ``g`` is implementable.

    Scans roles in first-occurrence order, checking send validity then
    receive validity per role, and stops at the first violation unless
    ``all_violations`` is set.  A violation is returned together with a
    verified counterexample trace.  Raises :class:`IllFormedProtocolError`
    when ``g`` breaks the structural rules, unless the caller passes
    ``_projections`` (see :data:`_Projections`).
    """
    if _projections is None:
        report = validate_well_formedness(g)
        if not report.ok:
            raise IllFormedProtocolError(report)
    a, table = _projections if _projections is not None else build_projections(g)
    found: list[ValidityViolation] = []
    for nfa, machine in table.values():
        if all_violations:
            found.extend(_send_violations(machine, nfa))
            found.extend(_receive_violations(machine, nfa, g))
        else:
            violation = check_send_validity(machine, nfa) or check_receive_validity(
                machine, nfa, g
            )
            if violation is not None:
                found.append(violation)
                break
    if not found:
        return Verdict(
            implementable=True,
            projections={role: machine for role, (_, machine) in table.items()},
            violation=None,
            counterexample=None,
        )
    first = found[0]
    counterexample = build_counterexample(g, first, _projections=(a, table))
    return Verdict(
        implementable=False,
        projections=None,
        violation=first,
        counterexample=counterexample,
        violations=tuple(found),
    )


# --------------------------------------------------------------------------- #
# Counterexamples
# --------------------------------------------------------------------------- #


def _product_search(
    a: SyncAutomaton, nfa: LocalNfa, m: SubsetMachine, goal_nodes: int, goal: int
) -> tuple[Edge, ...]:
    """Shortest protocol path from the root to a node of mask ``goal_nodes``
    that lands the role's machine in state number ``goal``.  It pairs bits
    with state numbers; ``nfa.edges[i]`` gives ``a.transitions[i]``'s rank."""
    transitions, edges = a.transitions, nfa.edges

    def successors(node: tuple[int, int]) -> Iterator[tuple[Edge, tuple[int, int]]]:
        i, number = node
        for j in _span(edges, i):
            _, r, tgt = edges[j]
            if r is None:
                yield transitions[j], (tgt, number)
                continue
            for moved, successor in m.arcs[number]:
                if moved == r:
                    yield transitions[j], (tgt, successor)
                    break

    path = _shortest_path(
        (nfa.bit[nfa.initial], 0),
        successors,
        lambda node: goal_nodes >> node[0] & 1 and node[1] == goal,
    )
    if path is None:
        raise InternalError("no protocol path realizes the violating state")
    return path


def _silent_path(
    a: SyncAutomaton, nfa: LocalNfa, source: int, target: int
) -> tuple[Edge, ...]:
    """Shortest path of transitions silent in ``nfa`` from bit ``source`` to
    bit ``target`` (empty when equal), with their exchange labels."""
    transitions, edges = a.transitions, nfa.edges

    def successors(i: int) -> Iterator[tuple[Edge, int]]:
        for j in _span(edges, i):
            _, r, tgt = edges[j]
            if r is None:
                yield transitions[j], tgt

    path = _shortest_path(source, successors, lambda i: i == target)
    if path is None:
        raise InternalError("witness subterm is not silently reachable")
    return path


def _member_steps(nfa: LocalNfa, mask: int, r: int) -> Iterator[tuple[int, int, int]]:
    """Every way a member of the state ``mask`` performs the event of rank
    ``r``: ``(member, node, target)`` positions for each rank-``r`` edge
    ``node -> target`` out of the member's silent closure.  Members and
    closure nodes come by ascending position, edges in the view's order."""
    targets: dict[int, list[int]] = {}
    for src, rank, tgt in nfa.edges:
        if rank == r:
            targets.setdefault(src, []).append(tgt)
    bits = range(len(nfa.states))
    for member in _select(bits, mask):
        for node in _select(bits, nfa.closures[member]):
            for tgt in targets.get(node, ()):
                yield member, node, tgt


def build_counterexample(
    g: GlobalType,
    v: ValidityViolation,
    *,
    _projections: Optional[_Projections] = None,
) -> tuple[AsyncEvent, ...]:
    """Turn a validity violation into a concrete bad execution.

    The returned trace executes in the machine system yet is consistent
    with no run of the protocol; both facts are re-verified against the
    semantics before returning (an :class:`InternalError` would indicate a
    bug in the checks, not bad input).

    For a send violation: drive the protocol to a run that reaches a member
    unable to send while the role's machine sits in the violating state,
    then fire the send.  For a receive violation: reach the violating state
    along a run whose next exchange is the second receive's message, put
    that message in flight, let the still-available first message bubble up
    (skipping steps of roles that are frozen behind the role under test),
    and then receive the first message ahead of the second.

    ``g`` must be well-formed (see :data:`_Projections`); it is not
    validated here.
    """
    a, table = _projections if _projections is not None else build_projections(g)
    nfa, machine = table[v.role]
    # by members: ``v`` may name a state of other machines built from ``g``
    number = machine.masks.index(sum(1 << nfa.bit[node] for node in v.state))

    if v.kind is ViolationKind.SEND_VALIDITY:
        details: SendViolationDetails = v.details  # type: ignore[assignment]
        _, event, _ = details.transition
        missing = sum(1 << nfa.bit[node] for node in details.missing)
        alpha = _product_search(a, nfa, machine, missing, number)
        trace = split_word(e[1] for e in alpha if e[1] is not None) + (event,)
    else:
        d: ReceiveViolationDetails = v.details  # type: ignore[assignment]
        _, first, _ = d.transition_one
        _, second, _ = d.transition_two
        wanted = SyncEvent(second.peer, v.role, second.message)
        witness = nfa.bit[d.witness_subterm]
        mask = machine.masks[number]
        for _, origin, landing in _member_steps(nfa, mask, nfa.events.index(second)):
            if nfa.closures[landing] >> witness & 1:
                break
        else:
            raise InternalError("second receive has no matching protocol exchange")
        alpha = _product_search(a, nfa, machine, 1 << origin, number)
        events: list[AsyncEvent] = list(split_word(e[1] for e in alpha if e[1] is not None))
        events.append(send(wanted.sender, wanted.receiver, wanted.message))
        silent = _silent_path(a, nfa, landing, witness)
        events.extend(split_word(e[1] for e in silent if e[1] is not None))
        # Replay the witness suffix, dropping steps of roles frozen behind
        # the role under test: a frozen sender's exchange freezes its
        # receiver too; a frozen receiver still lets the send go out.
        frozen = {v.role}
        for _, label, _ in d.witness_suffix[:-1]:
            if label is None:
                continue
            if label.sender in frozen:
                frozen.add(label.receiver)
                continue
            events.append(send(label.sender, label.receiver, label.message))
            if label.receiver not in frozen:
                events.append(receive(label.receiver, label.sender, label.message))
        final = d.witness_suffix[-1][1]
        if final != SyncEvent(first.peer, v.role, first.message):
            raise InternalError("witness suffix does not end at the available send")
        events.append(send(first.peer, v.role, first.message))
        events.append(receive(v.role, first.peer, first.message))
        trace = tuple(events)

    # Verify both halves of the claim against the semantics.
    system = Csm({role: machine for role, (_, machine) in table.items()})
    try:
        replay_trace(system, trace)
    except NotEnabled as exc:
        raise InternalError(f"counterexample does not execute: {exc}") from exc
    if intersection_witness(g, trace, automaton=a) is not None:
        raise InternalError("counterexample is consistent with a protocol run")
    return trace

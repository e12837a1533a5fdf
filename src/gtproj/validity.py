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
  Availability is a walk of the protocol's automaton for the sends that can
  "bubble up" to the front of a subterm while a set of roles stands still;
  :func:`available_messages` asks it about one subterm.

Every rejection comes with a counterexample trace, verified against the
machine semantics before it is returned.  Acceptance is not yet exact: the
checks accept some protocols with a mixed machine, one with a state that
offers both a send and a receive, such as
``+ { p->q:c . 0, p->s:c . q->r:a . 0 }``, whose role q can deadlock.
:func:`check_no_mixed_choice` is the test for such a machine;
:func:`check_implementability` does not call it.

Both are tests on the machine's masks (see
:class:`~gtproj.projection.SubsetMachine`).  A send x from a state with
mask ``s`` is valid when ``s & ~can[x]`` is empty, where ``can[x]`` masks
the nodes whose silent closure meets an x-labeled edge, found at x's first
use by reaching back over silent steps from the sources of x.  Receive
validity reads the walk tables (:class:`_AvailableWalks`) by label number:
for each pair of receives from different senders, it looks up the first
receive's label in the table of each member of the second receive's target
mask, lowest position (nearest the root) first, up to the first hit.  Each
member's walk runs once per role.  State objects, the offending send and
its witness edges are made only for a violation that is reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterator, Mapping, Optional

from .automata import (
    AsyncEvent,
    Direction,
    Edge,
    LocalNfa,
    SyncAutomaton,
    _select,
    _shortest_path,
    build_gaut,
)
from .csm import Csm, NotEnabled, replay_trace
from .oracle import intersection_witness
from .projection import (
    SubsetMachine,
    SubsetState,
    build_projections,
)
from .syntax import GlobalType, IllFormedProtocolError, Role, pretty_inline

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
    role numbers and the unfolded binders as a mask over state bits.  Each
    label's sender and receiver come from the automaton's ``ends``.  Its
    table maps the number of each label whose send is available to the
    positions in ``edges`` of that send's witness, and depends on nothing
    else, so one memo serves every query on the protocol.  Walks follow the
    automaton's edge index (``succ``) with an explicit stack, so a deep
    protocol reaches no recursion limit.  Receive validity makes one walks
    object per role, at that role's first pair of receives from different
    senders, and :func:`available_messages` one per query.
    """

    __slots__ = ("automaton", "ends", "channel", "memo")

    def __init__(self, a: SyncAutomaton) -> None:
        self.automaton = a
        # per label: the masks of its sender and receiver, its channel's number
        self.ends = [(1 << s, 1 << r) for s, r in a.ends]
        self.channel = [s * len(a.roles) + r for s, r in a.ends]
        self.memo: dict[tuple[int, int, int], dict[int, tuple[int, ...]]] = {}

    def table(self, bit: int, blocked: int) -> dict[int, tuple[int, ...]]:
        """Each send available from state ``bit``, by label number, with the
        positions of its witness edges."""
        succ, variables = self.automaton.succ, self.automaton.variables
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
                for j, k, tgt, _ in succ[i]:
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


def available_messages(g_root: GlobalType, q: AvailableMessageQuery) -> AvailableMessageResult:
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

    Raises ``ValueError`` when ``q.subterm`` does not occur in ``g_root``,
    and :class:`IllFormedProtocolError` when ``g_root`` is ill-formed.
    """
    walks = _AvailableWalks(build_gaut(g_root))
    a = walks.automaton
    i = a.bit.get(q.subterm)
    if i is None:
        raise ValueError("queried subterm does not occur in the protocol")
    blocked = sum(1 << n for n, r in enumerate(a.roles) if r in q.blocked)
    step = a.transitions.__getitem__
    witness = {
        a.events[2 * k]: tuple(map(step, w)) for k, w in walks.table(i, blocked).items()
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


def _send_violations(m: SubsetMachine, nfa: LocalNfa) -> Iterator[ValidityViolation]:
    # A send from a state is valid when every member can perform it: the
    # state's mask lies inside can[r], the nodes whose silent closure meets
    # sources[r], the nodes with a rank-r edge (the machine's label ranks are
    # the view's).  can[r] is the reach back from sources[r] over silent
    # steps, made at the first arc of rank r (-1 before; None for a receive).
    # A state has a rank-r arc exactly when its mask meets sources[r], so
    # only the states that meet a send's sources are scanned.
    back = [0] * len(nfa.states)
    sources = [0] * len(nfa.events)
    for src, r, tgt in nfa.edges:
        if r is None:
            back[tgt] |= 1 << src
        else:
            sources[r] |= 1 << src
    can: list[Optional[int]] = [-1 if e.is_send else None for e in nfa.events]
    sends = reduce(or_, compress(sources, can), 0)  # sources of the sends (can[r] == -1)
    for number, (mask, moves) in enumerate(zip(m.masks, m.arcs)):
        if not mask & sends:
            continue
        for r, target in moves:
            able = can[r]
            if able is None:
                continue
            if able < 0:
                able = frontier = sources[r]
                while frontier:
                    frontier = reduce(or_, _select(back, frontier)) & ~able
                    able |= frontier
                can[r] = able
            if not mask & ~able:
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


def _receive_violations(m: SubsetMachine, nfa: LocalNfa) -> Iterator[ValidityViolation]:
    role, events, nodes, masks = m.role, m.events, m.nodes, m.masks
    a = nfa.automaton
    # per rank of a receive: its label, whose send must not stay available
    # after a receive from another sender; ``None`` for a send
    labels = [
        None if e.direction is Direction.SEND else a.event_number(e) >> 1 for e in events
    ]
    if len({a.ends[k][0] for k in labels if k is not None}) < 2:
        return  # every receive comes from one sender: no pair can race
    blocked = 1 << a.role_number[role.name]
    walks: Optional[_AvailableWalks] = None  # made at the first cross-sender pair
    for number, moves in enumerate(m.arcs):
        receives = [(r, t) for r, t in moves if labels[r] is not None]
        for r1, t1 in receives:
            k = labels[r1]
            for r2, t2 in receives:
                if a.ends[labels[r2]][0] == a.ends[k][0]:
                    continue
                walks = walks or _AvailableWalks(a)
                # the destinations of the second receive are its target's
                # members: the first, nearest the root, at which k is available
                for w in _select(range(len(nodes)), masks[t2]):
                    witness = walks.table(w, blocked).get(k)
                    if witness is not None:
                        break
                else:
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
                        a.events[2 * k],
                        tuple(map(a.transitions.__getitem__, witness)),
                    ),
                )


def check_receive_validity(m: SubsetMachine, nfa: LocalNfa) -> Optional[ValidityViolation]:
    """First receive-validity violation in scan order, or ``None``.

    Only pairs of receives from *different* senders are constrained: same-
    sender alternatives arrive on one FIFO channel and cannot race, so a
    machine whose receives all come from one sender is not scanned.  The
    destinations of a receive are its target state's members.  The check
    reads ``m``'s states and arcs and the available-message tables of
    ``nfa``'s automaton, by label number, from each destination in
    ascending order up to the first at which the first receive's send is
    available; the protocol's tree is not read.
    """
    return next(_receive_violations(m, nfa), None)


def check_no_mixed_choice(m: SubsetMachine) -> bool:
    """True when no state of the machine offers both a send and a receive.

    Machines of implementable protocols are never mixed; a projectable
    protocol in the classical, syntactic sense additionally never *shares*
    a state between different peers, but mixedness is the part that matters
    for comparing against classical projection.

    :func:`check_implementability` does not call it, and today accepts some
    protocols with a mixed machine, such as
    ``+ { p->q:c . 0, p->s:c . q->r:a . 0 }``, whose role q can deadlock.
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


#: What :func:`build_projections` returns for ``g``, which it builds only
#: for a well-formed ``g``.  Passed as ``_projections``, it spares
#: :func:`check_implementability` and :func:`build_counterexample` building
#: it again.
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
    when ``g`` breaks the structural rules: :func:`build_projections`
    refuses it.
    """
    a, table = _projections if _projections is not None else build_projections(g)
    found: list[ValidityViolation] = []
    for nfa, machine in table.values():
        if all_violations:
            found.extend(_send_violations(machine, nfa))
            found.extend(_receive_violations(machine, nfa))
        else:
            violation = check_send_validity(machine, nfa) or check_receive_validity(machine, nfa)
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
    with state numbers; ``nfa.edges[j]`` gives ``a.transitions[j]``'s rank."""
    transitions, succ, edges = a.transitions, a.succ, nfa.edges

    def successors(node: tuple[int, int]) -> Iterator[tuple[Edge, tuple[int, int]]]:
        i, number = node
        for j, _, tgt, _ in succ[i]:
            r = edges[j][1]
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
    transitions, succ, edges = a.transitions, a.succ, nfa.edges

    def successors(i: int) -> Iterator[tuple[Edge, int]]:
        for j, _, tgt, _ in succ[i]:
            if edges[j][1] is None:
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


def _halves(a: SyncAutomaton, path: tuple[Edge, ...]) -> list[AsyncEvent]:
    """The halves of the exchanges along ``path``, send then receive, as
    ``a.events`` holds them."""
    halves: list[AsyncEvent] = []
    for _, label, _ in path:
        if label is not None:
            k = a.label_number[(label.sender.name, label.receiver.name, label.message.label)]
            halves += a.events[2 * k : 2 * k + 2]
    return halves


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

    Raises :class:`IllFormedProtocolError` when ``g`` breaks the structural
    rules: :func:`build_projections` refuses it.
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
        trace = (*_halves(a, alpha), event)
    else:
        d: ReceiveViolationDetails = v.details  # type: ignore[assignment]
        _, first, _ = d.transition_one
        _, second, _ = d.transition_two
        witness = nfa.bit[d.witness_subterm]
        mask = machine.masks[number]
        for _, origin, landing in _member_steps(nfa, mask, nfa.events.index(second)):
            if nfa.closures[landing] >> witness & 1:
                break
        else:
            raise InternalError("second receive has no matching protocol exchange")
        alpha = _product_search(a, nfa, machine, 1 << origin, number)
        events = _halves(a, alpha)
        # the send of the second receive's message, which precedes its half
        events.append(a.events[a.event_number(second) - 1])
        events += _halves(a, _silent_path(a, nfa, landing, witness))
        # Replay the witness suffix, dropping steps of roles frozen behind
        # the role under test: a frozen sender's exchange freezes its
        # receiver too; a frozen receiver still lets the send go out.
        frozen = {v.role}
        for step in d.witness_suffix[:-1]:
            label = step[1]
            if label is None:
                continue
            if label.sender in frozen:
                frozen.add(label.receiver)
                continue
            send_half, receive_half = _halves(a, (step,))
            events.append(send_half)
            if label.receiver not in frozen:
                events.append(receive_half)
        n = a.event_number(first)
        if d.witness_suffix[-1][1] != a.labels[n // 2]:
            raise InternalError("witness suffix does not end at the available send")
        events += a.events[n - 1 : n + 1]
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

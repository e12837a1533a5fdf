"""Asynchronous execution of per-role machines over FIFO channels.

A system holds one deterministic machine per role and one unbounded FIFO
channel per ordered pair of distinct roles.  A send appends to the channel
(sender, receiver); a receive pops the head of (sender, receiver) and is
enabled only when the head matches.  A configuration is final when every
machine sits in a final state and every channel is empty; a deadlock is a
non-final configuration with no enabled event at all (moves suppressed only
by an exploration bound do not count).

Execution runs on numbers, not objects: a configuration is one state number
per role (in role order) plus one channel slot per ordered pair of roles
that the machines' events use, holding message numbers.  A move is a flat
tuple of those numbers, made from the machine's ``arcs`` when its state is
first looked up and kept in the system's per-role move table, which every
step, enabling test and exploration reads; finality is read off each
machine's ``masks`` and ``final_mask``.  Neither stepping nor exploring
makes a :class:`SubsetState`; only :meth:`CsmConfiguration.state_of` names
one.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional

from .automata import AsyncEvent
from .projection import SubsetMachine, SubsetState
from .syntax import Message, Role

__all__ = [
    "Csm",
    "CsmConfiguration",
    "initial_configuration",
    "StepFailure",
    "NotEnabled",
    "csm_step",
    "replay_trace",
    "ExplorationReport",
    "explore",
]


#: One move of a role's machine in the system's numbers: (role position,
#: successor state, is a send, channel slot, message number, event number).
_Move = tuple[int, int, bool, int, int, int]


class _Moves(dict):
    """One role's moves by state number, a state's made at its first
    lookup from the machine's ``arcs`` and the meaning of each label rank
    (``labels``, the last four fields of a :data:`_Move`), in label order."""

    __slots__ = ("position", "arcs", "labels")

    def __init__(self, position: int, arcs: tuple, labels: tuple) -> None:
        super().__init__()
        self.position, self.arcs, self.labels = position, arcs, labels

    def __missing__(self, state: int) -> tuple[_Move, ...]:
        i, labels = self.position, self.labels
        moves = self[state] = tuple([(i, t, *labels[r]) for r, t in self.arcs[state]])
        return moves


#: The int form of a configuration: (state numbers, channel contents).
_Raw = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def _names(e: AsyncEvent) -> tuple[str, str, str, bool]:
    """``e`` by name: (sender, receiver, message, is a send), where the
    channel it writes or reads is (sender, receiver)."""
    if e.is_send:
        return (e.active.name, e.peer.name, e.message.label, True)
    return (e.peer.name, e.active.name, e.message.label, False)


class Csm:
    """One deterministic machine per role, communicating over FIFO channels.

    The system is a numbering over its machines, made once: ``roles`` in
    name order, with ``position`` mapping a role to its index; one channel
    ``slot`` per ordered (sender, receiver) pair that some machine's events
    use; the ``messages`` and the ``events`` of all machines, roles in name
    order.  It maps an event's names to its (role position, event number),
    and per role it keeps a move table (:class:`_Moves`) that makes a
    state's moves in those numbers at the state's first lookup: stepping,
    enabling and exploring read only those tables, and making a ``Csm``
    costs O(events), not O(states).
    """

    __slots__ = (
        "machines", "roles", "position", "slot", "messages", "events",
        "_index", "_moves", "_ends",
    )

    def __init__(self, machines: Mapping[Role, SubsetMachine]) -> None:
        self.machines: dict[Role, SubsetMachine] = dict(machines)
        for role, machine in self.machines.items():
            if machine.role != role:
                raise ValueError(
                    f"machine for role {role} was built for role {machine.role}"
                )
        self.roles: tuple[Role, ...] = tuple(sorted(self.machines, key=lambda r: r.name))
        self.position: dict[Role, int] = {r: i for i, r in enumerate(self.roles)}
        ordered = [self.machines[r] for r in self.roles]
        # channels and messages are numbered by name: hashing strings is cheap
        slots: dict[tuple[str, str], int] = {}
        message: dict[str, int] = {}
        events: list[AsyncEvent] = []
        self._index: dict[tuple[str, str, str, bool], tuple[int, int]] = {}
        moves = []
        for i, m in enumerate(ordered):
            labels = []
            for e in m.events:
                names = sender, receiver, label, send = _names(e)
                self._index[names] = (i, len(events))
                labels.append((
                    send,
                    slots.setdefault((sender, receiver), len(slots)),
                    message.setdefault(label, len(message)),
                    len(events),
                ))
                events.append(e)
            moves.append(_Moves(i, m.arcs, tuple(labels)))
        self._moves: tuple[_Moves, ...] = tuple(moves)
        self._ends = tuple((m.masks, m.final_mask) for m in ordered)
        self.slot: dict[tuple[Role, Role], int] = {
            (Role(sender), Role(receiver)): k for (sender, receiver), k in slots.items()
        }
        self.messages: tuple[Message, ...] = tuple(map(Message, message))
        self.events: tuple[AsyncEvent, ...] = tuple(events)


@dataclass(frozen=True, slots=True)
class CsmConfiguration:
    """A snapshot of the system: per-role machine states plus channel
    contents, as numbers of ``system``.  ``states[i]`` is the state number
    of role ``system.roles[i]``; ``channels[k]`` holds the message numbers
    queued in channel slot ``k``, oldest first.  Equality and hashing read
    only those two tuples."""

    system: Csm = field(compare=False, repr=False)
    states: tuple[int, ...]
    channels: tuple[tuple[int, ...], ...]

    def state_of(self, role: Role) -> SubsetState:
        i = self.system.position.get(role)
        if i is None:
            raise KeyError(f"no machine for role {role}")
        return SubsetState(self.system.machines[role], self.states[i])

    def channel(self, sender: Role, receiver: Role) -> tuple[Message, ...]:
        k = self.system.slot.get((sender, receiver))
        if k is None:
            return ()
        messages = self.system.messages
        return tuple(messages[n] for n in self.channels[k])


def initial_configuration(c: Csm) -> CsmConfiguration:
    """All machines in their initial states, all channels empty."""
    return CsmConfiguration(c, (0,) * len(c.roles), ((),) * len(c.slot))


def _enabled(c: Csm, states: tuple[int, ...], channels: tuple) -> Iterator[_Move]:
    """Every enabled move, roles in name order, labels in machine order: a
    send is always enabled, a receive when its message heads its channel."""
    for moves, state in zip(c._moves, states):
        for move in moves[state]:
            if move[2] or (queue := channels[move[3]]) and queue[0] == move[4]:
                yield move


def _fire(states: tuple, channels: tuple, move: _Move) -> _Raw:
    """The configuration after an enabled ``move``."""
    i, successor, send, k, message, _ = move
    content = channels[k]
    content = content + (message,) if send else content[1:]
    return (
        states[:i] + (successor,) + states[i + 1 :],
        channels[:k] + (content,) + channels[k + 1 :],
    )


def _move(c: Csm, states: tuple[int, ...], i: Optional[int], event: int) -> Optional[_Move]:
    """Role ``i``'s move by event number ``event`` from ``states[i]``, or
    ``None`` when it has no such move or ``i`` is ``None``."""
    if i is not None:
        for move in c._moves[i][states[i]]:
            if move[5] == event:
                return move
    return None


def _is_final(c: Csm, states: tuple[int, ...], channels: tuple) -> bool:
    return not any(channels) and all(m[s] & f for (m, f), s in zip(c._ends, states))


def _check_bounds(channel_bound: int, depth: int) -> None:
    """Raise ``TypeError`` for a bound that is not an int (a bool is not
    one either), ``ValueError`` for one out of range."""
    for name, bound in (("channel_bound", channel_bound), ("depth", depth)):
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise TypeError(f"{name} must be an int, not {type(bound).__name__}")
    if channel_bound < 1:
        raise ValueError("channel_bound must be at least 1")
    if depth < 0:
        raise ValueError("depth must be non-negative")


class StepFailure(Enum):
    """Why an event was not enabled in a configuration."""

    NO_LOCAL_TRANSITION = "NoLocalTransition"
    EMPTY_CHANNEL = "EmptyChannel"
    WRONG_HEAD = "WrongHead"


class NotEnabled(Exception):
    """Raised by :func:`csm_step` when the event cannot fire."""

    def __init__(self, reason: StepFailure, event: AsyncEvent) -> None:
        super().__init__(f"{event} not enabled: {reason.value}")
        self.reason = reason
        self.event = event


def csm_step(c: Csm, cfg: CsmConfiguration, e: AsyncEvent) -> CsmConfiguration:
    """Fire one event.

    A send requires only a machine transition; a receive additionally
    requires its message at the head of the channel (sender, receiver).
    Raises :class:`NotEnabled` with the failure reason otherwise.
    """
    move = _move(c, cfg.states, *c._index.get(_names(e), (None, None)))
    if move is None:
        raise NotEnabled(StepFailure.NO_LOCAL_TRANSITION, e)
    if not move[2]:
        content = cfg.channels[move[3]]
        if not content:
            raise NotEnabled(StepFailure.EMPTY_CHANNEL, e)
        if content[0] != move[4]:
            raise NotEnabled(StepFailure.WRONG_HEAD, e)
    return CsmConfiguration(c, *_fire(cfg.states, cfg.channels, move))


def replay_trace(c: Csm, w: Iterable[AsyncEvent]) -> CsmConfiguration:
    """Fire ``w`` event by event from the initial configuration; raises
    :class:`NotEnabled` at the first stuck event."""
    state = initial_configuration(c)
    for e in w:
        state = csm_step(c, state, e)
    return state


@dataclass(frozen=True)
class ExplorationReport:
    """Result of a bounded breadth-first exploration.

    ``deadlocks`` pairs each deadlocked configuration with a shortest trace
    reaching it; ``frontier_cut`` records whether the channel bound or the
    depth bound suppressed any enabled event; ``trace_prefixes`` (when
    retained) holds one shortest trace per visited configuration.
    """

    visited: int
    deadlocks: tuple[tuple[CsmConfiguration, tuple[AsyncEvent, ...]], ...]
    frontier_cut: bool
    trace_prefixes: Optional[frozenset[tuple[AsyncEvent, ...]]]


def explore(
    c: Csm, channel_bound: int = 4, depth: int = 14, keep_traces: bool = False
) -> ExplorationReport:
    """Breadth-first search over configurations.

    Sends that would push a channel past ``channel_bound`` and expansions
    past ``depth`` events are suppressed (setting ``frontier_cut``), but a
    configuration whose only moves were suppressed is not a deadlock:
    deadlock means no event is enabled at all.  Raises ``TypeError`` for a
    bound that is not an int and ``ValueError`` for a ``channel_bound``
    below 1 or a negative ``depth``.
    """
    _check_bounds(channel_bound, depth)
    init = initial_configuration(c)
    start = (init.states, init.channels)
    visited = {start}
    queue: deque[tuple[_Raw, tuple[AsyncEvent, ...]]] = deque(((start, ()),))
    deadlocks: list[tuple[CsmConfiguration, tuple[AsyncEvent, ...]]] = []
    traces: set[tuple[AsyncEvent, ...]] = {()} if keep_traces else set()
    frontier_cut = False
    events = c.events
    while queue:
        (states, channels), trace = queue.popleft()
        enabled = list(_enabled(c, states, channels))
        if not enabled:
            if not _is_final(c, states, channels):
                deadlocks.append((CsmConfiguration(c, states, channels), trace))
            continue
        if len(trace) >= depth:
            frontier_cut = True
            continue
        for move in enabled:
            if move[2] and len(channels[move[3]]) >= channel_bound:
                frontier_cut = True
                continue
            nxt = _fire(states, channels, move)
            if nxt not in visited:
                visited.add(nxt)
                extended = trace + (events[move[5]],)
                if keep_traces:
                    traces.add(extended)
                queue.append((nxt, extended))
    return ExplorationReport(
        visited=len(visited),
        deadlocks=tuple(deadlocks),
        frontier_cut=frontier_cut,
        trace_prefixes=frozenset(traces) if keep_traces else None,
    )

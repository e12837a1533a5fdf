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
that the machines' events use, holding message numbers.  Moves are read off
each machine's int tables (``arcs``, ``events``, ``final_mask``), so neither
stepping nor exploring makes a :class:`SubsetState`; only
:meth:`CsmConfiguration.state_of` names one, on demand.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

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
    "enabled_events",
    "is_final",
    "replay_trace",
    "ExplorationReport",
    "explore",
    "check_channel_compliance",
]


class _Move(NamedTuple):
    """One move of a machine from one state, in the system's numbers."""

    successor: int  # state number
    event: int  # index in ``Csm.events``
    slot: int  # the channel written or read
    message: int  # index in ``Csm.messages``
    send: bool


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

    The system is numbered once, when it is made: ``roles`` in name order,
    with ``position`` mapping a role to its index; one channel ``slot`` per
    ordered (sender, receiver) pair that some machine's events use; the
    ``messages`` and the ``events`` of all machines, roles in name order.
    Per role it reads off the machine's int tables each state number's
    moves in label order, the same moves by event and state number, and the
    final flags.
    """

    __slots__ = (
        "machines", "roles", "position", "slot", "messages", "events",
        "_moves", "_step", "_final",
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
        # channels and messages are numbered by name: hashing strings is cheap
        slots: dict[tuple[str, str], int] = {}
        message: dict[str, int] = {}
        events: list[AsyncEvent] = []
        self._moves: list[tuple[tuple[_Move, ...], ...]] = []
        self._step: list[dict[tuple[str, str, str, bool], dict[int, _Move]]] = []
        self._final: list[tuple[bool, ...]] = []
        for role in self.roles:
            m = self.machines[role]
            names = [_names(e) for e in m.events]
            # per label rank: the parts of a move that do not depend on the state
            labels = [
                (
                    len(events) + r,
                    slots.setdefault((sender, receiver), len(slots)),
                    message.setdefault(label, len(message)),
                    send,
                )
                for r, (sender, receiver, label, send) in enumerate(names)
            ]
            events.extend(m.events)
            moves = tuple(tuple(_Move(t, *labels[r]) for r, t in arcs) for arcs in m.arcs)
            self._moves.append(moves)
            step: list[dict[int, _Move]] = [{} for _ in names]  # per rank
            for s, (arcs, row) in enumerate(zip(m.arcs, moves)):
                for (r, _), move in zip(arcs, row):
                    step[r][s] = move
            self._step.append(dict(zip(names, step)))
            self._final.append(tuple(bool(mask & m.final_mask) for mask in m.masks))
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


def _enabled(
    c: Csm, states: tuple[int, ...], channels: tuple
) -> Iterator[tuple[int, _Move]]:
    """(role position, move) of every enabled move, roles in name order,
    labels in machine order."""
    for i, moves in enumerate(c._moves):
        for move in moves[states[i]]:
            if move.send:
                yield i, move
            else:
                content = channels[move.slot]
                if content and content[0] == move.message:
                    yield i, move


def _fire(states: tuple[int, ...], channels: tuple, i: int, move: _Move) -> _Raw:
    """The configuration after role ``i`` makes an enabled ``move``."""
    k = move.slot
    content = channels[k]
    content = content + (move.message,) if move.send else content[1:]
    return (
        states[:i] + (move.successor,) + states[i + 1 :],
        channels[:k] + (content,) + channels[k + 1 :],
    )


def _is_final(c: Csm, states: tuple[int, ...], channels: tuple) -> bool:
    return not any(channels) and all(final[s] for final, s in zip(c._final, states))


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
    i = c.position.get(e.active)
    moves = None if i is None else c._step[i].get(_names(e))
    move = None if moves is None else moves.get(cfg.states[i])
    if move is None:
        raise NotEnabled(StepFailure.NO_LOCAL_TRANSITION, e)
    if not move.send:
        content = cfg.channels[move.slot]
        if not content:
            raise NotEnabled(StepFailure.EMPTY_CHANNEL, e)
        if content[0] != move.message:
            raise NotEnabled(StepFailure.WRONG_HEAD, e)
    return CsmConfiguration(c, *_fire(cfg.states, cfg.channels, i, move))


def enabled_events(c: Csm, cfg: CsmConfiguration) -> tuple[AsyncEvent, ...]:
    """Every event that can fire, roles in name order, labels in machine
    order."""
    events = c.events
    return tuple(events[move.event] for _, move in _enabled(c, cfg.states, cfg.channels))


def is_final(c: Csm, cfg: CsmConfiguration) -> bool:
    """True when every machine is final and every channel is empty."""
    return _is_final(c, cfg.states, cfg.channels)


def replay_trace(
    c: Csm, w: Iterable[AsyncEvent], cfg: Optional[CsmConfiguration] = None
) -> CsmConfiguration:
    """Fire ``w`` event by event from ``cfg`` (default: the initial
    configuration); raises :class:`NotEnabled` at the first stuck event."""
    state = cfg if cfg is not None else initial_configuration(c)
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
    deadlock means no event is enabled at all.
    """
    if channel_bound < 1:
        raise ValueError("channel_bound must be at least 1")
    if depth < 0:
        raise ValueError("depth must be non-negative")
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
        for i, move in enabled:
            if move.send and len(channels[move.slot]) >= channel_bound:
                frontier_cut = True
                continue
            successor = _fire(states, channels, i, move)
            if successor not in visited:
                visited.add(successor)
                extended = trace + (events[move.event],)
                if keep_traces:
                    traces.add(extended)
                queue.append((successor, extended))
    return ExplorationReport(
        visited=len(visited),
        deadlocks=tuple(deadlocks),
        frontier_cut=frontier_cut,
        trace_prefixes=frozenset(traces) if keep_traces else None,
    )


def check_channel_compliance(w: Iterable[AsyncEvent]) -> bool:
    """True when, per channel, the sequence of received messages is always
    a prefix of the sequence of sent messages — i.e. ``w`` respects FIFO
    order and never receives more than was sent."""
    sends: dict[tuple[Role, Role], list[Message]] = {}
    received: dict[tuple[Role, Role], int] = {}
    for e in w:
        if e.is_send:
            sends.setdefault((e.active, e.peer), []).append(e.message)
        else:
            pair = (e.peer, e.active)
            taken = received.get(pair, 0)
            sent = sends.get(pair, [])
            if taken >= len(sent) or sent[taken] != e.message:
                return False
            received[pair] = taken + 1
    return True

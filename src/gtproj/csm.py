"""Asynchronous execution of per-role machines over FIFO channels.

A system holds one deterministic machine per role and one unbounded FIFO
channel per ordered pair of distinct roles.  A send appends to the channel
(sender, receiver); a receive pops the head of (sender, receiver) and is
enabled only when the head matches.  A configuration is final when every
machine sits in a final state and every channel is empty; a deadlock is a
non-final configuration with no enabled event at all (moves suppressed only
by an exploration bound do not count).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional

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


class Csm:
    """One deterministic machine per role, communicating over FIFO channels."""

    __slots__ = ("machines", "roles")

    def __init__(self, machines: Mapping[Role, SubsetMachine]) -> None:
        self.machines: dict[Role, SubsetMachine] = dict(machines)
        for role, machine in self.machines.items():
            if machine.role != role:
                raise ValueError(
                    f"machine for role {role} was built for role {machine.role}"
                )
            # Stepping reads the machine's object views: build them here,
            # with the system, rather than at its first step.
            machine.initial
        self.roles: tuple[Role, ...] = tuple(sorted(self.machines, key=lambda r: r.name))


@dataclass(frozen=True, slots=True)
class CsmConfiguration:
    """A snapshot of the system: per-role machine states plus channel
    contents.  ``states`` is sorted by role name; ``channels`` lists only
    non-empty channels, sorted by (sender, receiver), so equal snapshots
    are one value."""

    states: tuple[tuple[Role, SubsetState], ...]
    channels: tuple[tuple[tuple[Role, Role], tuple[Message, ...]], ...]

    def state_of(self, role: Role) -> SubsetState:
        for r, s in self.states:
            if r == role:
                return s
        raise KeyError(f"no machine for role {role}")

    def channel(self, sender: Role, receiver: Role) -> tuple[Message, ...]:
        for pair, content in self.channels:
            if pair == (sender, receiver):
                return content
        return ()

    def _with_state(self, role: Role, state: SubsetState) -> "CsmConfiguration":
        states = tuple((r, state if r == role else s) for r, s in self.states)
        return CsmConfiguration(states, self.channels)

    def _with_channel(
        self, pair: tuple[Role, Role], content: tuple[Message, ...]
    ) -> "CsmConfiguration":
        rest = [(p, c) for p, c in self.channels if p != pair]
        if content:
            rest.append((pair, content))
        rest.sort(key=lambda item: (item[0][0].name, item[0][1].name))
        return CsmConfiguration(self.states, tuple(rest))


def initial_configuration(c: Csm) -> CsmConfiguration:
    """All machines in their initial states, all channels empty."""
    states = tuple((r, c.machines[r].initial) for r in c.roles)
    return CsmConfiguration(states, ())


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
    return cfg._with_state(e.active, successor)._with_channel(pair, content)


def enabled_events(c: Csm, cfg: CsmConfiguration) -> tuple[AsyncEvent, ...]:
    """Every event that can fire, roles in name order, labels in machine
    order."""
    out: list[AsyncEvent] = []
    for role in c.roles:
        machine = c.machines[role]
        for event, _ in machine.out(cfg.state_of(role)):
            if event.is_send:
                out.append(event)
            else:
                content = cfg.channel(event.peer, event.active)
                if content and content[0] == event.message:
                    out.append(event)
    return tuple(out)


def is_final(c: Csm, cfg: CsmConfiguration) -> bool:
    """True when every machine is final and every channel is empty."""
    if cfg.channels:
        return False
    return all(s in c.machines[r].finals for r, s in cfg.states)


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
    visited = {init}
    queue: deque[tuple[CsmConfiguration, tuple[AsyncEvent, ...]]] = deque(((init, ()),))
    deadlocks: list[tuple[CsmConfiguration, tuple[AsyncEvent, ...]]] = []
    traces: set[tuple[AsyncEvent, ...]] = {()} if keep_traces else set()
    frontier_cut = False
    while queue:
        cfg, trace = queue.popleft()
        enabled = enabled_events(c, cfg)
        if not enabled:
            if not is_final(c, cfg):
                deadlocks.append((cfg, trace))
            continue
        if len(trace) >= depth:
            frontier_cut = True
            continue
        for e in enabled:
            if e.is_send and len(cfg.channel(e.active, e.peer)) >= channel_bound:
                frontier_cut = True
                continue
            successor = csm_step(c, cfg, e)
            if successor not in visited:
                visited.add(successor)
                extended = trace + (e,)
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

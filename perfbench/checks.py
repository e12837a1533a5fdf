"""Correctness checks written apart from the checker.

None of these call the checker's own verification code (``csm.replay_trace``,
``oracle.intersection_witness``, ``validity.check_no_mixed_choice``); they
read only the protocol AST and the machines' transition tables.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Optional

from gtproj import (
    AsyncEvent,
    Choice,
    GlobalType,
    Rec,
    Role,
    SubsetMachine,
    Var,
    receive,
    send,
)


def fifo_replay(
    machines: Mapping[Role, SubsetMachine], trace: Iterable[AsyncEvent]
) -> Optional[str]:
    """Run ``trace`` on the machines over unbounded FIFO channels.

    Returns ``None`` when every event fires, else why the first one cannot.
    """
    states = {role: m.initial for role, m in machines.items()}
    channels: dict[tuple[Role, Role], deque] = {}
    for i, e in enumerate(trace):
        machine = machines.get(e.active)
        if machine is None:
            return f"event {i} ({e}): no machine for role {e.active}"
        target = machine.transitions.get((states[e.active], e))
        if target is None:
            return f"event {i} ({e}): no transition"
        if e.is_send:
            channels.setdefault((e.active, e.peer), deque()).append(e.message)
        else:
            queue = channels.get((e.peer, e.active))
            if not queue or queue[0] != e.message:
                return f"event {i} ({e}): message not at the channel head"
            queue.popleft()
        states[e.active] = target
    return None


def _binders(g: GlobalType) -> dict[str, Rec]:
    found: dict[str, Rec] = {}
    stack = [g]
    while stack:
        node = stack.pop()
        if isinstance(node, Rec):
            found[node.var] = node
            stack.append(node.body)
        elif isinstance(node, Choice):
            stack.extend(b.continuation for b in node.branches)
    return found


def explains(g: GlobalType, trace: Iterable[AsyncEvent]) -> bool:
    """Whether some run of ``g`` explains ``trace``: each role's events in
    ``trace`` are a prefix of that role's events in the run, where each
    exchange ``p->q:m`` is the send ``p>q!m`` followed by the receive
    ``q<p?m``.

    Depth-first search over (protocol node, events matched per role); the
    space is finite because the nodes and the per-role counts are.
    """
    trace = tuple(trace)
    want: dict[Role, list[AsyncEvent]] = {}
    for e in trace:
        want.setdefault(e.active, []).append(e)
    roles = tuple(want)
    slot = {r: i for i, r in enumerate(roles)}
    goal = tuple(len(want[r]) for r in roles)
    binder = _binders(g)

    def advance(counts: tuple[int, ...], e: AsyncEvent) -> Optional[tuple[int, ...]]:
        i = slot.get(e.active)
        if i is None or counts[i] == goal[i]:
            return counts  # the role's view is already matched in full
        if want[e.active][counts[i]] != e:
            return None
        return counts[:i] + (counts[i] + 1,) + counts[i + 1 :]

    start = (g, (0,) * len(roles))
    seen = {start}
    stack = [start]
    while stack:
        node, counts = stack.pop()
        if counts == goal:
            return True
        if isinstance(node, Rec):
            moves = [(node.body, counts)]
        elif isinstance(node, Var):
            moves = [(binder[node.var], counts)]
        elif isinstance(node, Choice):
            moves = []
            for b in node.branches:
                sent = advance(counts, send(node.sender, b.receiver, b.message))
                if sent is None:
                    continue
                received = advance(sent, receive(b.receiver, node.sender, b.message))
                if received is not None:
                    moves.append((b.continuation, received))
        else:
            moves = []
        for move in moves:
            if move not in seen:
                seen.add(move)
                stack.append(move)
    return False


def mixed_states(machines: Mapping[Role, SubsetMachine]) -> list[str]:
    """Every machine state that offers both a send and a receive, as
    ``role: state`` strings."""
    found = []
    for role, m in machines.items():
        directions: dict[object, set[bool]] = {}
        for (source, event) in m.transitions:
            directions.setdefault(source, set()).add(event.is_send)
        found.extend(f"{role}: {s}" for s, d in directions.items() if len(d) == 2)
    return found

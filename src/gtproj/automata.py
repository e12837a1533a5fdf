"""Synchronous protocol automata and their per-role local views.

:func:`build_gaut` turns a protocol into a finite automaton whose states are
the protocol's interned subterms: each choice steps to a branch continuation
under the exchange label ``p->q:m``, and ``mu``/variable nodes contribute
silent (epsilon) bookkeeping steps.  It numbers the roles, the labels and
their asynchronous halves, and indexes each state's out-edges, once, for
every layer and search; :func:`_shortest_path` is the one search with
parent pointers.  :func:`erase` relabels that automaton for one role: an
exchange the role sends becomes its send half ``p>q!m``, an exchange it
receives becomes its receive half ``p<q?m``, and everything else becomes
silent.  Splitting a synchronous word into its asynchronous send and
receive halves lives here too (:func:`split_word`).
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import chain, compress
from operator import or_
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence, TypeVar

from .syntax import (
    END,
    GlobalType,
    IllFormedProtocolError,
    Message,
    Rec,
    Role,
    Var,
    Choice,
    pretty_inline,
    validate_well_formedness,
)

__all__ = [
    "Direction",
    "SyncEvent",
    "AsyncEvent",
    "send",
    "receive",
    "split_event",
    "split_word",
    "erase_label",
    "project_word",
    "format_trace",
    "parse_trace",
    "Edge",
    "SyncAutomaton",
    "build_gaut",
    "LocalNfa",
    "erase",
    "sync_to_dot",
    "nfa_to_dot",
]


# --------------------------------------------------------------------------- #
# Events
# --------------------------------------------------------------------------- #


class Direction(Enum):
    """Whether an asynchronous event puts a message into a channel (``!``)
    or takes one out (``?``)."""

    SEND = "!"
    RECEIVE = "?"


@dataclass(frozen=True, slots=True, order=True)
class SyncEvent:
    """A synchronous exchange ``sender->receiver:message``."""

    sender: Role
    receiver: Role
    message: Message

    def __post_init__(self) -> None:
        # roles are equal exactly when their names are; the names compare
        # without the dataclass equality's tuple building
        if self.sender.name == self.receiver.name:
            raise ValueError(f"role {self.sender} cannot message itself")

    def __str__(self) -> str:
        return f"{self.sender}->{self.receiver}:{self.message}"


@dataclass(frozen=True, slots=True)
class AsyncEvent:
    """One half of an exchange, from the acting role's point of view.

    ``p>q!m`` — ``active`` p pushes ``message`` m onto channel (p, q);
    ``p<q?m`` — ``active`` p pops ``message`` m from channel (q, p).
    """

    direction: Direction
    active: Role
    peer: Role
    message: Message

    def __post_init__(self) -> None:
        if self.active.name == self.peer.name:
            raise ValueError(f"role {self.active} cannot message itself")

    @property
    def is_send(self) -> bool:
        return self.direction is Direction.SEND

    def __str__(self) -> str:
        if self.is_send:
            return f"{self.active}>{self.peer}!{self.message}"
        return f"{self.active}<{self.peer}?{self.message}"


def send(sender: Role, receiver: Role, message: Message) -> AsyncEvent:
    """The send half ``sender>receiver!message``."""
    return AsyncEvent(Direction.SEND, sender, receiver, message)


def receive(receiver: Role, sender: Role, message: Message) -> AsyncEvent:
    """The receive half ``receiver<sender?message``."""
    return AsyncEvent(Direction.RECEIVE, receiver, sender, message)


def split_event(e: SyncEvent) -> tuple[AsyncEvent, AsyncEvent]:
    """The asynchronous halves of one exchange: send first, then receive."""
    return (
        send(e.sender, e.receiver, e.message),
        receive(e.receiver, e.sender, e.message),
    )


def split_word(w: Iterable[SyncEvent]) -> tuple[AsyncEvent, ...]:
    """Homomorphic splitting: each exchange becomes its send immediately
    followed by its receive."""
    out: list[AsyncEvent] = []
    for e in w:
        out.extend(split_event(e))
    return tuple(out)


def erase_label(e: SyncEvent, p: Role) -> Optional[AsyncEvent]:
    """The role-``p`` view of one exchange: its send half if ``p`` sends,
    its receive half if ``p`` receives, ``None`` (silent) otherwise."""
    if e.sender == p:
        return send(e.sender, e.receiver, e.message)
    if e.receiver == p:
        return receive(e.receiver, e.sender, e.message)
    return None


def project_word(w: Iterable[AsyncEvent], p: Role) -> tuple[AsyncEvent, ...]:
    """The subsequence of ``w`` whose events ``p`` performs."""
    return tuple(e for e in w if e.active == p)


def format_trace(events: Iterable[AsyncEvent]) -> str:
    """Render events in dotted token form, e.g. ``p>q!o.q<p?o``."""
    return ".".join(str(e) for e in events)


_TRACE_TOKEN = re.compile(
    r"(?P<active>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?P<dir>[<>])"
    r"(?P<peer>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?P<op>[!?])"
    r"(?P<msg>[A-Za-z_][A-Za-z0-9_]*)"
    r"\Z"
)


def parse_trace(text: str) -> tuple[AsyncEvent, ...]:
    """Parse dotted token form back into events; inverse of
    :func:`format_trace`.  Raises ``ValueError`` on malformed tokens."""
    text = text.strip()
    if not text:
        return ()
    events: list[AsyncEvent] = []
    for token in text.split("."):
        m = _TRACE_TOKEN.match(token.strip())
        if m is None:
            raise ValueError(f"malformed trace token {token!r}")
        shape = (m.group("dir"), m.group("op"))
        if shape == (">", "!"):
            events.append(
                send(Role(m.group("active")), Role(m.group("peer")), Message(m.group("msg")))
            )
        elif shape == ("<", "?"):
            events.append(
                receive(Role(m.group("active")), Role(m.group("peer")), Message(m.group("msg")))
            )
        else:
            raise ValueError(f"malformed trace token {token!r}")
    return tuple(events)


# --------------------------------------------------------------------------- #
# The synchronous automaton
# --------------------------------------------------------------------------- #

#: A transition of the synchronous automaton; label ``None`` is silent.
Edge = tuple[GlobalType, Optional[SyncEvent], GlobalType]

_Node = TypeVar("_Node", bound=Hashable)
_T = TypeVar("_T")


def _shortest_path(
    start: _Node,
    successors: Callable[[_Node], Iterable[tuple[_T, _Node]]],
    is_goal: Callable[[_Node], bool],
) -> Optional[tuple[_T, ...]]:
    """Breadth-first search from ``start`` for a node satisfying ``is_goal``.

    ``successors(node)`` yields ``(edge, next_node)`` pairs, an edge being
    whatever the caller wants back.  Returns the edges of a shortest path
    (the first one found in successor order): ``()`` when ``start`` is a
    goal, ``None`` when no goal is reachable.
    """
    if is_goal(start):
        return ()
    parents: dict[_Node, Optional[tuple[_Node, _T]]] = {start: None}
    queue = deque((start,))
    while queue:
        node = queue.popleft()
        for edge, nxt in successors(node):
            if nxt in parents:
                continue
            parents[nxt] = (node, edge)
            if is_goal(nxt):
                path: list[_T] = []
                step = parents[nxt]
                while step is not None:
                    nxt, e = step
                    path.append(e)
                    step = parents[nxt]
                path.reverse()
                return tuple(path)
            queue.append(nxt)
    return None


class SyncAutomaton:
    """The synchronous automaton of a protocol.

    ``states`` are the protocol's distinct subterms in the pre-order of
    :func:`build_gaut`'s walk, then the terminated protocol when the walk
    does not meet it; the terminated protocol is the single final state.
    A state's position in ``states`` is its one number: bit ``i`` of a
    state mask stands for ``states[i]``, ``bit`` maps a state back to its
    position, and state names print positions.  ``transitions`` are stored
    as given, which :func:`build_gaut` makes source by source in that
    order, each choice's branches by (receiver, message) names.  Every
    non-final state has at least one outgoing transition.

    ``labels`` are the distinct exchange labels, numbered by (sender,
    receiver, message) names in order of first appearance in the
    transitions; ``label_number`` maps those names to the number.
    ``edges`` are the transitions over the positions and that numbering:
    ``(source, label number, target)``, in the same order, label number
    ``None`` when silent.  ``roles`` are in first-occurrence order, and a
    role's position there is its one number (``role_number`` maps a name
    to it); ``variables`` masks the recursion-variable states, whose silent
    edge leads back to their binder.  ``ends[k]`` holds the numbers of label
    ``k``'s sender and receiver, and ``events[2 * k]`` and
    ``events[2 * k + 1]`` are its send and receive halves, which the views,
    available messages and trace matching share.  ``succ[i]``, the edge
    index that every search follows, holds bit ``i``'s out-edges in
    ``edges`` order as ``(position in edges, label number, target bit,
    halves)``, ``halves`` being ``((sender number, 2 * k), (receiver
    number, 2 * k + 1))`` for label ``k`` and ``()`` when silent.  Later
    layers read the tree nowhere.
    """

    __slots__ = (
        "states", "transitions", "initial", "finals", "bit", "labels",
        "label_number", "edges", "roles", "variables", "role_number", "ends",
        "events", "succ",
    )

    def __init__(
        self,
        states: Iterable[GlobalType],
        transitions: Iterable[Edge],
        initial: GlobalType,
        finals: frozenset[GlobalType],
        roles: Iterable[Role],
        variables: int,
    ) -> None:
        self.states: tuple[GlobalType, ...] = tuple(states)
        self.transitions: tuple[Edge, ...] = tuple(transitions)
        self.initial = initial
        self.finals = finals
        self.bit = bit = {s: i for i, s in enumerate(self.states)}
        self.label_number: dict[tuple[str, str, str], int] = {}
        number = self.label_number
        labels: list[SyncEvent] = []
        edges: list[tuple[int, Optional[int], int]] = []
        for src, label, tgt in self.transitions:
            k = None
            if label is not None:
                names = (label.sender.name, label.receiver.name, label.message.label)
                k = number.setdefault(names, len(labels))
                if k == len(labels):
                    labels.append(label)
            edges.append((bit[src], k, bit[tgt]))
        self.labels: tuple[SyncEvent, ...] = tuple(labels)
        self.edges = tuple(edges)
        self.roles: tuple[Role, ...] = tuple(roles)
        self.variables = variables
        self.role_number = role = {r.name: i for i, r in enumerate(self.roles)}
        self.ends: tuple[tuple[int, int], ...] = tuple(
            (role[l.sender.name], role[l.receiver.name]) for l in labels
        )
        self.events: tuple[AsyncEvent, ...] = tuple(
            chain.from_iterable(map(split_event, labels))
        )
        split = [((s, 2 * k), (r, 2 * k + 1)) for k, (s, r) in enumerate(self.ends)]
        succ: list[list[tuple]] = [[] for _ in self.states]
        for j, (src, k, tgt) in enumerate(edges):
            succ[src].append((j, k, tgt, () if k is None else split[k]))
        self.succ: tuple[tuple[tuple, ...], ...] = tuple(map(tuple, succ))

    def event_number(self, e: AsyncEvent) -> int:
        """The position of half ``e`` in ``events``, or -1 when no label
        has it.  Names key the lookup, so it hashes strings only."""
        if e.is_send:
            k = self.label_number.get((e.active.name, e.peer.name, e.message.label))
            return -1 if k is None else 2 * k
        k = self.label_number.get((e.peer.name, e.active.name, e.message.label))
        return -1 if k is None else 2 * k + 1

    @property
    def size(self) -> int:
        """:func:`~gtproj.syntax.measure_size`: the states reached from
        ``initial`` (not an unreachable terminated protocol) plus edges."""
        reached = {tgt for _, _, tgt in self.edges}
        reached.add(self.bit[self.initial])
        return len(reached) + len(self.edges)

    def out(self, state: GlobalType) -> tuple[Edge, ...]:
        """Outgoing transitions of ``state``, in label order."""
        return tuple(self.transitions[e[0]] for e in self.succ[self.bit[state]])

    def __contains__(self, state: GlobalType) -> bool:
        return state in self.bit


def build_gaut(g: GlobalType) -> SyncAutomaton:
    """Build the synchronous automaton of ``g``.

    States: all distinct subterms in pre-order, plus the terminated protocol
    even when the text never reaches it (it is then an isolated, unreachable
    final state, numbered last).  Transitions, source by source in that
    order: one labeled edge per choice branch, by (receiver, message) names,
    and one silent edge from each ``mu`` node to its body and from each
    variable to its binder.

    The one walk of ``g`` is :func:`~gtproj.syntax.validate_well_formedness`,
    and the automaton is built from its report.  Raises
    :class:`~gtproj.syntax.IllFormedProtocolError`, with that report, when
    ``g`` breaks a structural rule.
    """
    report = validate_well_formedness(g)
    if not report.ok:
        raise IllFormedProtocolError(report)
    bind = {rec.var: rec for rec in report.binders}
    states = list(report.nodes)
    if END not in set(states):
        states.append(END)
    transitions: list[Edge] = []
    variables = 0
    for i, node in enumerate(report.nodes):
        if isinstance(node, Choice):
            for b in sorted(node.branches, key=lambda b: (b.receiver.name, b.message.label)):
                transitions.append(
                    (node, SyncEvent(node.sender, b.receiver, b.message), b.continuation)
                )
        elif isinstance(node, Rec):
            transitions.append((node, None, node.body))
        elif isinstance(node, Var):
            transitions.append((node, None, bind[node.var]))
            variables |= 1 << i
    return SyncAutomaton(
        states, transitions, g, frozenset((END,)), report.roles, variables
    )


# --------------------------------------------------------------------------- #
# Per-role views
# --------------------------------------------------------------------------- #


_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _mask_bits(mask: int) -> bytes:
    """One byte per bit of ``mask``, lowest bit first, each 0 or 1: the
    selector with which :func:`itertools.compress` picks, from a sequence
    indexed by bit, the entries of the bits set in ``mask``."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)


def _select(seq: Sequence[_T], mask: int) -> Iterator[_T]:
    """The entries of ``seq`` (indexed by bit) at the bits set in ``mask``,
    lowest bit first.  Only the window from the lowest to the highest set
    bit is converted, so a narrow mask costs little however wide the index
    is."""
    lo = (mask & -mask).bit_length() - 1
    if lo > 0:
        return compress(seq[lo : mask.bit_length()], _mask_bits(mask >> lo))
    return compress(seq, _mask_bits(mask))  # no bit set, or bit 0


def _closures(step: Sequence[int]) -> list[int]:
    """``closures[i]``: the mask of the nodes reachable from node ``i``
    (itself included), where ``step[i]`` masks the nodes one step away.

    Nodes are closed by descending number.  A node reached that was closed
    before adds its finished closure instead of being expanded again.  A
    silent step mostly goes from a node to a child, which the pre-order
    numbers later, so this order mostly closes a node's successors before
    the node, and a closure then takes a few mask operations; a node
    without steps takes none.
    """
    closures = [0] * len(step)
    done = 0
    for i in range(len(step) - 1, -1, -1):
        seen = 1 << i
        done |= seen
        frontier = step[i] & ~seen
        while frontier:
            seen |= frontier
            known = frontier & done
            if known:
                seen |= reduce(or_, _select(closures, known))
                frontier ^= known
            if frontier:
                frontier = reduce(or_, _select(step, frontier)) & ~seen
        closures[i] = seen
    return closures


def _label_key(e: AsyncEvent) -> tuple[str, str, str]:
    return (e.peer.name, e.message.label, e.direction.value)


class LocalNfa:
    """One role's (nondeterministic) view of a synchronous automaton.

    States, their numbering, initial state and final states are those of
    ``automaton``, the source automaton, so the view walks no protocol
    either.  ``edges[i]`` is the erasure image of the automaton's
    ``transitions[i]``.
    ``events`` are the distinct labels sorted by (peer, message,
    direction), and ``edges`` are the transitions over the state positions
    with labels as ranks in ``events``: ``(source, rank, target)``, rank
    ``None`` when silent.  ``closures[i]`` is the mask of the states
    reachable from ``states[i]`` by silent steps.
    """

    __slots__ = (
        "role", "automaton", "states", "initial", "finals", "bit", "events",
        "edges", "closures",
    )

    def __init__(
        self,
        role: Role,
        a: SyncAutomaton,
        events: tuple[AsyncEvent, ...],
        edges: tuple[tuple[int, Optional[int], int], ...],
    ) -> None:
        self.role = role
        self.automaton = a
        self.states = a.states
        self.initial = a.initial
        self.finals = a.finals
        self.bit = a.bit
        self.events = events
        self.edges = edges
        silent = [0] * len(self.states)
        for src, label, tgt in self.edges:
            if label is None:
                silent[src] |= 1 << tgt
        self.closures: tuple[int, ...] = tuple(_closures(silent))

    def members(self, mask: int) -> tuple[GlobalType, ...]:
        """The states of ``mask``, by ascending position."""
        return tuple(_select(self.states, mask))


def erase(a: SyncAutomaton, p: Role) -> LocalNfa:
    """Relabel ``a`` with role ``p``'s view of each transition.

    Exchanges not involving ``p`` become silent; states, initial state, and
    final states are unchanged.  A label's view is its half in ``a.events``
    that ``p`` performs, found by ``p``'s number in ``a.ends``, and the
    edges take their ranks from those halves: distinct labels have distinct
    views, so no two labels share a rank.
    """
    i = a.role_number.get(p.name)
    own = [
        (k, 2 * k if sender == i else 2 * k + 1)
        for k, (sender, receiver) in enumerate(a.ends)
        if i == sender or i == receiver
    ]
    own.sort(key=lambda kn: _label_key(a.events[kn[1]]))
    rank: list[Optional[int]] = [None] * len(a.ends)
    for r, (k, _) in enumerate(own):
        rank[k] = r
    edges = tuple(
        (src, None if k is None else rank[k], tgt) for src, k, tgt in a.edges
    )
    return LocalNfa(p, a, tuple(a.events[n] for _, n in own), edges)


# --------------------------------------------------------------------------- #
# DOT export
# --------------------------------------------------------------------------- #


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _machine_dot(
    name: str,
    labels: Sequence[str],
    initial: int,
    final: Sequence[bool],
    edges: Iterable[tuple[int, object, int]],
) -> str:
    """The one Graphviz writer: state ``i`` is node ``n{i}``, labeled
    ``labels[i]``; edge labels rendered with ``str`` (``None`` as ε)."""
    lines = [
        f"digraph {_quote(name)} {{",
        "  rankdir=LR;",
        '  __start [shape=point, label=""];',
        f"  __start -> n{initial};",
    ]
    for i, (label, is_final) in enumerate(zip(labels, final)):
        shape = "doublecircle" if is_final else "circle"
        lines.append(f"  n{i} [shape={shape}, label={_quote(label)}];")
    for src, label, tgt in edges:
        text = "ε" if label is None else str(label)
        lines.append(f"  n{src} -> n{tgt} [label={_quote(text)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _view_dot(
    name: str,
    a: SyncAutomaton | LocalNfa,
    labels: Sequence[object],
    edges: Iterable[tuple[int, Optional[int], int]],
) -> str:
    """An automaton or a view drawn with each state's position and text (cut
    at 40 characters); an edge's label number indexes ``labels``."""
    texts = map(pretty_inline, a.states)
    return _machine_dot(
        name,
        [f"{i}: {t if len(t) <= 40 else t[:39] + '…'}" for i, t in enumerate(texts)],
        a.bit[a.initial],
        [s in a.finals for s in a.states],
        ((src, None if k is None else labels[k], tgt) for src, k, tgt in edges),
    )


def sync_to_dot(a: SyncAutomaton, name: str = "protocol") -> str:
    """Graphviz rendering of a synchronous automaton; silent edges show ε."""
    return _view_dot(name, a, a.labels, a.edges)


def nfa_to_dot(n: LocalNfa, name: Optional[str] = None) -> str:
    """Graphviz rendering of one role's view; silent edges show ε."""
    title = name if name is not None else f"view_{n.role}"
    return _view_dot(title, n, n.events, n.edges)

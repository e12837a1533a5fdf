"""Deterministic per-role machines via subset construction.

The local view of a role (:class:`~gtproj.automata.LocalNfa`) is
nondeterministic because exchanges between other roles turn into silent
steps.  :func:`subset_construction` determinizes it in the textbook way —
states become silent-closed sets of subterms — except that no states are
merged or minimized beyond the closure itself: keeping the member subterms
visible is what later lets the validity checks reason about *which* branch
of the protocol each member belongs to.

A :class:`SubsetMachine` is int tables only: each state is a mask of
members over the protocol's state positions, each move a (label rank,
successor number) pair, exactly as :func:`determinize` finds them.  The
validity checks, simulation, the oracle and ``gtproj project`` read those
tables.  :func:`determinize` steps each member of a state with at most 8
members, or with no more members than the view has labels.  A wider state
takes its moves label by label: a label's successor depends only on the
members with an edge of that label, so it is computed once per distinct
such set and reused, which pays in the wide states of large machines.  A
new set ORs one entry per byte of the label's members from tables made
once per label, each entry computed the first time it is read.
A :class:`SubsetState` is a (machine, number) value that reads its members
off the masks; violations and counterexamples name states with it, and the
machine's ``states``, ``transitions`` and ``out`` are computed from the
tables on each call.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Optional

from .automata import (
    AsyncEvent,
    LocalNfa,
    SyncAutomaton,
    _machine_dot,
    _select,
    build_gaut,
    erase,
)
from .syntax import GlobalType, Role

__all__ = [
    "SubsetState",
    "SubsetMachine",
    "determinize",
    "subset_construction",
    "build_projections",
    "machine_to_dot",
]


@dataclass(frozen=True, slots=True)
class SubsetState:
    """A deterministic state: state ``number`` of ``machine``, a non-empty,
    silent-closed set of subterms.

    Members are read off the machine's mask, by ascending position in the
    protocol automaton's ``states``; ``ids`` are those positions, and the
    state prints them.  Two states are equal when they are the same number
    of the same machine.
    """

    machine: "SubsetMachine"
    number: int

    @property
    def members(self) -> tuple[GlobalType, ...]:
        return tuple(self)

    @property
    def ids(self) -> tuple[int, ...]:
        m = self.machine
        return tuple(_select(range(len(m.nodes)), m.masks[self.number]))

    def __iter__(self) -> Iterator[GlobalType]:
        return _select(self.machine.nodes, self.machine.masks[self.number])

    def __len__(self) -> int:
        return self.machine.masks[self.number].bit_count()

    def __contains__(self, node: object) -> bool:
        return any(node == m for m in self)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.ids) + "}"


class SubsetMachine:
    """A deterministic machine for one role, held as int tables.

    State ``i`` is ``masks[i]``, its members as a mask over ``nodes``, the
    protocol automaton's states (bit ``j`` stands for ``nodes[j]``).  States
    are numbered in breadth-first discovery order, the initial state first.  ``arcs[i]``
    lists state ``i``'s moves as ``(label rank, successor number)`` pairs in
    label order, where a rank indexes the sorted ``events``; a state is
    final when its mask meets ``final_mask``, the terminated protocol's bit.
    ``automaton`` is the protocol automaton whose ``states`` are ``nodes``
    when :func:`determinize` built the machine, and ``None`` for a machine
    built by hand.

    ``states``, ``transitions`` (``(state, event)`` to successor),
    ``initial``, ``finals``, :meth:`out`, :meth:`step` and
    :meth:`state_number` present the tables as :class:`SubsetState`
    values, computed on each call.  :meth:`out`, :meth:`step` and
    :meth:`state_number` raise ``KeyError`` for a state of another machine.
    """

    __slots__ = ("role", "nodes", "masks", "arcs", "events", "final_mask", "automaton")

    def __init__(
        self,
        role: Role,
        nodes: tuple[GlobalType, ...],
        masks: tuple[int, ...],
        arcs: tuple[tuple[tuple[int, int], ...], ...],
        events: tuple[AsyncEvent, ...],
        final_mask: int,
        automaton: Optional[SyncAutomaton] = None,
    ) -> None:
        self.role = role
        self.nodes = nodes
        self.masks = masks
        self.arcs = arcs
        self.events = events
        self.final_mask = final_mask
        self.automaton = automaton

    @property
    def states(self) -> tuple[SubsetState, ...]:
        return tuple(SubsetState(self, i) for i in range(len(self.masks)))

    @property
    def transitions(self) -> "_Transitions":
        return _Transitions(self)

    @property
    def initial(self) -> SubsetState:
        return SubsetState(self, 0)

    @property
    def finals(self) -> frozenset[SubsetState]:
        final = self.final_mask
        return frozenset(
            SubsetState(self, i) for i, mask in enumerate(self.masks) if mask & final
        )

    def out(self, state: SubsetState) -> tuple[tuple[AsyncEvent, SubsetState], ...]:
        """Outgoing (event, successor) pairs in label order."""
        events, moves = self.events, self.arcs[self.state_number(state)]
        return tuple((events[r], SubsetState(self, t)) for r, t in moves)

    def step(self, state: SubsetState, event: AsyncEvent) -> Optional[SubsetState]:
        """Successor under ``event``, or ``None`` when not enabled."""
        for r, t in self.arcs[self.state_number(state)]:
            if self.events[r] == event:
                return SubsetState(self, t)
        return None

    def state_number(self, state: SubsetState) -> int:
        """Breadth-first discovery index of ``state``."""
        if getattr(state, "machine", None) is not self:
            raise KeyError(state)
        return state.number

    def __len__(self) -> int:
        return len(self.masks)


class _Transitions(Mapping):
    """``SubsetMachine.transitions``: a mapping whose lookups step the
    machine's arcs; nothing is stored."""

    __slots__ = ("machine",)

    def __init__(self, machine: SubsetMachine) -> None:
        self.machine = machine

    def __getitem__(self, key: tuple[SubsetState, AsyncEvent]) -> SubsetState:
        target = self.machine.step(*key)
        if target is None:
            raise KeyError(key)
        return target

    def __iter__(self) -> Iterator[tuple[SubsetState, AsyncEvent]]:
        m = self.machine
        for i, moves in enumerate(m.arcs):
            for r, _ in moves:
                yield SubsetState(m, i), m.events[r]

    def __len__(self) -> int:
        return sum(map(len, self.machine.arcs))


def determinize(nfa: LocalNfa) -> SubsetMachine:
    """Subset construction over a role's local view.

    Successor sets take the labeled step first and then close under silent
    steps; the initial state is the silent closure of the view's initial
    state.  Empty sets are never created (a label is only followed where
    some member enables it), and every reachable state is kept.

    The search runs on state masks over the view's state positions: a
    member's steps are (label rank, target closure mask) pairs, ranks in the
    view's ``events``, and a successor is the union of the target closures
    under one label.  The machine keeps the masks and arcs as they are found,
    and the view's automaton.

    A state with at most 8 members, or with no more members than the view
    has labels, steps each member.  A wider state takes its moves label by
    label, in rank order: for rank ``r`` its key is ``mask & sources[r]``,
    the members with a rank-``r`` edge, and a per-label memo maps each key
    to the ``(r, successor)`` arc found for it the first time.  This is
    exact because δ_r(M) = δ_r(M ∩ sources_r): members without a rank-``r``
    edge add nothing to the successor.  It pays because wide states share
    keys: of the 20 480 arcs of q in ``generate_gk(12)``, 12 286 repeat an
    earlier (label, key) pair.  A key not seen before ORs one entry of each
    of its label's byte tables (:func:`_byte_union`), made at the label's
    first new key (:func:`_byte_tables`); an entry is computed the first
    time it is read and kept.  In q of ``generate_gk(12)``, the 8162 new
    keys of 3 labels read 10 tables and fill 680 entries.  Either way a
    state costs O(min(members, labels)).  Ranks are visited in sorted order
    and successors numbered on discovery on both paths, so the machine does
    not depend on which path a state took.
    """
    bit, closures = nfa.bit, nfa.closures
    steps: list[list[tuple[int, int]]] = [[] for _ in nfa.states]
    for src, r, tgt in nfa.edges:
        if r is not None:
            steps[src].append((r, closures[tgt]))
    narrow = max(8, len(nfa.events))  # widest state that steps its members
    # per label, made at the first wider state: (rank, mask of the members
    # with an edge of that rank, arc by key, byte tables from its first new key)
    tables: Optional[list[tuple[int, int, dict, list]]] = None
    masks = [closures[bit[nfa.initial]]]
    order = {masks[0]: 0}
    arcs: list[tuple[tuple[int, int], ...]] = []
    for mask in masks:  # grows while it is read: a BFS queue
        if mask.bit_count() <= narrow:
            moves: dict[int, int] = {}
            for member_steps in _select(steps, mask):
                for r, target in member_steps:
                    moves[r] = moves.get(r, 0) | target
            row = []
            for r in sorted(moves):
                union = moves[r]
                successor = order.get(union)
                if successor is None:
                    successor = order[union] = len(masks)
                    masks.append(union)
                row.append((r, successor))
            arcs.append(tuple(row))
            continue
        if tables is None:
            sources = [0] * len(nfa.events)
            for src, member_steps in enumerate(steps):
                for r, _ in member_steps:
                    sources[r] |= 1 << src
            tables = [(r, s, {}, []) for r, s in enumerate(sources)]
        row = []
        for r, sources_r, memo, parts in tables:
            key = mask & sources_r
            if not key:
                continue
            arc = memo.get(key)
            if arc is None:
                if not parts:  # rank r's first new key
                    parts += _byte_tables(steps, r, sources_r)
                union = _byte_union(parts, key)
                successor = order.get(union)
                if successor is None:
                    successor = order[union] = len(masks)
                    masks.append(union)
                arc = memo[key] = (r, successor)
            row.append(arc)
        arcs.append(tuple(row))
    del order, tables  # freed before the tables are copied into tuples
    final_mask = sum(1 << bit[f] for f in nfa.finals)
    return SubsetMachine(
        nfa.role, nfa.states, tuple(masks), tuple(arcs), nfa.events, final_mask,
        nfa.automaton,
    )


def _byte_tables(
    steps: list[list[tuple[int, int]]], r: int, sources_r: int
) -> list[tuple[int, list[Optional[int]]]]:
    """Rank ``r``'s byte tables, made at its first new key.  ``sources_r``,
    the members with a rank-``r`` edge, is cut into bytes that each start
    at its lowest member not yet covered, and each byte gets a ``(shift,
    table)`` pair: entry ``b`` of the table is the union of the rank-``r``
    target closures of the members ``shift + i`` for the bits ``i`` of
    ``b``.  A byte takes every member in the 8 bits from its start, so for
    a key within ``sources_r`` the index ``key >> shift & 255`` stays in
    the table.  Entry 0 and the single-bit entries are set here, the others
    on first use (:func:`_byte_union`).  A table is only as long as its
    byte's highest member needs, so a label with few members makes few,
    short tables."""
    parts = []
    rest = sources_r
    while rest:
        shift = (rest & -rest).bit_length() - 1
        byte = rest >> shift & 255
        rest ^= byte << shift
        width = byte.bit_length()
        table: list[Optional[int]] = [None] * (1 << width)
        table[0] = 0
        for i, member_steps in enumerate(steps[shift : shift + width]):
            part = 0
            for rank, target in member_steps:
                if rank == r:
                    part |= target
            table[1 << i] = part
        parts.append((shift, table))
    return parts


def _byte_union(parts: list[tuple[int, list[Optional[int]]]], key: int) -> int:
    """The union of the rank-``r`` target closures of the members in
    ``key``, a subset of ``sources_r``: the OR of one entry of each of rank
    ``r``'s byte tables (:func:`_byte_tables`).  A successor distributes
    over union, δ_r(A ∪ B) = δ_r(A) ∪ δ_r(B), so an entry not yet set is
    the OR of its single-bit entries; it is kept, since keys share bytes."""
    union = 0
    for shift, table in parts:
        b = key >> shift & 255
        part = table[b]
        if part is None:
            part = 0
            c = b
            while c:
                part |= table[c & -c]
                c &= c - 1
            table[b] = part
        union |= part
    return union


def subset_construction(g: GlobalType, p: Role) -> SubsetMachine:
    """The deterministic machine of role ``p`` for protocol ``g``."""
    return determinize(erase(build_gaut(g), p))


def build_projections(
    g: GlobalType,
) -> tuple[SyncAutomaton, dict[Role, tuple[LocalNfa, SubsetMachine]]]:
    """One synchronous automaton plus, per role, its view and machine.

    Shares the automaton across roles; the returned mapping iterates in the
    protocol's first-occurrence role order, which the automaton keeps.
    """
    a = build_gaut(g)
    table: dict[Role, tuple[LocalNfa, SubsetMachine]] = {}
    for role in a.roles:
        nfa = erase(a, role)
        table[role] = (nfa, determinize(nfa))
    return a, table


# --------------------------------------------------------------------------- #
# DOT export
# --------------------------------------------------------------------------- #


def machine_to_dot(m: SubsetMachine, name: Optional[str] = None) -> str:
    """Graphviz rendering; states are labeled with their members' positions."""
    title = name if name is not None else f"machine_{m.role}"
    final = [bool(mask & m.final_mask) for mask in m.masks]
    edges = ((i, m.events[r], t) for i, moves in enumerate(m.arcs) for r, t in moves)
    return _machine_dot(title, [str(s) for s in m.states], 0, final, edges)

"""Deterministic per-role machines via subset construction.

The local view of a role (:class:`~gtproj.automata.LocalNfa`) is
nondeterministic because exchanges between other roles turn into silent
steps.  :func:`subset_construction` determinizes it in the textbook way —
states become silent-closed sets of subterms — except that no states are
merged or minimized beyond the closure itself: keeping the member subterms
visible is what later lets the validity checks reason about *which* branch
of the protocol each member belongs to.

A :class:`SubsetMachine` is int tables first: each state is a mask of
members over the view's dense index, each move a (label rank, successor
number) pair, exactly as :func:`determinize` finds them.  The validity
checks read only those tables (see :mod:`gtproj.validity`).  The object
views -- :class:`SubsetState` values and the ``(state, event)`` transition
map -- are built on first use, by projection output, simulation, the oracle
and counterexamples.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from .automata import (
    AsyncEvent,
    LocalNfa,
    SyncAutomaton,
    _machine_dot,
    _select,
    build_gaut,
    erase,
)
from .syntax import GlobalType, Role, roles_of

__all__ = [
    "SubsetState",
    "SubsetMachine",
    "determinize",
    "subset_construction",
    "build_projections",
    "bounded_local_language_check",
    "machine_to_dot",
]


_intern_id = attrgetter("intern_id")


@dataclass(frozen=True, slots=True, eq=False)
class SubsetState:
    """A deterministic state: a non-empty, silent-closed set of subterms.

    Members are kept sorted by intern id so equal sets are one value.
    Equality and hashing read ``ids`` and a hash of it, both computed once.
    """

    members: tuple[GlobalType, ...]
    ids: tuple[int, ...] = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("subset state must be non-empty")
        ids = tuple(map(_intern_id, self.members))
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_hash", hash(ids))

    @staticmethod
    def of(members: Iterable[GlobalType]) -> "SubsetState":
        unique = {m.intern_id: m for m in members}
        return SubsetState(tuple(unique[i] for i in sorted(unique)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SubsetState):
            return NotImplemented
        return self._hash == other._hash and self.ids == other.ids

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[GlobalType]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, node: object) -> bool:
        return any(node == m for m in self.members)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.ids) + "}"


class SubsetMachine:
    """A deterministic machine for one role, held as int tables.

    State ``i`` is ``masks[i]``, its members as a mask over the dense index
    ``nodes`` (bit ``j`` stands for ``nodes[j]``).  States are numbered in
    breadth-first discovery order, the initial state first.  ``arcs[i]``
    lists state ``i``'s moves as ``(label rank, successor number)`` pairs in
    label order, where a rank indexes the sorted ``events``; a state is
    final when its mask meets ``final_mask``, the terminated protocol's bit.

    The object views -- ``states``, ``transitions`` (``(state, event)`` to
    successor), ``initial``, ``finals``, :meth:`out`, :meth:`step` and
    :meth:`state_number` -- are built together on first use, so a caller
    that reads only the tables never makes a :class:`SubsetState`.
    """

    __slots__ = ("role", "nodes", "masks", "arcs", "events", "final_mask", "_views")

    def __init__(
        self,
        role: Role,
        nodes: tuple[GlobalType, ...],
        masks: tuple[int, ...],
        arcs: tuple[tuple[tuple[int, int], ...], ...],
        events: tuple[AsyncEvent, ...],
        final_mask: int,
    ) -> None:
        self.role = role
        self.nodes = nodes
        self.masks = masks
        self.arcs = arcs
        self.events = events
        self.final_mask = final_mask
        self._views: Optional[_Views] = None

    def _objects(self) -> "_Views":
        if self._views is None:
            self._views = _Views(self)
        return self._views

    @property
    def states(self) -> tuple[SubsetState, ...]:
        return (self._views or self._objects()).states

    @property
    def transitions(self) -> dict[tuple[SubsetState, AsyncEvent], SubsetState]:
        return (self._views or self._objects()).transitions

    @property
    def initial(self) -> SubsetState:
        return (self._views or self._objects()).initial

    @property
    def finals(self) -> frozenset[SubsetState]:
        return (self._views or self._objects()).finals

    def out(self, state: SubsetState) -> tuple[tuple[AsyncEvent, SubsetState], ...]:
        """Outgoing (event, successor) pairs in label order."""
        return (self._views or self._objects()).out[state]

    def step(self, state: SubsetState, event: AsyncEvent) -> Optional[SubsetState]:
        """Successor under ``event``, or ``None`` when not enabled."""
        return (self._views or self._objects()).transitions.get((state, event))

    def state_number(self, state: SubsetState) -> int:
        """Breadth-first discovery index of ``state``."""
        return (self._views or self._objects()).index[state]

    def __len__(self) -> int:
        return len(self.masks)


class _Views:
    """The object views of one :class:`SubsetMachine`, built together."""

    __slots__ = ("states", "transitions", "initial", "finals", "out", "index")

    def __init__(self, m: SubsetMachine) -> None:
        events = m.events
        states = tuple(SubsetState(tuple(_select(m.nodes, mask))) for mask in m.masks)
        self.states = states
        self.out = {
            state: tuple((events[r], states[t]) for r, t in moves)
            for state, moves in zip(states, m.arcs)
        }
        self.transitions = {
            (state, event): target
            for state, moves in self.out.items()
            for event, target in moves
        }
        self.initial = states[0]
        self.finals = frozenset(
            s for s, mask in zip(states, m.masks) if mask & m.final_mask
        )
        self.index = {s: i for i, s in enumerate(states)}


def determinize(nfa: LocalNfa) -> SubsetMachine:
    """Subset construction over a role's local view.

    Successor sets take the labeled step first and then close under silent
    steps; the initial state is the silent closure of the view's initial
    state.  Empty sets are never created (a label is only followed where
    some member enables it), and every reachable state is kept.

    The search runs on state masks over the view's dense index: a member's
    steps are (label rank, target closure mask) pairs, ranks in the view's
    ``events``, and a successor is the union of the target closures under
    one label.  The machine keeps the masks and arcs as they are found.
    """
    bit, closures = nfa.bit, nfa.closures
    steps: list[list[tuple[int, int]]] = [[] for _ in nfa.nodes]
    for src, r, tgt in nfa.edges:
        if r is not None:
            steps[src].append((r, closures[tgt]))
    masks = [closures[bit[nfa.initial]]]
    order = {masks[0]: 0}
    arcs: list[tuple[tuple[int, int], ...]] = []
    for mask in masks:  # grows while it is read: a BFS queue
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
    final_mask = sum(1 << bit[f] for f in nfa.finals)
    return SubsetMachine(
        nfa.role, nfa.nodes, tuple(masks), tuple(arcs), nfa.events, final_mask
    )


def subset_construction(g: GlobalType, p: Role) -> SubsetMachine:
    """The deterministic machine of role ``p`` for protocol ``g``."""
    return determinize(erase(build_gaut(g), p))


def build_projections(
    g: GlobalType,
) -> tuple[SyncAutomaton, dict[Role, tuple[LocalNfa, SubsetMachine]]]:
    """One synchronous automaton plus, per role, its view and machine.

    Shares the automaton across roles; the returned mapping iterates in the
    protocol's first-occurrence role order.
    """
    a = build_gaut(g)
    table: dict[Role, tuple[LocalNfa, SubsetMachine]] = {}
    for role in roles_of(g):
        nfa = erase(a, role)
        table[role] = (nfa, determinize(nfa))
    return a, table


# --------------------------------------------------------------------------- #
# Bounded language equality
# --------------------------------------------------------------------------- #


def _nfa_words(nfa: LocalNfa, depth: int) -> frozenset[tuple[AsyncEvent, ...]]:
    """Every event word of length <= depth spelled by some path of the view."""
    words: set[tuple[AsyncEvent, ...]] = set()
    seen: set[tuple[GlobalType, tuple[AsyncEvent, ...]]] = set()
    queue: deque[tuple[GlobalType, tuple[AsyncEvent, ...]]] = deque()
    start = (nfa.initial, ())
    seen.add(start)
    queue.append(start)
    while queue:
        state, word = queue.popleft()
        words.add(word)
        for _, label, tgt in nfa.out(state):
            if label is None:
                nxt = (tgt, word)
            elif len(word) < depth:
                nxt = (tgt, word + (label,))
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(words)


def _machine_words(m: SubsetMachine, depth: int) -> frozenset[tuple[AsyncEvent, ...]]:
    """Every event word of length <= depth accepted along the machine."""
    words: set[tuple[AsyncEvent, ...]] = set()
    queue: deque[tuple[SubsetState, tuple[AsyncEvent, ...]]] = deque(((m.initial, ()),))
    while queue:
        state, word = queue.popleft()
        words.add(word)
        if len(word) == depth:
            continue
        for event, tgt in m.out(state):
            queue.append((tgt, word + (event,)))
    return frozenset(words)


def bounded_local_language_check(g: GlobalType, p: Role, depth: int = 10) -> bool:
    """Compare, up to ``depth`` events, the words of role ``p``'s
    nondeterministic view against its determinized machine.

    This equality is a structural fact about the construction (it holds for
    every protocol, implementable or not); the check exists to catch
    regressions in the erasure or the subset construction.
    """
    a = build_gaut(g)
    nfa = erase(a, p)
    m = determinize(nfa)
    return _nfa_words(nfa, depth) == _machine_words(m, depth)


# --------------------------------------------------------------------------- #
# DOT export
# --------------------------------------------------------------------------- #


def machine_to_dot(m: SubsetMachine, name: Optional[str] = None) -> str:
    """Graphviz rendering; states are labeled with their member subterm ids."""
    title = name if name is not None else f"machine_{m.role}"
    edges = ((s, event, tgt) for s in m.states for event, tgt in m.out(s))
    return _machine_dot(title, m.states, m.initial, m.finals, edges, state_label=str)

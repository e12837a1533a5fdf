"""Independent cross-checks for the projection pipeline.

Everything here re-derives semantic facts from first principles, so the
checker can verify its counterexamples and the test suite can compare the
fast checks against ground truth:

* :func:`intersection_witness` — is an asynchronous trace consistent with
  *some* run of the protocol (each role's view extends to that run's view)?
  Exact, by exhaustive product search.
* :func:`bounded_fidelity_check` — up to a depth bound: the machines replay
  every protocol run, accept no trace inconsistent with every run, and never
  deadlock.
* :func:`generate_gk` — a scalable family whose per-role machine provably
  needs exponentially many states, for stress-testing the construction.

The references that only the tests read (trace equivalence up to
unobservable reorderings, FIFO order of a trace, and a view's bounded
language against its machine's) live in ``tests/reference.py``.

The searches run on numbers: :func:`intersection_witness` matches a trace
against the automaton's numbered halves (:attr:`SyncAutomaton.events`) with
product nodes of (state bit, per-role counts), following the automaton's
one edge index (:attr:`SyncAutomaton.succ`); each product search is a
successor function for :func:`~gtproj.automata._shortest_path`.  The
fidelity check rejects bad bounds on entry and reads the automaton the
machines were built from (building one only for machines made otherwise).
It replays protocol runs on machine state numbers alone, as a split trace
leaves every channel empty between exchanges.  It then steps the machine
system on its state and channel numbers; one search, keyed by per-role
views, finds both the inconsistent traces and the deadlocks.  A view is a
node of a trie of half numbers and a trace a parent link, so the search
carries ints, and only a product search or a reported witness spells them
out.  Each trace it reaches extends one it has already shown consistent by
one event, so it keeps where that trace's run ends and each role's halves
along it, not the run's edges.  One look at the extending role's next half
in the run keeps the run, searches on from its end when the run has no
such half, or else searches the product from the start.  A search on from
a run's end depends only on (end state, role, new event), so each check
finds each such tail once and keeps it in a table.  No machine state
objects are built.
"""
from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from operator import add
from typing import Iterable, Iterator, Optional

from .automata import (
    AsyncEvent,
    Edge,
    SyncAutomaton,
    _shortest_path,
    build_gaut,
)
from .csm import Csm, _check_bounds, _enabled, _fire, _is_final, _move
from .syntax import (
    END,
    Branch,
    Choice,
    GlobalType,
    Message,
    Rec,
    Role,
    Var,
    exchange,
)

__all__ = [
    "intersection_witness",
    "FidelityReport",
    "bounded_fidelity_check",
    "generate_gk",
]


# --------------------------------------------------------------------------- #
# Consistency of a trace with the protocol's runs
# --------------------------------------------------------------------------- #


_Targets = tuple[tuple[int, ...], ...]
_ProductNode = tuple[int, tuple[int, ...]]


def _search(out: tuple, targets: _Targets, start: _ProductNode) -> Optional[tuple]:
    """The ``out`` (:attr:`SyncAutomaton.succ`) entries of a shortest path
    from ``start`` to a product node (state bit, per-role counts) whose
    counts use up every view, or ``None``: :func:`_shortest_path` over the
    entries whose halves agree with the views in ``targets`` (event
    numbers), in ``out`` order.  A role's half is free once its view is
    used up."""
    goal = tuple(map(len, targets))

    def successors(node: _ProductNode) -> Iterator[tuple[tuple, _ProductNode]]:
        state, counts = node
        for entry in out[state]:
            nxt = counts
            for i, event in entry[3]:
                n, want = nxt[i], targets[i]
                if n < len(want):
                    if want[n] != event:
                        break
                    nxt = nxt[:i] + (n + 1,) + nxt[i + 1 :]
            else:
                yield entry, (entry[2], nxt)

    return _shortest_path(start, successors, lambda node: node[1] == goal)


def _run(path: tuple, start: int, roles: int) -> tuple:
    """The run (see :func:`_extend`) of the ``out`` entries ``path`` from
    state bit ``start``, among ``roles`` roles."""
    halves = [()] * roles
    for entry in path:
        for i, event in entry[3]:
            halves[i] += (event,)
    return path[-1][2] if path else start, tuple(halves)


def _grow(run: tuple, tail: tuple) -> tuple:
    """``run`` continued by ``tail``, a run from ``run``'s end."""
    end, extra = tail
    return end, tuple(map(add, run[1], extra))


def _unwind(up: array, last: array, node: int) -> tuple[int, ...]:
    """The numbers on the path to ``node`` from node 0 of a tree held as
    parent links: node ``v > 0`` has parent ``up[v]`` and number
    ``last[v]``.  Arrays, not lists, hold the trees of a fidelity check,
    as the cyclic collector does not walk an array."""
    numbers = []
    while node:
        numbers.append(last[node])
        node = up[node]
    return tuple(reversed(numbers))


class _Trie:
    """Sequences of numbers below ``width`` as the nodes of a trie.

    Node 0 is the empty sequence, and node ``v > 0`` is node ``up[v]``'s
    sequence followed by ``last[v]``, ``size[v]`` numbers long.  ``child``
    maps ``parent * width + number`` to that node, so each sequence has
    one node.
    """

    __slots__ = ("width", "child", "up", "last", "size")

    def __init__(self, width: int) -> None:
        self.width = width
        self.child: dict[int, int] = {}
        self.up, self.last, self.size = array("q", (0,)), array("q", (-1,)), array("q", (0,))

    def extend(self, parent: int, number: int) -> int:
        """The node of ``parent``'s sequence followed by ``number``."""
        key = parent * self.width + number
        node = self.child.get(key)
        if node is None:
            node = self.child[key] = len(self.up)
            self.up.append(parent)
            self.last.append(number)
            self.size.append(self.size[parent] + 1)
        return node

    def path(self, node: int) -> tuple[int, ...]:
        """The sequence of ``node``."""
        return _unwind(self.up, self.last, node)


def _extend(
    out: tuple, root: _ProductNode, run: tuple, views: tuple, j: int, tails: dict,
    trie: _Trie,
) -> Optional[tuple]:
    """A run consistent with ``views``, where ``run`` is consistent with
    ``views`` less the last event of role ``j``'s view.

    ``views`` holds, per role, a node of ``trie`` whose sequence is that
    role's view as event numbers; only a search spells the sequences out
    (``targets``).  A run stands for a path from ``root`` and is ``(end,
    halves)``: the state bit the path ends at, and per role the event
    numbers of that role's halves along it.  Being consistent, its halves
    start with every view, so only role ``j``'s next half can stop it from
    matching: if that half is the new event, ``run`` still matches; if it
    is another event, the search starts again from ``root``; if the run
    has no such half, it is searched on from its end, and from ``root``
    only when nothing continues it.  ``None`` means that no run is
    consistent with ``views``.

    From a run's end every role but ``j`` has used up its view and is free,
    so the tail found there depends only on (end bit, ``j``, new event).
    ``tails`` holds each such tail as a run from that end, or ``None`` when
    there is none, and is filled by the first search with its key; it
    serves one ``out`` only."""
    end, halves = run
    n = trie.size[views[j]] - 1
    event = trie.last[views[j]]
    targets = None
    if n < len(halves[j]):
        if halves[j][n] == event:
            return run
    else:
        key = (end, j, event)
        if key in tails:
            tail = tails[key]
        else:
            targets = tuple(map(trie.path, views))
            counts = tuple(map(len, targets))
            path = _search(out, targets, (end, counts[:j] + (n,) + counts[j + 1 :]))
            tail = tails[key] = None if path is None else _run(path, end, len(targets))
        if tail is not None:
            return _grow(run, tail)
    targets = targets or tuple(map(trie.path, views))
    path = _search(out, targets, root)
    if path is None:
        return None
    return _run(path, root[0], len(targets))


def intersection_witness(
    g: GlobalType, w: Iterable[AsyncEvent], *, automaton: Optional[SyncAutomaton] = None
) -> Optional[tuple[Edge, ...]]:
    """Search for a protocol run consistent with trace ``w``: a run prefix
    whose split trace extends every role's view of ``w``.

    Returns the prefix's chained :attr:`SyncAutomaton.transitions` from the
    initial state (``()`` for the empty run), or ``None`` when no run of
    ``g`` is consistent with ``w``.  The search is exact: it explores the finite product of
    automaton states with per-role matched-prefix counters, and because
    every non-final automaton state has a successor, any consistent prefix
    extends to a maximal run — so ``None`` really means no maximal run
    matches.
    """
    a = automaton if automaton is not None else build_gaut(g)
    roles = a.role_number
    views: list[list[int]] = [[] for _ in roles]
    for e in w:
        i = roles.get(e.active.name)
        if i is None or e.peer.name not in roles:
            return None
        views[i].append(a.event_number(e))
    root = (a.bit[a.initial], (0,) * len(roles))
    run = _search(a.succ, tuple(map(tuple, views)), root)
    if run is None:
        return None
    return tuple(a.transitions[entry[0]] for entry in run)


# --------------------------------------------------------------------------- #
# Bounded fidelity
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FidelityReport:
    """Outcome of :func:`bounded_fidelity_check`.

    On failure, ``obligation`` names the broken obligation (``"replay"``,
    ``"intersection"``, or ``"deadlock"``) and ``witness`` is an offending
    trace.
    """

    ok: bool
    obligation: Optional[str]
    witness: Optional[tuple[AsyncEvent, ...]]
    run_prefixes_checked: int
    csm_traces_checked: int


def bounded_fidelity_check(
    g: GlobalType, c: Csm, depth: int = 14, *, channel_bound: int = 4
) -> FidelityReport:
    """Check, up to ``depth`` events, that the machines and the protocol
    agree:

    1. *replay* — the split trace of every protocol run prefix executes in
       the machine system;
    2. *intersection* — every trace the machine system can produce (under
       ``channel_bound``) is consistent with some protocol run;
    3. *deadlock* — the machine system reaches no deadlock.

    Returns the first failure with a witness trace.  The automaton is the
    one ``c``'s machines were built from when they all share it and it is
    ``g``'s, and is built from ``g`` otherwise.  A split trace receives
    each message right after its send, so its channels are empty between
    exchanges: 1 searches (automaton state, machine state numbers), and a
    half fires when its machine has a move for it.  One search serves 2
    and 3, and a deadlock is reported only when no trace fails 2.  It
    holds each role's view as a node of one trie of half numbers, made for
    this call, and each trace as a link to the trace it extends; both are
    spelled out only for a product search or a witness.  For 2, each trace
    keeps the end state of the run that showed it consistent and each
    role's halves along that run.  A one-event extension looks up the
    extending role's next half in that run: the run is kept when that half
    is the new event, searched on from its end when there is no such half,
    and otherwise, or when nothing continues it, the search starts from the
    initial state.  Every other role has used up its view at a run's end,
    so the tail found there depends only on (end state, role, new event):
    one table of tails by that key, kept for this call, searches each key
    once.  Raises ``TypeError`` for a bound that is not an int and
    ``ValueError`` for a ``channel_bound`` below 1 or a negative ``depth``.
    """
    _check_bounds(channel_bound, depth)
    a = _automaton(g, c)

    place = [a.role_number.get(r.name) for r in c.roles]
    number = [a.event_number(e) for e in c.events]
    # per half of the automaton: the machine that has it and its event
    # number in the system
    half = [(None, None)] * len(a.events)
    for i, e in c._index.values():
        if number[e] >= 0:
            half[number[e]] = (i, e)

    # Obligation 1: protocol runs replay in the machine system, on state
    # numbers alone (channels are empty between exchanges).
    replayed = 0
    start = a.bit[a.initial]
    init = (0,) * len(c.roles)
    seen_replay = {(start, init)}
    queue = deque(((start, init, ()),))
    while queue:
        state, states, trace = queue.popleft()
        replayed += 1
        for _, _, tgt, split in a.succ[state]:
            if not split:
                nxt_states, nxt_trace = states, trace
            elif len(trace) + 2 <= depth:
                nxt_states, nxt_trace = states, trace
                for _, n in split:
                    nxt_trace = nxt_trace + (a.events[n],)
                    i, e = half[n]
                    move = _move(c, nxt_states, i, e)
                    if move is None:
                        return FidelityReport(False, "replay", nxt_trace, replayed, 0)
                    nxt_states = nxt_states[:i] + (move[1],) + nxt_states[i + 1 :]
            else:
                continue
            key = (tgt, nxt_states)
            if key not in seen_replay:
                seen_replay.add(key)
                queue.append((tgt, nxt_states, nxt_trace))

    # Obligations 2 and 3 in one search: machine traces, deduplicated by
    # per-role views (consistency only depends on those), are consistent
    # with some protocol run, and none ends in a deadlock.  Views determine
    # the configuration, so deadlocks come in ``explore``'s order.  A trace
    # is a parent link (below), and carries its views as
    # nodes of ``trie``, one per automaton role, which are also its key (an
    # event that no run has ends the search), and a run consistent with
    # them (``_extend``), which a one-event extension keeps, continues with
    # a tail from ``tails`` or replaces after one look at the extended
    # role's halves in it.
    checked = 0
    deadlock = None
    root = (start, (0,) * len(a.roles))
    empty = (0,) * len(a.roles)
    trie = _Trie(len(a.events))
    # traces as parent links: trace 0 is empty, and trace ``t > 0`` is
    # trace ``came[t]`` followed by the system's event ``by[t]``
    came, by = array("q", (0,)), array("q", (-1,))
    seen_views = {empty}
    tails: dict = {}
    child, width = trie.child.get, trie.width

    def witness(trace: int, *last: int) -> tuple[AsyncEvent, ...]:
        return tuple(c.events[n] for n in _unwind(came, by, trace) + last)

    level = [((init, ((),) * len(c.slot)), 0, empty, (start, ((),) * len(a.roles)))]
    for length in range(depth + 1):  # one level of the search per trace length
        cut, nxt_level = length == depth, []
        for (states, channels), trace, views, run in level:
            stuck = True
            for move in _enabled(c, states, channels):
                stuck = False
                if cut:
                    break
                if move[2] and len(channels[move[3]]) >= channel_bound:
                    continue
                e = move[5]
                j, event = place[move[0]], number[e]
                if j is None or event < 0:  # no run has this event
                    return FidelityReport(
                        False, "intersection", witness(trace, e), replayed, checked + 1
                    )
                view = views[j]  # ``trie.extend``, with its lookup inline
                view = child(view * width + event) or trie.extend(view, event)
                nxt_views = views[:j] + (view,) + views[j + 1 :]
                if nxt_views in seen_views:
                    continue
                seen_views.add(nxt_views)
                checked += 1
                nxt_run = _extend(a.succ, root, run, nxt_views, j, tails, trie)
                if nxt_run is None:
                    return FidelityReport(
                        False, "intersection", witness(trace, e), replayed, checked
                    )
                came.append(trace)
                by.append(e)
                nxt = _fire(states, channels, move)
                nxt_level.append((nxt, len(came) - 1, nxt_views, nxt_run))
            if stuck and deadlock is None and not _is_final(c, states, channels):
                deadlock = trace
        level = nxt_level
    if deadlock is not None:
        return FidelityReport(False, "deadlock", witness(deadlock), replayed, checked)
    return FidelityReport(True, None, None, replayed, checked)


def _automaton(g: GlobalType, c: Csm) -> SyncAutomaton:
    """The automaton that every machine of ``c`` was built from, when they
    share one and it is ``g``'s; otherwise ``g``'s, built anew."""
    built = {id(m.automaton): m.automaton for m in c.machines.values()}
    if len(built) == 1:
        (a,) = built.values()
        if a is not None and a.initial == g:
            return a
    return build_gaut(g)


# --------------------------------------------------------------------------- #
# Scalable hard instances
# --------------------------------------------------------------------------- #


def generate_gk(k: int) -> GlobalType:
    """A protocol whose receiver machine needs at least ``2**k`` states.

    Role p repeatedly tells r whether to stay (``s``) or leave (``l``) a
    loop, while streaming ``a``/``b`` letters to q.  After leaving, p sends
    ``k - 1`` further letters and then ``d``, and q must answer with the
    letter p sent *k letters before* ``d`` — so q's machine has to remember
    the last ``k`` letters.  The protocol is well-formed and implementable
    for every ``k >= 1``.  Raises ``TypeError`` for a ``k`` that is not an
    int (a bool included) and ``ValueError`` for ``k < 1``.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"k must be an int, not {type(k).__name__}")
    if k < 1:
        raise ValueError("k must be at least 1")
    p, q, r = Role("p"), Role("q"), Role("r")
    a, b, d, stay, leave = (Message(x) for x in ("a", "b", "d", "s", "l"))

    def answer(letter: Message) -> GlobalType:
        return exchange(p, q, d, exchange(q, p, letter, END))

    tail_a: GlobalType = answer(a)
    tail_b: GlobalType = answer(b)
    for _ in range(k - 1):
        tail_a = Choice(p, (Branch(q, a, tail_a), Branch(q, b, tail_a)))
        tail_b = Choice(p, (Branch(q, a, tail_b), Branch(q, b, tail_b)))
    loop = Choice(p, (Branch(q, a, Var("t")), Branch(q, b, Var("t"))))
    leave_body = Choice(p, (Branch(q, a, tail_a), Branch(q, b, tail_b)))
    return Rec(
        "t",
        Choice(p, (Branch(r, stay, loop), Branch(r, leave, leave_body))),
    )

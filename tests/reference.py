"""Reference oracles that only the tests read.

Each re-derives a semantic fact from its definition, on event objects and
words, for the tests to compare the package's results against:

* :func:`indistinguishable_finite` — are two asynchronous traces equal up to
  the reorderings that no participant can observe?
* :func:`check_channel_compliance` — does a trace keep every channel's FIFO
  order?
* :func:`bounded_local_language_check` — does a role's machine accept, up
  to a depth, exactly the words of the role's view?
"""
from __future__ import annotations

from collections import Counter, deque
from typing import Iterable, Optional

from gtproj import (
    AsyncEvent,
    GlobalType,
    LocalNfa,
    Message,
    Role,
    SubsetMachine,
    build_gaut,
    determinize,
    erase,
    project_word,
)


# --------------------------------------------------------------------------- #
# Observational equivalence of traces
# --------------------------------------------------------------------------- #


class BudgetExhausted(Exception):
    """The swap search hit its budget before reaching an answer."""


def _swappable(prefix: tuple[AsyncEvent, ...], x: AsyncEvent, y: AsyncEvent) -> bool:
    """May adjacent events ``x y`` (after ``prefix``) be reordered without
    any role observing the difference?  Symmetric in ``x`` and ``y``."""
    if x.is_send and y.is_send:
        return x.active != y.active
    if not x.is_send and not y.is_send:
        return x.active != y.active
    snd, rcv = (x, y) if x.is_send else (y, x)
    if snd.active == rcv.peer and snd.peer == rcv.active:
        # Same channel: swappable only while the channel is non-empty, i.e.
        # the prefix holds strictly more sends than receives on it.
        sent = sum(
            1 for e in prefix if e.is_send and e.active == snd.active and e.peer == snd.peer
        )
        taken = sum(
            1
            for e in prefix
            if not e.is_send and e.active == rcv.active and e.peer == rcv.peer
        )
        return sent > taken
    return snd.active != rcv.active and (
        snd.active != rcv.peer or snd.peer != rcv.active
    )


def indistinguishable_finite(
    u: Iterable[AsyncEvent], v: Iterable[AsyncEvent], budget: int = 10_000
) -> bool:
    """Decide whether ``u`` and ``v`` are equal up to unobservable
    reorderings, by breadth-first search over adjacent swaps.

    Returns ``False`` immediately when a reordering is impossible (length,
    event multiset, or some role's own event order differs — swaps never
    reorder one role's events).  Raises :class:`BudgetExhausted` when the
    search would exceed ``budget`` generated words without an answer.
    """
    u = tuple(u)
    v = tuple(v)
    if u == v:
        return True
    if len(u) != len(v) or Counter(u) != Counter(v):
        return False
    for role in {e.active for e in u}:
        if project_word(u, role) != project_word(v, role):
            return False
    seen = {u}
    queue: deque[tuple[AsyncEvent, ...]] = deque((u,))
    generated = 0
    while queue:
        word = queue.popleft()
        for i in range(len(word) - 1):
            if not _swappable(word[:i], word[i], word[i + 1]):
                continue
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
            if swapped in seen:
                continue
            if swapped == v:
                return True
            generated += 1
            if generated > budget:
                raise BudgetExhausted(
                    f"no answer within {budget} swap applications"
                )
            seen.add(swapped)
            queue.append(swapped)
    return False


# --------------------------------------------------------------------------- #
# Channel compliance
# --------------------------------------------------------------------------- #


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


# --------------------------------------------------------------------------- #
# Bounded language equality
# --------------------------------------------------------------------------- #


def _nfa_words(nfa: LocalNfa, depth: int) -> frozenset[tuple[AsyncEvent, ...]]:
    """Every event word of length <= depth spelled by some path of the view."""
    out: list[list[tuple[Optional[int], int]]] = [[] for _ in nfa.states]
    for src, r, tgt in nfa.edges:
        out[src].append((r, tgt))
    words: set[tuple[AsyncEvent, ...]] = set()
    seen: set[tuple[int, tuple[AsyncEvent, ...]]] = set()
    queue: deque[tuple[int, tuple[AsyncEvent, ...]]] = deque()
    start = (nfa.bit[nfa.initial], ())
    seen.add(start)
    queue.append(start)
    while queue:
        state, word = queue.popleft()
        words.add(word)
        for r, tgt in out[state]:
            if r is None:
                nxt = (tgt, word)
            elif len(word) < depth:
                nxt = (tgt, word + (nfa.events[r],))
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(words)


def _machine_words(m: SubsetMachine, depth: int) -> frozenset[tuple[AsyncEvent, ...]]:
    """Every event word of length <= depth accepted along the machine."""
    words: set[tuple[AsyncEvent, ...]] = set()
    queue: deque[tuple[int, tuple[AsyncEvent, ...]]] = deque(((0, ()),))
    while queue:
        state, word = queue.popleft()
        words.add(word)
        if len(word) == depth:
            continue
        for r, tgt in m.arcs[state]:
            queue.append((tgt, word + (m.events[r],)))
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

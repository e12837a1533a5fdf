"""Reference oracles that only the tests read.

Each re-derives a semantic fact from its definition, on event objects and
words, for the tests to compare the package's results against:

* :func:`indistinguishable_finite` — are two asynchronous traces equal up to
  the reorderings that no participant can observe?
* :func:`check_channel_compliance` — does a trace keep every channel's FIFO
  order?
* :func:`bounded_local_language_check` — does a role's machine accept, up
  to a depth, exactly the words of the role's view?
* :func:`reference_parse` — the one-scan parser without its reuse of
  repeated choice text: every piece of the text is scanned.
"""
from __future__ import annotations

from collections import Counter, deque
from typing import Iterable, Optional

from gtproj import (
    END,
    AsyncEvent,
    Branch,
    Choice,
    GlobalType,
    LocalNfa,
    Message,
    Rec,
    Role,
    SubsetMachine,
    Var,
    build_gaut,
    determinize,
    erase,
    project_word,
)
from gtproj.syntax import (
    _BINDER,
    _CLOSE,
    _COMMA,
    _EOF,
    _HEAD,
    _OPEN,
    _SCAN,
    _VAR,
    _ZERO,
    _error_at,
    _explain,
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


# --------------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------------- #


def reference_parse(text: str) -> GlobalType:
    """:func:`gtproj.parse_global_type` without its reuse of repeated
    choice text: the same scanner, stack and errors, and every piece of the
    text is scanned."""
    scan = _SCAN.match
    roles: dict[str, Role] = {}
    labels: dict[str, Message] = {}
    nodes: dict[tuple, Choice] = {}  # equal keys have equal intern keys
    scope: set[str] = set()
    bound: set[str] = set()

    def role(name: str) -> Role:
        r = roles.get(name)
        if r is None:
            r = roles[name] = Role(name)
        return r

    def message(label: str) -> Message:
        msg = labels.get(label)
        if msg is None:
            msg = labels[label] = Message(label)
        return msg

    # Open constructs, innermost last: an exchange as the tuple (sender,
    # receiver, label); a binder as its variable name; a choice as the list
    # [sender, branches, receiver, label, mismatch] while it reads the
    # continuation of its last branch, where mismatch is None or the
    # (offset, name) of a branch sender that differs from the first.
    stack: list = []
    pos = 0
    while True:
        m = scan(text, pos)
        kind = m.lastindex if m is not None else None
        if kind == _HEAD:
            stack.append(m.group(1, 2, 3))
            pos = m.end()
            continue
        if kind == _BINDER:
            var = m.group(4)
            if var in bound:
                raise _explain(text, pos, "term", scope, bound)
            scope.add(var)
            bound.add(var)
            stack.append(var)
            pos = m.end()
            continue
        if kind == _OPEN:
            pos = m.end()
            m = scan(text, pos)
            if m is None or m.lastindex != _HEAD:
                raise _explain(text, pos, "exchange", scope, bound)
            sender, receiver, label = m.group(1, 2, 3)
            stack.append([sender, [], receiver, label, None])
            pos = m.end()
            continue
        if kind == _ZERO:
            node: GlobalType = END
        elif kind == _VAR:
            node = Var(m.group(_VAR))
        else:
            raise _explain(text, pos, "term", scope, bound)
        pos = m.end()

        # The term is complete: close every construct it completes.
        while stack:
            top = stack[-1]
            if top.__class__ is tuple:
                stack.pop()
                key = (*top, node.intern_id)
                done = nodes.get(key)
                if done is None:
                    sender, receiver, label = top
                    branch = Branch(role(receiver), message(label), node)
                    done = nodes[key] = Choice(role(sender), (branch,))
                node = done
            elif top.__class__ is str:
                stack.pop()
                scope.discard(top)
                node = Rec(top, node)
            else:
                sender, branches, receiver, label, mismatch = top
                if mismatch is not None:
                    raise _error_at(
                        text,
                        mismatch[0],
                        f"choice branches must share one sender "
                        f"(found {mismatch[1]!r} after {sender!r})",
                    )
                branches.append((receiver, label, node))
                m = scan(text, pos)
                kind = m.lastindex if m is not None else None
                if kind == _COMMA:
                    pos = m.end()
                    m = scan(text, pos)
                    if m is None or m.lastindex != _HEAD:
                        raise _explain(text, pos, "exchange", scope, bound)
                    other, top[2], top[3] = m.group(1, 2, 3)
                    if other != sender:
                        top[4] = (m.start(1), other)
                    pos = m.end()
                    break  # read the new branch's continuation
                if kind != _CLOSE:
                    raise _explain(text, pos, "choice", scope, bound)
                pos = m.end()
                stack.pop()
                key = (sender, tuple((r, l, n.intern_id) for r, l, n in branches))
                done = nodes.get(key)
                if done is None:
                    done = nodes[key] = Choice(
                        role(sender),
                        tuple(Branch(role(r), message(l), n) for r, l, n in branches),
                    )
                node = done
        if not stack:
            m = scan(text, pos)
            if m is None or m.lastindex != _EOF:
                raise _explain(text, pos, "end", scope, bound)
            return node

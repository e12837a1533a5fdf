"""Global protocol types: AST with hash-consing, parser, printer, and
structural well-formedness checks.

The AST mirrors the usual grammar for asynchronous multiparty protocols::

    G ::= 0                          terminated protocol
        | + { p->q1:m1 . G1,         sender-driven choice: one sender p,
              p->q2:m2 . G2 }        one branch per (receiver, message)
        | mu t . G                   recursive protocol
        | t                          recursion variable

A single-branch choice is written without the ``+ { }`` wrapper:
``p->q:m . G``.  ``//`` starts a line comment; whitespace is free-form.

Subterms are hash-consed: structurally equal trees share one intern
identifier (``intern_id``), and equality and hashing go through that
identifier, so a protocol parsed twice gives equal trees.  The intern table
is process-global and append-only; nodes are immutable.  State names print
no intern id: the automata number a protocol's states by the pre-order of
its walk, which depends on the protocol alone.

The parser reads the text with one compiled scanner, ``_SCAN``: each match
at a position skips whitespace and comments and reads one piece, and a
whole exchange head ``p->q:m .`` is one piece.  One loop turns the pieces
into nodes with an explicit stack of open exchanges, binders and choices,
and within one parse returns the existing node for a repeated subtree.  When
the scanner finds no piece the grammar allows, ``_explain`` reads the tokens
from there to name the wrong one.

One pre-order walk, ``_walk``, reads a protocol's index: distinct nodes,
roles, messages and ``mu`` binders; ``subterms``, ``roles_of``,
``messages_of`` and ``measure_size`` read it.  The decision procedure walks
once, in :func:`~gtproj.automata.build_gaut`; later layers read the
automaton.  The walk, the printers and ``validate_well_formedness`` use
explicit stacks, so nothing in the front end meets the recursion limit.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

__all__ = [
    "Role",
    "Message",
    "GlobalType",
    "End",
    "END",
    "Var",
    "Rec",
    "Branch",
    "Choice",
    "exchange",
    "subterms",
    "roles_of",
    "messages_of",
    "ParseError",
    "parse_global_type",
    "pretty",
    "pretty_inline",
    "WellFormednessRule",
    "WellFormednessViolation",
    "WellFormednessReport",
    "validate_well_formedness",
    "measure_size",
]


# --------------------------------------------------------------------------- #
# Roles and messages
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, order=True)
class Role:
    """A protocol participant, identified by name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("role name must be non-empty")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Message:
    """A message label; labels compare by exact string equality."""

    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("message label must be non-empty")

    def __str__(self) -> str:
        return self.label


# --------------------------------------------------------------------------- #
# AST nodes
# --------------------------------------------------------------------------- #

_INTERN: dict[tuple, int] = {}


def _intern(key: tuple) -> int:
    ident = _INTERN.get(key)
    if ident is None:
        ident = len(_INTERN)
        _INTERN[key] = ident
    return ident


class GlobalType:
    """Base class of protocol AST nodes.

    Nodes are immutable and hash-consed: ``intern_id`` is equal exactly for
    structurally equal subtrees, so equality and hashing are constant-time
    even on deep or heavily shared trees.
    """

    __slots__ = ("intern_id",)

    intern_id: int

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GlobalType):
            return NotImplemented
        return self.intern_id == other.intern_id

    def __hash__(self) -> int:
        return hash(self.intern_id)

    def __str__(self) -> str:
        return pretty_inline(self)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class End(GlobalType):
    """Terminated protocol (written ``0``)."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "intern_id", _intern(("end",)))

    def __repr__(self) -> str:
        return "End()"


#: The canonical terminated protocol.  All ``End()`` instances are equal.
END = End()


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Var(GlobalType):
    """An occurrence of a recursion variable."""

    var: str

    def __post_init__(self) -> None:
        if not self.var:
            raise ValueError("recursion variable must be non-empty")
        object.__setattr__(self, "intern_id", _intern(("var", self.var)))

    def __repr__(self) -> str:
        return f"Var({self.var!r})"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Rec(GlobalType):
    """Recursive protocol ``mu var . body``; the binder for ``var``."""

    var: str
    body: GlobalType

    def __post_init__(self) -> None:
        if not self.var:
            raise ValueError("recursion variable must be non-empty")
        object.__setattr__(
            self, "intern_id", _intern(("rec", self.var, self.body.intern_id))
        )

    def __repr__(self) -> str:
        return f"Rec({self.var!r}, {self.body!r})"


@dataclass(frozen=True, slots=True)
class Branch:
    """One alternative of a choice: deliver ``message`` to ``receiver`` and
    continue as ``continuation``."""

    receiver: Role
    message: Message
    continuation: GlobalType


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Choice(GlobalType):
    """A sender-driven choice: ``sender`` picks exactly one branch.

    Well-formed choices have pairwise-distinct ``(receiver, message)`` pairs
    and never send to the sender itself; those rules are checked by
    :func:`validate_well_formedness`, not at construction time.
    """

    sender: Role
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise ValueError("choice needs at least one branch")
        key = (
            "choice",
            self.sender.name,
            tuple(
                (b.receiver.name, b.message.label, b.continuation.intern_id)
                for b in self.branches
            ),
        )
        object.__setattr__(self, "intern_id", _intern(key))

    def __repr__(self) -> str:
        return f"Choice({self.sender!r}, {self.branches!r})"


def exchange(
    sender: Role, receiver: Role, message: Message, continuation: GlobalType
) -> Choice:
    """A single-branch choice ``sender->receiver:message . continuation``."""
    return Choice(sender, (Branch(receiver, message, continuation),))


# --------------------------------------------------------------------------- #
# Traversals
# --------------------------------------------------------------------------- #


class _Index(NamedTuple):
    """A protocol as :func:`_walk` reads it, each part in pre-order."""

    nodes: tuple[GlobalType, ...]
    roles: tuple[Role, ...]
    messages: tuple[Message, ...]
    binders: tuple[Rec, ...]


def _walk(g: GlobalType) -> _Index:
    """The index of ``g`` from one pre-order walk, with an explicit stack:
    each distinct node once; a choice's sender when the choice is met, and
    a branch's receiver and message just before its continuation."""
    seen: set[int] = set()
    nodes: list[GlobalType] = []
    roles: dict[Role, None] = {}
    messages: dict[Message, None] = {}
    recs: list[Rec] = []
    stack: list = [g]
    while stack:
        node = stack.pop()
        if node.__class__ is Branch:
            roles.setdefault(node.receiver)
            messages.setdefault(node.message)
            node = node.continuation
        if node.intern_id in seen:
            continue
        seen.add(node.intern_id)
        nodes.append(node)
        if isinstance(node, Choice):
            roles.setdefault(node.sender)
            stack.extend(reversed(node.branches))
        elif isinstance(node, Rec):
            recs.append(node)
            stack.append(node.body)
    return _Index(tuple(nodes), tuple(roles), tuple(messages), tuple(recs))


def subterms(g: GlobalType) -> tuple[GlobalType, ...]:
    """All distinct subterms of ``g`` in first-occurrence (pre-order) order.

    Shared subtrees are listed once; the walk is linear in the number of
    distinct nodes, so heavily shared protocols stay cheap.
    """
    return _walk(g).nodes


def roles_of(g: GlobalType) -> tuple[Role, ...]:
    """Every role of ``g`` in first-occurrence (pre-order) order: each
    choice contributes its sender, then per branch the receiver, read before
    that branch's continuation is walked."""
    return _walk(g).roles


def messages_of(g: GlobalType) -> tuple[Message, ...]:
    """Every message label of ``g`` in first-occurrence order: per branch
    the label, read before that branch's continuation is walked."""
    return _walk(g).messages


# --------------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------------- #


class ParseError(SyntaxError):
    """Malformed protocol text.  Carries ``lineno``/``offset`` (1-based)."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(message)
        self.lineno = line
        self.offset = column
        self.msg = message

    def __str__(self) -> str:  # SyntaxError.__str__ would drop the column
        return f"{self.msg} (line {self.lineno}, column {self.offset})"


#: Whitespace and ``//`` comments.  A comment matches only up to the end of
#: its line, so a gap splits into pieces one way only and a failed match
#: backtracks through it in linear time.
_SKIP = r"\s*(?://[^\n]*(?![^\n])\s*)*"
#: An identifier other than the keyword ``mu``, matched only whole.
_NAME = r"(?!mu(?![A-Za-z0-9_]))[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_])"

#: One match reads the gap and then one piece of a protocol; ``lastindex``
#: tells the pieces apart.  A whole exchange head is one piece.
_SCAN = re.compile(
    _SKIP
    + "(?:"
    + rf"({_NAME}){_SKIP}->{_SKIP}({_NAME}){_SKIP}:{_SKIP}({_NAME}){_SKIP}\."
    + rf"|mu(?![A-Za-z0-9_]){_SKIP}({_NAME}){_SKIP}\."
    + r"|(0)"
    + rf"|({_NAME})(?!{_SKIP}->)"
    + rf"|(\+){_SKIP}\{{"
    + r"|(,)|(\})|(\Z))"
)
# The pieces, by the number of their last group.
_HEAD, _BINDER, _ZERO, _VAR, _OPEN, _COMMA, _CLOSE, _EOF = 3, 4, 5, 6, 7, 8, 9, 10

#: One token after the gap: group 1 is a token, group 2 a character that
#: starts no token, and neither matches at the end of the text.
_TOKEN = re.compile(
    _SKIP + r"(?:(->|mu(?![A-Za-z0-9_])|[A-Za-z_][A-Za-z0-9_]*|[0{}.,:+])|(.)|\Z)",
    re.DOTALL,
)


def _is_name(token: str) -> bool:
    return token != "mu" and (token[:1].isalpha() or token[:1] == "_")


def _error_at(text: str, offset: int, message: str) -> ParseError:
    """A :class:`ParseError` at character ``offset`` of ``text``.  A stray
    character anywhere in the text is reported instead, at the first one."""
    for m in _TOKEN.finditer(text):
        if m.group(2) is not None:
            offset, message = m.start(2), f"unexpected character {m.group(2)!r}"
            break
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _explain(
    text: str, pos: int, expected: str, scope: set[str], bound: set[str]
) -> ParseError:
    """The error at ``pos``, where the scanner found no piece that
    ``expected`` ("term", "exchange", "choice" or "end") allows.

    Reads the tokens from ``pos`` on and names the first wrong one.  The
    end of the input sits at the end of the last token.
    """
    tokens = _TOKEN.finditer(text, pos)
    last_end = pos

    def take() -> tuple[str, int]:
        nonlocal last_end
        m = next(tokens)
        token = m.group(1)
        if token is None:  # the end (a stray character is reported first)
            return "", last_end
        last_end = m.end()
        return token, m.start(1)

    def wrong(what: str, token: str, offset: int) -> ParseError:
        found = f", found {token!r}" if token else ""
        return _error_at(text, offset, f"expected {what}{found}")

    token, offset = take()
    if expected == "term":
        if token == "mu":
            start = offset
            token, offset = take()
            if not _is_name(token):
                return wrong("a recursion variable after 'mu'", token, offset)
            if token in scope:
                return _error_at(
                    text, start, f"recursion variable {token!r} shadows an enclosing binder"
                )
            if token in bound:
                # Interned variable nodes are shared, so a name may belong to
                # only one binder in the whole protocol.
                return _error_at(
                    text,
                    start,
                    f"recursion variable {token!r} reuses the name of another binder",
                )
            token, offset = take()
            return wrong("'.' after the recursion variable", token, offset)
        if token == "+":
            token, offset = take()
            if token != "{":
                return wrong("'{' after '+'", token, offset)
            token, offset = take()
        elif not _is_name(token):
            return _error_at(text, offset, "expected a protocol term")
        expected = "exchange"
    if expected == "exchange":
        if not _is_name(token) or take()[0] != "->":
            return _error_at(text, offset, "expected a message exchange 'p->q:m . ...'")
        for needed, what in (
            (None, "a receiver role after '->'"),
            (":", "':' after the receiver"),
            (None, "a message label after ':'"),
            (".", "'.' after the message label"),
        ):
            token, offset = take()
            if not (_is_name(token) if needed is None else token == needed):
                return wrong(what, token, offset)
        raise AssertionError(f"no error in the exchange at offset {pos}")
    if expected == "choice":
        return wrong("',' or '}' in choice", token, offset)
    return wrong("end of input", token, offset)


def parse_global_type(text: str) -> GlobalType:
    """Parse protocol text into a :class:`GlobalType`.

    Raises :class:`ParseError` (with line/column) on malformed input,
    including choices whose branches disagree on the sender and recursion
    binders that shadow an enclosing binder or reuse another binder's name.
    Unbound variables and the other structural rules are *not* parse
    errors; they are reported by :func:`validate_well_formedness`.
    """
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


# --------------------------------------------------------------------------- #
# Printing
# --------------------------------------------------------------------------- #


def _render(g: GlobalType, newline: str, step: int) -> str:
    """The text of ``g``, written left to right from a stack of nodes (with
    their indent) and finished pieces of text.  A choice's branches are
    separated by ``newline`` and indented ``step`` more than the choice."""
    out: list[str] = []
    stack: list = [(g, 0)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        node, indent = item
        while True:
            if isinstance(node, Choice):
                sender, branches = node.sender.name, node.branches
                if len(branches) == 1:
                    b = branches[0]
                    out.append(f"{sender}->{b.receiver.name}:{b.message.label} . ")
                    node = b.continuation
                    continue
                inner = indent + step
                first = " " * inner
                sep = "," + newline + first
                out.append("+ {" + newline)
                stack.append(newline + " " * indent + "}")
                for i in range(len(branches) - 1, -1, -1):
                    b = branches[i]
                    stack.append((b.continuation, inner))
                    stack.append(
                        f"{sep if i else first}{sender}->{b.receiver.name}:{b.message.label} . "
                    )
            elif isinstance(node, Rec):
                out.append(f"mu {node.var} . ")
                node = node.body
                continue
            else:
                out.append(node.var if isinstance(node, Var) else "0")
            break
    return "".join(out)


def pretty(g: GlobalType) -> str:
    """Canonical multi-line rendering; one branch per line, 2-space indent.

    ``parse_global_type(pretty(g)) == g`` for every protocol ``g``.
    """
    return _render(g, "\n", 2)


def pretty_inline(g: GlobalType) -> str:
    """Single-line rendering, used in diagnostics and machine labels."""
    return _render(g, " ", 0)


# --------------------------------------------------------------------------- #
# Well-formedness
# --------------------------------------------------------------------------- #


class WellFormednessRule(Enum):
    """The structural rules a protocol must satisfy."""

    BRANCH_DISTINCTNESS = "BranchDistinctness"
    SELF_COMMUNICATION = "SelfCommunication"
    UNGUARDED = "Unguarded"
    UNBOUND_VARIABLE = "UnboundVariable"
    DUPLICATE_BINDER = "DuplicateBinder"


@dataclass(frozen=True, slots=True)
class WellFormednessViolation:
    """One broken rule; ``location`` is the offending node's position in
    :func:`subterms`, the number that state names print."""

    rule: WellFormednessRule
    location: int
    message: str


@dataclass(frozen=True, slots=True)
class WellFormednessReport:
    """All violations found in one protocol, in discovery order."""

    violations: tuple[WellFormednessViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_well_formedness(g: GlobalType) -> WellFormednessReport:
    """Check the structural rules and report every violation as data.

    Rules:

    * ``BranchDistinctness`` — within one choice, no two branches share the
      same ``(receiver, message)`` pair;
    * ``SelfCommunication`` — no branch sends to the choice's own sender;
    * ``Unguarded`` — from each ``mu t`` binder, reaching an occurrence of
      ``t`` must cross at least one message exchange (``mu t . t`` and
      ``mu t . mu u . t`` are rejected);
    * ``UnboundVariable`` — every variable occurrence is inside a binder for
      it.  An unused binder is accepted;
    * ``DuplicateBinder`` — no two distinct ``mu`` nodes bind one variable
      (the parser refuses such text, so only hand-built protocols break it).
    """
    found: dict[tuple[WellFormednessRule, int, str], None] = {}
    visited: set[tuple[int, frozenset[str]]] = set()
    binders: dict[str, int] = {}

    def report(rule: WellFormednessRule, node: GlobalType, message: str) -> None:
        found.setdefault((rule, node.intern_id, message))

    # Pending work, last first: a node to visit under a scope of bound
    # names, or the check of one branch of a choice, made after the
    # continuations of the branches before it have been walked.
    stack: list = [(g, frozenset())]
    while stack:
        item = stack.pop()
        if len(item) == 3:
            node, b, seen_pairs = item
            if b.receiver == node.sender:
                report(
                    WellFormednessRule.SELF_COMMUNICATION,
                    node,
                    f"role {node.sender} sends to itself in "
                    f"{node.sender}->{b.receiver}:{b.message}",
                )
            pair = (b.receiver, b.message)
            if pair in seen_pairs:
                report(
                    WellFormednessRule.BRANCH_DISTINCTNESS,
                    node,
                    f"duplicate branch {node.sender}->{b.receiver}:{b.message}",
                )
            seen_pairs.add(pair)
            continue
        node, scope = item
        key = (node.intern_id, scope)
        if key in visited:
            continue
        visited.add(key)
        if isinstance(node, Choice):
            pairs: set[tuple[Role, Message]] = set()
            for b in reversed(node.branches):
                stack.append((b.continuation, scope))
                stack.append((node, b, pairs))
        elif isinstance(node, Rec):
            if binders.setdefault(node.var, node.intern_id) != node.intern_id:
                report(
                    WellFormednessRule.DUPLICATE_BINDER,
                    node,
                    f"recursion variable {node.var!r} has more than one binder",
                )
            spine: GlobalType = node.body
            while isinstance(spine, Rec):
                spine = spine.body
            if isinstance(spine, Var) and spine.var == node.var:
                report(
                    WellFormednessRule.UNGUARDED,
                    node,
                    f"recursion variable {node.var!r} is reachable from its "
                    f"binder without crossing a message exchange",
                )
            stack.append((node.body, scope | {node.var}))
        elif isinstance(node, Var):
            if node.var not in scope:
                report(
                    WellFormednessRule.UNBOUND_VARIABLE,
                    node,
                    f"recursion variable {node.var!r} is not bound here",
                )

    if not found:
        return WellFormednessReport(())
    position = {n.intern_id: i for i, n in enumerate(_walk(g).nodes)}
    return WellFormednessReport(
        tuple(WellFormednessViolation(r, position[n], m) for r, n, m in found)
    )


# --------------------------------------------------------------------------- #
# Size measure
# --------------------------------------------------------------------------- #


def measure_size(g: GlobalType) -> int:
    """Size of the protocol's synchronous automaton: reachable states plus
    transitions, under full subterm interning.

    Every distinct subterm is one state (structurally equal subtrees count
    once) and contributes one transition per choice branch and one silent
    transition per ``mu`` node and per variable occurrence.
    """
    nodes = _walk(g).nodes
    return len(nodes) + sum(
        len(n.branches) if isinstance(n, Choice) else isinstance(n, (Rec, Var))
        for n in nodes
    )

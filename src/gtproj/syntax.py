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
identifier (``intern_id``), equality and hashing go through that identifier,
and the automata layers use it as state identity.  The intern table is
process-global and append-only; nodes are immutable.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

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
    "children",
    "subterms",
    "roles_of",
    "messages_of",
    "binders",
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


def children(g: GlobalType) -> tuple[GlobalType, ...]:
    """Immediate sub-protocols of ``g`` in branch order."""
    if isinstance(g, Choice):
        return tuple(b.continuation for b in g.branches)
    if isinstance(g, Rec):
        return (g.body,)
    return ()


def subterms(g: GlobalType) -> tuple[GlobalType, ...]:
    """All distinct subterms of ``g`` in first-occurrence (pre-order) order.

    Shared subtrees are listed once; the walk is linear in the number of
    distinct nodes, so heavily shared protocols stay cheap.
    """
    seen: set[int] = set()
    out: list[GlobalType] = []
    stack = [g]
    while stack:
        node = stack.pop()
        if node.intern_id in seen:
            continue
        seen.add(node.intern_id)
        out.append(node)
        stack.extend(reversed(children(node)))
    return tuple(out)


def roles_of(g: GlobalType) -> tuple[Role, ...]:
    """Every role of ``g`` in first-occurrence (pre-order) order:
    each choice contributes its sender, then per branch the receiver."""
    seen_nodes: set[int] = set()
    order: dict[Role, None] = {}

    def walk(node: GlobalType) -> None:
        if node.intern_id in seen_nodes:
            return
        seen_nodes.add(node.intern_id)
        if isinstance(node, Choice):
            order.setdefault(node.sender)
            for b in node.branches:
                order.setdefault(b.receiver)
                walk(b.continuation)
        elif isinstance(node, Rec):
            walk(node.body)

    walk(g)
    return tuple(order)


def messages_of(g: GlobalType) -> tuple[Message, ...]:
    """Every message label of ``g`` in first-occurrence order."""
    seen_nodes: set[int] = set()
    order: dict[Message, None] = {}

    def walk(node: GlobalType) -> None:
        if node.intern_id in seen_nodes:
            return
        seen_nodes.add(node.intern_id)
        if isinstance(node, Choice):
            for b in node.branches:
                order.setdefault(b.message)
                walk(b.continuation)
        elif isinstance(node, Rec):
            walk(node.body)

    walk(g)
    return tuple(order)


def binders(g: GlobalType) -> dict[str, Rec]:
    """Map each recursion variable to its unique binder.

    Raises ``ValueError`` if two binders use the same variable name (the
    parser never produces this; hand-built ASTs must avoid it too, since a
    shadowed name would make the variable-to-binder edges ambiguous).
    """
    out: dict[str, Rec] = {}
    for node in subterms(g):
        if isinstance(node, Rec):
            if node.var in out:
                raise ValueError(f"duplicate binder for recursion variable {node.var!r}")
            out[node.var] = node
    return out


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


_TOKEN_RE = re.compile(
    r"""
      (?P<skip>\s+|//[^\n]*)
    | (?P<arrow>->)
    | (?P<mu>mu(?![A-Za-z0-9_]))
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<zero>0)
    | (?P<punct>[{}.,:+])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

#: token kinds: "ident", "zero", "arrow", "mu", "{", "}", ".", ",", ":", "+", "eof"
_Token = tuple[str, str]  # (kind, text)


def _error_at(text: str, offset: int, message: str) -> ParseError:
    """A :class:`ParseError` at character ``offset`` of ``text``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _tokenize(text: str) -> list[_Token]:
    """One scan of ``text``; tokens carry no position (see
    :meth:`_Parser.error`), and the last one is ``("eof", "")``."""
    tokens: list[_Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        tok = m.group()
        if kind == "punct":
            kind = tok
        elif kind == "bad":
            raise _error_at(text, m.start(), f"unexpected character {tok!r}")
        append((kind, tok))
    append(("eof", ""))
    return tokens


class _Parser:
    __slots__ = ("text", "tokens", "pos", "bound_names")

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.bound_names: set[str] = set()

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        index = self.pos
        tok = self.next()
        if tok[0] != kind:
            raise self.error(
                f"expected {what}, found {tok[1]!r}" if tok[1] else f"expected {what}",
                index,
            )
        return tok

    def error(self, message: str, index: int) -> ParseError:
        """A :class:`ParseError` at token ``index``, found by scanning the
        text again; the end-of-input token sits at the end of the last
        token, or at the start of a text without tokens."""
        offset = 0
        scan = (m for m in _TOKEN_RE.finditer(self.text) if m.lastgroup != "skip")
        for i, m in enumerate(scan):
            if i == index:
                offset = m.start()
                break
            offset = m.end()
        return _error_at(self.text, offset, message)

    # -- grammar ----------------------------------------------------------- #

    def parse_type(self, scope: frozenset[str]) -> GlobalType:
        start = self.pos
        kind, text = self.peek()
        if kind == "zero":
            self.next()
            return END
        if kind == "mu":
            self.next()
            var = self.expect("ident", "a recursion variable after 'mu'")[1]
            if var in scope:
                raise self.error(
                    f"recursion variable {var!r} shadows an enclosing binder", start
                )
            if var in self.bound_names:
                # Interned variable nodes are shared, so a name may belong to
                # only one binder in the whole protocol.
                raise self.error(
                    f"recursion variable {var!r} reuses the name of another binder",
                    start,
                )
            self.bound_names.add(var)
            self.expect(".", "'.' after the recursion variable")
            body = self.parse_type(scope | {var})
            return Rec(var, body)
        if kind == "+":
            self.next()
            self.expect("{", "'{' after '+'")
            sender, branch = self.parse_exchange(scope)
            branches = [branch]
            while self.peek()[0] == ",":
                self.next()
                index = self.pos
                s2, b2 = self.parse_exchange(scope)
                if s2 != sender:
                    raise self.error(
                        f"choice branches must share one sender "
                        f"(found {s2.name!r} after {sender.name!r})",
                        index,
                    )
                branches.append(b2)
            self.expect("}", "',' or '}' in choice")
            return Choice(sender, tuple(branches))
        if kind == "ident":
            if self.peek(1)[0] == "arrow":
                sender, branch = self.parse_exchange(scope)
                return Choice(sender, (branch,))
            self.next()
            return Var(text)
        raise self.error("expected a protocol term", self.pos)

    def parse_exchange(self, scope: frozenset[str]) -> tuple[Role, Branch]:
        tok = self.peek()
        if tok[0] != "ident" or self.peek(1)[0] != "arrow":
            raise self.error("expected a message exchange 'p->q:m . ...'", self.pos)
        sender = Role(self.next()[1])
        self.next()  # arrow
        receiver = Role(self.expect("ident", "a receiver role after '->'")[1])
        self.expect(":", "':' after the receiver")
        label = Message(self.expect("ident", "a message label after ':'")[1])
        self.expect(".", "'.' after the message label")
        continuation = self.parse_type(scope)
        return sender, Branch(receiver, label, continuation)


def parse_global_type(text: str) -> GlobalType:
    """Parse protocol text into a :class:`GlobalType`.

    Raises :class:`ParseError` (with line/column) on malformed input,
    including choices whose branches disagree on the sender and recursion
    binders that shadow an enclosing binder or reuse another binder's name.
    Unbound variables and the other structural rules are *not* parse
    errors; they are reported by :func:`validate_well_formedness`.
    """
    parser = _Parser(text)
    g = parser.parse_type(frozenset())
    parser.expect("eof", "end of input")
    return g


# --------------------------------------------------------------------------- #
# Printing
# --------------------------------------------------------------------------- #


def _branch_text(sender: Role, b: Branch, indent: int) -> str:
    return f"{sender}->{b.receiver}:{b.message} . {_pretty(b.continuation, indent)}"


def _pretty(g: GlobalType, indent: int) -> str:
    if isinstance(g, End):
        return "0"
    if isinstance(g, Var):
        return g.var
    if isinstance(g, Rec):
        return f"mu {g.var} . {_pretty(g.body, indent)}"
    assert isinstance(g, Choice)
    if len(g.branches) == 1:
        return _branch_text(g.sender, g.branches[0], indent)
    pad = " " * (indent + 2)
    body = ",\n".join(pad + _branch_text(g.sender, b, indent + 2) for b in g.branches)
    return "+ {\n" + body + "\n" + " " * indent + "}"


def pretty(g: GlobalType) -> str:
    """Canonical multi-line rendering; one branch per line, 2-space indent.

    ``parse_global_type(pretty(g)) == g`` for every protocol ``g``.
    """
    return _pretty(g, 0)


def pretty_inline(g: GlobalType) -> str:
    """Single-line rendering, used in diagnostics and machine labels."""
    if isinstance(g, End):
        return "0"
    if isinstance(g, Var):
        return g.var
    if isinstance(g, Rec):
        return f"mu {g.var} . {pretty_inline(g.body)}"
    assert isinstance(g, Choice)
    if len(g.branches) == 1:
        b = g.branches[0]
        return f"{g.sender}->{b.receiver}:{b.message} . {pretty_inline(b.continuation)}"
    body = ", ".join(
        f"{g.sender}->{b.receiver}:{b.message} . {pretty_inline(b.continuation)}"
        for b in g.branches
    )
    return "+ { " + body + " }"


# --------------------------------------------------------------------------- #
# Well-formedness
# --------------------------------------------------------------------------- #


class WellFormednessRule(Enum):
    """The structural rules a protocol must satisfy."""

    BRANCH_DISTINCTNESS = "BranchDistinctness"
    SELF_COMMUNICATION = "SelfCommunication"
    UNGUARDED = "Unguarded"
    UNBOUND_VARIABLE = "UnboundVariable"


@dataclass(frozen=True, slots=True)
class WellFormednessViolation:
    """One broken rule; ``location`` is the intern id of the offending node."""

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
      it.  An unused binder is accepted.
    """
    found: list[WellFormednessViolation] = []
    reported: set[tuple[WellFormednessRule, int, str]] = set()
    visited: set[tuple[int, frozenset[str]]] = set()

    def report(rule: WellFormednessRule, node: GlobalType, message: str) -> None:
        key = (rule, node.intern_id, message)
        if key not in reported:
            reported.add(key)
            found.append(WellFormednessViolation(rule, node.intern_id, message))

    def walk(node: GlobalType, scope: frozenset[str]) -> None:
        key = (node.intern_id, scope)
        if key in visited:
            return
        visited.add(key)
        if isinstance(node, Choice):
            seen_pairs: set[tuple[Role, Message]] = set()
            for b in node.branches:
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
                walk(b.continuation, scope)
        elif isinstance(node, Rec):
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
            walk(node.body, scope | {node.var})
        elif isinstance(node, Var):
            if node.var not in scope:
                report(
                    WellFormednessRule.UNBOUND_VARIABLE,
                    node,
                    f"recursion variable {node.var!r} is not bound here",
                )

    walk(g, frozenset())
    return WellFormednessReport(tuple(found))


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
    subs = subterms(g)
    edges = 0
    for node in subs:
        if isinstance(node, Choice):
            edges += len(node.branches)
        elif isinstance(node, (Rec, Var)):
            edges += 1
    return len(subs) + edges

"""Parser, printer, structural rules, and the size measure."""
from __future__ import annotations

import re
import sys
import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import gtproj
from gtproj import (
    Branch,
    Choice,
    END,
    End,
    IllFormedProtocolError,
    Message,
    ParseError,
    Rec,
    Role,
    Var,
    WellFormednessRule,
    build_gaut,
    exchange,
    generate_gk,
    measure_size,
    messages_of,
    parse_global_type,
    pretty,
    pretty_inline,
    roles_of,
    subterms,
    validate_well_formedness,
)
from gtproj.corpus import entries, load, names

from .reference import reference_parse
from .strategies import MESSAGES, ROLES, random_global_type, rename_consistently

P, Q, R = Role("p"), Role("q"), Role("r")

global_types = st.builds(
    lambda seed: random_global_type(Random(seed)), st.integers(0, 2**32 - 1)
)


# --------------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------------- #


def test_parse_end():
    assert parse_global_type("0") is END


def test_parse_single_exchange():
    g = parse_global_type("p->q:m . 0")
    assert isinstance(g, Choice)
    assert g.sender == P
    assert g.branches == (Branch(Q, Message("m"), END),)


def test_parse_multi_branch_choice():
    g = parse_global_type("+ { p->q:o . 0, p->r:m . 0 }")
    assert isinstance(g, Choice)
    assert g.sender == P
    assert [(b.receiver, b.message) for b in g.branches] == [
        (Q, Message("o")),
        (R, Message("m")),
    ]


def test_parse_recursion_and_variable():
    g = parse_global_type("mu t . p->q:m . t")
    assert isinstance(g, Rec)
    assert g.var == "t"
    body = g.body
    assert isinstance(body, Choice)
    assert body.branches[0].continuation == Var("t")


def test_parse_comments_and_whitespace():
    text = """
    // a protocol
    + {
      p->q:o . 0,  // first
      p->q:m . 0
    }
    """
    g = parse_global_type(text)
    assert isinstance(g, Choice) and len(g.branches) == 2


def test_parse_interns_shared_subterms():
    g = parse_global_type("+ { p->q:o . r->q:b . 0, p->q:m . r->q:b . 0 }")
    assert isinstance(g, Choice)
    first, second = (b.continuation for b in g.branches)
    assert first == second and first.intern_id == second.intern_id
    # the shared continuation appears once among the distinct subterms
    assert sum(1 for n in subterms(g) if n == first) == 1


def test_parse_same_text_yields_equal_terms():
    text = "mu t . + { p->q:o . t, p->q:m . 0 }"
    assert parse_global_type(text) == parse_global_type(text)


@pytest.mark.parametrize(
    "text, fragment, line, column",
    [
        ("", "expected a protocol term", 1, 1),
        ("p->q:m", "'.' after the message label", 1, 7),
        ("p->q:", "a message label after ':'", 1, 6),
        ("p->q:m . 0 extra", "end of input", 1, 12),
        ("mu t . mu t . p->q:m . t", "shadows an enclosing binder", 1, 8),
        (
            "+ { p->q:a . mu t . p->q:m . t, p->q:b . mu t . p->q:m . t }",
            "reuses the name of another binder",
            1,
            42,
        ),
        ("+ { p->q:o . 0,\n  r->q:b . 0 }", "must share one sender", 2, 3),
        ("+ { 0 }", "expected a message exchange", 1, 5),
        ("p->q:m . 0 ; 0", "unexpected character ';'", 1, 12),
        ("mu . p->q:m . 0", "a recursion variable after 'mu'", 1, 4),
    ],
)
def test_parse_errors_with_position(text, fragment, line, column):
    with pytest.raises(ParseError) as exc:
        parse_global_type(text)
    assert fragment in str(exc.value)
    assert exc.value.lineno == line
    assert exc.value.offset == column


def test_unbound_variable_parses_but_is_ill_formed():
    g = parse_global_type("p->q:m . t")
    report = validate_well_formedness(g)
    assert not report.ok
    assert {v.rule for v in report.violations} == {WellFormednessRule.UNBOUND_VARIABLE}


# --------------------------------------------------------------------------- #
# Printing
# --------------------------------------------------------------------------- #


def test_pretty_round_trips_corpus():
    for name in names():
        g = load(name)
        assert parse_global_type(pretty(g)) == g
        assert parse_global_type(pretty_inline(g)) == g
        assert eval(repr(g), vars(gtproj)) == g


@settings(max_examples=60, deadline=None)
@given(global_types)
def test_pretty_round_trips_random(g):
    assert parse_global_type(pretty(g)) == g
    assert parse_global_type(pretty_inline(g)) == g


def test_pretty_inline_shapes():
    g = parse_global_type("+ { p->q:o . 0, p->q:m . 0 }")
    assert pretty_inline(g) == "+ { p->q:o . 0, p->q:m . 0 }"
    assert pretty_inline(parse_global_type("mu t . p->q:m . t")) == "mu t . p->q:m . t"


# --------------------------------------------------------------------------- #
# Structural rules
# --------------------------------------------------------------------------- #


def _single_rule(text: str) -> set[WellFormednessRule]:
    return {v.rule for v in validate_well_formedness(parse_global_type(text)).violations}


def test_branch_distinctness_violation():
    assert _single_rule("+ { p->q:m . 0, p->q:m . p->q:a . 0 }") == {
        WellFormednessRule.BRANCH_DISTINCTNESS
    }


def test_self_communication_violation():
    assert _single_rule("p->p:m . 0") == {WellFormednessRule.SELF_COMMUNICATION}


def test_unguarded_recursion_violation():
    assert _single_rule("mu t . t") == {WellFormednessRule.UNGUARDED}


def test_unguarded_through_nested_binder():
    assert _single_rule("mu t . mu u . t") == {WellFormednessRule.UNGUARDED}


def test_unbound_variable_violation():
    assert _single_rule("t") == {WellFormednessRule.UNBOUND_VARIABLE}


def test_unused_binder_is_well_formed():
    assert validate_well_formedness(parse_global_type("mu t . p->q:m . 0")).ok


def test_guarded_recursion_is_well_formed():
    assert validate_well_formedness(parse_global_type("mu t . p->q:m . t")).ok


def test_corpus_is_well_formed():
    for entry in entries():
        assert validate_well_formedness(entry.load()).ok, entry.name


@settings(max_examples=60, deadline=None)
@given(global_types)
def test_random_types_are_well_formed(g):
    assert validate_well_formedness(g).ok


def test_violations_carry_location_and_message():
    report = validate_well_formedness(parse_global_type("p->p:m . t"))
    rules = {v.rule for v in report.violations}
    assert rules == {
        WellFormednessRule.SELF_COMMUNICATION,
        WellFormednessRule.UNBOUND_VARIABLE,
    }
    for v in report.violations:
        assert isinstance(v.location, int)
        assert v.message


def test_violation_locations_are_subterm_positions():
    parse_global_type(pretty(generate_gk(4)))
    g = parse_global_type("p->p:m . t")
    report = validate_well_formedness(g)
    assert [v.location for v in report.violations] == [0, 1]
    assert [subterms(g)[v.location] for v in report.violations] == [g, Var("t")]


def test_reused_binder_names_break_a_rule_of_their_own():
    loop_b = Rec("t", exchange(P, Q, Message("b"), Var("t")))
    loop_d = Rec("t", exchange(P, Q, Message("d"), Var("t")))
    message = "recursion variable 't' has more than one binder"
    two_loops = Choice(P, (Branch(Q, Message("a"), loop_b), Branch(Q, Message("c"), loop_d)))
    nested = Rec("t", exchange(P, Q, Message("a"), loop_b))
    for g, location in ((two_loops, 4), (nested, 2)):
        report = validate_well_formedness(g)
        assert [(v.rule, v.location, v.message) for v in report.violations] == [
            (WellFormednessRule.DUPLICATE_BINDER, location, message)
        ]
    # one binder reached along two paths is one node
    shared = Choice(P, (Branch(Q, Message("a"), loop_b), Branch(Q, Message("c"), loop_b)))
    assert validate_well_formedness(shared).ok


# --------------------------------------------------------------------------- #
# Roles, messages, subterms
# --------------------------------------------------------------------------- #


def test_roles_in_first_occurrence_order():
    g = load("g_s")
    assert roles_of(g) == (P, Q, R)


def test_messages_of():
    assert set(messages_of(load("g_s"))) == {Message("o"), Message("m")}


def test_subterms_are_distinct_and_include_the_root():
    g = load("g_r")
    nodes = subterms(g)
    assert nodes[0] is g
    assert len({n.intern_id for n in nodes}) == len(nodes)
    assert END in nodes


def test_end_instances_are_interchangeable():
    assert End() == END
    assert End().intern_id == END.intern_id


# --------------------------------------------------------------------------- #
# Size measure
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "name, size",
    [("g_r", 12), ("g_r_prime", 16), ("g_s", 8), ("g_s_prime", 6)],
)
def test_measure_size_hand_counted(name, size):
    assert measure_size(load(name)) == size


def test_measure_size_counts_reachable_states_plus_transitions():
    # mu t . p->q:o . t: three reachable nodes (Rec, Choice, Var) and three
    # edges (unfold, exchange, loop back); the End state is unreachable.
    assert measure_size(parse_global_type("mu t . p->q:o . t")) == 6
    assert measure_size(END) == 1  # one state, no transitions


@settings(max_examples=60, deadline=None)
@given(global_types)
def test_measure_size_invariant_under_renaming(g):
    renamed = rename_consistently(
        g,
        {Role("p"): Role("z"), Role("z"): Role("p")},
        {Message("a"): Message("y"), Message("y"): Message("a")},
    )
    assert measure_size(renamed) == measure_size(g)


#: Names the parser cannot read back as one name.
_UNREADABLE_NAMES = ["", "a b", "mu", "0", "1a", "x-y", "p\n", "\u00e9t\u00e9"]


@pytest.mark.parametrize("name", _UNREADABLE_NAMES)
def test_role_names_are_names_the_parser_reads(name):
    with pytest.raises(ValueError, match="role name"):
        Role(name)


@pytest.mark.parametrize("name", _UNREADABLE_NAMES)
def test_message_labels_are_names_the_parser_reads(name):
    with pytest.raises(ValueError, match="message label"):
        Message(name)


@pytest.mark.parametrize("name", _UNREADABLE_NAMES)
def test_variables_are_names_the_parser_reads(name):
    with pytest.raises(ValueError, match="recursion variable"):
        Var(name)


@pytest.mark.parametrize("name", _UNREADABLE_NAMES)
def test_binders_are_names_the_parser_reads(name):
    with pytest.raises(ValueError, match="recursion variable"):
        Rec(name, END)


def test_any_accepted_name_prints_and_parses_back():
    g = Rec("mu_", exchange(Role("_p"), Role("Mu"), Message("mu2"), Var("mu_")))
    assert parse_global_type(pretty(g)) == g
    assert parse_global_type(pretty_inline(g)) == g


def test_exchange_helper_builds_single_branch_choice():
    g = exchange(P, Q, Message("m"), END)
    assert g == parse_global_type("p->q:m . 0")


# --------------------------------------------------------------------------- #
# References: the recursive front end the one-scan parser and the stack
# walks replaced, kept to pin their results and error messages
# --------------------------------------------------------------------------- #

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


def _error_at(text, offset, message):
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        tok = m.group()
        if kind == "punct":
            kind = tok
        elif kind == "bad":
            raise _error_at(text, m.start(), f"unexpected character {tok!r}")
        tokens.append((kind, tok))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.bound_names = set()

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind, what):
        index = self.pos
        tok = self.next()
        if tok[0] != kind:
            raise self.error(
                f"expected {what}, found {tok[1]!r}" if tok[1] else f"expected {what}",
                index,
            )
        return tok

    def error(self, message, index):
        offset = 0
        scan = (m for m in _TOKEN_RE.finditer(self.text) if m.lastgroup != "skip")
        for i, m in enumerate(scan):
            if i == index:
                offset = m.start()
                break
            offset = m.end()
        return _error_at(self.text, offset, message)

    def parse_type(self, scope):
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

    def parse_exchange(self, scope):
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


def _reference_parse(text):
    parser = _Parser(text)
    g = parser.parse_type(frozenset())
    parser.expect("eof", "end of input")
    return g


def _reference_subterms(g):
    seen_nodes, order = set(), []

    def walk(node):
        if node.intern_id in seen_nodes:
            return
        seen_nodes.add(node.intern_id)
        order.append(node)
        if isinstance(node, Choice):
            for b in node.branches:
                walk(b.continuation)
        elif isinstance(node, Rec):
            walk(node.body)

    walk(g)
    return tuple(order)


def _reference_roles_of(g):
    seen_nodes, order = set(), {}

    def walk(node):
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


def _reference_messages_of(g):
    seen_nodes, order = set(), {}

    def walk(node):
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


def _reference_violations(g):
    found, reported, visited, binders = [], set(), set(), {}

    def report(rule, node, message):
        key = (rule, node.intern_id, message)
        if key not in reported:
            reported.add(key)
            found.append(key)

    def walk(node, scope):
        key = (node.intern_id, scope)
        if key in visited:
            return
        visited.add(key)
        if isinstance(node, Choice):
            seen_pairs = set()
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
            if binders.setdefault(node.var, node.intern_id) != node.intern_id:
                report(
                    WellFormednessRule.DUPLICATE_BINDER,
                    node,
                    f"recursion variable {node.var!r} has more than one binder",
                )
            spine = node.body
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
    position = {n.intern_id: i for i, n in enumerate(_reference_subterms(g))}
    # the order of discovery, stably sorted by location
    return sorted(
        ((rule, position[node], message) for rule, node, message in found),
        key=lambda v: v[1],
    )


def _reference_branch_text(sender, b, indent):
    return f"{sender}->{b.receiver}:{b.message} . {_reference_pretty(b.continuation, indent)}"


def _reference_pretty(g, indent=0):
    if isinstance(g, End):
        return "0"
    if isinstance(g, Var):
        return g.var
    if isinstance(g, Rec):
        return f"mu {g.var} . {_reference_pretty(g.body, indent)}"
    if len(g.branches) == 1:
        return _reference_branch_text(g.sender, g.branches[0], indent)
    pad = " " * (indent + 2)
    body = ",\n".join(
        pad + _reference_branch_text(g.sender, b, indent + 2) for b in g.branches
    )
    return "+ {\n" + body + "\n" + " " * indent + "}"


def _reference_pretty_inline(g):
    if isinstance(g, End):
        return "0"
    if isinstance(g, Var):
        return g.var
    if isinstance(g, Rec):
        return f"mu {g.var} . {_reference_pretty_inline(g.body)}"
    if len(g.branches) == 1:
        b = g.branches[0]
        return f"{g.sender}->{b.receiver}:{b.message} . {_reference_pretty_inline(b.continuation)}"
    body = ", ".join(
        f"{g.sender}->{b.receiver}:{b.message} . {_reference_pretty_inline(b.continuation)}"
        for b in g.branches
    )
    return "+ { " + body + " }"


# --------------------------------------------------------------------------- #
# The one-scan parser and the stack walks against the references
# --------------------------------------------------------------------------- #


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return (exc.msg, exc.lineno, exc.offset)


def _violations(g):
    return [(v.rule, v.location, v.message) for v in validate_well_formedness(g).violations]


def _assert_parses_alike(text):
    got, want = _outcome(parse_global_type, text), _outcome(_reference_parse, text)
    if isinstance(want, tuple):
        assert got == want, text
    else:
        assert isinstance(got, type(want)) and got.intern_id == want.intern_id, text
        assert _violations(got) == _reference_violations(want), text


def _checked_gaut(g, want):
    """``build_gaut(g)``, or ``None`` when it raises; it must raise exactly
    when the reference report ``want`` has violations, and with that report."""
    try:
        a = build_gaut(g)
    except IllFormedProtocolError as exc:
        assert [(v.rule, v.location, v.message) for v in exc.report.violations] == want, g
        return None
    assert not want, g
    return a


def _assert_walks_alike(g):
    assert subterms(g) == _reference_subterms(g)
    assert roles_of(g) == _reference_roles_of(g)
    assert messages_of(g) == _reference_messages_of(g)
    want = _reference_violations(g)
    assert _violations(g) == want
    a = _checked_gaut(g, want)
    if a is not None:
        assert a.roles == roles_of(g)
        assert a.size == measure_size(g)
    assert pretty(g) == _reference_pretty(g)
    assert pretty_inline(g) == _reference_pretty_inline(g)


def _known_protocols():
    yield from (load(name) for name in names())
    yield from (generate_gk(k) for k in range(1, 7))


def test_parser_matches_the_reference_on_known_protocols():
    for g in _known_protocols():
        _assert_parses_alike(pretty(g))
        _assert_parses_alike(pretty_inline(g))
    for entry in entries():
        _assert_parses_alike(entry.text())


#: Characters the mutations draw from: every token's characters, stray
#: ones, and the gaps.
_MUTATION_ALPHABET = "pqrst abm0+{},.:->/ \n\t;1_"


def _mutations(text, rng, count):
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        c = rng.choice(_MUTATION_ALPHABET)
        if edit == "insert":
            yield text[:i] + c + text[i:]
        elif edit == "delete":
            yield text[:i] + text[i + 1 :]
        else:
            yield text[:i] + c + text[i + 1 :]


def test_parser_matches_the_reference_on_random_and_mutated_texts():
    rng, edits = Random(3), Random(4)
    for _ in range(400):
        text = pretty(random_global_type(rng))
        _assert_parses_alike(text)
        for mutated in _mutations(text, edits, 20):
            _assert_parses_alike(mutated)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   \n\t  ",
        "// only a comment",
        "// one\n  // two\n",
        "0 // the end",
        "mu t . mu t . p->q:m . t",
        "mu t . mu t p->q:m . t",
        "mu t . p->q:a . mu t . 0",
        "+ { p->q:a . mu t . p->q:m . t, p->q:b . mu t . p->q:m . t }",
        "+ { p->q:o . 0,\n  r->q:b . 0 }",
        "+ { p->q:o . 0,\n  r->q:b . mu . 0 }",
        "+ { p->q:o . 0, r->q:b . x y }",
        "+ { p->q:o . 0, r->q:b . 0, s->q:c . 0 }",
        "p->q:mu . 0",
        "mu->q:m . 0",
        "p->mu:m . 0",
        "mu mu . 0",
        "mux . 0",
        "p->q:m . 0 extra",
        "p->q:m . 0 }",
        "0 0",
        "t t",
        "p // sender\n -> q // receiver\n : m // label\n . 0",
        "p->q:m // the dot is in the comment . 0",
        "p->q:m . 0 ; 0",
        "p->q;m . 0",
        "p-q:m . 0",
        "p->q:m . 1",
        "p->q:m . 0 /",
        "+ { p->q:m . x } ;",
        "p->q:m . 0",
        "p->q:m .\r\n0",
        "p->",
        "p->q",
        "p->q:",
        "p->q:m",
        "p->q:m .",
        "+",
        "+ {",
        "+ { p->q:m . 0",
        "+ { p->q:m . 0,",
        "+ { p->q:m . 0 p->q:n . 0 }",
        "+ p->q:m . 0",
        "+ { 0 }",
        "+ { t }",
        "mu",
        "mu t",
        "mu t .",
        "mu . p->q:m . 0",
        "{",
        "}",
        ",",
        ".",
        "->",
        ":",
        "0abc",
        "_a->b_:c1 . 0",
        "alice->bob . 0",
        "alice->bob:hello 0",
        "alice -> bob : hello . + { bob->carol:ok . 0, bob->carol:no end }",
        "mu loop loop",
        "p -> q : m . + { q -> r : a . 0 , q -> p : b . t }",
    ],
)
def test_parser_matches_the_reference_on_edge_cases(text):
    _assert_parses_alike(text)


# --------------------------------------------------------------------------- #
# Repeated choice text against the parser that scans every piece
# --------------------------------------------------------------------------- #


def _assert_parses_as_reference_parse(text):
    got, want = _outcome(parse_global_type, text), _outcome(reference_parse, text)
    assert type(got) is type(want) and got == want, text


#: Characters the repeat mutations insert: every piece's characters, the
#: keyword's and a comment's, and a newline.
_REPEAT_ALPHABET = "+{},.:0 pqmu->/\n"


def _repeat_mutation(text, rng):
    """``text`` with one character deleted or inserted, or with a span
    written twice in a row."""
    i = rng.randrange(len(text) + 1)
    edit = rng.randrange(3)
    if edit == 0:
        return text[:i] + text[i + 1 :]
    if edit == 1:
        return text[:i] + rng.choice(_REPEAT_ALPHABET) + text[i:]
    j = rng.randrange(i, len(text) + 1)
    return text[:j] + text[i:j] + text[j:]


def test_parser_matches_reference_parse_on_repeated_text():
    texts = [entry.text() for entry in entries()]
    for k in range(1, 11):
        texts += [pretty(generate_gk(k)), pretty_inline(generate_gk(k))]
    for seed, count, max_size in ((7, 3000, 25), (11, 1000, 8)):
        rng = Random(seed)
        texts += [pretty(random_global_type(rng, max_size=max_size)) for _ in range(count)]
    rng = Random(5)
    texts += [_repeat_mutation(rng.choice(texts), rng) for _ in range(5000)]
    for text in texts:
        _assert_parses_as_reference_parse(text)


_COPY = "+ {\n  p->r:c . t,\n  // a comment\n  p->r:d . 0\n}"


@pytest.mark.parametrize(
    "text",
    [
        # a comment inside, a free variable, unbound and bound
        f"+ {{ q->p:a . {_COPY}, q->p:b . {_COPY} }}",
        f"mu t . + {{ q->p:a . {_COPY}, q->p:b . {_COPY} }}",
        # the second copy's senders disagree
        "+ { q->p:a . + { p->r:c . 0, p->r:d . 0 },\n"
        "    q->p:b . + { p->r:c . 0, s->r:d . 0 } }",
        # a stray '}' after the copy, and a copy cut short
        "+ { q->p:a . + { p->r:c . 0, p->r:d . 0 }, q->p:b . + { p->r:c . 0, p->r:d . 0 } } }",
        "+ { q->p:a . + { p->r:c . 0, p->r:d . 0 }, q->p:b . + { p->r:c . 0, p->r:d . 0 }",
        "+ { q->p:a . + { p->r:c . 0, p->r:d . 0 }, q->p:b . + { p->r:c . 0, p->r:d . 0 } }"
        " + { p->r:c . 0, p->r:d . 0 }",
    ],
)
def test_parser_matches_reference_parse_on_hand_made_repeats(text):
    _assert_parses_as_reference_parse(text)


def test_a_repeated_binder_fails_at_the_second_copy():
    copy = "+ { p->r:c . mu t . p->r:m . t, p->r:d . 0 }"
    text = f"+ {{ q->p:a . {copy},\n  q->p:b . {copy} }}"
    with pytest.raises(ParseError, match="reuses the name of another binder") as exc:
        parse_global_type(text)
    assert _outcome(reference_parse, text) == (exc.value.msg, exc.value.lineno, exc.value.offset)
    assert (exc.value.lineno, exc.value.offset) == (2, text.rindex("mu") - text.index("\n"))


def test_a_repeated_choice_is_not_scanned_again(monkeypatch):
    import gtproj.syntax as syntax

    starts = []
    scan = syntax._SCAN.match

    class Recording:
        def match(self, text, pos):
            starts.append(pos)
            return scan(text, pos)

    monkeypatch.setattr(syntax, "_SCAN", Recording())
    copy = "+ { p->r:c . 0, p->r:d . t }"
    text = f"+ {{ q->p:a . {copy}, q->p:b . {copy} }}"
    second = text.rindex(copy)
    g = parse_global_type(text)
    assert g == reference_parse(text)
    assert g.branches[0].continuation is g.branches[1].continuation
    # the second copy's opening is read, then the scan resumes after it
    assert not [pos for pos in starts if second + len("+ { p->r:c .") < pos < second + len(copy)]


def _missing_choices(n):
    """``C_0`` where ``C_i = + { p->q:a . C_{i+1}, p->q:b . + { p->q:a . 0,
    p->q:c_i . 0 } }``: each inner choice opens like the choice before it
    and differs from it right after the opening."""
    a, b = Message("a"), Message("b")
    g = END
    for i in reversed(range(n)):
        inner = Choice(P, (Branch(Q, a, END), Branch(Q, Message(f"c{i}"), END)))
        g = Choice(P, (Branch(Q, a, g), Branch(Q, b, inner)))
    return g


def test_choices_that_open_alike_and_differ_parse_in_linear_time():
    g = _missing_choices(2000)
    text = pretty(g)
    start = time.perf_counter()
    assert parse_global_type(text) == g
    assert time.perf_counter() - start < 3.0


def test_comparisons_read_at_most_about_twice_the_text(monkeypatch):
    import gtproj.syntax as syntax

    read = []
    compare = syntax._common

    def common(text, start, end, at):
        read.append(compare(text, start, end, at))
        return read[-1]

    monkeypatch.setattr(syntax, "_common", common)
    # two chains that differ at their innermost choice only: each level of
    # the second shares a prefix with the whole first chain as long as the
    # level, so unbounded comparisons would read about 2000**2 / 2 heads
    chains = [
        "+ { p->q:a . " * 2000 + f"0, p->q:{last} . 0" + " }, p->q:b . 0" * 1999 + " }"
        for last in ("x", "y")
    ]
    text = f"+ {{ q->p:a . {chains[0]}, q->p:b . {chains[1]} }}"
    assert parse_global_type(text) == reference_parse(text)
    assert sum(read) <= 3 * len(text)


@pytest.mark.parametrize(
    "text",
    [
        " " * 10**5 + "?",
        "p" + " \n\t" * 10**5 + "-",
        "p->q:m" + "\n  " * 10**5 + ": x",
        "mu t" + " " * 10**5 + "x",
        "/" * 10**5 + "\n?",
        "p -> " + "// a // b //\n  " * 10**4 + "?",
    ],
    ids=["gap", "gap-after-name", "gap-in-head", "gap-after-binder", "slashes", "comments"],
)
def test_scanner_fails_fast_after_a_long_gap(text):
    start = time.perf_counter()
    _assert_parses_alike(text)
    with pytest.raises(ParseError):
        parse_global_type(text)
    assert time.perf_counter() - start < 2.0


def test_scanner_patterns_compile_before_python_3_11():
    # Possessive quantifiers and atomic groups need Python 3.11; the package
    # supports 3.10.
    import gtproj.syntax as syntax

    for pattern in (syntax._SCAN.pattern, syntax._TOKEN.pattern):
        assert not re.search(r"(?<!\\)[*+?}]\+|\(\?>", pattern)


def test_walks_match_the_references():
    for g in _known_protocols():
        _assert_walks_alike(g)
    rng = Random(7)
    for _ in range(1000):
        _assert_walks_alike(random_global_type(rng, max_size=25))
    for text in (
        "+ { p->p:m . t, p->p:m . u, p->q:a . mu x . x }",
        "mu t . + { p->q:a . p->p:b . t, p->q:a . mu u . u, p->r:c . v }",
    ):
        _assert_walks_alike(parse_global_type(text))
    # hand-built: two binders of one variable, and a variable met first
    # outside its binder
    loop = Rec("t", exchange(P, Q, Message("a"), Var("t")))
    other = Rec("t", exchange(P, Q, Message("b"), Var("t")))
    _assert_walks_alike(Choice(R, (Branch(P, Message("c"), loop), Branch(Q, Message("d"), other))))
    _assert_walks_alike(Choice(R, (Branch(P, Message("c"), Var("t")), Branch(Q, Message("d"), loop))))


def _replace(g, old, new):
    """``g`` with every occurrence of ``old`` replaced by ``new``."""
    if g == old:
        return new
    if isinstance(g, Rec):
        return Rec(g.var, _replace(g.body, old, new))
    if isinstance(g, Choice):
        return Choice(
            g.sender,
            tuple(
                Branch(b.receiver, b.message, _replace(b.continuation, old, new))
                for b in g.branches
            ),
        )
    return g


def _api_mutation(g, rng):
    """``g`` with one subterm ``t`` replaced through the constructors, so
    that one rule may break: a free variable, a rebinding (a duplicate
    binder), an unguarded binder, a duplicate branch, a self-send, or ``t``
    shared under a new binder and outside it."""
    nodes = subterms(g)
    t = rng.choice(nodes)
    names = sorted({n.var for n in nodes if isinstance(n, (Rec, Var))} | {"x"})
    v, m = rng.choice(names), rng.choice(MESSAGES)
    kind = rng.randrange(6)
    if kind == 0:
        new = Var(v)
    elif kind == 1:
        new = Rec(v, t)
    elif kind == 2:
        new = Rec(v, Var(v) if rng.random() < 0.5 else Rec("y", Var(v)))
    elif kind == 3 and isinstance(t, Choice):
        b = rng.choice(t.branches)
        new = Choice(t.sender, (*t.branches, Branch(b.receiver, b.message, END)))
    elif kind == 4:
        sender = t.sender if isinstance(t, Choice) else rng.choice(ROLES)
        new = exchange(sender, sender, m, t)
    else:
        new = Choice(P, (Branch(Q, m, t), Branch(R, m, Rec(v, exchange(P, Q, m, t)))))
    return _replace(g, t, new)


def test_the_one_pass_matches_the_reference_on_protocols_built_through_the_api():
    rng, edits = Random(29), Random(31)
    broken = dict.fromkeys(WellFormednessRule, 0)
    several = 0
    for _ in range(1500):
        g = random_global_type(rng, max_size=12)
        for _ in range(edits.randint(1, 3)):
            g = _api_mutation(g, edits)
            want = _reference_violations(g)
            assert _violations(g) == want, g
            _checked_gaut(g, want)
            for rule, _, _ in want:
                broken[rule] += 1
            several += len({location for _, location, _ in want}) > 1
    # every rule is broken, and reports that span several nodes are common
    assert min(broken.values()) >= 200, broken
    assert several >= 300


# --------------------------------------------------------------------------- #
# Deep input under the default recursion limit
# --------------------------------------------------------------------------- #


def test_front_end_handles_a_long_chain():
    n = 10**5
    assert sys.getrecursionlimit() < n
    text = " . ".join(f"p->q:m{i % 10}" for i in range(n)) + " . 0"
    g = parse_global_type(text)
    assert validate_well_formedness(g).ok
    assert roles_of(g) == (P, Q)
    assert len(messages_of(g)) == 10
    assert pretty_inline(g) == text
    assert repr(g) == f"parse_global_type({text!r})"
    assert parse_global_type(pretty(g)) == g


def test_front_end_handles_deep_nesting():
    depth = 3000
    assert sys.getrecursionlimit() < depth
    text = "".join(f"mu t{i} . + {{ p->q:a . " for i in range(depth)) + "0"
    text += "".join(f", p->q:b . t{i} }}" for i in reversed(range(depth)))
    g = parse_global_type(text)
    assert validate_well_formedness(g).ok
    assert roles_of(g) == (P, Q)
    assert pretty_inline(g) == text
    assert repr(g) == f"parse_global_type({text!r})"
    assert parse_global_type(pretty(g)) == g


def _shared_tails(n, last):
    """``n`` nested binders ``t1 .. tn`` that all share one tail of ``n``
    exchanges ending in ``last``: binder ``ti`` offers ``a``, going on to
    binder ``t(i+1)`` (the tail after the last), or ``b``, the tail."""
    tail = last
    for _ in range(n):
        tail = exchange(P, Q, Message("c"), tail)
    g = tail
    for i in reversed(range(1, n + 1)):
        g = Rec(f"t{i}", Choice(P, (Branch(Q, Message("a"), g), Branch(Q, Message("b"), tail))))
    return g


def test_well_formedness_of_a_tail_shared_under_many_binders_is_linear():
    n = 5000
    assert sys.getrecursionlimit() < n
    closed, open_ = _shared_tails(n, END), _shared_tails(n, Var(f"t{n}"))
    start = time.perf_counter()
    assert validate_well_formedness(closed).ok
    # t5000 is bound on the path through every binder and free on the
    # paths that leave earlier, so its one node is reported once
    report = validate_well_formedness(open_)
    elapsed = time.perf_counter() - start
    assert [(v.rule, v.location, v.message) for v in report.violations] == [
        (
            WellFormednessRule.UNBOUND_VARIABLE,
            subterms(open_).index(Var(f"t{n}")),
            f"recursion variable 't{n}' is not bound here",
        )
    ]
    assert elapsed < 3.0, elapsed

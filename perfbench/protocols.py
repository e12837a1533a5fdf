"""Benchmark inputs: seeded random protocols and seeded renamings.

The protocol *shapes* of every workload are fixed (fixed base seeds below);
``--seed`` only draws the role and message names.  The names keep the sort
order of the originals (``p < q < r < s``, ``a < b < c < d < e``), so every
ordering the checker uses -- label sorting, role order, intern-id order --
is the same under every seed, and so is the set of inputs on which a known
program fault fires.  A seed therefore changes the text, the string hashes
and the dictionaries built from them, but not the amount of work or the
count of failed operations.
"""
from __future__ import annotations

import string
from random import Random

from gtproj import END, Branch, Choice, End, GlobalType, Message, Rec, Role, Var

#: Role and message names of the random generator before renaming.
ROLES = tuple(Role(name) for name in ("p", "q", "r", "s"))
MESSAGES = tuple(Message(label) for label in ("a", "b", "c", "d", "e"))


def sorted_letters(rng: Random, count: int) -> tuple[str, ...]:
    """``count`` distinct lowercase letters in increasing order."""
    return tuple(sorted(rng.sample(string.ascii_lowercase, count)))


class Renaming:
    """An order-preserving renaming of roles and message labels."""

    def __init__(self, roles: dict[str, str], messages: dict[str, str]) -> None:
        self.roles = {Role(a): Role(b) for a, b in roles.items()}
        self.messages = {Message(a): Message(b) for a, b in messages.items()}

    @staticmethod
    def draw(seed: int, roles: tuple[str, ...], messages: tuple[str, ...]) -> "Renaming":
        """Map the sorted ``roles`` and ``messages`` onto seeded sorted letters."""
        rng = Random(seed)
        return Renaming(
            dict(zip(sorted(roles), sorted_letters(rng, len(roles)))),
            dict(zip(sorted(messages), sorted_letters(rng, len(messages)))),
        )

    def role(self, r: Role) -> Role:
        return self.roles.get(r, r)

    def message(self, m: Message) -> Message:
        return self.messages.get(m, m)

    def apply(self, g: GlobalType) -> GlobalType:
        """Rebuild ``g`` with every role and label renamed (shared subtrees
        are rebuilt once, so this stays linear on heavily shared ASTs)."""
        done: dict[GlobalType, GlobalType] = {}

        def go(node: GlobalType) -> GlobalType:
            hit = done.get(node)
            if hit is not None:
                return hit
            if isinstance(node, (End, Var)):
                out = node
            elif isinstance(node, Rec):
                out = Rec(node.var, go(node.body))
            else:
                assert isinstance(node, Choice)
                out = Choice(
                    self.role(node.sender),
                    tuple(
                        Branch(self.role(b.receiver), self.message(b.message), go(b.continuation))
                        for b in node.branches
                    ),
                )
            done[node] = out
            return out

        return go(g)


def random_global_type(
    rng: Random, max_size: int, roles: tuple[Role, ...], messages: tuple[Message, ...]
) -> GlobalType:
    """A random well-formed protocol with at most ``max_size`` exchanges.

    The same generator as the test suite's ``random_global_type``, kept here
    so that the benchmark's inputs do not change when the tests do.  It
    draws from ``rng`` by position only, so renamed ``roles`` and
    ``messages`` (in the same order) give the renamed protocol of the same
    shape.
    """
    budget = rng.randint(1, max_size)
    counter = [0]

    def go(guarded: frozenset[str], unguarded: frozenset[str]) -> GlobalType:
        nonlocal budget
        options = ["end"]
        if budget >= 1:
            options += ["choice"] * 4
        if budget >= 2:
            options.append("rec")
        if guarded:
            options.append("var")
        kind = rng.choice(options)
        if kind == "end":
            return END
        if kind == "var":
            return Var(rng.choice(sorted(guarded)))
        if kind == "rec":
            budget -= 1
            counter[0] += 1
            name = f"t{counter[0]}"
            return Rec(name, go(guarded, unguarded | {name}))
        sender = rng.choice(roles)
        receivers = [r for r in roles if r != sender]
        pairs = [(r, m) for r in receivers for m in messages]
        width = min(rng.randint(1, 3), budget, len(pairs))
        budget -= width
        chosen = rng.sample(pairs, width)
        # Crossing an exchange guards every recursion variable in scope.
        inner_guarded = guarded | unguarded
        return Choice(
            sender,
            tuple(
                Branch(receiver, message, go(inner_guarded, frozenset()))
                for receiver, message in chosen
            ),
        )

    return go(frozenset(), frozenset())


def random_protocols(base_seed: int, count: int, max_size: int, seed: int) -> list[GlobalType]:
    """``count`` random protocols, shaped by ``Random(base_seed)`` and named
    by ``seed``."""
    renaming = Renaming.draw(
        seed, tuple(r.name for r in ROLES), tuple(m.label for m in MESSAGES)
    )
    rng = Random(base_seed)
    roles = tuple(renaming.role(r) for r in ROLES)
    messages = tuple(renaming.message(m) for m in MESSAGES)
    return [random_global_type(rng, max_size, roles, messages) for _ in range(count)]

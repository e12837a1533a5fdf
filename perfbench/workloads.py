"""The three workloads: their inputs, their operation, and their checks.

Each ``prepare_*`` function is the workload's set-up.  It returns one
*round*: the list of operations a run repeats whole, in a fixed order, and
a judge that checks the outcomes of one round after the timed part is over.
Operations call the program through module attributes (``syntax.x``, not a
name bound at import), so that the spans of :mod:`tracing` see them.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from gtproj import Csm, GlobalType, Role, corpus, generate_gk, pretty
from gtproj import cli, oracle, projection, syntax, validity

from checks import explains, fifo_replay, mixed_states
from protocols import Renaming, random_protocols

#: k values of ``gk-scaling``; q's machine for gk(k) has 2**(k+1)+2 states.
GK_KS = (8, 9, 10, 11, 12)
#: ``random-mix``: shapes from Random(MIX_SEED), as in ROADMAP item 1.
MIX_SEED, MIX_COUNT, MIX_MAX_SIZE = 7, 3000, 25
#: ``oracle-fidelity``: corpus and gk(1..3) at ORACLE_DEPTH, random
#: protocols at ORACLE_RANDOM_DEPTH; channel bound 4 throughout.
ORACLE_SEED, ORACLE_COUNT, ORACLE_MAX_SIZE = 11, 150, 8
ORACLE_GK_KS = (1, 2, 3)
ORACLE_DEPTH, ORACLE_RANDOM_DEPTH, CHANNEL_BOUND = 14, 8, 4

#: Program faults counted as failed operations rather than as wrong answers.
FAULT_COUNTEREXAMPLE = "counterexample-does-not-execute"
FAULT_MIXED = "accepted-with-mixed-states"


@dataclass
class Judgement:
    """What the checks found in one round of outcomes."""

    faults: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.faults.values())

    def fault(self, kind: str) -> None:
        self.faults[kind] = self.faults.get(kind, 0) + 1


@dataclass
class Round:
    """One round of a workload: operations, their labels, and the judge."""

    ops: list[Callable[[], Any]]
    labels: list[str]
    judge: Callable[[list[Any]], Judgement]
    notes: dict[str, Any] = field(default_factory=dict)
    #: What of an outcome must repeat exactly in every round.
    key: Callable[[Any], Any] = lambda outcome: outcome


def _machines(g: GlobalType) -> dict:
    _, table = projection.build_projections(g)
    return {role: machine for role, (_, machine) in table.items()}


def _renamed_gk(k: int, seed: int) -> tuple[GlobalType, Role]:
    """gk(k) under the seed's renaming, and the renamed role q."""
    renaming = Renaming.draw(seed, ("p", "q", "r"), ("a", "b", "d", "l", "s"))
    return renaming.apply(generate_gk(k)), renaming.role(Role("q"))


# --------------------------------------------------------------------------- #
# gk-scaling: `gtproj gen-gk k | gtproj check --format json -`, in-process
# --------------------------------------------------------------------------- #


def _cli_check(text: str) -> tuple[int, str]:
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run_command(cli.RunConfig(command="check", source="-", fmt="json"))
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _without_timings(outcome: tuple[int, str]) -> tuple[int, dict]:
    code, output = outcome
    payload = json.loads(output)
    del payload["timings"]
    return code, payload


def prepare_gk_scaling(seed: int) -> Round:
    texts, q = [], None
    for k in GK_KS:
        g, q = _renamed_gk(k, seed)
        texts.append(pretty(g) + "\n")

    def judge(outcomes: list[tuple[int, str]]) -> Judgement:
        verdict = Judgement()
        for k, (code, output) in zip(GK_KS, outcomes):
            payload = json.loads(output)
            if code != 0 or not payload["verdict"]["implementable"]:
                verdict.problems.append(f"gk({k}): not implementable (exit {code})")
                continue
            states = {row["role"]: row["states"] for row in payload["projections"]}
            if states.get(q.name, 0) < 2**k:
                verdict.problems.append(
                    f"gk({k}): role {q} has {states.get(q.name)} states, fewer than 2**{k}"
                )
        return verdict

    return Round(
        ops=[lambda t=t: _cli_check(t) for t in texts],
        labels=[f"gk({k})" for k in GK_KS],
        judge=judge,
        notes={"text_bytes": dict(zip(GK_KS, map(len, texts)))},
        key=_without_timings,
    )


# --------------------------------------------------------------------------- #
# random-mix: parse + check_implementability on many small protocols
# --------------------------------------------------------------------------- #


def _parse_and_check(text: str) -> tuple:
    g = syntax.parse_global_type(text)
    try:
        v = validity.check_implementability(g)
    except validity.InternalError as exc:
        return ("InternalError", str(exc))
    if v.implementable:
        return (True,)
    return (False, v.violation.kind, v.counterexample)


def prepare_random_mix(seed: int) -> Round:
    texts = [pretty(g) for g in random_protocols(MIX_SEED, MIX_COUNT, MIX_MAX_SIZE, seed)]
    labels = [f"random #{i}" for i in range(len(texts))]
    expected: dict[int, corpus.CorpusEntry] = {}
    for entry in corpus.entries():
        expected[len(texts)] = entry
        texts.append(entry.text())
        labels.append(entry.name)

    def judge(outcomes: list[tuple]) -> Judgement:
        verdict = Judgement()
        for i, outcome in enumerate(outcomes):
            entry = expected.get(i)
            if entry is not None:
                got = (outcome[0], outcome[1] if outcome[0] is False else None)
                if got != (entry.implementable, entry.violation):
                    verdict.problems.append(f"{entry.name}: verdict {got[0]}, kind {got[1]}")
            if outcome[0] == "InternalError":
                if outcome[1].startswith("counterexample does not execute"):
                    verdict.fault(FAULT_COUNTEREXAMPLE)
                else:
                    verdict.problems.append(f"{labels[i]}: InternalError {outcome[1]}")
                continue
            g = syntax.parse_global_type(texts[i])
            machines = _machines(g)
            if outcome[0] is True:
                if mixed_states(machines):
                    verdict.fault(FAULT_MIXED)
                continue
            trace = outcome[2]
            stuck = fifo_replay(machines, trace)
            if stuck is not None:
                verdict.problems.append(f"{labels[i]}: counterexample does not run: {stuck}")
            elif explains(g, trace):
                verdict.problems.append(f"{labels[i]}: a protocol run explains the counterexample")
        return verdict

    return Round(
        ops=[lambda t=t: _parse_and_check(t) for t in texts],
        labels=labels,
        judge=judge,
    )


# --------------------------------------------------------------------------- #
# oracle-fidelity: bounded_fidelity_check on machines built in set-up
# --------------------------------------------------------------------------- #


def prepare_oracle_fidelity(seed: int) -> Round:
    # (label, protocol, depth, known answer or None, checker verdict or None)
    cases: list[tuple[str, GlobalType, int, Any, Any]] = []
    for entry in corpus.entries():
        cases.append((entry.name, entry.load(), ORACLE_DEPTH, entry.implementable, None))
    for k in ORACLE_GK_KS:
        cases.append((f"gk({k})", _renamed_gk(k, seed)[0], ORACLE_DEPTH, True, None))
    crashed = 0
    for i, g in enumerate(
        random_protocols(ORACLE_SEED, ORACLE_COUNT, ORACLE_MAX_SIZE, seed)
    ):
        try:
            accepted = validity.check_implementability(g).implementable
        except validity.InternalError:
            accepted, crashed = None, crashed + 1
        cases.append((f"random #{i}", g, ORACLE_RANDOM_DEPTH, None, accepted))
    systems = [Csm(_machines(g)) for _, g, _, _, _ in cases]

    def judge(outcomes: list[tuple[bool, Any]]) -> Judgement:
        verdict = Judgement()
        for (label, _, _, known, accepted), system, (ok, obligation) in zip(
            cases, systems, outcomes
        ):
            if known is not None and ok != known:
                verdict.problems.append(
                    f"{label}: oracle says {'pass' if ok else obligation}, answer is "
                    f"{'implementable' if known else 'not implementable'}"
                )
            elif accepted and not ok:
                if mixed_states(system.machines):
                    verdict.fault(FAULT_MIXED)
                else:
                    verdict.problems.append(f"{label}: accepted, but oracle finds {obligation}")
        return verdict

    def op(g: GlobalType, system: Csm, depth: int) -> tuple[bool, Any]:
        report = oracle.bounded_fidelity_check(g, system, depth, channel_bound=CHANNEL_BOUND)
        return report.ok, report.obligation

    return Round(
        ops=[
            lambda g=g, s=s, d=d: op(g, s, d)
            for (_, g, d, _, _), s in zip(cases, systems)
        ],
        labels=[label for label, *_ in cases],
        judge=judge,
        notes={"checker_crashed_in_setup": crashed},
    )


WORKLOADS: dict[str, Callable[[int], Round]] = {
    "gk-scaling": prepare_gk_scaling,
    "random-mix": prepare_random_mix,
    "oracle-fidelity": prepare_oracle_fidelity,
}

"""Command-line interface.

Commands::

    gtproj check SOURCE      decide implementability; exit 0 yes / 1 no
    gtproj project SOURCE    emit the per-role machines (text, json, dot)
    gtproj simulate SOURCE   explore the machines' asynchronous executions
    gtproj bench             run check over the bundled corpus
    gtproj gen-gk K          emit a protocol whose machine needs 2**K states

``SOURCE`` is a file path or ``-`` for stdin.  Exit codes: 0 success (for
``check``: implementable), 1 not implementable, 2 usage, parse, or
well-formedness error, 3 internal error (any other exception, reported in
one line: a bug, never a verdict).  Parsing, printing and the structural
checks use no recursion, so deep protocols do not reach a recursion limit
there.
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import click

from . import __version__, corpus
from .automata import SyncAutomaton, format_trace
from .csm import Csm, explore
from .oracle import generate_gk
from .projection import SubsetMachine, build_projections, machine_to_dot
from .syntax import (
    IllFormedProtocolError,
    ParseError,
    Role,
    parse_global_type,
    pretty,
    pretty_inline,
)
from .validity import (
    InternalError,
    ReceiveViolationDetails,
    SendViolationDetails,
    ValidityViolation,
    Verdict,
    ViolationKind,
    check_implementability,
)

__all__ = ["RunConfig", "run_command", "main"]


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, decoupled from the argument parser."""

    command: str  # "check" | "project" | "simulate" | "bench" | "gen-gk"
    source: Optional[str] = None  # path or "-" for stdin
    k: Optional[int] = None  # gen-gk only
    channel_bound: int = 4
    depth: int = 14
    fmt: str = "text"  # "text" | "json" | "dot"
    all_violations: bool = False
    out: Optional[str] = None


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def _read_source(source: str) -> tuple[str, str]:
    """Return (protocol name, text) read as UTF-8; ``-`` is stdin.

    Stdin's bytes are decoded here (strictly, as UTF-8), not by the stream's
    own error handler; a stream without bytes underneath (a ``StringIO``)
    is read as text.  A leading byte-order mark, which some editors write,
    is dropped.
    """
    name = _source_name(source)
    if source == "-":
        buffer = getattr(sys.stdin, "buffer", None)
        if buffer is None:
            return name, sys.stdin.read().removeprefix("\ufeff")
        return name, buffer.read().decode("utf-8-sig")
    return name, Path(source).read_text(encoding="utf-8-sig")


def _source_name(source: str) -> str:
    """The protocol name of ``source``: ``stdin`` for ``-``, else the file's
    stem.  Diagnostics name the protocol by it."""
    return "stdin" if source == "-" else Path(source).stem


def _emit(payload: str, out: Optional[str]) -> None:
    """Print ``payload`` or write it to ``out``, ending it with a newline
    unless it is empty."""
    if payload and not payload.endswith("\n"):
        payload += "\n"
    if out is None:
        # a stream made for this call: click.echo's own default is cached per
        # sys.stdout object and keeps every redirected stdout alive
        click.echo(payload, nl=False, file=click.get_text_stream("stdout"))
    else:
        Path(out).write_text(payload, encoding="utf-8")


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def _violation_json(v: ValidityViolation) -> dict:
    body: dict = {
        "kind": v.kind.value,
        "role": v.role.name,
        "state": [pretty_inline(m) for m in v.state],
    }
    if v.kind is ViolationKind.SEND_VALIDITY:
        d: SendViolationDetails = v.details  # type: ignore[assignment]
        body["transition"] = str(d.transition[1])
        body["unable"] = [pretty_inline(m) for m in d.missing]
    else:
        d2: ReceiveViolationDetails = v.details  # type: ignore[assignment]
        body["first"] = str(d2.transition_one[1])
        body["second"] = str(d2.transition_two[1])
        body["witness_subterm"] = pretty_inline(d2.witness_subterm)
        body["available"] = str(d2.offending_event)
    return body


def _projection_rows(projections: dict[Role, SubsetMachine]) -> list[dict]:
    return [
        {
            "role": role.name,
            "states": len(m.masks),
            "transitions": sum(map(len, m.arcs)),
            "final_states": sum(1 for mask in m.masks if mask & m.final_mask),
        }
        for role, m in sorted(projections.items(), key=lambda item: item[0].name)
    ]


def _machine_json(role: Role, m: SubsetMachine) -> dict:
    """One machine of ``project --format json``, read off its tables."""
    events = [str(e) for e in m.events]
    return {
        "role": role.name,
        "initial": 0,
        "states": [
            {"number": i, "members": list(s.ids), "final": bool(mask & m.final_mask)}
            for i, (s, mask) in enumerate(zip(m.states, m.masks))
        ],
        "transitions": [
            {"source": i, "event": events[r], "target": t}
            for i, moves in enumerate(m.arcs)
            for r, t in moves
        ],
    }


def _verdict_json(verdict: Verdict, all_violations: bool) -> dict:
    body: dict = {"implementable": verdict.implementable}
    if verdict.violation is not None:
        body["violation"] = _violation_json(verdict.violation)
    if verdict.counterexample is not None:
        body["counterexample"] = format_trace(verdict.counterexample)
    if all_violations and verdict.violations:
        body["violations"] = [_violation_json(v) for v in verdict.violations]
    return body


def _protocol_json(name: str, a: SyncAutomaton) -> dict:
    """The ``protocol`` object of the json output, read off the automaton."""
    return {"name": name, "size": a.size, "roles": [r.name for r in a.roles]}


def _check_payload(
    name: str, text_value: str, all_violations: bool
) -> tuple[dict, Verdict]:
    """Parse, project and check ``text_value``, timing each stage."""
    t0 = time.perf_counter()
    g = parse_global_type(text_value)
    t1 = time.perf_counter()
    projections = build_projections(g)
    t2 = time.perf_counter()
    verdict = check_implementability(
        g, all_violations=all_violations, _projections=projections
    )
    t3 = time.perf_counter()
    payload = {
        "protocol": _protocol_json(name, projections[0]),
        "verdict": _verdict_json(verdict, all_violations),
        "projections": _projection_rows(verdict.projections)
        if verdict.projections is not None
        else [],
        "timings": {
            "parse_ms": _ms(t1 - t0), "project_ms": _ms(t2 - t1), "check_ms": _ms(t3 - t2)
        },
    }
    return payload, verdict


def _render_check_text(payload: dict, verdict: Verdict, all_violations: bool) -> str:
    info = payload["protocol"]
    lines = [
        f"protocol {info['name']}: roles {', '.join(info['roles']) or '(none)'}; "
        f"size {info['size']}"
    ]
    if verdict.implementable:
        lines.append("verdict: implementable")
        for row in payload["projections"]:
            lines.append(
                f"projection {row['role']}: {row['states']} states, "
                f"{row['transitions']} transitions, {row['final_states']} final"
            )
    else:
        lines.append("verdict: not implementable")
        shown = verdict.violations if all_violations else (verdict.violation,)
        for i, violation in enumerate(shown, start=1):
            prefix = f"violation {i}: " if len(shown) > 1 else "violation: "
            lines.append(prefix + violation.describe())
        lines.append(f"counterexample: {format_trace(verdict.counterexample)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #


def _cmd_check(cfg: RunConfig) -> int:
    payload, verdict = _check_payload(*_read_source(cfg.source or "-"), cfg.all_violations)
    payload["schema"] = 1
    if cfg.fmt == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg.out)
    else:
        _emit(_render_check_text(payload, verdict, cfg.all_violations), cfg.out)
    return 0 if verdict.implementable else 1


def _cmd_project(cfg: RunConfig) -> int:
    name, text_value = _read_source(cfg.source or "-")
    a, table = build_projections(parse_global_type(text_value))
    machines = {role: machine for role, (_, machine) in table.items()}
    roles = sorted(machines, key=lambda r: r.name)
    if cfg.fmt == "dot":
        blocks = [machine_to_dot(machines[r], name=f"{name}_{r.name}") for r in roles]
        _emit("\n".join(blocks), cfg.out)
    elif cfg.fmt == "json":
        payload = {
            "schema": 1,
            "protocol": _protocol_json(name, a),
            "machines": [_machine_json(r, machines[r]) for r in roles],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg.out)
    else:
        lines = []
        for role in roles:
            m = machines[role]
            final = [bool(mask & m.final_mask) for mask in m.masks]
            lines.append(
                f"machine for role {role}: {len(m.masks)} states, "
                f"{sum(map(len, m.arcs))} transitions, {sum(final)} final"
            )
            for i, (state, moves) in enumerate(zip(m.states, m.arcs)):
                marks = ["initial"] if i == 0 else []
                if final[i]:
                    marks.append("final")
                suffix = f" ({', '.join(marks)})" if marks else ""
                lines.append(f"  s{i} = {state}{suffix}")
                for r, t in moves:
                    lines.append(f"    s{i} --{m.events[r]}--> s{t}")
        _emit("\n".join(lines or ["no machines: the protocol has no roles"]), cfg.out)
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    name, text_value = _read_source(cfg.source or "-")
    a, table = build_projections(parse_global_type(text_value))
    system = Csm({role: machine for role, (_, machine) in table.items()})
    report = explore(system, channel_bound=cfg.channel_bound, depth=cfg.depth)
    if cfg.fmt == "json":
        payload = {
            "schema": 1,
            "protocol": {"name": name, "roles": [r.name for r in a.roles]},
            "visited": report.visited,
            "deadlocks": [format_trace(trace) for _, trace in report.deadlocks],
            "frontier_cut": report.frontier_cut,
            "channel_bound": cfg.channel_bound,
            "depth": cfg.depth,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg.out)
    else:
        lines = [
            f"protocol {name}: explored {report.visited} configurations "
            f"(channel bound {cfg.channel_bound}, depth {cfg.depth})"
        ]
        for _, trace in report.deadlocks:
            lines.append(f"deadlock after {format_trace(trace)}")
        if not report.deadlocks:
            lines.append("no deadlocks")
        lines.append(f"frontier cut: {'yes' if report.frontier_cut else 'no'}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _cmd_bench(cfg: RunConfig) -> int:
    results = []
    for entry in corpus.entries():
        payload, verdict = _check_payload(entry.name, entry.text(), all_violations=False)
        payload["name"] = entry.name
        results.append((payload, verdict))
    if cfg.fmt == "json":
        body = {"schema": 1, "results": [p for p, _ in results]}
        _emit(json.dumps(body, indent=2, sort_keys=True), cfg.out)
    else:
        lines = [f"{'name':<12} {'verdict':<28} {'size':>4} {'roles':>5} {'ms':>8}"]
        for payload, verdict in results:
            if verdict.implementable:
                label = "implementable"
            else:
                label = f"not impl. ({verdict.violation.kind.value})"
            total = sum(payload["timings"].values())
            lines.append(
                f"{payload['name']:<12} {label:<28} {payload['protocol']['size']:>4} "
                f"{len(payload['protocol']['roles']):>5} {total:>8.2f}"
            )
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _cmd_gen_gk(cfg: RunConfig) -> int:
    _emit(pretty(generate_gk(cfg.k)) + "\n", cfg.out)
    return 0


#: Each command, the formats it renders, and the least value of each of its
#: numeric fields.
_COMMANDS = {
    "check": (_cmd_check, ("text", "json"), {}),
    "project": (_cmd_project, ("text", "json", "dot"), {}),
    "simulate": (_cmd_simulate, ("text", "json"), {"channel_bound": 1, "depth": 0}),
    "bench": (_cmd_bench, ("text", "json"), {}),
    "gen-gk": (_cmd_gen_gk, ("text",), {"k": 1}),
}


def _config_error(cfg: RunConfig) -> Optional[str]:
    """Why ``cfg`` cannot run, or ``None``."""
    if cfg.command not in _COMMANDS:
        return f"unknown command {cfg.command!r}"
    _, formats, least = _COMMANDS[cfg.command]
    if cfg.fmt not in formats:
        return f"{cfg.command} has no {cfg.fmt!r} format"
    for field, low in least.items():
        value = getattr(cfg, field)
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            return f"{cfg.command} needs {field} >= {low}, got {value!r}"
    return None


def _error(message: str, *details: str) -> None:
    """Print ``error: message`` and each detail, indented, to stderr."""
    # a stream made for this call, as in _emit: click.echo(err=True) caches
    # one per sys.stderr object and keeps every redirected stderr alive
    stream = click.get_text_stream("stderr")
    click.echo(f"error: {message}", file=stream)
    for line in details:
        click.echo(f"  {line}", file=stream)


def run_command(cfg: RunConfig) -> int:
    """Execute one invocation; returns the process exit code.

    Exit codes: 0 success (``check``: implementable), 1 ``check`` on a
    protocol that is not implementable, 2 unreadable/malformed/ill-formed
    input or bad usage (an unknown command, a format the command does not
    render, ``k``, ``channel_bound`` or ``depth`` not an int in range), 3
    internal error (:class:`InternalError`, or any other exception a command
    raises, such as a ``RecursionError`` in a later stage: the front end
    does not recurse), reported in one line without a traceback.
    """
    problem = _config_error(cfg)
    if problem is not None:
        _error(problem)
        return 2
    handler = _COMMANDS[cfg.command][0]
    try:
        return handler(cfg)
    except ParseError as exc:
        _error(str(exc))
        return 2
    except IllFormedProtocolError as exc:
        name = _source_name(cfg.source or "-")
        _error(
            "protocol is not well-formed",
            *(f"{name}: {v.rule.value}: {v.message}" for v in exc.report.violations),
        )
        return 2
    except OSError as exc:
        _error(str(exc))
        return 2
    except UnicodeDecodeError as exc:  # only the source text is decoded
        source = "stdin" if cfg.source == "-" else cfg.source
        _error(f"{source} is not {exc.encoding} text ({exc})")
        return 2
    except InternalError as exc:
        _error(f"internal error: {exc}")
        return 3
    except Exception as exc:  # a bug: exit 1 would read as a verdict
        _error(f"internal error: {exc!r}")
        return 3


# --------------------------------------------------------------------------- #
# click wiring
# --------------------------------------------------------------------------- #


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__)
def main() -> None:
    """Decide implementability of multiparty protocols and emit per-role
    machines."""


_OUT = click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)


def _format(command: str) -> Callable:
    """The ``--format`` option of ``command``, offering what it renders."""
    choice = click.Choice(_COMMANDS[command][1])
    return click.option("--format", "fmt", type=choice, default="text", show_default=True)


# Each command's parameters are named after the RunConfig fields they set.


@main.command()
@click.argument("source")
@_format("check")
@click.option("--all", "all_violations", is_flag=True, help="Report every violation.")
@_OUT
def check(**options: Any) -> None:
    """Decide implementability of the protocol in SOURCE ('-' = stdin)."""
    sys.exit(run_command(RunConfig(command="check", **options)))


@main.command()
@click.argument("source")
@_format("project")
@_OUT
def project(**options: Any) -> None:
    """Emit the per-role machines of the protocol in SOURCE."""
    sys.exit(run_command(RunConfig(command="project", **options)))


@main.command()
@click.argument("source")
@click.option("--bound", "channel_bound", type=click.IntRange(min=1), default=4,
              show_default=True, help="Channel capacity during exploration.")
@click.option("--depth", type=click.IntRange(min=0), default=14, show_default=True,
              help="Maximum trace length during exploration.")
@_format("simulate")
@_OUT
def simulate(**options: Any) -> None:
    """Explore the asynchronous executions of SOURCE's machines."""
    sys.exit(run_command(RunConfig(command="simulate", **options)))


@main.command()
@_format("bench")
@_OUT
def bench(**options: Any) -> None:
    """Run check over the bundled corpus and report sizes and timings."""
    sys.exit(run_command(RunConfig(command="bench", **options)))


@main.command("gen-gk")
@click.argument("k", type=click.IntRange(min=1))
@_OUT
def gen_gk(**options: Any) -> None:
    """Emit a protocol whose role-q machine needs at least 2**K states."""
    sys.exit(run_command(RunConfig(command="gen-gk", **options)))


if __name__ == "__main__":
    main()

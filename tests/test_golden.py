"""Byte-identity gate: CLI output on the corpus and gk(3) against goldens.

Everything renders in this process.  A state's number is its position in
the pre-order of the protocol's walk, so the output does not depend on what
the process parsed before; ``test_output_ignores_what_was_parsed_before``
holds that.  ``check --format json`` output drops ``timings``, the only part
that varies between runs.  Besides the CLI, the gate covers the DOT renders
of each protocol's synchronous automaton and per-role views, the
verdicts on the first 1000 seeded random draws, and the bounded fidelity
reports on the corpus, gk(1..3) and seeded random draws.

Regenerate the goldens (only for a deliberate output change, and say so in
CHANGES.md) from the repository root with::

    PYTHONPATH=src python -m tests.test_golden
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner

import gtproj
from gtproj import END, generate_gk, parse_global_type, pretty, syntax
from gtproj.cli import main
from gtproj.corpus import entries, names, text

from .strategies import random_global_type

GOLDEN = Path(__file__).resolve().parent / "golden"

#: (golden file suffix, CLI arguments before the source path)
OUTPUTS = (
    ("check.json", ("check", "--format", "json")),
    ("project.json", ("project", "--format", "json")),
    ("project.dot", ("project", "--format", "dot")),
)

#: ``check --all``, every violation and not only the first; it has its own
#: test so that the parametrized ids of ``OUTPUTS`` stay stable.
ALL_VIOLATIONS = ("check.all.json", ("check", "--all", "--format", "json"))

#: The text formats, with their own test for the same reason.
TEXT_OUTPUTS = (
    ("check.txt", ("check", "--format", "text")),
    ("project.txt", ("project", "--format", "text")),
)

#: (golden file suffix, a script that prints a render of the protocol ``g``)
RENDERS = (
    ("sync.dot", "print(sync_to_dot(build_gaut(g)), end='')"),
    (
        "views.dot",
        "a = build_gaut(g)\n"
        "print('\\n'.join(nfa_to_dot(erase(a, r)) for r in roles_of(g)), end='')",
    ),
)

#: One line per draw of ``random_global_type(Random(7), max_size=25)``:
#: the verdict and, for a rejection, the violation's kind, role and state
#: and the counterexample.
DRAWS = ("random7.draws.txt", 1000)
DRAWS_SCRIPT = """
rng = Random(7)
for draw in range(%d):
    v = check_implementability(random_global_type(rng, max_size=25))
    if v.implementable:
        print(draw, "implementable")
    else:
        x = v.violation
        print(draw, "rejected", x.kind.value, x.role, x.state,
              format_trace(v.counterexample))
"""

#: One line per ``bounded_fidelity_check`` of a protocol against its own
#: machines at channel bound 3: the input's name, ``ok``, the obligation,
#: the witness (``-`` for none) and the two counts.  Depth 10 for the
#: corpus, gk(1..3) and the first 150 draws of
#: ``random_global_type(Random(11), max_size=8)``; depth 8 for the first
#: 1000 draws of ``random_global_type(Random(7), max_size=25)``.
FIDELITY = "fidelity.txt"
FIDELITY_SCRIPT = """
def report(name, g, depth):
    c = Csm({role: m for role, (_, m) in build_projections(g)[1].items()})
    f = bounded_fidelity_check(g, c, depth, channel_bound=3)
    witness = "-" if f.witness is None else format_trace(f.witness)
    print(name, f.ok, f.obligation, witness, f.run_prefixes_checked,
          f.csm_traces_checked)

for entry in entries():
    report(entry.name, entry.load(), 10)
for k in range(1, 4):
    report(f"gk{k}", generate_gk(k), 10)
rng = Random(11)
for draw in range(150):
    report(f"random11/{draw}", random_global_type(rng, max_size=8), 10)
rng = Random(7)
for draw in range(1000):
    report(f"random7/{draw}", random_global_type(rng, max_size=25), 8)
"""


def protocols() -> dict[str, str]:
    """Name -> source text of every protocol the gate covers."""
    cases = {name: text(name) for name in names()}
    cases["gk3"] = pretty(generate_gk(3)) + "\n"
    return cases


def run_script(script: str, **names: object) -> str:
    """What ``script`` prints, run with the public names of ``gtproj`` and
    ``names`` in scope."""
    scope = {name: getattr(gtproj, name) for name in gtproj.__all__}
    scope.update(names)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(script, scope)
    return out.getvalue()


def render(path: Path, args: tuple[str, ...]) -> str:
    """One CLI invocation on ``path``."""
    done = CliRunner().invoke(main, [*args, str(path)])
    assert done.exit_code in (0, 1), done.output
    if args[0] == "check" and "json" in args:
        doc = json.loads(done.stdout)
        doc.pop("timings")
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return done.stdout


def render_script(path: Path, script: str) -> str:
    """What ``script`` prints about the protocol ``g`` parsed from ``path``."""
    g = parse_global_type(path.read_text(encoding="utf-8"))
    return run_script(script, g=g)


def render_draws(count: int) -> str:
    return run_script(
        DRAWS_SCRIPT % count, Random=Random, random_global_type=random_global_type
    )


def render_fidelity() -> str:
    return run_script(
        FIDELITY_SCRIPT,
        Random=Random,
        entries=entries,
        random_global_type=random_global_type,
    )


def cases() -> list[tuple[str, str, tuple[str, ...]]]:
    return [(name, suffix, args) for name in protocols() for suffix, args in OUTPUTS]


@pytest.mark.parametrize(("name", "suffix", "args"), cases())
def test_cli_output_matches_golden(name, suffix, args, tmp_path):
    path = tmp_path / f"{name}.gt"
    path.write_text(protocols()[name])
    assert render(path, args) == (GOLDEN / f"{name}.{suffix}").read_text()


@pytest.mark.parametrize("name", list(protocols()))
def test_check_all_matches_golden(name, tmp_path):
    suffix, args = ALL_VIOLATIONS
    path = tmp_path / f"{name}.gt"
    path.write_text(protocols()[name])
    assert render(path, args) == (GOLDEN / f"{name}.{suffix}").read_text()


@pytest.mark.parametrize(("name", "suffix", "args"), [
    (name, suffix, args) for name in protocols() for suffix, args in TEXT_OUTPUTS
])
def test_cli_text_matches_golden(name, suffix, args, tmp_path):
    path = tmp_path / f"{name}.gt"
    path.write_text(protocols()[name])
    assert render(path, args) == (GOLDEN / f"{name}.{suffix}").read_text()


@pytest.mark.parametrize(("name", "suffix", "script"), [
    (name, suffix, script) for name in protocols() for suffix, script in RENDERS
])
def test_dot_render_matches_golden(name, suffix, script, tmp_path):
    path = tmp_path / f"{name}.gt"
    path.write_text(protocols()[name])
    assert render_script(path, script) == (GOLDEN / f"{name}.{suffix}").read_text()


def test_random_draws_match_golden():
    suffix, count = DRAWS
    assert render_draws(count) == (GOLDEN / suffix).read_text()


def test_fidelity_reports_match_golden():
    assert render_fidelity() == (GOLDEN / FIDELITY).read_text()


def test_output_ignores_what_was_parsed_before(tmp_path, monkeypatch):
    # A new intern table, as in a process that parsed other protocols first:
    # gk(5), 200 draws and the corpus take the low ids.  Only the terminated
    # protocol keeps its id, the first one, so no new id meets it.
    assert END.intern_id == 0
    monkeypatch.setattr(syntax, "_INTERN", {("end",): 0})
    parse_global_type(pretty(generate_gk(5)))
    rng = Random(7)
    for _ in range(200):
        parse_global_type(pretty(random_global_type(rng, max_size=25)))
    for entry in entries():
        parse_global_type(entry.text())
    for name in ("g_r", "gk3"):
        path = tmp_path / f"{name}.gt"
        path.write_text(protocols()[name])
        for suffix, args in OUTPUTS + (ALL_VIOLATIONS,) + TEXT_OUTPUTS:
            assert render(path, args) == (GOLDEN / f"{name}.{suffix}").read_text()
        for suffix, script in RENDERS:
            assert render_script(path, script) == (GOLDEN / f"{name}.{suffix}").read_text()


def regenerate(workdir: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, source in protocols().items():
        path = workdir / f"{name}.gt"
        path.write_text(source)
        for suffix, args in OUTPUTS + (ALL_VIOLATIONS,) + TEXT_OUTPUTS:
            (GOLDEN / f"{name}.{suffix}").write_text(render(path, args))
        for suffix, script in RENDERS:
            (GOLDEN / f"{name}.{suffix}").write_text(render_script(path, script))
    suffix, count = DRAWS
    (GOLDEN / suffix).write_text(render_draws(count))
    (GOLDEN / FIDELITY).write_text(render_fidelity())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))

"""Byte-identity gate: CLI output on the corpus and gk(3) against goldens.

Each output comes from a fresh interpreter, because the numbers in state
names are intern ids, and those depend on what the process parsed before.
``check --format json`` output drops ``timings``, the only part that varies
between runs.  Besides the CLI, the gate covers the DOT renders of each
protocol's synchronous automaton and per-role views, and the verdicts on the
first 1000 seeded random draws.

Regenerate the goldens (only for a deliberate output change, and say so in
CHANGES.md) from the repository root with::

    PYTHONPATH=src python -m tests.test_golden
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gtproj import generate_gk, pretty
from gtproj.corpus import names, text

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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
from random import Random
from gtproj import check_implementability, format_trace
from tests.strategies import random_global_type
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


def protocols() -> dict[str, str]:
    """Name -> source text of every protocol the gate covers."""
    cases = {name: text(name) for name in names()}
    cases["gk3"] = pretty(generate_gk(3)) + "\n"
    return cases


def run_python(script: str, *argv: str) -> subprocess.CompletedProcess:
    """``script`` run by a new interpreter, from the repository root."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )


def render(path: Path, args: tuple[str, ...]) -> str:
    """One CLI invocation on ``path`` in a new process."""
    done = run_python("from gtproj.cli import main; main()", *args, str(path))
    assert done.returncode in (0, 1), done.stderr
    if args[0] == "check" and "json" in args:
        doc = json.loads(done.stdout)
        doc.pop("timings")
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return done.stdout


def render_script(path: Path, script: str) -> str:
    """What ``script`` prints about the protocol ``g`` parsed from ``path``,
    in a new process."""
    done = run_python(
        "import sys\nfrom gtproj import *\n"
        "g = parse_global_type(open(sys.argv[1]).read())\n" + script,
        str(path),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def render_draws(count: int) -> str:
    done = run_python(DRAWS_SCRIPT % count)
    assert done.returncode == 0, done.stderr
    return done.stdout


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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))

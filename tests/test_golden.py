"""Byte-identity gate: CLI output on the corpus and gk(3) against goldens.

Each output comes from a fresh interpreter, because the numbers in state
names are intern ids, and those depend on what the process parsed before.
``check`` output drops ``timings``, the only part that varies between runs.

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
SRC = Path(__file__).resolve().parents[1] / "src"

#: (golden file suffix, CLI arguments before the source path)
OUTPUTS = (
    ("check.json", ("check", "--format", "json")),
    ("project.json", ("project", "--format", "json")),
    ("project.dot", ("project", "--format", "dot")),
)

#: ``check --all``, every violation and not only the first; it has its own
#: test so that the parametrized ids of ``OUTPUTS`` stay stable.
ALL_VIOLATIONS = ("check.all.json", ("check", "--all", "--format", "json"))


def protocols() -> dict[str, str]:
    """Name -> source text of every protocol the gate covers."""
    cases = {name: text(name) for name in names()}
    cases["gk3"] = pretty(generate_gk(3)) + "\n"
    return cases


def render(path: Path, args: tuple[str, ...]) -> str:
    """One CLI invocation on ``path`` in a new process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", "from gtproj.cli import main; main()", *args, str(path)],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode in (0, 1), done.stderr
    if args[0] == "check":
        doc = json.loads(done.stdout)
        doc.pop("timings")
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
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


def regenerate(workdir: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, source in protocols().items():
        path = workdir / f"{name}.gt"
        path.write_text(source)
        for suffix, args in OUTPUTS + (ALL_VIOLATIONS,):
            (GOLDEN / f"{name}.{suffix}").write_text(render(path, args))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))

"""The command-line interface end to end."""
from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import weakref

import pytest
from click.testing import CliRunner

from gtproj import (
    Csm,
    SubsetState,
    ViolationKind,
    bounded_fidelity_check,
    build_projections,
    check_implementability,
    cli,
    generate_gk,
    pretty,
    syntax,
)
from gtproj.cli import RunConfig, main, run_command
from gtproj.corpus import entries, load, names, text

runner = CliRunner()


def corpus_path(name: str, tmp_path) -> str:
    path = tmp_path / f"{name}.gt"
    path.write_text(text(name))
    return str(path)


# --------------------------------------------------------------------------- #
# check
# --------------------------------------------------------------------------- #


def test_check_rejects_uninformed_sender(tmp_path):
    result = runner.invoke(main, ["check", corpus_path("g_s", tmp_path)])
    assert result.exit_code == 1
    assert "verdict: not implementable" in result.stdout
    assert "send validity fails for role r" in result.stdout
    assert "counterexample: p>q!o.q<p?o.r>q!m" in result.stdout


def test_check_accepts_the_streaming_protocol(tmp_path):
    result = runner.invoke(main, ["check", corpus_path("odd_even", tmp_path)])
    assert result.exit_code == 0
    assert "verdict: implementable" in result.stdout
    assert "projection p:" in result.stdout


def test_check_reads_stdin():
    result = runner.invoke(main, ["check", "-"], input="p->q:m . 0\n")
    assert result.exit_code == 0
    assert "protocol stdin" in result.stdout


def test_check_json_schema(tmp_path):
    result = runner.invoke(
        main, ["check", corpus_path("g_s", tmp_path), "--format", "json"]
    )
    assert result.exit_code == 1
    doc = json.loads(result.stdout)
    assert set(doc) == {"schema", "protocol", "verdict", "projections", "timings"}
    assert doc["schema"] == 1
    assert doc["protocol"]["size"] == 8
    assert doc["protocol"]["roles"] == ["p", "q", "r"]
    assert doc["verdict"]["implementable"] is False
    assert doc["verdict"]["violation"]["kind"] == "SendValidity"
    assert doc["verdict"]["violation"]["role"] == "r"
    assert doc["verdict"]["counterexample"] == "p>q!o.q<p?o.r>q!m"
    assert doc["projections"] == []
    assert set(doc["timings"]) == {"parse_ms", "project_ms", "check_ms"}


def test_check_json_lists_projections_when_implementable(tmp_path):
    result = runner.invoke(
        main, ["check", corpus_path("g_r_prime", tmp_path), "--format", "json"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert [row["role"] for row in doc["projections"]] == ["p", "q", "r"]
    for row in doc["projections"]:
        assert row["states"] >= 1 and row["final_states"] >= 1


@pytest.fixture
def state_objects(monkeypatch):
    """The machine state objects made while the test runs, counted at
    construction."""
    made = []
    init = SubsetState.__init__

    def counted(state, *args, **kwargs):
        init(state, *args, **kwargs)
        made.append(state)

    monkeypatch.setattr(SubsetState, "__init__", counted)
    return made


def test_check_of_implementable_protocols_makes_no_state_objects(tmp_path, state_objects):
    gk = tmp_path / "gk6.gt"
    gk.write_text(pretty(generate_gk(6)))
    sources = [str(gk)]
    sources += [corpus_path(e.name, tmp_path) for e in entries() if e.implementable]
    for source in sources:
        assert run_command(RunConfig(command="check", source=source, fmt="json")) == 0
    assert state_objects == []
    # a violation names machine states, so a rejection makes them
    assert run_command(
        RunConfig(command="check", source=corpus_path("g_s", tmp_path), fmt="json")
    ) == 1
    assert state_objects


def test_simulation_and_the_oracle_make_no_state_objects(tmp_path, state_objects):
    gk = tmp_path / "gk6.gt"
    gk.write_text(pretty(generate_gk(6)))
    cases = [(str(gk), generate_gk(6))]
    cases += [(corpus_path(e.name, tmp_path), e.load()) for e in entries()]
    out = str(tmp_path / "simulate.json")
    for source, g in cases:
        config = RunConfig(command="simulate", source=source, fmt="json", out=out)
        assert run_command(config) == 0
        _, table = build_projections(g)
        bounded_fidelity_check(g, Csm({role: m for role, (_, m) in table.items()}))
    assert state_objects == []


def test_check_all_reports_every_violation(tmp_path):
    result = runner.invoke(main, ["check", corpus_path("g_s", tmp_path), "--all"])
    assert result.exit_code == 1
    assert "violation 1:" in result.stdout
    assert "violation 2:" in result.stdout

    as_json = runner.invoke(
        main, ["check", corpus_path("g_s", tmp_path), "--all", "--format", "json"]
    )
    doc = json.loads(as_json.stdout)
    assert len(doc["verdict"]["violations"]) >= 2


def test_check_receive_violation_fields(tmp_path):
    result = runner.invoke(
        main, ["check", corpus_path("g_r", tmp_path), "--format", "json"]
    )
    violation = json.loads(result.stdout)["verdict"]["violation"]
    assert violation["kind"] == "ReceiveValidity"
    assert violation["first"] == "r<p?o"
    assert violation["second"] == "r<q?o"
    assert violation["witness_subterm"] == "p->r:o . 0"
    assert violation["available"] == "p>r!o"


def test_parse_error_exits_2():
    result = runner.invoke(main, ["check", "-"], input="p->q:\n")
    assert result.exit_code == 2
    assert "error:" in result.stderr
    assert "message label" in result.stderr


def test_ill_formed_protocol_exits_2():
    result = runner.invoke(main, ["check", "-"], input="mu t . t\n")
    assert result.exit_code == 2
    assert "not well-formed" in result.stderr
    assert "Unguarded" in result.stderr
    # every violation, one line each, the same from every command that
    # builds machines
    for command in ("check", "project", "simulate"):
        result = runner.invoke(main, [command, "-"], input="+ { p->p:m . t, p->p:m . 0 }\n")
        assert result.exit_code == 2, command
        assert result.stdout == "", command
        assert result.stderr == (
            "error: protocol is not well-formed\n"
            "  stdin: SelfCommunication: role p sends to itself in p->p:m\n"
            "  stdin: BranchDistinctness: duplicate branch p->p:m\n"
            "  stdin: UnboundVariable: recursion variable 't' is not bound here\n"
        ), command


@pytest.fixture
def walks(monkeypatch):
    """The protocols that the one walk, validate_well_formedness, is called
    on, counted under every module name bound to it."""
    calls = []
    original = syntax.validate_well_formedness

    def counted(g):
        calls.append(g)
        return original(g)

    for name, module in list(sys.modules.items()):
        if name == "gtproj" or name.startswith("gtproj."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_check_walks_each_protocol_once(tmp_path, walks, capsys):
    # and so do project and simulate
    for name in names():
        for command in ("check", "project", "simulate"):
            walks.clear()
            code = run_command(
                RunConfig(command=command, source=corpus_path(name, tmp_path), fmt="json")
            )
            assert code in (0, 1), (name, command)
            assert len(walks) == 1, (name, command)


def test_check_validates_well_formedness_once(tmp_path, walks):
    code = run_command(RunConfig(command="check", source=corpus_path("g_s", tmp_path)))
    assert code == 1
    assert walks == [load("g_s")]


def test_a_receive_validity_rejection_walks_the_protocol_once(walks):
    verdict = check_implementability(load("g_r"))
    assert verdict.violation.kind is ViolationKind.RECEIVE_VALIDITY
    assert len(walks) == 1


def test_missing_file_exits_2(tmp_path):
    result = runner.invoke(main, ["check", str(tmp_path / "absent.gt")])
    assert result.exit_code == 2
    assert "error:" in result.stderr


def _assert_one_error_line(result):
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert "UTF-8" in result.stderr.upper()


def test_non_utf8_file_exits_2(tmp_path):
    path = tmp_path / "latin.gt"
    path.write_bytes(b"p->q:\xff . 0\n")
    result = runner.invoke(main, ["check", str(path)])
    _assert_one_error_line(result)
    assert str(path) in result.stderr


def test_non_utf8_stdin_exits_2():
    result = runner.invoke(main, ["check", "-"], input=b"p->q:\xff . 0\n")
    _assert_one_error_line(result)
    assert result.stderr.startswith("error: stdin ")


def test_a_byte_order_mark_is_dropped_from_a_file_and_stdin(tmp_path, monkeypatch, capsys):
    path = tmp_path / "g_s.gt"
    path.write_bytes(b"\xef\xbb\xbf" + text("g_s").encode())
    for args, stdin in ((["check", str(path)], None), (["check", "-"], path.read_bytes())):
        result = runner.invoke(main, args, input=stdin)
        assert result.exit_code == 1, result.stderr
        assert "verdict: not implementable" in result.stdout
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + text("g_s")))
    assert run_command(RunConfig(command="check", source="-")) == 1
    assert "verdict: not implementable" in capsys.readouterr().out
    # the parser itself reads no mark
    with pytest.raises(syntax.ParseError, match="unexpected character"):
        syntax.parse_global_type("\ufeff" + text("g_s"))


def test_stdin_bytes_are_decoded_strictly(monkeypatch, capsys):
    # a C or POSIX locale opens stdin with this error handler
    stdin = io.TextIOWrapper(io.BytesIO(b"p->q:\xff . 0\n"), errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run_command(RunConfig(command="check", source="-")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: stdin is not utf-8 text")
    assert captured.err.count("\n") == 1


def test_stdin_without_a_byte_buffer_is_read_as_text(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text("g_s")))
    assert run_command(RunConfig(command="check", source="-")) == 1
    assert "verdict: not implementable" in capsys.readouterr().out


def test_a_redirected_stdout_is_not_kept_alive(monkeypatch):
    # the path of an in-process caller that collects each report
    monkeypatch.setattr(sys, "stdin", io.StringIO(text("g_s")))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(RunConfig(command="check", source="-", fmt="json")) == 1
    assert json.loads(out.getvalue())["verdict"]["implementable"] is False
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None


def test_an_ascii_stdout_gets_the_report_as_utf8(tmp_path, monkeypatch):
    # a C locale opens stdout as ASCII; a non-ASCII file name is still printed
    path = tmp_path / "protocolé.gt"
    path.write_text(text("g_s"), encoding="utf-8")
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run_command(RunConfig(command="check", source=str(path))) == 1
    stdout.flush()
    assert stdout.buffer.getvalue().startswith("protocol protocolé: ".encode())


def test_a_redirected_stderr_is_not_kept_alive(monkeypatch):
    # the path of an in-process caller that collects each error report
    monkeypatch.setattr(sys, "stdin", io.StringIO("p->q:"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_command(RunConfig(command="check", source="-")) == 2
    assert err.getvalue().startswith("error: ")
    ref = weakref.ref(err)
    del err
    gc.collect()
    assert ref() is None


def test_an_ascii_stderr_gets_the_error_as_utf8(tmp_path, monkeypatch):
    # a C locale opens stderr as ASCII; a non-ASCII file name is still printed
    path = tmp_path / "protocolé.gt"
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stderr", stderr)
    assert run_command(RunConfig(command="check", source=str(path))) == 2
    stderr.flush()
    report = stderr.buffer.getvalue()
    assert report.startswith(b"error: ") and "protocolé.gt".encode() in report


def test_recursion_limit_exits_3_without_a_traceback(tmp_path, capsys, monkeypatch):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "check_implementability", too_deep)
    code = run_command(RunConfig(command="check", source=corpus_path("g_s", tmp_path)))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: internal error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_check_accepts_a_long_chain(tmp_path):
    path = tmp_path / "chain.gt"
    path.write_text(" . ".join(f"p->q:m{i}" for i in range(10_000)) + " . 0\n")
    assert run_command(RunConfig(command="check", source=str(path))) == 0


def test_check_asks_for_available_messages_deep_in_a_chain(tmp_path):
    # r's first state receives from p and from q; receive validity asks
    # about every node of the shared chain behind q's message to r
    chain = " . ".join(f"p->q:m{i}" for i in range(3000))
    path = tmp_path / "fork.gt"
    path.write_text(f"+ {{ p->r:a . {chain} . 0, p->q:b . q->r:c . {chain} . 0 }}\n")
    assert run_command(RunConfig(command="check", source=str(path))) == 0


def test_check_accepts_a_ring_of_50_roles(tmp_path):
    roles = [f"r{i}" for i in range(50)]
    ring = " . ".join(f"{a}->{b}:m" for a, b in zip(roles, roles[1:] + roles[:1]))
    path = tmp_path / "ring.gt"
    path.write_text(f"mu t . {ring} . t\n")
    assert run_command(RunConfig(command="check", source=str(path))) == 0


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise cli.InternalError("invariant broken")

    monkeypatch.setattr(cli, "check_implementability", broken)
    code = run_command(RunConfig(command="check", source=corpus_path("g_s", tmp_path)))
    assert code == 3
    assert capsys.readouterr().err == "error: internal error: invariant broken\n"


@pytest.mark.parametrize("error", [KeyError, MemoryError, AssertionError])
def test_any_exception_exits_3_without_a_traceback(error, tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise error("two\nlines")

    monkeypatch.setattr(cli, "check_implementability", broken)
    code = run_command(RunConfig(command="check", source=corpus_path("g_s", tmp_path)))
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_check_out_writes_a_file(tmp_path):
    out = tmp_path / "verdict.json"
    result = runner.invoke(
        main,
        [
            "check",
            corpus_path("g_s_prime", tmp_path),
            "--format",
            "json",
            "--out",
            str(out),
        ],
    )
    assert result.exit_code == 0
    assert json.loads(out.read_text())["verdict"]["implementable"] is True


# --------------------------------------------------------------------------- #
# project
# --------------------------------------------------------------------------- #


def test_project_text_lists_machines(tmp_path):
    result = runner.invoke(main, ["project", corpus_path("g_s", tmp_path)])
    assert result.exit_code == 0
    for role in ("p", "q", "r"):
        assert f"machine for role {role}:" in result.stdout
    assert "--r>q!o-->" in result.stdout


def test_project_dot_emits_one_graph_per_role(tmp_path):
    result = runner.invoke(
        main, ["project", corpus_path("g_s", tmp_path), "--format", "dot"]
    )
    assert result.exit_code == 0
    assert result.stdout.count("digraph") == 3
    assert "doublecircle" in result.stdout
    assert "__start" in result.stdout


def test_project_json_describes_machines(tmp_path):
    result = runner.invoke(
        main, ["project", corpus_path("g_s", tmp_path), "--format", "json"]
    )
    doc = json.loads(result.stdout)
    assert [m["role"] for m in doc["machines"]] == ["p", "q", "r"]
    machine_r = doc["machines"][2]
    assert machine_r["initial"] == 0
    assert {t["event"] for t in machine_r["transitions"]} == {"r>q!o", "r>q!m"}
    assert any(s["final"] for s in machine_r["states"])


ROLELESS = pytest.mark.parametrize("protocol", ["0\n", "mu t . 0\n"])


@ROLELESS
def test_check_names_no_roles(protocol):
    result = runner.invoke(main, ["check", "-"], input=protocol)
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0].startswith("protocol stdin: roles (none); size ")


@ROLELESS
def test_project_text_says_there_are_no_machines(protocol):
    result = runner.invoke(main, ["project", "-"], input=protocol)
    assert result.exit_code == 0
    assert result.stdout == "no machines: the protocol has no roles\n"


@ROLELESS
def test_project_dot_prints_nothing_without_roles(protocol):
    result = runner.invoke(main, ["project", "-", "--format", "dot"], input=protocol)
    assert result.exit_code == 0
    assert result.stdout == ""


# --------------------------------------------------------------------------- #
# simulate
# --------------------------------------------------------------------------- #


def test_simulate_reports_the_deadlock(tmp_path):
    result = runner.invoke(main, ["simulate", corpus_path("g_s", tmp_path)])
    assert result.exit_code == 0
    assert "deadlock after p>q!o.q<p?o.r>q!m" in result.stdout


def test_simulate_clean_protocol(tmp_path):
    result = runner.invoke(main, ["simulate", corpus_path("g_s_prime", tmp_path)])
    assert result.exit_code == 0
    assert "no deadlocks" in result.stdout
    assert "frontier cut: no" in result.stdout


def test_simulate_json_and_bounds(tmp_path):
    result = runner.invoke(
        main,
        [
            "simulate",
            corpus_path("g_s", tmp_path),
            "--format",
            "json",
            "--bound",
            "2",
            "--depth",
            "8",
        ],
    )
    doc = json.loads(result.stdout)
    assert doc["channel_bound"] == 2 and doc["depth"] == 8
    assert "p>q!o.q<p?o.r>q!m" in doc["deadlocks"]


# --------------------------------------------------------------------------- #
# Out-of-range configurations
# --------------------------------------------------------------------------- #


def _assert_rejected(cfg, capsys, reason):
    assert run_command(cfg) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and reason in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("k", [0, -1, None])
def test_gen_gk_config_rejects_sizes_below_1(k, capsys):
    _assert_rejected(RunConfig(command="gen-gk", k=k), capsys, "k >= 1")


@pytest.mark.parametrize(
    ("field", "value"), [("channel_bound", 0), ("depth", -1)]
)
def test_simulate_config_rejects_out_of_range_bounds(field, value, tmp_path, capsys):
    cfg = RunConfig(command="simulate", source=corpus_path("g_s", tmp_path), **{field: value})
    _assert_rejected(cfg, capsys, f"got {value}")


@pytest.mark.parametrize("command", ["check", "simulate", "bench", "gen-gk"])
def test_config_rejects_a_format_the_command_does_not_render(command, tmp_path, capsys):
    cfg = RunConfig(command=command, source=corpus_path("g_s", tmp_path), k=1, fmt="dot")
    _assert_rejected(cfg, capsys, f"{command} has no 'dot' format")


@pytest.mark.parametrize(
    ("command", "field"), [("gen-gk", "k"), ("simulate", "channel_bound"), ("simulate", "depth")]
)
def test_config_rejects_a_bool_for_a_number(command, field, tmp_path, capsys):
    cfg = RunConfig(command=command, source=corpus_path("g_s", tmp_path), **{field: True})
    _assert_rejected(cfg, capsys, f"{field} >= ")


def test_config_rejects_an_unknown_command(capsys):
    _assert_rejected(RunConfig(command="verify"), capsys, "unknown command 'verify'")


# --------------------------------------------------------------------------- #
# bench
# --------------------------------------------------------------------------- #


def test_bench_text_covers_the_corpus():
    result = runner.invoke(main, ["bench"])
    assert result.exit_code == 0
    for name in names():
        assert name in result.stdout


def test_bench_json_structure():
    result = runner.invoke(main, ["bench", "--format", "json"])
    doc = json.loads(result.stdout)
    assert doc["schema"] == 1
    assert [r["name"] for r in doc["results"]] == list(names())
    for entry in doc["results"]:
        assert {"name", "protocol", "verdict", "projections", "timings"} <= set(entry)


# --------------------------------------------------------------------------- #
# gen-gk
# --------------------------------------------------------------------------- #


def test_generated_protocol_checks_clean():
    generated = runner.invoke(main, ["gen-gk", "3"])
    assert generated.exit_code == 0
    checked = runner.invoke(main, ["check", "-"], input=generated.stdout)
    assert checked.exit_code == 0


@pytest.mark.parametrize("bad", ["0", "-2", "x"])
def test_gen_gk_rejects_bad_sizes(bad):
    assert runner.invoke(main, ["gen-gk", bad]).exit_code == 2

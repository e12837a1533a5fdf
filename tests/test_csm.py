"""Executing machines over reliable FIFO channels."""
from __future__ import annotations

import pytest

from gtproj import csm
from gtproj import (
    Csm,
    Message,
    NotEnabled,
    Role,
    StepFailure,
    build_projections,
    csm_step,
    explore,
    initial_configuration,
    parse_global_type,
    parse_trace,
    receive,
    replay_trace,
    send,
)
from gtproj.corpus import entries, load

from .reference import check_channel_compliance

P, Q, R = Role("p"), Role("q"), Role("r")
O, M = Message("o"), Message("m")


def system_for(g) -> Csm:
    _, table = build_projections(g)
    return Csm({role: machine for role, (_, machine) in table.items()})


# --------------------------------------------------------------------------- #
# Single steps
# --------------------------------------------------------------------------- #


def test_send_appends_to_the_channel():
    c = system_for(load("g_s"))
    cfg = csm_step(c, initial_configuration(c), send(P, Q, O))
    assert cfg.channel(P, Q) == (O,)
    assert cfg.channel(R, Q) == ()


def test_receive_pops_the_channel_head():
    c = system_for(load("g_s"))
    cfg = initial_configuration(c)
    cfg = csm_step(c, cfg, send(P, Q, O))
    cfg = csm_step(c, cfg, receive(Q, P, O))
    assert cfg.channel(P, Q) == ()


def test_step_rejects_event_without_local_transition():
    c = system_for(load("g_s"))
    with pytest.raises(NotEnabled) as exc:
        csm_step(c, initial_configuration(c), receive(R, Q, O))
    assert exc.value.reason is StepFailure.NO_LOCAL_TRANSITION


def test_step_rejects_receive_from_empty_channel():
    c = system_for(load("g_s"))
    with pytest.raises(NotEnabled) as exc:
        csm_step(c, initial_configuration(c), receive(Q, P, O))
    assert exc.value.reason is StepFailure.EMPTY_CHANNEL


def test_step_rejects_receive_of_non_head_message():
    c = system_for(load("g_s"))
    cfg = csm_step(c, initial_configuration(c), send(P, Q, O))
    with pytest.raises(NotEnabled) as exc:
        csm_step(c, cfg, receive(Q, P, M))
    assert exc.value.reason is StepFailure.WRONG_HEAD


def test_enabled_events_orders_roles_then_labels():
    c = system_for(load("g_s"))
    cfg = initial_configuration(c)
    enabled = csm._enabled(c, cfg.states, cfg.channels)
    assert tuple(c.events[move[5]] for move in enabled) == (
        send(P, Q, M),
        send(P, Q, O),
        send(R, Q, M),
        send(R, Q, O),
    )


def test_replay_reaches_the_final_configuration():
    c = system_for(load("g_s"))
    cfg = replay_trace(c, parse_trace("p>q!o.q<p?o.r>q!o.q<r?o"))
    assert csm._is_final(c, cfg.states, cfg.channels)


def test_configuration_tracks_states_per_role():
    c = system_for(load("g_s"))
    cfg = initial_configuration(c)
    assert cfg.state_of(P) == c.machines[P].initial
    stepped = csm_step(c, cfg, send(P, Q, O))
    assert stepped.state_of(P) != cfg.state_of(P)
    assert stepped.state_of(Q) == cfg.state_of(Q)


def test_csm_validates_role_keys():
    _, table = build_projections(load("g_s"))
    _, machine_p = table[P]
    with pytest.raises(ValueError):
        Csm({Q: machine_p})


# --------------------------------------------------------------------------- #
# Exploration
# --------------------------------------------------------------------------- #


def test_uninformed_sender_deadlocks_at_the_shortest_race():
    c = system_for(load("g_s"))
    report = explore(c)
    traces = {trace for _, trace in report.deadlocks}
    assert parse_trace("p>q!o.q<p?o.r>q!m") in traces
    assert all(len(t) == 3 for t in traces)
    assert not report.frontier_cut


def test_good_corpus_explores_without_deadlock():
    for entry in entries():
        if not entry.implementable:
            continue
        report = explore(system_for(entry.load()))
        assert report.deadlocks == (), entry.name


def test_unbounded_stream_is_cut_at_the_channel_bound():
    c = system_for(parse_global_type("mu t . p->q:m . t"))
    report = explore(c, channel_bound=2, depth=40)
    assert report.frontier_cut
    assert report.deadlocks == ()


def test_terminated_protocol_has_one_final_configuration():
    c = system_for(parse_global_type("0"))
    report = explore(c)
    assert report.visited == 1
    assert report.deadlocks == ()
    cfg = initial_configuration(c)
    assert csm._is_final(c, cfg.states, cfg.channels)


def test_explore_rejects_bad_bounds():
    c = system_for(load("g_s"))
    with pytest.raises(ValueError):
        explore(c, channel_bound=0)
    with pytest.raises(ValueError):
        explore(c, depth=-1)
    for bounds in ({"depth": 2.5}, {"depth": True}, {"channel_bound": 2.0}):
        with pytest.raises(TypeError, match="must be an int"):
            explore(c, **bounds)


def test_kept_traces_start_empty_and_stay_channel_compliant():
    c = system_for(load("g_s_prime"))
    report = explore(c, keep_traces=True)
    assert () in report.trace_prefixes
    assert all(check_channel_compliance(t) for t in report.trace_prefixes)


# --------------------------------------------------------------------------- #
# Channel compliance
# --------------------------------------------------------------------------- #


def test_channel_compliance_accepts_matched_sends_and_receives():
    assert check_channel_compliance(parse_trace("p>q!o.q<p?o"))
    assert check_channel_compliance(parse_trace("p>q!o.p>q!m"))
    assert check_channel_compliance(())


def test_channel_compliance_rejects_receive_without_send():
    assert not check_channel_compliance(parse_trace("q<p?o"))


def test_channel_compliance_rejects_out_of_order_receives():
    assert not check_channel_compliance(parse_trace("p>q!o.p>q!m.q<p?m"))

"""The benchmark's own correctness checks, on hand-picked known answers."""
from gtproj import build_projections, corpus, parse_global_type, parse_trace

from checks import explains, fifo_replay, mixed_states

#: The counterexamples the corpus documents for its two rejected protocols.
KNOWN = {
    "g_s": "p>q!o.q<p?o.r>q!m",
    "g_r": "p>q!o.q<p?o.q>r!o.p>r!o.r<p?o",
}


def machines_of(g):
    _, table = build_projections(g)
    return {role: machine for role, (_, machine) in table.items()}


def test_known_counterexamples_run_and_escape_the_protocol():
    for name, text in KNOWN.items():
        g = corpus.load(name)
        trace = parse_trace(text)
        assert fifo_replay(machines_of(g), trace) is None, name
        assert not explains(g, trace), name


def test_a_trace_of_a_protocol_run_is_explained():
    g = corpus.load("g_s")
    trace = parse_trace("p>q!o.q<p?o.r>q!o")  # the start of the first branch
    assert fifo_replay(machines_of(g), trace) is None
    assert explains(g, trace)
    # Reordered across roles without changing any role's own order: still one.
    assert explains(g, parse_trace("r>q!o.p>q!o.q<p?o"))


def test_a_prefix_of_one_role_is_explained_inside_a_loop():
    g = corpus.load("odd_even")
    assert explains(g, parse_trace("p>q!o.p>q!o.p>q!o.p>q!b"))
    assert not explains(g, parse_trace("p>q!b"))


def test_replay_rejects_receives_the_channels_cannot_serve():
    machines = machines_of(corpus.load("g_s"))
    assert fifo_replay(machines, parse_trace("q<p?o")) is not None  # empty channel
    assert fifo_replay(machines, parse_trace("p>q!o.q<p?m")) is not None  # no such move
    assert fifo_replay(machines, parse_trace("r>q!o.r>q!o")) is not None  # one send only


def test_mixed_state_check_flags_a_send_receive_state():
    g = parse_global_type("+ { p->q:c . 0, p->s:c . q->r:a . 0 }")
    found = mixed_states(machines_of(g))
    assert found and all(line.startswith("q: ") for line in found)


def test_mixed_state_check_passes_the_implementable_corpus():
    for entry in corpus.entries():
        if entry.implementable:
            assert mixed_states(machines_of(entry.load())) == [], entry.name

"""Acceptance gate: every promised behaviour, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` to see one line per
criterion.  Each test states its tolerance inline.
"""
from __future__ import annotations

import json
import time
from random import Random

from click.testing import CliRunner

from gtproj import (
    AvailableMessageQuery,
    Csm,
    Role,
    available_messages,
    bounded_fidelity_check,
    build_projections,
    check_implementability,
    check_no_mixed_choice,
    explore,
    generate_gk,
    intersection_witness,
    measure_size,
    parse_trace,
    replay_trace,
    roles_of,
    subset_construction,
    subterms,
    validate_well_formedness,
)
from gtproj.cli import main
from gtproj.corpus import entries, load

from .reference import (
    bounded_local_language_check,
    check_channel_compliance,
    indistinguishable_finite,
)
from .strategies import random_async_events, random_global_type

Q = Role("q")


def system_for(g) -> Csm:
    _, table = build_projections(g)
    return Csm({role: machine for role, (_, machine) in table.items()})


# Criterion 1 — every corpus protocol gets the right verdict, with the right
# violation kind, and the seven decisions together take under 50 ms.
def test_corpus_verdicts_match_expectations_quickly():
    elapsed = 0.0
    for entry in entries():
        g = entry.load()
        start = time.perf_counter()
        verdict = check_implementability(g)
        elapsed += time.perf_counter() - start
        assert verdict.implementable == entry.implementable, entry.name
        if not entry.implementable:
            assert verdict.violation.kind is entry.violation, entry.name
    assert elapsed < 0.050, f"checks took {elapsed * 1000:.1f} ms"


# Criterion 2 — the size measure reproduces the hand-computed values; the
# fourth protocol is not part of the pinned trio but its value must stay put.
def test_hand_counted_protocol_sizes():
    assert measure_size(load("g_r")) == 12
    assert measure_size(load("g_r_prime")) == 16
    assert measure_size(load("g_s")) == 8
    assert measure_size(load("g_s_prime")) == 6  # stability pin, see README


# Criterion 3 — rejected protocols come with counterexamples that the
# machines really execute yet no protocol run explains; the uninformed-sender
# counterexample is exactly the canonical three-event race.
def test_counterexamples_execute_but_escape_the_protocol():
    for name in ("g_s", "g_r"):
        g = load(name)
        verdict = check_implementability(g)
        assert not verdict.implementable
        replay_trace(system_for(g), verdict.counterexample)
        assert intersection_witness(g, verdict.counterexample) is None
    assert check_implementability(load("g_s")).counterexample == parse_trace(
        "p>q!o.q<p?o.r>q!m"
    )


# Criterion 4 — the independent bounded oracle (depth 14, channel bound 4)
# confirms every implementable corpus protocol, in under 30 s altogether.
def test_bounded_fidelity_confirms_implementable_corpus():
    start = time.perf_counter()
    for entry in entries():
        if not entry.implementable:
            continue
        g = entry.load()
        report = bounded_fidelity_check(g, system_for(g), depth=14, channel_bound=4)
        assert report.ok, (entry.name, report.obligation)
    assert time.perf_counter() - start < 30.0


# Criterion 5 — the generated family is well-formed and implementable for
# k = 1..8, the receiver machine has exactly 2**(k+1) + 2 states, and the
# k = 8 pipeline finishes in under 60 s.
def test_state_blowup_family_scales():
    for k in range(1, 8):
        g = generate_gk(k)
        assert validate_well_formedness(g).ok
        assert len(subset_construction(g, Q)) == 2 ** (k + 1) + 2
        assert check_implementability(g).implementable
    start = time.perf_counter()
    g = generate_gk(8)
    assert validate_well_formedness(g).ok
    assert len(subset_construction(g, Q)) == 2**9 + 2
    assert check_implementability(g).implementable
    assert time.perf_counter() - start < 60.0


# Criterion 6a — no machine of an implementable corpus protocol mixes sends
# and receives in one state.
def test_no_mixed_states_on_implementable_corpus():
    for entry in entries():
        if not entry.implementable:
            continue
        g = entry.load()
        for role in roles_of(g):
            assert check_no_mixed_choice(subset_construction(g, role)), (
                entry.name,
                role.name,
            )


# Criterion 6b — across 1,000 random well-formed protocols (up to 30
# exchanges), available messages never offer a send by a blocked role.
def test_available_messages_never_offer_blocked_senders():
    rng = Random(20260815)
    for _ in range(1000):
        g = random_global_type(rng, max_size=30)
        roles = roles_of(g)
        if not roles:
            continue
        nodes = subterms(g)
        for _ in range(3):
            subterm = rng.choice(nodes)
            blocked = frozenset(rng.sample(roles, rng.randint(1, len(roles))))
            result = available_messages(g, AvailableMessageQuery(subterm, blocked))
            offenders = {e for e in result.events if e.active in blocked}
            assert not offenders, (subterm, blocked, offenders)


# Criterion 6c — a word with no explaining run cannot gain one by extension,
# and emptiness is invariant under reorderings no role can observe.
def test_intersection_emptiness_is_monotone_and_reorder_invariant():
    rng = Random(97)
    pool = []
    for entry in entries():
        g = entry.load()
        report = explore(system_for(g), channel_bound=2, depth=6, keep_traces=True)
        pool.extend((g, trace) for trace in report.trace_prefixes)
        pool.extend(
            (g, random_async_events(rng, rng.randint(1, 8))) for _ in range(40)
        )
    for g, word in pool:
        empty = intersection_witness(g, word) is None
        if empty:
            for extra in random_async_events(rng, 4):
                assert intersection_witness(g, word + (extra,)) is None
        for i in range(len(word) - 1):
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
            if indistinguishable_finite(word, swapped, budget=2000):
                assert (intersection_witness(g, swapped) is None) == empty


# Criterion 6d — for every corpus protocol (accepted or rejected) and every
# role, the deterministic machine accepts exactly the words of the role's
# view up to depth 10.
def test_machines_match_views_to_depth_ten():
    for entry in entries():
        g = entry.load()
        for role in roles_of(g):
            assert bounded_local_language_check(g, role, depth=10), (
                entry.name,
                role.name,
            )


# Criterion 6e — every trace reached while exploring a corpus system
# respects per-channel send/receive order.
def test_explored_traces_respect_channel_order():
    for entry in entries():
        report = explore(system_for(entry.load()), keep_traces=True)
        for trace in report.trace_prefixes:
            assert check_channel_compliance(trace), (entry.name, trace)


# Criterion 7 — benchmark output is deterministic: two runs agree byte for
# byte once the timing block is stripped.
def test_bench_json_is_deterministic():
    runner = CliRunner()
    outputs = []
    for _ in range(2):
        result = runner.invoke(main, ["bench", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        for row in doc["results"]:
            row.pop("timings")
        outputs.append(json.dumps(doc, indent=2, sort_keys=True))
    assert outputs[0] == outputs[1]

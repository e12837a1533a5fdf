"""Span accounting of the traced run."""
import time

import gtproj
from gtproj import check_implementability, corpus

from tracing import METRICS, Tracer


def test_self_times_partition_the_outer_span():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = tracer._wrap("syntax.wf_s", inner, (("syntax.wf_calls", lambda a, r: 1),))

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    start = time.perf_counter()
    tracer._wrap("cli.self_s", outer, ())()
    total = time.perf_counter() - start
    inner_s, outer_s = tracer.totals["syntax.wf_s"], tracer.totals["cli.self_s"]
    assert inner_s >= 0.04 and 0.01 <= outer_s < 0.03
    assert inner_s + outer_s <= total
    assert tracer.totals["syntax.wf_calls"] == 2


def test_installed_spans_count_one_rejected_check():
    tracer = Tracer()
    tracer.install()
    import gtproj.validity as validity

    verdict = validity.check_implementability(corpus.load("g_s"))
    counts = {k: v for k, v in tracer.totals.items() if not k.endswith("_s")}
    assert counts["syntax.wf_calls"] == 1
    assert counts["validity.counterexample_events"] == len(verdict.counterexample) == 3
    assert counts["csm.replay_steps"] == 3
    assert counts["oracle.intersection_calls"] == 1
    assert counts["automata.gaut_states"] == 4  # root, two one-exchange tails, 0
    assert set(tracer.totals) == set(METRICS)
    # Every module-level binding is rebound, the package's own included.
    assert gtproj.check_implementability is validity.check_implementability
    assert gtproj.check_implementability.__wrapped__ is check_implementability

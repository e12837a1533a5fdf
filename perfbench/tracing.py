"""Per-layer spans recorded from outside the program.

:meth:`Tracer.install` replaces public functions of the ``gtproj`` modules
with wrappers that time each call and count what it returned.  Every
module-level name bound to the original function is rebound, so calls made
through ``from .x import f`` in another module are caught too.  A span's
*self time* is its duration minus the durations of the spans it encloses;
the time spent counting a result is left out of every span.
"""
from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable

#: A count taken from one call: (metric name, f(args, result) -> int).
Count = tuple[str, Callable[[tuple, Any], int]]


def _sized(value: Any) -> int:
    return len(value) if hasattr(value, "__len__") else 0


#: (module, function, span name, counts).  Functions a layer calls
#: thousands of times per operation (``csm_step``, ``subterms``,
#: ``erase_label``) are not wrapped: their time falls to the enclosing span.
SPANS: tuple[tuple[str, str, str, tuple[Count, ...]], ...] = (
    ("syntax", "parse_global_type", "syntax.parse_s",
     (("syntax.text_bytes", lambda a, r: len(a[0])),)),
    ("syntax", "validate_well_formedness", "syntax.wf_s",
     (("syntax.wf_calls", lambda a, r: 1),)),
    ("automata", "build_gaut", "automata.gaut_s",
     (("automata.gaut_states", lambda a, r: len(r.states)),
      ("automata.gaut_edges", lambda a, r: len(r.transitions)))),
    ("automata", "erase", "automata.erase_s", ()),
    ("projection", "build_projections", "projection.build_s", ()),
    ("projection", "determinize", "projection.determinize_s",
     (("projection.machine_states", lambda a, r: len(r.states)),
      ("projection.machine_transitions", lambda a, r: len(r.transitions)),
      ("projection.subset_members", lambda a, r: sum(map(len, r.states))))),
    ("validity", "check_implementability", "validity.check_s", ()),
    ("validity", "check_send_validity", "validity.send_s", ()),
    ("validity", "check_receive_validity", "validity.receive_s", ()),
    ("validity", "available_messages", "validity.available_s",
     (("validity.available_calls", lambda a, r: 1),)),
    ("validity", "build_counterexample", "validity.counterexample_s",
     (("validity.counterexample_events", lambda a, r: len(r)),)),
    ("oracle", "intersection_witness", "oracle.intersection_s",
     (("oracle.intersection_calls", lambda a, r: 1),)),
    ("oracle", "bounded_fidelity_check", "oracle.fidelity_s",
     (("oracle.csm_traces", lambda a, r: r.csm_traces_checked),
      ("oracle.run_prefixes", lambda a, r: r.run_prefixes_checked))),
    ("csm", "replay_trace", "csm.replay_s",
     (("csm.replay_steps", lambda a, r: _sized(a[1])),)),
    ("csm", "explore", "csm.explore_s",
     (("csm.explore_configs", lambda a, r: r.visited),)),
    ("cli", "run_command", "cli.self_s", ()),
)

#: Every per-layer metric, in :data:`SPANS` order.
METRICS: tuple[str, ...] = tuple(
    name
    for _, _, span, counts in SPANS
    for name in (span, *(count for count, _ in counts))
)


class Tracer:
    """Self time and counts per metric name, summed over the calls seen."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = dict.fromkeys(METRICS, 0)
        self._open: list[float] = []  # per open span: time its children took

    def reset(self) -> None:
        self.totals = dict.fromkeys(METRICS, 0)

    def _wrap(self, name: str, fn: Callable, counts: tuple[Count, ...]) -> Callable:
        perf = time.perf_counter
        open_spans = self._open

        def span(*args: Any, **kwargs: Any) -> Any:
            open_spans.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf() - start
                self.totals[name] += took - open_spans.pop()
                if open_spans:
                    open_spans[-1] += took
            if counts:
                counting = perf()
                for count, measure in counts:
                    self.totals[count] += measure(args, result)
                if open_spans:
                    open_spans[-1] += perf() - counting
            return result

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    def install(self) -> None:
        """Wrap every function in :data:`SPANS` wherever gtproj binds it."""
        owners = {m: importlib.import_module(f"gtproj.{m}") for m, _, _, _ in SPANS}
        modules = [
            m for n, m in sys.modules.items() if n == "gtproj" or n.startswith("gtproj.")
        ]
        for module_name, attr, name, counts in SPANS:
            original = getattr(owners[module_name], attr)
            wrapper = self._wrap(name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

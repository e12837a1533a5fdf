"""Run one workload of the gtproj benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload random-mix --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout.  Whole rounds
of the workload's operations run until they have taken ``--seconds``, each
round after one more (untimed) set-up; ``setup_s`` is the import plus the
median set-up.  Then the outcomes of the first round are checked and every
later round must match them.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics (per operation) with ``--trace 1``.  The same object, with
the figures behind it, is written to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _tail_ms(times: list[float]) -> tuple[str, float] | None:
    """The highest of p90/p99/p99.9 with at least ten samples above it."""
    ordered = sorted(times)
    best = None
    for label, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if len(ordered) * (1 - q) >= 10:
            best = (label, ordered[int(len(ordered) * q)] * 1e3)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "gtproj" / "__init__.py").is_file():
        print(f"perfbench: no gtproj sources in {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gtproj.cli  # noqa: F401  (the import a user of the CLI pays)

    import_s = time.perf_counter() - started
    sys.path.insert(0, str(HERE))
    from tracing import METRICS, Tracer
    from workloads import WORKLOADS

    prepare = WORKLOADS.get(args.workload)
    if prepare is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = Tracer()
    if args.trace:
        tracer.install()
    perf = time.perf_counter
    start = perf()
    work = prepare(args.seed)
    setup_times = [perf() - start]
    gc.collect()

    tracer.reset()
    times: list[float] = []
    first: list = []
    first_keys: list = []
    rounds = 0
    deterministic = True
    elapsed = 0.0
    while elapsed < args.seconds:
        # One more set-up before each round, untimed and untraced: set-up
        # samples spread over the run see the machine as the rounds do.
        totals = dict(tracer.totals)
        start = perf()
        prepare(args.seed)
        setup_times.append(perf() - start)
        tracer.totals = totals

        began = perf()
        outcomes = []
        for op in work.ops:
            start = perf()
            outcomes.append(op())
            times.append(perf() - start)
        elapsed += perf() - began
        if rounds == 0:
            first = outcomes
            first_keys = [work.key(o) for o in outcomes]
        elif [work.key(o) for o in outcomes] != first_keys:
            deterministic = False
        rounds += 1
    layers = dict(tracer.totals)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    judged = perf()
    verdict = work.judge(first)
    judge_s = perf() - judged
    if not deterministic:
        verdict.problems.append("a later round's outcomes differ from the first round's")
    attempted = rounds * len(work.ops)
    # Each input's mean over the rounds, then the median over the inputs.  On
    # a shared machine whose speed switches between two levels, a mean moves
    # in proportion to the time spent at each level, where a median of the
    # same samples jumps from one level to the other.
    means = [statistics.fmean(times[i :: len(work.ops)]) for i in range(len(work.ops))]
    p50_ms = statistics.median(means) * 1e3

    if args.trace:
        metrics = {
            name: {
                "value": layers[name] / attempted,
                "unit": "s/op" if name.endswith("_s") else "count/op",
            }
            for name in METRICS
        }
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": attempted / elapsed, "unit": "1/s"},
            "op_ms_p50": {"value": p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not verdict.problems,
        "attempted": attempted,
        "failed": rounds * verdict.failed,
        "metrics": metrics,
    }

    tail = _tail_ms(times)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{rounds} rounds of {len(work.ops)} operations in {elapsed:.2f} s, "
          f"{attempted / elapsed:.2f} ops/s, p50 {p50_ms:.3f} ms"
          + (f", {tail[0]} {tail[1]:.3f} ms" if tail else ""))
    print(f"set-up: import {import_s:.3f} s, runs {', '.join(f'{t:.3f}' for t in setup_times)} s;"
          f" checks {judge_s:.3f} s")
    for kind, count in sorted(verdict.faults.items()):
        print(f"failed per round: {count} x {kind}")
    print("checks: " + (f"{len(verdict.problems)} FAILED" if verdict.problems else "all passed"))
    for problem in verdict.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    for key, value in work.notes.items():
        print(f"note: {key} = {value}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                **result,
                "rounds": rounds,
                "elapsed_s": elapsed,
                "tail_ms": tail,
                "setup_runs_s": setup_times,
                "import_s": import_s,
                "faults_per_round": verdict.faults,
                "problems": verdict.problems,
                "notes": work.notes,
                "mean_ms_by_input": {
                    label: m * 1e3
                    for label, m in zip(work.labels, means)
                    if not label.startswith("random #")
                },
            },
            indent=2,
            default=str,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

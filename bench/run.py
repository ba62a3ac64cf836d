"""Benchmark of the touchless-trust stack (`src/tlt`).

Run from the repository root:

    python3 bench/run.py --workload exchange_local --seed 1 --seconds 10 --trace 0

Workloads: exchange_local, exchange_net, cold_load (see
README.md). Inputs are made from --seed. With --trace 0 the run measures the
end-to-end metrics with tracing off; with --trace 1 it runs an untraced and a
traced phase of --seconds/2 each, prints a per-layer table and the tracing
overhead, writes the spans under .bench_out/, and reports the per-layer
metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"


def import_program() -> None:
    """Import `tlt` from ./src of the current directory, or exit with code 2."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "tlt", "__init__.py")):
        sys.stderr.write(f"bench: no program at {src}/tlt; run from the repository root\n")
        sys.exit(2)
    sys.path.insert(0, src)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import tlt

    if os.path.dirname(os.path.dirname(os.path.abspath(tlt.__file__))) != src:
        sys.stderr.write(f"bench: imported tlt from {tlt.__file__}, not from {src}\n")
        sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description="touchless-trust benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on one CPU.

    exchange_net hands each request between the client and the server's
    handler threads; across CPUs of a virtual machine each hand-off costs
    whatever the scheduler's placement makes it, which changed the median
    by half from run to run. On one CPU the hand-offs cost the same each run.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _setup(workload, seed: int, workdir: str, repeats: int):
    """Run set-up `repeats` times; keep the last state and every duration."""
    import workloads

    times, state = [], None
    for _ in range(repeats):
        state = None  # free the previous build before timing the next
        workloads.settle()
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
    workloads.settle()
    return state, times


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import report
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("bench: --seconds must be positive\n")
        return 2

    pin_to_one_cpu()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        repeats = workload.setup_repeats if args.trace == 0 else 1
        state, setup_times = _setup(workload, args.seed, workdir, repeats)
        workload.start(state)
        try:
            if args.trace == 0:
                phase = workload.run(state, args.seconds)
                phase.failed += workload.check(state, phase)
                metrics = report.end_to_end(workload, setup_times, phase)
                attempted, failed = phase.attempted, phase.failed
            else:
                attempted, failed, metrics = _traced(workload, state, args)
        finally:
            workload.stop(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def _traced(workload, state, args):
    import opcounts
    import report
    import tracer as tracer_mod

    half = args.seconds / 2
    plain = workload.run(state, half)
    plain.failed += workload.check(state, plain)

    tracer = tracer_mod.Tracer()
    tracer_mod.install_program_hooks(tracer)
    workload.trace_hooks(state, tracer)
    t0 = time.perf_counter_ns()
    try:
        traced = workload.run(state, half, tracer)
    finally:
        tracer.uninstall()
    wall_ns = time.perf_counter_ns() - t0
    traced.failed += workload.check(state, traced)

    ops = tracer.counters.get("store.load.records", 0) if workload.name == "cold_load" else tracer.requests
    view = report.LayerView(tracer, ops)
    if plain.windows and traced.windows:
        p50_plain = statistics.median(report.figures(plain)[0])
        p50_traced = statistics.median(report.figures(traced)[0])
    else:  # every operation of a phase failed
        p50_plain = p50_traced = 1.0
    overhead_pct = (p50_traced / p50_plain - 1) * 100

    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
    tracer.write_spans(spans_path)
    for line in report.table_lines(workload.name, view, wall_ns):
        print(line)
    print(
        f"OVERHEAD workload={workload.name} untraced_p50_ms={p50_plain / 1e6:.4f} "
        f"traced_p50_ms={p50_traced / 1e6:.4f} overhead_pct={overhead_pct:.2f}"
    )
    print(
        f"TRACE workload={workload.name} ops={ops} requests={tracer.requests} "
        f"spans_kept={len(tracer.spans)} spans_file={spans_path}"
    )
    diffs = opcounts.differences(opcounts.measure(args.seed), opcounts.load_baseline())
    print(f"OPCOUNTS status={'match' if not diffs else 'differs'} differences={len(diffs)}")
    for d in diffs:
        print(f"OPCOUNT {d}")

    metrics = report.per_layer(view, overhead_pct)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return attempted, failed, metrics


if __name__ == "__main__":
    sys.exit(main())

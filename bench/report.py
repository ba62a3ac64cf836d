"""Metric definitions and the traced-run table.

End-to-end metrics use one name on every workload; the unit of work they
time is the workload's operation (see README.md). Per-layer metrics come from
a traced phase. `count/op` and `us/op` are per operation of the workload: per
exchange, or per replayed record on cold_load. Layers a workload does not
reach read 0.
"""

from __future__ import annotations

import math
import resource
import statistics

STATES = (
    "verified_current",
    "verified_stale",
    "unknown_state",
    "bad_signature",
    "replay_detected",
    "unknown_device",
)
REGISTER_KINDS = ("manufacturer", "firmware", "device", "installation", "configuration")

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("success_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


QUIET_ANCHOR = 10  # percentile, counted from the best, of the window that sets the quiet level
QUIET_MARGIN = 1.1  # windows whose median is within this factor of the quiet level are kept


def quiet_windows(phase) -> list:
    """The windows whose median latency is within QUIET_MARGIN of the
    quiet level: the median of the window at the QUIET_ANCHOR-th
    percentile, counted from the best.

    Interference on a shared machine only ever adds time, and it comes in
    spells from a fraction of a second to a minute, during which the
    median of a window rises by half or more. A stall of the program that
    hits a few operations (a collection, a compaction) moves a window's
    tail but not its median, so such windows stay in, and so do their tails.
    """
    ranked = sorted(phase.windows, key=lambda w: statistics.median(w.latencies_ns))
    level = statistics.median(percentile(ranked, QUIET_ANCHOR).latencies_ns)
    return [w for w in ranked if statistics.median(w.latencies_ns) <= level * QUIET_MARGIN]


def figures(phase) -> tuple[list, float]:
    """The sorted latencies and the rate a phase's figures are read from."""
    quiet = quiet_windows(phase)
    latencies = sorted(ns for w in quiet for ns in w.latencies_ns)
    return latencies, sum(w.work for w in quiet) / (sum(w.busy_ns for w in quiet) / 1e9)


def end_to_end(workload, setup_times: list[float], phase) -> dict:
    values = {
        "setup_s": statistics.median(setup_times),
        "success_ratio": 1 - phase.failed / phase.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latency_p50_ms": 0.0,
        "latency_tail_ms": 0.0,
        "throughput_per_s": 0.0,
    }
    if phase.windows:  # empty only when every operation failed
        latencies, rate = figures(phase)
        values["latency_p50_ms"] = statistics.median(latencies) / 1e6
        values["latency_tail_ms"] = percentile(latencies, workload.tail) / 1e6
        values["throughput_per_s"] = rate
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


class LayerView:
    """Reads one traced phase: per-op and per-call figures by span name."""

    def __init__(self, tracer, ops: int):
        self.tracer = tracer
        self.ops = max(ops, 1)

    def agg(self, name):
        return self.tracer.agg.get(name, (0, 0, 0, 0))

    def calls_per_op(self, name):
        return self.agg(name)[0] / self.ops

    def self_us_per_op(self, *names):
        return sum(self.agg(n)[2] for n in names) / 1e3 / self.ops

    def us_per_call(self, name):
        calls, total = self.agg(name)[:2]
        return total / 1e3 / calls if calls else 0.0

    def verifies_per_call(self, name):
        calls, verifies = self.agg(name)[0], self.agg(name)[3]
        return verifies / calls if calls else 0.0

    def counter(self, name):
        return self.tracer.counters.get(name, 0)

    def ratio(self, num, den):
        return num / den if den else 0.0


def _transport_spans(tracer):
    return [n for n in tracer.agg if n.startswith("transport.")]


def per_layer_specs():
    """(name, unit, fn(LayerView)) for every per-layer metric."""
    specs = []
    for prim in ("sign", "verify"):
        specs.append((f"crypto.{prim}.calls", "count/op", lambda v, p=prim: v.calls_per_op(f"crypto.{p}")))
        specs.append((f"crypto.{prim}.self_us", "us/op", lambda v, p=prim: v.self_us_per_op(f"crypto.{p}")))
    specs += [
        (
            "crypto.verify.new_ratio",
            "ratio",
            lambda v: v.ratio(v.tracer.new_verifies, v.tracer.calls("crypto.verify")),
        ),
        ("crypto.digest.calls", "count/op", lambda v: v.calls_per_op("crypto.digest")),
    ]
    for part in ("encode", "decode", "verify_chain"):
        specs.append((f"documents.{part}.calls", "count/op", lambda v, p=part: v.calls_per_op(f"documents.{p}")))
        specs.append((f"documents.{part}.self_us", "us/op", lambda v, p=part: v.self_us_per_op(f"documents.{p}")))
    specs.append(("device.handle_challenge.us", "us", lambda v: v.us_per_call("device.handle_challenge")))
    specs.append(
        ("device.handle_challenge.self_us", "us/op", lambda v: v.self_us_per_op("device.handle_challenge"))
    )
    for kind in REGISTER_KINDS:
        name = f"store.register.{kind}"
        specs.append((name + ".us", "us", lambda v, n=name: v.us_per_call(n)))
        specs.append((name + ".verifies", "count", lambda v, n=name: v.verifies_per_call(n)))
    specs += [
        ("store.lookup_device.us", "us", lambda v: v.us_per_call("store.lookup_device")),
        ("store.lookup_state.us", "us", lambda v: v.us_per_call("store.lookup_state")),
        (
            "store.load.us_per_record",
            "us",
            lambda v: v.ratio(v.agg("store.load")[1] / 1e3, v.counter("store.load.records")),
        ),
        (
            "store.load.verifies_per_record",
            "count",
            lambda v: v.ratio(v.agg("store.load")[3], v.counter("store.load.records")),
        ),
        ("netstore.lookup_device.us", "us", lambda v: v.us_per_call("netstore.lookup_device")),
        ("netstore.lookup_state.us", "us", lambda v: v.us_per_call("netstore.lookup_state")),
        ("netstore.connections_per_exchange", "count/op", lambda v: v.calls_per_op("netstore.accept")),
        ("transport.codec.self_us", "us/op", lambda v: v.self_us_per_op(*_transport_spans(v.tracer))),
        ("transport.frames_per_exchange", "count/op", lambda v: v.counter("transport.frames") / v.ops),
        ("transport.air_bytes_per_exchange", "B/op", lambda v: v.counter("transport.air_bytes") / v.ops),
        ("verifier.issue_challenge.us", "us", lambda v: v.us_per_call("verifier.issue_challenge")),
        ("verifier.verify_response.self_us", "us/op", lambda v: v.self_us_per_op("verifier.verify_response")),
    ]
    for state in STATES:
        specs.append((f"verifier.verdicts.{state}", "count", lambda v, s=state: v.counter(f"verifier.verdicts.{s}")))
    return specs


OVERHEAD = ("trace.overhead_pct", "%")  # traced p50 over untraced p50, minus one


def per_layer_units() -> list[tuple[str, str]]:
    return [(name, unit) for name, unit, _ in per_layer_specs()] + [OVERHEAD]


def per_layer(view: LayerView, overhead_pct: float) -> dict:
    metrics = {name: {"value": fn(view), "unit": unit} for name, unit, fn in per_layer_specs()}
    metrics[OVERHEAD[0]] = {"value": overhead_pct, "unit": OVERHEAD[1]}
    return metrics


def table_lines(workload_name: str, view: LayerView, wall_ns: int) -> list[str]:
    """`key=value` lines: one per span name, then one per layer.

    `self_share` is self time over the traced phase's wall time. The layer
    `rest` is wall time no span covers (the benchmark's own loop); it goes
    negative on exchange_net, where the server threads' spans overlap the
    client's wait.
    """
    lines = []
    busy_us_per_op = wall_ns / 1e3 / view.ops
    agg = view.tracer.agg
    by_layer: dict[str, float] = {}
    for name in sorted(agg, key=lambda n: -agg[n][2]):
        calls, _total, self_ns, verifies = agg[name]
        self_us = self_ns / 1e3 / view.ops
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_us
        lines.append(
            f"SPAN workload={workload_name} name={name} calls={calls} "
            f"calls_per_op={calls / view.ops:.4f} us_per_call={view.us_per_call(name):.2f} "
            f"self_us_per_op={self_us:.2f} self_share={self_us / busy_us_per_op:.4f} "
            f"verifies_per_call={verifies / calls:.3f}"
        )
    for layer, self_us in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"LAYER workload={workload_name} layer={layer} self_us_per_op={self_us:.2f} "
            f"self_share={self_us / busy_us_per_op:.4f}"
        )
    rest = busy_us_per_op - sum(by_layer.values())
    lines.append(
        f"LAYER workload={workload_name} layer=rest self_us_per_op={rest:.2f} "
        f"self_share={rest / busy_us_per_op:.4f}"
    )
    return lines

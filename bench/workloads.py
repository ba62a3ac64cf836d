"""The three workloads: set-up, a timed closed loop with one client, and checks.

Every workload runs in one process. A phase runs operations back to back
until its time is up, timing each one, and groups them into windows of a
fixed amount of work (1000 exchanges, five log loads). Failures (an
exception, a wrong verdict, a load that does not answer like the store it
was written from) are counted, never raised.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

from tlt import crypto, netstore, threats, verifier
from tlt import store as store_mod
from tlt.errors import TltError

import fleet as fleet_mod


@dataclass
class Window:
    """A fixed amount of work inside a phase, summarised on its own, so
    that figures can be read from its quiet parts (see report.figures)."""

    latencies_ns: list[int] = field(default_factory=list)
    work: int = 0  # units completed: exchanges, records replayed
    busy_ns: int = 0  # wall time the window took


@dataclass
class Phase:
    """What one timed phase measured: its complete windows that timed anything."""

    windows: list[Window] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, window: Window) -> None:
        if window.latencies_ns:
            self.windows.append(window)

    def fail(self) -> None:
        """Count the operation being handled as failed; report the first traceback."""
        if not self.failed:
            traceback.print_exc(file=sys.stderr)
        self.failed += 1


def _noop():
    pass


# ---------------------------------------------------------------------------
# Exchanges
# ---------------------------------------------------------------------------


def run_exchange(lookup, rng, step: fleet_mod.Step) -> verifier.TrustVerdict:
    """One exchange through the program's own user-side loop: scan, DEV
    lookup, challenge, device signs, reassemble, verify, STATE lookup.

    `step.reply`, when set, stands in for the device's answer. The loop is
    the one the threat harness runs; when the program gains a public
    exchange entry point, this should call that instead.
    """
    respond = None if step.reply is None else (lambda _challenge: step.reply)
    return threats._exchange(lookup, step.actor, rng, respond=respond)


class ExchangeWorkload:
    """Exchanges against the fleet's store, in process or over the line protocol."""

    setup_repeats = 3
    window_ops = 1000  # p99 of a window has ten samples beyond it
    tail = 99
    warmup = 200

    def __init__(self, name: str, net: bool):
        self.name = name
        self.net = net

    def setup(self, seed: int, workdir: str):
        fleet = fleet_mod.build_fleet(seed)
        schedule = fleet_mod.build_schedule(fleet)
        return {
            "fleet": fleet,
            "schedule": schedule,
            "pos": 0,
            "rng": crypto.SeededRandomSource(seed + 1),  # the verifier's nonces
            "lookup": fleet.store,
        }

    def start(self, state) -> None:
        if self.net:
            server = netstore.StoreServer(state["fleet"].store)
            server.start()
            state["server"] = server
            state["lookup"] = netstore.StoreClient(*server.address)
        self.run(state, 0.0, ops=self.warmup)

    def stop(self, state) -> None:
        server = state.pop("server", None)
        if server is not None:
            server.stop()

    def trace_hooks(self, state, tracer) -> None:
        if self.net:
            tracer.wrap(state["server"], "get_request", "netstore.accept")

    def run(self, state, seconds: float, tracer=None, ops: int | None = None) -> Phase:
        """Exchanges until `seconds` have passed and at least one window is full."""
        schedule, rng, lookup = state["schedule"], state["rng"], state["lookup"]
        begin = tracer.begin_request if tracer is not None else _noop
        size = ops or self.window_ops
        phase = Phase()
        pos = state["pos"]
        clock = time.perf_counter_ns
        deadline = clock() + int(seconds * 1e9)
        full = 0
        while not full or clock() < deadline:
            window = Window()
            start = clock()
            for _ in range(size):
                step = schedule[pos % len(schedule)]
                pos += 1
                phase.attempted += 1
                begin()
                t0 = clock()
                try:
                    verdict = run_exchange(lookup, rng, step)
                except Exception:  # a failed exchange is counted, never fatal
                    phase.fail()
                    continue
                window.latencies_ns.append(clock() - t0)
                if verdict.state_check.value != step.expected:
                    phase.failed += 1
                else:
                    window.work += 1
            window.busy_ns = clock() - start
            full += 1
            phase.add(window)
        state["pos"] = pos
        return phase

    def check(self, state, phase: Phase) -> int:
        return 0  # every verdict is checked inline against its expected value


# ---------------------------------------------------------------------------
# Cold load (replay of a whole log)
# ---------------------------------------------------------------------------


class ColdLoadWorkload:
    """Repeated load_store of one log written in set-up."""

    name = "cold_load"
    setup_repeats = 3
    window_loads = 5
    tail = 90  # a run holds too few loads for a percentile with ten beyond

    def setup(self, seed: int, workdir: str):
        path = os.path.join(workdir, "fleet.tltlog")
        fleet = fleet_mod.build_fleet(seed, log_path=path)
        return {"path": path, "fleet": fleet}

    def start(self, state) -> None:
        pass

    def stop(self, state) -> None:
        pass

    def trace_hooks(self, state, tracer) -> None:
        pass

    def run(self, state, seconds: float, tracer=None) -> Phase:
        """Loads until `seconds` have passed and at least one window is full."""
        path, original = state["path"], state["fleet"]
        begin = tracer.begin_request if tracer is not None else _noop
        paused = tracer.paused if tracer is not None else contextlib.nullcontext
        phase = Phase()
        clock = time.perf_counter_ns
        deadline = clock() + int(seconds * 1e9)
        full = 0
        while not full or clock() < deadline:
            window = Window()
            for _ in range(self.window_loads):
                phase.attempted += 1
                begin()
                t0 = clock()
                try:
                    loaded = store_mod.load_store(path)
                except Exception:  # a failed load is counted, never fatal
                    phase.fail()
                    continue
                elapsed = clock() - t0
                window.latencies_ns.append(elapsed)
                window.busy_ns += elapsed
                window.work += len(loaded.records)
                with paused():
                    if not same_state_index(loaded, original):
                        phase.failed += 1
                del loaded
            full += 1
            phase.add(window)
        return phase

    def check(self, state, phase: Phase) -> int:
        return 0  # every load is compared inline with the store it was written from


def same_state_index(loaded: store_mod.Store, fleet: fleet_mod.Fleet) -> bool:
    """True iff `loaded` answers every state lookup as the fleet's store does."""
    original = fleet.store
    if len(loaded.records) != len(original.records):
        return False
    try:
        for uuid, digests in fleet.history.items():
            if loaded.current_state_digest(uuid) != original.current_state_digest(uuid):
                return False
            for d in digests:
                if loaded.lookup_state(uuid, d) != original.lookup_state(uuid, d):
                    return False
    except TltError:
        return False
    return True


WORKLOADS = {
    "exchange_local": ExchangeWorkload("exchange_local", net=False),
    "exchange_net": ExchangeWorkload("exchange_net", net=True),
    "cold_load": ColdLoadWorkload(),
}


def settle() -> None:
    """Collect set-up garbage before timing starts."""
    gc.collect()

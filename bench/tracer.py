"""Spans and counters recorded from outside the program.

The tracer replaces public functions and methods of the `tlt` modules with
wrappers for the duration of a traced phase, then puts the originals back.
Calls the program makes internally go through the same module attributes, so
they are caught too (for example `documents.verify_chain` calling
`crypto.verify`).

Every call becomes a span: name, start, end, parent span and request id (one
request per exchange or log load). Aggregates per span
name (calls, inclusive time, self time, verifies underneath) cover the whole
phase. Full span records are kept in memory only up to MAX_SPANS and written
out at the end; self time is a span's time minus the time its child spans
cover.

Spans opened on other threads (the store server's handlers) have no parent
but carry the request id of the exchange in flight, which is unambiguous
because the benchmark runs one client in a closed loop.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time

MAX_SPANS = 50_000

_VERIFY = "crypto.verify"


class _Frame:
    __slots__ = ("name", "span_id", "start", "child_ns", "verifies")

    def __init__(self, name: str, span_id: int, start: int):
        self.name = name
        self.span_id = span_id
        self.start = start
        self.child_ns = 0
        self.verifies = 0


class Tracer:
    """Collects spans from the program entry points it wraps (see install_program_hooks)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []
        self._paused = False
        self.request: int | None = None
        self.requests = 0
        # name -> [calls, total_ns, self_ns, verifies in subtree]
        self.agg: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.new_verifies = 0  # verifies of a (key, message, signature) not yet seen in their request
        self._request_verifies: set[int] = set()

    # -- requests and counters -------------------------------------------

    def begin_request(self) -> None:
        self.requests += 1
        self.request = self.requests
        self._request_verifies = set()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block pass straight through, unrecorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name=None, before=None, after=None) -> None:
        """Replace owner.attr with a span-recording wrapper.

        `name` is a span name or a callable(args, kwargs) -> span name.
        `before(args)` returns a token handed to `after(args, result, token)`.
        """
        had_own = attr in vars(owner)
        orig = vars(owner)[attr] if had_own else getattr(owner, attr)
        span_name = name if name is not None else attr
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return orig(*args, **kwargs)
            label = span_name(args, kwargs) if callable(span_name) else span_name
            token = before(args) if before is not None else None
            stack = tracer._stack()
            frame = _Frame(label, next(tracer._ids), time.perf_counter_ns())
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._close(frame, end, stack[-1] if stack else None)
            if after is not None:
                after(args, result, token)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig, had_own))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, frame: _Frame, end: int, parent: _Frame | None) -> None:
        dur = end - frame.start
        if frame.name == _VERIFY:
            frame.verifies += 1
        with self._lock:
            entry = self.agg.get(frame.name)
            if entry is None:
                entry = self.agg[frame.name] = [0, 0, 0, 0]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame.child_ns
            entry[3] += frame.verifies
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (
                        frame.span_id,
                        parent.span_id if parent is not None else None,
                        self.request,
                        frame.name,
                        frame.start,
                        end,
                    )
                )
        if parent is not None:
            parent.child_ns += dur
            parent.verifies += frame.verifies

    # -- hooks used by install_program_hooks -----------------------------

    def note_verify(self, args) -> None:
        pk, msg, sig = args[0], args[1], args[2]
        key = hash((pk.suite_id, pk.data, bytes(msg), bytes(sig)))
        with self._lock:
            if key not in self._request_verifies:
                self._request_verifies.add(key)
                self.new_verifies += 1

    # -- reading ---------------------------------------------------------

    def calls(self, name: str) -> int:
        entry = self.agg.get(name)
        return entry[0] if entry else 0

    def call_counts(self) -> dict[str, int]:
        with self._lock:
            return {name: entry[0] for name, entry in self.agg.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for span_id, parent, request, name, start, end in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "request": request,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


def _register_name(args, kwargs) -> str:
    kind = kwargs.get("kind", args[1] if len(args) > 1 else None)
    return "store.register." + (kind if isinstance(kind, str) else kind.value)


def install_program_hooks(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer under src/tlt."""
    from tlt import crypto, device, documents, netstore, store, transport, verifier

    tracer.wrap(crypto, "sign", "crypto.sign")
    tracer.wrap(crypto, "verify", "crypto.verify", before=tracer.note_verify)
    tracer.wrap(crypto, "public_key_of", "crypto.public_key_of")
    tracer.wrap(crypto, "digest", "crypto.digest")

    tracer.wrap(documents, "encode_canonical", "documents.encode")
    tracer.wrap(documents, "signing_payload", "documents.encode")
    tracer.wrap(documents, "decode", "documents.decode")
    tracer.wrap(documents, "verify_chain", "documents.verify_chain")

    tracer.wrap(device, "device_birth", "device.birth")
    for method in ("install_firmware", "apply_configuration", "handle_challenge"):
        tracer.wrap(device.DeviceState, method, "device." + method)

    tracer.wrap(store.Store, "register", _register_name)
    tracer.wrap(store.Store, "lookup_device", "store.lookup_device")
    tracer.wrap(store.Store, "lookup_state", "store.lookup_state")
    tracer.wrap(store.Store, "persist", "store.persist")
    tracer.wrap(
        store,
        "load_store",
        "store.load",
        after=lambda _a, result, _t: tracer.count("store.load.records", len(result.records)),
    )

    tracer.wrap(netstore.StoreClient, "lookup_device", "netstore.lookup_device")
    tracer.wrap(netstore.StoreClient, "lookup_state", "netstore.lookup_state")

    def frame_sent(_args, frame, _token):
        tracer.count("transport.frames")
        tracer.count("transport.air_bytes", len(frame))

    for fn in ("encode_advertisement", "encode_data_frame"):
        tracer.wrap(transport, fn, "transport." + fn, after=frame_sent)
    for fn in ("parse_advertisement", "parse_data_frame", "fragment", "reassemble"):
        tracer.wrap(transport, fn, "transport." + fn)

    def verdict_seen(_args, verdict, _token):
        tracer.count("verifier.verdicts." + verdict.state_check.value)

    tracer.wrap(verifier, "scan", "verifier.scan")
    tracer.wrap(verifier.Verifier, "issue_challenge", "verifier.issue_challenge")
    tracer.wrap(verifier.Verifier, "verify_response", "verifier.verify_response", after=verdict_seen)


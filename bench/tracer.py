"""Spans around the library's public callables, installed from outside.

A Tracer replaces each callable where its caller looks it up (a module
global such as ``openweather.node.decode``, or a method on its class) with
a wrapper that records one span per call: id, name, start, end, parent
id, request id, self time and the exception raised, if any.  Spans stay
in memory until the run ends.  Self time is the span's duration minus the
time its direct child spans cover.  A span's request id is the id of its
nearest ``node.on_frame``, ``node.on_tick`` or ``node.open_session``
ancestor (itself included), or else of the outermost span on its thread,
so every span caused by one inbound frame or one timer tick shares it,
also inside the simulator's ``scenario.run``.

An observer sees the arguments and result of a call after its span
closed and returns a small record kept with the span's id, for counts
that need them (bytes encoded, hit or miss, frames fanned out).
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import threading
import time

# span name -> (module or class path, attribute); where the caller looks it up
TARGETS = (
    ("codec.decode", "openweather.node", "decode"),
    ("codec.validate", "openweather.node", "validate"),
    ("codec.encode", "openweather.node", "encode"),
    ("codec.validate", "openweather.codec", "validate"),  # called inside encode
    ("scenario.decode", "openweather.scenario", "decode"),
    ("vendor.to_data_block", "openweather.vendor", "to_data_block"),
    ("node.on_frame", "openweather.node:NodeRuntime", "on_frame"),
    ("node.on_tick", "openweather.node:NodeRuntime", "on_tick"),
    ("node.open_session", "openweather.node:NodeRuntime", "open_session"),
    ("engine.handle_message", "openweather.engine:Engine", "handle_message"),
    ("peers.select_peers", "openweather.peers:PeerTable", "select_peers"),
    ("peers.upsert", "openweather.peers:PeerTable", "upsert"),
    ("sensors.next_sample", "openweather.sensors:SampleGenerator", "next_sample"),
    ("sensors.store.insert", "openweather.sensors:SampleStore", "insert"),
    ("sensors.store.lookup", "openweather.sensors:SampleStore", "lookup"),
    ("simnet.send", "openweather.simnet:VirtualNetwork", "send"),
    ("simnet.advance", "openweather.simnet:VirtualNetwork", "advance"),
    ("scenario.run", "openweather.scenario:SimRunner", "run"),
    ("tcpnet.feed", "openweather.tcpnet:FrameSplitter", "feed"),
)

# spans that start a request: one inbound frame, one tick or one new connection
REQUEST_ROOTS = frozenset(("node.on_frame", "node.on_tick", "node.open_session"))

# the layer whose code runs inside a span; scenario.decode is codec work
LAYERS = ("codec", "scenario", "simnet", "node", "engine", "peers", "sensors", "vendor", "tcpnet")
SPAN_LAYER = {name: ("codec" if name == "scenario.decode" else name.split(".")[0]) for name, _, _ in TARGETS}

# the TCP node's wait for its next event; idle time, not a layer's work
IDLE = "tcpnet.wait"


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Collects spans from wrapped callables on any thread."""

    def __init__(self):
        self.spans: list = []  # (id, name, start, end, parent, request, self_s, error)
        self.observed: list = []  # (span name, span id, parent id, record)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list = []

    def install(self, observers=None) -> None:
        """Wrap every target; observers maps a span name to fn(args, result)."""
        observers = observers or {}
        for name, path, attribute in TARGETS:
            self.add(name, _resolve(path), attribute, observers.get(name))

    def add(self, name: str, owner, attribute: str, observer=None) -> None:
        """Wrap one callable of a module, class or object."""
        original = getattr(owner, attribute)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(name, original, observer))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    def _wrap(self, name: str, fn, observer):
        local = self._local
        ids = self._ids
        spans = self.spans
        observed = self.observed
        clock = time.perf_counter
        root = name in REQUEST_ROOTS

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            frame = [0.0, span_id, parent[2] if parent and not root else span_id]
            stack.append(frame)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                spans.append(
                    (span_id, name, start, end, parent[1] if parent else 0, frame[2], duration - frame[0], error)
                )
            if observer is not None:
                observed.append((name, span_id, parent[1] if parent else 0, observer(args, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- summaries --------------------------------------------------------------

    def by_name(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        table: dict = {}
        for _, name, start, end, _, _, self_s, _ in self.spans:
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return table

    def layer_self(self) -> dict:
        """layer -> self seconds of its spans; idle waits are left out."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.by_name().items():
            if name != IDLE:
                totals[SPAN_LAYER[name]] += self_s
        return totals

    def write(self, path) -> None:
        """Dump every span, one tab-separated line each, gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as handle:
            handle.write("id\tname\tstart\tend\tparent\trequest\tself_s\terror\n")
            for span in self.spans:
                handle.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\t%.9f\t%s\n" % (*span[:7], span[7] or ""))

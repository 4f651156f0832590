"""Scripted multi-node runs on the virtual network.

Scenario files are line oriented; ``#`` starts a comment.  Directives::

    start <rfc3339>                          clock base, default 1970 epoch
    node <name> [key=value ...]              declare a node
    link <a> <b> latency_ms=N bandwidth=N [loss=F]
    at <t_ms> <node> <command> [args]        run an operation at a virtual time

Node attributes: seed=N ip=ADDR port=N bandwidth=CLASS
location="<northing> <easting> <zone>" services=PTU,WIND,PRECIPITATION
interval=MS keep-alive=MS update-interval=MS peers-requested=N.

Commands: ``handshake <peer>``, ``discover <peer>``, ``peers <peer>``,
``stream <peer>``, ``stop <peer>``, ``fetch <peer> <timestamp> [svc,...]``.
Everything except handshake needs a prior handshake between the pair.

A run yields one trace event per emitted or delivered message::

    t=40 node1->node2 send type=100 bytes=375

where bytes counts the message without its framing newline, and type is
the code the sending node attached to the frame (no frame is decoded just
to label it).  Each step ticks only the nodes whose timers are due: a
node's next_due_ms() can change only inside its own on_tick, so the runner
caches it per node and refreshes it after each tick.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass, field

# decode is unused here but stays a module attribute: bench/tracer.py wraps scenario.decode
from .codec import UtmLocation, decode, parse_timestamp  # noqa: F401
from .engine import NodeConfig, StateError
from .identity import random_node_id
from .node import Hangup, NodeRuntime, Outbound
from .sensors import GeneratorConfig, SampleGenerator, SampleStore
from .simnet import LinkSpec, VirtualNetwork

DEFAULT_LOCATION = "6672224 385565 35V"
_COMMANDS = ("handshake", "discover", "peers", "stream", "stop", "fetch")


class ScenarioError(ValueError):
    """The scenario file or script cannot be executed."""


@dataclass
class NodeSpec:
    name: str
    seed: int = 0
    ip: str = ""
    port: int = 62535
    bandwidth: int = 6
    location: str = DEFAULT_LOCATION
    services: tuple = ("PTU", "WIND", "PRECIPITATION")
    interval_ms: int = 3000
    keep_alive_ms: int = 120000
    update_interval_ms: int = 120000
    peers_requested: int = 20


@dataclass
class Command:
    time_ms: int
    node: str
    verb: str
    args: tuple


@dataclass
class Scenario:
    start_ms: int = 0
    nodes: dict = field(default_factory=dict)
    links: list = field(default_factory=list)
    commands: list = field(default_factory=list)


def _attrs(tokens, where: str) -> dict:
    pairs = {}
    for token in tokens:
        if "=" not in token:
            raise ScenarioError("%s: expected key=value, got %r" % (where, token))
        key, value = token.split("=", 1)
        pairs[key] = value
    return pairs


def _int_attr(pairs: dict, key: str, default: int, where: str) -> int:
    if key not in pairs:
        return default
    try:
        return int(pairs[key], 10)
    except ValueError:
        raise ScenarioError("%s: %s must be an integer" % (where, key))


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioError with the line number."""
    scenario = Scenario()
    auto_ip = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        where = "line %d" % number
        try:
            tokens = shlex.split(raw, comments=True)
        except ValueError as exc:
            raise ScenarioError("%s: %s" % (where, exc))
        if not tokens:
            continue
        directive, rest = tokens[0], tokens[1:]
        if directive == "start":
            if len(rest) != 1:
                raise ScenarioError("%s: start takes one timestamp" % where)
            try:
                scenario.start_ms = parse_timestamp(rest[0])
            except ValueError as exc:
                raise ScenarioError("%s: %s" % (where, exc))
        elif directive == "node":
            if not rest:
                raise ScenarioError("%s: node needs a name" % where)
            name = rest[0]
            if name in scenario.nodes:
                raise ScenarioError("%s: duplicate node %r" % (where, name))
            pairs = _attrs(rest[1:], where)
            auto_ip += 1
            services = tuple(s for s in pairs.get("services", "PTU,WIND,PRECIPITATION").split(",") if s)
            spec = NodeSpec(
                name=name,
                seed=_int_attr(pairs, "seed", auto_ip, where),
                ip=pairs.get("ip", "10.0.0.%d" % auto_ip),
                port=_int_attr(pairs, "port", 62535, where),
                bandwidth=_int_attr(pairs, "bandwidth", 6, where),
                location=pairs.get("location", DEFAULT_LOCATION),
                services=services,
                interval_ms=_int_attr(pairs, "interval", 3000, where),
                keep_alive_ms=_int_attr(pairs, "keep-alive", 120000, where),
                update_interval_ms=_int_attr(pairs, "update-interval", 120000, where),
                peers_requested=_int_attr(pairs, "peers-requested", 20, where),
            )
            scenario.nodes[name] = spec
        elif directive == "link":
            if len(rest) < 2:
                raise ScenarioError("%s: link needs two node names" % where)
            a, b = rest[0], rest[1]
            for name in (a, b):
                if name not in scenario.nodes:
                    raise ScenarioError("%s: unknown node %r" % (where, name))
            pairs = _attrs(rest[2:], where)
            loss = 0.0
            if "loss" in pairs:
                try:
                    loss = float(pairs["loss"])
                except ValueError:
                    raise ScenarioError("%s: loss must be a number" % where)
            spec = LinkSpec(
                latency_ms=_int_attr(pairs, "latency_ms", 0, where),
                bandwidth_bps=_int_attr(pairs, "bandwidth", 100_000_000, where),
                loss=loss,
            )
            scenario.links.append((a, b, spec))
        elif directive == "at":
            if len(rest) < 3:
                raise ScenarioError("%s: at needs a time, a node and a command" % where)
            try:
                time_ms = int(rest[0], 10)
            except ValueError:
                raise ScenarioError("%s: bad time %r" % (where, rest[0]))
            node, verb = rest[1], rest[2]
            if node not in scenario.nodes:
                raise ScenarioError("%s: unknown node %r" % (where, node))
            if verb not in _COMMANDS:
                raise ScenarioError("%s: unknown command %r" % (where, verb))
            args = tuple(rest[3:])
            if verb != "fetch" and len(args) != 1:
                raise ScenarioError("%s: %s takes exactly one peer" % (where, verb))
            if verb == "fetch" and len(args) not in (2, 3):
                raise ScenarioError("%s: fetch takes <peer> <timestamp> [services]" % where)
            if args and args[0] not in scenario.nodes:
                raise ScenarioError("%s: unknown peer %r" % (where, args[0]))
            scenario.commands.append(Command(scenario.start_ms + time_ms, node, verb, args))
        else:
            raise ScenarioError("%s: unknown directive %r" % (where, directive))
    scenario.commands.sort(key=lambda c: c.time_ms)
    return scenario


@dataclass(frozen=True)
class TraceEvent:
    """One emitted (send) or delivered (recv) message.

    time_ms counts from the scenario start, matching `at` coordinates;
    size counts the message without its framing newline.
    """

    time_ms: int
    src: str
    dst: str
    kind: str  # "send" | "recv"
    code: int
    size: int

    def render(self) -> str:
        return "t=%d %s->%s %s type=%d bytes=%d" % (
            self.time_ms,
            self.src,
            self.dst,
            self.kind,
            self.code,
            self.size,
        )


class _SimNode:
    def __init__(self, spec: NodeSpec, start_ms: int):
        try:
            location = UtmLocation.parse(spec.location)
        except ValueError as exc:
            raise ScenarioError("node %s: %s" % (spec.name, exc))
        config = NodeConfig(
            node_id=random_node_id(spec.seed.to_bytes(32, "big")),
            location=location,
            bandwidth=spec.bandwidth,
            port=spec.port,
            advertise_ip=spec.ip,
            update_interval_ms=spec.update_interval_ms,
            peers_requested=spec.peers_requested,
            keep_alive_ms=spec.keep_alive_ms,
            services={name: "RO" for name in spec.services},
        )
        generator = SampleGenerator(GeneratorConfig(interval_ms=spec.interval_ms, seed=spec.seed))
        self.spec = spec
        self.runtime = NodeRuntime(
            config,
            generator=generator,
            store=SampleStore(),
            rng=random.Random(spec.seed),
            start_ms=start_ms,
        )


class SimRunner:
    """Execute a scenario deterministically, collecting a message trace.

    Each step ticks, in name order, only the nodes whose cached
    next_due_ms() has come; the cache entry of a node is refreshed right
    after its on_tick, the only call that moves its timers.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.net = VirtualNetwork(seed=1, start_ms=scenario.start_ms)
        self.nodes = {name: _SimNode(spec, scenario.start_ms) for name, spec in scenario.nodes.items()}
        for a, b, spec in scenario.links:
            self.net.set_link(a, b, spec)
        self._conns: dict = {}  # frozenset({a, b}) -> VirtualConnection
        self._by_id: dict = {}  # conn_id -> VirtualConnection, survives hangups
        self._queue = list(scenario.commands)
        self.trace: list = []
        self._names = sorted(self.nodes)
        # name -> next_due_ms() of its runtime, valid until that node's next on_tick
        self._due = {name: self.nodes[name].runtime.next_due_ms() for name in self._names}

    # -- plumbing --------------------------------------------------------------

    def _emit(self, src: str, outputs: list, now_ms: int) -> None:
        for output in outputs:
            if isinstance(output, Outbound):
                conn = output.key
                dst = conn.other(src)
                self.trace.append(
                    TraceEvent(
                        now_ms - self.scenario.start_ms,
                        src,
                        dst,
                        "send",
                        output.code,
                        len(output.frame) - 1,
                    )
                )
                self.net.send(conn, src, output.frame, output.code)
            elif isinstance(output, Hangup):
                conn = output.key
                dst = conn.other(src)
                self.nodes[dst].runtime.on_disconnect(conn, now_ms)
                self._conns.pop(frozenset((src, dst)), None)

    def _connection(self, a: str, b: str, create: bool = False):
        pair = frozenset((a, b))
        conn = self._conns.get(pair)
        if conn is None:
            if not create:
                raise ScenarioError("no session between %s and %s; handshake first" % (a, b))
            conn = self.net.connect(a, b)
            self._conns[pair] = conn
            self._by_id[conn.conn_id] = conn
            self.nodes[b].runtime.open_session(
                conn, remote_ip=self.nodes[a].spec.ip, remote_port=self.nodes[a].spec.port
            )
        return conn

    def _execute(self, command: Command, now_ms: int) -> None:
        try:
            self._dispatch(command, now_ms)
        except StateError as exc:
            relative = command.time_ms - self.scenario.start_ms
            raise ScenarioError("t=%d %s %s: %s" % (relative, command.node, command.verb, exc))

    def _dispatch(self, command: Command, now_ms: int) -> None:
        node = self.nodes[command.node]
        runtime = node.runtime
        verb = command.verb
        peer = command.args[0]
        if verb == "handshake":
            conn = self._connection(command.node, peer, create=True)
            outputs = runtime.connect(
                conn, now_ms, remote_ip=self.nodes[peer].spec.ip, remote_port=self.nodes[peer].spec.port
            )
        else:
            conn = self._connection(command.node, peer)
            if verb == "discover":
                outputs = runtime.request_services(conn, now_ms)
            elif verb == "peers":
                outputs = runtime.request_peers(conn, now_ms)
            elif verb == "stream":
                outputs = runtime.request_realtime(conn, now_ms)
            elif verb == "stop":
                outputs = runtime.stop_realtime(conn, now_ms)
            else:  # fetch
                timestamp = command.args[1]
                services = command.args[2].split(",") if len(command.args) == 3 else list(node.spec.services)
                outputs = runtime.request_on_demand(conn, services, timestamp, now_ms)
        self._emit(command.node, outputs, now_ms)

    # -- main loop ---------------------------------------------------------------

    def run(self, until_ms: int | None = None) -> list:
        """Run the script; the clock stops at until_ms (virtual, relative)."""
        if until_ms is None:
            last = self._queue[-1].time_ms if self._queue else self.scenario.start_ms
            horizon = last + 5000
        else:
            horizon = self.scenario.start_ms + until_ms
        while True:
            dues = []
            network = self.net.next_event_ms()
            if network is not None:
                dues.append(network)
            if self._queue:
                dues.append(self._queue[0].time_ms)
            # sensor timers always run so on-demand lookups can reach back
            if self._due:
                dues.append(min(self._due.values()))
            dues = [t for t in dues if t <= horizon]
            if not dues:
                break
            now = min(dues)
            for delivery in self.net.advance(now - self.net.clock.now_ms):
                frame = delivery.frame
                self.trace.append(
                    TraceEvent(
                        delivery.time_ms - self.scenario.start_ms,
                        delivery.src,
                        delivery.dst,
                        "recv",
                        delivery.code,
                        len(frame) - 1,
                    )
                )
                runtime = self.nodes[delivery.dst].runtime
                outputs = runtime.on_frame(self._conn_for(delivery), frame.rstrip(b"\n"), delivery.time_ms)
                self._emit(delivery.dst, outputs, delivery.time_ms)
            while self._queue and self._queue[0].time_ms <= now:
                self._execute(self._queue.pop(0), now)
            for name in self._names:
                if self._due[name] <= now:
                    runtime = self.nodes[name].runtime
                    self._emit(name, runtime.on_tick(now), now)
                    self._due[name] = runtime.next_due_ms()
        return self.trace

    def _conn_for(self, delivery):
        return self._by_id[delivery.conn_id]


def run_scenario(text: str, until_ms: int | None = None) -> list:
    """Parse and run scenario text; returns the trace events."""
    return SimRunner(parse_scenario(text)).run(until_ms=until_ms)

"""Scripted multi-node runs on the virtual network.

Scenario files are line oriented; ``#`` starts a comment.  Directives::

    start <rfc3339>                          clock base, default 1970 epoch
    node <name> [key=value ...]              declare a node
    link <a> <b> [key=value ...]             join two declared nodes
    at <t_ms> <node> <command> [args]        run an operation at a virtual time

Node attributes: seed=N ip=ADDR port=N bandwidth=CLASS
location="<northing> <easting> <zone>" services=PTU,WIND,PRECIPITATION
interval=MS keep-alive=MS update-interval=MS peers-requested=N.
Link attributes: latency_ms=N bandwidth=BPS loss=F.
Any other attribute is refused, and so is a value that the class using
it refuses, naming the line or the node.  A left-out attribute takes that
class's default, but the n-th node declared defaults to seed n and to
address 10.0.0.0 + n: 10.0.0.1 up to 10.0.0.255, then 10.0.1.0 onwards.

Commands, the verbs of engine.OPERATIONS: ``handshake <peer>``,
``discover <peer>``, ``peers <peer>``, ``stream <peer>``, ``stop <peer>``,
``fetch <peer> <timestamp> [svc,...]``.  Everything except handshake needs
a prior handshake between the pair, and a handshake needs a link.  The
time counts from the start and must not be negative.  A command that the
engine, the network or the codec refuses stops the run with an error
naming it, as ``t=<ms> <node> <verb>``.

A run yields one trace event per emitted or delivered message::

    t=40 node1->node2 send type=100 bytes=375

where bytes counts the message without its framing newline, and type is
the code the sending node attached to the frame (no frame is decoded just
to label it).  Each step ticks only the nodes whose timers are due: a
node's next_due_ms() can change only inside its own on_tick, so the runner
caches it per node and refreshes it after each tick.
"""

from __future__ import annotations

import ipaddress
import random
import shlex
from dataclasses import dataclass, field

# decode is unused here but stays a module attribute: bench/tracer.py wraps scenario.decode
from .codec import (  # noqa: F401
    DEFAULT_BANDWIDTH, DEFAULT_KEEP_ALIVE_MS, DEFAULT_PEERS_REQUESTED, DEFAULT_PORT, DEFAULT_UPDATE_INTERVAL_MS,
    SERVICES, EncodeError, UtmLocation, decode, parse_timestamp,
)
from .engine import OPERATIONS, NodeConfig, StateError
from .identity import random_node_id
from .node import Hangup, NodeRuntime, Outbound
from .sensors import GeneratorConfig, SampleGenerator, SampleStore
from .simnet import LinkSpec, NoLinkError, VirtualNetwork

DEFAULT_LOCATION = "6672224 385565 35V"
_AUTO_IP_BASE = ipaddress.IPv4Address("10.0.0.0")  # node n defaults to this + n


class ScenarioError(ValueError):
    """The scenario file or script cannot be executed."""


@dataclass
class NodeSpec:
    name: str
    seed: int = 0
    ip: str = ""
    port: int = DEFAULT_PORT
    bandwidth: int = DEFAULT_BANDWIDTH
    location: str = DEFAULT_LOCATION
    services: tuple = SERVICES
    interval_ms: int = GeneratorConfig.interval_ms
    keep_alive_ms: int = DEFAULT_KEEP_ALIVE_MS
    update_interval_ms: int = DEFAULT_UPDATE_INTERVAL_MS
    peers_requested: int = DEFAULT_PEERS_REQUESTED


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


# attribute -> (field of the spec it sets, reader of its text)
_NODE_ATTRS = {
    "seed": ("seed", int),
    "ip": ("ip", str),
    "port": ("port", int),
    "bandwidth": ("bandwidth", int),
    "location": ("location", str),
    "services": ("services", lambda text: tuple(name for name in text.split(",") if name)),
    "interval": ("interval_ms", int),
    "keep-alive": ("keep_alive_ms", int),
    "update-interval": ("update_interval_ms", int),
    "peers-requested": ("peers_requested", int),
}
_LINK_ATTRS = {
    "latency_ms": ("latency_ms", int),
    "bandwidth": ("bandwidth_bps", int),
    "loss": ("loss", float),
}


def _fields(tokens, table: dict, where: str) -> dict:
    """The spec fields that key=value tokens set, read through table."""
    values = {}
    for token in tokens:
        key, equals, text = token.partition("=")
        if not equals:
            raise ScenarioError("%s: expected key=value, got %r" % (where, token))
        if key not in table:
            raise ScenarioError("%s: unknown attribute %r" % (where, key))
        name, reader = table[key]
        try:
            values[name] = reader(text)
        except ValueError:  # only the int and float readers refuse a text
            raise ScenarioError("%s: %s must be %s" % (where, key, "a number" if reader is float else "an integer"))
    return values


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
            auto_ip += 1
            values = {"seed": auto_ip, "ip": str(_AUTO_IP_BASE + auto_ip)}
            values.update(_fields(rest[1:], _NODE_ATTRS, where))
            scenario.nodes[name] = NodeSpec(name, **values)
        elif directive == "link":
            if len(rest) < 2:
                raise ScenarioError("%s: link needs two node names" % where)
            a, b = rest[0], rest[1]
            for name in (a, b):
                if name not in scenario.nodes:
                    raise ScenarioError("%s: unknown node %r" % (where, name))
            values = _fields(rest[2:], _LINK_ATTRS, where)
            try:
                scenario.links.append((a, b, LinkSpec(**values)))
            except ValueError as exc:
                raise ScenarioError("%s: %s" % (where, exc))
        elif directive == "at":
            if len(rest) < 3:
                raise ScenarioError("%s: at needs a time, a node and a command" % where)
            try:
                time_ms = int(rest[0], 10)
            except ValueError:
                raise ScenarioError("%s: bad time %r" % (where, rest[0]))
            if time_ms < 0:
                raise ScenarioError("%s: time %d is before the start" % (where, time_ms))
            node, verb = rest[1], rest[2]
            if node not in scenario.nodes:
                raise ScenarioError("%s: unknown node %r" % (where, node))
            if verb not in OPERATIONS:
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
        self.spec = spec
        try:
            config = NodeConfig(
                node_id=random_node_id(spec.seed.to_bytes(32, "big")),
                location=UtmLocation.parse(spec.location),
                bandwidth=spec.bandwidth,
                port=spec.port,
                advertise_ip=spec.ip,
                update_interval_ms=spec.update_interval_ms,
                peers_requested=spec.peers_requested,
                keep_alive_ms=spec.keep_alive_ms,
                services={name: "RO" for name in spec.services},
            )
            generator = SampleGenerator(GeneratorConfig(interval_ms=spec.interval_ms, seed=spec.seed))
            self.runtime = NodeRuntime(
                config, generator=generator, store=SampleStore(), rng=random.Random(spec.seed), start_ms=start_ms
            )
        except OverflowError:  # from to_bytes: the seed is the node id's 32 bytes of entropy
            raise ScenarioError("node %s: seed must be from 0 to 2**256 - 1" % spec.name)
        except ValueError as exc:  # the class that uses a setting refuses its value
            raise ScenarioError("node %s: %s" % (spec.name, exc))


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

    def _connection(self, a: str, b: str, now_ms: int, dial: bool = False):
        """The connection between a and b; dial opens it, with a session at each end."""
        pair = frozenset((a, b))
        conn = self._conns.get(pair)
        if conn is None:
            if not dial:
                raise StateError("no session between %s and %s; handshake first" % (a, b))
            conn = self.net.connect(a, b)
            self._conns[pair] = conn
            self._by_id[conn.conn_id] = conn
            self.nodes[a].runtime.open_session(conn, now_ms)
            self.nodes[b].runtime.open_session(conn, now_ms)
        return conn

    def _execute(self, command: Command, now_ms: int) -> None:
        """Run one scripted operation; what refuses it becomes a ScenarioError naming it."""
        node = command.node
        verb = command.verb
        query = ()
        if verb == "fetch":
            services = command.args[2].split(",") if len(command.args) == 3 else self.nodes[node].spec.services
            query = (services, command.args[1])
        try:
            conn = self._connection(node, command.args[0], now_ms, dial=verb == "handshake")
            outputs = self.nodes[node].runtime.request(conn, verb, now_ms, *query)
        except (StateError, NoLinkError, EncodeError) as exc:
            relative = command.time_ms - self.scenario.start_ms
            raise ScenarioError("t=%d %s %s: %s" % (relative, node, verb, exc))
        self._emit(node, outputs, now_ms)

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

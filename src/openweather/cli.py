"""Operator command line.

Subcommands::

    owp run [--transport tcp|sim] ...      long-running node or scripted sim
    owp handshake HOST [--port N]          open a session, print the greeting
    owp discover HOST                      print the peer's service catalog
    owp peers HOST                         print the peer's peer listing
    owp stream HOST [--count N]            print N real-time data payloads
    owp fetch HOST TIMESTAMP [--services]  print one stored data payload

All printed JSON uses the canonical wire rendering, so output is
diff-stable across runs with fixed inputs.  Exit codes: 0 success,
1 usage, 2 transport failure or bad reply, 3 protocol status (6xx), 4 timeout.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

from .codec import (
    DEFAULT_BANDWIDTH,
    DEFAULT_KEEP_ALIVE_MS,
    DEFAULT_PEERS_REQUESTED,
    DEFAULT_PORT,
    DEFAULT_UPDATE_INTERVAL_MS,
    SERVICES,
    CodecError,
    EncodeError,
    UtmLocation,
    encode,
    payload_fragment,
)
from .engine import OPERATIONS, NodeConfig
from .identity import random_node_id
from .node import NodeRuntime
from .peers import BootstrapError, load_bootstrap
from .scenario import DEFAULT_LOCATION, ScenarioError, SimRunner, parse_scenario
from .sensors import GeneratorConfig, SampleGenerator, SampleStore, VendorLineSource
from .tcpnet import FramingError, NodeServer, PeerClient, ProtocolFault, time_ms
from .vendor import MappingError, load_field_map

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRANSPORT = 2
EXIT_PROTOCOL = 3
EXIT_TIMEOUT = 4

_DEFAULT = " (default: %(default)s)"  # a help text's tail
# the operations a one-shot command runs; stop only ends a stream, which owp stream does itself
ONE_SHOTS = tuple(verb for verb in OPERATIONS if verb != "stop")


class UsageError(ValueError):
    """Bad invocation; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for transport
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError("%s: %s" % (self.prog, message))


def _default_port() -> int:
    raw = os.environ.get("OWP_PORT", str(DEFAULT_PORT))
    try:
        return int(raw, 10)
    except ValueError:
        raise UsageError("OWP_PORT is not an integer: %r" % raw)


def _node_flags(parser) -> None:
    parser.add_argument("--id", help="64-hex node id (default: random)")
    parser.add_argument("--ip", default=NodeConfig.advertise_ip, help="advertised IP address" + _DEFAULT)
    parser.add_argument("--location", default=DEFAULT_LOCATION, metavar='"N E ZONE"', help="UTM position" + _DEFAULT)
    parser.add_argument("--bandwidth", type=int, default=DEFAULT_BANDWIDTH, help="bandwidth class 0-6" + _DEFAULT)
    for flag, default, metavar, text in (
        ("--keep-alive", DEFAULT_KEEP_ALIVE_MS, "MS", "idle session limit"),
        ("--update-interval", DEFAULT_UPDATE_INTERVAL_MS, "MS", "peer refresh period"),
        ("--peers-requested", DEFAULT_PEERS_REQUESTED, "N", "peers to ask for"),
    ):
        parser.add_argument(flag, type=int, default=default, metavar=metavar, help=text + _DEFAULT)
    parser.add_argument("--port", type=int, default=_default_port(), help="port; OWP_PORT sets the default" + _DEFAULT)
    parser.add_argument("--seed", type=int, default=GeneratorConfig.seed, help="sensor walk seed" + _DEFAULT)
    parser.add_argument("-v", "--verbose", action="count", default=0)


def build_parser() -> _Parser:
    """The owp parser; raises UsageError when OWP_PORT is not an integer."""
    parser = _Parser(prog="owp", description="OpenWeather node and client operations")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    run = commands.add_parser("run", help="run a node (tcp) or a scripted sim")
    _node_flags(run)
    run.add_argument("--transport", choices=("tcp", "sim"), default="tcp", help="real node or scripted sim" + _DEFAULT)
    run.add_argument("--scenario", metavar="FILE", help="scenario script (sim transport)")
    run.add_argument("--until", type=int, default=None, metavar="MS", help="sim horizon")
    run.add_argument("--host", default="127.0.0.1", help="bind address (tcp)" + _DEFAULT)
    run.add_argument("--bootstrap", metavar="FILE", help="super-node list to preload")
    run.add_argument(
        "--interval", type=int, default=GeneratorConfig.interval_ms, metavar="MS", help="sensor cadence" + _DEFAULT
    )
    run.add_argument("--vendor-input", metavar="FILE", help="replay instrument lines as samples")
    run.add_argument("--mapping", metavar="FILE", help="extra vendor field mappings (TSV)")

    one_shot = {}
    for name in ONE_SHOTS:
        sub = one_shot[name] = commands.add_parser(name, help="one-shot %s against a node" % name)
        sub.add_argument("host", help="target host")
        _node_flags(sub)
    one_shot["stream"].add_argument("--count", type=int, default=3, help="samples to read" + _DEFAULT)
    one_shot["fetch"].add_argument("timestamp", help="stored sample time (RFC 3339)")
    one_shot["fetch"].add_argument("--services", default=",".join(SERVICES), metavar="A,B", help="services" + _DEFAULT)
    return parser


def _build_config(args) -> NodeConfig:
    """The node's settings; the engine built from them refuses a header it cannot send."""
    try:
        location = UtmLocation.parse(args.location)
    except ValueError as exc:
        raise UsageError("--location: %s" % exc)
    return NodeConfig(
        node_id=random_node_id() if args.id is None else args.id,
        location=location,
        bandwidth=args.bandwidth,
        port=args.port,
        advertise_ip=args.ip,
        update_interval_ms=args.update_interval,
        peers_requested=args.peers_requested,
        keep_alive_ms=args.keep_alive,
    )


# -- run ------------------------------------------------------------------------


def _run_sim(args) -> int:
    if not args.scenario:
        raise UsageError("sim transport needs --scenario FILE")
    try:
        with open(args.scenario, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError("cannot read scenario: %s" % exc)
    try:
        runner = SimRunner(parse_scenario(text))
        trace = runner.run(until_ms=args.until)
    except ScenarioError as exc:
        raise UsageError(str(exc))
    for event in trace:
        print(event.render())
    return EXIT_OK


def _sample_source(args):
    lines = field_map = None
    if args.vendor_input is None:
        if args.mapping is not None:
            raise UsageError("--mapping needs --vendor-input")
    else:
        if args.mapping is not None:
            try:
                field_map = load_field_map(args.mapping)
            except (OSError, MappingError) as exc:
                raise UsageError("--mapping: %s" % exc)
        try:
            with open(args.vendor_input, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as exc:
            raise UsageError("cannot read vendor input: %s" % exc)
    try:
        if lines is None:
            return SampleGenerator(GeneratorConfig(interval_ms=args.interval, seed=args.seed))
        return VendorLineSource(lines, args.interval, field_map)
    except ValueError as exc:
        raise UsageError("--interval: %s" % exc)


def _run_tcp(args) -> int:
    config = _build_config(args)
    runtime = NodeRuntime(
        config,
        generator=_sample_source(args),
        store=SampleStore(),
        start_ms=time_ms(),  # anchor sample/sweep timers to the wall clock
    )
    if args.bootstrap:
        try:
            for record in load_bootstrap(args.bootstrap):
                runtime.engine.peer_table.upsert(record)
        except (OSError, BootstrapError) as exc:
            raise UsageError("--bootstrap: %s" % exc)
    server = NodeServer(runtime, host=args.host, port=config.port)
    try:
        server.start()
    except OSError as exc:
        print("owp: cannot listen on %s:%d: %s" % (args.host, config.port, exc), file=sys.stderr)
        return EXIT_TRANSPORT
    if args.verbose:
        print("owp: listening on %s:%d" % (args.host, server.port), file=sys.stderr)
    stop = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    except ValueError:
        pass  # only the main thread may set handlers
    try:
        while not stop.is_set():
            stop.wait(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def cmd_run(args) -> int:
    if args.transport == "sim":
        return _run_sim(args)
    return _run_tcp(args)


# -- one-shot client operations ---------------------------------------------------


def cmd_one_shot(args) -> int:
    """Handshake with the node at args.host, run the command's operation, print what it returns, hang up."""
    verb = args.command
    query = ()
    if verb == "stream" and args.count < 1:
        raise UsageError("--count must be positive")
    if verb == "fetch":
        services = [name for name in args.services.split(",") if name]
        if not services:
            raise UsageError("--services must name at least one service")
        query = (services, args.timestamp)
    config = _build_config(args)
    timeout_s = max(0.05, 2 * args.keep_alive / 1000.0)
    client = PeerClient(args.host, config.port, config, timeout_s=timeout_s)
    try:
        greeting = client.request("handshake")
        if verb == "stream":
            for envelope in client.stream(args.count):
                _print_payload(envelope)
            client.request("stop")
        else:
            _print_payload(greeting if verb == "handshake" else client.request(verb, *query))
    finally:
        client.close()
    return EXIT_OK


def _print_payload(envelope) -> None:
    fragment = payload_fragment(envelope)
    print(fragment if fragment is not None else encode(envelope).decode("utf-8"))


_COMMANDS = {"run": cmd_run, **dict.fromkeys(ONE_SHOTS, cmd_one_shot)}


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return _COMMANDS[args.command](args)
    except (UsageError, EncodeError) as exc:
        # an EncodeError: validation refused a request, or a node header, before it hit the wire
        print("owp: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ProtocolFault as fault:
        print("status %d" % fault.code)
        return EXIT_PROTOCOL
    except TimeoutError:
        print("owp: timed out waiting for the peer", file=sys.stderr)
        return EXIT_TIMEOUT
    except (CodecError, FramingError) as exc:
        # the peer's reply does not frame, decode or validate
        print("owp: bad reply from the peer: %s" % exc, file=sys.stderr)
        return EXIT_TRANSPORT
    except (ConnectionError, OSError) as exc:
        print("owp: transport failure: %s" % exc, file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())

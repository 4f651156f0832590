"""The tcp-rpc and tcp-stream workloads: a node in its own process on loopback.

The node runs bench/node_server.py.  The client is this process: one
thread, at most two connections.  Request frames are encoded from the
generated inputs before the clock starts; replies are kept and checked
after it stops, so decoding them costs the measured loop nothing.
"""

from __future__ import annotations

import json
import selectors
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from openweather.codec import (
    CodecError,
    Envelope,
    RetrieveRequest,
    UtmLocation,
    decode,
    encode,
    format_timestamp,
    parse_timestamp,
    validate,
)
from openweather.engine import NodeConfig, build_metainfo
from openweather.identity import random_node_id
from openweather.sensors import GeneratorConfig, SampleGenerator
from openweather.vendor import to_data_block

from metrics import Failures, account, timing
from workloads import LOCATION

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5
READY_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 5.0
MAX_FAILURES = 20
TRACED_PASSES = 3  # passes over the request list in each phase of a traced tcp-rpc run
TRACED_STREAM_S = 10.0  # longest phase of a traced tcp-stream run
# share of the traced timeline that spans may leave uncovered
RPC_UNSPANNED_LIMIT = 0.35
STREAM_UNSPANNED_LIMIT = 0.10
# the reply that answers each request kind
REPLY_CODE = {"handshake": 101, "discover": 103, "peers": 105, "fetch": 301, "miss": 601}


# -- the node process --------------------------------------------------------------


class NodeProcess:
    """bench/node_server.py in a subprocess; always waited for."""

    def __init__(self, spec: dict, out_dir: Path, tag: str):
        self.spec_path = out_dir / ("spec-%s.json" % tag)
        self.result_path = out_dir / ("result-%s.json" % tag)
        spec = dict(spec, result_path=str(self.result_path))
        self.spec_path.write_text(json.dumps(spec), encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "node_server.py"), str(self.spec_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self.proc.stdout, selectors.EVENT_READ)
                if not selector.select(READY_TIMEOUT_S):
                    raise RuntimeError("node did not start within %g s" % READY_TIMEOUT_S)
            line = self.proc.stdout.readline().split()
            if len(line) != 2 or line[0] != "READY":
                raise RuntimeError("node failed to start (exit %s)" % self.proc.poll())
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self.port = int(line[1])

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def stop(self) -> dict:
        """Ask the node to stop; returns its result."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            if self.proc.wait(timeout=30) != 0:
                raise RuntimeError("node exited with %d" % self.proc.returncode)
        except BaseException:
            self.kill()
            raise
        self.proc.stdout.close()
        return json.loads(self.result_path.read_text(encoding="utf-8"))


def _start(spec: dict, out_dir: Path, tag: str, repeats: int) -> tuple:
    """Start the node `repeats` times; keeps the last, returns it and every set-up time."""
    times = []
    for attempt in range(repeats):
        node = NodeProcess(spec, out_dir, tag)
        times.append(node.setup_s)
        if attempt < repeats - 1:
            node.stop()
    return node, times


class Conn:
    """A blocking client connection with newline framing."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S)
        self.buffer = bytearray()

    def lines(self, chunk: bytes) -> list:
        """Complete lines after adding chunk to what was buffered."""
        self.buffer += chunk
        *complete, rest = self.buffer.split(b"\n")
        self.buffer = bytearray(rest)
        return [bytes(line) for line in complete]

    def line(self) -> bytes:
        """The next line; blocks until it is complete."""
        while True:
            cut = self.buffer.find(b"\n")
            if cut >= 0:
                line = bytes(self.buffer[:cut])
                del self.buffer[: cut + 1]
                return line
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed by the node")
            self.buffer += chunk

    def ask(self, frame: bytes) -> bytes:
        self.sock.sendall(frame)
        return self.line()

    def close(self) -> None:
        self.sock.close()


def _client_config(seed: int) -> NodeConfig:
    return NodeConfig(
        node_id=random_node_id(seed.to_bytes(32, "big")),
        location=UtmLocation.parse(LOCATION),
        bandwidth=6,
        port=50000,
        peers_requested=100,
    )


def _frame(config: NodeConfig, code: int, now_ms: int, retrieve=None) -> bytes:
    envelope = Envelope(code, build_metainfo(config, "127.0.0.1", now_ms), retrieve=retrieve)
    return encode(envelope) + b"\n"


def _decode_checked(raw: bytes, failures: Failures, what: str):
    try:
        envelope = decode(raw)
    except CodecError as exc:
        failures.add("%s: undecodable reply: %s" % (what, exc))
        return None
    report = validate(envelope)
    if not report.ok:
        failures.add("%s: invalid reply: %s" % (what, "; ".join(report.problems)))
        return None
    return envelope


# -- tcp-rpc -------------------------------------------------------------------------


def _rpc_frames(inputs: dict) -> tuple:
    config = _client_config(inputs["client_seed"])
    base = parse_timestamp(inputs["store"]["start"])
    handshake = _frame(config, 100, base)
    discover = _frame(config, 102, base)
    peers = _frame(config, 107, base)
    frames, stamps = [], []
    for request in inputs["requests"]:
        if request["kind"] in ("fetch", "miss"):
            stamp = format_timestamp(base + request["second"] * 1000)
            retrieve = RetrieveRequest(services=tuple(request["services"]), timestamp=stamp)
            frames.append(_frame(config, 201, base, retrieve))
            stamps.append(stamp)
        else:
            frames.append(discover if request["kind"] == "discover" else peers)
            stamps.append(None)
    return handshake, frames, stamps


def _rpc_loop(port: int, inputs: dict, handshake: bytes, frames: list, seconds, passes, failures: Failures) -> dict:
    """Closed loop over one connection, reconnecting every N operations."""
    requests = inputs["requests"]
    every = inputs["reconnect_every"]
    clock = time.perf_counter
    rtts, connects, all_rtts, replies, sizes = [], [], [], [], []
    conn = None
    index = 0
    start = clock()
    deadline = start + seconds if seconds else None
    limit = passes * len(requests) if passes else None
    while failures.count < MAX_FAILURES:
        if deadline is not None and clock() >= deadline:
            break
        if limit is not None and index >= limit:
            break
        slot = index % len(requests)
        try:
            if conn is None or index % every == 0:
                if conn is not None:
                    conn.close()
                began = clock()
                conn = Conn(port)
                reply = conn.ask(handshake)
                elapsed = clock() - began
                connects.append(elapsed)
                all_rtts.append(elapsed)
                replies.append(("handshake", None, reply))
                sizes.extend((len(handshake) - 1, len(reply)))
            frame = frames[slot]
            began = clock()
            reply = conn.ask(frame)
            elapsed = clock() - began
        except OSError as exc:  # timeouts and resets included
            failures.add("operation %d (%s): %s" % (index, requests[slot]["kind"], exc))
            conn = None
            index += 1
            continue
        rtts.append(elapsed)
        all_rtts.append(elapsed)
        replies.append((requests[slot]["kind"], slot, reply))
        sizes.extend((len(frame) - 1, len(reply)))
        index += 1
    wall = clock() - start
    if conn is not None:
        conn.close()
    return {"wall": wall, "rtts": rtts, "connects": connects, "all_rtts": all_rtts, "replies": replies,
            "sizes": sizes, "attempted": index}


def _check_rpc(inputs: dict, stamps: list, replies: list, failures: Failures) -> None:
    stored = inputs["store"]
    generator = SampleGenerator(GeneratorConfig(interval_ms=stored["interval_ms"], seed=stored["seed"]))
    base = parse_timestamp(stored["start"])
    blocks = [to_data_block(generator.next_sample(base + i * stored["interval_ms"])) for i in range(stored["count"])]
    wanted_peers = min(100, inputs["peer_count"])
    groups = {"PTU": "ptu", "WIND": "wind", "PRECIPITATION": "precipitation"}
    for kind, slot, raw in replies:
        what = "%s #%s" % (kind, slot)
        envelope = _decode_checked(raw, failures, what)
        if envelope is None:
            continue
        code = int(envelope.type_code)
        if code != REPLY_CODE[kind]:
            failures.add("%s: answered with type %d, wanted %d" % (what, code, REPLY_CODE[kind]))
            continue
        if kind == "peers" and len(envelope.info.peers) != wanted_peers:
            failures.add("%s: %d peers listed, wanted %d" % (what, len(envelope.info.peers), wanted_peers))
        if kind == "fetch":
            if envelope.meta.timestamp != stamps[slot]:
                failures.add("%s: asked for %s, reply stamped %s" % (what, stamps[slot], envelope.meta.timestamp))
            request = inputs["requests"][slot]
            expected = blocks[request["second"]]
            for service in request["services"]:
                attribute = groups[service]
                if getattr(envelope.data, attribute) != getattr(expected, attribute):
                    failures.add("%s: %s data differs from the stored sample" % (what, service))


def _rpc_spec(inputs: dict, out_dir: Path, traced: bool, tag: str) -> dict:
    bootstrap = out_dir / ("bootstrap-%s.txt" % tag)
    bootstrap.write_text(inputs["bootstrap"], encoding="ascii")
    return {
        "node_seed": inputs["server_seed"],
        "bootstrap_path": str(bootstrap),
        "store": inputs["store"],
        "trace": traced,
        "spans_path": None,
    }


def _transport_us(all_rtts: list, on_frame_s: list) -> float:
    """Median of (client round trip - node on_frame time), matched in order."""
    pairs = list(zip(all_rtts, on_frame_s))
    return statistics.median(r - f for r, f in pairs) * 1e6 if pairs else 0.0


def run_rpc(inputs: dict, seconds: float, traced: bool, spans_path, out_dir: Path) -> dict:
    failures = Failures()
    handshake, frames, stamps = _rpc_frames(inputs)
    tag = "tcp-rpc"
    if not traced:
        node, setup = _start(_rpc_spec(inputs, out_dir, False, tag), out_dir, tag, SETUP_REPEATS)
        try:
            loop = _rpc_loop(node.port, inputs, handshake, frames, seconds, None, failures)
        finally:
            served = node.stop()
        _check_rpc(inputs, stamps, loop["replies"], failures)
        req, connect = timing([r * 1000 for r in loop["rtts"]]), timing([c * 1000 for c in loop["connects"]])
        messages = len(loop["all_rtts"])
        return {
            "attempted": loop["attempted"] + len(loop["connects"]),
            "failed": failures.count,
            "failures": failures.notes,
            "metrics": {
                "throughput_per_s": len(loop["rtts"]) / loop["wall"],
                "latency_p50_ms": req["p50"],
                "latency_p99_ms": req["p99"],
                "wire_bytes_per_msg": statistics.fmean(loop["sizes"]),
                "peak_rss_mb": served["peak_rss_mb"],
                "setup_s": statistics.median(setup),
            },
            "named": [
                ("cpu_us_per_msg", served["cpu_s"] * 1e6 / messages, "us", "node CPU us per request"),
                ("req_n", req["n"], "count"),
                ("req_tail_ms", req["tail"], "ms", "p%g" % req["tail_p"]),
                ("connect_p50_ms", connect["p50"], "ms", "connect + handshake"),
                ("connect_p99_ms", connect["p99"], "ms"),
                ("connect_n", connect["n"], "count"),
                ("sessions_held", served["sessions_held"], "count", "sessions the node still holds at the end"),
                ("peers_table_size", served["table_size"], "count"),
            ],
            "layers": None,
        }

    # traced: the same passes over the request list untraced, then traced
    cpu_per_msg = []
    for traced_phase in (False, True):
        spec = _rpc_spec(inputs, out_dir, traced_phase, tag)
        spec["spans_path"] = str(spans_path)
        node, _ = _start(spec, out_dir, tag, 1)
        try:
            loop = _rpc_loop(node.port, inputs, handshake, frames, None, TRACED_PASSES, failures)
        finally:
            served = node.stop()
        _check_rpc(inputs, stamps, loop["replies"], failures)
        cpu_per_msg.append(served["cpu_s"] / len(loop["all_rtts"]))
    layers = served["layers"]
    layers["tcpnet.transport_us"] = _transport_us(loop["all_rtts"], served["on_frame_s"])
    overhead_pct = 100.0 * (cpu_per_msg[1] - cpu_per_msg[0]) / cpu_per_msg[0]
    # the closed loop's timeline is the client's: its own time between round
    # trips, and in each round trip the node's spans for that request; the
    # rest is transport (sockets, reader thread, event queue, wake-ups)
    problem = account(layers, loop["wall"], loop["wall"] - sum(loop["all_rtts"]), 0.0, overhead_pct,
                      RPC_UNSPANNED_LIMIT)
    if problem:
        failures.add(problem)
    return {"attempted": loop["attempted"], "failed": failures.count, "failures": failures.notes,
            "metrics": None, "named": [], "layers": layers}


# -- tcp-stream ----------------------------------------------------------------------


def _stream_spec(inputs: dict, traced: bool, spans_path) -> dict:
    return {
        "node_seed": inputs["server_seed"],
        "generator": inputs["generator"],
        "trace": traced,
        "trace_idle": traced,
        "spans_path": str(spans_path) if spans_path else None,
    }


def _stream_loop(port: int, inputs: dict, seconds: float, failures: Failures) -> dict:
    """Two listen-only subscribers read by this one thread."""
    clock = time.perf_counter
    interval = inputs["generator"]["interval_ms"] / 1000.0
    configs = [_client_config(seed) for seed in inputs["client_seeds"]]
    conns, all_rtts = [], []
    start = clock()
    for config in configs:
        began = clock()
        conn = Conn(port)
        reply = conn.ask(_frame(config, 100, time.time_ns() // 1_000_000))
        all_rtts.append(clock() - began)
        envelope = _decode_checked(reply, failures, "handshake")
        if envelope is not None and int(envelope.type_code) != 101:
            failures.add("handshake answered with type %d" % int(envelope.type_code))
        conns.append(conn)
    # let the node store a few samples, so that the first frame after each
    # subscribe is the stored latest sample and the rest follow the grid
    time.sleep(10 * interval)
    arrivals = [[] for _ in conns]
    frames = [[] for _ in conns]
    subscribed_at = []
    with selectors.DefaultSelector() as selector:
        for index, (conn, config) in enumerate(zip(conns, configs)):
            conn.sock.setblocking(False)
            selector.register(conn.sock, selectors.EVENT_READ, index)
            conn.sock.sendall(_frame(config, 200, time.time_ns() // 1_000_000))
            subscribed_at.append(clock())
        deadline = clock() + seconds
        while clock() < deadline:
            wait = min(1.0, deadline - clock())
            ready = selector.select(timeout=max(0.0, wait))
            now = clock()
            if not ready and wait >= 1.0:
                failures.add("no frame for 1 s")
            for key, _ in ready:
                index = key.data
                chunk = conns[index].sock.recv(65536)
                if not chunk:
                    failures.add("subscriber %d was hung up" % index)
                    selector.unregister(key.fileobj)
                    continue
                for line in conns[index].lines(chunk):
                    arrivals[index].append(now)
                    frames[index].append(line)
    window = clock() - start
    for conn in conns:
        conn.close()
    for index in range(len(conns)):
        if arrivals[index]:
            all_rtts.append(arrivals[index][0] - subscribed_at[index])
    return {"arrivals": arrivals, "frames": frames, "interval": interval, "wall": window,
            "all_rtts": all_rtts, "stream_s": deadline - min(subscribed_at)}


def _check_stream(loop: dict, failures: Failures) -> tuple:
    """Decode every frame; returns (lags in ms, frame sizes)."""
    lags, sizes = [], []
    interval = loop["interval"]
    expected = loop["stream_s"] / interval
    for index, (arrivals, frames) in enumerate(zip(loop["arrivals"], loop["frames"])):
        previous = ""
        for number, raw in enumerate(frames):
            sizes.append(len(raw))
            envelope = _decode_checked(raw, failures, "subscriber %d frame %d" % (index, number))
            if envelope is None:
                continue
            if int(envelope.type_code) != 300:
                failures.add("subscriber %d frame %d: type %d" % (index, number, int(envelope.type_code)))
            # frames on the sampling grid carry their sample's time, so their
            # stamps never go back; the first frame is stamped when it is
            # assembled, which can be after the next grid frame's sample
            if number > 1 and envelope.meta.timestamp < previous:
                failures.add("subscriber %d frame %d: timestamp went back" % (index, number))
            previous = envelope.meta.timestamp
        if len(frames) < 0.9 * expected:
            failures.add("subscriber %d got %d frames, expected about %d" % (index, len(frames), expected))
        # the first frame is the latest stored sample, sent on subscribe; the
        # rest follow the sampling grid
        ticks = arrivals[1:]
        if ticks:
            anchor = min(t - k * interval for k, t in enumerate(ticks))
            lags.extend((t - k * interval - anchor) * 1000.0 for k, t in enumerate(ticks))
    return lags, sizes


def run_stream(inputs: dict, seconds: float, traced: bool, spans_path, out_dir: Path) -> dict:
    failures = Failures()
    tag = "tcp-stream"
    if not traced:
        node, setup = _start(_stream_spec(inputs, False, None), out_dir, tag, SETUP_REPEATS)
        try:
            loop = _stream_loop(node.port, inputs, seconds, failures)
        finally:
            served = node.stop()
        lags, sizes = _check_stream(loop, failures)
        lag = timing(lags)
        delivered = len(sizes)
        return {
            "attempted": delivered + 4,  # plus two handshakes and two subscribes
            "failed": failures.count,
            "failures": failures.notes,
            "metrics": {
                "throughput_per_s": delivered / loop["stream_s"],
                "latency_p50_ms": lag["p50"],
                "latency_p99_ms": lag["p99"],
                "wire_bytes_per_msg": statistics.fmean(sizes) if sizes else 0.0,
                "peak_rss_mb": served["peak_rss_mb"],
                "setup_s": statistics.median(setup),
            },
            "named": [
                ("cpu_us_per_msg", served["cpu_s"] * 1e6 / max(1, delivered), "us", "node CPU us per frame"),
                ("stream_lag_n", lag["n"], "count"),
                ("stream_lag_tail_ms", lag["tail"], "ms", "p%g" % lag["tail_p"] if lag["tail_p"] else "max"),
                ("interval_ms", inputs["generator"]["interval_ms"], "ms", "sampling cadence"),
            ],
            "layers": None,
        }

    cpu_per_msg = []
    for traced_phase in (False, True):
        node, _ = _start(_stream_spec(inputs, traced_phase, spans_path), out_dir, tag, 1)
        try:
            loop = _stream_loop(node.port, inputs, min(seconds, TRACED_STREAM_S), failures)
        finally:
            served = node.stop()
        _, sizes = _check_stream(loop, failures)
        cpu_per_msg.append(served["cpu_s"] / max(1, len(sizes)))
    layers = served["layers"]
    layers["tcpnet.transport_us"] = _transport_us(loop["all_rtts"], served["on_frame_s"])
    overhead_pct = 100.0 * (cpu_per_msg[1] - cpu_per_msg[0]) / cpu_per_msg[0]
    # the stream's timeline is the node's coordinator thread, from server start
    # to stop: it waits for an event or the poll timeout, then ticks; the
    # client reads in its own process and takes none of that time
    problem = account(layers, served["wall_s"], 0.0, served["idle_s"], overhead_pct, STREAM_UNSPANNED_LIMIT)
    if problem:
        failures.add(problem)
    return {"attempted": len(sizes) + 4, "failed": failures.count, "failures": failures.notes,
            "metrics": None, "named": [], "layers": layers}


def run(workload: str, inputs: dict, seconds: float, traced: bool, spans_path, out_dir: Path) -> dict:
    if workload == "tcp-rpc":
        return run_rpc(inputs, seconds, traced, spans_path, out_dir)
    return run_stream(inputs, seconds, traced, spans_path, out_dir)

"""Socket transport: newline framing, the event-loop server, the blocking client."""

import socket
import threading
import time

import pytest
from hypothesis import given, strategies as st

from openweather import cli, node, tcpnet
from openweather.codec import ProtocolCode, UtmLocation, decode, encode
from openweather.engine import Engine, NodeConfig, Session
from openweather.identity import random_node_id
from openweather.node import NodeRuntime
from openweather.peers import PeerRecord
from openweather.sensors import GeneratorConfig, SampleGenerator, SampleStore
from openweather.tcpnet import (
    MAX_FRAME,
    FramingError,
    FrameSplitter,
    NodeServer,
    PeerClient,
    ProtocolFault,
    time_ms,
)

LOCATION = UtmLocation.parse("6672224 385565 35V")


def make_config(seed: int, port: int = 62535, services: dict | None = None) -> NodeConfig:
    config = NodeConfig(
        node_id=random_node_id(bytes([seed]) * 32),
        location=LOCATION,
        bandwidth=6,
        port=port,
    )
    if services is not None:
        config.services = services
    return config


def make_server(seed: int = 1, interval_ms: int = 200, services: dict | None = None) -> NodeServer:
    runtime = NodeRuntime(
        make_config(seed, services=services),
        generator=SampleGenerator(GeneratorConfig(interval_ms=interval_ms, seed=seed)),
        store=SampleStore(),
        local_ip="127.0.0.1",
        start_ms=time_ms(),
    )
    # port 0 lets the OS pick a free one
    return NodeServer(runtime, port=0)


def make_client(port: int, seed: int = 9) -> PeerClient:
    return PeerClient("127.0.0.1", port, make_config(seed, port=50000 + seed), timeout_s=5.0)


# -- framing -------------------------------------------------------------------


def test_splitter_reassembles_fragments():
    splitter = FrameSplitter()
    assert splitter.feed(b"alpha") == []
    assert splitter.feed(b" one\nbe") == [b"alpha one"]
    assert splitter.feed(b"ta\ngamma\n") == [b"beta", b"gamma"]
    assert splitter.feed(b"") == []


def test_splitter_keeps_trailing_partial():
    splitter = FrameSplitter()
    assert splitter.feed(b"one\ntwo") == [b"one"]
    assert splitter.feed(b"\n") == [b"two"]


def test_splitter_empty_line_is_an_empty_frame():
    assert FrameSplitter().feed(b"\n") == [b""]


def test_splitter_frame_at_limit_passes():
    splitter = FrameSplitter(limit=8)
    assert splitter.feed(b"x" * 8 + b"\n") == [b"x" * 8]


def test_splitter_oversized_frame_raises():
    splitter = FrameSplitter(limit=8)
    with pytest.raises(FramingError):
        splitter.feed(b"x" * 9 + b"\n")


def test_splitter_unterminated_overflow_raises():
    splitter = FrameSplitter(limit=8)
    splitter.feed(b"x" * 8)  # at the cap, still waiting for the newline
    with pytest.raises(FramingError):
        splitter.feed(b"x")


def test_splitter_default_limit_is_64k():
    assert MAX_FRAME == 64 * 1024
    splitter = FrameSplitter()
    assert splitter.feed(b"y" * MAX_FRAME + b"\n") == [b"y" * MAX_FRAME]


PIECES = st.sampled_from([b"\n", b"a", b"bc", b"\xff", b"0123456789"])


@given(st.lists(PIECES, max_size=60).map(b"".join), st.lists(st.integers(0, 600), max_size=12))
def test_any_chunking_yields_the_frames_of_the_whole_stream(stream, cuts):
    limit = 16
    try:
        whole, whole_failed = FrameSplitter(limit).feed(stream), False
    except FramingError:
        whole, whole_failed = None, True
    points = sorted({min(cut, len(stream)) for cut in cuts})
    splitter, got, failed = FrameSplitter(limit), [], False
    try:
        for start, end in zip([0] + points, points + [len(stream)]):
            got.extend(splitter.feed(stream[start:end]))
    except FramingError:
        failed = True
    assert failed == whole_failed
    if whole_failed:
        assert got == stream.split(b"\n")[: len(got)]
    else:
        assert got == whole


# -- server lifecycle ----------------------------------------------------------


def test_port_requires_started_server():
    server = make_server()
    with pytest.raises(RuntimeError):
        server.port
    server.start()
    try:
        assert server.port > 0
    finally:
        server.stop()


def test_stop_is_idempotent():
    server = make_server()
    server.start()
    server.stop()
    server.stop()


# -- client operations ---------------------------------------------------------


def test_handshake_and_discovery_roundtrip():
    server = make_server(seed=2)
    server.start()
    client = make_client(server.port)
    try:
        reply = client.request("handshake")
        assert int(reply.type_code) == ProtocolCode.HANDSHAKE_S
        assert reply.meta.node_id == server.runtime.config.node_id

        catalog = client.request("discover")
        assert int(catalog.type_code) == ProtocolCode.SERVICES_AVAILABLE_R
        assert catalog.info.services == {"PTU": "RO", "WIND": "RO", "PRECIPITATION": "RO"}

        # the server learned the client during the handshake
        table = server.runtime.engine.peer_table
        assert client.engine.config.node_id in {record.node_id for record in table.snapshot()}
    finally:
        client.close()
        server.stop()


def test_one_shots_leave_no_record_at_the_nodes_own_address():
    server = make_server(seed=2)
    server.start()
    port = server.port
    server.runtime.config.port = port  # advertise the port it listens on, as `owp run --port` does
    try:
        for verb in ("handshake", "discover", "peers", "handshake", "peers"):
            # each `owp` one-shot: a fresh random id, the target's port, the socket's address
            config = cli._build_config(cli.build_parser().parse_args([verb, "127.0.0.1", "--port", str(port)]))
            client = PeerClient("127.0.0.1", port, config, timeout_s=5.0)
            try:
                client.request("handshake")
                if verb != "handshake":
                    reply = client.request(verb)
                    if verb == "peers":
                        assert reply.info.peers == {}
            finally:
                client.close()
        table = server.runtime.engine.peer_table.snapshot()
        assert [(r.peer_ip, r.port) for r in table if (r.peer_ip, r.port) == ("127.0.0.1", port)] == []
    finally:
        server.stop()


def test_client_decodes_each_reply_once(monkeypatch):
    decoded = []

    def counting(module):
        original = module.decode_checked

        def decode_and_count(frame):
            decoded.append(frame)
            return original(frame)

        monkeypatch.setattr(module, "decode_checked", decode_and_count)

    counting(tcpnet)  # the client's replies
    counting(node)  # the server's requests
    server = make_server(seed=2)
    server.start()
    port = server.port
    client = make_client(port)
    try:
        client.request("handshake")
        client.request("discover")
    finally:
        client.close()
        server.stop()
    # two requests and two replies, each decoded by its receiver alone
    assert len(decoded) == 4
    # the client's engine still took the replies in: the handshake reply registered the server
    assert client.session.remote.node_id == server.runtime.config.node_id


def test_client_answers_what_the_node_sends_as_the_engine_says():
    # the fake node is a second engine behind a listening socket
    fake, session = Engine(make_config(3), local_ip="127.0.0.1"), Session()
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(5.0)
    received = []

    def serve():
        try:
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5.0)
                splitter, inbox = FrameSplitter(), []

                def read():
                    while not inbox:
                        data = conn.recv(65536)
                        if not data:
                            raise ConnectionError("the client hung up early")
                        inbox.extend(splitter.feed(data))
                    return decode(inbox.pop(0))

                def send(envelopes):
                    conn.sendall(b"".join(encode(e) + b"\n" for e in envelopes))

                now = time_ms()
                # the 101, then a request for the client's catalog and a PTU fetch of its store
                send(fake.handle_message(session, read(), now))
                send(fake.request(session, "discover", now))
                send(fake.request(session, "fetch", now, ["PTU"], "2000-01-01T00:00:00Z"))
                received.extend(read() for _ in range(3))
                send(fake.handle_message(session, received[0], time_ms()))  # the 105
                conn.recv(65536)  # until the client hangs up
        except OSError:
            pass

    peer = threading.Thread(target=serve, daemon=True)
    peer.start()
    client = make_client(listener.getsockname()[1])
    try:
        assert int(client.request("handshake").type_code) == ProtocolCode.HANDSHAKE_S
        assert int(client.request("peers").type_code) == ProtocolCode.LIST_PEERS_R
    finally:
        client.close()
        listener.close()
        peer.join(timeout=2)
    assert not peer.is_alive()
    # the 601 comes from the client's empty store; a 602 would mean it has none
    assert [int(e.type_code) for e in received] == [107, 103, 601]


def test_peer_listing_excludes_the_requester():
    server = make_server(seed=3)
    for n in (5, 6):
        server.runtime.engine.peer_table.upsert(
            PeerRecord(
                node_id=random_node_id(bytes([n]) * 32),
                peer_ip="10.0.0.%d" % n,
                port=62535,
                bandwidth=n,
            )
        )
    server.start()
    client = make_client(server.port)
    try:
        client.request("handshake")
        listing = client.request("peers")
        assert int(listing.type_code) == ProtocolCode.LIST_PEERS_R
        assert client.engine.config.node_id not in listing.info.peers
        ips = {entry.peer_ip for entry in listing.info.peers.values()}
        assert {"10.0.0.5", "10.0.0.6"} <= ips
    finally:
        client.close()
        server.stop()


def test_stream_stop_and_fetch_back():
    server = make_server(seed=4, interval_ms=150)
    server.start()
    client = make_client(server.port)
    try:
        client.request("handshake")
        frames = client.stream(2)
        assert [int(e.type_code) for e in frames] == [ProtocolCode.REAL_TIME_DATA_R] * 2
        for envelope in frames:
            assert envelope.data is not None
            assert envelope.data.ptu.air_temperature != ""

        done = client.request("stop")
        assert int(done.type_code) == ProtocolCode.REAL_TIME_DATA_S

        # the second frame came from a sensor tick, so its header stamp names
        # the stored sample's second and an on-demand fetch can reach it
        stamp = frames[-1].meta.timestamp
        past = client.request("fetch", ["PTU", "WIND", "PRECIPITATION"], stamp)
        assert int(past.type_code) == ProtocolCode.ON_DEMAND_DATA_R
        assert past.meta.timestamp == stamp
        assert past.data is not None
    finally:
        client.close()
        server.stop()


def test_fetch_unknown_timestamp_faults_601():
    server = make_server(seed=5)
    server.start()
    client = make_client(server.port)
    try:
        client.request("handshake")
        with pytest.raises(ProtocolFault) as caught:
            client.request("fetch", ["PTU"], "1999-01-01T00:00:00Z")
        assert caught.value.code == 601
    finally:
        client.close()
        server.stop()


def test_fetch_unserved_group_faults_602():
    server = make_server(seed=6, services={"PTU": "RO", "PRECIPITATION": "RO"})
    server.start()
    client = make_client(server.port)
    try:
        client.request("handshake")
        with pytest.raises(ProtocolFault) as caught:
            client.request("fetch", ["WIND"], "1999-01-01T00:00:00Z")
        assert caught.value.code == 602
    finally:
        client.close()
        server.stop()


# -- raw byte streams ----------------------------------------------------------


def test_garbage_line_draws_status_600():
    server = make_server(seed=7)
    server.start()
    raw = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
    raw.settimeout(5.0)
    try:
        raw.sendall(b"this is not a message\n")
        splitter = FrameSplitter()
        frames: list = []
        while not frames:
            frames = splitter.feed(raw.recv(4096))
        reply = decode(frames[0])
        assert int(reply.type_code) == 600
    finally:
        raw.close()
        server.stop()


def test_oversized_line_drops_the_connection():
    server = make_server(seed=8)
    server.start()
    raw = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
    raw.settimeout(5.0)
    try:
        raw.sendall(b"x" * (MAX_FRAME + 2) + b"\n")
        try:
            data = raw.recv(4096)
        except OSError:
            data = b""
        assert data == b""  # server hung up without answering
    finally:
        raw.close()
        server.stop()


# -- session lifetime ------------------------------------------------------------


def test_closed_connections_leave_no_sessions():
    server = make_server(seed=16)
    server.start()
    try:
        for _ in range(20):
            client = make_client(server.port)
            try:
                client.request("handshake")
            finally:
                client.close()
        deadline = time.monotonic() + 1.0
        while server.runtime.sessions and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(server.runtime.sessions) == 0
    finally:
        server.stop()


def test_a_silent_client_is_hung_up_and_its_session_dropped():
    server = make_server(seed=17)
    server.start()
    config = make_config(18, port=50018)
    config.keep_alive_ms = 2000  # the budget the server holds this client to
    client = PeerClient("127.0.0.1", server.port, config, timeout_s=5.0)
    try:
        client.request("handshake")
        assert len(server.runtime.sessions) == 1
        started = time.monotonic()
        try:
            assert client.sock.recv(4096) == b""
        except ConnectionResetError:
            pass
        assert time.monotonic() - started > 1.9  # not before the budget lapsed
        # the sweep removed the session before the socket was closed
        assert len(server.runtime.sessions) == 0
    finally:
        client.close()
        server.stop()


def test_a_client_that_never_handshakes_is_hung_up_on_the_nodes_budget():
    server = make_server(seed=19)
    server.runtime.config.keep_alive_ms = 1000
    server.start()
    raw = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
    try:
        started = time.monotonic()
        try:
            assert raw.recv(4096) == b""  # never a byte, then the end of the stream
        except ConnectionResetError:
            pass
        waited = time.monotonic() - started
        # the first whole-second sweep past the 1 s budget, with room for scheduling
        assert 0.9 < waited < 1.0 + 1.0 + 0.3
        assert len(server.runtime.sessions) == 0
    finally:
        raw.close()
        server.stop()


def test_a_reply_that_cannot_be_encoded_draws_600_and_the_node_serves_on():
    server = make_server(seed=20)
    unsendable = PeerRecord(node_id=random_node_id(b"\x1e" * 32), peer_ip="not-an-ip", port=62535, bandwidth=3)
    server.runtime.engine.peer_table.upsert(unsendable)
    server.start()
    first = make_client(server.port, seed=21)
    second = None
    try:
        first.request("handshake")
        with pytest.raises(ProtocolFault) as caught:
            first.request("peers")
        assert caught.value.code == 600
        second = make_client(server.port, seed=22)
        assert int(second.request("handshake").type_code) == ProtocolCode.HANDSHAKE_S
        assert server._thread.is_alive()
    finally:
        first.close()
        if second is not None:
            second.close()
        server.stop()


# -- one event loop ------------------------------------------------------------


def test_open_connections_add_no_threads():
    server = make_server(seed=12)
    server.start()
    running = threading.active_count()
    conns = [socket.create_connection(("127.0.0.1", server.port), timeout=5.0) for _ in range(20)]
    try:
        deadline = time.monotonic() + 5.0
        while len(server.runtime.sessions) < 20 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(server.runtime.sessions) == 20
        assert threading.active_count() == running
    finally:
        for conn in conns:
            conn.close()
        server.stop()


def test_stop_returns_at_once_while_the_next_timer_is_far_away(monkeypatch):
    monkeypatch.setattr(node, "SWEEP_INTERVAL_MS", 60_000)
    server = make_server(seed=13, interval_ms=60_000)
    server.start()
    port = server.port
    client = make_client(port)
    try:
        client.request("handshake")
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 0.5
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
    finally:
        client.close()
        server.stop()


def test_a_reader_that_stalls_neither_delays_others_nor_stays_connected(monkeypatch):
    monkeypatch.setattr(tcpnet, "MAX_BACKLOG", 64 * 1024)
    server = make_server(seed=14, interval_ms=20)
    for n in range(100):
        server.runtime.engine.peer_table.upsert(
            PeerRecord(node_id=random_node_id(bytes([n]) * 32), peer_ip="10.0.1.%d" % n, port=62535, bandwidth=3)
        )
    server.start()
    # accepted sockets inherit this: small kernel buffers on both ends, so
    # what the stalled peer leaves unread piles up in the node, not the kernel
    server._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
    stalled.settimeout(5.0)
    stalled.connect(("127.0.0.1", server.port))
    # subscribe, then ask for 20 peer listings of 100 peers, and read nothing
    config = make_config(15)
    config.peers_requested = 100
    engine = Engine(config, local_ip="127.0.0.1")
    requests = [ProtocolCode.HANDSHAKE, ProtocolCode.REAL_TIME_DATA] + [ProtocolCode.LIST_PEERS] * 20
    stalled.sendall(b"".join(encode(engine.status_message(code, time_ms())) + b"\n" for code in requests))
    time.sleep(0.2)
    client = make_client(server.port)
    try:
        client.sock.settimeout(1.0)
        started = time.monotonic()
        client.request("handshake")
        assert time.monotonic() - started < 1.0
        deadline = time.monotonic() + 5.0
        while server.runtime.engine.subscribers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server.runtime.engine.subscribers
        # what the kernel already held arrives, then the end of the stream
        try:
            while stalled.recv(65536):
                pass
        except ConnectionResetError:
            pass
    finally:
        stalled.close()
        client.close()
        server.stop()

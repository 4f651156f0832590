"""Command line behaviour: exit codes, printed payloads, env overrides."""

import re
import socket
import threading
import time
from pathlib import Path

import pytest

from openweather import cli
from openweather.cli import main
from openweather.codec import DEFAULT_BANDWIDTH, DEFAULT_KEEP_ALIVE_MS, UtmLocation, encode, format_timestamp
from openweather.engine import Engine, NodeConfig
from openweather.identity import random_node_id
from openweather.node import NodeRuntime
from openweather.sensors import GeneratorConfig, SampleGenerator, SampleStore
from openweather.tcpnet import MAX_FRAME, NodeServer, time_ms

SCENARIO = """
node n1 ip=172.21.25.16
node n2 ip=172.21.25.20
link n1 n2 latency_ms=0 bandwidth=56000
at 0 n1 handshake n2
"""


def server_config() -> NodeConfig:
    return NodeConfig(
        node_id=random_node_id(b"\x61" * 32),
        location=UtmLocation.parse("6672224 385565 35V"),
        bandwidth=6,
        port=62535,
    )


def start_server(interval_ms: int = 100) -> NodeServer:
    config = server_config()
    runtime = NodeRuntime(
        config,
        generator=SampleGenerator(GeneratorConfig(interval_ms=interval_ms, seed=11)),
        store=SampleStore(),
        local_ip="127.0.0.1",
        start_ms=time_ms(),
    )
    server = NodeServer(runtime, port=0)
    server.start()
    return server


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# -- usage errors (exit 1) -------------------------------------------------------


def test_no_command_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        ["discover", "127.0.0.1", "--wat"],
        ["handshake", "127.0.0.1", "--id", "not-hex"],
        ["handshake", "127.0.0.1", "--location", "nowhere"],
        ["handshake", "127.0.0.1", "--port", "70000"],
        ["stream", "127.0.0.1", "--count", "0", "--port", "1"],
        ["fetch", "127.0.0.1", "2011-07-25T14:15:35Z", "--services", "", "--port", "1"],
        ["run", "--transport", "sim"],
        ["run", "--transport", "sim", "--scenario", "/no/such/file.owp"],
        ["run", "--transport", "tcp", "--mapping", "/no/such/map.tsv"],
        ["run", "--transport", "sim", "--scenario", "zero-bandwidth.owp"],
        ["handshake", "127.0.0.1", "--id", "", "--port", "1"],
    ],
)
def test_bad_invocations_exit_1(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero-bandwidth.owp").write_text(SCENARIO.replace("bandwidth=56000", "bandwidth=0"))
    assert main(argv) == 1
    assert capsys.readouterr().err != ""


def test_run_with_an_unsendable_location_exits_1_before_listening(capsys, monkeypatch):
    class NoServer:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a node that cannot send its header must not start")

    monkeypatch.setattr(cli, "NodeServer", NoServer)
    assert main(["run", "--location", "1 2 bad", "--port", str(free_port())]) == 1
    assert "location zone malformed" in capsys.readouterr().err


@pytest.mark.parametrize("source", [[], ["--vendor-input", "lines.txt"]], ids=["generator", "vendor"])
def test_run_with_a_zero_interval_exits_1_before_listening(capsys, monkeypatch, tmp_path, source):
    class NoServer:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a node that cannot sample must not start")

    monkeypatch.setattr(cli, "NodeServer", NoServer)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lines.txt").write_text("# no reports\n")
    assert main(["run", "--interval", "0", "--port", str(free_port())] + source) == 1
    assert capsys.readouterr().err == "owp: --interval: interval must be at least 1 ms\n"


def test_run_help_shows_the_defaults_of_the_owners(capsys, monkeypatch):
    monkeypatch.setenv("OWP_PORT", "7000")
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for flag, default in (
        ("--port PORT", 7000),
        ("--bandwidth BANDWIDTH", DEFAULT_BANDWIDTH),
        ("--keep-alive MS", DEFAULT_KEEP_ALIVE_MS),
        ("--interval MS", GeneratorConfig.interval_ms),
    ):
        assert re.search(r"%s [^(]*\(default: %s\)" % (re.escape(flag), default), out), flag


def test_handshake_with_an_unsendable_location_exits_1_before_connecting(capsys):
    argv = ["handshake", "127.0.0.1", "--location", "1 2 bad", "--keep-alive", "2000", "--port"]
    # nothing listens on the port: the header is refused before a connection is tried
    assert main(argv + [str(free_port())]) == 1
    assert "location zone malformed" in capsys.readouterr().err
    # a live node: the refused handshake opens no connection, so a good one is its first
    server = start_server()
    opened = []
    open_session = server.runtime.open_session
    server.runtime.open_session = lambda key, now_ms: opened.append(key) or open_session(key, now_ms)
    try:
        assert main(argv + [str(server.port)]) == 1
        assert "location zone malformed" in capsys.readouterr().err
        assert main(["handshake", "127.0.0.1", "--keep-alive", "2000", "--port", str(server.port)]) == 0
        assert len(opened) == 1
    finally:
        server.stop()


def test_bad_port_env_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("OWP_PORT", "sixty")
    assert main(["handshake", "127.0.0.1"]) == 1
    assert "OWP_PORT" in capsys.readouterr().err


def test_broken_scenario_names_the_line(capsys, tmp_path):
    path = tmp_path / "bad.owp"
    path.write_text("boot everything\n")
    assert main(["run", "--transport", "sim", "--scenario", str(path)]) == 1
    assert "line 1" in capsys.readouterr().err


# -- scripted simulation ---------------------------------------------------------


def test_sim_run_prints_the_trace(capsys, tmp_path):
    path = tmp_path / "pair.owp"
    path.write_text(SCENARIO)
    assert main(["run", "--transport", "sim", "--scenario", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("t=0 n1->n2 send type=100 bytes=")
    assert all(line.startswith("t=") for line in lines)
    assert "type=101" in lines[-1]


def test_sim_run_prints_the_recorded_hub_trace(capsys):
    # a hub's fan-out to three leaves, byte for byte as examples/hub.trace records it
    examples = Path(__file__).resolve().parent.parent / "examples"
    assert main(["run", "--transport", "sim", "--scenario", str(examples / "hub.owp")]) == 0
    assert capsys.readouterr().out == (examples / "hub.trace").read_text(encoding="utf-8")


def test_sim_until_cuts_the_run(capsys, tmp_path):
    path = tmp_path / "pair.owp"
    path.write_text(SCENARIO + "at 1000 n1 stream n2\n")
    assert main(["run", "--transport", "sim", "--scenario", str(path), "--until", "900"]) == 0
    short = len(capsys.readouterr().out.splitlines())
    assert main(["run", "--transport", "sim", "--scenario", str(path), "--until", "6000"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > short


# -- one-shot operations over TCP --------------------------------------------------


def test_handshake_prints_the_greeting(capsys):
    server = start_server()
    try:
        code = main(["handshake", "127.0.0.1", "--port", str(server.port), "--keep-alive", "2000"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith('{ "OpenWeatherMessage"')
        assert '"Type" : 101' in out
    finally:
        server.stop()


def test_discover_prints_the_catalog(capsys):
    server = start_server()
    try:
        code = main(["discover", "127.0.0.1", "--port", str(server.port), "--keep-alive", "2000"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == '{ "Services" : { "PRECIPITATION" : "RO", "PTU" : "RO", "WIND" : "RO" } }'
    finally:
        server.stop()


def test_stream_prints_count_payloads(capsys):
    server = start_server(interval_ms=100)
    try:
        code = main(
            ["stream", "127.0.0.1", "--port", str(server.port), "--count", "2", "--keep-alive", "2000"]
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(lines) == 2
        assert all(line.startswith('{ "PRECIPITATION"') for line in lines)
    finally:
        server.stop()


def test_fetch_hit_prints_the_block(capsys):
    server = start_server(interval_ms=100)
    try:
        deadline = time.time() + 3.0
        while server.runtime.store.latest() is None and time.time() < deadline:
            time.sleep(0.02)
        sample = server.runtime.store.latest()
        assert sample is not None, "server never generated a sample"
        stamp = format_timestamp(sample.timestamp_ms)
        code = main(["fetch", "127.0.0.1", stamp, "--port", str(server.port), "--keep-alive", "2000"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith('{ "PRECIPITATION"')
    finally:
        server.stop()


def test_fetch_malformed_timestamp_is_a_clean_usage_error(capsys):
    server = start_server()
    try:
        code = main(["fetch", "127.0.0.1", "yesterday", "--port", str(server.port)])
    finally:
        server.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("owp: ")
    assert "timestamp" in err


def test_fetch_miss_prints_status_and_exits_3(capsys):
    server = start_server()
    try:
        code = main(
            [
                "fetch",
                "127.0.0.1",
                "1999-01-01T00:00:00Z",
                "--port",
                str(server.port),
                "--keep-alive",
                "2000",
            ]
        )
        assert code == 3
        assert capsys.readouterr().out.strip() == "status 601"
    finally:
        server.stop()


# -- transport failures ------------------------------------------------------------


def test_connection_refused_exits_2(capsys):
    code = main(["handshake", "127.0.0.1", "--port", str(free_port()), "--keep-alive", "500"])
    assert code == 2
    assert "transport failure" in capsys.readouterr().err


def test_silent_peer_exits_4(capsys):
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(5.0)
    held = []

    def hold():
        try:
            conn, _ = listener.accept()
            held.append(conn)  # keep it open, never answer
        except OSError:
            pass

    keeper = threading.Thread(target=hold, daemon=True)
    keeper.start()
    try:
        port = listener.getsockname()[1]
        code = main(["handshake", "127.0.0.1", "--port", str(port), "--keep-alive", "100"])
        assert code == 4
        assert "timed out" in capsys.readouterr().err
    finally:
        listener.close()
        for conn in held:
            conn.close()
        keeper.join(timeout=2)


def _greeting_with_bad_peer_ip() -> bytes:
    greeting = encode(Engine(server_config(), local_ip="127.0.0.1").status_message(101, time_ms()))
    return greeting.replace(b'"127.0.0.1"', b'"127.0.0.999"') + b"\n"


@pytest.mark.parametrize(
    "reply",
    [b"not json\n", _greeting_with_bad_peer_ip(), b"x" * (MAX_FRAME + 1) + b"\n"],
    ids=["undecodable", "invalid", "oversized"],
)
def test_bad_reply_exits_2(capsys, reply):
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(5.0)

    def answer():
        try:
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)  # the handshake
                conn.sendall(reply)
                conn.recv(65536)  # until the client hangs up
        except OSError:
            pass

    peer = threading.Thread(target=answer, daemon=True)
    peer.start()
    try:
        port = listener.getsockname()[1]
        code = main(["handshake", "127.0.0.1", "--port", str(port), "--keep-alive", "2000"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("owp: bad reply from the peer: ")
        assert err.count("\n") == 1
    finally:
        listener.close()
        peer.join(timeout=2)

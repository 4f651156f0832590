"""Scenario files: parsing, defaults, and deterministic virtual-network replays."""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from openweather.codec import decode, format_timestamp, parse_timestamp
from openweather.node import Outbound
from openweather.scenario import (
    Command,
    ScenarioError,
    SimRunner,
    TraceEvent,
    parse_scenario,
    run_scenario,
)

TWO_NODES = """
# two stations on one slow wire
node n1 ip=172.21.25.16 bandwidth=6
node n2 ip=172.21.25.20 bandwidth=6
link n1 n2 latency_ms=0 bandwidth=56000
at 0 n1 handshake n2
"""


def test_parse_fills_in_defaults():
    scenario = parse_scenario("node alpha\nnode beta\n")
    alpha, beta = scenario.nodes["alpha"], scenario.nodes["beta"]
    assert (alpha.ip, beta.ip) == ("10.0.0.1", "10.0.0.2")
    assert (alpha.seed, beta.seed) == (1, 2)
    assert alpha.port == 62535
    assert alpha.bandwidth == 6
    assert alpha.location == "6672224 385565 35V"
    assert alpha.services == ("PTU", "WIND", "PRECIPITATION")
    assert alpha.interval_ms == 3000
    assert alpha.keep_alive_ms == 120000
    assert alpha.update_interval_ms == 120000
    assert alpha.peers_requested == 20
    assert scenario.start_ms == 0


def test_parse_reads_node_attributes():
    text = (
        'node relay seed=42 ip=192.0.2.7 port=7777 bandwidth=1 '
        'location="6682211 25775 35V" services=PTU interval=500 '
        "keep-alive=9000 update-interval=8000 peers-requested=3\n"
    )
    spec = parse_scenario(text).nodes["relay"]
    assert spec.seed == 42
    assert spec.ip == "192.0.2.7"
    assert spec.port == 7777
    assert spec.bandwidth == 1
    assert spec.location == "6682211 25775 35V"
    assert spec.services == ("PTU",)
    assert spec.interval_ms == 500
    assert spec.keep_alive_ms == 9000
    assert spec.update_interval_ms == 8000
    assert spec.peers_requested == 3


def test_parse_start_offsets_command_times():
    text = "start 2011-07-20T16:51:29Z\nnode a\nnode b\nlink a b latency_ms=1 bandwidth=56000\nat 250 a handshake b\n"
    scenario = parse_scenario(text)
    base = parse_timestamp("2011-07-20T16:51:29Z")
    assert scenario.start_ms == base
    assert scenario.commands == [Command(base + 250, "a", "handshake", ("b",))]


def test_parse_sorts_commands_by_time():
    text = (
        "node a\nnode b\nlink a b latency_ms=0 bandwidth=56000\n"
        "at 900 a stop b\nat 5 a handshake b\nat 40 a stream b\n"
    )
    verbs = [c.verb for c in parse_scenario(text).commands]
    assert verbs == ["handshake", "stream", "stop"]


def test_parse_link_defaults_and_loss():
    text = "node a\nnode b\nlink a b loss=0.25\n"
    (a, b, spec), = parse_scenario(text).links
    assert (a, b) == ("a", "b")
    assert spec.latency_ms == 0
    assert spec.bandwidth_bps == 100_000_000
    assert spec.loss == 0.25


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("boot a", "unknown directive"),
        ("start", "start takes one timestamp"),
        ("start yesterday", "line 1"),
        ("node", "node needs a name"),
        ("node a\nnode a", "duplicate node"),
        ("node a speed", "expected key=value"),
        ("node a port=fast", "port must be an integer"),
        ("link a b latency_ms=1", "unknown node"),
        ("node a\nlink a", "link needs two node names"),
        ("node a\nnode b\nlink a b loss=lots", "loss must be a number"),
        ("node a\nat 5 a", "at needs a time, a node and a command"),
        ("node a\nat soon a handshake a", "bad time"),
        ("at 5 ghost handshake ghost", "unknown node"),
        ("node a\nat 5 a teleport a", "unknown command"),
        ("node a\nat 5 a handshake", "takes exactly one peer"),
        ("node a\nnode b\nat 5 a handshake b b", "takes exactly one peer"),
        ("node a\nnode b\nat 5 a fetch b", "fetch takes <peer> <timestamp>"),
        ("node a\nnode b\nat 5 a handshake ghost", "unknown peer"),
        ('node a name="unclosed', "line 1"),
    ],
)
def test_parse_rejects_bad_input(line, fragment):
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(line)
    assert fragment in str(caught.value)


def test_error_names_the_offending_line():
    text = "node a\nnode b\n\nat 5 a handshake b b\n"
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(text)
    assert str(caught.value).startswith("line 4:")


def test_render_format():
    event = TraceEvent(40, "n1", "n2", "send", 100, 375)
    assert event.render() == "t=40 n1->n2 send type=100 bytes=375"


def test_handshake_trace_shape():
    trace = run_scenario(TWO_NODES)
    shape = [(e.src, e.dst, e.kind, e.code) for e in trace[:4]]
    assert shape == [
        ("n1", "n2", "send", 100),
        ("n1", "n2", "recv", 100),
        ("n2", "n1", "send", 101),
        ("n2", "n1", "recv", 101),
    ]
    assert trace[0].time_ms == 0
    # the reply leaves the instant the greeting lands
    assert trace[2].time_ms == trace[1].time_ms
    # wire time: framing newline included, 56 kbit/s, no latency
    delay = math.ceil((trace[0].size + 1) * 8 * 1000 / 56000)
    assert trace[1].time_ms == trace[0].time_ms + delay


def test_frames_arrive_unchanged():
    trace = run_scenario(TWO_NODES)
    sends = [(e.code, e.size) for e in trace if e.kind == "send"]
    recvs = [(e.code, e.size) for e in trace if e.kind == "recv"]
    assert sorted(sends) == sorted(recvs)


def test_each_operation_is_one_request_one_reply():
    text = TWO_NODES + "at 1000 n1 discover n2\nat 2000 n1 peers n2\n"
    trace = run_scenario(text)
    for code in (100, 101, 102, 103, 107, 105):
        assert sum(1 for e in trace if e.kind == "send" and e.code == code) == 1
    # two messages per operation, nothing extra rides along
    assert sum(1 for e in trace if e.kind == "send") == 6


def test_wall_clock_start_keeps_pending_handshakes_alive():
    # dial shares a round with a sweep; the countdown starts at the send
    text = (
        "start 2013-10-14T14:42:00Z\n"
        "node a\nnode b\n"
        "link a b latency_ms=0 bandwidth=56000\n"
        "at 1000 a handshake b\n"
        "at 2000 a discover b\n"
    )
    trace = run_scenario(text, until_ms=4000)
    sends = [e.code for e in trace if e.kind == "send"]
    assert sends == [100, 101, 102, 103]


def test_stream_emits_then_stop_silences():
    text = (
        "node src interval=50\nnode sink interval=50\n"
        "link sink src latency_ms=0 bandwidth=1000000\n"
        "at 0 sink handshake src\n"
        "at 100 sink stream src\n"
        "at 300 sink stop src\n"
    )
    trace = run_scenario(text)
    data_sends = [e for e in trace if e.kind == "send" and e.code == 300]
    assert data_sends, "stream produced no data frames"
    assert all(e.src == "src" for e in data_sends)
    stop_done = [e for e in trace if e.kind == "recv" and e.code == 500]
    assert len(stop_done) == 1
    assert max(e.time_ms for e in data_sends) <= stop_done[0].time_ms


def test_fetch_past_sample_roundtrip():
    text = (
        "start 2011-07-25T14:15:00Z\n"
        "node asker\nnode keeper\n"
        "link asker keeper latency_ms=0 bandwidth=1000000\n"
        "at 0 asker handshake keeper\n"
        "at 5000 asker fetch keeper 2011-07-25T14:15:03Z PTU,WIND\n"
    )
    trace = run_scenario(text)
    assert sum(1 for e in trace if e.kind == "send" and e.code == 201) == 1
    replies = [e for e in trace if e.kind == "recv" and e.code == 301]
    assert len(replies) == 1
    assert replies[0].dst == "asker"


def test_fetch_unknown_timestamp_answers_601():
    text = TWO_NODES + "at 1000 n1 fetch n2 1999-01-01T00:00:00Z\n"
    trace = run_scenario(text)
    assert any(e.kind == "recv" and e.code == 601 and e.dst == "n1" for e in trace)


def test_operation_without_handshake_refused():
    text = "node a\nnode b\nlink a b latency_ms=0 bandwidth=56000\nat 0 a discover b\n"
    with pytest.raises(ScenarioError) as caught:
        run_scenario(text)
    assert "handshake first" in str(caught.value)


def test_replay_is_deterministic_even_with_loss():
    text = (
        "node left interval=200\nnode right interval=300\n"
        "link left right latency_ms=7 bandwidth=128000 loss=0.1\n"
        "at 0 left handshake right\n"
        "at 500 left stream right\n"
        "at 2500 left stop right\n"
    )
    first = run_scenario(text)
    assert first == run_scenario(text)
    sends = sum(1 for e in first if e.kind == "send")
    recvs = sum(1 for e in first if e.kind == "recv")
    assert sends > recvs  # the lossy wire really ate some frames


def test_command_against_dead_session_names_the_command():
    # a lost greeting leaves the session half-open; the script stops honestly
    text = (
        "node left\nnode right\n"
        "link left right latency_ms=0 bandwidth=56000 loss=0.5\n"
        "at 0 left handshake right\n"
        "at 1000 left stream right\n"
    )
    with pytest.raises(ScenarioError) as caught:
        run_scenario(text)
    assert "t=1000 left stream" in str(caught.value)


def test_until_bounds_the_run():
    text = TWO_NODES + "at 1000 n1 stream n2\n"
    bounded = run_scenario(text, until_ms=1500)
    assert all(e.time_ms <= 1500 for e in bounded)
    longer = run_scenario(text, until_ms=4000)
    assert len(longer) > len(bounded)


class ReferenceRunner(SimRunner):
    """The simulator loop written the plain way, as an oracle.

    Every step ticks every node, and every frame is labelled by decoding
    it; the runner under test ticks only due nodes and reads the type code
    the sender attached.
    """

    def _label(self, frame: bytes) -> int:
        return int(decode(frame.rstrip(b"\n")).type_code)

    def _emit(self, src, outputs, now_ms):
        for output in outputs:
            conn = output.key
            dst = conn.other(src)
            if isinstance(output, Outbound):
                relative = now_ms - self.scenario.start_ms
                self.trace.append(
                    TraceEvent(relative, src, dst, "send", self._label(output.frame), len(output.frame) - 1)
                )
                self.net.send(conn, src, output.frame)
            else:
                self.nodes[dst].runtime.on_disconnect(conn, now_ms)
                self._conns.pop(frozenset((src, dst)), None)

    def run(self, until_ms=None):
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
            dues.extend(self.nodes[name].runtime.next_due_ms() for name in sorted(self.nodes))
            dues = [t for t in dues if t <= horizon]
            if not dues:
                break
            now = min(dues)
            for delivery in self.net.advance(now - self.net.clock.now_ms):
                frame = delivery.frame
                relative = delivery.time_ms - self.scenario.start_ms
                self.trace.append(
                    TraceEvent(relative, delivery.src, delivery.dst, "recv", self._label(frame), len(frame) - 1)
                )
                runtime = self.nodes[delivery.dst].runtime
                outputs = runtime.on_frame(self._conn_for(delivery), frame.rstrip(b"\n"), delivery.time_ms)
                self._emit(delivery.dst, outputs, delivery.time_ms)
            while self._queue and self._queue[0].time_ms <= now:
                self._execute(self._queue.pop(0), now)
            for name in sorted(self.nodes):
                self._emit(name, self.nodes[name].runtime.on_tick(now), now)
        return self.trace


@st.composite
def scripts(draw):
    """Small random scenarios: mixed timers and links, some lossy.

    Each chosen pair handshakes first; then either end discovers, lists
    peers or fetches, and the dialling end may stream and later stop.
    A lost frame or an expired session can still end a script early.
    """
    names = ["n%d" % i for i in range(draw(st.integers(2, 6)))]
    lines = []
    for name in names:
        interval = draw(st.sampled_from((250, 1000, 3000, 60000)))
        keep_alive = draw(st.sampled_from((3000, 120000, 120000)))
        lines.append("node %s interval=%d keep-alive=%d" % (name, interval, keep_alive))
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            bandwidth = draw(st.sampled_from((56_000, 256_000, 10_000_000)))
            latency = draw(st.integers(0, 80))
            loss = draw(st.sampled_from((0.0, 0.0, 0.0, 0.02, 0.2)))
            lines.append("link %s %s latency_ms=%d bandwidth=%d loss=%g" % (a, b, latency, bandwidth, loss))
    ordered_pairs = st.permutations(names).map(lambda p: tuple(p[:2]))
    pairs = draw(st.lists(ordered_pairs, min_size=1, max_size=4, unique_by=frozenset))
    at = st.integers(1000, 12000)
    for a, b in pairs:
        lines.append("at %d %s handshake %s" % (draw(st.integers(0, 500)), a, b))
        for _ in range(draw(st.integers(0, 4))):
            node, peer = draw(st.sampled_from(((a, b), (b, a))))
            verb = draw(st.sampled_from(("discover", "peers", "fetch")))
            command = "at %d %s %s %s" % (draw(at), node, verb, peer)
            if verb == "fetch":
                command += " " + format_timestamp(1000 * draw(st.integers(0, 10)))
                command += draw(st.sampled_from(("", " PTU", " PTU,WIND")))
            lines.append(command)
        if draw(st.booleans()):
            begin = draw(at)
            lines.append("at %d %s stream %s" % (begin, a, b))
            if draw(st.booleans()):
                lines.append("at %d %s stop %s" % (begin + draw(st.integers(1, 5000)), a, b))
    return "\n".join(lines) + "\n"


def outcome(runner: SimRunner, chunk_ms):
    """The rendered trace plus the error that stopped the script, if any."""
    error = None
    try:
        if chunk_ms is None:
            runner.run()
        else:
            for until in range(chunk_ms, 20000, chunk_ms):
                runner.run(until_ms=until)
    except ScenarioError as exc:
        error = str(exc)
    return [event.render() for event in runner.trace], error


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scripts(), st.sampled_from((None, 700, 3000)))
def test_runner_matches_the_tick_every_node_reference(text, chunk_ms):
    scenario = parse_scenario(text)
    got = outcome(SimRunner(scenario), chunk_ms)
    assert got == outcome(ReferenceRunner(scenario), chunk_ms)
    assert got == outcome(SimRunner(scenario), chunk_ms)

"""Node runtime: frames in, frames out, timers, stream fan-out."""

import logging
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import captures
from openweather import node
from openweather.codec import CodecError, EncodeError, UtmLocation, decode, encode, parse_timestamp, validate
from openweather.engine import Engine, NodeConfig, SessionState, StateError
from openweather.node import Hangup, NodeRuntime, Outbound
from openweather.peers import PeerRecord
from openweather.sensors import GeneratorConfig, SampleGenerator, SampleStore, VendorLineSource
from openweather.vendor import to_data_block

LOCATION = UtmLocation(6672224, 385565, "35V")


def runtime_for(n: int, generator=None, **overrides) -> NodeRuntime:
    base = dict(
        node_id="%064x" % n,
        location=LOCATION,
        bandwidth=6,
        advertise_ip="172.21.25.%d" % (10 + n),
    )
    base.update(overrides)
    return NodeRuntime(
        NodeConfig(**base),
        generator=generator,
        store=SampleStore(),
        start_ms=0,
    )


def pump(src: NodeRuntime, dst: NodeRuntime, outputs, now_ms):
    """Deliver every Outbound to the other runtime; returns its outputs.

    The receiving side's session opens on first sight of a key, as a
    transport opens it on accept; a key it has seen and closed stays closed.
    """
    seen = vars(dst).setdefault("_pumped_keys", set())
    produced = []
    for output in outputs:
        assert isinstance(output, (Outbound, Hangup))
        if isinstance(output, Outbound):
            assert output.frame.endswith(b"\n")
            if output.key not in seen and output.key not in dst.sessions:
                dst.open_session(output.key, now_ms)
            seen.add(output.key)
            produced.extend(dst.on_frame(output.key, output.frame[:-1], now_ms))
    return produced


def test_handshake_between_two_runtimes():
    alice = runtime_for(1)
    bob = runtime_for(2)
    opening = alice.connect("conn", now_ms=0)
    assert len(opening) == 1 and decode(opening[0].frame).type_code == 100
    replies = pump(alice, bob, opening, now_ms=1)
    assert decode(replies[0].frame).type_code == 101
    back = pump(bob, alice, replies, now_ms=2)
    assert back == []
    assert alice.sessions["conn"].state is SessionState.ESTABLISHED
    assert bob.sessions["conn"].state is SessionState.ESTABLISHED
    assert "%064x" % 2 in alice.engine.peer_table
    assert "%064x" % 1 in bob.engine.peer_table


def established_pair():
    alice = runtime_for(1)
    bob = runtime_for(2, generator=SampleGenerator(GeneratorConfig(interval_ms=1000)))
    pump(bob, alice, pump(alice, bob, alice.connect("conn", 0), 0), 0)
    return alice, bob


def test_malformed_frame_answered_with_unexpected_status():
    alice, bob = established_pair()
    (reply,) = bob.on_frame("conn", b"{ not json", now_ms=5)
    assert decode(reply.frame).type_code == 600
    (reply,) = bob.on_frame("conn", b'{ "OpenWeatherMessage" : { "Type" : 100 } }', now_ms=6)
    assert decode(reply.frame).type_code == 600


def test_hostile_frames_answered_with_a_single_unexpected_status():
    alice, bob = established_pair()
    too_deep = b"[" * 60000
    too_long = b'{"OpenWeatherMessage": {"Type": ' + b"1" * 5000 + b"}}"
    for now_ms, frame in enumerate((too_deep, too_long), start=5):
        (reply,) = bob.on_frame("conn", frame, now_ms=now_ms)
        assert decode(reply.frame).type_code == 600


def test_dispatch_error_answered_with_unexpected_status(monkeypatch, caplog):
    alice, bob = established_pair()
    dispatch = Engine.handle_message

    def explode(self, session, envelope, now_ms):
        raise RuntimeError("boom")

    monkeypatch.setattr(Engine, "handle_message", explode)
    with caplog.at_level(logging.WARNING, logger="openweather.node"):
        (reply,) = bob.on_frame("conn", encode(alice.engine.status_message(102, 5)), now_ms=5)
    assert reply.code == 600 and decode(reply.frame[:-1]).type_code == 600
    assert bob.sessions["conn"].last_rx == 5
    assert "RuntimeError: boom" in caplog.text  # the traceback is logged
    # the node carries on: the next good frame is dispatched as usual
    monkeypatch.setattr(Engine, "handle_message", dispatch)
    replies = pump(alice, bob, alice.request("conn", "discover", 6), 6)
    assert [o.code for o in replies] == [103]


def test_every_outbound_carries_its_frames_type_code():
    alice = runtime_for(1)
    bob = runtime_for(2, generator=SampleGenerator(GeneratorConfig(interval_ms=1000)))
    sent = []

    def talk(requests, now_ms):
        """alice asks bob; bob's replies go back to alice."""
        replies = pump(alice, bob, requests, now_ms)
        sent.extend(requests + replies + pump(bob, alice, replies, now_ms))

    talk(alice.connect("conn", 0), 0)
    sent.extend(bob.on_tick(1000))
    talk(alice.request("conn", "discover", 1100), 1100)
    talk(alice.request("conn", "peers", 1200), 1200)
    talk(alice.request("conn", "stream", 1500), 1500)
    sent.extend(bob.on_tick(2000))
    talk(alice.request("conn", "fetch", 2500, ["PTU"], "1970-01-01T00:00:01Z"), 2500)
    talk(alice.request("conn", "fetch", 2600, ["PTU"], "1970-01-01T00:00:59Z"), 2600)
    talk(alice.request("conn", "stop", 2700), 2700)
    sent.extend(bob.on_frame("conn", b"[" * 60000, 2800))
    sent.extend(bob.on_frame("conn", b'{ "OpenWeatherMessage" : { "Type" : 100 } }', 2900))
    outbound = [o for o in sent if isinstance(o, Outbound)]
    for output in outbound:
        assert type(output.code) is int
        assert output.code == decode(output.frame[:-1]).type_code
    assert [o.code for o in outbound] == [100, 101, 102, 103, 107, 105, 200, 300, 300, 201, 301, 201, 601, 202, 500, 600, 600]


def test_first_stream_frame_carries_its_samples_time():
    alice, bob = established_pair()
    bob.on_tick(1000)
    # the subscription lands between ticks; later ticks catch up on 2000 and 3000
    frames = pump(alice, bob, alice.request("conn", "stream", 3500), 3500) + bob.on_tick(3500)
    messages = [decode(o.frame[:-1]) for o in frames]
    assert [m.type_code for m in messages] == [300, 300, 300]
    assert [parse_timestamp(m.meta.timestamp) for m in messages] == [1000, 2000, 3000]


def test_invalid_but_parseable_frame_answered_with_unexpected_status():
    alice, bob = established_pair()
    message = encode(alice.engine.status_message(102, 7))
    broken = message.replace(b'"Port" : 62535', b'"Port" : 0')
    (reply,) = bob.on_frame("conn", broken, now_ms=7)
    assert decode(reply.frame).type_code == 600


def test_handshake_whose_id_ends_in_a_newline_is_refused():
    alice, bob = runtime_for(1), runtime_for(2)
    node_id = alice.config.node_id
    frame = encode(alice.engine.status_message(100, 0))
    assert frame.count(b'"%s"' % node_id.encode()) == 1
    bob.open_session("conn", 0)
    outputs = bob.on_frame("conn", frame.replace(b'"%s"' % node_id.encode(), b'"%s\\n"' % node_id.encode()), 1)
    assert [(o.code, decode(o.frame).type_code) for o in outputs] == [(600, 600)]
    assert len(bob.engine.peer_table) == 0
    assert bob.sessions["conn"].state is SessionState.IDLE


@settings(deadline=None)
@given(stall=st.integers(1, 60), late_ms=st.integers(0, 999), order=st.permutations(["zulu", "mike", "alpha"]))
def test_a_stall_of_k_intervals_makes_up_k_samples_in_one_tick(stall, late_ms, order):
    """The stall rule of NodeRuntime.on_tick: k samples stored in time order,
    each streamed once to every subscriber in subscription order and stamped
    with its own time, and one keep-alive sweep."""
    weather = GeneratorConfig(interval_ms=1000, temperature_step=3, humidity_step=2, pressure_step=1)
    alice, bob = runtime_for(1), runtime_for(2, generator=SampleGenerator(weather))
    for key in order:
        pump(bob, alice, pump(alice, bob, alice.connect(key, 0), 0), 0)
        assert pump(alice, bob, alice.request(key, "stream", 500), 500) == []  # nothing sampled yet
    stored, sweeps = [], []

    def insert(sample, insert=bob.store.insert):
        stored.append(sample)
        insert(sample)

    def sweep(sessions, now_ms, sweep=bob.engine.keep_alive_sweep):
        sweeps.append(now_ms)
        return sweep(sessions, now_ms)

    bob.store.insert, bob.engine.keep_alive_sweep = insert, sweep
    now = stall * 1000 + late_ms
    outputs = bob.on_tick(now)
    ticks = [1000 * n for n in range(1, stall + 1)]
    assert [sample.timestamp_ms for sample in stored] == ticks
    assert len(bob.store) == stall
    assert all(isinstance(o, Outbound) and o.code == 300 for o in outputs)
    streamed = [(o.key, decode(o.frame[:-1])) for o in outputs]
    assert [(key, parse_timestamp(message.meta.timestamp)) for key, message in streamed] == [
        (key, tick) for tick in ticks for key in order
    ]
    assert [message.data for _, message in streamed] == [to_data_block(s) for s in stored for _ in order]
    assert sweeps == [now - late_ms]
    assert bob.next_due_ms() == now - late_ms + 1000


def test_stream_fan_out_and_cadence():
    alice, bob = established_pair()
    bob.on_tick(1000)  # one stored sample before anyone subscribes
    outputs = pump(alice, bob, alice.request("conn", "stream", 1500), 1500)
    # the freshest stored sample goes out immediately on subscription
    assert [decode(o.frame).type_code for o in outputs] == [300]
    assert list(bob.engine.subscribers) == ["conn"]
    due = bob.next_due_ms()
    assert due == 2000
    ticked = [o for o in bob.on_tick(2000) if isinstance(o, Outbound)]
    assert [decode(o.frame).type_code for o in ticked] == [300]
    sample = decode(ticked[0].frame)
    assert sample.data.ptu.air_temperature == "19.1"
    # unsubscribing stops the fan-out
    confirm = pump(alice, bob, alice.request("conn", "stop", 2500), 2500)
    assert [decode(o.frame).type_code for o in confirm] == [500]
    assert list(bob.engine.subscribers) == []
    assert all(not isinstance(o, Outbound) for o in bob.on_tick(3000))


def test_stream_fan_out_follows_subscription_order():
    alice = runtime_for(1)
    bob = runtime_for(2, generator=SampleGenerator(GeneratorConfig(interval_ms=1000)))
    keys = ["zulu", "mike", "alpha"]
    assert sorted(keys, key=repr) == keys[::-1]
    for key in keys:
        pump(bob, alice, pump(alice, bob, alice.connect(key, 0), 0), 0)
        pump(alice, bob, alice.request(key, "stream", 500), 500)
    assert list(bob.engine.subscribers) == keys
    assert [o.key for o in bob.on_tick(1000) if isinstance(o, Outbound)] == keys


def test_stream_without_any_stored_sample_sends_nothing_until_tick():
    alice = runtime_for(1)
    bob = runtime_for(2, generator=SampleGenerator(GeneratorConfig(interval_ms=1000)))
    pump(bob, alice, pump(alice, bob, alice.connect("conn", 0), 0), 0)
    outputs = pump(alice, bob, alice.request("conn", "stream", 500), 500)
    assert outputs == []  # nothing sampled yet
    ticked = bob.on_tick(1000)
    assert [decode(o.frame).type_code for o in ticked] == [300]


def test_on_demand_roundtrip_between_runtimes():
    alice, bob = established_pair()
    bob.on_tick(1000)
    bob.on_tick(2000)
    ask = alice.request("conn", "fetch", 2500, ["PTU"], "1970-01-01T00:00:01Z")
    replies = pump(alice, bob, ask, 2600)
    reply = decode(replies[0].frame)
    assert reply.type_code == 301
    assert reply.meta.timestamp == "1970-01-01T00:00:01Z"
    assert reply.data.ptu.relative_humidity == "69.4"
    # miss: nothing stored at that second
    replies = pump(alice, bob, alice.request("conn", "fetch", 2700, ["PTU"], "1970-01-01T00:00:59Z"), 2700)
    assert decode(replies[0].frame).type_code == 601


def test_keep_alive_sweep_hangs_up_quiet_sessions():
    alice = runtime_for(1, keep_alive_ms=2000)
    bob = runtime_for(2, keep_alive_ms=2000)
    pump(bob, alice, pump(alice, bob, alice.connect("conn", 0), 0), 0)
    assert bob.on_tick(2000) == []
    outputs = bob.on_tick(2001 + 999)  # next sweep tick after the budget lapses
    hangups = [o for o in outputs if isinstance(o, Hangup)]
    assert len(hangups) == 1 and hangups[0].key == "conn"
    assert hangups[0].reason == "keep-alive expired"
    assert "conn" not in bob.sessions
    # a closed session swallows further frames
    assert bob.on_frame("conn", encode(alice.engine.status_message(102, 4000)), 4000) == []


def test_vendor_line_source_drives_the_runtime():
    lines = ["0r2,Ta=18.7C,Ua=77.4P,Pa=1002.1H\n", "0r2,Ta=18.9C,Ua=77.0P,Pa=1002.0H\n"]
    alice = runtime_for(1)
    bob = runtime_for(2, generator=VendorLineSource(lines, interval_ms=1000))
    pump(bob, alice, pump(alice, bob, alice.connect("conn", 0), 0), 0)
    pump(alice, bob, alice.request("conn", "stream", 500), 500)
    first = [o for o in bob.on_tick(1000) if isinstance(o, Outbound)]
    assert decode(first[0].frame).data.ptu.air_temperature == "18.7"
    second = [o for o in bob.on_tick(2000) if isinstance(o, Outbound)]
    assert decode(second[0].frame).data.ptu.air_temperature == "18.9"
    assert bob.store.lookup(1000).air_temperature_c == Decimal("18.7")
    # drained source: ticks continue without emissions
    assert [o for o in bob.on_tick(3000) if isinstance(o, Outbound)] == []


def test_disconnect_clears_subscription():
    alice, bob = established_pair()
    bob.on_tick(1000)
    pump(alice, bob, alice.request("conn", "stream", 1500), 1500)
    assert list(bob.engine.subscribers) == ["conn"]
    bob.on_disconnect("conn", 1600)
    assert list(bob.engine.subscribers) == []
    assert "conn" not in bob.sessions


# -- session lifetime ------------------------------------------------------------


def test_missed_sweeps_catch_up_in_one_step(monkeypatch):
    sweeps = []
    sweep = Engine.keep_alive_sweep

    def counting(self, sessions, now_ms):
        sweeps.append(now_ms)
        return sweep(self, sessions, now_ms)

    monkeypatch.setattr(Engine, "keep_alive_sweep", counting)
    runtime = runtime_for(1)
    assert runtime.on_tick(10_000_000) == []
    assert sweeps == [10_000_000]
    # off the grid: one sweep at the last grid point due, and the grid holds
    runtime.on_tick(12_345_678)
    assert sweeps == [10_000_000, 12_345_000]
    assert runtime.next_due_ms() == 12_346_000


@given(
    peers=st.lists(
        st.tuples(
            st.sampled_from((SessionState.IDLE, SessionState.ESTABLISHED, SessionState.STREAMING)),
            st.integers(0, 20_000),  # last_rx after start
            st.one_of(st.none(), st.integers(1, 10_000)),  # advertised keep-alive; None: ours
        ),
        max_size=8,
    ),
    start=st.integers(0, 10_000),
    stall=st.integers(0, 40_000),
)
def test_one_catch_up_sweep_closes_what_stepwise_sweeps_would(peers, start, stall):
    runtime = NodeRuntime(NodeConfig("%064x" % 1, LOCATION, 6, keep_alive_ms=3000), start_ms=start)
    budgets = {}
    for key, (state, last_rx, keep_alive) in enumerate(peers):
        session = runtime.open_session(key, start)
        session.state = state
        session.last_rx = start + last_rx
        if keep_alive is not None:
            session.remote = PeerRecord("%064x" % (key + 2), "10.0.0.1", 62535, 6, keep_alive_ms=keep_alive)
        budgets[key] = session.last_rx + (3000 if keep_alive is None else keep_alive)
    now = start + stall
    stepwise = set()
    for sweep_at in range(start + 1000, now + 1, 1000):
        stepwise |= {key for key, deadline in budgets.items() if deadline < sweep_at}
    hangups = runtime.on_tick(now)
    assert {hangup.key for hangup in hangups} == stepwise
    assert len(hangups) == len(stepwise)
    assert set(runtime.sessions) == set(range(len(peers))) - stepwise
    assert runtime.next_due_ms() == start + 1000 * (stall // 1000 + 1)


def _sample_frames():
    """Well-formed frames: every header-only type, and the recorded captures."""
    alice = runtime_for(1)
    codes = (100, 101, 102, 104, 106, 107, 200, 202, 500, 501, 600, 601, 602)
    frames = [encode(alice.engine.status_message(code, 4000)) for code in codes]
    return frames + [text.encode() for _, text, _, _ in captures.ALL]


_FRAMES = _sample_frames()


class SessionTableTracksConnections(RuleBasedStateMachine):
    """Two runtimes joined by pump, driven as a transport would drive them.

    Closing a connection ends it at both ends: on_disconnect closes one
    key on both runtimes, and a Hangup from one makes the transport tell
    the other.  After every step each runtime holds exactly the keys
    opened on it and not yet closed.  A key accepted from a peer that never
    speaks closes at the first sweep past the node's 2000 ms budget.
    """

    def __init__(self):
        super().__init__()
        self.alice = runtime_for(1, keep_alive_ms=2000)
        generator = SampleGenerator(GeneratorConfig(interval_ms=1000))
        self.bob = runtime_for(2, keep_alive_ms=2000, generator=generator)
        self.expected = {self.alice: set(), self.bob: set()}  # runtime -> keys open on it
        self.closed = set()
        self.silent = {}  # accepted key that never carries a frame -> when it opened
        self.now = 0
        self.keys = 0

    def _pair(self, first: bool):
        return (self.alice, self.bob) if first else (self.bob, self.alice)

    def _new_key(self) -> str:
        self.keys += 1
        return "conn%d" % self.keys

    def _open_keys(self) -> list:
        return sorted(self.expected[self.alice] | self.expected[self.bob])

    def _close(self, key) -> None:
        for keys in self.expected.values():
            keys.discard(key)
        self.closed.add(key)

    def _carry(self, src, dst, outputs) -> None:
        """Deliver frames back and forth until both sides are quiet."""
        while outputs:
            for output in outputs:
                if isinstance(output, Outbound) and output.key not in self.closed:
                    self.expected[dst].add(output.key)  # pump opens it on first sight
            replies = pump(src, dst, outputs, self.now)
            for output in outputs:
                if isinstance(output, Hangup):
                    dst.on_disconnect(output.key, self.now)
                    self._close(output.key)
            src, dst, outputs = dst, src, replies

    @rule(first=st.booleans())
    def connect(self, first):
        src, dst = self._pair(first)
        key = self._new_key()
        outputs = src.connect(key, self.now)
        self.expected[src].add(key)
        self._carry(src, dst, outputs)

    @rule(first=st.booleans())
    def accept(self, first):
        runtime, _ = self._pair(first)
        key = self._new_key()
        runtime.open_session(key, self.now)  # a peer that never says anything
        self.expected[runtime].add(key)
        self.silent[key] = self.now

    @precondition(lambda self: self._open_keys())
    @rule(
        first=st.booleans(),
        data=st.data(),
        operation=st.sampled_from(("discover", "peers", "stream", "stop")),
    )
    def request(self, first, data, operation):
        src, dst = self._pair(first)
        if not self.expected[src]:
            return
        key = data.draw(st.sampled_from(sorted(self.expected[src])))
        try:
            outputs = src.request(key, operation, self.now)
        except StateError:
            return
        self._carry(src, dst, outputs)

    @precondition(lambda self: self._open_keys())
    @rule(data=st.data())
    def disconnect(self, data):
        key = data.draw(st.sampled_from(self._open_keys()))
        for runtime in (self.alice, self.bob):
            runtime.on_disconnect(key, self.now)
        self._close(key)

    @rule(advance=st.integers(0, 3000))
    def tick(self, advance):
        self.now += advance
        for first in (True, False):
            src, dst = self._pair(first)
            self._carry(src, dst, src.on_tick(self.now))
        last_sweep = self.now // 1000 * 1000
        for key, opened in self.silent.items():
            if last_sweep > opened + 2000:
                assert key in self.closed

    @precondition(lambda self: self.closed)
    @rule(data=st.data(), first=st.booleans(), frame=st.sampled_from(_FRAMES) | st.binary(max_size=200))
    def frame_on_a_closed_key(self, data, first, frame):
        runtime, _ = self._pair(first)
        key = data.draw(st.sampled_from(sorted(self.closed)))
        assert runtime.on_frame(key, frame, self.now) == []
        assert key not in runtime.sessions

    @invariant()
    def sessions_are_the_open_connections(self):
        for runtime, keys in self.expected.items():
            assert set(runtime.sessions) == keys


SessionTableTracksConnections.TestCase.settings = settings(deadline=None)
TestSessionTableTracksConnections = SessionTableTracksConnections.TestCase


@st.composite
def _flipped(draw):
    frame = bytearray(draw(st.sampled_from(_FRAMES)))
    index = draw(st.integers(0, len(frame) - 1))
    frame[index] = draw(st.integers(0, 255))
    return bytes(frame)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(frame=st.binary(max_size=64 * 1024) | st.sampled_from(_FRAMES) | _flipped())
@example(frame=b"[" * 64 * 1024)
@example(frame=b" " * (64 * 1024 - len(_FRAMES[2])) + _FRAMES[2])  # a padded type 102: dispatched
def test_any_frame_on_an_established_session_is_answered_or_dispatched(frame):
    _, bob = established_pair()
    _, twin = established_pair()
    held = len(bob.sessions)
    outputs = bob.on_frame("conn", frame, 5000)
    assert len(bob.sessions) == held
    try:
        envelope = decode(frame)
    except CodecError:
        envelope = None
    if envelope is not None and validate(envelope).ok:
        replies = twin.engine.handle_message(twin.sessions["conn"], envelope, 5000)
        assert outputs == [Outbound("conn", encode(e) + b"\n", int(e.type_code)) for e in replies]
    else:
        (reply,) = outputs
        assert reply.key == "conn" and reply.code == 600
        assert decode(reply.frame[:-1]).type_code == 600


_REPLY_CODES = (101, 103, 105, 300, 301, 500, 601, 602)


@settings(deadline=None)
@given(frame=st.sampled_from(_FRAMES), failing=st.sampled_from(_REPLY_CODES))
def test_a_reply_that_cannot_be_encoded_is_answered_with_one_unexpected_status(frame, failing):
    _, bob = established_pair()
    _, twin = established_pair()
    for runtime in (bob, twin):
        runtime.on_tick(1000)  # a stored sample, so a subscription starts with a type 300
    expected = twin.on_frame("conn", frame, 5000)
    real_encode = node.encode

    def encode_or_fail(envelope):
        if envelope.type_code == failing:
            raise EncodeError("type %d cannot be encoded" % failing)
        return real_encode(envelope)

    held = len(bob.sessions)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(node, "encode", encode_or_fail)
        outputs = bob.on_frame("conn", frame, 5000)
    assert len(bob.sessions) == held
    if any(output.code == failing for output in expected):
        (reply,) = outputs
        assert reply.key == "conn" and reply.code == 600
        assert decode(reply.frame[:-1]).type_code == 600
    else:
        assert outputs == expected

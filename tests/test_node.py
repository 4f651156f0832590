"""Node runtime: frames in, frames out, timers, stream fan-out."""

import logging
from decimal import Decimal

from openweather.codec import UtmLocation, decode, encode, parse_timestamp
from openweather.engine import Engine, NodeConfig, SessionState
from openweather.node import Hangup, NodeRuntime, Outbound
from openweather.sensors import GeneratorConfig, SampleGenerator, SampleStore, VendorLineSource

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
    """Deliver every Outbound to the other runtime; returns its outputs."""
    produced = []
    for output in outputs:
        assert isinstance(output, (Outbound, Hangup))
        if isinstance(output, Outbound):
            assert output.frame.endswith(b"\n")
            produced.extend(dst.on_frame(output.key, output.frame[:-1], now_ms))
    return produced


def test_handshake_between_two_runtimes():
    alice = runtime_for(1)
    bob = runtime_for(2)
    opening = alice.connect("conn", now_ms=0, remote_ip="172.21.25.12", remote_port=62535)
    assert len(opening) == 1 and decode(opening[0].frame).type_code == 100
    replies = pump(alice, bob, opening, now_ms=1)
    assert decode(replies[0].frame).type_code == 101
    back = pump(bob, alice, replies, now_ms=2)
    assert back == []
    assert alice.session("conn").state is SessionState.ESTABLISHED
    assert bob.session("conn").state is SessionState.ESTABLISHED
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
    assert bob.session("conn").last_rx == 5
    assert "RuntimeError: boom" in caplog.text  # the traceback is logged
    # the node carries on: the next good frame is dispatched as usual
    monkeypatch.setattr(Engine, "handle_message", dispatch)
    replies = pump(alice, bob, alice.request_services("conn", 6), 6)
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
    talk(alice.request_services("conn", 1100), 1100)
    talk(alice.request_peers("conn", 1200), 1200)
    talk(alice.request_realtime("conn", 1500), 1500)
    sent.extend(bob.on_tick(2000))
    talk(alice.request_on_demand("conn", ["PTU"], "1970-01-01T00:00:01Z", 2500), 2500)
    talk(alice.request_on_demand("conn", ["PTU"], "1970-01-01T00:00:59Z", 2600), 2600)
    talk(alice.stop_realtime("conn", 2700), 2700)
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
    frames = pump(alice, bob, alice.request_realtime("conn", 3500), 3500) + bob.on_tick(3500)
    messages = [decode(o.frame[:-1]) for o in frames]
    assert [m.type_code for m in messages] == [300, 300, 300]
    assert [parse_timestamp(m.meta.timestamp) for m in messages] == [1000, 2000, 3000]


def test_invalid_but_parseable_frame_answered_with_unexpected_status():
    alice, bob = established_pair()
    message = encode(alice.engine.status_message(102, 7))
    broken = message.replace(b'"Port" : 62535', b'"Port" : 0')
    (reply,) = bob.on_frame("conn", broken, now_ms=7)
    assert decode(reply.frame).type_code == 600


def test_stream_fan_out_and_cadence():
    alice, bob = established_pair()
    bob.on_tick(1000)  # one stored sample before anyone subscribes
    outputs = pump(alice, bob, alice.request_realtime("conn", 1500), 1500)
    # the freshest stored sample goes out immediately on subscription
    assert [decode(o.frame).type_code for o in outputs] == [300]
    assert list(bob.subscribers) == ["conn"]
    due = bob.next_due_ms()
    assert due == 2000
    ticked = [o for o in bob.on_tick(2000) if isinstance(o, Outbound)]
    assert [decode(o.frame).type_code for o in ticked] == [300]
    sample = decode(ticked[0].frame)
    assert sample.data.ptu.air_temperature == "19.1"
    # unsubscribing stops the fan-out
    confirm = pump(alice, bob, alice.stop_realtime("conn", 2500), 2500)
    assert [decode(o.frame).type_code for o in confirm] == [500]
    assert list(bob.subscribers) == []
    assert all(not isinstance(o, Outbound) for o in bob.on_tick(3000))


def test_stream_fan_out_follows_subscription_order():
    alice = runtime_for(1)
    bob = runtime_for(2, generator=SampleGenerator(GeneratorConfig(interval_ms=1000)))
    keys = ["zulu", "mike", "alpha"]
    assert sorted(keys, key=repr) == keys[::-1]
    for key in keys:
        pump(bob, alice, pump(alice, bob, alice.connect(key, 0), 0), 0)
        pump(alice, bob, alice.request_realtime(key, 500), 500)
    assert list(bob.subscribers) == keys
    assert [o.key for o in bob.on_tick(1000) if isinstance(o, Outbound)] == keys


def test_stream_without_any_stored_sample_sends_nothing_until_tick():
    alice = runtime_for(1)
    bob = runtime_for(2, generator=SampleGenerator(GeneratorConfig(interval_ms=1000)))
    pump(bob, alice, pump(alice, bob, alice.connect("conn", 0), 0), 0)
    outputs = pump(alice, bob, alice.request_realtime("conn", 500), 500)
    assert outputs == []  # nothing sampled yet
    ticked = bob.on_tick(1000)
    assert [decode(o.frame).type_code for o in ticked] == [300]


def test_on_demand_roundtrip_between_runtimes():
    alice, bob = established_pair()
    bob.on_tick(1000)
    bob.on_tick(2000)
    ask = alice.request_on_demand("conn", ["PTU"], "1970-01-01T00:00:01Z", 2500)
    replies = pump(alice, bob, ask, 2600)
    reply = decode(replies[0].frame)
    assert reply.type_code == 301
    assert reply.meta.timestamp == "1970-01-01T00:00:01Z"
    assert reply.data.ptu.relative_humidity == "69.4"
    # miss: nothing stored at that second
    replies = pump(alice, bob, alice.request_on_demand("conn", ["PTU"], "1970-01-01T00:00:59Z", 2700), 2700)
    assert decode(replies[0].frame).type_code == 601


def test_keep_alive_sweep_hangs_up_quiet_sessions():
    alice = runtime_for(1, keep_alive_ms=2000)
    bob = runtime_for(2, keep_alive_ms=2000)
    pump(bob, alice, pump(alice, bob, alice.connect("conn", 0), 0), 0)
    assert bob.on_tick(2000) == []
    outputs = bob.on_tick(2001 + 999)  # next sweep tick after the budget lapses
    hangups = [o for o in outputs if isinstance(o, Hangup)]
    assert len(hangups) == 1 and hangups[0].key == "conn"
    assert bob.session("conn").state is SessionState.CLOSED
    # a closed session swallows further frames
    assert bob.on_frame("conn", encode(alice.engine.status_message(102, 4000)), 4000) == []


def test_vendor_line_source_drives_the_runtime():
    lines = ["0r2,Ta=18.7C,Ua=77.4P,Pa=1002.1H\n", "0r2,Ta=18.9C,Ua=77.0P,Pa=1002.0H\n"]
    alice = runtime_for(1)
    bob = runtime_for(2, generator=VendorLineSource(lines, interval_ms=1000))
    pump(bob, alice, pump(alice, bob, alice.connect("conn", 0), 0), 0)
    pump(alice, bob, alice.request_realtime("conn", 500), 500)
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
    pump(alice, bob, alice.request_realtime("conn", 1500), 1500)
    assert list(bob.subscribers) == ["conn"]
    bob.on_disconnect("conn", 1600)
    assert list(bob.subscribers) == []
    assert bob.session("conn").state is SessionState.CLOSED

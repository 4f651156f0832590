"""Session state machine: dispatch, serving, requester ops, keep-alive."""

import dataclasses
import logging
import random

import pytest
from hypothesis import given, settings, strategies as st

from openweather.codec import (
    EncodeError,
    Envelope,
    InfoPayload,
    MetaInfo,
    PeerEntry,
    ProtocolCode,
    RetrieveRequest,
    UtmLocation,
    WeatherData,
    format_timestamp,
    validate,
)
from openweather.engine import (
    Engine,
    NodeConfig,
    Session,
    SessionState,
    StateError,
    build_metainfo,
    default_services,
)
from openweather.peers import PeerRecord, PeerTable
from openweather.sensors import SampleGenerator, SampleStore
from openweather.vendor import to_data_block

LOCATION = UtmLocation(6672224, 385565, "35V")
REGISTRY = (100, 101, 102, 103, 104, 105, 106, 107, 200, 201, 202, 300, 301, 500, 501, 600, 601, 602)
# state -> the codes (of REGISTRY plus 640) consumed there without any answer:
# receipts, statuses and errors; a closed session is silent to every code
SILENT = {
    SessionState.HANDSHAKE_SENT: (101, 600, 601, 602, 640),
    SessionState.ESTABLISHED: (101, 103, 104, 105, 106, 300, 301, 500, 501, 600, 601, 602, 640),
    SessionState.STREAMING: (101, 103, 104, 105, 106, 300, 301, 500, 501, 600, 601, 602, 640),
}


def config(n: int = 1, **overrides) -> NodeConfig:
    base = dict(
        node_id="%064x" % n,
        location=LOCATION,
        bandwidth=6,
        advertise_ip="172.21.25.%d" % (10 + n),
    )
    base.update(overrides)
    return NodeConfig(**base)


def remote_meta(n: int = 2, now_ms: int = 0, **overrides) -> MetaInfo:
    base = dict(
        node_id="%064x" % n,
        peer_ip="172.21.25.%d" % (10 + n),
        location=LOCATION,
        bandwidth=1,
        timestamp=format_timestamp(now_ms),
    )
    base.update(overrides)
    return MetaInfo(**base)


def inbound(code: int, n: int = 2, now_ms: int = 0, **payloads) -> Envelope:
    return Envelope(type_code=code, meta=remote_meta(n, now_ms), **payloads)


def payload_for(code: int, now_ms: int = 0):
    """The payload each retrieval code must carry, per the wire rules."""
    if code == 103:
        return {"info": InfoPayload(services=default_services())}
    if code == 105:
        return {"info": InfoPayload(peers={"c" * 64: PeerEntry("10.0.0.9", 62535, 4)})}
    if code == 201:
        return {
            "retrieve": RetrieveRequest(services=("PTU",), timestamp=format_timestamp(now_ms))
        }
    if code in (300, 301):
        return {"data": to_data_block(SampleGenerator().next_sample(now_ms))}
    return {}


def established_engine(**overrides):
    engine = Engine(config(**overrides))
    session = Session(state=SessionState.ESTABLISHED)
    return engine, session


# -- handshake ---------------------------------------------------------------------


def test_inbound_handshake_registers_and_confirms():
    engine = Engine(config())
    session = Session()
    (send,) = engine.handle_message(session, inbound(100), now_ms=1000)
    assert session.state is SessionState.ESTABLISHED
    assert session.remote.node_id == "%064x" % 2
    reply = send
    assert reply.type_code == 101
    assert reply.meta.node_id == engine.config.node_id
    assert validate(reply).ok
    assert "%064x" % 2 in engine.peer_table


def test_outbound_handshake_completes_on_confirmation():
    engine = Engine(config())
    session = Session()
    (send,) = engine.request(session, "handshake", now_ms=0)
    assert send.type_code == 100
    assert session.state is SessionState.HANDSHAKE_SENT
    replies = engine.handle_message(session, inbound(101), now_ms=50)
    assert session.state is SessionState.ESTABLISHED
    assert replies == []
    assert session.remote is not None and session.remote.node_id == "%064x" % 2
    assert engine.peer_table.get("%064x" % 2).last_rx == 50


def test_handshake_refresh_on_established_session():
    engine, session = established_engine()
    replies = engine.handle_message(session, inbound(100), now_ms=0)
    assert session.state is SessionState.ESTABLISHED
    assert [int(r.type_code) for r in replies] == [101]
    assert session.remote.node_id == "%064x" % 2
    assert "%064x" % 2 in engine.peer_table


def test_handshake_request_requires_idle():
    engine, session = established_engine()
    with pytest.raises(StateError):
        engine.request(session, "handshake", 0)


# -- service discovery ----------------------------------------------------------------


def test_service_discovery_served():
    engine, session = established_engine()
    (reply,) = engine.handle_message(session, inbound(102), now_ms=0)
    assert reply.type_code == 103
    assert reply.info.services == default_services()
    assert validate(reply).ok


def test_service_discovery_with_no_services_is_unavailable():
    engine, session = established_engine(services={})
    (send,) = engine.handle_message(session, inbound(102), now_ms=0)
    assert send.type_code == 602


def test_service_catalog_receipt_draws_no_echo():
    engine = Engine(config())
    session = Session(state=SessionState.ESTABLISHED)
    # the reply closes the exchange: two messages per operation, total
    assert engine.handle_message(session, inbound(103, **payload_for(103)), now_ms=0) == []


# -- peer listings ----------------------------------------------------------------------


def test_peer_list_serving_excludes_requester_and_caps_count():
    table = PeerTable()
    engine = Engine(config(), peer_table=table, rng=random.Random(42))
    session = Session(state=SessionState.ESTABLISHED)
    engine.handle_message(session, inbound(100), now_ms=0)  # register the asker
    for n in range(5, 45):
        table.upsert(
            PeerRecord(node_id="%064x" % n, peer_ip="10.0.0.%d" % (n % 250 + 1), port=62535, bandwidth=6)
        )
    request = Envelope(type_code=107, meta=remote_meta(2, peers_requested=20))
    (reply,) = engine.handle_message(session, request, now_ms=0)
    assert reply.type_code == 105
    assert len(reply.info.peers) == 20
    assert "%064x" % 2 not in reply.info.peers
    assert validate(reply).ok


def test_peer_list_receipt_merges_without_echo():
    engine, session = established_engine()
    listing = {"c" * 64: PeerEntry("10.0.0.9", 62535, 4)}
    replies = engine.handle_message(session, inbound(105, info=InfoPayload(peers=listing)), now_ms=7)
    assert replies == []
    assert "c" * 64 in engine.peer_table
    assert engine.peer_table.get("c" * 64).last_rx == 7


def test_a_listing_into_a_full_table_logs_one_warning(caplog):
    table = PeerTable(capacity=1)
    table.upsert(PeerRecord(node_id="%064x" % 9, peer_ip="10.0.0.9", port=62535, bandwidth=6))
    engine = Engine(config(), peer_table=table)
    session = Session(state=SessionState.ESTABLISHED)
    listing = {"%064x" % (100 + n): PeerEntry("10.0.1.%d" % (n + 1), 62535, 4) for n in range(100)}
    with caplog.at_level(logging.WARNING, logger="openweather.engine"):
        assert engine.handle_message(session, inbound(105, info=InfoPayload(peers=listing)), now_ms=7) == []
    assert len(table) == 1
    assert [record.getMessage() for record in caplog.records] == [
        "peer table at capacity (1), dropped 100 of 100 listed peers"
    ]
    # a handshake from one more stranger still writes its own line, and the session still knows its peer
    caplog.clear()
    handshake = Session()
    with caplog.at_level(logging.WARNING, logger="openweather.engine"):
        engine.handle_message(handshake, inbound(100), now_ms=8)
    assert len(caplog.records) == 1 and "dropped %064x" % 2 in caplog.records[0].getMessage()
    assert handshake.remote.node_id == "%064x" % 2 and len(table) == 1


def test_status_codes_are_swallowed():
    engine, session = established_engine()
    for code in (104, 106, 500, 501):
        assert engine.handle_message(session, inbound(code), now_ms=0) == []


# -- real-time stream --------------------------------------------------------------------


def test_stream_lifecycle_on_serving_side():
    engine, session = established_engine()
    session.key = "conn"
    # nothing stored yet: the subscription starts without a first frame
    assert engine.handle_message(session, inbound(200), now_ms=0) == []
    assert session.state is SessionState.STREAMING
    assert list(engine.subscribers) == ["conn"]
    # operations still answered while serving a stream
    (send,) = engine.handle_message(session, inbound(102), now_ms=1)
    assert send.type_code == 103
    (confirm,) = engine.handle_message(session, inbound(202), now_ms=2)
    assert confirm.type_code == 500
    assert session.state is SessionState.ESTABLISHED
    assert list(engine.subscribers) == []


def test_subscription_answers_with_the_newest_stored_sample():
    engine, session = on_demand_engine()
    (first,) = engine.handle_message(session, inbound(200), now_ms=20000)
    assert first.type_code == 300
    assert first.data == to_data_block(SampleGenerator().next_sample(9000))
    # stamped with the sample's own time, not the serving moment
    assert first.meta.timestamp == "1970-01-01T00:00:09Z"
    assert validate(first).ok
    assert first == engine.stream_message(engine.sample_store.latest())


def test_subscribers_keep_subscription_order():
    engine = Engine(config())
    sessions = [Session(key=key, state=SessionState.ESTABLISHED) for key in ("c", "a", "b")]
    for session in sessions:
        engine.handle_message(session, inbound(200), now_ms=0)
    engine.handle_message(sessions[1], inbound(202), now_ms=1)
    engine.handle_message(sessions[1], inbound(200), now_ms=2)
    assert list(engine.subscribers) == ["c", "b", "a"]


def test_stream_request_out_of_turn_is_unexpected():
    engine = Engine(config())
    session = Session()
    (send,) = engine.handle_message(session, inbound(200), now_ms=0)
    assert send.type_code == 600
    engine2, session2 = established_engine()
    engine2.handle_message(session2, inbound(200), now_ms=0)
    (send2,) = engine2.handle_message(session2, inbound(200), now_ms=1)
    assert send2.type_code == 600


def test_requester_subscription_flags():
    engine, session = established_engine()
    (send,) = engine.request(session, "stream", 0)
    assert send.type_code == 200
    assert session.stream_active
    with pytest.raises(StateError):
        engine.request(session, "stream", 1)
    (send,) = engine.request(session, "stop", 2)
    assert send.type_code == 202
    assert not session.stream_active
    with pytest.raises(StateError):
        engine.request(session, "stop", 3)


def test_inbound_data_draws_no_reply():
    engine = Engine(config())
    session = Session(state=SessionState.ESTABLISHED)
    assert engine.handle_message(session, inbound(300, **payload_for(300)), now_ms=0) == []
    assert engine.handle_message(session, inbound(301, **payload_for(301)), now_ms=1) == []


# -- on-demand serving ---------------------------------------------------------------------


def on_demand_engine():
    store = SampleStore()
    generator = SampleGenerator()
    for tick in (3000, 6000, 9000):
        store.insert(generator.next_sample(tick))
    engine = Engine(config(), sample_store=store)
    session = Session(state=SessionState.ESTABLISHED)
    return engine, session


def query(timestamp: str, services=("PTU", "WIND", "PRECIPITATION")) -> Envelope:
    return Envelope(
        type_code=201,
        meta=remote_meta(),
        retrieve=RetrieveRequest(services=tuple(services), timestamp=timestamp),
    )


def test_on_demand_hit_returns_stored_sample():
    engine, session = on_demand_engine()
    (reply,) = engine.handle_message(session, query("1970-01-01T00:00:06Z"), now_ms=20000)
    assert reply.type_code == 301
    assert reply.data == to_data_block(SampleGenerator().next_sample(6000))
    # header echoes the requested moment, not the serving moment
    assert reply.meta.timestamp == "1970-01-01T00:00:06Z"
    assert validate(reply).ok


def test_on_demand_miss_is_sample_not_found():
    engine, session = on_demand_engine()
    (send,) = engine.handle_message(session, query("1970-01-01T00:01:00Z"), now_ms=20000)
    assert send.type_code == 601


def test_on_demand_unknown_service_is_unavailable():
    engine, session = on_demand_engine()
    bad = Envelope(
        type_code=201,
        meta=remote_meta(),
        retrieve=RetrieveRequest(services=("PTU", "SOLAR"), timestamp="1970-01-01T00:00:06Z"),
    )
    (send,) = engine.handle_message(session, bad, now_ms=20000)
    assert send.type_code == 602


def test_on_demand_without_a_store_is_unavailable():
    engine, session = established_engine()
    (send,) = engine.handle_message(session, query("1970-01-01T00:00:06Z"), now_ms=0)
    assert send.type_code == 602


def test_fetch_request_builds_query():
    engine, session = established_engine()
    (send,) = engine.request(session, "fetch", 0, ["PTU"], "2011-05-29T12:10:23Z")
    assert send.type_code == 201
    assert send.retrieve == RetrieveRequest(("PTU",), "2011-05-29T12:10:23Z")
    assert validate(send).ok


# -- closed sessions, errors, exhaustive dispatch -------------------------------------------


def test_closed_session_swallows_everything():
    engine = Engine(config())
    session = Session(state=SessionState.CLOSED)
    for code in REGISTRY:
        assert engine.handle_message(session, inbound(code, **payload_for(code)), 0) == []
        assert session.state is SessionState.CLOSED


def test_error_statuses_draw_no_reply():
    engine = Engine(config())
    session = Session(state=SessionState.ESTABLISHED)
    for code in (600, 601, 602, 650):
        assert engine.handle_message(session, inbound(code), 0) == []


def test_exhaustive_dispatch_is_total_and_clean():
    """Every (state, code) pair yields valid envelopes, a lone 600 status or listed silence."""
    for state in SessionState:
        for code in REGISTRY + (640,):
            store = SampleStore()
            store.insert(SampleGenerator().next_sample(3000))
            engine = Engine(config(), sample_store=store)
            session = Session(state=state)
            message = inbound(code, now_ms=5, **payload_for(code, now_ms=5))
            replies = engine.handle_message(session, message, now_ms=5)
            if state is SessionState.CLOSED:
                assert replies == []
                continue
            if code in SILENT.get(state, ()):
                assert replies == [], (state, code)
                continue
            assert replies, (state, code)
            for reply in replies:
                assert isinstance(reply, Envelope), (state, code)
                report = validate(reply)
                assert report.ok, (state, code, report.problems)
            if any(int(reply.type_code) == 600 for reply in replies):
                assert len(replies) == 1  # a 600 status is the whole answer
            if (state, code) == (SessionState.ESTABLISHED, 200):
                # a subscription opens with the stored sample's stream frame
                assert [int(reply.type_code) for reply in replies] == [300]


def test_session_last_rx_follows_messages():
    engine, session = established_engine()
    engine.handle_message(session, inbound(102), now_ms=1234)
    assert session.last_rx == 1234


# -- keep-alive -------------------------------------------------------------------------


def make_session(state, last_rx, keep_alive_ms):
    session = Session(state=state, last_rx=last_rx)
    if keep_alive_ms is not None:
        session.remote = PeerRecord(
            node_id="f" * 64,
            peer_ip="10.0.0.1",
            port=62535,
            bandwidth=6,
            keep_alive_ms=keep_alive_ms,
        )
    return session


def test_keep_alive_boundary_is_strict():
    engine = Engine(config())
    at_budget = make_session(SessionState.ESTABLISHED, last_rx=1000, keep_alive_ms=500)
    assert engine.keep_alive_sweep([at_budget], now_ms=1500) == []
    assert at_budget.state is SessionState.ESTABLISHED
    over = engine.keep_alive_sweep([at_budget], now_ms=1501)
    assert over == [at_budget]
    assert at_budget.state is SessionState.CLOSED


def test_keep_alive_closes_a_silent_idle_session_and_ignores_closed():
    engine = Engine(config())
    idle = Session(state=SessionState.IDLE, last_rx=0)
    closed = Session(state=SessionState.CLOSED, last_rx=0)
    assert engine.keep_alive_sweep([idle, closed], now_ms=10**9) == [idle]
    assert idle.state is SessionState.CLOSED


def test_pending_dial_survives_sweep_at_wall_clock_now():
    engine = Engine(config())
    session = Session()
    now = 1_381_761_721_000
    engine.request(session, "handshake", now_ms=now)
    assert session.last_rx == now
    assert engine.keep_alive_sweep([session], now_ms=now + 1000) == []


def test_keep_alive_uses_peer_budget_or_own_default():
    engine = Engine(config(keep_alive_ms=100))
    anonymous = Session(state=SessionState.HANDSHAKE_SENT, last_rx=0)
    assert engine.keep_alive_sweep([anonymous], now_ms=100) == []
    assert len(engine.keep_alive_sweep([anonymous], now_ms=101)) == 1


def test_keep_alive_sweep_matches_brute_force_oracle():
    rng = random.Random(120000)
    engine = Engine(config())
    sessions = []
    for key in range(50):
        state = rng.choice(list(SessionState))
        session = make_session(state, rng.randint(0, 5000), rng.choice([None, rng.randint(1, 4000)]))
        session.key = key
        session.stream_active = rng.random() < 0.3
        if state is SessionState.STREAMING:
            engine.subscribers[key] = None  # as a type 200 would have
        sessions.append(session)
    for now in range(0, 12000, 250):
        expect_closed = set()
        for session in sessions:
            if session.state is SessionState.CLOSED:
                continue
            budget = session.remote.keep_alive_ms if session.remote else engine.config.keep_alive_ms
            if session.last_rx + budget < now:
                expect_closed.add(id(session))
        swept = engine.keep_alive_sweep(sessions, now)
        assert {id(s) for s in swept} == expect_closed
        for session in swept:
            assert session.state is SessionState.CLOSED
            assert not session.stream_active
            assert session.key not in engine.subscribers
        # a STREAMING session the sweep closes leaves the table; the others stay, in order
        assert list(engine.subscribers) == [s.key for s in sessions if s.state is SessionState.STREAMING]


# -- headers -----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides, local_ip, problem",
    [
        ({}, "not-an-ip", "peer ip 'not-an-ip' is not a valid address"),
        ({"location": UtmLocation(1, 2, "bad")}, None, "location zone malformed"),
        ({"services": {"PTU": "RO", "SNOW": "RO"}}, None, "unknown service 'SNOW'"),
        ({"services": {"PTU": "XX"}}, None, "bad service flags 'XX'"),
    ],
    ids=["address", "zone", "service", "flags"],
)
def test_engine_refuses_a_header_it_could_not_send(overrides, local_ip, problem):
    with pytest.raises(EncodeError) as caught:
        Engine(config(**overrides), local_ip=local_ip)
    assert problem in str(caught.value)



def test_build_metainfo_carries_config():
    header = build_metainfo(config(), "172.21.25.16", 1311180689000)
    assert header.node_id == "%064x" % 1
    assert header.peer_ip == "172.21.25.16"
    assert header.timestamp == "2011-07-20T16:51:29Z"
    assert header.port == 62535
    assert validate(Envelope(type_code=100, meta=header)).ok


def typed(meta: MetaInfo) -> tuple:
    """Every header field with its exact type: a header that carries True differs from one that carries 1."""
    return tuple((type(value), value) for value in dataclasses.astuple(meta))


# advertised NodeConfig field -> new values to set between replies: another
# value, an equal value of another type, and the same value in a new object
CHANGES = {
    "node_id": ("%064x" % 9, "".join(["%064x" % 1])),
    "location": (UtmLocation(1, 2, "3C"), UtmLocation(6672224, 385565, "35V")),
    "bandwidth": (2, True, 1, False),
    "port": (1, True, 62536, 62535.0),
    "update_interval_ms": (5000, 120000.0, int("120000")),
    "peers_requested": (7, 20.0, int("20")),
    "keep_alive_ms": (9000, int("120000"), 120000.0),
}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("advance"), st.integers(0, 2500)),
            st.tuples(st.just("local_ip"), st.sampled_from(("10.0.0.1", "::1", "".join(["172.21.25.11"])))),
            st.sampled_from(sorted(CHANGES)).flatmap(lambda name: st.tuples(st.just(name), st.sampled_from(CHANGES[name]))),
        ),
        max_size=30,
    )
)
def test_reply_headers_follow_the_second_the_address_and_every_advertised_field(steps):
    engine = Engine(config())
    now = 1311180689000
    for name, value in steps:
        if name == "advance":
            now += value
        elif name == "local_ip":
            engine.local_ip = value
        else:
            setattr(engine.config, name, value)
        header = engine.status_message(ProtocolCode.HANDSHAKE_S, now).meta
        assert typed(header) == typed(build_metainfo(engine.config, engine.local_ip, now))


def test_a_reply_reuses_its_header_within_a_second():
    engine = Engine(config())
    first = engine.status_message(101, 1311180689000).meta
    assert engine.status_message(600, 1311180689999).meta is first
    assert engine.status_message(101, 1311180690000).meta.timestamp == "2011-07-20T16:51:30Z"


@pytest.mark.parametrize("asked", ["1970-01-01T00:00:06Z", "1970-01-01T00:00:06"])
def test_fetch_reply_header_is_the_replaced_header(asked):
    engine, session = on_demand_engine()
    engine.config.port = True  # mistyped: the header must carry it as it is
    (send,) = engine.handle_message(session, query(asked), now_ms=20000)
    before = dataclasses.replace(build_metainfo(engine.config, engine.local_ip, 20000), timestamp=asked)
    assert typed(send.meta) == typed(before)
    assert send.meta.timestamp == "1970-01-01T00:00:06Z"

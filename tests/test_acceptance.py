"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints a single "PASS criterion N" line when its checks hold;
run `pytest tests/test_acceptance.py -v -s` to see the lines.  A failed
assertion keeps the line from printing and fails the test.
"""

import hashlib
import math
import random
import string
from decimal import Decimal

import captures
from test_codec import random_envelope
from test_engine import REGISTRY, SILENT, config as node_config, inbound, payload_for

from openweather.codec import (
    Envelope,
    ProtocolCode,
    RetrieveRequest,
    decode,
    encode,
    format_timestamp,
    validate,
)
from openweather.engine import Engine, Session, SessionState
from openweather.identity import StationDescriptor, derive_node_id
from openweather.peers import BANDWIDTH_CLASS_BPS, PeerRecord, bandwidth_to_bps
from openweather.scenario import run_scenario
from openweather.sensors import SampleGenerator, SampleStore
from openweather.vendor import (
    FieldValueError,
    FormatError,
    parse_line,
    to_data_block,
    to_sample,
)


def verdict(n: int, text: str) -> None:
    print("PASS criterion %d: %s" % (n, text))


# -- 1: recorded messages decode to their printed values ---------------------------


def test_criterion_01_captures_decode():
    decoded = {}
    for name, text, code, _ in captures.ALL:
        envelope = decode(text.encode("utf-8"))
        assert int(envelope.type_code) == code, name
        decoded[name] = envelope

    greeting = decoded["test1-node1"].meta
    assert greeting.bandwidth == 6
    assert greeting.port == 62535
    assert greeting.peer_ip == "172.21.25.16"

    ptu = decoded["test3-node1"].data.ptu
    assert ptu.air_temperature == "19.1"
    assert ptu.relative_humidity == "69.4"
    assert ptu.air_pressure == "1014.1"

    catalog = decoded["test2-node4"].info.services
    assert catalog == {"PTU": "RO", "WIND": "RO", "PRECIPITATION": "RO"}

    verdict(1, "all six recorded messages decode; fields match the printed values")


# -- 2: canonical re-encoding reproduces the reported sizes ------------------------


def test_criterion_02_reencoded_sizes():
    targets = {100: 375, 101: 375, 102: 375, 103: 458, 200: 375, 300: 814}
    for name, text, code, pinned in captures.ALL:
        out = encode(decode(text.encode("utf-8")))
        assert len(out) == pinned, name
        target = targets[code]
        assert abs(len(out) - target) / target <= 0.05, name
    verdict(2, "re-encoded lengths equal the pinned oracle values, within 5% of reported sizes")


# -- 3: four-node replay ------------------------------------------------------------


FOUR_NODES = (
    "node n1 ip=172.21.25.16 bandwidth=6\n"
    "node n2 ip=172.21.25.20 bandwidth=6\n"
    "node n3 ip=172.21.25.35 bandwidth=1\n"
    "node n4 ip=172.21.25.40 bandwidth=0\n"
    "link n1 n2 latency_ms=0 bandwidth=100000000\n"
    "link n3 n4 latency_ms=0 bandwidth=56000\n"
    "link n4 n1 latency_ms=0 bandwidth=56000\n"
    "at 0 n1 handshake n2\n"
    "at 1000 n3 handshake n4\n"
    "at 2000 n3 discover n4\n"
    "at 3100 n4 handshake n1\n"
    "at 4000 n4 stream n1\n"
)


def test_criterion_03_four_node_replay():
    trace = run_scenario(FOUR_NODES, until_ms=4499)
    sends = [e for e in trace if e.kind == "send"]
    recvs = [e for e in trace if e.kind == "recv"]

    # five operations (three handshakes, discovery, stream start), two
    # application messages each, every frame delivered
    assert len(sends) == 10
    assert len(recvs) == 10
    counts = {}
    for event in sends:
        counts[event.code] = counts.get(event.code, 0) + 1
    assert counts == {100: 3, 101: 3, 102: 1, 103: 1, 200: 1, 300: 1}

    # byte sizes equal the recorded messages
    sizes = {100: 375, 101: 375, 102: 375, 103: 458, 200: 375, 300: 814}
    for event in trace:
        assert event.size == sizes[event.code], event.render()

    # the 814-byte reply (815 framed) on the 56 kbit/s wire: modeled
    # serialization delay, exact.  Wall-clock times measured on real hosts
    # (65/84/96 ms) include scheduling overheads and are not modeled.
    (sent,) = [e for e in sends if e.code == 300]
    (got,) = [e for e in recvs if e.code == 300]
    delay = got.time_ms - sent.time_ms
    assert delay == math.ceil(815 * 8 * 1000 / 56000) == 117

    verdict(3, "replay exchanges 2 messages per operation; 814-byte reply takes 117 ms at 56 kbit/s")


# -- 4: node identity hashing --------------------------------------------------------


def test_criterion_04_identity_oracle():
    helsinki = StationDescriptor(block="02", station="974", place="Helsinki-Vantaa", country="Finland")
    assert derive_node_id(helsinki) == (
        "a88a9b6b4c0381e0509ce36cadb5fd06e5446ab23881020b9f212db24b16ee75"
    )

    rng = random.Random(4)
    letters = string.ascii_letters
    for _ in range(100):
        descriptor = StationDescriptor(
            block="%02d" % rng.randrange(100),
            station="%03d" % rng.randrange(1000),
            place="".join(rng.choice(letters + "-") for _ in range(rng.randint(1, 24))),
            country="".join(rng.choice(letters) for _ in range(rng.randint(1, 16))),
        )
        record = "%s;%s;%s;;%s" % (
            descriptor.block,
            descriptor.station,
            descriptor.place,
            descriptor.country,
        )
        expected = hashlib.sha256(record.encode("utf-8")).hexdigest()
        assert derive_node_id(descriptor) == expected

    verdict(4, "node ids equal the independent SHA-256 oracle for 100 descriptors")


# -- 5: bandwidth class table ---------------------------------------------------------


def test_criterion_05_bandwidth_classes():
    table = {
        0: 56_000,
        1: 128_000,
        2: 256_000,
        3: 512_000,
        4: 1_000_000,
        5: 10_000_000,
        6: 100_000_000,
    }
    assert BANDWIDTH_CLASS_BPS == table
    for raw, bps in table.items():
        assert bandwidth_to_bps(raw) == bps

    rng = random.Random(5)
    for _ in range(1000):
        raw = rng.randrange(7, 10**9)
        assert bandwidth_to_bps(raw) == raw

    verdict(5, "all 7 class mappings exact; 1000 raw rates above class 6 pass through")


# -- 6: keep-alive expiry --------------------------------------------------------------


def test_criterion_06_keep_alive_sweep():
    rng = random.Random(6)
    engine = Engine(node_config())
    sessions = []
    for n in range(50):
        session = Session(state=rng.choice((SessionState.ESTABLISHED, SessionState.STREAMING)))
        session.last_rx = rng.randrange(0, 8000)
        session.stream_active = session.state is SessionState.STREAMING
        session.remote = PeerRecord(
            node_id="%064x" % n,
            peer_ip="10.1.0.%d" % (n + 1),
            port=62535,
            bandwidth=1,
            keep_alive_ms=rng.randrange(500, 6000),
        )
        sessions.append(session)

    for now in range(0, 16000, 250):
        open_before = [s for s in sessions if s.state not in (SessionState.IDLE, SessionState.CLOSED)]
        due = [s for s in open_before if s.last_rx + s.remote.keep_alive_ms < now]
        swept = engine.keep_alive_sweep(sessions, now_ms=now)
        assert swept == due
        for session in swept:
            assert session.state is SessionState.CLOSED
            assert not session.stream_active
    assert all(s.state is SessionState.CLOSED for s in sessions)  # horizon outlives every budget

    # the boundary instant does not expire: the budget must be exceeded
    edge = Session(state=SessionState.ESTABLISHED)
    edge.last_rx = 0
    edge.remote = PeerRecord(node_id="f" * 64, peer_ip="10.1.1.1", port=62535, bandwidth=1, keep_alive_ms=1500)
    assert engine.keep_alive_sweep([edge], now_ms=1500) == []
    assert len(engine.keep_alive_sweep([edge], now_ms=1501)) == 1

    verdict(6, "stepwise sweep over 50 sessions equals the brute-force oracle; boundary stays open")


# -- 7: state machine totality -----------------------------------------------------------


def test_criterion_07_dispatch_is_total():
    for state in SessionState:
        for code in REGISTRY + (640,):
            store = SampleStore()
            store.insert(SampleGenerator().next_sample(3000))
            engine = Engine(node_config(), sample_store=store)
            session = Session(state=state)
            replies = engine.handle_message(session, inbound(code, **payload_for(code)), now_ms=0)
            if state is SessionState.CLOSED or code in SILENT.get(state, ()):
                assert replies == [], (state, code)
                continue
            assert replies, (state, code)
            statuses = []
            for reply in replies:
                assert isinstance(reply, Envelope), (state, code, reply)
                assert validate(reply).ok, (state, code)
                if int(reply.type_code) == 600:
                    statuses.append(reply)
            if statuses:
                assert replies == statuses and len(statuses) == 1, (state, code)
            if (state, code) == (SessionState.ESTABLISHED, 200):
                assert [int(reply.type_code) for reply in replies] == [300]
    verdict(7, "every (state, code) pair yields valid envelopes, a lone 600 status or listed silence")


# -- 8: instrument line parsing ------------------------------------------------------------


def test_criterion_08_vendor_lines():
    ptu = parse_line("0r2,Ta=18.7C,Ua=77.4P,Pa=1002.1H")
    assert ptu.values["air_temperature_c"] == Decimal("18.7")
    assert ptu.values["relative_humidity_pct"] == Decimal("77.4")
    assert ptu.values["air_pressure_hpa"] == Decimal("1002.1")

    upper = parse_line("0R2,Ta=23.6C,Ua=14.2P,Pa=1026.6H")
    assert upper.values["air_temperature_c"] == Decimal("23.6")
    assert upper.values["relative_humidity_pct"] == Decimal("14.2")
    assert upper.values["air_pressure_hpa"] == Decimal("1026.6")

    # decimal text survives the whole path into the wire block
    probe = parse_line("0R1,Ta=10.60C")
    assert str(probe.values["air_temperature_c"]) == "10.60"
    block = to_data_block(to_sample(probe, 0))
    assert block.ptu.air_temperature == "10.60"

    rng = random.Random(8)
    alphabet = string.ascii_letters + string.digits + ",=.-#<> \t"
    for _ in range(1000):
        line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        try:
            parse_line(line)
        except (FormatError, FieldValueError):
            pass  # rejection is fine; crashing is not

    verdict(8, "printed lines parse to printed values; 1000 fuzzed lines never abort")


# -- 9: wire round-trip property --------------------------------------------------------------


def test_criterion_09_round_trip():
    rng = random.Random(9)
    for _ in range(1000):
        original = random_envelope(rng)
        wire = encode(original)
        again = decode(wire)
        assert again == original
        assert encode(again) == wire
    verdict(9, "1000 generated messages survive decode-encode identically, bytes stable")


# -- 10: on-demand equals real-time -------------------------------------------------------------


def test_criterion_10_on_demand_equivalence():
    store = SampleStore()
    sample = SampleGenerator().next_sample(61_000)
    store.insert(sample)
    engine = Engine(node_config(), sample_store=store)

    streamed = engine.stream_message(sample)
    assert int(streamed.type_code) == ProtocolCode.REAL_TIME_DATA_R

    session = Session(state=SessionState.ESTABLISHED)
    stamp = format_timestamp(61_000)
    request = inbound(
        201,
        retrieve=RetrieveRequest(services=("PTU", "WIND", "PRECIPITATION"), timestamp=stamp),
    )
    (fetched,) = engine.handle_message(session, request, now_ms=70_000)
    assert int(fetched.type_code) == ProtocolCode.ON_DEMAND_DATA_R

    assert fetched.data == streamed.data  # field-for-field, all three groups
    assert fetched.meta.timestamp == stamp
    for field_name in ("node_id", "peer_ip", "location", "bandwidth", "port",
                       "keep_alive_ms", "update_interval_ms", "peers_requested", "version"):
        assert getattr(fetched.meta, field_name) == getattr(streamed.meta, field_name)

    verdict(10, "stored-sample reply equals the stream block; only type and header timestamp differ")

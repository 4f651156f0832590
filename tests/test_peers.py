"""Peer table: bandwidth classes, merge semantics, expiry, bootstrap files."""

import random
from dataclasses import astuple

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from openweather.codec import PeerEntry
from openweather.peers import (
    BANDWIDTH_CLASS_BPS,
    BootstrapError,
    PeerRecord,
    PeerTable,
    TableFullError,
    bandwidth_to_bps,
    load_bootstrap,
)

EXPECTED_CLASSES = {
    0: 56000,
    1: 128000,
    2: 256000,
    3: 512000,
    4: 1000000,
    5: 10000000,
    6: 100000000,
}


def record(n: int, **overrides) -> PeerRecord:
    base = dict(
        node_id="%064x" % n,
        peer_ip="10.0.%d.%d" % (n // 250, n % 250 + 1),
        port=62535,
        bandwidth=6,
    )
    base.update(overrides)
    return PeerRecord(**base)


def test_bandwidth_class_table():
    assert BANDWIDTH_CLASS_BPS == EXPECTED_CLASSES
    for klass, bps in EXPECTED_CLASSES.items():
        assert bandwidth_to_bps(klass) == bps


def test_bandwidth_above_table_passes_through():
    rng = random.Random(56000)
    for _ in range(1000):
        raw = rng.randint(7, 10**9)
        assert bandwidth_to_bps(raw) == raw
    with pytest.raises(ValueError):
        bandwidth_to_bps(-1)


def test_upsert_inserts_and_merges():
    table = PeerTable()
    first = table.upsert(record(1, last_rx=100))
    assert len(table) == 1 and first.node_id in table
    merged = table.upsert(record(1, peer_ip="10.9.9.9", bandwidth=2, last_rx=50))
    assert merged is first
    assert merged.peer_ip == "10.9.9.9"
    assert merged.bandwidth == 2
    assert merged.last_rx == 100  # never moves backwards
    assert len(table) == 1


def test_upsert_keeps_super_node_flag_sticky():
    table = PeerTable()
    table.upsert(record(1, super_node=True))
    merged = table.upsert(record(1))
    assert merged.super_node


def test_capacity_limit():
    table = PeerTable(capacity=3)
    for n in range(3):
        table.upsert(record(n))
    with pytest.raises(TableFullError):
        table.upsert(record(99))
    # merging an existing peer is still allowed at capacity
    table.upsert(record(1, bandwidth=0))
    assert table.get("%064x" % 1).bandwidth == 0


def test_select_peers_is_deterministic_and_excludes():
    table = PeerTable()
    for n in range(30):
        table.upsert(record(n))
    picked = table.select_peers(10, random.Random(42))
    again = table.select_peers(10, random.Random(42))
    assert [p.node_id for p in picked] == [p.node_id for p in again]
    assert len(picked) == 10
    assert len({p.node_id for p in picked}) == 10
    without = table.select_peers(30, random.Random(42), exclude={"%064x" % 5})
    assert "%064x" % 5 not in [p.node_id for p in without]
    assert len(without) == 29
    assert table.select_peers(100, random.Random(1)) == table.snapshot()
    with pytest.raises(ValueError):
        table.select_peers(-1, random.Random(1))


def test_expire_idle_is_strict_and_spares_super_nodes():
    table = PeerTable()
    table.upsert(record(1, last_rx=1000, keep_alive_ms=500))
    table.upsert(record(2, last_rx=1000, keep_alive_ms=500, super_node=True))
    assert table.expire_idle(1500) == []  # exactly at the budget: keep
    dropped = table.expire_idle(1501)
    assert [p.node_id for p in dropped] == ["%064x" % 1]
    assert "%064x" % 2 in table


def test_listing_entry():
    entry = record(7, port=1234, bandwidth=3).listing_entry()
    assert (entry.peer_ip, entry.port, entry.bandwidth) == ("10.0.0.8", 1234, 3)


def test_load_bootstrap(tmp_path):
    path = tmp_path / "supernodes.txt"
    path.write_text(
        "# known super nodes\n"
        "\n"
        "%s 172.21.25.16 62535 6\n" % ("a" * 64)
        + "%s 172.21.25.20 62536 1\n" % ("b" * 64),
        encoding="ascii",
    )
    records = load_bootstrap(path)
    assert [r.peer_ip for r in records] == ["172.21.25.16", "172.21.25.20"]
    assert all(r.super_node for r in records)
    assert records[1].bandwidth == 1 and records[1].port == 62536


@pytest.mark.parametrize(
    "line",
    [
        "tooshort 10.0.0.1 62535 6",
        "%s 10.0.0.1 62535" % ("a" * 64),
        "%s 10.0.0.1 hello 6" % ("a" * 64),
        "%s 10.0.0.1 0 6" % ("a" * 64),
        "%s 10.0.0.1 62535 -2" % ("a" * 64),
    ],
)
def test_load_bootstrap_rejects_bad_lines(tmp_path, line):
    path = tmp_path / "supernodes.txt"
    path.write_text(line + "\n", encoding="ascii")
    with pytest.raises(BootstrapError) as caught:
        load_bootstrap(path)
    assert "line 1" in str(caught.value)


@pytest.mark.parametrize("address", ["not-an-ip", "10.0.0.256", "host.example"])
def test_load_bootstrap_rejects_an_address_ipaddress_refuses(tmp_path, address):
    path = tmp_path / "supernodes.txt"
    path.write_text(
        "%s 10.0.0.1 62535 6\n%s %s 62535 6\n" % ("a" * 64, "b" * 64, address),
        encoding="ascii",
    )
    with pytest.raises(BootstrapError) as caught:
        load_bootstrap(path)
    assert str(caught.value) == "line 2: bad address %r" % address


# -- the table against a plain model -----------------------------------------------


IDS = ["%064x" % n for n in (3, 1, 4, 15, 9, 2, 6, 5)]
ADDRESSES = ("10.0.0.1", "10.0.0.2", "::1")
PORTS = (1, True, 2, 62535, 65535)  # True == 1, yet it must not be listed as 1
BANDWIDTHS = (0, 1, True, 6, 1_000_000)


def exact(value) -> tuple:
    return type(value), value


class PeerTableMachine(RuleBasedStateMachine):
    """Upserts, expiry and listings against a dict of the fields each upsert set."""

    def __init__(self):
        super().__init__()
        self.table = PeerTable(capacity=6)
        self.model = {}  # node id -> the fields the table should hold

    @rule(node_id=st.sampled_from(IDS), ip=st.sampled_from(ADDRESSES), port=st.sampled_from(PORTS),
          bandwidth=st.sampled_from(BANDWIDTHS), last_rx=st.integers(0, 5000), super_node=st.booleans())
    def new_record(self, node_id, ip, port, bandwidth, last_rx, super_node):
        fields = dict(peer_ip=ip, port=port, bandwidth=bandwidth, last_rx=last_rx, super_node=super_node)
        if node_id in self.model:
            return
        if len(self.model) >= 6:
            with pytest.raises(TableFullError):
                self.table.upsert(PeerRecord(node_id=node_id, keep_alive_ms=1000, **fields))
            return
        self.table.upsert(PeerRecord(node_id=node_id, keep_alive_ms=1000, **fields))
        self.model[node_id] = fields

    @precondition(lambda self: self.model)
    @rule(data=st.data(), ip=st.sampled_from(ADDRESSES), port=st.sampled_from(PORTS),
          bandwidth=st.sampled_from(BANDWIDTHS), last_rx=st.integers(0, 5000))
    def change(self, data, ip, port, bandwidth, last_rx):
        node_id = data.draw(st.sampled_from(sorted(self.model)))
        # the same text in a new object, as a decoded frame carries it
        self.table.upsert(PeerRecord(node_id, "".join([ip]), port, bandwidth, keep_alive_ms=1000, last_rx=last_rx))
        fields = self.model[node_id]
        fields.update(peer_ip=ip, port=port, bandwidth=bandwidth, last_rx=max(fields["last_rx"], last_rx))

    @rule(now=st.integers(0, 7000))
    def expire(self, now):
        dropped = self.table.expire_idle(now)
        gone = sorted(k for k, f in self.model.items() if not f["super_node"] and f["last_rx"] + 1000 < now)
        assert sorted(record.node_id for record in dropped) == gone
        for node_id in gone:
            del self.model[node_id]

    @rule(n=st.integers(0, 8), seed=st.integers(0, 2**32), exclude=st.sets(st.sampled_from(IDS), max_size=3))
    def listing(self, n, seed, exclude):
        picked = self.table.select_peers(n, random.Random(seed), exclude=exclude)
        candidates = [self.table.get(k) for k in sorted(self.model) if k not in exclude]
        expected = candidates if n >= len(candidates) else random.Random(seed).sample(candidates, n)
        assert [record.node_id for record in picked] == [record.node_id for record in expected]

    @invariant()
    def records_match_the_model(self):
        assert [record.node_id for record in self.table.snapshot()] == sorted(self.model)
        for node_id, fields in self.model.items():
            record = self.table.get(node_id)
            for name in ("peer_ip", "port", "bandwidth", "last_rx"):
                assert exact(getattr(record, name)) == exact(fields[name])
            entry = record.listing_entry()
            fresh = PeerEntry(fields["peer_ip"], fields["port"], fields["bandwidth"])
            assert [exact(v) for v in astuple(entry)] == [exact(v) for v in astuple(fresh)]


TestPeerTableMachine = PeerTableMachine.TestCase
TestPeerTableMachine.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)


def test_a_record_keeps_its_listing_entry_until_a_listed_field_changes():
    table = PeerTable()
    kept = table.upsert(record(1, port=62535)).listing_entry()
    table.upsert(record(1, port=int("62535"), last_rx=5, keep_alive_ms=9))
    assert table.get("%064x" % 1).listing_entry() is kept
    table.upsert(record(1, port=62536))
    assert table.get("%064x" % 1).listing_entry().port == 62536

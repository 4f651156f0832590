"""Peer table: bandwidth classes, merge semantics, expiry, bootstrap files."""

import random

import pytest

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

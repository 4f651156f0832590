"""Peer bookkeeping: bandwidth classes, the peer table, super-node lists.

The table is a bounded map from node id to the freshest known record.
It keeps its ids in sorted order as they arrive, so a listing visits the
candidates in that order without sorting them per request, and each record
keeps the PeerEntry it lists until one of the listed fields changes.
Single writer assumed; time is integer epoch milliseconds so the same code
runs under the real clock and the virtual one.
"""

from __future__ import annotations

import bisect
import ipaddress
import random
from dataclasses import dataclass, field

from .codec import DEFAULT_KEEP_ALIVE_MS, PeerEntry, UtmLocation
from .identity import is_node_id

# class -> bits per second; raw values above the table pass through as bps
BANDWIDTH_CLASS_BPS = {
    0: 56_000,
    1: 128_000,
    2: 256_000,
    3: 512_000,
    4: 1_000_000,
    5: 10_000_000,
    6: 100_000_000,
}


def bandwidth_to_bps(raw: int) -> int:
    """Resolve a Bandwidth field to bits per second."""
    if raw < 0:
        raise ValueError("bandwidth class below 0")
    return BANDWIDTH_CLASS_BPS.get(raw, raw)


class TableFullError(RuntimeError):
    """The peer table is at capacity and the record was dropped."""


class BootstrapError(ValueError):
    """A super-node bootstrap file line could not be parsed."""


@dataclass
class PeerRecord:
    """Everything known about one remote node."""

    node_id: str
    peer_ip: str
    port: int
    bandwidth: int
    location: UtmLocation | None = None
    keep_alive_ms: int = DEFAULT_KEEP_ALIVE_MS
    last_rx: int = 0  # epoch ms of the last message from (or about) this peer
    super_node: bool = False
    _entry: PeerEntry | None = field(default=None, init=False, repr=False, compare=False)

    def listing_entry(self) -> PeerEntry:
        """This peer's row of a listing: the same object while its fields are the same objects."""
        entry = self._entry
        if (
            entry is None
            or entry.peer_ip is not self.peer_ip
            or entry.port is not self.port
            or entry.bandwidth is not self.bandwidth
        ):
            entry = self._entry = PeerEntry(peer_ip=self.peer_ip, port=self.port, bandwidth=self.bandwidth)
        return entry


def _same(old, new) -> bool:
    # equal and of one type: True == 1, yet a listing must not carry the one for the other
    return type(old) is type(new) and old == new


class PeerTable:
    """Known peers keyed by node id; bounded, merge-on-upsert."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: dict[str, PeerRecord] = {}
        self._ids: list[str] = []  # the keys of _records, sorted

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._records

    def get(self, node_id: str) -> PeerRecord | None:
        return self._records.get(node_id)

    def upsert(self, record: PeerRecord) -> PeerRecord:
        """Insert or merge by node id; last_rx never moves backwards."""
        current = self._records.get(record.node_id)
        if current is None:
            if len(self._records) >= self.capacity:
                raise TableFullError(
                    "peer table at capacity (%d), dropped %s" % (self.capacity, record.node_id)
                )
            bisect.insort(self._ids, record.node_id)
            self._records[record.node_id] = record
            return record
        # a listed field keeps its object while the value stays, so the record keeps its listing entry
        if not _same(current.peer_ip, record.peer_ip):
            current.peer_ip = record.peer_ip
        if not _same(current.port, record.port):
            current.port = record.port
        if not _same(current.bandwidth, record.bandwidth):
            current.bandwidth = record.bandwidth
        if record.location is not None:
            current.location = record.location
        current.keep_alive_ms = record.keep_alive_ms
        current.last_rx = max(current.last_rx, record.last_rx)
        current.super_node = current.super_node or record.super_node
        return current

    def select_peers(self, n: int, rng: random.Random, exclude=()) -> list[PeerRecord]:
        """Uniform sample without replacement; at most n, maybe fewer.

        Candidates are visited in sorted-id order so a seeded rng gives
        the same listing on every run.
        """
        if n < 0:
            raise ValueError("cannot select a negative number of peers")
        skip = set(exclude)
        records = self._records
        candidates = [records[k] for k in self._ids if k not in skip]
        if n >= len(candidates):
            return candidates
        return rng.sample(candidates, n)

    def expire_idle(self, now_ms: int) -> list[PeerRecord]:
        """Drop peers whose last_rx + keep_alive fell strictly behind now."""
        dropped = []
        for node_id in list(self._records):
            record = self._records[node_id]
            if record.super_node:
                continue
            if record.last_rx + record.keep_alive_ms < now_ms:
                dropped.append(self._records.pop(node_id))
        if dropped:
            self._ids = [k for k in self._ids if k in self._records]
        return dropped

    def snapshot(self) -> list[PeerRecord]:
        return [self._records[k] for k in self._ids]


def load_bootstrap(path) -> list[PeerRecord]:
    """Read super-node records: ``<node-id-hex> <ip> <port> <bandwidth-class>``."""
    records = []
    with open(path, "r", encoding="ascii") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise BootstrapError("line %d: expected 4 fields, got %d" % (number, len(parts)))
            node_id, ip, port_text, bandwidth_text = parts
            if not is_node_id(node_id):
                raise BootstrapError("line %d: bad node id %r" % (number, node_id))
            try:
                ipaddress.ip_address(ip)
            except ValueError:
                raise BootstrapError("line %d: bad address %r" % (number, ip))
            try:
                port = int(port_text, 10)
                bandwidth = int(bandwidth_text, 10)
            except ValueError:
                raise BootstrapError("line %d: port and bandwidth must be integers" % number)
            if not 1 <= port <= 65535:
                raise BootstrapError("line %d: port %d out of range" % (number, port))
            if bandwidth < 0:
                raise BootstrapError("line %d: bandwidth class below 0" % number)
            records.append(
                PeerRecord(
                    node_id=node_id,
                    peer_ip=ip,
                    port=port,
                    bandwidth=bandwidth,
                    super_node=True,
                )
            )
    return records

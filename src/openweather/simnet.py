"""Deterministic virtual network for protocol simulation.

Frames move between named nodes over configured links.  A frame handed to
send() at virtual time t starts serializing once the link's pipe is free,
takes ceil(bits / bandwidth) whole milliseconds to serialize, then rides
the one-way latency; back-to-back sends queue exactly as on a real serial
pipe.  Deliveries come out of advance() ordered by (time, connection,
sequence), so two runs of the same script produce identical traces.
Each Delivery carries the type code its sender passed to send(), so the
receiving side can label a frame without decoding it.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import NamedTuple


class SimError(RuntimeError):
    """Misuse of the virtual network."""


class NoLinkError(SimError):
    """No link is configured between the two endpoints."""


@dataclass(frozen=True)
class LinkSpec:
    """One direction of a point-to-point pipe; refuses a rate, delay or loss it cannot model."""

    latency_ms: int = 0
    bandwidth_bps: int = 100_000_000
    loss: float = 0.0

    def __post_init__(self):
        if self.bandwidth_bps < 1:
            raise ValueError("bandwidth must be at least 1 bit/s, got %r" % (self.bandwidth_bps,))
        if self.latency_ms < 0:
            raise ValueError("latency_ms must not be negative, got %r" % (self.latency_ms,))
        if not 0 <= self.loss <= 1:
            raise ValueError("loss must be from 0 to 1, got %r" % (self.loss,))


class Delivery(NamedTuple):
    """A frame arriving at its destination, with its sender's type code."""

    time_ms: int
    conn_id: int
    src: str
    dst: str
    frame: bytes
    code: int = 0


class VirtualConnection:
    """A bidirectional conversation between two nodes."""

    __slots__ = ("conn_id", "a", "b")

    def __init__(self, conn_id: int, a: str, b: str):
        self.conn_id = conn_id
        self.a = a
        self.b = b

    def other(self, name: str) -> str:
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise SimError("%r is not an endpoint of this connection" % (name,))


class VirtualClock:
    """Monotonic virtual milliseconds; VirtualNetwork.advance moves them forward."""

    def __init__(self, start_ms: int = 0):
        self.now_ms = start_ms


class VirtualNetwork:
    """Nodes, links and in-flight frames under one virtual clock."""

    def __init__(self, seed: int = 0, start_ms: int = 0):
        self.clock = VirtualClock(start_ms)
        self._links: dict[tuple, LinkSpec] = {}
        self._pending: list = []  # (time, conn_id, seq, Delivery)
        self._seq = 0
        self._busy: dict[tuple, int] = {}  # (src, dst) -> pipe free at
        self._rng = random.Random(seed)
        self._next_conn = 1
        self.dropped = 0

    def set_link(self, a: str, b: str, spec: LinkSpec) -> None:
        """Configure both directions of the pipe between a and b."""
        self._links[(a, b)] = spec
        self._links[(b, a)] = spec

    def link(self, src: str, dst: str) -> LinkSpec:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise NoLinkError("no link between %r and %r" % (src, dst))

    def connect(self, a: str, b: str) -> VirtualConnection:
        """Open a conversation; the link must already exist."""
        self.link(a, b)
        conn = VirtualConnection(self._next_conn, a, b)
        self._next_conn += 1
        return conn

    def send(self, conn: VirtualConnection, src: str, frame: bytes, code: int = 0) -> int | None:
        """Queue a frame tagged with its type code; returns its delivery time, or None when lost."""
        dst = conn.other(src)
        spec = self.link(src, dst)
        now = self.clock.now_ms
        if spec.loss > 0 and self._rng.random() < spec.loss:
            self.dropped += 1
            return None
        serialization = math.ceil(len(frame) * 8 * 1000 / spec.bandwidth_bps)
        start = max(now, self._busy.get((src, dst), now))
        finish = start + serialization
        self._busy[(src, dst)] = finish
        arrival = max(finish + spec.latency_ms, now + 1)
        self._seq += 1
        heapq.heappush(
            self._pending,
            (arrival, conn.conn_id, self._seq, Delivery(arrival, conn.conn_id, src, dst, bytes(frame), code)),
        )
        return arrival

    def next_event_ms(self) -> int | None:
        return self._pending[0][0] if self._pending else None

    def advance(self, delta_ms: int) -> list:
        """Move time forward, returning every delivery due in the window."""
        if delta_ms < 0:
            raise SimError("the clock only moves forward")
        target = self.clock.now_ms + delta_ms
        out = []
        while self._pending and self._pending[0][0] <= target:
            _, _, _, delivery = heapq.heappop(self._pending)
            self.clock.now_ms = delivery.time_ms
            out.append(delivery)
        self.clock.now_ms = target
        return out

"""Per-session protocol state machine.

The engine consumes decoded, validated envelopes and answers with the
list of envelopes to send back on the same session, in order.  A message
that needs no reply (a receipt, a status) answers with an empty list; of
those, only a peer listing changes anything, by merging into the peer
table.  The engine never touches a socket or a clock itself.  Time
arrives as integer epoch milliseconds, so the same engine runs under the
real clock and the simulator's virtual one.

The engine also owns the node's subscriber table: ``subscribers`` holds
the keys of the sessions it streams to, in subscription order.  A type
200 adds the session's key, and a type 202 or a keep-alive sweep that
closes the session removes it.  stream_message builds the type-300
message of one sample, for the first frame of a subscription and for
each later sample alike.

OPERATIONS is the one table of what a node starts as a requester: each
operator's verb with its request's type code and the reply code that
completes it.  request() starts any of them and keeps their state rules.

Session states: Idle (fresh connection), HandshakeSent (we opened),
Established, Streaming (we are serving a real-time feed), Closed.
A session's stream_active flag is the other direction: it tracks our own
subscription to the peer's feed as a requester.  Anything arriving in a
state the dispatch below does not allow is answered with a Type-600
status and no state change; a closed session swallows input silently.
The node runtime drops a session as soon as it closes, so only engine
callers that keep sessions themselves ever see the Closed state.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from enum import Enum

from . import vendor
from .codec import (
    DEFAULT_KEEP_ALIVE_MS,
    DEFAULT_PEERS_REQUESTED,
    DEFAULT_PORT,
    DEFAULT_UPDATE_INTERVAL_MS,
    ERROR_CODES,
    SERVICES,
    EncodeError,
    Envelope,
    InfoPayload,
    MetaInfo,
    ProtocolCode,
    RetrieveRequest,
    UtmLocation,
    format_timestamp,
    parse_timestamp,
    validate,
)
from .peers import PeerRecord, PeerTable, TableFullError
from .sensors import SampleStore

log = logging.getLogger(__name__)


class SessionState(Enum):
    IDLE = "idle"
    HANDSHAKE_SENT = "handshake-sent"
    ESTABLISHED = "established"
    STREAMING = "streaming"
    CLOSED = "closed"


_ACTIVE = (SessionState.ESTABLISHED, SessionState.STREAMING)
_ANSWERABLE = (SessionState.HANDSHAKE_SENT,) + _ACTIVE
# replies and statuses that complete an exchange: an active session takes them
# in silence, as no receipt goes back
_RECEIPTS = frozenset((
    ProtocolCode.SERVICES_AVAILABLE_R,
    ProtocolCode.SERVICES_AVAILABLE_S,
    ProtocolCode.LIST_PEERS_S,
    ProtocolCode.REAL_TIME_DATA_R,
    ProtocolCode.ON_DEMAND_DATA_R,
    ProtocolCode.REAL_TIME_DATA_S,
    ProtocolCode.ON_DEMAND_DATA_S,
))


# the requester operations, keyed by the operator's verb (the scenario commands
# and owp's one-shots): verb -> (request code, code of the reply that completes it)
OPERATIONS = {
    "handshake": (ProtocolCode.HANDSHAKE, ProtocolCode.HANDSHAKE_S),
    "discover": (ProtocolCode.SERVICES_AVAILABLE, ProtocolCode.SERVICES_AVAILABLE_R),
    "peers": (ProtocolCode.LIST_PEERS, ProtocolCode.LIST_PEERS_R),
    "stream": (ProtocolCode.REAL_TIME_DATA, ProtocolCode.REAL_TIME_DATA_R),
    "stop": (ProtocolCode.STOP_REAL_TIME_DATA, ProtocolCode.REAL_TIME_DATA_S),
    "fetch": (ProtocolCode.ON_DEMAND_DATA, ProtocolCode.ON_DEMAND_DATA_R),
}


@dataclass
class Session:
    """Protocol state for one connection, keyed as the transport keys it."""

    key: object = None
    state: SessionState = SessionState.IDLE
    remote: PeerRecord | None = None
    last_rx: int = 0
    stream_active: bool = False


def default_services() -> dict:
    return {name: "RO" for name in SERVICES}


@dataclass
class NodeConfig:
    """Everything a node advertises about itself."""

    node_id: str
    location: UtmLocation
    bandwidth: int
    port: int = DEFAULT_PORT
    advertise_ip: str = "127.0.0.1"
    update_interval_ms: int = DEFAULT_UPDATE_INTERVAL_MS
    peers_requested: int = DEFAULT_PEERS_REQUESTED
    keep_alive_ms: int = DEFAULT_KEEP_ALIVE_MS
    services: dict = field(default_factory=default_services)


def build_metainfo(config: NodeConfig, local_ip: str, now_ms: int) -> MetaInfo:
    """Header for an outbound message assembled at now_ms."""
    return _metainfo(config, local_ip, format_timestamp(now_ms))


def _metainfo(config: NodeConfig, local_ip: str, timestamp: str) -> MetaInfo:
    return MetaInfo(
        node_id=config.node_id,
        peer_ip=local_ip,
        location=config.location,
        bandwidth=config.bandwidth,
        timestamp=timestamp,
        port=config.port,
        update_interval_ms=config.update_interval_ms,
        peers_requested=config.peers_requested,
        keep_alive_ms=config.keep_alive_ms,
    )


class StateError(RuntimeError):
    """The requested operation is not allowed in the session's state."""


class Engine:
    """Message dispatch and requester operations for one node."""

    def __init__(
        self,
        config: NodeConfig,
        *,
        local_ip: str | None = None,
        peer_table: PeerTable | None = None,
        sample_store: SampleStore | None = None,
        rng: random.Random | None = None,
    ):
        self.config = config
        self.local_ip = local_ip if local_ip is not None else config.advertise_ip
        self.peer_table = peer_table if peer_table is not None else PeerTable()
        self.sample_store = sample_store
        self.rng = rng if rng is not None else random.Random()
        self.subscribers: dict = {}  # keys of STREAMING sessions in subscription order; values unused
        self._meta: MetaInfo | None = None  # the last header _header built, and its second
        self._meta_second = None
        # refuse now what this node could never send: its header, and its catalog if it has one
        info = InfoPayload(services=dict(config.services)) if config.services else None
        own = self._envelope(ProtocolCode.SERVICES_AVAILABLE_R if info else ProtocolCode.HANDSHAKE, 0, info=info)
        problems = validate(own).problems
        if problems:
            raise EncodeError("this node could not send its header or catalog: " + "; ".join(problems))

    # -- message builders ---------------------------------------------------

    def _header(self, now_ms: int) -> MetaInfo:
        """This node's header at now_ms.

        Only its second, local_ip and the advertised config fields go into
        a header, so the last one built is reused while all of them are the
        same objects as when it was built.  The config is mutable, and an
        equal value may still differ on the wire (True == 1), so the fields
        are compared by identity.
        """
        config, meta = self.config, self._meta
        second = now_ms // 1000
        if (
            second != self._meta_second
            or meta.peer_ip is not self.local_ip
            or meta.node_id is not config.node_id
            or meta.location is not config.location
            or meta.bandwidth is not config.bandwidth
            or meta.port is not config.port
            or meta.update_interval_ms is not config.update_interval_ms
            or meta.peers_requested is not config.peers_requested
            or meta.keep_alive_ms is not config.keep_alive_ms
        ):
            meta = self._meta = build_metainfo(config, self.local_ip, now_ms)
            self._meta_second = second
        return meta

    def _envelope(self, code, now_ms, *, data=None, info=None, retrieve=None, timestamp=None):
        if timestamp is None:
            meta = self._header(now_ms)
        else:  # stamped with another moment than now
            meta = _metainfo(self.config, self.local_ip, timestamp)
        return Envelope(int(code), meta, data=data, info=info, retrieve=retrieve)

    def status_message(self, code, now_ms: int) -> Envelope:
        """A bare header-only message (handshakes, statuses, errors)."""
        return self._envelope(code, now_ms)

    def stream_message(self, sample) -> Envelope:
        """A sample's Type-300 stream message, stamped with the sample's own time."""
        block = vendor.to_data_block(sample)
        return self._envelope(ProtocolCode.REAL_TIME_DATA_R, sample.timestamp_ms, data=block)

    # -- inbound dispatch ---------------------------------------------------

    def handle_message(self, session: Session, envelope: Envelope, now_ms: int) -> list:
        """React to one validated inbound envelope; returns the envelopes to send."""
        session.last_rx = now_ms
        code = int(envelope.type_code)
        state = session.state
        if state is SessionState.CLOSED:
            return []

        if code == ProtocolCode.HANDSHAKE:
            if state is SessionState.IDLE or state in _ACTIVE:
                self._register(session, envelope.meta, now_ms)
                if state is SessionState.IDLE:
                    session.state = SessionState.ESTABLISHED
                return [self.status_message(ProtocolCode.HANDSHAKE_S, now_ms)]
            return self._unexpected(now_ms)

        if code == ProtocolCode.HANDSHAKE_S:
            if state in _ANSWERABLE:
                self._register(session, envelope.meta, now_ms)
                if state is SessionState.HANDSHAKE_SENT:
                    session.state = SessionState.ESTABLISHED
                return []
            return self._unexpected(now_ms)

        if code == ProtocolCode.SERVICES_AVAILABLE and state in _ACTIVE:
            if not self.config.services:
                return [self.status_message(ProtocolCode.SERVICE_UNAVAILABLE, now_ms)]
            info = InfoPayload(services=dict(self.config.services))
            return [self._envelope(ProtocolCode.SERVICES_AVAILABLE_R, now_ms, info=info)]

        if code in _RECEIPTS and state in _ACTIVE:
            return []

        if code == ProtocolCode.LIST_PEERS and state in _ACTIVE:
            return self._serve_peer_list(envelope, now_ms)

        if code == ProtocolCode.LIST_PEERS_R and state in _ACTIVE:
            listing = envelope.info.peers if envelope.info else {}
            self._merge_listing(listing, now_ms)
            return []

        if code == ProtocolCode.REAL_TIME_DATA:
            if state is SessionState.ESTABLISHED:
                session.state = SessionState.STREAMING
                self.subscribers[session.key] = None
                latest = self.sample_store.latest() if self.sample_store is not None else None
                return [self.stream_message(latest)] if latest is not None else []
            return self._unexpected(now_ms)

        if code == ProtocolCode.ON_DEMAND_DATA and state in _ACTIVE:
            return self._serve_on_demand(envelope, now_ms)

        if code == ProtocolCode.STOP_REAL_TIME_DATA:
            if state is SessionState.STREAMING:
                session.state = SessionState.ESTABLISHED
                self.subscribers.pop(session.key, None)
                return [self.status_message(ProtocolCode.REAL_TIME_DATA_S, now_ms)]
            return self._unexpected(now_ms)

        if code in ERROR_CODES and state in _ANSWERABLE:
            return []

        return self._unexpected(now_ms)

    def _unexpected(self, now_ms: int) -> list:
        return [self.status_message(ProtocolCode.UNEXPECTED_MESSAGE, now_ms)]

    def _register(self, session: Session, meta: MetaInfo, now_ms: int) -> None:
        record = PeerRecord(
            node_id=meta.node_id,
            peer_ip=meta.peer_ip,
            port=meta.port,
            bandwidth=meta.bandwidth,
            location=meta.location,
            keep_alive_ms=meta.keep_alive_ms,
            last_rx=now_ms,
        )
        try:
            if not self._is_own_address(meta.peer_ip, meta.port):
                record = self.peer_table.upsert(record)  # the merged record
        except TableFullError as exc:
            log.warning("%s", exc)  # the full table dropped it: the session still gets it, unmerged
        session.remote = record

    def _is_own_address(self, peer_ip: str, port: int) -> bool:
        """Whether a remote advertises this node's own address, and so is no peer to record.

        An ``owp`` one-shot advertises its socket's address and the port it
        dials, so against a local node it claims the node's own address.
        """
        return peer_ip == self.local_ip and port == self.config.port

    def _merge_listing(self, listing: dict, now_ms: int) -> None:
        # one warning per listing, however many of its ids a full table refuses
        refused = 0
        for node_id, entry in listing.items():
            if self._is_own_address(entry.peer_ip, entry.port):
                continue
            try:
                self.peer_table.upsert(PeerRecord(
                    node_id=node_id,
                    peer_ip=entry.peer_ip,
                    port=entry.port,
                    bandwidth=entry.bandwidth,
                    last_rx=now_ms,
                ))
            except TableFullError:
                refused += 1
        if refused:
            log.warning("peer table at capacity (%d), dropped %d of %d listed peers",
                        self.peer_table.capacity, refused, len(listing))

    def _serve_peer_list(self, envelope: Envelope, now_ms: int) -> list:
        wanted = min(envelope.meta.peers_requested, 100)
        selected = self.peer_table.select_peers(wanted, self.rng, exclude={envelope.meta.node_id})
        listing = {record.node_id: record.listing_entry() for record in selected}
        info = InfoPayload(peers=listing)
        return [self._envelope(ProtocolCode.LIST_PEERS_R, now_ms, info=info)]

    def _serve_on_demand(self, envelope: Envelope, now_ms: int) -> list:
        request = envelope.retrieve
        if request is None or not set(request.services) <= set(self.config.services):
            return [self.status_message(ProtocolCode.SERVICE_UNAVAILABLE, now_ms)]
        if self.sample_store is None:
            return [self.status_message(ProtocolCode.SERVICE_UNAVAILABLE, now_ms)]
        try:
            wanted_ms = parse_timestamp(request.timestamp)
        except ValueError:
            return [self.status_message(ProtocolCode.SAMPLE_NOT_FOUND, now_ms)]
        sample = self.sample_store.lookup(wanted_ms)
        if sample is None:
            return [self.status_message(ProtocolCode.SAMPLE_NOT_FOUND, now_ms)]
        block = vendor.to_data_block(sample)
        reply = self._envelope(
            ProtocolCode.ON_DEMAND_DATA_R, now_ms, data=block, timestamp=request.timestamp
        )
        return [reply]

    # -- requester operations -----------------------------------------------

    def request(self, session: Session, verb: str, now_ms: int, *query) -> list:
        """Start the operation verb of OPERATIONS on session; returns its request.

        A handshake needs an idle session and every other operation an
        active one; a stream needs no stream open and a stop needs one.
        Otherwise StateError.  A fetch's query is its services and timestamp.
        """
        code = OPERATIONS[verb][0]
        state = session.state
        if verb == "handshake":
            if state is not SessionState.IDLE:
                raise StateError("handshake on a non-idle session (state: %s)" % state.value)
            session.state = SessionState.HANDSHAKE_SENT
            # nothing received yet: the keep-alive countdown starts at the send
            session.last_rx = now_ms
        elif state not in _ACTIVE:
            raise StateError("%s requires an established session (state: %s)" % (verb, state.value))
        elif verb == "stream" and session.stream_active:
            raise StateError("stream already active on this session")
        elif verb == "stop" and not session.stream_active:
            raise StateError("no active stream to stop")
        if verb in ("stream", "stop"):
            session.stream_active = verb == "stream"
        if verb == "fetch":
            services, timestamp = query
            return [self._envelope(code, now_ms, retrieve=RetrieveRequest(tuple(services), timestamp))]
        return [self.status_message(code, now_ms)]

    # -- housekeeping ---------------------------------------------------------

    def keep_alive_sweep(self, sessions, now_ms: int) -> list:
        """Close sessions whose peer went quiet; returns the sessions closed.

        A session that never heard a handshake (IDLE) holds no peer budget,
        so it expires on the node's own, counted from when it opened.
        """
        closed = []
        for session in sessions:
            if session.state is SessionState.CLOSED:
                continue
            allowance = session.remote.keep_alive_ms if session.remote else self.config.keep_alive_ms
            if session.last_rx + allowance < now_ms:
                session.state = SessionState.CLOSED
                session.stream_active = False
                self.subscribers.pop(session.key, None)
                closed.append(session)
        return closed

"""Transport-independent node coordinator.

A NodeRuntime owns the engine, sample store and sensor generator of one
node, and exposes plain event-in/outputs-out methods.  A transport (the
TCP server or the simulator) calls them with its own notion of time, then
performs the returned sends and hangups; the runtime itself never blocks
and never touches a socket.  The TCP client holds no runtime: it is the
engine's requester side on one session.

A session lives exactly as long as its connection.  open_session (a peer
connected to us) and connect (we connect to a peer) open one, and its
keep-alive budget starts then, so a peer that never speaks expires too.
The transport's on_disconnect, or a Hangup the runtime emits, ends it and
removes it from ``sessions``.  A frame for a key without a session is
dropped unread, so input that was in flight when a session closed
draws no reply.

On an open session, request(key, verb, now_ms, *query) starts any
operation of engine.OPERATIONS as the requester; connect is open_session
followed by the handshake request.

on_frame is the only way in for a frame, and each is one guarded step:
decode_checked (decode and check in one walk), dispatch, and encoding the
engine's answers.  Whatever fails in that step, the peer's frame or a
reply this node cannot encode, is answered by _reject with one type-600
status, so no frame escapes on_frame to stop the transport loop.  The
engine keeps the subscriber table; on_tick encodes each new sample's
stream message once and sends that frame to every subscriber.
"""

from __future__ import annotations

import logging
import random
from typing import NamedTuple

# decode and validate are unused here but stay module attributes: bench/tracer.py wraps node.decode and node.validate
from .codec import (  # noqa: F401
    ParseError, ProtocolCode, SchemaError, UnknownCodeError, decode, decode_checked, encode, validate,
)
from .engine import Engine, NodeConfig, Session
from .sensors import SampleGenerator, SampleStore

log = logging.getLogger(__name__)

STREAM_CODE = int(ProtocolCode.REAL_TIME_DATA_R)
SWEEP_INTERVAL_MS = 1000  # the keep-alive sweep's grid


class Outbound(NamedTuple):
    """A frame to put on the wire for the given connection key.

    code is the frame's message type code, known where the frame was built,
    so a transport can label it without decoding it again.
    """

    key: object
    frame: bytes
    code: int


class Hangup(NamedTuple):
    """An order to drop the given connection."""

    key: object
    reason: str


class NodeRuntime:
    """Engine plus housekeeping for one node, driven by a transport."""

    def __init__(
        self,
        config: NodeConfig,
        *,
        generator: SampleGenerator | None = None,
        store: SampleStore | None = None,
        rng: random.Random | None = None,
        local_ip: str | None = None,
        start_ms: int = 0,
    ):
        self.config = config
        self.store = store if store is not None else SampleStore()
        self.generator = generator
        self.engine = Engine(config, local_ip=local_ip, sample_store=self.store, rng=rng)
        self.sessions: dict = {}  # open connections only: key -> Session
        self._next_sample_ms = start_ms + generator.interval_ms if generator else None
        self._next_sweep_ms = start_ms + SWEEP_INTERVAL_MS

    # -- sessions -------------------------------------------------------------

    def open_session(self, key, now_ms: int) -> Session:
        """Start the session of a connection a peer made to us at now_ms."""
        session = self.sessions[key] = Session(key, last_rx=now_ms)
        return session

    def connect(self, key, now_ms: int) -> list:
        """Start a session we initiate: emits the opening handshake."""
        self.open_session(key, now_ms)
        return self.request(key, "handshake", now_ms)

    def on_disconnect(self, key, now_ms: int) -> None:
        """The connection on key is gone: drop its session and subscription."""
        self.sessions.pop(key, None)
        self.engine.subscribers.pop(key, None)

    # -- inbound --------------------------------------------------------------

    def on_frame(self, key, frame: bytes, now_ms: int) -> list:
        """Decode and check one frame, dispatch it and encode the replies; returns outputs.

        A frame for a key without a session (closed, or never opened) is
        dropped before it is decoded and draws no reply.  Anything that
        fails between decoding the frame and encoding the last reply is
        answered by _reject instead.
        """
        session = self.sessions.get(key)
        if session is None:
            return []
        try:
            envelope = decode_checked(frame)
            return self._outbound(key, self.engine.handle_message(session, envelope, now_ms))
        except (ParseError, SchemaError, UnknownCodeError) as exc:  # the peer's frame
            log.info("rejected frame on %r: %s", key, exc)
        except Exception:
            # dispatch, or a reply that does not encode: a fault of this node,
            # which must not stop the transport loop serving every connection
            log.warning("frame on %r failed", key, exc_info=True)
        return self._reject(key, now_ms)

    def _reject(self, key, now_ms: int) -> list:
        """Answer a frame whose step failed with one type-600 status."""
        self.sessions[key].last_rx = now_ms
        status = self.engine.status_message(ProtocolCode.UNEXPECTED_MESSAGE, now_ms)
        return self._outbound(key, [status])

    # -- requester operations --------------------------------------------------

    def request(self, key, verb: str, now_ms: int, *query) -> list:
        """Start an operation on the session on key; see Engine.request."""
        return self._outbound(key, self.engine.request(self.sessions[key], verb, now_ms, *query))

    # -- timers ---------------------------------------------------------------

    def next_due_ms(self) -> int:
        """When on_tick next has work: sampling or the keep-alive sweep.

        Only on_tick moves these timers, so the answer stays valid until the
        next on_tick call; a caller may cache it per node and skip on_tick
        for nodes not yet due.  Opening or closing a session moves neither:
        the sweep stays on its grid whatever the session table holds.
        """
        dues = [self._next_sweep_ms]
        if self._next_sample_ms is not None:
            dues.append(self._next_sample_ms)
        return min(dues)

    def on_tick(self, now_ms: int) -> list:
        """Run every timer due by now: sensor cadence, keep-alive sweep.

        After a stall the sample timer makes up every missed sample, and
        each one streams to every subscriber.  Missed keep-alive sweeps
        catch up in one sweep at the last grid point due: last_rx does not
        move while the node catches up, so the sweeps in between would
        close no session that this one keeps.  A session the sweep closes
        is removed, and its key comes back as a Hangup.
        """
        outputs = []
        while self._next_sample_ms is not None and self._next_sample_ms <= now_ms:
            tick = self._next_sample_ms
            self._next_sample_ms = tick + self.generator.interval_ms
            sample = self.generator.next_sample(tick)
            if sample is None:  # line-fed sources run dry
                continue
            self.store.insert(sample)
            subscribers = self.engine.subscribers
            if subscribers:
                frame = encode(self.engine.stream_message(sample)) + b"\n"
                outputs.extend(Outbound(key, frame, STREAM_CODE) for key in subscribers)
        if self._next_sweep_ms <= now_ms:
            sweep_at = now_ms - (now_ms - self._next_sweep_ms) % SWEEP_INTERVAL_MS
            self._next_sweep_ms = sweep_at + SWEEP_INTERVAL_MS
            for session in self.engine.keep_alive_sweep(self.sessions.values(), sweep_at):
                self.on_disconnect(session.key, sweep_at)
                outputs.append(Hangup(session.key, "keep-alive expired"))
        return outputs

    # -- encoding -------------------------------------------------------------

    def _outbound(self, key, envelopes: list) -> list:
        """Encode the engine's envelopes as frames for the connection on key."""
        return [Outbound(key, encode(e) + b"\n", int(e.type_code)) for e in envelopes]

"""Transport-independent node coordinator.

A NodeRuntime owns the engine, peer table, sample store, subscriber set
and sensor generator of one node, and exposes plain event-in/outputs-out
methods.  A transport (the TCP server or the simulator) calls them with
its own notion of time, then performs the returned sends and hangups; the
runtime itself never blocks and never touches a socket.

A session lives exactly as long as its connection.  open_session (a peer
connected to us) and connect (we connect to a peer) open one; the
transport's on_disconnect, or a Hangup the runtime emits, ends it and
removes it from ``sessions``.  A frame for a key without a session is
dropped unread, so input that was in flight when a session closed
draws no reply.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from . import vendor
from .codec import CodecError, Envelope, ProtocolCode, decode, encode, validate
from .engine import Callbacks, Engine, NodeConfig, SendMessage, Session, StartStream, StopStream
from .sensors import SampleGenerator, SampleStore

log = logging.getLogger(__name__)

STREAM_CODE = int(ProtocolCode.REAL_TIME_DATA_R)


@dataclass(frozen=True)
class Outbound:
    """A frame to put on the wire for the given connection key.

    code is the frame's message type code, known where the frame was built,
    so a transport can label it without decoding it again.
    """

    key: object
    frame: bytes
    code: int


@dataclass(frozen=True)
class Hangup:
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
        callbacks: Callbacks | None = None,
        rng: random.Random | None = None,
        local_ip: str | None = None,
        start_ms: int = 0,
        sweep_interval_ms: int = 1000,
    ):
        self.config = config
        self.store = store if store is not None else SampleStore()
        self.generator = generator
        self.engine = Engine(
            config,
            local_ip=local_ip,
            sample_store=self.store,
            callbacks=callbacks,
            rng=rng,
        )
        self.sessions: dict = {}  # open connections only: key -> Session
        self.subscribers: dict = {}  # subscribed keys in subscription order; values unused
        self._next_sample_ms = start_ms + generator.interval_ms if generator else None
        self._sweep_interval_ms = sweep_interval_ms
        self._next_sweep_ms = start_ms + sweep_interval_ms

    # -- sessions -------------------------------------------------------------

    def session(self, key) -> Session:
        """The open session on key; KeyError if there is none."""
        return self.sessions[key]

    def open_session(self, key) -> Session:
        """Start the session of a connection a peer made to us."""
        session = self.sessions[key] = Session(key)
        return session

    def connect(self, key, now_ms: int) -> list:
        """Start a session we initiate: emits the opening handshake."""
        session = self.open_session(key)
        return self._perform(self.engine.initiate_handshake(session, now_ms), key)

    def on_disconnect(self, key, now_ms: int) -> None:
        """The connection on key is gone: drop its session and subscription."""
        self.sessions.pop(key, None)
        self.subscribers.pop(key, None)

    # -- inbound --------------------------------------------------------------

    def on_frame(self, key, frame: bytes, now_ms: int) -> list:
        """Decode, validate and dispatch one frame; returns outputs.

        A frame for a key without a session (closed, or never opened) is
        dropped before it is decoded and draws no reply.
        """
        session = self.sessions.get(key)
        if session is None:
            return []
        try:
            envelope = decode(frame)
        except CodecError as exc:
            log.info("undecodable frame on %r: %s", key, exc)
            session.last_rx = now_ms
            return self._reply_unexpected(key, now_ms)
        report = validate(envelope)
        if not report.ok:
            log.info("invalid envelope on %r: %s", key, "; ".join(report.problems))
            session.last_rx = now_ms
            return self._reply_unexpected(key, now_ms)
        return self.on_envelope(key, envelope, now_ms)

    def on_envelope(self, key, envelope: Envelope, now_ms: int) -> list:
        """Dispatch one envelope that the caller has decoded and validated;
        like on_frame, it drops one for a key without a session."""
        session = self.sessions.get(key)
        if session is None:
            return []
        try:
            actions = self.engine.handle_message(session, envelope, now_ms)
        except Exception:
            # one peer's frame must not stop the node: the transport loop
            # calling us serves every other connection too
            log.warning("dispatch failed on %r", key, exc_info=True)
            session.last_rx = now_ms
            return self._reply_unexpected(key, now_ms)
        return self._perform(actions, key)

    def _reply_unexpected(self, key, now_ms: int) -> list:
        status = self.engine.status_message(ProtocolCode.UNEXPECTED_MESSAGE, now_ms)
        return [Outbound(key, encode(status) + b"\n", int(status.type_code))]

    # -- requester operations --------------------------------------------------

    def request_services(self, key, now_ms: int) -> list:
        return self._perform(self.engine.request_services(self.session(key), now_ms), key)

    def request_peers(self, key, now_ms: int) -> list:
        return self._perform(self.engine.request_peers(self.session(key), now_ms), key)

    def request_realtime(self, key, now_ms: int) -> list:
        return self._perform(self.engine.request_realtime(self.session(key), now_ms), key)

    def stop_realtime(self, key, now_ms: int) -> list:
        return self._perform(self.engine.stop_realtime(self.session(key), now_ms), key)

    def request_on_demand(self, key, services, timestamp: str, now_ms: int) -> list:
        actions = self.engine.request_on_demand(self.session(key), services, timestamp, now_ms)
        return self._perform(actions, key)

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
            if self.subscribers:
                block = vendor.to_data_block(sample)
                message = None
                for key in self.subscribers:
                    if message is None:
                        message = encode(self.engine.realtime_message(block, tick)) + b"\n"
                    outputs.append(Outbound(key, message, STREAM_CODE))
        if self._next_sweep_ms <= now_ms:
            sweep_at = now_ms - (now_ms - self._next_sweep_ms) % self._sweep_interval_ms
            self._next_sweep_ms = sweep_at + self._sweep_interval_ms
            for session, action in self.engine.keep_alive_sweep(self.sessions.values(), sweep_at):
                self.on_disconnect(session.key, sweep_at)
                outputs.append(Hangup(session.key, action.reason))
        return outputs

    # -- engine action translation ---------------------------------------------

    def _perform(self, actions: list, key) -> list:
        outputs = []
        for action in actions:
            if isinstance(action, SendMessage):
                envelope = action.envelope
                outputs.append(Outbound(key, encode(envelope) + b"\n", int(envelope.type_code)))
            elif isinstance(action, StartStream):
                self.subscribers[key] = None
                latest = self.store.latest()
                if latest is not None:
                    message = self.engine.realtime_message(vendor.to_data_block(latest), latest.timestamp_ms)
                    outputs.append(Outbound(key, encode(message) + b"\n", STREAM_CODE))
            elif isinstance(action, StopStream):
                self.subscribers.pop(key, None)
        return outputs

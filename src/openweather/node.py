"""Transport-independent node coordinator.

A NodeRuntime owns the engine, peer table, sample store, subscriber set
and sensor generator of one node, and exposes plain event-in/outputs-out
methods.  A transport (the TCP server or the simulator) calls them with
its own notion of time, then performs the returned sends and hangups; the
runtime itself never blocks and never touches a socket.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from . import vendor
from .codec import CodecError, ProtocolCode, decode, encode, validate
from .engine import (
    Callbacks,
    CloseSession,
    Engine,
    NodeConfig,
    SendMessage,
    Session,
    SessionState,
    StartStream,
    StopStream,
)
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
        self.sessions: dict = {}
        self.subscribers: dict = {}  # subscribed keys in subscription order; values unused
        self._next_sample_ms = start_ms + generator.interval_ms if generator else None
        self._sweep_interval_ms = sweep_interval_ms
        self._next_sweep_ms = start_ms + sweep_interval_ms

    # -- sessions -------------------------------------------------------------

    def session(self, key) -> Session:
        found = self.sessions.get(key)
        if found is None:
            found = Session()
            self.sessions[key] = found
        return found

    def open_session(self, key, remote_ip: str = "", remote_port: int = 0) -> Session:
        session = self.session(key)
        session.remote_ip = remote_ip
        session.remote_port = remote_port
        return session

    def connect(self, key, now_ms: int, remote_ip: str = "", remote_port: int = 0) -> list:
        """Start a session we initiate: emits the opening handshake."""
        session = self.open_session(key, remote_ip, remote_port)
        return self._perform(self.engine.initiate_handshake(session, now_ms), key, now_ms)

    def on_disconnect(self, key, now_ms: int) -> None:
        session = self.sessions.get(key)
        if session is not None:
            session.state = SessionState.CLOSED
            session.stream_active = False
        self.subscribers.pop(key, None)

    # -- inbound --------------------------------------------------------------

    def on_frame(self, key, frame: bytes, now_ms: int) -> list:
        """Decode, validate and dispatch one frame; returns outputs."""
        session = self.session(key)
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
        try:
            actions = self.engine.handle_message(session, envelope, now_ms)
        except Exception:
            # one peer's frame must not stop the node: the transport loop
            # calling us serves every other connection too
            log.warning("dispatch failed on %r", key, exc_info=True)
            session.last_rx = now_ms
            return self._reply_unexpected(key, now_ms)
        return self._perform(actions, key, now_ms)

    def _reply_unexpected(self, key, now_ms: int) -> list:
        status = self.engine.status_message(ProtocolCode.UNEXPECTED_MESSAGE, now_ms)
        return [Outbound(key, encode(status) + b"\n", int(status.type_code))]

    # -- requester operations --------------------------------------------------

    def request_services(self, key, now_ms: int) -> list:
        return self._perform(self.engine.request_services(self.session(key), now_ms), key, now_ms)

    def request_peers(self, key, now_ms: int) -> list:
        return self._perform(self.engine.request_peers(self.session(key), now_ms), key, now_ms)

    def request_realtime(self, key, now_ms: int) -> list:
        return self._perform(self.engine.request_realtime(self.session(key), now_ms), key, now_ms)

    def stop_realtime(self, key, now_ms: int) -> list:
        return self._perform(self.engine.stop_realtime(self.session(key), now_ms), key, now_ms)

    def request_on_demand(self, key, services, timestamp: str, now_ms: int) -> list:
        actions = self.engine.request_on_demand(self.session(key), services, timestamp, now_ms)
        return self._perform(actions, key, now_ms)

    # -- timers ---------------------------------------------------------------

    def next_due_ms(self) -> int:
        """When on_tick next has work: sampling or the keep-alive sweep.

        Only on_tick moves these timers, so the answer stays valid until the
        next on_tick call; a caller may cache it per node and skip on_tick
        for nodes not yet due.
        """
        dues = [self._next_sweep_ms]
        if self._next_sample_ms is not None:
            dues.append(self._next_sample_ms)
        return min(dues)

    def on_tick(self, now_ms: int) -> list:
        """Run every timer due by now: sensor cadence, keep-alive sweep."""
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
        while self._next_sweep_ms <= now_ms:
            sweep_at = self._next_sweep_ms
            self._next_sweep_ms = sweep_at + self._sweep_interval_ms
            closed = self.engine.keep_alive_sweep(self.sessions.values(), sweep_at)
            if closed:
                keys = {id(session): key for key, session in self.sessions.items()}
                for session, action in closed:
                    key = keys.get(id(session))
                    if key is None:
                        continue
                    self.subscribers.pop(key, None)
                    outputs.append(Hangup(key, action.reason))
        return outputs

    # -- engine action translation ---------------------------------------------

    def _perform(self, actions: list, key, now_ms: int) -> list:
        outputs = []
        for action in actions:
            if isinstance(action, SendMessage):
                envelope = action.envelope
                outputs.append(Outbound(key, encode(envelope) + b"\n", int(envelope.type_code)))
            elif isinstance(action, CloseSession):
                self.on_disconnect(key, now_ms)
                outputs.append(Hangup(key, action.reason))
            elif isinstance(action, StartStream):
                self.subscribers[key] = None
                latest = self.store.latest()
                if latest is not None:
                    message = self.engine.realtime_message(vendor.to_data_block(latest), latest.timestamp_ms)
                    outputs.append(Outbound(key, encode(message) + b"\n", STREAM_CODE))
            elif isinstance(action, StopStream):
                self.subscribers.pop(key, None)
        return outputs

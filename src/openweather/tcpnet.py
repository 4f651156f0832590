"""Newline-framed TCP transport.

One message per line: the canonical encoding followed by ``\\n``.  Lines
longer than 64 KiB are a framing error and the connection is dropped.

NodeServer drives a NodeRuntime from one thread: one selectors loop over
non-blocking sockets that sleeps until a socket is ready or the runtime's
next timer is due.  A peer whose unsent backlog passes MAX_BACKLOG is
dropped.  PeerClient runs one-shot operations over a NodeRuntime of its
own: it decodes and checks each reply once, in decode_checked's one walk,
then passes it to NodeRuntime.on_envelope, which runs the server's
on_frame step from dispatch on.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
import types

from .codec import Envelope, decode_checked
from .engine import NodeConfig, ProtocolCode
from .node import NodeRuntime, Outbound

log = logging.getLogger(__name__)

MAX_FRAME = 64 * 1024
# unsent bytes a peer may leave queued before the node hangs up on it
MAX_BACKLOG = 1024 * 1024


class FramingError(RuntimeError):
    """The byte stream does not split into newline-framed messages."""


class ProtocolFault(RuntimeError):
    """The remote node answered an operation with a 6xx status."""

    def __init__(self, code: int):
        super().__init__("remote answered with status %d" % code)
        self.code = code


def time_ms() -> int:
    return int(time.time() * 1000)


class FrameSplitter:
    """Incremental newline splitter with an upper frame size bound."""

    def __init__(self, limit: int = MAX_FRAME):
        self.limit = limit
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list:
        buffer = self._buffer
        searched = len(buffer)  # the held partial line has no newline
        buffer += data
        end = buffer.rfind(b"\n", searched) + 1  # 0: no complete frame yet
        frames = bytes(buffer[: end - 1]).split(b"\n") if end else []
        del buffer[:end]
        longest = max(map(len, frames), default=0)
        if longest > self.limit:
            raise FramingError("frame of %d bytes exceeds the %d byte cap" % (longest, self.limit))
        if len(buffer) > self.limit:
            raise FramingError("unterminated line exceeds the %d byte cap" % self.limit)
        return frames


class _Connection:
    def __init__(self, key: int, sock: socket.socket):
        self.key = key
        self.sock = sock
        self.splitter = FrameSplitter()
        self.backlog = bytearray()


class NodeServer:
    """Accepts connections and drives a NodeRuntime over them."""

    def __init__(self, runtime: NodeRuntime, host: str = "127.0.0.1", port: int | None = None):
        self.runtime = runtime
        self._address = (host, runtime.config.port if port is None else port)
        self._listener: socket.socket | None = None
        self._selector = selectors.DefaultSelector()
        # the loop's only blocking call, looked up on every pass so that it
        # can be wrapped (to time idle waits) before start()
        self._events = types.SimpleNamespace(get=self._selector.select)
        self._wake = socket.socketpair()  # stop() writes, the loop returns
        self._conns: dict = {}
        self._next_key = 0
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[1]

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self._address)
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self._selector.register(listener, selectors.EVENT_READ)
        self._selector.register(self._wake[0], selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            self._wake[1].send(b"\0")
            self._thread.join(timeout=2)
        for sock in filter(None, [self._listener, *self._wake, *(conn.sock for conn in self._conns.values())]):
            sock.close()
        self._selector.close()

    def _serve(self) -> None:
        runtime = self.runtime
        while True:
            timeout = max(0, runtime.next_due_ms() - time_ms()) / 1000.0
            for key, mask in self._events.get(timeout):
                conn = key.data
                if key.fileobj is self._listener:
                    self._accept()
                elif conn is None:  # the wake-up socket
                    return
                # a peer dropped earlier in this batch may still be listed
                elif conn.key in self._conns:
                    if mask & selectors.EVENT_WRITE:
                        self._send(conn, b"")
                    if mask & selectors.EVENT_READ and conn.key in self._conns:
                        self._read(conn)
            now = time_ms()
            if runtime.next_due_ms() <= now:
                self._execute(runtime.on_tick(now))

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError as exc:  # the peer left before we got to it, or no descriptors left
            log.info("accept failed: %s", exc)
            return
        sock.setblocking(False)
        self._next_key += 1
        conn = _Connection(self._next_key, sock)
        self._conns[conn.key] = conn
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self.runtime.open_session(conn.key, time_ms())

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(65536)
            frames = conn.splitter.feed(data) if data else None  # None: the peer left
        except BlockingIOError:
            return
        except OSError:
            frames = None
        except FramingError as exc:
            log.warning("connection %d: %s", conn.key, exc)
            frames = None
        if frames is None:
            self._drop(conn)
            return
        for frame in frames:
            self._execute(self.runtime.on_frame(conn.key, frame, time_ms()))
            if conn.key not in self._conns:
                return

    def _execute(self, outputs: list) -> None:
        for output in outputs:
            conn = self._conns.get(output.key)
            if conn is None:
                continue
            if isinstance(output, Outbound):
                self._send(conn, output.frame)
            else:  # Hangup
                self._drop(conn)

    def _send(self, conn: _Connection, frame: bytes) -> None:
        pending = bool(conn.backlog)
        conn.backlog += frame
        try:
            del conn.backlog[: conn.sock.send(conn.backlog)]
        except BlockingIOError:
            pass
        except OSError:
            self._drop(conn)
            return
        if len(conn.backlog) > MAX_BACKLOG:
            log.warning("connection %d: %d unsent bytes pass the cap; dropping it", conn.key, len(conn.backlog))
            self._drop(conn)
        elif bool(conn.backlog) != pending:
            # watch for room to write only while something waits for it
            events = selectors.EVENT_READ | selectors.EVENT_WRITE if conn.backlog else selectors.EVENT_READ
            self._selector.modify(conn.sock, events, conn)

    def _drop(self, conn: _Connection) -> None:
        del self._conns[conn.key]
        self.runtime.on_disconnect(conn.key, time_ms())
        self._selector.unregister(conn.sock)
        conn.sock.close()


class PeerClient:
    """Blocking client: handshake once, then run operations in turn."""

    def __init__(self, host: str, port: int, config: NodeConfig, timeout_s: float = 10.0):
        # the runtime refuses a header it could not send before anything connects;
        # once connected, the header carries the address the socket got
        self.runtime = NodeRuntime(config)
        self.engine = self.runtime.engine
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.engine.local_ip = self.sock.getsockname()[0]
        self._remote = (host, port)  # also the session's key in the runtime
        self._splitter = FrameSplitter()
        self._inbox: list = []

    def close(self) -> None:
        self.sock.close()

    def recv(self) -> Envelope:
        """Next inbound message, once the runtime has answered it; raises
        a CodecError for one that decode_checked refuses."""
        while not self._inbox:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("connection closed by remote node")
            self._inbox.extend(self._splitter.feed(data))
        envelope = decode_checked(self._inbox.pop(0))
        self._write(self.runtime.on_envelope(self._remote, envelope, time_ms()))
        return envelope

    def _write(self, outputs: list) -> None:
        for output in outputs:
            if isinstance(output, Outbound):
                self.sock.sendall(output.frame)

    def _ask(self, outputs: list, code: int) -> Envelope:
        """Write the runtime's outputs, then wait for a reply of type code."""
        self._write(outputs)
        while True:
            envelope = self.recv()
            got = int(envelope.type_code)
            if got == code:
                return envelope
            if 600 <= got <= 699:
                raise ProtocolFault(got)

    def handshake(self) -> Envelope:
        return self._ask(self.runtime.connect(self._remote, time_ms()), ProtocolCode.HANDSHAKE_S)

    def services(self) -> Envelope:
        outputs = self.runtime.request_services(self._remote, time_ms())
        return self._ask(outputs, ProtocolCode.SERVICES_AVAILABLE_R)

    def peers(self) -> Envelope:
        return self._ask(self.runtime.request_peers(self._remote, time_ms()), ProtocolCode.LIST_PEERS_R)

    def stream(self, count: int) -> list:
        self._write(self.runtime.request_realtime(self._remote, time_ms()))
        return [self._ask([], ProtocolCode.REAL_TIME_DATA_R) for _ in range(count)]

    def stop(self) -> Envelope:
        return self._ask(self.runtime.stop_realtime(self._remote, time_ms()), ProtocolCode.REAL_TIME_DATA_S)

    def fetch(self, services, timestamp: str) -> Envelope:
        outputs = self.runtime.request_on_demand(self._remote, services, timestamp, time_ms())
        return self._ask(outputs, ProtocolCode.ON_DEMAND_DATA_R)

"""Length-prefixed framing over reliable byte streams.

Frame = 4-byte big-endian payload length, then the payload; frames above
16 MiB are refused in both directions.  Works with anything exposing
read/write (socket.makefile("rwb") included).  There is deliberately no
TLS here: the protocol being carried is itself the object of study.
"""

from __future__ import annotations

import socket
import struct
import threading

from .errors import TransportError

MAX_FRAME = 16 * 1024 * 1024
_HEADER = struct.Struct("!I")


def send_frame(stream, payload: bytes) -> None:
    if len(payload) > MAX_FRAME:
        raise TransportError(f"frame of {len(payload)} bytes exceeds the "
                             f"{MAX_FRAME} byte cap")
    try:
        stream.write(_HEADER.pack(len(payload)))
        stream.write(payload)
        stream.flush()
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc


def _read_exact(stream, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = stream.read(remaining)
        except OSError as exc:
            raise TransportError(f"receive failed: {exc}") from exc
        if not chunk:
            raise TransportError(
                f"stream ended {remaining} bytes short of a full frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(stream) -> bytes:
    (length,) = _HEADER.unpack(_read_exact(stream, _HEADER.size))
    if length > MAX_FRAME:
        raise TransportError(f"peer announced a {length} byte frame, "
                             f"cap is {MAX_FRAME}")
    return _read_exact(stream, length)


def parse_addr(addr: str) -> tuple[str, int]:
    host, sep, port = addr.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"address must be host:port, got {addr!r}")
    return host or "127.0.0.1", int(port)


def connect(addr: str):
    host, port = parse_addr(addr)
    try:
        sock = socket.create_connection((host, port), timeout=30)
    except OSError as exc:
        raise TransportError(f"connect to {addr} failed: {exc}") from exc
    stream = sock.makefile("rwb")
    sock.close()    # the stream holds the connection until it is closed
    return stream


def serve_one(addr: str, ready_event: threading.Event | None = None):
    """Accept a single connection and return its stream."""
    host, port = parse_addr(addr)
    try:
        srv = socket.create_server((host, port))
    except OSError as exc:
        raise TransportError(f"listen on {addr} failed: {exc}") from exc
    try:
        srv.settimeout(30)
        if ready_event is not None:
            ready_event.set()
        conn, _ = srv.accept()
    except OSError as exc:
        srv.close()
        raise TransportError(f"accept on {addr} failed: {exc}") from exc
    srv.close()
    stream = conn.makefile("rwb")
    conn.close()    # the stream holds the connection until it is closed
    return stream

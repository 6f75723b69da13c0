"""Length-prefixed framing over any reliable byte stream.

Frame = 4-byte big-endian payload length, then the payload; frames above
16 MiB are refused in both directions.  Works with anything exposing
read/write (socket.makefile("rwb") included); opening the sockets is the
CLI's business (``siot.cli``), so a session loads no socket code.  There
is deliberately no TLS here: the protocol being carried is itself the
object of study.
"""

from __future__ import annotations

import struct

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

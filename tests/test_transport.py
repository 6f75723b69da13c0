"""Length-framed transport: caps, truncation, stream errors, loopback, and
the CLI's socket helpers."""

import threading
import time

import pytest

from loopback import LoopbackPipe
from siot.cli import connect, parse_addr, serve_one
from siot.errors import TransportError
from siot.transport import MAX_FRAME, recv_frame, send_frame


def test_loopback_roundtrip():
    pipe = LoopbackPipe()
    send_frame(pipe.a, b"hello frame")
    assert recv_frame(pipe.b) == b"hello frame"
    send_frame(pipe.b, b"")
    assert recv_frame(pipe.a) == b""


def test_many_frames_in_order():
    pipe = LoopbackPipe()
    for i in range(50):
        send_frame(pipe.a, b"payload %d" % i)
    for i in range(50):
        assert recv_frame(pipe.b) == b"payload %d" % i


def test_oversize_frames_rejected_both_ways():
    pipe = LoopbackPipe()
    with pytest.raises(TransportError):
        send_frame(pipe.a, b"x" * (MAX_FRAME + 1))
    # a hostile header announcing a huge frame is refused before reading
    pipe.a.write((MAX_FRAME + 1).to_bytes(4, "big"))
    with pytest.raises(TransportError):
        recv_frame(pipe.b)


def test_truncated_stream_detected():
    pipe = LoopbackPipe()
    pipe.a.write((10).to_bytes(4, "big") + b"only5")
    pipe.a.close()
    with pytest.raises(TransportError):
        recv_frame(pipe.b)
    pipe2 = LoopbackPipe()
    pipe2.a.write(b"\x00\x00")   # truncated header
    pipe2.a.close()
    with pytest.raises(TransportError):
        recv_frame(pipe2.b)


class _FailingStream:
    """A stream whose peer is gone: every write and read raises."""

    def write(self, data):
        raise BrokenPipeError("peer closed")

    def flush(self):
        pass

    def read(self, n):
        raise ConnectionResetError("peer reset")


def test_stream_errors_become_transport_errors():
    with pytest.raises(TransportError, match="send failed") as info:
        send_frame(_FailingStream(), b"payload")
    assert isinstance(info.value.__cause__, BrokenPipeError)
    with pytest.raises(TransportError, match="receive failed") as info:
        recv_frame(_FailingStream())
    assert isinstance(info.value.__cause__, ConnectionResetError)


def test_parse_addr():
    assert parse_addr("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_addr("localhost:80") == ("localhost", 80)
    assert parse_addr(":65535") == ("127.0.0.1", 65535)
    for bad in ("no-port", "host:", "host:abc", ":", "host:65536"):
        with pytest.raises(ValueError):
            parse_addr(bad)


def test_socket_echo_roundtrip():
    addr = ("127.0.0.1", 19473)
    result = {}

    def server():
        stream = serve_one(addr)
        try:
            result["got"] = recv_frame(stream)
            send_frame(stream, b"echo:" + result["got"])
        finally:
            stream.close()

    th = threading.Thread(target=server, daemon=True)
    th.start()
    deadline = time.monotonic() + 5
    while True:    # connect is refused until the listener is up
        try:
            client = connect(addr)
            break
        except TransportError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)
    try:
        send_frame(client, b"ping")
        assert recv_frame(client) == b"echo:ping"
    finally:
        client.close()
    th.join(5)
    assert result["got"] == b"ping"

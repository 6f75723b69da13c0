"""In-process streams, so the framing and the online session driver
can be tested without sockets: a pair of connected ends, and a one-way
replay of recorded frames."""

import io
import queue
import threading

from siot.transport import send_frame

JOIN_S = 30   # how long a test waits for an endpoint thread to end


class LoopbackPipe:
    """Bidirectional stream pair: what is written to ``a`` is read from
    ``b`` and the other way round."""

    def __init__(self):
        a_to_b: queue.Queue = queue.Queue()
        b_to_a: queue.Queue = queue.Queue()
        self.a = _QueueStream(a_to_b, b_to_a)
        self.b = _QueueStream(b_to_a, a_to_b)


class _QueueStream:
    """File-like adapter over a pair of byte queues."""

    def __init__(self, out_q, in_q):
        self._out = out_q
        self._in = in_q
        self._buf = b""
        self._closed = False
        self._eof = False

    def write(self, data: bytes) -> int:
        if data:   # empty chunks would look like the close sentinel
            self._out.put(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass

    def read(self, n: int) -> bytes:
        while len(self._buf) < n and not self._eof:
            chunk = self._in.get()
            if chunk == b"":
                self._eof = True   # close sentinel; stream stays ended
                break
            self._buf += chunk
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._out.put(b"")


def closing_thread(stream, target) -> threading.Thread:
    """Start ``target`` on a daemon thread that closes ``stream`` when
    ``target`` ends, returned or raised, so the peer reading the other
    end sees the end of the stream instead of blocking forever."""
    def run():
        try:
            target()
        finally:
            stream.close()
    th = threading.Thread(target=run, daemon=True)
    th.start()
    return th


class ReplayStream:
    """A peer that sends recorded frames and ignores what it is sent:
    an endpoint reads ``frames`` in order, then the end of the stream,
    and its writes are discarded, so it runs on one thread."""

    def __init__(self, frames):
        buf = io.BytesIO()
        for frame in frames:
            send_frame(buf, frame)
        self.read = io.BytesIO(buf.getvalue()).read

    def write(self, data: bytes) -> int:
        return len(data)

    def flush(self) -> None:
        pass

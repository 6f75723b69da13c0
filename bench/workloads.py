"""The benchmark's workloads: inputs from a seed, one call into the public
API per operation, and an oracle for every result.

Each workload splits an operation into three steps so that the runner
can time only the library work and keep the oracle out of the trace:
``inputs(i)`` derives operation ``i`` from the workload seed,
``execute`` makes the library calls, and ``check`` compares the result
with what the inputs say it must be.  ``check`` returns a status and the
number of ``RestartRequired`` signals the operation saw:

- ``ok``: delivered and correct;
- ``wrong``: delivered, but the output or verdict is wrong;
- ``restart``: an online operation still aborted with ``RestartRequired``
  after as many fresh attempts as ``run_local`` allows; it counts as
  failed but not as incorrect;
- ``error``: any other exception (assigned by the runner).
"""

from __future__ import annotations

import hashlib
import json
import queue
import random
import socket
import threading

# the 102-bit rung's parameters come from a fixed seed, like the presets,
# so that the workload seed varies the sessions and not the basis
_GEN_102 = ((2, 51, 3, 32), b"bench/local-102bit")
_HEX = "0123456789abcdef"


def _digest(*parts) -> bytes:
    h = hashlib.sha256(b"siot-bench")
    for part in parts:
        h.update(b"/" + str(part).encode())
    return h.digest()


def _rng(*parts) -> random.Random:
    return random.Random(int.from_bytes(_digest(*parts), "big"))


class Workload:
    """Common shape; subclasses fill in the operation."""

    name = ""
    tail_pct = 99.0      # fixed per workload so runs stay comparable
    count_ops = 8        # operations behind the exact count table

    def __init__(self, siot, seed: int):
        self.siot = siot
        self.seed = seed
        self.tracer = None
        self.params = None

    def setup_probe(self) -> tuple[list[str], bytes]:
        """Arguments and stdin for setup_probe.py: import plus params."""
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def inputs(self, i: int):
        raise NotImplementedError

    def execute(self, inp):
        raise NotImplementedError

    def check(self, inp, raw) -> tuple[str, int]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class LocalSessions(Workload):
    """``run_local`` with a fresh seed per session, alternating bit and
    payloads of 16 B to 1 KiB."""

    def __init__(self, siot, seed, name, params_spec, tail_pct, count_ops):
        super().__init__(siot, seed)
        self.name = name
        self.params_spec = params_spec
        self.tail_pct = tail_pct
        self.count_ops = count_ops

    def _build_params(self):
        kind, arg = self.params_spec
        if kind == "preset":
            return self.siot.preset(arg)
        shape, pseed = arg
        return self.siot.gen_params(*shape, rng=self.siot.det_rng(pseed))

    def setup_probe(self):
        kind, arg = self.params_spec
        if kind == "preset":
            return ["preset", arg], b""
        shape, pseed = arg
        return ["gen", ",".join(map(str, shape)), pseed.hex()], b""

    def prepare(self):
        self.params = self._build_params()

    def inputs(self, i):
        rng = _rng(self.name, self.seed, i)
        x0 = rng.randbytes(rng.randint(16, 1024))
        x1 = rng.randbytes(rng.randint(16, 1024))
        return {"seed": rng.randbytes(16), "b": i % 2, "x0": x0, "x1": x1}

    def execute(self, inp):
        siot = self.siot
        return siot.run_local(siot.SessionConfig(
            self.params, seed=inp["seed"], b=inp["b"],
            x0=inp["x0"], x1=inp["x1"]))

    def check(self, inp, out):
        b = inp["b"]
        want = inp["x1"] if b else inp["x0"]
        good = out["output"] == want and out["receiver_j"] == out["sender_j"][b]
        return ("ok" if good else "wrong"), out["restarts"]


class AuditP2591(Workload):
    """``Transcript.from_bytes`` plus ``verify_transcript`` over transcripts
    made during set-up; a fixed share has one hex digit flipped."""

    name = "audit-p2591"
    tail_pct = 95.0
    count_ops = 16
    fixtures = 48
    tampered_share = 4      # one in four

    def setup_probe(self):
        return ["obj"], self.params_json.encode()

    def prepare(self):
        siot = self.siot
        # the parameter file a CLI user would pass with --params
        self.params_json = json.dumps(siot.params_to_obj(siot.preset("p2591")))
        self.params = siot.params_from_obj(json.loads(self.params_json))
        rng = _rng(self.name, self.seed, "fixtures")
        tampered = set(rng.sample(range(self.fixtures),
                                  self.fixtures // self.tampered_share))
        self.transcripts = []
        for j in range(self.fixtures):
            out = siot.run_local(siot.SessionConfig(
                self.params, seed=rng.randbytes(16), b=j % 2,
                x0=rng.randbytes(rng.randint(16, 256)),
                x1=rng.randbytes(rng.randint(16, 256))))
            data = out["transcript"].to_bytes()
            if j in tampered:
                data = flip_hex_digit(siot, data, rng)
            self.transcripts.append((data, j in tampered))
        self.order = list(range(self.fixtures))
        rng.shuffle(self.order)

    def inputs(self, i):
        return self.transcripts[self.order[i % self.fixtures]]

    def execute(self, inp):
        siot = self.siot
        return siot.verify_transcript(siot.Transcript.from_bytes(inp[0]),
                                      self.params)

    def check(self, inp, verdict):
        return ("ok" if verdict["ok"] is (not inp[1]) else "wrong"), 0


def flip_hex_digit(siot, data: bytes, rng: random.Random) -> bytes:
    """Change one hex digit in a publicly checkable field.

    Candidates are the session ids, coin-flip commitments and nonces,
    and every coordinate of both public keys.  Ciphertexts are left
    alone: without the keys a verifier can check only their shape.
    """
    lines = [json.loads(line) for line in data.splitlines()]
    fields = []
    for n, line in enumerate(lines[:6]):
        fields.append((n, ("msg", "session")))
        for path, value in _hex_leaves(line["msg"]["body"], ("msg", "body")):
            fields.append((n, path))
    n, path = fields[rng.randrange(len(fields))]
    parent = lines[n]
    for key in path[:-1]:
        parent = parent[key]
    text = parent[path[-1]]
    pos = rng.randrange(len(text))
    digit = rng.choice(_HEX.replace(text[pos], ""))
    parent[path[-1]] = text[:pos] + digit + text[pos + 1:]
    return b"".join(siot.canonical_json(line) + b"\n" for line in lines)


def _hex_leaves(obj, path):
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _hex_leaves(value, path + (key,))
        elif isinstance(value, str):
            yield path + (key,), value


class OnlineBulkP431(Workload):
    """Sender (``run_session``, calling thread) and receiver (one thread)
    exchange 64 KiB payloads over one loopback TCP connection per session.

    The receiver accepts on a listener the benchmark owns, because
    ``serve_one`` cannot report an ephemeral port.

    ``run_session`` does not restart by itself: one side raises
    ``RestartRequired`` and the other sees the stream close.  Like
    ``run_local``, the operation then runs the whole session again with
    fresh seeds, at most ``max_restarts`` times; its latency includes
    every attempt, and the restarts are reported, not hidden.
    """

    name = "online-bulk-p431"
    tail_pct = 90.0      # restarted sessions, 1-4% by seed, stay beyond it
    count_ops = 8
    payload = 64 * 1024
    timeout_s = 30
    max_restarts = 4        # SessionConfig's default, as in run_local

    def setup_probe(self):
        return ["preset", "p431"], b""

    def prepare(self):
        self.params = self.siot.preset("p431")
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(self.timeout_s)
        self.port = self.listener.getsockname()[1]
        self.jobs: queue.Queue = queue.Queue()
        self.results: queue.Queue = queue.Queue()
        self.receiver = threading.Thread(target=self._receiver_loop,
                                         name="bench-receiver")
        self.receiver.start()

    def _receiver_loop(self):
        siot = self.siot
        while True:
            job = self.jobs.get()
            if job is None:
                return
            config, op, record = job
            if self.tracer is not None:
                self.tracer.begin_op(op, record)
            out = err = None
            try:
                conn, _ = self.listener.accept()
            except OSError as exc:
                self.results.put((None, exc))
                continue
            conn.settimeout(self.timeout_s)
            stream = conn.makefile("rwb")
            try:
                out = siot.run_session("receiver", config, stream)
            except Exception as exc:    # reported to the calling thread
                err = exc
            finally:
                _close(stream, conn)
            self.results.put((out, err))

    def inputs(self, i):
        rng = _rng(self.name, self.seed, i)
        return {"op": i, "b": i % 2,
                "seed_s": rng.randbytes(16), "seed_r": rng.randbytes(16),
                "x0": rng.randbytes(self.payload),
                "x1": rng.randbytes(self.payload)}

    def execute(self, inp):
        seed_s, seed_r = inp["seed_s"], inp["seed_r"]
        restarts = 0
        while True:
            out_s, err_s, out_r, err_r = self._session(inp, seed_s, seed_r)
            if not self._restarted(err_s, err_r) or \
                    restarts == self.max_restarts:
                return out_s, err_s, out_r, err_r, restarts
            # a traceback ties the failed attempt's frames, sessions and
            # payloads into a cycle that only a full collection frees
            err_s.__traceback__ = err_r.__traceback__ = None
            restarts += 1
            rng = _rng(self.name, self.seed, inp["op"], "restart", restarts)
            seed_s, seed_r = rng.randbytes(16), rng.randbytes(16)

    def _session(self, inp, seed_s, seed_r):
        siot = self.siot
        record = False
        if self.tracer is not None:
            record = self.tracer.thread().record
        self.jobs.put((siot.SessionConfig(self.params, seed=seed_r,
                                          b=inp["b"]), inp["op"], record))
        out_s = err_s = None
        sock = socket.create_connection(("127.0.0.1", self.port),
                                        timeout=self.timeout_s)
        stream = sock.makefile("rwb")
        try:
            out_s = siot.run_session("sender", siot.SessionConfig(
                self.params, seed=seed_s, x0=inp["x0"], x1=inp["x1"]),
                stream)
        except Exception as exc:        # judged by execute() and check()
            err_s = exc
        finally:
            _close(stream, sock)
        out_r, err_r = self.results.get(timeout=2 * self.timeout_s)
        return out_s, err_s, out_r, err_r

    def _restarted(self, err_s, err_r) -> bool:
        """One side raised RestartRequired and the other saw the stream
        end, which is how ``run_session`` reports a restart."""
        restart, transport = (self.siot.RestartRequired,
                              self.siot.TransportError)
        return ((isinstance(err_s, restart) and isinstance(err_r, transport))
                or (isinstance(err_r, restart)
                    and isinstance(err_s, transport)))

    def check(self, inp, raw):
        out_s, err_s, out_r, err_r, restarts = raw
        if err_s is None and err_r is None:
            want = inp["x1"] if inp["b"] else inp["x0"]
            good = (out_r["output"] == want
                    and out_s["transcript"].to_bytes()
                    == out_r["transcript"].to_bytes())
            return ("ok" if good else "wrong"), restarts
        if self._restarted(err_s, err_r):
            return "restart", restarts + 1
        raise err_s if err_s is not None else err_r

    def close(self):
        self.jobs.put(None)
        self.receiver.join(timeout=2 * self.timeout_s)
        self.listener.close()


def _close(stream, sock) -> None:
    # shutdown first: the peer must see the end of the stream even while
    # a traceback still references the socket
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        stream.close()
    except OSError:
        pass
    sock.close()


WORKLOADS = {
    "local-p431": lambda siot, seed: LocalSessions(
        siot, seed, "local-p431", ("preset", "p431"), 99.0, 32),
    "local-102bit": lambda siot, seed: LocalSessions(
        siot, seed, "local-102bit", ("gen", _GEN_102), 75.0, 3),
    "audit-p2591": AuditP2591,
    "online-bulk-p431": OnlineBulkP431,
}

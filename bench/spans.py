"""Per-layer spans and operation counts, recorded from outside the library.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` swaps
the public functions and methods of each layer for thin wrappers: a
module-level function is replaced in every loaded ``siot`` module that
imported it by name, so the call sites inside the package go through the
wrapper too; a method is replaced on its class.  ``uninstall`` puts the
originals back, so an untraced run executes the library untouched.

Two kinds of wrapper exist.  A span wrapper records how often a layer
boundary was crossed, the time spent inside it, and its self time (the
time not covered by nested spans).  A count wrapper only counts; it is
used for the calls that happen thousands of times per session (field
multiplications, scalar multiplications), where a span would cost more
than the work.  Every thread keeps its own totals, so
the online workload's receiver thread needs no lock on the hot path.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

_now = time.perf_counter_ns

# (module, attribute, span name)
SPAN_FUNCTIONS = (
    ("siot.runner", "run_local", "runner.session"),
    ("siot.runner", "run_session", "runner.session"),
    ("siot.runner", "verify_transcript", "runner.verify"),
    ("siot.sidh", "keygen", "sidh.keygen"),
    ("siot.sidh", "validate_public", "sidh.validate_public"),
    ("siot.isogeny", "isogeny_chain", "isogeny.chain"),
    ("siot.pairing", "weil_pairing", "pairing.weil"),
    ("siot.siot", "derive_mask_coeffs", "siot.derive_mask_coeffs"),
    ("siot.siot", "encode_mask_points", "siot.encode_mask_points"),
    ("siot.util", "seal", "util.seal"),
    ("siot.util", "open_sealed", "util.open"),
    ("siot.wire", "encode", "wire.encode"),
    ("siot.wire", "decode", "wire.decode"),
    ("siot.transport", "send_frame", "transport.send_frame"),
    ("siot.transport", "recv_frame", "transport.recv_frame"),
)

# SiotSession methods, one span per protocol phase
PHASE_METHODS = (
    ("__init__", "siot.phase.init"),
    ("produce_commit", "siot.phase.produce_commit"),
    ("consume_commit", "siot.phase.consume_commit"),
    ("produce_reveal", "siot.phase.produce_reveal"),
    ("consume_reveal", "siot.phase.consume_reveal"),
    ("produce_public", "siot.phase.produce_public"),
    ("consume_public", "siot.phase.consume_public"),
    ("produce_ciphertexts", "siot.phase.produce_ciphertexts"),
    ("consume_ciphertexts", "siot.phase.consume_ciphertexts"),
)

# (module, class or None, attribute, counter name)
COUNTED = (
    ("siot.field", "Fp2", "__mul__", "field.fp2_mul"),
    ("siot.field", "Fp2", "inv", "field.fp2_inv"),
    ("siot.field", "Fp2", "sqrt", "field.fp2_sqrt"),
    ("siot.curve", "EllipticCurve", "mul", "curve.scalar_mul"),
    ("siot.curve", "EllipticCurve", "check_point", "curve.check_point"),
    ("siot.isogeny", None, "velu_step", "isogeny.velu_step"),
    ("siot.isogeny", None, "evaluate", "isogeny.evaluate"),
    ("siot.pairing", None, "miller_function", "pairing.miller"),
)

# extra counters accumulated from a call's arguments:
# name -> (counter, function of the positional arguments)
_SIZERS = {
    "curve.scalar_mul": ("curve.scalar_mul.bits",
                         lambda args: abs(args[1]).bit_length()),
    "util.seal": ("util.bytes_sealed", lambda args: len(args[1])),
    "wire.decode": ("wire.bytes_decoded", lambda args: len(args[0])),
}


class ThreadStats:
    """One thread's counters, span totals and (optionally) span records."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.stack: list[list] = []     # [name, child_ns, record index]
        self.spans: list[list] = []     # [name, op, parent, start, end]
        self.op = None                  # identifier shared by one request
        self.record = False             # keep span records for this op
        self.suspended = False          # oracle work in this thread


class Tracer:
    """Installs the layer wrappers and merges what every thread recorded."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[ThreadStats] = []
        self._patches: list[tuple] = []

    # -- per-thread state -------------------------------------------------

    def thread(self) -> ThreadStats:
        st = getattr(self._local, "st", None)
        if st is None:
            st = ThreadStats()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def begin_op(self, op, record: bool = False) -> None:
        st = self.thread()
        st.op = op
        st.record = record

    def suspend(self, flag: bool) -> None:
        """Stop (or resume) recording in the calling thread only."""
        self.thread().suspended = flag

    def counts(self) -> dict[str, int]:
        return self._merge("counts")

    def total_ns(self) -> dict[str, int]:
        return self._merge("total_ns")

    def self_ns(self) -> dict[str, int]:
        return self._merge("self_ns")

    def spans(self) -> list[dict]:
        out = []
        with self._lock:
            threads = list(self._threads)
        for tid, st in enumerate(threads):
            for idx, (name, op, parent, start, end) in enumerate(st.spans):
                out.append({"thread": tid, "id": idx, "parent": parent,
                            "op": op, "name": name, "start_ns": start,
                            "end_ns": end})
        return out

    def _merge(self, attr: str) -> dict[str, int]:
        out: dict[str, int] = {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for k, v in getattr(st, attr).items():
                out[k] = out.get(k, 0) + v
        return out

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        thread = self.thread
        sizer = _SIZERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = thread()
            if st.suspended:
                return fn(*args, **kwargs)
            counts = st.counts
            counts[name] = counts.get(name, 0) + 1
            if sizer is not None:
                key, size = sizer
                counts[key] = counts.get(key, 0) + size(args)
            stack = st.stack
            frame = [name, 0, -1]
            if st.record:
                parent = stack[-1][2] if stack else -1
                frame[2] = len(st.spans)
                st.spans.append([name, st.op, parent, _now(), None])
            stack.append(frame)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                dt = t1 - t0
                stack.pop()
                st.total_ns[name] = st.total_ns.get(name, 0) + dt
                st.self_ns[name] = st.self_ns.get(name, 0) + dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if frame[2] >= 0:
                    st.spans[frame[2]][4] = t1
        return wrapper

    def _count(self, name: str, fn):
        thread = self.thread
        sizer = _SIZERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = thread()
            if not st.suspended:
                counts = st.counts
                counts[name] = counts.get(name, 0) + 1
                if sizer is not None:
                    key, size = sizer
                    counts[key] = counts.get(key, 0) + size(args)
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "siot" or n.startswith("siot."))]
        for modname, attr, name in SPAN_FUNCTIONS:
            self._patch_function(mods, modname, attr, self._span(
                name, getattr(sys.modules[modname], attr)))
        session_cls = sys.modules["siot.siot"].SiotSession
        for attr, name in PHASE_METHODS:
            self._patch_attr(session_cls, attr,
                             self._span(name, session_cls.__dict__[attr]))
        transcript_cls = sys.modules["siot.wire"].Transcript
        parse = transcript_cls.__dict__["from_bytes"].__func__
        self._patch_attr(transcript_cls, "from_bytes", classmethod(
            self._span("wire.transcript_parse", parse)))
        for modname, clsname, attr, name in COUNTED:
            mod = sys.modules[modname]
            if clsname is None:
                self._patch_function(mods, modname, attr,
                                     self._count(name, getattr(mod, attr)))
            else:
                cls = getattr(mod, clsname)
                self._patch_attr(cls, attr,
                                 self._count(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, mods, modname: str, attr: str,
                        replacement) -> None:
        original = getattr(sys.modules[modname], attr)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, replacement)

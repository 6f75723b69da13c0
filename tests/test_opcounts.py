"""Exact operation counts: algorithmic regressions show up here as a
changed number, without any timing noise."""

import threading

import siot.isogeny
import siot.pairing
import siot.wire
from loopback import LoopbackPipe
from siot import (SessionConfig, Transcript, det_rng, gen_params, keygen,
                  preset, run_local, run_session)
from siot.curve import EllipticCurve
from siot.field import Fp2
from siot.isogeny import isogeny_chain, kernel_generator
from siot.pairing import weil_pairing


def _counter(monkeypatch, owner, name):
    calls = [0]
    lock = threading.Lock()   # the online pair counts from two threads
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        with lock:
            calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _p102():
    return gen_params(2, 51, 3, 32, rng=det_rng(b"tests/p102"))


def test_long_chain_inversions_stay_below_quadratic(monkeypatch):
    """An e = 51 two-power chain takes 100 inversions: one per scalar
    multiple of the balanced traversal and one per push of its stack
    through a step.  The per-step torsion checks end at O and invert
    nothing.  A fresh scalar multiple per step, in affine coordinates,
    took 1,425.  Pushed points ride the stack's batches, so pushing two
    adds one inversion, at the last step, whose stack is empty."""
    params = _p102()
    G, H = params.basis_a
    K = kernel_generator(params.curve, G, 12345, H)
    inv = _counter(monkeypatch, Fp2, "inv")
    velu = _counter(monkeypatch, siot.isogeny, "velu_step")
    isogeny_chain(params.curve, K, 2, 51, ())
    assert (inv[0], velu[0]) == (100, 51)
    inv[0] = 0
    isogeny_chain(params.curve, K, 2, 51, params.basis_b)
    assert inv[0] == 101


def test_p102_keygen_inversions(monkeypatch):
    """One keygen per side at 2^51*3^32 - 1: the chain's walk pushes
    the other side's basis in its own batches."""
    params = _p102()
    inv = _counter(monkeypatch, Fp2, "inv")
    counts = []
    for side in ("A", "B"):
        inv[0] = 0
        keygen(params, side, det_rng(b"opcount/keygen/" + side.encode()))
        counts.append(inv[0])
    assert counts == [103, 97]


def test_weil_pairing_op_counts(monkeypatch):
    """One pairing of the 2^51-torsion basis: four Miller functions at
    one inversion each, two affine additions for the evaluation points
    and one division of the combined quotient.  The pairing trusts its
    checked torsion inputs and makes no scalar multiplication."""
    params = _p102()
    G, H = params.basis_a
    inv = _counter(monkeypatch, Fp2, "inv")
    miller = _counter(monkeypatch, siot.pairing, "miller_function")
    mul = _counter(monkeypatch, EllipticCurve, "mul")
    weil_pairing(params.curve, G, H, params.n("A"))
    assert (inv[0], miller[0], mul[0]) == (7, 4, 0)


def test_p431_session_op_counts(monkeypatch):
    params = preset("p431")
    inv = _counter(monkeypatch, Fp2, "inv")
    add = _counter(monkeypatch, EllipticCurve, "add")
    velu = _counter(monkeypatch, siot.isogeny, "velu_step")
    checks = _counter(monkeypatch, EllipticCurve, "check_point")
    out = run_local(SessionConfig(params, seed=b"opcount", b=0,
                                  x0=b"zero", x1=b"one"))
    assert out["restarts"] == 0
    assert out["output"] == b"zero"
    assert (inv[0], add[0], velu[0]) == (68, 37, 18)
    # G and H once in each party's validate_public of the peer's key
    assert checks[0] == 4


def test_online_pair_serializes_each_message_once(monkeypatch):
    """A sender/receiver pair writes each of the seven messages once and
    parses without re-serializing; a transcript is parsed with none and
    written with one per line."""
    params = preset("p431")
    dumps = _counter(monkeypatch, siot.wire, "canonical_json")
    pipe = LoopbackPipe()
    results = {}

    def receiver():
        results["r"] = run_session(
            "receiver", SessionConfig(params, seed=b"opcount-r", b=1), pipe.b)

    th = threading.Thread(target=receiver)
    th.start()
    results["s"] = run_session(
        "sender", SessionConfig(params, seed=b"opcount-s", x0=b"zero",
                                x1=b"one"), pipe.a)
    th.join(30)
    assert not th.is_alive()
    assert results["r"]["output"] == b"one"
    assert dumps[0] == 7
    dumps[0] = 0
    data = results["r"]["transcript"].to_bytes()
    assert dumps[0] == 7
    dumps[0] = 0
    back = Transcript.from_bytes(data)
    assert dumps[0] == 0
    assert back.entries == results["s"]["transcript"].entries

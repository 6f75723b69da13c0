"""Exact operation counts: algorithmic regressions show up here as a
changed number, without any timing noise."""

import siot.curve
import siot.isogeny
import siot.pairing
import siot.siot
import siot.wire
from loopback import JOIN_S, LoopbackPipe, closing_thread
from siot import (SessionConfig, Transcript, det_rng, gen_params, keygen,
                  params_from_obj, params_to_obj, preset, run_local,
                  run_session, validate_public, verify_transcript)
from siot.curve import EllipticCurve
from siot.field import Fp2
from siot.isogeny import isogeny_chain, kernel_generator
from siot.pairing import weil_pairing


def test_long_chain_inversions_stay_below_quadratic(counter, p102):
    """An e = 51 two-power chain takes 50 inversions, one per Velu step
    but the last: each step brings its kernel point, the Jacobian
    multiples on its stack and its chord denominators to affine in one
    batch, and the last step has an affine kernel point and nothing to
    push.  Converting every multiple of the traversal back to affine
    took 100, and a fresh scalar multiple per step, in affine
    coordinates, 1,425.  Pushed points ride the stack's batches, so
    pushing two adds one inversion, at the last step."""
    G, H = p102.side_a.basis
    K = kernel_generator(p102.curve, G, 12345, H)
    inv = counter(Fp2, "inv")
    velu = counter(siot.isogeny, "velu_step")
    isogeny_chain(p102.curve, K, 2, 51, ())
    assert (inv[0], velu[0]) == (50, 51)
    inv[0] = 0
    isogeny_chain(p102.curve, K, 2, 51, p102.side_b.basis)
    assert inv[0] == 51


def test_p102_keygen_inversions(counter, p102):
    """One keygen per side at 2^51*3^32 - 1: one inversion per step of
    the walk, which pushes the other side's basis in its own batches,
    and one for the kernel generator P + [r]Q, a joint multiplication
    (two, and [53, 34] in all, when it was a multiplication and an
    addition)."""
    inv = counter(Fp2, "inv")
    counts = []
    for side in ("A", "B"):
        inv[0] = 0
        keygen(p102, side, det_rng(b"opcount/keygen/" + side.encode()))
        counts.append(inv[0])
    assert counts == [52, 33]


def test_validate_public_inverts_nothing(counter, p431):
    """The torsion test of a key's two points keeps its multiples
    Jacobian and tests only their Z."""
    pub = keygen(p431, "A", det_rng(b"opcount/validate")).public
    inv = counter(Fp2, "inv")
    validate_public(p431, "A", pub)
    assert inv[0] == 0


def test_parameters_are_certified_without_a_pairing(counter, p102):
    """``gen_params`` and ``params_from_obj`` certify their bases by the
    multiples of order ell, with no Miller function and no pairing.  The
    search is the counted call, so it runs here and not in the fixture."""
    miller = counter(siot.pairing, "miller_function")
    weil = counter(siot.pairing, "weil_pairing")
    params = gen_params(2, 51, 3, 32, rng=det_rng(b"tests/p102"))
    assert params == p102
    params_from_obj(params_to_obj(params))
    assert (miller[0], weil[0]) == (0, 0)


def test_basis_test_inverts_nothing(counter, p431):
    """The basis test compares x-coordinates projectively."""
    E, (P, Q) = p431.curve, p431.side_b.basis
    dependent = E.mul(2, P)
    inv = counter(Fp2, "inv")
    assert E.is_basis(P, Q, 3, 3)
    assert not E.is_basis(P, dependent, 3, 3)
    assert E.is_basis(*p431.side_a.basis, 2, 4)
    assert inv[0] == 0


def test_weil_pairing_op_counts(counter, p102):
    """One pairing of the 2^51-torsion basis: four Miller functions
    that return fractions, one batched inversion for the two evaluation
    points and one division of the cross-multiplied quotient (7 when
    each Miller value divided itself out and the evaluation points were
    two affine additions).  The pairing trusts its checked torsion
    inputs and makes no scalar multiplication."""
    G, H = p102.side_a.basis
    inv = counter(Fp2, "inv")
    miller = counter(siot.pairing, "miller_function")
    mul = counter(EllipticCurve, "mul")
    weil_pairing(p102.curve, G, H, p102.side_a.n)
    assert (inv[0], miller[0], mul[0]) == (2, 4, 0)


def test_certificate_pairing_builds_few_field_elements(counter, monkeypatch,
                                                       p431):
    """The pairing keeps integer pairs from its inputs to its value: on
    the certificate multiples of a p431 session it builds 9 ``Fp2``
    objects: x^3 + Ax + B for each of three auxiliary x candidates and
    the root of the last, two for each of its two inversions, and its
    value.  It built 21 when the auxiliary, shifted and negated points
    were ``Point``s and z^n went through ``Fp2.__pow__``."""
    calls = []

    def recording(E, P, Q, n):
        calls.append((E, P, Q, n))
        return weil_pairing(E, P, Q, n)
    monkeypatch.setattr(siot.siot, "weil_pairing", recording)
    out = run_local(SessionConfig(p431, seed=b"zz", b=1, x0=b"zero",
                                  x1=b"one"))
    assert out["restarts"] == 0 and len(calls) == 1
    made = counter(Fp2, "__init__")
    weil_pairing(*calls[0])
    assert made[0] <= 9


def test_p431_session_op_counts(counter):
    """A curve is tested for singularity only where it is decoded, in
    straight-line integer arithmetic, so neither the 18 Velu codomains
    of a session nor the two decoded keys cost an Fp2 product: the 15
    left are the three j-invariants'.  Testing every curve as it was
    built made 116, and the decoded keys' tests (6) and the pairing's
    Miller values and quotient (7) made 13 more until they went to
    integers.  The chains
    invert once per step at most and add no points; the torsion tests
    invert nothing.  Each kernel and mask point is one joint
    multiplication at one inversion, and the sender forms no mask
    point, so no affine addition is left: the certificate pairing's two
    evaluation points are its own Jacobian additions.  (inv, add) was
    (45, 13) when the sender built the shifted key's points and each
    kernel took a multiplication and an addition.  The certificate
    pairs the multiples of order 2 that proved the receiver pair's
    orders at three inversions: one batched for the multiples, one
    batched for the evaluation points and one for the quotient, where
    it took eight when each Miller value and each evaluation point
    inverted on its own (33 in all)."""
    params = preset("p431")
    mul = counter(Fp2, "__mul__")
    inv = counter(Fp2, "inv")
    add = counter(EllipticCurve, "add")
    velu = counter(siot.isogeny, "velu_step")
    checks = counter(EllipticCurve, "check_point")
    out = run_local(SessionConfig(params, seed=b"opcount", b=0,
                                  x0=b"zero", x1=b"one"))
    assert out["restarts"] == 0
    assert out["output"] == b"zero"
    assert (inv[0], add[0], velu[0]) == (28, 0, 18)
    assert mul[0] == 15
    # G and H once in each party's validate_public of the peer's key
    assert checks[0] == 4


def test_p431_session_builds_few_objects(counter, p431):
    """A point is a Jacobian triple and a curve holds its coefficient
    pairs, above and below the curve API, so a p431 session builds at
    most 128 ``Fp2`` and exactly 7 ``EllipticCurve`` objects: the two
    decoded keys' curves and the five chains' codomains.  ``Fp2`` is
    built where a value is inverted, square-rooted, decoded or encoded,
    or leaves as a j-invariant or pairing value.  It built 136 when a
    chain brought its codomain's coefficients and every image into
    ``Fp2`` (``unit_point``, 26, and the codomain, 10), and 162 and 20
    curves when each Velu step returned a curve of two ``Fp2`` that the
    next step unpacked.  The parameter fingerprint is cleared first, so
    the session writes the parameters' JSON, which encodes 10 values."""
    siot.siot.params_fingerprint.cache_clear()
    made = counter(Fp2, "__init__")
    curves = counter(EllipticCurve, "__init__")
    out = run_local(SessionConfig(p431, seed=b"opcount", b=1, x0=b"zero",
                                  x1=b"one"))
    assert out["restarts"] == 0 and out["output"] == b"one"
    assert made[0] <= 128
    assert curves[0] == 7


def test_p102_session_jacobian_steps(counter, p102):
    """A clean session at 2^51*3^32 - 1, per bit: the Jacobian doublings,
    additions and triplings of ``siot.curve`` (the Miller loop's own
    steps, in ``siot.pairing``, are not counted).  Every kernel and mask
    point shares one chain of doublings between its two scalars, and the
    sender forms no mask point.  For bit 1 the receiver forms its shifted
    pair directly, by the two joint multiplications of I - M."""
    for b, want in ((0, (860, 190, 226)), (1, (856, 183, 226))):
        steps = [counter(siot.curve, name) for name in (
            "jac_double", "jac_add", "jac_triple")]
        out = run_local(SessionConfig(p102, seed=b"golden-p102", b=b,
                                      x0=b"zero", x1=b"one"))
        assert out["restarts"] == 0
        assert tuple(c[0] for c in steps) == want


def test_session_pairing_is_of_order_ell_a(monkeypatch):
    """The one pairing of a session, and of a transcript's audit, is
    the receiver pair's certificate of order lA, on the multiples that
    proved the pair's orders: a clean p431 session and a p2591
    ``verify_transcript`` each make one, of order 2."""
    orders = []

    def recording(E, P, Q, n):
        orders.append(n)
        return weil_pairing(E, P, Q, n)
    monkeypatch.setattr(siot.siot, "weil_pairing", recording)
    out = run_local(SessionConfig(preset("p431"), seed=b"opcount", b=1,
                                  x0=b"zero", x1=b"one"))
    assert out["restarts"] == 0 and out["output"] == b"one"
    assert orders == [2]
    params = preset("p2591")
    out = run_local(SessionConfig(params, seed=b"opcount", b=0,
                                  x0=b"zero", x1=b"one"))
    del orders[:]
    assert verify_transcript(out["transcript"], params)["ok"]
    assert orders == [2]


def test_online_pair_serializes_each_message_once(counter):
    """A sender/receiver pair writes each of the seven messages once and
    parses without re-serializing; a transcript is parsed with none and
    written with one per line."""
    params = preset("p431")
    dumps = counter(siot.wire, "canonical_json")
    pipe = LoopbackPipe()
    results = {}

    def receiver():
        results["r"] = run_session(
            "receiver", SessionConfig(params, seed=b"opcount-r", b=1), pipe.b)

    th = closing_thread(pipe.b, receiver)
    try:
        results["s"] = run_session(
            "sender", SessionConfig(params, seed=b"opcount-s", x0=b"zero",
                                    x1=b"one"), pipe.a)
    finally:
        pipe.a.close()
    th.join(JOIN_S)
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

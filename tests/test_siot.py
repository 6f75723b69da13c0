"""The masked OT layer: coin flip, coefficient derivation, mask-point
algebra, the session state machine, and payload encryption."""

import struct

import pytest

import siot.siot
from oracles import check_mask_coefficients
from siot import SessionConfig, det_rng, kdf_dec, keygen, run_local
from siot.curve import INFINITY
from siot.errors import DecryptionError, InvalidKernelError, ProtocolAbort
from siot.isogeny import kernel_generator
from siot.pairing import weil_pairing
from siot.sidh import (PublicParams, params_from_obj, params_to_obj,
                       point_to_obj)
from siot.util import canonical_json, tagged_hash, xor_bytes
from siot.siot import (
    NONCE_LEN,
    SCHEDULE,
    MaskCoefficients,
    SiotSession,
    _bytes_field,
    _pack_input,
    _unpack_input,
    branch_kernels,
    commitment,
    derive_mask_coeffs,
    encode_mask_points,
    exchange,
    kdf_enc,
    mask_public,
    params_fingerprint,
    read_public,
)


def _run(params, b, x0=b"left input", x1=b"right one", seed=b"siot-test"):
    sid = b"\x01" * 16
    s = SiotSession(params, "sender", det_rng(seed + b"s"), sid, x0=x0, x1=x1)
    r = SiotSession(params, "receiver", det_rng(seed + b"r"), sid, b=b)
    exchange(s, r)
    return s, r, r.output


# -- coin flip -----------------------------------------------------------

def _flip_coins(params, seed):
    """A sender and a receiver that have exchanged both commits."""
    sid = b"\x0a" * 16
    s = SiotSession(params, "sender", det_rng(seed + b"s"), sid,
                    x0=b"a", x1=b"b")
    r = SiotSession(params, "receiver", det_rng(seed + b"r"), sid, b=0)
    _run_until(s, r, "coin-reveal")
    return s, r


def test_coinflip_binding_and_combination(p431):
    """Both sides open each other's commitment and derive the same mask
    coefficients from w, the XOR of the two nonces."""
    s, r = _flip_coins(p431, b"coin")
    assert s.remote_commitment == commitment(r.nonce)
    assert r.remote_commitment == commitment(s.nonce)
    r.consume_reveal(s.produce_reveal())
    s.consume_reveal(r.produce_reveal())
    assert len(s.nonce) == len(r.nonce) == NONCE_LEN and s.nonce != r.nonce
    assert s.coeffs == r.coeffs
    assert s.coeffs == derive_mask_coeffs(xor_bytes(s.nonce, r.nonce), p431)


def test_coinflip_cheat_detected(p431):
    """A well-formed nonce that does not open the sender's commitment."""
    s, r = _flip_coins(p431, b"coin2")
    s.produce_reveal()
    with pytest.raises(ProtocolAbort) as info:
        r.consume_reveal({"nonce": "00" * NONCE_LEN})
    assert info.value.code == "coinflip-cheat"


def test_coinflip_requires_commit_first(p431):
    r = SiotSession(p431, "receiver", det_rng(b"coin3"), b"\x0b" * 16, b=0)
    with pytest.raises(ProtocolAbort) as info:
        r.consume_reveal({"nonce": "00" * NONCE_LEN})
    assert info.value.code == "out-of-order"


# -- mask coefficients ---------------------------------------------------

def test_derived_coeffs_satisfy_all_constraints(p431, p2591, p102):
    """Every derived tuple meets every constraint.  The mask matrix
    M = [[alpha, beta], [gamma, delta]] squares to 0, so I - M and I + M
    have determinant 1, and alpha, gamma and delta vanish mod lA."""
    for params in (p431, p2591, p102):
        n = params.side_a.n
        ell, e = params.side_a.ell, params.side_a.e
        rng = det_rng(b"coeffs")
        for _ in range(200):
            w = rng.randbytes(32)
            c = derive_mask_coeffs(w, params)
            check_mask_coefficients(c, params)
            assert c.beta % ell != 0
            assert (c.delta + c.alpha) % n == 0
            assert (c.alpha * c.alpha + c.beta * c.gamma) % n == 0
            assert c.quadratic_root_free(ell)
            assert c.alpha % ell ** ((e + 1) // 2) == 0
            assert c.alpha % ell == c.gamma % ell == c.delta % ell == 0
            for sign in (-1, 1):
                det = (1 + sign * c.alpha) * (1 + sign * c.delta) \
                    - c.beta * c.gamma
                assert det % n == 1
            # determinism: same w, same tuple
            assert derive_mask_coeffs(w, params) == c


def test_derived_gamma_is_zero(p431, p2591, set3, p102):
    """alpha is a multiple of lA^ceil(eA/2), so alpha^2, and with it
    gamma = -alpha^2/beta, is 0 mod lA^eA: V = gamma*G + delta*H costs
    one multiplication, since ``mul(0, G)`` returns O at once."""
    for params in (p431, p2591, set3, p102):
        rng = det_rng(b"gamma")
        for _ in range(50):
            assert derive_mask_coeffs(rng.randbytes(32), params).gamma == 0


def test_params_fingerprint_memo_is_never_stale(p431, p2591, set3, counter):
    """The memoized fingerprint is keyed on the parameter value, so it
    equals a fresh hash of the canonical JSON for every way a
    ``PublicParams`` is made, and two sessions on one set write that
    JSON once."""
    def fresh(params):
        return tagged_hash("params-fp", canonical_json(params_to_obj(params)))
    built = PublicParams(p431.p, p431.f, p431.curve, p431.side_a,
                         p431.side_b)
    replaced = p431._replace(side_b=p2591.side_b)
    for params in (p431, p2591, set3, params_from_obj(params_to_obj(set3)),
                   replaced, built, p431._replace(f=p431.f + 4)):
        assert params_fingerprint(params) == fresh(params)
    assert params_fingerprint(replaced) != params_fingerprint(p431)
    params_fingerprint.cache_clear()
    calls = counter(siot.siot, "params_to_obj")
    for seed in (b"memo-1", b"memo-2"):
        run_local(SessionConfig(p2591, seed=seed, b=1, x0=b"a", x1=b"b"))
    assert calls[0] == 1


def test_transcript_hash_writes_the_canonical_json(p431, p2591, p102):
    """The transcript hash writes each public-key body by
    ``sidh.public_json``; the bytes are the canonical JSON of the body,
    for either party and bit."""
    for params in (p431, p2591, p102):
        for b in (0, 1):
            for party in _run(params, b)[:2]:
                assert party._transcript_hash() == tagged_hash(
                    "transcript", party.session_id,
                    *map(canonical_json, party._pk_bodies))


def test_coeff_check_rejections(p431):
    n = p431.side_a.n
    with pytest.raises(ValueError):
        # beta not a unit
        check_mask_coefficients(
            MaskCoefficients(0, p431.side_a.ell, 0, 0), p431)
    with pytest.raises(ValueError):
        # delta != -alpha
        check_mask_coefficients(MaskCoefficients(4, 1, (-16) % n, 4), p431)
    with pytest.raises(ValueError):
        # alpha^2 + beta*gamma != 0
        check_mask_coefficients(MaskCoefficients(2, 1, 0, (-2) % n), p431)
    with pytest.raises(ValueError):
        # several at once
        check_mask_coefficients(MaskCoefficients(2, 1, 0, 0), p431)


def test_mask_points_satisfy_dependence_identity(p431):
    """V = -(alpha/beta) U for every constraint-compliant tuple."""
    rng = det_rng(b"maskpts")
    kp = keygen(p431, "B", rng)
    pub = kp.public
    n = p431.side_a.n
    for _ in range(10):
        c = derive_mask_coeffs(rng.randbytes(32), p431)
        U, V = encode_mask_points(c, pub.curve, pub.G, pub.H)
        scale = (-c.alpha * pow(c.beta, -1, n)) % n
        assert V == pub.curve.mul(scale, U)
        assert pub.curve.mul(n, U) == INFINITY


def test_rederived_mask_is_identical_from_masked_pair(p431):
    """Applying the mask and re-deriving from the shifted pair returns
    the very same (U, V): what makes the sender's reconstruction work."""
    rng = det_rng(b"fixedpoint")
    kp = keygen(p431, "B", rng)
    pub = kp.public
    for _ in range(10):
        c = derive_mask_coeffs(rng.randbytes(32), p431)
        U, V = encode_mask_points(c, pub.curve, pub.G, pub.H)
        Gm = pub.curve.sub(pub.G, U)
        Hm = pub.curve.sub(pub.H, V)
        assert encode_mask_points(c, pub.curve, Gm, Hm) == (U, V)


def test_masked_pair_keeps_pairing_value(p431):
    rng = det_rng(b"pairval")
    kp = keygen(p431, "B", rng)
    pub = kp.public
    n = p431.side_a.n
    base = weil_pairing(pub.curve, pub.G, pub.H, n)
    c = derive_mask_coeffs(rng.randbytes(32), p431)
    U, V = encode_mask_points(c, pub.curve, pub.G, pub.H)
    Gm, Hm = pub.curve.sub(pub.G, U), pub.curve.sub(pub.H, V)
    assert weil_pairing(pub.curve, Gm, Hm, n) == base


@pytest.mark.parametrize("name", ["p431", "p2591", "set3", "p102"])
def test_masked_public_is_the_pair_minus_the_mask(name, request):
    """For bit 1 the published pair, formed as the mask of I - M, is
    (G - U, H - V); bit 0 publishes the key itself.  Derived tuples and
    the hand-built ones ``siot.analysis`` passes alike."""
    params = request.getfixturevalue(name)
    rng = det_rng(b"mask-public/" + name.encode())
    n, ell = params.side_a.n, params.side_a.ell
    for _ in range(3):
        pub = keygen(params, "B", rng).public
        E, G, H = pub
        c = derive_mask_coeffs(rng.randbytes(32), params)
        for coeffs in (c, MaskCoefficients(0, 1, 0, 2 % n),
                       MaskCoefficients(ell % n, 1, 0, 0),
                       MaskCoefficients(0, 0, 0, 0)):
            U, V = encode_mask_points(coeffs, E, G, H)
            assert mask_public(coeffs, pub, 0, n) == pub
            assert mask_public(coeffs, pub, 1, n) == (
                E, E.sub(G, U), E.sub(H, V))


@pytest.mark.parametrize("name", ["p431", "p2591", "set3", "p102"])
def test_branch_kernels_are_the_shifted_pairs_kernels(name, request):
    """The sender's two kernels, each formed as one combination of the
    received pair, equal G + [r]H and (G + U) + [r](H + V) built from
    the mask points, on unmasked and masked pairs: for derived tuples,
    and for the hand-built ones ``siot.analysis`` uses, the
    distinguisher's violation (0, 1, 0, 2), the probe's crafted control
    (lA, lA*r, 0, 0) and the all-zero tuple."""
    params = request.getfixturevalue(name)
    rng = det_rng(b"branch-kernels/" + name.encode())
    n, ell = params.side_a.n, params.side_a.ell
    for _ in range(3):
        pub = keygen(params, "B", rng).public
        r = rng.randrange(n)
        c = derive_mask_coeffs(rng.randbytes(32), params)
        for coeffs in (c, MaskCoefficients(0, 1, 0, 2 % n),
                       MaskCoefficients(ell % n, ell * r % n, 0, 0),
                       MaskCoefficients(0, 0, 0, 0)):
            for key in (pub, mask_public(c, pub, 1, n)):
                E, G, H = key
                U, V = encode_mask_points(coeffs, E, G, H)
                assert branch_kernels(coeffs, key, r, n) == (
                    kernel_generator(E, G, r, H),
                    kernel_generator(E, E.add(G, U), r, E.add(H, V)))


# -- sessions ------------------------------------------------------------

def test_session_delivers_chosen_input(p431):
    for b in (0, 1):
        s, r, out = _run(p431, b)
        assert out == (b"right one" if b else b"left input")
        assert s.shared_j[b] == r.shared_j[0]
        assert s.shared_j[0] != s.shared_j[1]
        # both have walked the whole schedule: one more phase aborts
        for party in (s, r):
            with pytest.raises(ProtocolAbort, match="expected done") as info:
                party.produce_commit()
            assert info.value.code == "out-of-order"


def test_session_both_presets(p431, p2591):
    for params in (p431, p2591):
        _, _, out = _run(params, 1, seed=b"presets")
        assert out == b"right one"


def test_wrong_branch_ciphertext_never_opens(p431):
    for b in (0, 1):
        s, r, _ = _run(p431, b, seed=b"wrongct%d" % b)
        other = s.ciphertexts[1 - b]
        with pytest.raises(DecryptionError):
            kdf_dec(r.shared_j[0], other, r._transcript_hash())


def test_inputs_of_different_length_are_padded(p431):
    s, r, out = _run(p431, 0, x0=b"ab", x1=b"a much longer input string")
    assert out == b"ab"
    assert len(s.ciphertexts[0]) == len(s.ciphertexts[1])


def test_out_of_order_calls_abort(p431):
    sid = b"\x02" * 16
    s = SiotSession(p431, "sender", det_rng(b"ooo"), sid, x0=b"a", x1=b"b")
    with pytest.raises(ProtocolAbort) as info:
        s.produce_reveal()
    assert info.value.code == "out-of-order"
    r = SiotSession(p431, "receiver", det_rng(b"ooo2"), sid, b=0)
    with pytest.raises(ProtocolAbort):
        r.produce_commit()   # receiver acks the sender commit first


def test_session_role_argument_validation(p431):
    rng = det_rng(b"roles")
    with pytest.raises(ValueError):
        SiotSession(p431, "sender", rng, b"\x00" * 16, x0=b"a")
    with pytest.raises(ValueError, match="^sender holds no choice bit$"):
        SiotSession(p431, "sender", rng, b"\x00" * 16, x0=b"a", x1=b"b",
                    b=0)
    with pytest.raises(ValueError):
        SiotSession(p431, "receiver", rng, b"\x00" * 16, b=2)
    with pytest.raises(ValueError):
        SiotSession(p431, "receiver", rng, b"\x00" * 16, b=0, x0=b"a")
    with pytest.raises(ValueError):
        SiotSession(p431, "observer", rng, b"\x00" * 16)
    with pytest.raises(ValueError):
        SiotSession(p431, "sender", rng, b"\x00" * 3, x0=b"a", x1=b"b")


def test_tampered_commit_breaks_reveal(p431):
    sid = b"\x03" * 16
    s = SiotSession(p431, "sender", det_rng(b"tc-s"), sid, x0=b"a", x1=b"b")
    r = SiotSession(p431, "receiver", det_rng(b"tc-r"), sid, b=0)
    body = s.produce_commit()
    r.consume_commit({"commit": "00" * 32})    # attacker swaps the commit
    s.consume_commit(r.produce_commit())
    with pytest.raises(ProtocolAbort) as info:
        r.consume_reveal(s.produce_reveal())
    assert info.value.code == "coinflip-cheat"


def test_malformed_bodies_abort(p431):
    sid = b"\x04" * 16
    r = SiotSession(p431, "receiver", det_rng(b"mb"), sid, b=0)
    with pytest.raises(ProtocolAbort) as info:
        r.consume_commit({"commit": "xyz"})
    assert info.value.code == "bad-message"
    r2 = SiotSession(p431, "receiver", det_rng(b"mb2"), sid, b=0)
    with pytest.raises(ProtocolAbort):
        r2.consume_commit({"wrong": "00" * 32})


def test_ciphertext_length_mismatch_aborts(p431):
    s, r, _ = _run(p431, 0, seed=b"ctlen")
    r2 = SiotSession(p431, "receiver", det_rng(b"ctlen-r"), b"\x05" * 16, b=0)
    r2._cursor = [m.type for m in SCHEDULE].index("ciphertexts")
    with pytest.raises(ProtocolAbort) as info:
        r2.consume_ciphertexts({"c0": "aa", "c1": "aabb"})
    assert info.value.code == "bad-message"


def test_forged_length_prefix_is_a_coded_abort(p431):
    """The sender knows both j, so it can seal a valid plaintext whose
    length prefix claims more bytes than follow; the receiver aborts
    with ``decrypt-fail`` as for any ciphertext it cannot open."""
    sid = b"\x0d" * 16
    s = SiotSession(p431, "sender", det_rng(b"forged-s"), sid,
                    x0=b"left", x1=b"right")
    r = SiotSession(p431, "receiver", det_rng(b"forged-r"), sid, b=1)
    _run_until(s, r, "ciphertexts")
    th = s._transcript_hash()
    forged = [kdf_enc(j, struct.pack("!I", 1000) + b"xxxx", th)
              for j in s.shared_j]
    with pytest.raises(ProtocolAbort) as info:
        r.consume_ciphertexts({"c0": forged[0].hex(), "c1": forged[1].hex()})
    assert info.value.code == "decrypt-fail"


def _run_until(s, r, last_type):
    """Exchange SCHEDULE rows up to, not including, ``last_type``."""
    parties = {"sender": s, "receiver": r}
    for msg in SCHEDULE:
        if msg.type == last_type:
            return
        body = getattr(parties[msg.producer], msg.produce)()
        getattr(parties[msg.consumer], msg.consume)(body)


def test_hex_fields_reject_whitespace():
    assert _bytes_field({"c0": "aabb"}, "c0") == b"\xaa\xbb"
    for bad in ("aa  bb", " aabb ", "aa\tb", "AABB", "aab", "zz"):
        with pytest.raises(ProtocolAbort) as info:
            _bytes_field({"c0": bad}, "c0")
        assert info.value.code == "bad-message"


def test_spaced_ciphertext_aborts(p431):
    """Spaces inside a ciphertext leave its bytes unchanged, but the body
    is not canonical hex, so the receiver refuses it."""
    sid = b"\x06" * 16
    s = SiotSession(p431, "sender", det_rng(b"spaced-s"), sid,
                    x0=b"left", x1=b"right")
    r = SiotSession(p431, "receiver", det_rng(b"spaced-r"), sid, b=0)
    _run_until(s, r, "ciphertexts")
    body = s.produce_ciphertexts()
    with pytest.raises(ProtocolAbort) as info:
        r.consume_ciphertexts({k: v[:2] + "  " + v[2:]
                               for k, v in body.items()})
    assert info.value.code == "bad-message"


def test_degenerate_sender_branch_is_a_kernel_error(p431):
    """Coefficients (n - 1, -r, 0, 0) give U = -G - [r]H and V = O, so
    branch 1's kernel G + U + [r](H + V) is the identity: the sender's
    chain rejects it with its typed kernel error.  Derived coefficients
    cannot reach this path: with a certified pair they give both
    branch kernels full order."""
    sid = b"\x08" * 16
    s = SiotSession(p431, "sender", det_rng(b"degenerate-s"), sid,
                    x0=b"left", x1=b"right")
    r = SiotSession(p431, "receiver", det_rng(b"degenerate-r"), sid, b=0)
    _run_until(s, r, "pk-receiver")
    n = p431.side_a.n
    s.coeffs = MaskCoefficients(n - 1, -s.keypair.r % n, 0, 0)
    with pytest.raises(InvalidKernelError):
        s.consume_public(r.produce_public())


def test_dependent_receiver_pair_aborts_before_any_walk(p431, counter):
    """A receiver pair (G, [3]G) passes the per-point checks, both points
    of full order, but is no basis: the sender's certificate aborts
    before it walks either branch chain."""
    sid = b"\x09" * 16
    s = SiotSession(p431, "sender", det_rng(b"dependent-s"), sid,
                    x0=b"left", x1=b"right")
    r = SiotSession(p431, "receiver", det_rng(b"dependent-r"), sid, b=0)
    _run_until(s, r, "pk-receiver")
    pub = r.keypair.public
    body = {**r.produce_public(),
            "h": point_to_obj(p431.ctx, pub.curve.mul(3, pub.G))}
    walks = counter(siot.siot, "isogeny_chain")
    with pytest.raises(ProtocolAbort) as info:
        s.consume_public(body)
    assert info.value.code == "bad-receiver-key"
    assert walks[0] == 0


def test_an_abort_closes_the_session(p431):
    """A phase that raises closes its session, and every later call
    aborts out-of-order instead of running on the state the abort left
    half done: a sender with no ciphertexts, or a receiver with no mask
    coefficients."""
    sid = b"\x0f" * 16
    s = SiotSession(p431, "sender", det_rng(b"closed-s"), sid,
                    x0=b"left", x1=b"right")
    r = SiotSession(p431, "receiver", det_rng(b"closed-r"), sid, b=1)
    _run_until(s, r, "pk-receiver")
    body = r.produce_public()
    with pytest.raises(ProtocolAbort) as info:
        s.consume_public({**body, "h": body["g"]})
    assert info.value.code == "bad-receiver-key"
    s2, r2 = _flip_coins(p431, b"closed")
    s2.produce_reveal()
    with pytest.raises(ProtocolAbort) as info:
        r2.consume_reveal({"nonce": "00" * NONCE_LEN})
    assert info.value.code == "coinflip-cheat"
    for call in (s.produce_ciphertexts, s.produce_commit, r2.produce_reveal):
        with pytest.raises(ProtocolAbort, match="closed the session") as info:
            call()
        assert info.value.code == "out-of-order"


def test_sender_pair_that_is_no_basis_is_a_coded_abort(p431):
    """A sender pair (G, G) or (G, -G) passes the per-point checks, both
    points of full order, but is no basis: ``read_public`` certifies the
    sender's pair too, so the receiver aborts ``bad-sender-key`` in
    ``consume_public``, before it sends its own key.  Until it did, the
    receiver walked on, and its kernel G + [r]H = (1 +- r)G lost order
    only for an r with 1 +- r = 0 mod lB."""
    sid = b"\x0c" * 16
    for sign in (1, -1):
        s = SiotSession(p431, "sender", det_rng(b"nobasis-s"), sid,
                        x0=b"left", x1=b"right")
        r = SiotSession(p431, "receiver", det_rng(b"nobasis-r"), sid, b=1)
        _run_until(s, r, "pk-sender")
        pub = s.keypair.public
        H = pub.G if sign == 1 else pub.curve.neg(pub.G)
        body = {**s.produce_public(), "h": point_to_obj(p431.ctx, H)}
        with pytest.raises(ProtocolAbort) as verdict:
            read_public(p431, "sender", body)
        with pytest.raises(ProtocolAbort) as info:
            r.consume_public(body)
        assert info.value.code == "bad-sender-key"
        assert str(info.value) == str(verdict.value)


def test_singular_public_key_is_a_decode_error(p431):
    sid = b"\x07" * 16
    s = SiotSession(p431, "sender", det_rng(b"singular-s"), sid,
                    x0=b"left", x1=b"right")
    r = SiotSession(p431, "receiver", det_rng(b"singular-r"), sid, b=1)
    _run_until(s, r, "pk-sender")
    body = s.produce_public()
    zero = "00" * (2 * p431.ctx.byte_width)
    with pytest.raises(ProtocolAbort) as info:
        r.consume_public({**body, "curve": {"a": zero, "b": zero}})
    assert info.value.code == "bad-message"


def test_non_hex_coordinate_is_a_coded_abort(p431):
    """A field element the key's decoder refuses aborts the session with
    the code of every refused body, not a bare decode error."""
    sid = b"\x0e" * 16
    s = SiotSession(p431, "sender", det_rng(b"nonhex-s"), sid,
                    x0=b"left", x1=b"right")
    r = SiotSession(p431, "receiver", det_rng(b"nonhex-r"), sid, b=0)
    _run_until(s, r, "pk-sender")
    body = s.produce_public()
    x = body["g"]["x"]
    with pytest.raises(ProtocolAbort) as info:
        r.consume_public({**body, "g": {**body["g"], "x": "zz" + x[2:]}})
    assert info.value.code == "bad-message"


# -- payload encryption --------------------------------------------------

def test_seal_roundtrip_and_tamper(p431):
    j = p431.curve.j_invariant()
    ct = kdf_enc(j, b"payload bytes", b"th")
    assert kdf_dec(j, ct, b"th") == b"payload bytes"
    with pytest.raises(DecryptionError):
        kdf_dec(j, ct, b"other transcript")
    bad = bytes([ct[0] ^ 1]) + ct[1:]
    with pytest.raises(DecryptionError):
        kdf_dec(j, bad, b"th")


def test_input_packing_roundtrip():
    for x in (b"", b"a", b"0123456789"):
        packed = _pack_input(x, 32)
        assert len(packed) == 36
        assert _unpack_input(packed) == x
    with pytest.raises(ValueError):
        _pack_input(b"too long for width", 4)
    with pytest.raises(DecryptionError):
        _unpack_input(b"\x00\x00\x00\xff")
    with pytest.raises(DecryptionError, match="too short"):
        _unpack_input(b"\x00\x00")

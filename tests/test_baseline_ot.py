"""The classical-group reference OT: frozen group recount, session
semantics, and the refusal paths."""

import pytest

from oracles import count_fp_points, ec_mul_fp
from siot import det_rng
from siot.baseline_ot import (BASE, COFACTOR, CURVE, Q, bo_receiver_round,
                              bo_sender_keys, bo_sender_setup, in_group,
                              run_baseline_local)
from siot.errors import DecryptionError, ProtocolAbort
from siot.util import open_sealed, seal

P_, A_, B_ = 10007, 1, 9

# a point of order 3: on the curve but outside the order-3329 subgroup
OFF_SUBGROUP = (8144, 4842)


def _pt(t):
    return CURVE.point((t[0], 0), (t[1], 0))


def test_frozen_group_recount():
    """Recount the curve order from scratch and re-certify the base."""
    n = count_fp_points(P_, A_, B_)
    assert n == 9987 == COFACTOR * Q
    from siot.field import is_prime
    assert is_prime(Q)
    base = (BASE[0][0], BASE[1][0])
    assert ec_mul_fp(P_, A_, B_, Q, base) is None
    assert in_group(BASE)


def test_off_subgroup_point_is_genuinely_off():
    assert CURVE.is_on_curve(_pt(OFF_SUBGROUP))
    assert not in_group(_pt(OFF_SUBGROUP))
    assert ec_mul_fp(P_, A_, B_, 3, OFF_SUBGROUP) is None


def test_sessions_deliver_exactly_the_chosen_message():
    for i in range(60):
        b = i % 2
        out = run_baseline_local(b, b"msg zero", b"msg one.",
                                 seed=b"bo-sessions/%d" % i)
        assert out["output"] == (b"msg one." if b else b"msg zero")
        assert out["receiver_key"] == out["keys"][b]
        assert out["keys"][0] != out["keys"][1]
        with pytest.raises(DecryptionError):
            open_sealed(out["receiver_key"], out["ciphertexts"][1 - b])


def test_sender_setup_shape():
    rng = det_rng(b"bo-setup")
    for _ in range(40):
        y, S, T = bo_sender_setup(rng)
        assert 1 <= y < Q
        assert in_group(S) and in_group(T)
        assert CURVE.mul(y, S) == T


def test_receiver_refuses_off_subgroup_sender_point():
    rng = det_rng(b"bo-refuse1")
    with pytest.raises(ProtocolAbort) as info:
        bo_receiver_round(_pt(OFF_SUBGROUP), 0, rng)
    assert info.value.code == "refused-point"


def test_receiver_refuses_a_choice_bit_outside_0_1():
    rng = det_rng(b"bo-refuse-bit")
    _, S, _ = bo_sender_setup(rng)
    for b in (-1, 2, None):
        with pytest.raises(ValueError, match="choice bit must be 0 or 1"):
            bo_receiver_round(S, b, rng)


def test_sender_refuses_off_subgroup_response():
    rng = det_rng(b"bo-refuse2")
    y, S, T = bo_sender_setup(rng)
    with pytest.raises(ProtocolAbort) as info:
        bo_sender_keys(y, S, T, _pt(OFF_SUBGROUP))
    assert info.value.code == "refused-point"


def test_forced_blinding_scalar_still_correct():
    """Pin the receiver scalar x and check the key algebra directly:
    the receiver key H([x]S) must be the sender key of index b.  At
    x = 0 the point [x]S is O, which the key hash encodes apart."""
    rng = det_rng(b"bo-forced")
    for b in (0, 1):
        for x in (0, 1, 2, Q - 1):
            y, S, T = bo_sender_setup(rng)
            got_x, R, k_b = bo_receiver_round(S, b, rng, x=x)
            assert got_x == x
            k0, k1 = bo_sender_keys(y, S, T, R)
            assert k_b == (k1 if b else k0)
            assert k0 != k1


def test_encrypt_decrypt_roundtrip_and_tamper():
    key = b"\x07" * 32
    ct = seal(key, b"some payload")
    assert open_sealed(key, ct) == b"some payload"
    with pytest.raises(DecryptionError):
        open_sealed(b"\x08" * 32, ct)
    with pytest.raises(DecryptionError):
        open_sealed(key, ct[:-1] + bytes([ct[-1] ^ 1]))

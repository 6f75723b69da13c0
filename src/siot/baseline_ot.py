"""Reference random 1-out-of-2 OT over a prime-order curve subgroup.

Three flows: the sender publishes S = [y]B and T = [y]S, the receiver
answers R = [b]S + [x]B, and both end up with hashed Diffie-Hellman
style keys.  The sender computes k_j = H([y]R - [j]T) for j in {0, 1};
algebra gives [y]R - [j]T = [xy]B + [(b - j)][y²]B, so the receiver's
key H([x]S) equals exactly the sender key indexed by its bit.  Both
parties refuse any point outside the prime-order subgroup.  The group
is one frozen subgroup, held in the module constants ``CURVE``,
``BASE`` (the generator B), ``Q`` (its prime order) and ``COFACTOR``.

This is the cross-check twin of the isogeny OT: same 1-of-2 semantics,
classical group assumptions, shared wire conventions.  It has its own
in-process driver, ``run_baseline_local``, which writes a wire-shaped
transcript; no session path imports this module.
"""

from __future__ import annotations

from .curve import EllipticCurve, Point
from .errors import ProtocolAbort
from .field import FieldContext
from .sidh import point_to_obj
from .siot import DIRECTION, SESSION_ID_LEN
from .util import det_rng, open_sealed, seal, sub_seed, tagged_hash
from .wire import Transcript, WireMessage

# Desk-scale frozen group: y^2 = x^3 + x + 9 over F_10007 has
# 9987 = 3 * 3329 points (exhaustively counted); the base point B
# generates the prime-order-3329 subgroup.  Cofactor 3 is deliberate:
# refusal paths need off-subgroup points to exist.
_F = FieldContext(10007)
CURVE = EllipticCurve(_F.elem(1), _F.elem(9))
BASE = CURVE.point(_F.elem(6700), _F.elem(3970))
Q = 3329
COFACTOR = 3


def in_group(P: Point) -> bool:
    return CURVE.is_on_curve(P) and CURVE.mul(Q, P).infinity


def _require(P: Point, who: str) -> None:
    if not in_group(P):
        raise ProtocolAbort("refused-point",
                            f"{who} point outside the prime-order subgroup")


def _encode(P: Point) -> bytes:
    if P.infinity:
        return b"\x00"
    return b"\x04" + P.x.encode() + P.y.encode()


def _key(S: Point, R: Point, P: Point) -> bytes:
    # the hash is bound to the session's (S, R) pair
    return tagged_hash("baseline-key", _encode(S), _encode(R), _encode(P))


def bo_sender_setup(rng):
    """Secret y and the public pair (S, T) = ([y]B, [y]S)."""
    y = rng.randrange(1, Q)
    S = CURVE.mul(y, BASE)
    T = CURVE.mul(y, S)
    return y, S, T


def bo_receiver_round(S: Point, b: int, rng, x: int | None = None):
    """Blinded response R = [b]S + [x]B and the receiver's key H([x]S)."""
    if b not in (0, 1):
        raise ValueError("choice bit must be 0 or 1")
    _require(S, "sender")
    if x is None:
        x = rng.randrange(Q)
    R = CURVE.add(CURVE.mul(b, S), CURVE.mul(x, BASE))
    k_b = _key(S, R, CURVE.mul(x, S))
    return x, R, k_b


def bo_sender_keys(y: int, S: Point, T: Point, R: Point):
    """Both candidate keys k_j = H([y]R - [j]T); exactly one matches."""
    _require(R, "receiver")
    yR = CURVE.mul(y, R)
    k0 = _key(S, R, yR)
    k1 = _key(S, R, CURVE.sub(yR, T))
    return k0, k1


def run_baseline_local(b: int, m0: bytes, m1: bytes, seed=None) -> dict:
    """In-process baseline OT session with a wire-shaped transcript."""
    rng_s = det_rng(sub_seed(seed, "bo-sender"))
    rng_r = det_rng(sub_seed(seed, "bo-receiver"))
    sid = det_rng(sub_seed(seed, "bo-session")).randbytes(SESSION_ID_LEN)

    y, S, T = bo_sender_setup(rng_s)
    transcript = Transcript()
    transcript.append(DIRECTION["sender"], WireMessage(
        "baseline-setup", sid, {"s": point_to_obj(S), "t": point_to_obj(T)}))
    x, R, k_b = bo_receiver_round(S, b, rng_r)
    transcript.append(DIRECTION["receiver"], WireMessage(
        "baseline-response", sid, {"r": point_to_obj(R)}))
    k0, k1 = bo_sender_keys(y, S, T, R)
    d0, d1 = seal(k0, m0), seal(k1, m1)
    transcript.append(DIRECTION["sender"], WireMessage(
        "baseline-ciphertexts", sid, {"d0": d0.hex(), "d1": d1.hex()}))
    delivered = open_sealed(k_b, d1 if b else d0)
    return {
        "output": delivered,
        "transcript": transcript,
        "keys": (k0, k1),
        "receiver_key": k_b,
        "ciphertexts": (d0, d1),
    }

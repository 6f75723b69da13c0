"""Reference random 1-out-of-2 OT over a prime-order curve subgroup.

Three flows: the sender publishes S = [y]B and T = [y]S, the receiver
answers R = [b]S + [x]B, and both end up with hashed Diffie-Hellman
style keys.  The sender computes k_j = H([y]R - [j]T) for j in {0, 1};
algebra gives [y]R - [j]T = [xy]B + [(b - j)][y²]B, so the receiver's
key H([x]S) equals exactly the sender key indexed by its bit.  Both
parties refuse any point outside the prime-order subgroup.

This is the cross-check twin of the isogeny OT: same 1-of-2 semantics,
classical group assumptions, shared wire conventions.
"""

from __future__ import annotations

from typing import NamedTuple

from .curve import EllipticCurve, Point
from .errors import ProtocolAbort
from .field import FieldContext
from .util import tagged_hash


class OtGroupContext(NamedTuple):
    """A prime-order subgroup: curve over F_p, generator B of order q."""

    curve: EllipticCurve
    base: Point
    q: int
    cofactor: int

    def in_group(self, P: Point) -> bool:
        return (self.curve.is_on_curve(P)
                and self.curve.mul(self.q, P).infinity)

    def require(self, P: Point, who: str) -> None:
        if not self.in_group(P):
            raise ProtocolAbort("refused-point",
                                f"{who} point outside the prime-order subgroup")

    def encode_point(self, P: Point) -> bytes:
        if P.infinity:
            return b"\x00"
        return b"\x04" + P.x.encode() + P.y.encode()


# Desk-scale frozen group: y^2 = x^3 + x + 9 over F_10007 has
# 9987 = 3 * 3329 points (exhaustively counted); the base point below
# generates the prime-order-3329 subgroup.  Cofactor 3 is deliberate:
# refusal paths need off-subgroup points to exist.
_P = 10007
_Q = 3329
_COFACTOR = 3
_BASE_X, _BASE_Y = 6700, 3970


def default_group() -> OtGroupContext:
    ctx = FieldContext(_P)
    curve = EllipticCurve(ctx.elem(1), ctx.elem(9))
    base = curve.point(ctx.elem(_BASE_X), ctx.elem(_BASE_Y))
    return OtGroupContext(curve, base, _Q, _COFACTOR)


def _key(ctx: OtGroupContext, S: Point, R: Point, P: Point) -> bytes:
    # the hash is bound to the session's (S, R) pair
    return tagged_hash("baseline-key", ctx.encode_point(S),
                       ctx.encode_point(R), ctx.encode_point(P))


def bo_sender_setup(ctx: OtGroupContext, rng):
    """Secret y and the public pair (S, T) = ([y]B, [y]S)."""
    y = rng.randrange(1, ctx.q)
    S = ctx.curve.mul(y, ctx.base)
    T = ctx.curve.mul(y, S)
    return y, S, T


def bo_receiver_round(ctx: OtGroupContext, S: Point, b: int, rng,
                      x: int | None = None):
    """Blinded response R = [b]S + [x]B and the receiver's key H([x]S)."""
    if b not in (0, 1):
        raise ValueError("choice bit must be 0 or 1")
    ctx.require(S, "sender")
    if x is None:
        x = rng.randrange(ctx.q)
    R = ctx.curve.add(ctx.curve.mul(b, S), ctx.curve.mul(x, ctx.base))
    k_b = _key(ctx, S, R, ctx.curve.mul(x, S))
    return x, R, k_b


def bo_sender_keys(ctx: OtGroupContext, y: int, S: Point, T: Point,
                   R: Point):
    """Both candidate keys k_j = H([y]R - [j]T); exactly one matches."""
    ctx.require(R, "receiver")
    yR = ctx.curve.mul(y, R)
    k0 = _key(ctx, S, R, yR)
    k1 = _key(ctx, S, R, ctx.curve.sub(yR, T))
    return k0, k1


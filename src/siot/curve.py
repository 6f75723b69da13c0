"""Short-Weierstrass curves y^2 = x^3 + Ax + B over F_{p^2}.

Affine coordinates with an explicit infinity marker; the chord-tangent
group law, j-invariants and torsion-basis sampling live here.

The group law trusts its inputs: ``add`` and ``mul`` assume their
points lie on the curve and do not check.  Points are checked once,
where outside data enters (``point``, ``check_point``); every point
past that boundary is computed from checked ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidPointError, SamplingError, SingularCurveError
from .field import FieldContext, Fp2


@dataclass(frozen=True)
class Point:
    """Affine curve point; ``infinity`` marks the identity.

    Points are plain data; all geometry lives on EllipticCurve.
    """

    x: Fp2 | None
    y: Fp2 | None
    infinity: bool = False

    @classmethod
    def at_infinity(cls) -> Point:
        return cls(None, None, True)

    def __repr__(self) -> str:
        if self.infinity:
            return "Point(infinity)"
        return f"Point({self.x.a}+{self.x.b}i, {self.y.a}+{self.y.b}i)"


INFINITY = Point.at_infinity()


class EllipticCurve:
    """y^2 = x^3 + Ax + B with nonzero discriminant."""

    def __init__(self, A: Fp2, B: Fp2):
        if A.ctx.p != B.ctx.p:
            raise SingularCurveError("A and B from different fields")
        self.A = A
        self.B = B
        self.ctx: FieldContext = A.ctx
        four = self.ctx.elem(4)
        twenty7 = self.ctx.elem(27)
        self.discriminant = four * A ** 3 + twenty7 * B ** 2
        if self.discriminant.is_zero():
            raise SingularCurveError(f"singular curve A={A!r} B={B!r}")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, EllipticCurve)
                and self.A == other.A and self.B == other.B)

    def __hash__(self) -> int:
        return hash((self.A, self.B))

    def __repr__(self) -> str:
        return f"EllipticCurve(A={self.A!r}, B={self.B!r})"

    def point(self, x: Fp2, y: Fp2) -> Point:
        p = Point(x, y)
        self.check_point(p)
        return p

    def is_on_curve(self, P: Point) -> bool:
        if P.infinity:
            return True
        if P.x is None or P.y is None or P.x.ctx.p != self.ctx.p:
            return False
        return P.y * P.y == P.x ** 3 + self.A * P.x + self.B

    def check_point(self, P: Point) -> None:
        if not self.is_on_curve(P):
            raise InvalidPointError(f"{P!r} not on {self!r}")

    def rhs(self, x: Fp2) -> Fp2:
        return x ** 3 + self.A * x + self.B

    # -- group law ---------------------------------------------------

    def neg(self, P: Point) -> Point:
        if P.infinity:
            return INFINITY
        return Point(P.x, -P.y)

    def add(self, P: Point, Q: Point) -> Point:
        """Chord-tangent sum of two points of this curve (not checked)."""
        if P.infinity:
            return Q
        if Q.infinity:
            return P
        if P.x == Q.x:
            if P.y == -Q.y:          # includes the y = 0 doubling case
                return INFINITY
            # tangent slope (3x^2 + A) / 2y
            num = self.ctx.elem(3) * P.x * P.x + self.A
            slope = num * (self.ctx.elem(2) * P.y).inv()
        else:
            slope = (Q.y - P.y) * (Q.x - P.x).inv()
        x3 = slope * slope - P.x - Q.x
        y3 = slope * (P.x - x3) - P.y
        return Point(x3, y3)

    def sub(self, P: Point, Q: Point) -> Point:
        return self.add(P, self.neg(Q))

    def double(self, P: Point) -> Point:
        return self.add(P, P)

    def mul(self, n: int, P: Point) -> Point:
        """[n]P by double-and-add; negative n uses [-n](-P)."""
        if n < 0:
            n, P = -n, self.neg(P)
        result = INFINITY
        addend = P
        while n:
            if n & 1:
                result = self.add(result, addend)
            n >>= 1
            if n:
                addend = self.add(addend, addend)
        return result

    # -- invariants ---------------------------------------------------

    def j_invariant(self) -> Fp2:
        """Standard normalization j = 1728 * 4A^3 / (4A^3 + 27B^2)."""
        four_a3 = self.ctx.elem(4) * self.A ** 3
        return self.ctx.elem(1728) * four_a3 * self.discriminant.inv()

    # -- sampling ------------------------------------------------------

    def random_point(self, rng: random.Random) -> Point:
        """Uniform affine point: random x until x^3+Ax+B is a square."""
        p = self.ctx.p
        while True:
            x = self.ctx.elem(rng.randrange(p), rng.randrange(p))
            y = self.rhs(x).sqrt()
            if y is None:
                continue
            if rng.randrange(2):
                y = -y
            return Point(x, y)

    def random_point_of_order(self, ell: int, e: int, group_exponent: int,
                              rng: random.Random, tries: int = 200) -> Point:
        """Point of exact order ell^e via cofactor multiplication.

        group_exponent is the exponent (annihilator) of the rational
        point group, not its order: every point's order must divide it.
        """
        n = ell ** e
        cofactor, check = group_exponent // n, n // ell
        if cofactor * n != group_exponent:
            raise SamplingError(f"{ell}^{e} does not divide {group_exponent}")
        for _ in range(tries):
            P = self.mul(cofactor, self.random_point(rng))
            if not self.mul(check, P).infinity:
                return P
        raise SamplingError(f"no point of order {ell}^{e} in {tries} draws")


def sample_torsion_basis(curve: EllipticCurve, ell: int, e: int,
                         group_exponent: int, rng: random.Random,
                         tries: int = 200):
    """Independent basis (P, Q) of the ell^e-torsion.

    Independence is certified by the Weil pairing: e(P, Q) must have
    exact multiplicative order ell^e.  Sampling method is irrelevant to
    correctness; the certificate is authoritative.
    """
    from .pairing import is_torsion_basis   # cycle: pairing needs curve

    P = curve.random_point_of_order(ell, e, group_exponent, rng, tries)
    for _ in range(tries):
        Q = curve.random_point_of_order(ell, e, group_exponent, rng, tries)
        if is_torsion_basis(curve, P, Q, ell, e):
            return P, Q
    raise SamplingError(f"no independent partner of order {ell}^{e} "
                        f"in {tries} draws")


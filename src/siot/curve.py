"""Short-Weierstrass curves y^2 = x^3 + Ax + B over F_{p^2}.

Points are affine with an explicit infinity marker; the group law,
j-invariants, point sampling and the exact-order test live here.  There
is one group law: the Jacobian doubling and mixed addition at the end of
this module, with (X, Y, Z) standing for (X/Z^2, Y/Z^3).  ``add``
lifts its first point to Z = 1 and takes one mixed addition; ``mul``
runs double-and-add on the Jacobian point.  Both convert back to affine once,
in ``_affine``, so each makes one field inversion, and none when the
result is O.  The two steps also serve the Miller loop in ``pairing``.
They, ``_affine`` and the on-curve test are straight-line arithmetic on
the unpacked integer coordinates; points and curve coefficients enter
and leave them as ``Fp2`` values.

The group law trusts its inputs: ``add`` and ``mul`` assume their
points lie on the curve and do not check.  Points are checked once,
where outside data enters (``point``, ``check_point``); every point
past that boundary is computed from checked ones.  Torsion is proved
the same way, once, by ``has_exact_order``: where a point of given
order is sampled, and where a key or a parameter file enters.  Curves
too: the constructor trusts A and B to be nonsingular and of one field.
A curve from outside data is tested where it is decoded
(``siot.sidh._curve_from_obj``); every other curve is a fixed constant
or a Velu codomain of a checked one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidPointError, SamplingError
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
    """y^2 = x^3 + Ax + B; A and B, of one field, are trusted to give
    4A^3 + 27B^2 != 0."""

    def __init__(self, A: Fp2, B: Fp2):
        self.A = A
        self.B = B
        self.ctx: FieldContext = A.ctx

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
        p = self.ctx.p
        if P.x is None or P.y is None or P.x.ctx.p != p or P.y.ctx.p != p:
            return False
        ya, yb = P.y.a, P.y.b
        r = self.rhs(P.x)
        return ((ya + yb) * (ya - yb) - r.a) % p == 0 and \
            (2 * ya * yb - r.b) % p == 0

    def check_point(self, P: Point) -> None:
        if not self.is_on_curve(P):
            raise InvalidPointError(f"{P!r} not on {self!r}")

    def rhs(self, x: Fp2) -> Fp2:
        """x^3 + Ax + B, computed as x(x^2 + A) + B."""
        p, xa, xb, A, B = self.ctx.p, x.a, x.b, self.A, self.B
        ta = ((xa + xb) * (xa - xb) + A.a) % p
        tb = (2 * xa * xb + A.b) % p
        return Fp2(self.ctx, xa * ta - xb * tb + B.a, xa * tb + xb * ta + B.b)

    # -- group law ---------------------------------------------------

    def neg(self, P: Point) -> Point:
        if P.infinity:
            return INFINITY
        return Point(P.x, -P.y)

    def add(self, P: Point, Q: Point) -> Point:
        """P + Q for two points of this curve (not checked): one mixed
        Jacobian addition from P at Z = 1.  One inversion, none when
        P + Q = O."""
        if P.infinity:
            return Q
        if Q.infinity:
            return P
        T = ((P.x.a, P.x.b), (P.y.a, P.y.b), (1, 0))
        xy = (Q.x.a, Q.x.b), (Q.y.a, Q.y.b)
        return self._affine(
            jac_add_affine(T, xy, (self.A.a, self.A.b), self.ctx.p)[0])

    def sub(self, P: Point, Q: Point) -> Point:
        return self.add(P, self.neg(Q))

    def mul(self, n: int, P: Point) -> Point:
        """[n]P by left-to-right double-and-add in Jacobian coordinates;
        negative n uses [-n](-P).  One inversion, none when [n]P = O."""
        if n < 0:
            n, P = -n, self.neg(P)
        if n == 0 or P.infinity:
            return INFINITY
        p, A = self.ctx.p, (self.A.a, self.A.b)
        xy = (P.x.a, P.x.b), (P.y.a, P.y.b)
        T = (*xy, (1, 0))
        for bit in bin(n)[3:]:
            T = jac_double(T, A, p)[0]
            if bit == "1":
                T = jac_add_affine(T, xy, A, p)[0]
        return self._affine(T)

    def _affine(self, T) -> Point:
        """The affine point (X/Z^2, Y/Z^3) of a Jacobian T, by one
        inversion of Z; O when Z = 0."""
        (xa, xb), (ya, yb), (za, zb) = T
        if za == 0 and zb == 0:
            return INFINITY
        p, zi = self.ctx.p, Fp2(self.ctx, za, zb).inv()
        ia, ib = zi.a, zi.b
        i2a, i2b = (ia + ib) * (ia - ib) % p, 2 * ia * ib % p
        i3a, i3b = (i2a * ia - i2b * ib) % p, (i2a * ib + i2b * ia) % p
        return Point(Fp2(self.ctx, xa * i2a - xb * i2b, xa * i2b + xb * i2a),
                     Fp2(self.ctx, ya * i3a - yb * i3b, ya * i3b + yb * i3a))

    # -- invariants ---------------------------------------------------

    def j_invariant(self) -> Fp2:
        """Standard normalization j = 1728 * 4A^3 / (4A^3 + 27B^2)."""
        four_a3 = self.ctx.elem(4) * self.A ** 3
        denominator = four_a3 + self.ctx.elem(27) * self.B * self.B
        return self.ctx.elem(1728) * four_a3 * denominator.inv()

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
        A point outside the ell^e-torsion shows that it does not, and
        raises SamplingError.
        """
        n = ell ** e
        cofactor = group_exponent // n
        if cofactor * n != group_exponent:
            raise SamplingError(f"{ell}^{e} does not divide {group_exponent}")
        for _ in range(tries):
            P = self.mul(cofactor, self.random_point(rng))
            try:
                if self.has_exact_order(P, ell, e):
                    return P
            except InvalidPointError as exc:
                raise SamplingError(f"{group_exponent} leaves a point outside "
                                    f"the {n}-torsion") from exc
        raise SamplingError(f"no point of order {ell}^{e} in {tries} draws")

    def has_exact_order(self, P: Point, ell: int, e: int) -> bool:
        """Whether P, which must be ell^e-torsion, has exact order ell^e.

        The one torsion test: R = [ell^(e-1)]P must satisfy [ell]R = O,
        else InvalidPointError; P has exact order ell^e when R is not O.
        """
        R = self.mul(ell ** (e - 1), P)
        if not self.mul(ell, R).infinity:
            raise InvalidPointError(f"{P!r} is not {ell ** e}-torsion")
        return not R.infinity


# -- Jacobian steps on (a, b) integer pairs ----------------------------
#
# A point is a triple (X, Y, Z) of pairs standing for (X/Z^2, Y/Z^3), and
# Z = 0 is the identity.  Each step also returns the numerator N of the
# slope N/Z' of its tangent or chord, Z' being the result's Z; the Miller
# loop builds its line values from it.

def jac_double(T, A, p: int):
    """(2T, N) on y^2 = x^3 + Ax + B; the tangent slope at T is N/Z(2T).

    The double of O, and of a point with Y = 0, comes out with Z = 0.
    With M = 3X^2 + AZ^4 and S = 4XY^2: X' = M^2 - 2S,
    Y' = M(S - X') - 8Y^4, Z' = 2YZ and N = M.
    """
    (xa, xb), (ya, yb), (za, zb) = T
    Aa, Ab = A
    yya, yyb = (ya + yb) * (ya - yb) % p, 2 * ya * yb % p
    zza, zzb = (za + zb) * (za - zb) % p, 2 * za * zb % p
    z4a, z4b = (zza + zzb) * (zza - zzb) % p, 2 * zza * zzb % p
    ma = (3 * (xa + xb) * (xa - xb) + Aa * z4a - Ab * z4b) % p
    mb = (6 * xa * xb + Aa * z4b + Ab * z4a) % p
    sa = 4 * (xa * yya - xb * yyb) % p
    sb = 4 * (xa * yyb + xb * yya) % p
    x3a = ((ma + mb) * (ma - mb) - 2 * sa) % p
    x3b = (2 * (ma * mb - sb)) % p
    da, db = sa - x3a, sb - x3b
    y3a = (ma * da - mb * db - 8 * (yya + yyb) * (yya - yyb)) % p
    y3b = (ma * db + mb * da - 16 * yya * yyb) % p
    z3a = 2 * (ya * za - yb * zb) % p
    z3b = 2 * (ya * zb + yb * za) % p
    return ((x3a, x3b), (y3a, y3b), (z3a, z3b)), (ma, mb)


def jac_add_affine(T, P, A, p: int):
    """(T + P, N) for Jacobian T and an affine P = (x, y) other than O;
    the chord slope through T and P is N/Z(T + P).

    T = O gives (P, None): there is no chord.  T = P is a doubling, and
    T = -P gives Z = 0.  With H = xZ^2 - X and r = yZ^3 - Y:
    X' = r^2 - H^3 - 2XH^2, Y' = r(XH^2 - X') - YH^3, Z' = ZH and N = r.
    """
    (x1a, x1b), (y1a, y1b), (z1a, z1b) = T
    (xa, xb), (ya, yb) = P
    if z1a == 0 and z1b == 0:
        return ((xa, xb), (ya, yb), (1, 0)), None
    zza, zzb = (z1a + z1b) * (z1a - z1b) % p, 2 * z1a * z1b % p
    zca, zcb = (z1a * zza - z1b * zzb) % p, (z1a * zzb + z1b * zza) % p
    ha = (xa * zza - xb * zzb - x1a) % p
    hb = (xa * zzb + xb * zza - x1b) % p
    ra = (ya * zca - yb * zcb - y1a) % p
    rb = (ya * zcb + yb * zca - y1b) % p
    if ha == 0 and hb == 0:
        if ra == 0 and rb == 0:
            return jac_double(T, A, p)
        return ((1, 0), (1, 0), (0, 0)), (ra, rb)
    hha, hhb = (ha + hb) * (ha - hb) % p, 2 * ha * hb % p
    h3a, h3b = (ha * hha - hb * hhb) % p, (ha * hhb + hb * hha) % p
    va, vb = (x1a * hha - x1b * hhb) % p, (x1a * hhb + x1b * hha) % p
    x3a = ((ra + rb) * (ra - rb) - h3a - 2 * va) % p
    x3b = (2 * (ra * rb - vb) - h3b) % p
    da, db = va - x3a, vb - x3b
    y3a = (ra * da - rb * db - (y1a * h3a - y1b * h3b)) % p
    y3b = (ra * db + rb * da - (y1a * h3b + y1b * h3a)) % p
    return (((x3a, x3b), (y3a, y3b),
             ((z1a * ha - z1b * hb) % p, (z1a * hb + z1b * ha) % p)),
            (ra, rb))

"""Short-Weierstrass curves y^2 = x^3 + Ax + B over F_{p^2}.

``EllipticCurve``'s methods take and return affine ``Point``s with an
explicit infinity marker; the group law, j-invariants, point and
torsion-basis sampling, the exact-order test and the basis test live
here.  Below those methods a point has one form: a Jacobian triple
(X, Y, Z) of (a, b) integer pairs standing for (X/Z^2, Y/Z^3), affine
at Z = 1 and O at Z = 0, as ``jacobian`` makes it.  There is one group
law, the steps at the end of this module on such triples: a doubling,
an addition, which skips the second point's Z powers when its Z is 1,
and a tripling.  ``jac_mul`` builds [n]T from them, with a tripling
for each factor 3 of n, and ``jac_mul2`` builds [s]T + [t]U on one
shared chain of doublings.  ``add`` takes one addition, ``mul`` runs
``jac_mul`` and ``mul2`` runs ``jac_mul2``.  Each converts back to a
``Point`` once, in ``_affine``, so each makes one field inversion, and
none when the result is O.  ``top_multiple`` and ``has_exact_order`` test only
the Z of their multiples, and ``is_basis`` compares x-coordinates
projectively, so none of them inverts.  The doubling and the
addition also serve the Miller loop in ``pairing``, on the same
triples, and the isogeny walk keeps its multiples Jacobian until a
step brings them to Z = 1 in one batch.  The steps, ``_affine`` and
the on-curve test are straight-line integer arithmetic; the on-curve
test reads x^3 + Ax + B from ``rhs_pair`` as an integer pair, as the
pairing's auxiliary draw does.

The group law trusts its inputs: ``add``, ``mul`` and ``mul2`` assume
their points lie on the curve and do not check.  Points are checked once,
where outside data enters (``point``, ``check_point``); every point
past that boundary is computed from checked ones.  Torsion is proved
the same way, once, by ``top_multiple``, which ``has_exact_order`` and
``is_basis`` run: ``is_basis`` proves a pair and certifies it as a
basis without a pairing, where a basis is sampled and where a
parameter file enters, and a received key keeps the multiples
``top_multiple`` returns for its own certificate.  Curves
too: the constructor trusts A and B to be nonsingular and of one field.
A curve from outside data is tested where it is decoded
(``siot.sidh._curve_from_obj``); every other curve is a fixed constant
or a Velu codomain of a checked one.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import InvalidPointError, SamplingError
from .field import FieldContext, Fp2

# draws a bounded point search makes before it gives up
SAMPLING_TRIES = 200


class Point(NamedTuple):
    """Affine curve point; ``infinity`` marks the identity.

    Points are plain data; all geometry lives on EllipticCurve.
    """

    x: Fp2 | None
    y: Fp2 | None
    infinity: bool = False

    def __repr__(self) -> str:
        if self.infinity:
            return "Point(infinity)"
        return f"Point({self.x.a}+{self.x.b}i, {self.y.a}+{self.y.b}i)"


INFINITY = Point(None, None, True)


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
        """Whether y^2 = x^3 + Ax + B, tested on the integer coordinates;
        O is on every curve, and a point with a missing coordinate or
        one from another field is on none."""
        if P.infinity:
            return True
        x, y, p = P.x, P.y, self.ctx.p
        if x is None or y is None or x.ctx.p != p or y.ctx.p != p:
            return False
        ya, yb = y.a, y.b
        ra, rb = self.rhs_pair(x.a, x.b)
        return ((ya + yb) * (ya - yb) - ra) % p == 0 and \
            (2 * ya * yb - rb) % p == 0

    def check_point(self, P: Point) -> None:
        if not self.is_on_curve(P):
            raise InvalidPointError(f"{P!r} not on {self!r}")

    def rhs(self, x: Fp2) -> Fp2:
        """x^3 + Ax + B."""
        return Fp2(self.ctx, *self.rhs_pair(x.a, x.b))

    def rhs_pair(self, xa: int, xb: int):
        """x^3 + Ax + B for x = xa + xb*i, as a reduced (a, b) pair,
        computed as x(x^2 + A) + B."""
        p, A, B = self.ctx.p, self.A, self.B
        ta = ((xa + xb) * (xa - xb) + A.a) % p
        tb = (2 * xa * xb + A.b) % p
        return (xa * ta - xb * tb + B.a) % p, (xa * tb + xb * ta + B.b) % p

    # -- group law ---------------------------------------------------

    def neg(self, P: Point) -> Point:
        if P.infinity:
            return INFINITY
        return Point(P.x, -P.y)

    def add(self, P: Point, Q: Point) -> Point:
        """P + Q for two points of this curve (not checked): one
        Jacobian addition of their triples at Z = 1.  One inversion,
        none when P + Q = O."""
        if P.infinity:
            return Q
        if Q.infinity:
            return P
        return self._affine(jac_add(
            jacobian(P), jacobian(Q), (self.A.a, self.A.b), self.ctx.p)[0])

    def sub(self, P: Point, Q: Point) -> Point:
        return self.add(P, self.neg(Q))

    def mul(self, n: int, P: Point) -> Point:
        """[n]P by left-to-right double-and-add in Jacobian coordinates;
        negative n uses [-n](-P).  One inversion, none when [n]P = O."""
        if n < 0:
            n, P = -n, self.neg(P)
        if n == 0 or P.infinity:
            return INFINITY
        return self._affine(
            jac_mul(jacobian(P), n, (self.A.a, self.A.b), self.ctx.p))

    def mul2(self, s: int, P: Point, t: int, Q: Point) -> Point:
        """[s]P + [t]Q by one shared chain of doublings (``jac_mul2``);
        a negative scalar uses the negated point, as in ``mul``.  One
        inversion, none when the sum is O."""
        if s < 0:
            s, P = -s, self.neg(P)
        if t < 0:
            t, Q = -t, self.neg(Q)
        return self._affine(jac_mul2(jacobian(P), s, jacobian(Q), t,
                                     (self.A.a, self.A.b), self.ctx.p))

    def _affine(self, T) -> Point:
        """The affine point (X/Z^2, Y/Z^3) of a Jacobian T, by one
        inversion of Z; O when Z = 0."""
        za, zb = T[2]
        if za == 0 and zb == 0:
            return INFINITY
        zi = Fp2(self.ctx, za, zb).inv()
        return unit_point(self.ctx, jac_normalize(T, (zi.a, zi.b), self.ctx.p))

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

    def sample_torsion_basis(self, ell: int, e: int, group_exponent: int,
                             rng: random.Random) -> tuple[Point, Point]:
        """A basis (P, Q) of the ell^e-torsion, by cofactor multiplication.

        group_exponent is the exponent (annihilator) of the rational
        point group, not its order: every point's order must divide it.
        P is the first draw of exact order ell^e, and Q the first later
        one that completes it to a basis.  Each draw is certified by the
        test of ``is_basis``, on the multiple [ell^(e-1)] that proved
        its order, so no multiple is computed twice.  A point outside
        the ell^e-torsion shows that group_exponent is not an exponent,
        and raises SamplingError.
        """
        P, R = self._draw_of_order(ell, e, group_exponent, rng)
        for _ in range(SAMPLING_TRIES):
            Q, S = self._draw_of_order(ell, e, group_exponent, rng)
            if self.independent(R, S, ell):
                return P, Q
        raise SamplingError(f"no independent partner of order {ell}^{e} "
                            f"in {SAMPLING_TRIES} draws")

    def _draw_of_order(self, ell: int, e: int, group_exponent: int,
                       rng: random.Random):
        """A point P of exact order ell^e and its Jacobian multiple
        [ell^(e-1)]P, from at most SAMPLING_TRIES draws."""
        n = ell ** e
        cofactor = group_exponent // n
        if cofactor * n != group_exponent:
            raise SamplingError(f"{ell}^{e} does not divide {group_exponent}")
        for _ in range(SAMPLING_TRIES):
            P = self.mul(cofactor, self.random_point(rng))
            try:
                R = self.top_multiple(P, ell, e)
            except InvalidPointError as exc:
                raise SamplingError(f"{group_exponent} leaves a point outside "
                                    f"the {n}-torsion") from exc
            if R[2] != (0, 0):
                return P, R
        raise SamplingError(f"no point of order {ell}^{e} in "
                            f"{SAMPLING_TRIES} draws")

    # -- torsion -------------------------------------------------------

    def has_exact_order(self, P: Point, ell: int, e: int) -> bool:
        """Whether P, which must be ell^e-torsion, has exact order ell^e.

        The one torsion test: R = [ell^(e-1)]P must satisfy [ell]R = O,
        else InvalidPointError; P has exact order ell^e when R is not O.
        Both multiples stay Jacobian and only their Z is tested, so the
        test inverts nothing.
        """
        return self.top_multiple(P, ell, e)[2] != (0, 0)

    def is_basis(self, P: Point, Q: Point, ell: int, e: int) -> bool:
        """Whether (P, Q), two points that must be ell^e-torsion, is a
        basis of the ell^e-torsion: the exact-order test of both points
        and their independence in one.

        R = [ell^(e-1)]P and S = [ell^(e-1)]Q are proved as in
        ``has_exact_order``, P first; the InvalidPointError of a point
        outside the ell^e-torsion names it in ``point``.  A point of
        lower order leaves R or S at O and gives False.  Otherwise
        extend P to a basis (P, T) and write Q = uP + vT: (P, Q) is a
        basis when v is a unit mod ell, that is when S lies outside
        <R>.  No pairing, no inversion and no randomness, but up to
        ell // 2 additions: parameter sets bound ell by
        ``siot.sidh.MAX_ELL``.
        """
        R = self.top_multiple(P, ell, e)
        return self.independent(R, self.top_multiple(Q, ell, e), ell)

    def top_multiple(self, P: Point, ell: int, e: int):
        """R = [ell^(e-1)]P in Jacobian form, proved to satisfy [ell]R = O
        (else InvalidPointError) by testing only a Z.  P has exact order
        ell^e when R is not O, and R then has order ell: the multiple the
        exact-order test, the basis test and the receiver's certificate
        in ``siot.siot.read_public`` share."""
        A, p = (self.A.a, self.A.b), self.ctx.p
        R = jac_mul(jacobian(P), ell ** (e - 1), A, p)
        if jac_mul(R, ell, A, p)[2] != (0, 0):
            raise InvalidPointError(f"{P!r} is not {ell ** e}-torsion", P)
        return R

    def independent(self, R, S, ell: int) -> bool:
        """Whether S lies outside <R>, for Jacobian R and S of order 1
        or ell; False when either is O.

        A nonzero S is in <R> exactly when it is [k]R or -[k]R for some
        1 <= k <= ell // 2, that is when x(S) = x([k]R).  The x are
        compared projectively, X_S * Z^2 = X * Z_S^2, against each [k]R
        in turn, one addition apart: at most ell // 2 comparisons.
        """
        if R[2] == (0, 0) or S[2] == (0, 0):
            return False
        A, p = (self.A.a, self.A.b), self.ctx.p
        (sxa, sxb), _, (sza, szb) = S
        s2a, s2b = (sza + szb) * (sza - szb) % p, 2 * sza * szb % p
        T = R
        for k in range(1, ell // 2 + 1):
            if k > 1:
                T = jac_add(T, R, A, p)[0]
            (txa, txb), _, (tza, tzb) = T
            t2a, t2b = (tza + tzb) * (tza - tzb) % p, 2 * tza * tzb % p
            if (sxa * t2a - sxb * t2b - txa * s2a + txb * s2b) % p == 0 and \
                    (sxa * t2b + sxb * t2a - txa * s2b - txb * s2a) % p == 0:
                return False
        return True


# -- Jacobian steps on (a, b) integer pairs ----------------------------
#
# A point is a triple (X, Y, Z) of pairs standing for (X/Z^2, Y/Z^3),
# affine at Z = 1, and Z = 0 is the identity.  The doubling and the
# addition also return the numerator N of the slope N/Z' of their
# tangent or chord, Z' being the result's Z; the Miller loop builds its
# line values from it.

JAC_INFINITY = ((1, 0), (1, 0), (0, 0))


def jacobian(P: Point):
    """The Jacobian triple of an affine point: Z = 1, or 0 for O."""
    if P.infinity:
        return JAC_INFINITY
    return (P.x.a, P.x.b), (P.y.a, P.y.b), (1, 0)


def jac_normalize(T, zi, p: int):
    """T rescaled to Z = 1, (X/Z^2, Y/Z^3, 1), given zi = 1/Z."""
    (xa, xb), (ya, yb), _ = T
    ia, ib = zi
    i2a, i2b = (ia + ib) * (ia - ib) % p, 2 * ia * ib % p
    i3a, i3b = (i2a * ia - i2b * ib) % p, (i2a * ib + i2b * ia) % p
    return (((xa * i2a - xb * i2b) % p, (xa * i2b + xb * i2a) % p),
            ((ya * i3a - yb * i3b) % p, (ya * i3b + yb * i3a) % p), (1, 0))


def unit_point(ctx: FieldContext, T) -> Point:
    """The Point of a Jacobian T whose Z is 1, or 0 for O."""
    if T[2] == (0, 0):
        return INFINITY
    (xa, xb), (ya, yb), _ = T
    return Point(Fp2(ctx, xa, xb), Fp2(ctx, ya, yb))


def jac_mul(T, n: int, A, p: int):
    """[n]T for a Jacobian T and n >= 1.

    The part of n prime to 3 is taken by left-to-right double-and-add,
    then each factor 3 of n by one tripling, cheaper than the doubling
    and addition it replaces.
    """
    if T[2] == (0, 0):
        return T
    k = 0
    while n % 3 == 0:
        n, k = n // 3, k + 1
    R = T
    for bit in bin(n)[3:]:
        R = jac_double(R, A, p)[0]
        if bit == "1":
            R = jac_add(R, T, A, p)[0]
    for _ in range(k):
        R = jac_triple(R, A, p)
    return R


def jac_mul2(T, s: int, U, t: int, A, p: int):
    """[s]T + [t]U for Jacobian T and U and s, t >= 0, by Straus's
    interleaving (Shamir's trick).

    One left-to-right chain of doublings serves both scalars: at each
    bit it adds T, U or T + U, the last formed once, up front.  A zero
    scalar leaves a plain double-and-add of the other point, and T = U,
    T = -U and an O among them are the addition's own cases.
    """
    if s == 0 and t == 0:
        return JAC_INFINITY
    # the point of each bit pair (s_i, t_i), indexed s_i + 2 t_i
    table = [None, T, U, None]
    if s and t:
        table[3] = jac_add(U, T, A, p)[0]
    digits = [(s >> i & 1) | (t >> i & 1) << 1
              for i in range(max(s.bit_length(), t.bit_length()) - 1, -1, -1)]
    R = JAC_INFINITY
    for i, d in enumerate(digits):
        if i:
            R = jac_double(R, A, p)[0]
        if d:
            R = jac_add(R, table[d], A, p)[0]
    return R


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


def jac_add(T, U, A, p: int):
    """(T + U, N) for two Jacobian points; the chord slope through T and
    U is N/Z(T + U).

    O on either side gives the other, with no chord: N is None.  T = U
    is a doubling and T = -U gives Z = 0.  With U1 = X1*Z2^2,
    U2 = X2*Z1^2, S1 = Y1*Z2^3, S2 = Y2*Z1^3, H = U2 - U1 and
    r = S2 - S1: X' = r^2 - H^3 - 2*U1*H^2, Y' = r(U1*H^2 - X') - S1*H^3,
    Z' = Z1*Z2*H and N = r.  When Z2 = 1 the powers of Z2 are skipped,
    which leaves the mixed addition of Cohen, Miyaji and Ono.
    """
    (x1a, x1b), (y1a, y1b), (z1a, z1b) = T
    (x2a, x2b), (y2a, y2b), (z2a, z2b) = U
    if z1a == 0 and z1b == 0:
        return U, None
    if z2a == 0 and z2b == 0:
        return T, None
    s1a, s1b = (z1a + z1b) * (z1a - z1b) % p, 2 * z1a * z1b % p
    c1a, c1b = (z1a * s1a - z1b * s1b) % p, (z1a * s1b + z1b * s1a) % p
    if z2a == 1 and z2b == 0:
        u1a, u1b, v1a, v1b, zza, zzb = x1a, x1b, y1a, y1b, z1a, z1b
    else:
        s2a, s2b = (z2a + z2b) * (z2a - z2b) % p, 2 * z2a * z2b % p
        u1a, u1b = (x1a * s2a - x1b * s2b) % p, (x1a * s2b + x1b * s2a) % p
        c2a, c2b = (z2a * s2a - z2b * s2b) % p, (z2a * s2b + z2b * s2a) % p
        v1a, v1b = (y1a * c2a - y1b * c2b) % p, (y1a * c2b + y1b * c2a) % p
        zza, zzb = (z1a * z2a - z1b * z2b) % p, (z1a * z2b + z1b * z2a) % p
    ha = (x2a * s1a - x2b * s1b - u1a) % p
    hb = (x2a * s1b + x2b * s1a - u1b) % p
    ra = (y2a * c1a - y2b * c1b - v1a) % p
    rb = (y2a * c1b + y2b * c1a - v1b) % p
    if ha == 0 and hb == 0:
        if ra == 0 and rb == 0:
            return jac_double(T, A, p)
        return JAC_INFINITY, (ra, rb)
    hha, hhb = (ha + hb) * (ha - hb) % p, 2 * ha * hb % p
    h3a, h3b = (ha * hha - hb * hhb) % p, (ha * hhb + hb * hha) % p
    va, vb = (u1a * hha - u1b * hhb) % p, (u1a * hhb + u1b * hha) % p
    x3a = ((ra + rb) * (ra - rb) - h3a - 2 * va) % p
    x3b = (2 * (ra * rb - vb) - h3b) % p
    da, db = va - x3a, vb - x3b
    y3a = (ra * da - rb * db - (v1a * h3a - v1b * h3b)) % p
    y3b = (ra * db + rb * da - (v1a * h3b + v1b * h3a)) % p
    return (((x3a, x3b), (y3a, y3b),
             ((zza * ha - zzb * hb) % p, (zza * hb + zzb * ha) % p)),
            (ra, rb))


def jac_triple(T, A, p: int):
    """3T for a Jacobian T (Bernstein-Lange, tpl-2007-bl); O and points
    of order 3 come out with Z = 0.

    With M = 3X^2 + AZ^4, E = 12XY^2 - M^2, W = 16Y^4 and U = 2ME - W:
    X' = 4(XE^2 - 4Y^2U), Y' = 8Y(U(W - U) - E^3) and Z' = 2ZE.
    """
    (xa, xb), (ya, yb), (za, zb) = T
    Aa, Ab = A
    yya, yyb = (ya + yb) * (ya - yb) % p, 2 * ya * yb % p
    zza, zzb = (za + zb) * (za - zb) % p, 2 * za * zb % p
    z4a, z4b = (zza + zzb) * (zza - zzb) % p, 2 * zza * zzb % p
    ma = (3 * (xa + xb) * (xa - xb) + Aa * z4a - Ab * z4b) % p
    mb = (6 * xa * xb + Aa * z4b + Ab * z4a) % p
    ea = (12 * (xa * yya - xb * yyb) - (ma + mb) * (ma - mb)) % p
    eb = (12 * (xa * yyb + xb * yya) - 2 * ma * mb) % p
    eea, eeb = (ea + eb) * (ea - eb) % p, 2 * ea * eb % p
    wa, wb = 16 * (yya + yyb) * (yya - yyb) % p, 32 * yya * yyb % p
    ua = (2 * (ma * ea - mb * eb) - wa) % p
    ub = (2 * (ma * eb + mb * ea) - wb) % p
    da, db = wa - ua, wb - ub
    va = (ua * da - ub * db - ea * eea + eb * eeb) % p
    vb = (ua * db + ub * da - ea * eeb - eb * eea) % p
    return (((4 * (xa * eea - xb * eeb - 4 * (yya * ua - yyb * ub))) % p,
             (4 * (xa * eeb + xb * eea - 4 * (yya * ub + yyb * ua))) % p),
            (8 * (ya * va - yb * vb) % p, 8 * (ya * vb + yb * va) % p),
            (2 * (za * ea - zb * eb) % p, 2 * (za * eb + zb * ea) % p))

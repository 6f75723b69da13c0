"""Short-Weierstrass curves y^2 = x^3 + Ax + B over F_{p^2}.

Points are affine with an explicit infinity marker; the group law,
j-invariants, point and torsion-basis sampling, the exact-order test
and the basis test live here.  There is one group law: the Jacobian
steps at the end of this module, with (X, Y, Z) standing for
(X/Z^2, Y/Z^3): a doubling, a mixed addition of an affine point, a full
addition and a tripling.  ``jac_mul`` builds [n]T from them, with a
tripling for each factor 3 of n, and ``jac_mul2`` builds [s]T + [t]U
on one shared chain of doublings.  ``add`` lifts its first point to
Z = 1 and takes one mixed addition; ``mul`` runs ``jac_mul`` and
``mul2`` runs ``jac_mul2``.  Each converts back to affine once, in
``_affine``, so each makes one field inversion, and none when the
result is O.  ``top_multiple`` and ``has_exact_order`` test only the
Z of their multiples, and ``is_basis`` compares x-coordinates
projectively, so none of them inverts.  The doubling and the mixed addition also serve the Miller
loop in ``pairing``, and the isogeny walk keeps its multiples Jacobian
until a step brings them to Z = 1 in one batch.
The steps, ``_affine`` and the on-curve test are straight-line
arithmetic on the unpacked integer coordinates; points and curve
coefficients enter and leave them as ``Fp2`` values.

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
        xy = (Q.x.a, Q.x.b), (Q.y.a, Q.y.b)
        return self._affine(jac_add_affine(
            jacobian(P), xy, (self.A.a, self.A.b), self.ctx.p)[0])

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
            if self._independent(R, S, ell):
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
        return self._independent(R, self.top_multiple(Q, ell, e), ell)

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

    def _independent(self, R, S, ell: int) -> bool:
        """Whether S lies outside <R>, for Jacobian R and S of order 1
        or ell; False when either is O.

        A nonzero S is in <R> exactly when it is [k]R or -[k]R for some
        1 <= k <= ell // 2, that is when x(S) = x([k]R).  The x are
        compared projectively, X_S * Z^2 = X * Z_S^2, against each [k]R
        in turn, one full addition apart: at most ell // 2 comparisons.
        """
        if R[2] == (0, 0) or S[2] == (0, 0):
            return False
        A, p = (self.A.a, self.A.b), self.ctx.p
        (sxa, sxb), _, (sza, szb) = S
        s2a, s2b = (sza + szb) * (sza - szb) % p, 2 * sza * szb % p
        T = R
        for k in range(1, ell // 2 + 1):
            if k > 1:
                T = jac_add(T, R, A, p)
            (txa, txb), _, (tza, tzb) = T
            t2a, t2b = (tza + tzb) * (tza - tzb) % p, 2 * tza * tzb % p
            if (sxa * t2a - sxb * t2b - txa * s2a + txb * s2b) % p == 0 and \
                    (sxa * t2b + sxb * t2a - txa * s2b - txb * s2a) % p == 0:
                return False
        return True


# -- Jacobian steps on (a, b) integer pairs ----------------------------
#
# A point is a triple (X, Y, Z) of pairs standing for (X/Z^2, Y/Z^3), and
# Z = 0 is the identity.  The doubling and the mixed addition also return
# the numerator N of the slope N/Z' of their tangent or chord, Z' being
# the result's Z; the Miller loop builds its line values from it.

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
    with mixed additions when T has Z = 1 and full ones otherwise; then
    each factor 3 of n by one tripling, cheaper than the doubling and
    addition it replaces.
    """
    if T[2] == (0, 0):
        return T
    k = 0
    while n % 3 == 0:
        n, k = n // 3, k + 1
    xy, affine = T[:2], T[2] == (1, 0)
    R = T
    for bit in bin(n)[3:]:
        R = jac_double(R, A, p)[0]
        if bit == "1":
            R = jac_add_affine(R, xy, A, p)[0] if affine else \
                jac_add(R, T, A, p)
    for _ in range(k):
        R = jac_triple(R, A, p)
    return R


def jac_mul2(T, s: int, U, t: int, A, p: int):
    """[s]T + [t]U for Jacobian T and U and s, t >= 0, by Straus's
    interleaving (Shamir's trick).

    One left-to-right chain of doublings serves both scalars: at each
    bit it adds T, U or T + U, the last formed once, up front.  A point
    with Z = 1 is added by mixed additions, any other by full ones.  A
    zero scalar leaves a plain double-and-add of the other point, and
    T = U, T = -U and an O among them are the additions' own cases.
    """
    if s == 0 and t == 0:
        return JAC_INFINITY
    # the point of each bit pair (s_i, t_i), indexed s_i + 2 t_i
    table = [None, T, U, None]
    if s and t:
        table[3] = jac_add(U, T, A, p) if T[2] != (1, 0) else \
            jac_add_affine(U, T[:2], A, p)[0]
    digits = [(s >> i & 1) | (t >> i & 1) << 1
              for i in range(max(s.bit_length(), t.bit_length()) - 1, -1, -1)]
    R = JAC_INFINITY
    for i, d in enumerate(digits):
        if i:
            R = jac_double(R, A, p)[0]
        if d:
            V = table[d]
            R = jac_add(R, V, A, p) if V[2] != (1, 0) else \
                jac_add_affine(R, V[:2], A, p)[0]
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


def jac_add(T, U, A, p: int):
    """T + U for two Jacobian points; unlike the steps above it returns
    no slope, for no Miller loop takes it.

    O on either side gives the other; T = U is a doubling and T = -U
    gives Z = 0.  With U1 = X1*Z2^2, U2 = X2*Z1^2, S1 = Y1*Z2^3,
    S2 = Y2*Z1^3, H = U2 - U1 and r = S2 - S1: X' = r^2 - H^3 - 2*U1*H^2,
    Y' = r(U1*H^2 - X') - S1*H^3 and Z' = Z1*Z2*H.
    """
    (x1a, x1b), (y1a, y1b), (z1a, z1b) = T
    (x2a, x2b), (y2a, y2b), (z2a, z2b) = U
    if z1a == 0 and z1b == 0:
        return U
    if z2a == 0 and z2b == 0:
        return T
    s1a, s1b = (z1a + z1b) * (z1a - z1b) % p, 2 * z1a * z1b % p
    s2a, s2b = (z2a + z2b) * (z2a - z2b) % p, 2 * z2a * z2b % p
    u1a, u1b = (x1a * s2a - x1b * s2b) % p, (x1a * s2b + x1b * s2a) % p
    u2a, u2b = (x2a * s1a - x2b * s1b) % p, (x2a * s1b + x2b * s1a) % p
    c2a, c2b = (z2a * s2a - z2b * s2b) % p, (z2a * s2b + z2b * s2a) % p
    c1a, c1b = (z1a * s1a - z1b * s1b) % p, (z1a * s1b + z1b * s1a) % p
    v1a, v1b = (y1a * c2a - y1b * c2b) % p, (y1a * c2b + y1b * c2a) % p
    ha, hb = (u2a - u1a) % p, (u2b - u1b) % p
    ra = (y2a * c1a - y2b * c1b - v1a) % p
    rb = (y2a * c1b + y2b * c1a - v1b) % p
    if ha == 0 and hb == 0:
        if ra == 0 and rb == 0:
            return jac_double(T, A, p)[0]
        return JAC_INFINITY
    hha, hhb = (ha + hb) * (ha - hb) % p, 2 * ha * hb % p
    h3a, h3b = (ha * hha - hb * hhb) % p, (ha * hhb + hb * hha) % p
    va, vb = (u1a * hha - u1b * hhb) % p, (u1a * hhb + u1b * hha) % p
    x3a = ((ra + rb) * (ra - rb) - h3a - 2 * va) % p
    x3b = (2 * (ra * rb - vb) - h3b) % p
    da, db = va - x3a, vb - x3b
    y3a = (ra * da - rb * db - (v1a * h3a - v1b * h3b)) % p
    y3b = (ra * db + rb * da - (v1a * h3b + v1b * h3a)) % p
    zza, zzb = (z1a * z2a - z1b * z2b) % p, (z1a * z2b + z1b * z2a) % p
    return ((x3a, x3b), (y3a, y3b),
            ((zza * ha - zzb * hb) % p, (zza * hb + zzb * ha) % p))


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

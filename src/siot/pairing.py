"""Weil pairing on prime-power torsion.  Its callers in the package
are the certificate of the receiver's pair in ``siot.siot.read_public``,
a pairing of order ell on the multiples [ell^(e-1)]G and [ell^(e-1)]H
that proved the pair's orders, and the desk-scale probes in
``analysis``; parameter bases are certified without a pairing, by
``EllipticCurve.is_basis``.

Pairings return plain ``Fp2`` values, n-th roots of unity, and trust
their inputs: like ``add`` and ``mul`` in ``curve``, they take points
proved n-torsion where they were made or where they entered, and do
not prove it again.

The pairing is computed with Miller's algorithm as a ratio of four
Miller functions evaluated at divisor representatives offset by an
auxiliary point, combined into one quotient and divided once.
Auxiliary points are drawn from a hash of the inputs, so every call is
deterministic; degenerate draws (a zero or pole of an intermediate
line) are retried with the next counter value and never surface to the
caller.

The Miller loop keeps its running point in Jacobian coordinates and its
value as a numerator and a denominator, and divides once at the end
(V. Miller, J. Cryptology 17, 2004).  Each line and vertical value is a
nonzero multiple of the affine one, so the zero and pole tests, and
with them every retry, are those of the affine loop.  The loop, its
line update and the Jacobian steps it follows are straight-line
arithmetic on the unpacked integer coordinates; the Miller value leaves
it as one ``Fp2``.
"""

from __future__ import annotations

import hashlib
import random

from .curve import EllipticCurve, Point, jac_add_affine, jac_double
from .field import Fp2


class _Degenerate(Exception):
    """Internal: auxiliary point hit a zero or pole. Retried, never raised out."""


def _times_line(f, T, T2, N, X, p: int):
    """The Miller value f, its numerator and denominator as four ints
    (na, nb, da, db), times the factor for the step from T to T2.

    The line is the tangent or chord whose slope is N/Z(T2); it meets
    the curve again at -T2, and the vertical at T2 divides it out.  In
    affine terms the factor is line(X)/vertical(X), and here the
    numerator gains line(X) * Z^3 and the denominator vertical(X) * Z^3
    with Z = Z(T2).  When T2 = O the line is the vertical at T and there
    is none to divide by: the factors are line(X) * Z(T)^2 and Z(T)^2.
    A zero line or vertical raises _Degenerate.
    """
    (xa, xb), (ya, yb) = X
    (x3a, x3b), (y3a, y3b), (z3a, z3b) = T2
    if z3a == 0 and z3b == 0:
        (x1a, x1b), _, (z1a, z1b) = T
        da, db = (z1a + z1b) * (z1a - z1b) % p, 2 * z1a * z1b % p
        na = (da * xa - db * xb - x1a) % p
        nb = (da * xb + db * xa - x1b) % p
    else:
        zza, zzb = (z3a + z3b) * (z3a - z3b) % p, 2 * z3a * z3b % p
        zca, zcb = (zza * z3a - zzb * z3b) % p, (zza * z3b + zzb * z3a) % p
        va = (zza * xa - zzb * xb - x3a) % p
        vb = (zza * xb + zzb * xa - x3b) % p
        ma, mb = N
        na = (zca * ya - zcb * yb + y3a - ma * va + mb * vb) % p
        nb = (zca * yb + zcb * ya + y3b - ma * vb - mb * va) % p
        da, db = (z3a * va - z3b * vb) % p, (z3a * vb + z3b * va) % p
    if (na == 0 and nb == 0) or (da == 0 and db == 0):
        raise _Degenerate
    fna, fnb, fda, fdb = f
    return ((fna * na - fnb * nb) % p, (fna * nb + fnb * na) % p,
            (fda * da - fdb * db) % p, (fda * db + fdb * da) % p)


def miller_function(E: EllipticCurve, P: Point, n: int, X: Point) -> Fp2:
    """Evaluate the Miller function f_{n,P} at X by double-and-add.

    f_{n,P} has divisor n(P) - ([n]P) - (n-1)(O).  Raises _Degenerate
    when X lands on a zero or pole of an intermediate line, which the
    pairing wrapper handles by re-drawing its auxiliary point.
    """
    if X.infinity:
        raise _Degenerate
    if P.infinity:
        return E.ctx.one()
    p, A = E.ctx.p, (E.A.a, E.A.b)
    xy = (P.x.a, P.x.b), (P.y.a, P.y.b)
    xyX = (X.x.a, X.x.b), (X.y.a, X.y.b)
    f = (1, 0, 1, 0)                 # numerator a, b; denominator a, b
    T = (*xy, (1, 0))
    for bit in bin(n)[3:]:
        na, nb, da, db = f
        f = ((na + nb) * (na - nb) % p, 2 * na * nb % p,
             (da + db) * (da - db) % p, 2 * da * db % p)
        if T[2] != (0, 0):           # O doubles to O, line and vertical 1
            T2, N = jac_double(T, A, p)
            T, f = T2, _times_line(f, T, T2, N, xyX, p)
        if bit == "1" and T[2] == (0, 0):
            if xyX[0] == xy[0]:      # line and vertical are both x - x_P
                raise _Degenerate
            T = (*xy, (1, 0))
        elif bit == "1":
            T2, N = jac_add_affine(T, xy, A, p)
            T, f = T2, _times_line(f, T, T2, N, xyX, p)
    return Fp2(E.ctx, f[0], f[1]) * Fp2(E.ctx, f[2], f[3]).inv()


def _aux_point(E: EllipticCurve, P: Point, Q: Point, n: int, attempt: int) -> Point:
    """Deterministic auxiliary point: hash the inputs, walk x candidates."""
    material = b"siot/pairing-aux" + n.to_bytes(
        max(8, (n.bit_length() + 7) // 8), "big")
    material += attempt.to_bytes(4, "big")
    for pt in (P, Q):
        material += pt.x.encode() + pt.y.encode()
    rng = random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))
    return E.random_point(rng)


def weil_pairing(E: EllipticCurve, P: Point, Q: Point, n: int) -> Fp2:
    """Weil pairing e_n(P, Q), an n-th root of unity, for checked
    n-torsion points P, Q of E (not proved again here).

    Bilinear, alternating, and nondegenerate on a basis of the full
    n-torsion.  Computed as

        [f_{n,P}(Q+S) / f_{n,P}(S)] / [f_{n,Q}(P-S) / f_{n,Q}(-S)]

    for an auxiliary point S avoiding all zeros and poles, with the four
    values combined into one quotient and a single division.  A value
    with z^n != 1 raises ValueError.
    """
    if P.infinity or Q.infinity or P == Q or P == E.neg(Q):
        return E.ctx.one()
    for attempt in range(256):
        S = _aux_point(E, P, Q, n, attempt)
        try:
            f1 = miller_function(E, P, n, E.add(Q, S))
            f2 = miller_function(E, P, n, S)
            f3 = miller_function(E, Q, n, E.sub(P, S))
            f4 = miller_function(E, Q, n, E.neg(S))
            z = f1 * f4 / (f2 * f3)
        except (_Degenerate, ZeroDivisionError):
            continue
        if z ** n != E.ctx.one():
            raise ValueError("value does not satisfy its order bound")
        return z
    raise ArithmeticError("no admissible auxiliary point in 256 draws")

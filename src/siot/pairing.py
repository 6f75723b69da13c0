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
auxiliary point.  Auxiliary points are read from a hash stream over the
inputs, so every call is deterministic; degenerate draws (a zero or
pole of an intermediate line) are retried with the next attempt and
never surface to the caller.

Every value stays a fraction until the end (V. Miller, J. Cryptology
17, 2004).  The Miller loop keeps its running point in Jacobian
coordinates and its value as a numerator and a denominator, and returns
the two; each line and vertical value is a nonzero multiple of the
affine one, so the zero and pole tests, and with them every retry, are
those of the affine loop.  The two shifted evaluation points come from
mixed additions brought to affine by one batched inversion, and the
pairing cross-multiplies the four fractions and divides once: two
inversions a pairing.  The loop, its line update, the Jacobian steps it
follows and the quotient are straight-line arithmetic on the unpacked
integer coordinates; only the pairing's value leaves as an ``Fp2``.
"""

from __future__ import annotations

from itertools import count

from .curve import (EllipticCurve, Point, jac_add_affine, jac_double,
                    jac_normalize, jacobian, unit_point)
from .field import Fp2, inv_batch
from .util import expand


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


def miller_function(E: EllipticCurve, P: Point, n: int, X: Point):
    """Evaluate the Miller function f_{n,P} at X by double-and-add, as a
    fraction (numerator, denominator) of two nonzero (a, b) coordinate
    pairs; no division.

    f_{n,P} has divisor n(P) - ([n]P) - (n-1)(O).  Raises _Degenerate
    when X lands on a zero or pole of an intermediate line, which the
    pairing wrapper handles by re-drawing its auxiliary point.
    """
    if X.infinity:
        raise _Degenerate
    if P.infinity:
        return (1, 0), (1, 0)
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
    return f[:2], f[2:]


def _aux_point(E: EllipticCurve, P: Point, Q: Point, n: int, attempt: int) -> Point:
    """Deterministic auxiliary point: x candidates and the sign of y
    read from a hash stream over the inputs, the attempt and a counter,
    until x^3 + Ax + B is a square."""
    ctx, w = E.ctx, E.ctx.byte_width
    material = n.to_bytes(max(8, (n.bit_length() + 7) // 8), "big")
    material += attempt.to_bytes(4, "big")
    for pt in (P, Q):
        material += pt.x.encode() + pt.y.encode()
    for k in count():
        draw = expand("pairing-aux", material + k.to_bytes(4, "big"),
                      2 * w + 1)
        x = Fp2(ctx, int.from_bytes(draw[:w], "big"),
                int.from_bytes(draw[w:2 * w], "big"))
        y = E.rhs(x).sqrt()
        if y is not None:
            return Point(x, -y if draw[-1] & 1 else y)


def _shifted(E: EllipticCurve, P: Point, Q: Point, S: Point):
    """Q + S and P - S, by two mixed additions from Q and P at Z = 1
    brought to affine by one batched inversion.  Raises _Degenerate
    when either is O, where no Miller function can be evaluated."""
    A, p = (E.A.a, E.A.b), E.ctx.p
    T1 = jac_add_affine(jacobian(Q), jacobian(S)[:2], A, p)[0]
    T2 = jac_add_affine(jacobian(P), jacobian(E.neg(S))[:2], A, p)[0]
    if T1[2] == (0, 0) or T2[2] == (0, 0):
        raise _Degenerate
    return [unit_point(E.ctx, jac_normalize(T, zi, p))
            for T, zi in zip((T1, T2), inv_batch(E.ctx, [T1[2], T2[2]]))]


def _product(p: int, *factors):
    """The product of (a, b) coordinate pairs, reduced mod p."""
    a, b = 1, 0
    for c, d in factors:
        a, b = (a * c - b * d) % p, (a * d + b * c) % p
    return a, b


def weil_pairing(E: EllipticCurve, P: Point, Q: Point, n: int) -> Fp2:
    """Weil pairing e_n(P, Q), an n-th root of unity, for checked
    n-torsion points P, Q of E (not proved again here).

    Bilinear, alternating, and nondegenerate on a basis of the full
    n-torsion.  Computed as

        [f_{n,P}(Q+S) / f_{n,P}(S)] / [f_{n,Q}(P-S) / f_{n,Q}(-S)]

    for an auxiliary point S avoiding all zeros and poles.  The four
    Miller values are fractions, cross-multiplied into one, and the
    division is the only one: its denominator is a product of the
    nonzero numerators and denominators ``_times_line`` admits.  A
    value with z^n != 1 raises ValueError.
    """
    if P.infinity or Q.infinity or P == Q or P == E.neg(Q):
        return E.ctx.one()
    ctx, p = E.ctx, E.ctx.p
    for attempt in range(256):
        S = _aux_point(E, P, Q, n, attempt)
        try:
            QS, PS = _shifted(E, P, Q, S)
            n1, d1 = miller_function(E, P, n, QS)
            n2, d2 = miller_function(E, P, n, S)
            n3, d3 = miller_function(E, Q, n, PS)
            n4, d4 = miller_function(E, Q, n, E.neg(S))
        except _Degenerate:
            continue
        # f1 f4 / (f2 f3) = (n1 n4 d2 d3) / (d1 d4 n2 n3)
        den = Fp2(ctx, *_product(p, d1, d4, n2, n3)).inv()
        z = Fp2(ctx, *_product(p, n1, n4, d2, d3, (den.a, den.b)))
        if z ** n != ctx.one():
            raise ValueError("value does not satisfy its order bound")
        return z
    raise ArithmeticError("no admissible auxiliary point in 256 draws")

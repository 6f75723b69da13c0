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
additions of points at Z = 1, brought to affine by one batched
inversion, and the pairing cross-multiplies the four fractions and
divides once: two inversions a pairing.

Only the pairing's value leaves as an ``Fp2``.  Every point has the
one form of ``curve``, a Jacobian triple of (a, b) coordinate pairs,
at Z = 1 when affine and Z = 0 for O: the inputs, the auxiliary point,
its negative, the two evaluation points, the Miller loop's arguments
and its running point; the order check z^n = 1 runs on integers too.
The only other ``Fp2`` objects are those that reach ``Fp2.sqrt`` and
``Fp2.inv``, which the benchmark counts by name.
"""

from __future__ import annotations

from itertools import count

from .curve import EllipticCurve, jac_add, jac_double, jac_normalize
from .field import Fp2, inv_batch, pow_pair
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
    (xa, xb), (ya, yb), _ = X
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


def miller_function(E: EllipticCurve, P, n: int, X):
    """Evaluate the Miller function f_{n,P} at X by double-and-add, as a
    fraction (numerator, denominator) of two nonzero (a, b) coordinate
    pairs; no division.

    P and X are Jacobian triples of (a, b) pairs at Z = 1, or at Z = 0
    for O.  f_{n,P} has divisor n(P) - ([n]P) - (n-1)(O).  Raises
    _Degenerate when X is O or lands on a zero or pole of an
    intermediate line, which the pairing wrapper handles by re-drawing
    its auxiliary point.
    """
    if X[2] == (0, 0):
        raise _Degenerate
    if P[2] == (0, 0):
        return (1, 0), (1, 0)
    p, A = E.ctx.p, E.A
    f = (1, 0, 1, 0)                 # numerator a, b; denominator a, b
    T = P
    for bit in bin(n)[3:]:
        na, nb, da, db = f
        f = ((na + nb) * (na - nb) % p, 2 * na * nb % p,
             (da + db) * (da - db) % p, 2 * da * db % p)
        if T[2] != (0, 0):           # O doubles to O, line and vertical 1
            T2, N = jac_double(T, A, p)
            T, f = T2, _times_line(f, T, T2, N, X, p)
        if bit == "1" and T[2] == (0, 0):
            if X[0] == P[0]:         # line and vertical are both x - x_P
                raise _Degenerate
            T = P
        elif bit == "1":
            T2, N = jac_add(T, P, A, p)
            T, f = T2, _times_line(f, T, T2, N, X, p)
    return f[:2], f[2:]


def _aux_point(E: EllipticCurve, P, Q, n: int, attempt: int):
    """Deterministic auxiliary point, a triple at Z = 1, for points P and
    Q given as such triples: x candidates and the sign of y read from a
    hash stream over the inputs' encodings, the attempt and a counter,
    until x^3 + Ax + B is a square (one ``Fp2.sqrt`` per candidate)."""
    ctx, p, w = E.ctx, E.ctx.p, E.ctx.byte_width
    material = n.to_bytes(max(8, (n.bit_length() + 7) // 8), "big")
    material += attempt.to_bytes(4, "big")
    for (xa, xb), (ya, yb), _ in (P, Q):
        material += (xa.to_bytes(w, "big") + xb.to_bytes(w, "big")
                     + ya.to_bytes(w, "big") + yb.to_bytes(w, "big"))
    for k in count():
        draw = expand("pairing-aux", material + k.to_bytes(4, "big"),
                      2 * w + 1)
        xa = int.from_bytes(draw[:w], "big") % p
        xb = int.from_bytes(draw[w:2 * w], "big") % p
        y = Fp2(ctx, *E.rhs_pair(xa, xb)).sqrt()
        if y is not None:
            if draw[-1] & 1:
                return (xa, xb), (-y.a % p, -y.b % p), (1, 0)
            return (xa, xb), (y.a, y.b), (1, 0)


def _product(p: int, *factors):
    """The product of (a, b) coordinate pairs, reduced mod p."""
    a, b = 1, 0
    for c, d in factors:
        a, b = (a * c - b * d) % p, (a * d + b * c) % p
    return a, b


def weil_pairing(E: EllipticCurve, P, Q, n: int) -> Fp2:
    """Weil pairing e_n(P, Q), an n-th root of unity, for checked
    n-torsion points P, Q of E (not proved again here).

    Bilinear, alternating, and nondegenerate on a basis of the full
    n-torsion.  Computed as

        [f_{n,P}(Q+S) / f_{n,P}(S)] / [f_{n,Q}(P-S) / f_{n,Q}(-S)]

    for an auxiliary point S avoiding all zeros and poles.  P and Q are
    affine or O, and every point after them is a Jacobian triple too.
    Q + S and P - S are Jacobian additions brought to affine by one
    batched inversion, and the draw is retried when either is O.  The four
    Miller values are fractions, cross-multiplied into one, and its
    division is the only other inversion: its denominator is a product
    of the nonzero numerators and denominators ``_times_line`` admits.
    A value with z^n != 1 raises ValueError.
    """
    ctx, p, A = E.ctx, E.ctx.p, E.A
    if P[2] == (0, 0) or Q[2] == (0, 0):
        return ctx.one()
    qx, (qya, qyb), _ = Q
    if P[0] == qx and P[1] in ((qya, qyb), (-qya % p, -qyb % p)):
        return ctx.one()             # P = Q or P = -Q
    for attempt in range(256):
        S = _aux_point(E, P, Q, n, attempt)
        sx, (sya, syb), sz = S
        negS = sx, (-sya % p, -syb % p), sz
        T1 = jac_add(Q, S, A, p)[0]
        T2 = jac_add(P, negS, A, p)[0]
        if T1[2] == (0, 0) or T2[2] == (0, 0):
            continue                 # no Miller function is evaluated at O
        z1, z2 = inv_batch(ctx, [T1[2], T2[2]])
        QS, PS = jac_normalize(T1, z1, p), jac_normalize(T2, z2, p)
        try:
            n1, d1 = miller_function(E, P, n, QS)
            n2, d2 = miller_function(E, P, n, S)
            n3, d3 = miller_function(E, Q, n, PS)
            n4, d4 = miller_function(E, Q, n, negS)
        except _Degenerate:
            continue
        # f1 f4 / (f2 f3) = (n1 n4 d2 d3) / (d1 d4 n2 n3)
        den = Fp2(ctx, *_product(p, d1, d4, n2, n3)).inv()
        z = _product(p, n1, n4, d2, d3, (den.a, den.b))
        if pow_pair(p, z, n) != (1, 0):
            raise ValueError("value does not satisfy its order bound")
        return Fp2(ctx, *z)
    raise ArithmeticError("no admissible auxiliary point in 256 draws")

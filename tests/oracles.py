"""Independent reference implementations the tests check the package
against.  Everything here is deliberately naive: linear-time Miller
loops, repeated-addition scalar multiples, pure-integer affine curve
arithmetic, an isogeny chain with a fresh scalar multiple per step.
None of it imports the package's pairing internals.

Some are the package's own earlier loops, kept as oracles when a faster
one replaced them: the affine Miller loop (``affine_miller``), which
divides at every step, and the one-point-at-a-time Velu translate
(``naive_evaluate``), which inverts once per kernel point.
"""

from __future__ import annotations

from siot.curve import INFINITY, EllipticCurve, Point
from siot.errors import InvalidKernelError
from siot.field import Fp2
from siot.isogeny import IsogenyChain, velu_step


def naive_mul(E: EllipticCurve, k: int, P: Point) -> Point:
    """Scalar multiple by literal repeated addition."""
    if k < 0:
        return naive_mul(E, -k, E.neg(P))
    acc = INFINITY
    for _ in range(k):
        acc = E.add(acc, P)
    return acc


def naive_order(E: EllipticCurve, P: Point, bound: int) -> int:
    acc = P
    for k in range(1, bound + 1):
        if acc.infinity:
            return k
        acc = E.add(acc, P)
    raise AssertionError(f"order exceeds {bound}")


def _line(E: EllipticCurve, T: Point, U: Point, X: Point) -> Fp2:
    """Value at X of the line through T and U (vertical or tangent when
    the chord degenerates), written independently of the package."""
    one = E.A.ctx.one()
    if T.infinity and U.infinity:
        return one
    if T.infinity:
        return X.x - U.x
    if U.infinity:
        return X.x - T.x
    if T.x == U.x and T.y != U.y:
        return X.x - T.x
    if T.x == U.x:
        if T.y.is_zero():
            return X.x - T.x
        slope = (T.x.square() * E.A.ctx.elem(3) + E.A) / (T.y + T.y)
    else:
        slope = (U.y - T.y) / (U.x - T.x)
    return (X.y - T.y) - slope * (X.x - T.x)


class Degenerate(Exception):
    pass


def _line_value(E: EllipticCurve, T: Point, U: Point, X: Point) -> Fp2:
    """Value at X of the line through T and U (tangent when T = U).

    The line through a point and its negative, or through a point and
    the identity, is the vertical at that point.
    """
    if T.infinity or U.infinity:
        R = U if T.infinity else T
        if R.infinity:
            return E.ctx.one()
        return X.x - R.x
    if T.x == U.x and T.y == -U.y:
        return X.x - T.x
    if T == U:
        if not T.y:
            return X.x - T.x
        lam = (E.ctx.elem(3) * T.x * T.x + E.A) / (E.ctx.elem(2) * T.y)
    else:
        lam = (U.y - T.y) / (U.x - T.x)
    return X.y - T.y - lam * (X.x - T.x)


def affine_miller(E: EllipticCurve, P: Point, n: int, X: Point) -> Fp2:
    """f_{n,P}(X) by double-and-add in affine coordinates, one division
    per line.  Raises Degenerate where X is a zero or pole of a line or
    vertical, at exactly the steps the package's loop tests."""
    if X.infinity:
        raise Degenerate
    f = E.ctx.one()
    T = P
    for bit in bin(n)[3:]:
        num = _line_value(E, T, T, X)
        T = E.double(T)
        den = (X.x - T.x) if not T.infinity else E.ctx.one()
        if not num or not den:
            raise Degenerate
        f = f * f * num / den
        if bit == "1":
            num = _line_value(E, T, P, X)
            T = E.add(T, P)
            den = (X.x - T.x) if not T.infinity else E.ctx.one()
            if not num or not den:
                raise Degenerate
            f = f * num / den
    return f


def linear_miller(E: EllipticCurve, P: Point, n: int, X: Point) -> Fp2:
    """f_{n,P}(X) by the additive recursion, one step per unit of n.

    f_1 = 1 and f_{m+1} = f_m * line(mP, P) / vertical((m+1)P), so the
    whole addition chain is walked literally.  Blows up (Degenerate) if
    X ever lands on a zero or pole.
    """
    one = E.A.ctx.one()
    f = one
    T = P
    for _ in range(n - 1):
        Tn = E.add(T, P)
        num = _line(E, T, P, X)
        den = _line(E, Tn, E.neg(Tn), X) if not Tn.infinity else one
        if num.is_zero() or den.is_zero():
            raise Degenerate
        f = f * num / den
        T = Tn
    if not T.infinity:
        raise AssertionError("n does not annihilate P")
    return f


def weil_naive(E: EllipticCurve, P: Point, Q: Point, n: int, rng) -> Fp2:
    """Weil pairing from the two linear Miller functions and a random
    auxiliary point, retried until no degeneracy is hit."""
    one = E.A.ctx.one()
    if P.infinity or Q.infinity or P == Q or P == E.neg(Q):
        return one
    for _ in range(200):
        S = E.random_point(rng)
        try:
            a = linear_miller(E, P, n, E.add(Q, S)) / linear_miller(E, P, n, S)
            b = (linear_miller(E, Q, n, E.sub(P, S))
                 / linear_miller(E, Q, n, E.neg(S)))
            return a / b
        except Degenerate:
            continue
    raise AssertionError("no usable auxiliary point found")


# -- pure-integer affine arithmetic over F_p ----------------------------

def ec_add_fp(p: int, A: int, B: int, P1, P2):
    """Affine addition on y^2 = x^3 + Ax + B over F_p; None is infinity."""
    if P1 is None:
        return P2
    if P2 is None:
        return P1
    x1, y1 = P1
    x2, y2 = P2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P1 == P2:
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def ec_mul_fp(p: int, A: int, B: int, k: int, P):
    acc = None
    base = P
    while k:
        if k & 1:
            acc = ec_add_fp(p, A, B, acc, base)
        base = ec_add_fp(p, A, B, base, base)
        k >>= 1
    return acc


def count_fp_points(p: int, A: int, B: int) -> int:
    """#E(F_p) by the Legendre-symbol sum, one x at a time."""
    count = 1
    for x in range(p):
        rhs = (x * x * x + A * x + B) % p
        if rhs == 0:
            count += 1
        elif pow(rhs, (p - 1) // 2, p) == 1:
            count += 2
    return count


def fp_points(p: int, A: int, B: int):
    """Every affine F_p-rational point, by exhaustive search."""
    pts = []
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, []).append(y)
    for x in range(p):
        rhs = (x * x * x + A * x + B) % p
        for y in squares.get(rhs, ()):
            pts.append((x, y))
    return pts


def naive_chain(E: EllipticCurve, K: Point, ell: int, e: int) -> IsogenyChain:
    """The e-step chain by a fresh scalar multiple per step.

    Step i quotients out [ell^(e-1-i)]K_i and pushes the running
    generator through: about e^2/2 multiplications by ell in all.
    """
    E.check_point(K)
    n = ell ** e
    if not E.mul(n, K).infinity or E.mul(n // ell, K).infinity:
        raise InvalidKernelError(f"kernel generator must have exact order {n}")
    steps = []
    cur, Kc = E, K
    for i in range(e):
        S = cur.mul(ell ** (e - 1 - i), Kc)
        step = velu_step(cur, S, ell)
        Kc = naive_evaluate(step, Kc)
        cur = step.codomain
        steps.append(step)
    if not Kc.infinity:
        raise InvalidKernelError("kernel not annihilated by its own chain")
    return IsogenyChain(tuple(steps), n, E, cur)


def naive_evaluate(phi, P: Point) -> Point:
    """Image of P under a VeluStep or IsogenyChain, one translate (and
    one inversion) per kernel point."""
    if isinstance(phi, IsogenyChain):
        for step in phi.steps:
            P = naive_evaluate(step, P)
        return P
    E = phi.domain
    if P.infinity:
        return INFINITY
    for Q in phi.kernel_points:
        if P == Q:
            return INFINITY
    x, y = P.x, P.y
    for Q in phi.kernel_points:
        S = E.add(P, Q)
        x = x + S.x - Q.x
        y = y + S.y - Q.y
    return Point(x, y)

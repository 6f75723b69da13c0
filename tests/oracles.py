"""Independent reference implementations the tests check the package
against.  Everything here is deliberately naive: linear-time Miller
loops, repeated-addition scalar multiples, pure-integer affine curve
arithmetic, an isogeny chain with a fresh scalar multiple per step.
None of it imports the package's pairing internals, and none of it
adds points with the package's group law: the oracles that need a sum
take it from ``affine_add``, the chord-tangent law on ``Fp2`` values.

Some are the package's own earlier loops, kept as oracles when a faster
one replaced them: the affine group law (``affine_add``), which the
package replaced by its Jacobian steps, the affine Miller loop
(``affine_miller``), which divides at every step, the
one-point-at-a-time Velu translate (``naive_evaluate``), which inverts
once per kernel point, and the square root by exponentiation in
F_{p^2} (``sqrt_by_exponentiation``).
The toy-scale problem oracles at the end (shared j by one double-kernel
quotient, isogeny reachability, the symmetric-pairing constraint) have
no caller outside the tests.
"""

from __future__ import annotations

from siot.curve import INFINITY, EllipticCurve, Point
from siot.errors import InvalidKernelError, UnsupportedParameterError
from siot.field import Fp2
from siot.isogeny import (IsogenyChain, cyclic_subgroup, full_kernel_quotient,
                          isogeny_chain, kernel_generator, velu_step)
from siot.sidh import PublicParams
from siot.siot import MaskCoefficients
from siot.util import det_rng


def affine_add(E: EllipticCurve, P: Point, Q: Point) -> Point:
    """Chord-tangent sum of two points of E, one ``Fp2`` division."""
    if P.infinity:
        return Q
    if Q.infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:          # includes the y = 0 doubling case
            return INFINITY
        # tangent slope (3x^2 + A) / 2y
        num = E.ctx.elem(3) * P.x * P.x + E.A
        slope = num * (E.ctx.elem(2) * P.y).inv()
    else:
        slope = (Q.y - P.y) * (Q.x - P.x).inv()
    x3 = slope * slope - P.x - Q.x
    y3 = slope * (P.x - x3) - P.y
    return Point(x3, y3)


def naive_mul(E: EllipticCurve, k: int, P: Point) -> Point:
    """Scalar multiple by literal repeated addition."""
    if k < 0:
        return naive_mul(E, -k, E.neg(P))
    acc = INFINITY
    for _ in range(k):
        acc = affine_add(E, acc, P)
    return acc


def naive_order(E: EllipticCurve, P: Point, bound: int) -> int:
    acc = P
    for k in range(1, bound + 1):
        if acc.infinity:
            return k
        acc = affine_add(E, acc, P)
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
        slope = (T.x * T.x * E.A.ctx.elem(3) + E.A) / (T.y + T.y)
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
        T = affine_add(E, T, T)
        den = (X.x - T.x) if not T.infinity else E.ctx.one()
        if not num or not den:
            raise Degenerate
        f = f * f * num / den
        if bit == "1":
            num = _line_value(E, T, P, X)
            T = affine_add(E, T, P)
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
        Tn = affine_add(E, T, P)
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
            a = (linear_miller(E, P, n, affine_add(E, Q, S))
                 / linear_miller(E, P, n, S))
            b = (linear_miller(E, Q, n, affine_add(E, P, E.neg(S)))
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
        S = affine_add(E, P, Q)
        x = x + S.x - Q.x
        y = y + S.y - Q.y
    return Point(x, y)


# -- F_{p^2} ---------------------------------------------------------------

def sqrt_by_exponentiation(x: Fp2) -> Fp2 | None:
    """The package's earlier ``Fp2.sqrt``, by exponentiation in F_{p^2}
    for p = 3 (mod 4): with s = x^((p-3)/4), either i*x^((p+1)/4) or
    ((1+x^((p-1)/2))^((p-1)/2))*x^((p+1)/4) is a root; a final squaring
    rejects non-residues.  Of {r, -r} the smaller encoding is returned."""
    ctx = x.ctx
    if x.is_zero():
        return ctx.zero()
    s = x ** ((ctx.p - 3) // 4)
    alpha = s * s * x               # x^((p-1)/2)
    x0 = s * x                      # x^((p+1)/4)
    if alpha == -ctx.one():
        root = ctx.i() * x0
    else:
        root = (ctx.one() + alpha) ** ((ctx.p - 1) // 2) * x0
    if root * root != x:
        return None
    other = -root
    return root if root.encode() <= other.encode() else other


def multiplicative_order(z: Fp2, n: int) -> int:
    """Exact order of an n-th root of unity z, for a prime-power n:
    raise it to n's prime until it reaches one."""
    order, v = 1, z
    ell = next(d for d in range(2, n + 1) if n % d == 0)
    while v != v.ctx.one():
        if order >= n:
            raise ValueError("order does not divide bound")
        v = v ** ell
        order *= ell
    return order


# -- toy problem oracles ---------------------------------------------------

def symmetric_constraint_check(params: PublicParams,
                               coeffs: MaskCoefficients) -> bool:
    """Whether the coefficients satisfy the symmetric-pairing identity
    (1 + lambda*alpha)(1 + lambda*delta) + lambda^2*beta*gamma = 1 for
    every lambda, and alpha lies in the hardened family."""
    n = params.n("A")
    ell, e = params.ell_a, params.e_a
    if coeffs.alpha % ell ** ((e + 1) // 2) != 0:
        return False
    lams = range(n) if n <= 4096 else \
        det_rng(b"symmetric-lams").sample(range(n), 1000)
    a, b, g, d = coeffs.alpha, coeffs.beta, coeffs.gamma, coeffs.delta
    return all(
        ((1 + lam * a) * (1 + lam * d) + lam * lam * b * g) % n == 1 % n
        for lam in lams)


def shared_j_oracle(params: PublicParams, r_a: int, r_b: int):
    """The exchange's shared j computed the blunt way: one quotient by
    the group generated by both kernels at once.  Correctness oracle for
    the two-stage derivation, feasible only at toy scale."""
    E0 = params.curve
    na, nb = params.n("A"), params.n("B")
    if na * nb > 4096:
        raise UnsupportedParameterError("double-kernel quotient is toy-only")
    PA, QA = params.basis_a
    PB, QB = params.basis_b
    KA = kernel_generator(E0, PA, r_a, QA)
    KB = kernel_generator(E0, PB, r_b, QB)
    # coprime orders: the sum generates the full two-sided kernel
    K = E0.add(KA, KB)
    step = full_kernel_quotient(E0, cyclic_subgroup(E0, K, na * nb))
    return step.codomain.j_invariant()


def reachable_j_values(params: PublicParams, side: str) -> set:
    """All j-invariants one degree-ell^e step away from the base curve.

    Enumerates every cyclic order-ell^e subgroup (projective line over
    Z/ell^e) and quotients.  Decision oracle for isogeny existence at
    toy scale."""
    n = params.n(side)
    if n > 512:
        raise UnsupportedParameterError("isogeny walk enumeration is toy-only")
    ell, e = params.ell(side), params.e(side)
    P, Q = params.basis(side)
    E0 = params.curve
    out = set()
    for t in range(n):
        K = kernel_generator(E0, P, t, Q)
        out.add(isogeny_chain(E0, K, ell, e).codomain.j_invariant())
    for s in range(0, n, ell):
        K = E0.add(E0.mul(s, P), Q)
        out.add(isogeny_chain(E0, K, ell, e).codomain.j_invariant())
    return out


def isogeny_path_exists(params: PublicParams, side: str, j_target) -> bool:
    return j_target in reachable_j_values(params, side)

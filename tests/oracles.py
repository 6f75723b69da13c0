"""Independent reference implementations the tests check the package
against.  Everything here is deliberately naive: linear-time Miller
loops, repeated-addition scalar multiples, pure-integer affine curve
arithmetic, an isogeny chain with a fresh scalar multiple per step.
None of it imports the package's pairing internals, and, but for the
pairing extras at the end, none of it adds points with the package's
group law: the oracles that need a sum take it from the chord-tangent
law on ``Fp2`` values (``affine_add``).  They take and return points
in the package's form, a triple of (a, b) integer pairs at Z = 1 or
``INFINITY``, and work on their own, (x, y) as ``Fp2`` values or None
for O: ``_fp2_point`` converts on the way in and ``_package_point`` on
the way out, so the oracles share no point code with the package.

Some are the package's own earlier code, kept as oracles when a faster
one replaced it: the affine group law (``affine_add``), which the
package replaced by its Jacobian steps, the affine Miller loop
(``affine_miller``), which divides at every step, the
one-point-at-a-time Velu translate (``naive_evaluate``), which inverts
once per kernel point, the one-shot quotient by a whole kernel
(``full_kernel_quotient``), whose Velu sums are taken on ``Fp2``
values, the step record ``VeluStep`` and the subgroup enumeration
``cyclic_subgroup``, which proves its generator's order on the way, and
the square root by exponentiation in F_{p^2} (``sqrt_by_exponentiation``).
The reference step (``reference_step``) is ``full_kernel_quotient`` of
``cyclic_subgroup``, so it shares no Velu code with the package's walk;
``naive_chain`` and ``naive_evaluate`` take its steps.
``pairs_with_verdicts`` draws pairs over a torsion basis whose
coefficients decide whether each is a basis: the reference for
``EllipticCurve.is_basis`` and the pairing certificate.  It runs on
the named sets and on the small shapes ``SHAPES`` (``shape_params``).
The toy-scale problem oracles (shared j by one double-kernel quotient,
isogeny reachability, the symmetric-pairing constraint) have no caller
outside the tests.

The pairing extras at the end were the package's until nothing in it
called them: the distortion map and the modified and symmetric
pairings, the decomposition of a point over a torsion basis by discrete
logs of pairings, which is the reference for the one-pairing subgroup
test in ``siot.analysis``, the order-n basis certificate
``is_torsion_basis``, and the check of every mask constraint.
They build on the package's ``weil_pairing`` and group law.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from siot.curve import INFINITY, EllipticCurve
from siot.errors import InvalidKernelError, UnsupportedParameterError
from siot.field import Fp2
from siot.isogeny import (_translate, isogeny_chain, kernel_generator,
                          velu_step)
from siot.pairing import weil_pairing
from siot.sidh import PublicParams, gen_params
from siot.siot import MaskCoefficients
from siot.util import det_rng


def _fp2_point(E: EllipticCurve, P):
    """The oracles' form of a package point: (x, y) as ``Fp2`` values,
    or None for O."""
    if P[2] == (0, 0):
        return None
    return E.ctx.elem(*P[0]), E.ctx.elem(*P[1])


def _package_point(P):
    """The package's form of an oracle point: a triple of (a, b) pairs
    at Z = 1, or ``INFINITY``."""
    if P is None:
        return INFINITY
    x, y = P
    return (x.a, x.b), (y.a, y.b), (1, 0)


def _neg(P):
    return None if P is None else (P[0], -P[1])


def _add(E: EllipticCurve, P, Q):
    """Chord-tangent sum of two oracle points of E, one ``Fp2``
    division."""
    if P is None:
        return Q
    if Q is None:
        return P
    if P[0] == Q[0] and P[1] == -Q[1]:   # includes the y = 0 doubling case
        return None
    slope = _slope(E, P, Q)
    x3 = slope * slope - P[0] - Q[0]
    return x3, slope * (P[0] - x3) - P[1]


def _slope(E: EllipticCurve, P, Q) -> Fp2:
    if P[0] == Q[0]:
        num = E.ctx.elem(3) * P[0] * P[0] + E.ctx.elem(*E.A)
        return num * (E.ctx.elem(2) * P[1]).inv()
    return (Q[1] - P[1]) * (Q[0] - P[0]).inv()


def _mul(E: EllipticCurve, k: int, P):
    if k < 0:
        k, P = -k, _neg(P)
    acc = None
    for _ in range(k):
        acc = _add(E, acc, P)
    return acc


def affine_add(E: EllipticCurve, P, Q):
    """Chord-tangent sum of two points of E, one ``Fp2`` division."""
    return _package_point(_add(E, _fp2_point(E, P), _fp2_point(E, Q)))


def affine_slope(E: EllipticCurve, P, Q) -> Fp2:
    """The slope of the chord through P and Q, or of the tangent
    (3x^2 + A) / 2y at P = Q, for points of E other than O whose sum is
    not O."""
    return _slope(E, _fp2_point(E, P), _fp2_point(E, Q))


def naive_mul(E: EllipticCurve, k: int, P):
    """Scalar multiple by literal repeated addition."""
    return _package_point(_mul(E, k, _fp2_point(E, P)))


def naive_order(E: EllipticCurve, P, bound: int) -> int:
    P = _fp2_point(E, P)
    acc = P
    for k in range(1, bound + 1):
        if acc is None:
            return k
        acc = _add(E, acc, P)
    raise AssertionError(f"order exceeds {bound}")


def all_points(E: EllipticCurve) -> list:
    """Every point of E over F_{p^2}, the identity first."""
    ctx = E.ctx
    A, B = E.ctx.elem(*E.A), E.ctx.elem(*E.B)
    pts = [None]
    for a in range(ctx.p):
        for b in range(ctx.p):
            x = ctx.elem(a, b)
            y = (x * x * x + A * x + B).sqrt()
            if y is not None:
                pts += [(x, y)] if not y else [(x, y), (x, -y)]
    return [_package_point(P) for P in pts]


def _line(E: EllipticCurve, T, U, X) -> Fp2:
    """Value at X of the line through oracle points T and U (vertical or
    tangent when the chord degenerates), written independently of the
    package."""
    one = E.ctx.one()
    if T is None and U is None:
        return one
    if T is None:
        return X[0] - U[0]
    if U is None:
        return X[0] - T[0]
    if T[0] == U[0] and T[1] != U[1]:
        return X[0] - T[0]
    if T[0] == U[0]:
        if not T[1]:
            return X[0] - T[0]
        slope = ((T[0] * T[0] * E.ctx.elem(3) + E.ctx.elem(*E.A))
                 / (T[1] + T[1]))
    else:
        slope = (U[1] - T[1]) / (U[0] - T[0])
    return (X[1] - T[1]) - slope * (X[0] - T[0])


class Degenerate(Exception):
    pass


def _line_value(E: EllipticCurve, T, U, X) -> Fp2:
    """Value at X of the line through oracle points T and U (tangent
    when T = U).

    The line through a point and its negative, or through a point and
    the identity, is the vertical at that point.
    """
    if T is None or U is None:
        R = U if T is None else T
        if R is None:
            return E.ctx.one()
        return X[0] - R[0]
    if T[0] == U[0] and T[1] == -U[1]:
        return X[0] - T[0]
    if T == U:
        if not T[1]:
            return X[0] - T[0]
        lam = ((E.ctx.elem(3) * T[0] * T[0] + E.ctx.elem(*E.A))
               / (E.ctx.elem(2) * T[1]))
    else:
        lam = (U[1] - T[1]) / (U[0] - T[0])
    return X[1] - T[1] - lam * (X[0] - T[0])


def affine_miller(E: EllipticCurve, P, n: int, X) -> Fp2:
    """f_{n,P}(X) by double-and-add in affine coordinates, one division
    per line.  Raises Degenerate where X is a zero or pole of a line or
    vertical, at exactly the steps the package's loop tests."""
    P, X = _fp2_point(E, P), _fp2_point(E, X)
    if X is None:
        raise Degenerate
    f = E.ctx.one()
    T = P
    for bit in bin(n)[3:]:
        num = _line_value(E, T, T, X)
        T = _add(E, T, T)
        den = (X[0] - T[0]) if T is not None else E.ctx.one()
        if not num or not den:
            raise Degenerate
        f = f * f * num / den
        if bit == "1":
            num = _line_value(E, T, P, X)
            T = _add(E, T, P)
            den = (X[0] - T[0]) if T is not None else E.ctx.one()
            if not num or not den:
                raise Degenerate
            f = f * num / den
    return f


def _linear_miller(E: EllipticCurve, P, n: int, X) -> Fp2:
    """f_{n,P}(X) by the additive recursion, one step per unit of n, on
    oracle points.

    f_1 = 1 and f_{m+1} = f_m * line(mP, P) / vertical((m+1)P), so the
    whole addition chain is walked literally.  Blows up (Degenerate) if
    X ever lands on a zero or pole.
    """
    one = E.ctx.one()
    f = one
    T = P
    for _ in range(n - 1):
        Tn = _add(E, T, P)
        num = _line(E, T, P, X)
        den = _line(E, Tn, _neg(Tn), X) if Tn is not None else one
        if not num or not den:
            raise Degenerate
        f = f * num / den
        T = Tn
    if T is not None:
        raise AssertionError("n does not annihilate P")
    return f


def weil_naive(E: EllipticCurve, P, Q, n: int, rng) -> Fp2:
    """Weil pairing from the two linear Miller functions and a random
    auxiliary point, retried until no degeneracy is hit."""
    one = E.ctx.one()
    P, Q = _fp2_point(E, P), _fp2_point(E, Q)
    if P is None or Q is None or P == Q or P == _neg(Q):
        return one
    for _ in range(200):
        S = _fp2_point(E, E.random_point(rng))
        try:
            a = (_linear_miller(E, P, n, _add(E, Q, S))
                 / _linear_miller(E, P, n, S))
            b = (_linear_miller(E, Q, n, _add(E, P, _neg(S)))
                 / _linear_miller(E, Q, n, _neg(S)))
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


# -- isogeny steps ---------------------------------------------------------

@dataclass(frozen=True)
class VeluStep:
    """One separable isogeny, recorded by its kernel's nonzero points."""

    domain: EllipticCurve
    codomain: EllipticCurve
    kernel_points: tuple


def cyclic_subgroup(E: EllipticCurve, K, n: int) -> tuple:
    """The n - 1 nonzero points [1]K, ..., [n-1]K of <K>, for K of exact
    order n, by repeated ``affine_add``.  No [i]K before [n]K may be O,
    and [n-1]K must be -K, which is [n]K = O."""
    K = _fp2_point(E, K)
    if K is None:
        raise InvalidKernelError(f"generator order divides {n} improperly")
    pts = [K]
    for _ in range(2, n):
        pts.append(_add(E, pts[-1], K))
        if pts[-1] is None:
            raise InvalidKernelError(f"generator order divides {n} improperly")
    if n < 2 or pts[-1] != _neg(K):
        raise InvalidKernelError(f"generator does not have order {n}")
    return tuple(map(_package_point, pts))


def reference_step(E: EllipticCurve, K, ell: int) -> VeluStep:
    """The quotient of E by <K>, for K of exact order ell: the subgroup
    listed by ``cyclic_subgroup``, quotiented by ``full_kernel_quotient``."""
    return full_kernel_quotient(E, cyclic_subgroup(E, K, ell))


def walk_kernel(E: EllipticCurve, K, ell: int) -> tuple:
    """The kernel list the walk hands ``velu_step`` for K of order ell:
    [1]K, ..., [ell//2]K, one per pair +-Q, by repeated ``affine_add``."""
    return tuple(naive_mul(E, i, K) for i in range(1, ell // 2 + 1))


def velu_codomain(E: EllipticCurve, kernel) -> EllipticCurve:
    """The codomain of E by a ``velu_step`` kernel list, as a curve: the
    step on E's coefficient pairs."""
    return EllipticCurve(E.ctx, *velu_step(E.A, E.B, kernel, E.ctx.p))


def expand_kernel(E: EllipticCurve, kernel) -> tuple:
    """Every nonzero point of the subgroup a ``velu_step`` kernel list
    stands for, in ``cyclic_subgroup``'s order: the listed points, then
    the negatives of those with y != 0, last first."""
    pts = [_fp2_point(E, Q) for Q in kernel]
    pts += [_neg(Q) for Q in reversed(pts) if Q[1]]
    return tuple(map(_package_point, pts))


def push_through(phi: VeluStep, points) -> list:
    """Images of a list of points under one step by the package's
    batched translate loop, ``_translate``, given one kernel point per x.

    Not an oracle: it lets the tests drive that loop through steps the
    walk never takes, such as an order-6 quotient, and compare it with
    ``naive_evaluate``.
    """
    kernel = {}                  # one kernel point per x
    for Q in phi.kernel_points:
        kernel.setdefault(Q[0], Q)
    return _translate(phi.domain.ctx, list(kernel.values()), list(points))[1]


def naive_chain(E: EllipticCurve, K, ell: int, e: int) -> tuple:
    """The e steps of the chain by a fresh scalar multiple per step.

    Step i quotients out [ell^(e-1-i)]K_i by ``reference_step`` and
    pushes the running generator through: about e^2/2 multiplications
    by ell in all.
    """
    E.check_point(K)
    n = ell ** e
    if E.mul(n, K) != INFINITY or E.mul(n // ell, K) == INFINITY:
        raise InvalidKernelError(f"kernel generator must have exact order {n}")
    steps = []
    cur, Kc = E, K
    for i in range(e):
        S = cur.mul(ell ** (e - 1 - i), Kc)
        step = reference_step(cur, S, ell)
        Kc = naive_evaluate(step, Kc)
        cur = step.codomain
        steps.append(step)
    if Kc != INFINITY:
        raise InvalidKernelError("kernel not annihilated by its own chain")
    return tuple(steps)


def walk_counts(ell: int, e: int, npush: int) -> dict:
    """The operation counts of ``isogeny_chain`` at degree ell^e with
    ``npush`` pushed points, from the shape alone: a replay of its
    balanced split on the heights of the stacked points.

    Splitting a point at height h multiplies it by ell^(h//2): h//2
    triplings for ell = 3, and otherwise one doubling per bit of
    ell^(h//2) after the first.  The first step proves the generator's
    order by one more multiplication by ell, and for ell >= 5 each
    step's kernel list starts with [2]T, a doubling.  Each step is one
    ``velu_step`` and one inversion, but for a step whose batch is
    empty: an affine kernel point, which was not split at that step,
    and no stacked or pushed point.  That happens at the last step of
    a degree-2 or degree-3 chain that pushes nothing.
    """
    def mul(k):                  # (doublings, triplings) for ell^k
        return (0, k) if ell == 3 else ((ell ** k).bit_length() - 1, 0)

    dbl, tpl = mul(1)            # the order check
    steps = invs = 0
    stack = [e]
    while stack:
        h, split = stack.pop(), False
        while h > 1:
            stack.append(h)
            d, t = mul(h // 2)
            dbl, tpl, h, split = dbl + d, tpl + t, h - h // 2, True
        dbl += ell >= 5
        steps += 1
        invs += bool(split or stack or npush or ell >= 5)
        stack = [h - 1 for h in stack]
    return {"jac_double": dbl, "jac_triple": tpl, "velu_step": steps,
            "inv": invs}


def naive_evaluate(phi, P):
    """Image of P under a VeluStep or a sequence of them, one translate
    (and one inversion) per kernel point."""
    if not isinstance(phi, VeluStep):
        for step in phi:
            P = naive_evaluate(step, P)
        return P
    E = phi.domain
    if P == INFINITY or P in phi.kernel_points:
        return INFINITY
    P = _fp2_point(E, P)
    x, y = P
    for Q in phi.kernel_points:
        Q = _fp2_point(E, Q)
        S = _add(E, P, Q)
        x = x + S[0] - Q[0]
        y = y + S[1] - Q[1]
    return _package_point((x, y))


def full_kernel_quotient(E: EllipticCurve, kernel_points) -> VeluStep:
    """Single-shot quotient by an arbitrary finite subgroup.

    kernel_points must be all nonzero points of a subgroup, in any
    order.  Its Velu sums are taken on ``Fp2`` values, independently of
    the package's integer kernel, so a chain's codomain is checked
    against a second computation.  Cost is quadratic in the subgroup
    size, fine at desk scale.
    """
    pts = tuple(kernel_points)
    for Q in pts:
        E.check_point(Q)
        if Q[2] == (0, 0):
            raise InvalidKernelError("identity listed as a kernel point")
    affine = [_fp2_point(E, Q) for Q in pts]
    seen = set(affine)
    if len(seen) != len(pts):
        raise InvalidKernelError("duplicate kernel points")
    for Q in affine:
        if _neg(Q) not in seen:
            raise InvalidKernelError("kernel set not closed under negation")
    c = E.ctx.elem
    A, B = E.ctx.elem(*E.A), E.ctx.elem(*E.B)
    v = w = c(0)
    for x, _ in affine:
        v = v + c(3) * x * x + A
        w = w + c(5) * x * x * x + c(3) * A * x + c(2) * B
    A, B = A - c(5) * v, B - c(7) * w
    return VeluStep(E, EllipticCurve(E.ctx, (A.a, A.b), (B.a, B.b)), pts)


# -- F_{p^2} ---------------------------------------------------------------

def sqrt_by_exponentiation(x: Fp2) -> Fp2 | None:
    """The package's earlier ``Fp2.sqrt``, by exponentiation in F_{p^2}
    for p = 3 (mod 4): with s = x^((p-3)/4), either i*x^((p+1)/4) or
    ((1+x^((p-1)/2))^((p-1)/2))*x^((p+1)/4) is a root; a final squaring
    rejects non-residues.  Of {r, -r} the smaller encoding is returned."""
    ctx = x.ctx
    if not x:
        return ctx.zero()
    s = x ** ((ctx.p - 3) // 4)
    alpha = s * s * x               # x^((p-1)/2)
    x0 = s * x                      # x^((p+1)/4)
    if alpha == -ctx.one():
        root = ctx.elem(0, 1) * x0
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


# -- small shapes and pairs with known basis verdicts -----------------------

SHAPES = [(2, 4, 5, 2), (5, 2, 2, 4), (7, 2, 3, 3), (3, 3, 5, 2),
          (2, 6, 3, 4), (11, 2, 2, 5)]


def shape_id(shape) -> str:
    return "{}^{}*{}^{}".format(*shape)


@functools.lru_cache(maxsize=None)
def shape_params(shape) -> PublicParams:
    """The parameters of one of ``SHAPES``.  The four with ell >= 5 find
    no prime under the default max_f = 4, so f ranges up to 40."""
    tag = "-".join(map(str, shape)).encode()
    return gen_params(*shape, max_f=40, rng=det_rng(b"tests/shape/" + tag))


def pairs_with_verdicts(params: PublicParams, rng, per_side: int):
    """Pairs (aG + bH, cG + dH) over each side's basis (G, H), with the
    verdict the coefficients give: a basis exactly when ad - bc is a
    unit mod ell.  Every second pair is dependent, (c, d) = t(a, b) mod
    ell, and the first has t = 0, so Q of lower order.  Yields
    (E, P, Q, ell, e, is a basis)."""
    E = params.curve
    for own in (params.side_a, params.side_b):
        G, H = own.basis
        ell, e = own.ell, own.e
        for i in range(per_side):
            a, b, u, v = (rng.randrange(1 << 20) for _ in range(4))
            if i % 2:
                c, d = u, v
            else:
                t = rng.randrange(ell) if i else 0
                c, d = t * a + ell * u, t * b + ell * v
            P = E.add(E.mul(a, G), E.mul(b, H))
            Q = E.add(E.mul(c, G), E.mul(d, H))
            yield E, P, Q, ell, e, (a * d - b * c) % ell != 0


# -- toy problem oracles ---------------------------------------------------

def symmetric_constraint_check(params: PublicParams,
                               coeffs: MaskCoefficients) -> bool:
    """Whether the coefficients satisfy the symmetric-pairing identity
    (1 + lambda*alpha)(1 + lambda*delta) + lambda^2*beta*gamma = 1 for
    every lambda, and alpha lies in the hardened family."""
    n = params.side_a.n
    ell, e = params.side_a.ell, params.side_a.e
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
    na, nb = params.side_a.n, params.side_b.n
    if na * nb > 4096:
        raise UnsupportedParameterError("double-kernel quotient is toy-only")
    PA, QA = params.side_a.basis
    PB, QB = params.side_b.basis
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
    own, _ = params.sides(side)
    n, ell, e = own.n, own.ell, own.e
    if n > 512:
        raise UnsupportedParameterError("isogeny walk enumeration is toy-only")
    P, Q = own.basis
    E0 = params.curve
    out = set()
    for t in range(n):
        K = kernel_generator(E0, P, t, Q)
        out.add(isogeny_chain(E0, K, ell, e, ())[0].j_invariant())
    for s in range(0, n, ell):
        K = E0.add(E0.mul(s, P), Q)
        out.add(isogeny_chain(E0, K, ell, e, ())[0].j_invariant())
    return out


def isogeny_path_exists(params: PublicParams, side: str, j_target) -> bool:
    return j_target in reachable_j_values(params, side)


# -- pairing extras and the mask check --------------------------------------

class DecompositionError(Exception):
    """A point has no decomposition over the given basis."""


def distortion_map(E: EllipticCurve, P):
    """The endomorphism (x, y) -> (-x, i*y) of the curve y^2 = x^3 + x.

    Sends a point to one outside its own cyclic subgroup, which makes
    the modified pairing below nondegenerate on cyclic inputs.
    """
    if E.A != (1, 0) or E.B != (0, 0):
        raise UnsupportedParameterError(
            "distortion map is defined on y^2 = x^3 + x only")
    if P == INFINITY:
        return INFINITY
    E.check_point(P)
    x, y = _fp2_point(E, P)
    return _package_point((-x, E.ctx.elem(0, 1) * y))


def modified_pairing(E: EllipticCurve, Q, Qp, n: int) -> Fp2:
    """Distortion-modified pairing e_n(Q, psi(Q')), nonzero on the diagonal."""
    return weil_pairing(E, Q, distortion_map(E, Qp), n)


def symmetric_pairing(E: EllipticCurve, G, H, P, Q, ell: int,
                      e: int) -> Fp2:
    """Symmetric pairing on span(G, H): e(P, psi(Q)) with the basis map
    psi([u]G + [v]H) = [v]G - [u]H.

    Symmetry needs psi to have no eigenvectors, i.e. x^2 + 1 must have
    no root modulo ell; primes ell that are 2 or 1 mod 4 are rejected.
    """
    if ell == 2 or ell % 4 == 1:
        raise UnsupportedParameterError(
            f"x^2 + 1 has a root mod {ell}; symmetric pairing undefined")
    u, v = decompose_in_basis(E, G, H, Q, ell, e)
    image = E.sub(E.mul(v, G), E.mul(u, H))
    return weil_pairing(E, P, image, ell ** e)


def _dlog_prime_power(base: Fp2, target: Fp2, ell: int, e: int) -> int:
    """x with base^x = target, digit by digit in the order-ell^e subgroup.

    base must have exact order ell^e.
    """
    one = base.ctx.one()
    gamma = base ** (ell ** (e - 1))
    digit_table = {}
    g = one
    for d in range(ell):
        digit_table[g] = d
        g = g * gamma
    x = 0
    for i in range(e):
        c = (target * base ** (-x)) ** (ell ** (e - 1 - i))
        if c not in digit_table:
            raise DecompositionError("target outside the subgroup of the base")
        x += digit_table[c] * ell ** i
    return x


def decompose_in_basis(E: EllipticCurve, G, H, P, ell: int,
                       e: int) -> tuple[int, int]:
    """Coefficients (u, v) with P = [u]G + [v]H, for a basis (G, H) of
    the ell^e-torsion.

    Reduces to discrete logs among roots of unity: u is the log of
    e(P, H) and v the log of e(G, P), both to base e(G, H).  The smooth
    order makes the logs exact via per-digit search.  The result is
    verified by recombination before it is returned.
    """
    n = ell ** e
    zeta = weil_pairing(E, G, H, n)
    if zeta ** (n // ell) == E.ctx.one():
        raise DecompositionError("basis pairing does not have full order")
    u = _dlog_prime_power(zeta, weil_pairing(E, P, H, n), ell, e)
    v = _dlog_prime_power(zeta, weil_pairing(E, G, P, n), ell, e)
    if E.add(E.mul(u, G), E.mul(v, H)) != P:
        raise DecompositionError("recombination mismatch")
    return u, v


def is_torsion_basis(E: EllipticCurve, P, Q, ell: int, e: int) -> bool:
    """Whether (P, Q), two checked ell^e-torsion points of E, is a basis
    of the ell^e-torsion: e_n(P, Q) must have exact order n = ell^e.

    The order-n pairing certificate, the package's own until it
    certified the receiver's pair at order ell on the multiples
    [ell^(e-1)]P and [ell^(e-1)]Q; the reference for that certificate
    and for ``EllipticCurve.is_basis``.
    """
    n = ell ** e
    return weil_pairing(E, P, Q, n) ** (n // ell) != E.ctx.one()


def check_mask_coefficients(coeffs: MaskCoefficients,
                            params: PublicParams) -> None:
    """Raise ValueError unless the coefficients meet every mask
    constraint ``derive_mask_coeffs`` promises."""
    n = params.side_a.n
    ell, e = params.side_a.ell, params.side_a.e
    if coeffs.beta % ell == 0:
        raise ValueError("beta must be a unit")
    if (coeffs.delta + coeffs.alpha) % n != 0:
        raise ValueError("delta must equal -alpha")
    if (coeffs.alpha * coeffs.alpha + coeffs.beta * coeffs.gamma) % n != 0:
        raise ValueError("alpha^2 + beta*gamma must vanish")
    if not coeffs.quadratic_root_free(ell):
        raise ValueError("kernel-collapse quadratic has a root")
    if coeffs.alpha % ell ** ((e + 1) // 2) != 0:
        raise ValueError("alpha outside the hardened family")

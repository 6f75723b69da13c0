"""Explicit separable isogenies from kernel subgroups, and their
composition into prime-power-degree chains with point push-through.

A single step quotients a curve by a small subgroup: the codomain
coefficients come from sums over the nonzero kernel points,

    a' = a - 5 * sum(3*x_Q^2 + a)
    b' = b - 7 * sum(5*x_Q^3 + 3*a*x_Q + 2*b)

and a point maps by adding, for each kernel point Q, the offset between
the translate P+Q and Q itself.  Both formulas are valid for any finite
kernel subgroup, which is what the full-kernel oracle below exploits.

A chain of degree ell^e takes e such steps.  The order-ell kernel of
each step is found by a balanced traversal that keeps the intermediate
multiples of the kernel generator and pushes them through every step,
so a chain costs O(e log e) multiplications by ell rather than e^2/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import EllipticCurve, Point, INFINITY
from .errors import InvalidKernelError

@dataclass(frozen=True)
class VeluStep:
    """One separable isogeny, recorded by its kernel's nonzero points."""

    domain: EllipticCurve
    codomain: EllipticCurve
    kernel_points: tuple[Point, ...]

    @property
    def degree(self) -> int:
        return len(self.kernel_points) + 1

    def __call__(self, P: Point) -> Point:
        return evaluate(self, P)


@dataclass(frozen=True)
class IsogenyChain:
    """Composition of steps; degree is the product of the step degrees."""

    steps: tuple[VeluStep, ...]
    degree: int
    domain: EllipticCurve
    codomain: EllipticCurve

    def __call__(self, P: Point) -> Point:
        return evaluate(self, P)


def kernel_generator(E: EllipticCurve, P: Point, r: int, Q: Point) -> Point:
    """P + [r]Q, the generator of a secret kernel subgroup."""
    return E.add(P, E.mul(r, Q))


def cyclic_subgroup(E: EllipticCurve, K: Point, n: int) -> tuple[Point, ...]:
    """The n - 1 nonzero points of <K>, for K of exact order n."""
    pts = []
    R = K
    for _ in range(n - 1):
        if R.infinity:
            raise InvalidKernelError(f"generator order divides {n} improperly")
        pts.append(R)
        R = E.add(R, K)
    if not R.infinity:
        raise InvalidKernelError(f"generator does not have order {n}")
    return tuple(pts)


def _codomain(E: EllipticCurve, kernel_points) -> EllipticCurve:
    a, b = E.A, E.B
    c2, c3, c5, c7 = (E.ctx.elem(k) for k in (2, 3, 5, 7))
    va = E.ctx.zero()
    vb = E.ctx.zero()
    for Q in kernel_points:
        va = va + c3 * Q.x * Q.x + a
        vb = vb + c5 * Q.x ** 3 + c3 * a * Q.x + c2 * b
    return EllipticCurve(a - c5 * va, b - c7 * vb)


def velu_step(E: EllipticCurve, K: Point, ell: int) -> VeluStep:
    """Quotient E by the order-ell subgroup generated by K.

    K must be a nonzero point of prime order ell.
    """
    if K.infinity:
        raise InvalidKernelError("kernel generator is the identity")
    if not E.mul(ell, K).infinity:
        raise InvalidKernelError(f"kernel generator is not {ell}-torsion")
    kernel = cyclic_subgroup(E, K, ell)
    return VeluStep(E, _codomain(E, kernel), kernel)


def evaluate(phi, P: Point) -> Point:
    """Image of P under a VeluStep or an IsogenyChain.

    Kernel points map to the identity; everything else by the translate
    offsets.  The image always lies on the codomain.
    """
    if isinstance(phi, IsogenyChain):
        for step in phi.steps:
            P = evaluate(step, P)
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


def isogeny_chain(E: EllipticCurve, K: Point, ell: int, e: int) -> IsogenyChain:
    """Degree-ell^e isogeny with kernel <K>, as e steps of degree ell.

    Step i quotients out the order-ell point [ell^(e-1-i)]K_i, where K_i
    is K pushed through the first i steps.  Those points are reached by
    a balanced traversal (De Feo-Jao-Plut, ePrint 2011/506, 4.2.2)
    rather than by a fresh scalar multiple per step: a stack holds
    points [ell^(e-h-i)]K_i at heights h, the top is split by
    multiplying by ell^(h//2) until it reaches height 1, and after each
    step every stacked point is pushed through it.  That costs
    O(e log e) multiplications by ell and evaluations instead of e^2/2,
    and since the steps are homomorphisms each step sees the same point.
    """
    n = ell ** e
    if e < 1:
        raise InvalidKernelError(f"kernel generator must have exact order {n}")
    steps = []
    cur = E
    stack = [(K, e)]
    while stack:
        P, h = stack.pop()
        while h > 1:
            stack.append((P, h))
            P, h = cur.mul(ell ** (h // 2), P), h - h // 2
        if not steps and (P.infinity or not cur.mul(ell, P).infinity):
            raise InvalidKernelError(
                f"kernel generator must have exact order {n}")
        step = velu_step(cur, P, ell)
        stack = [(evaluate(step, Q), h - 1) for Q, h in stack]
        cur = step.codomain
        steps.append(step)
    if not evaluate(steps[-1], P).infinity:
        raise InvalidKernelError("kernel not annihilated by its own chain")
    return IsogenyChain(tuple(steps), n, E, cur)


def full_kernel_quotient(E: EllipticCurve, kernel_points) -> VeluStep:
    """Single-shot quotient by an arbitrary finite subgroup.

    kernel_points must be all nonzero points of a subgroup, in any
    order.  Used as an independent oracle against chain composition;
    cost is quadratic in the subgroup size, fine at desk scale.
    """
    pts = tuple(kernel_points)
    seen = set()
    for Q in pts:
        E.check_point(Q)
        if Q.infinity:
            raise InvalidKernelError("identity listed as a kernel point")
        seen.add((Q.x, Q.y))
    if len(seen) != len(pts):
        raise InvalidKernelError("duplicate kernel points")
    for Q in pts:
        if (Q.x, -Q.y) not in seen:
            raise InvalidKernelError("kernel set not closed under negation")
    return VeluStep(E, _codomain(E, pts), pts)

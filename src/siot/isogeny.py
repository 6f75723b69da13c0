"""Explicit separable isogenies from kernel subgroups, and the walk
along a prime-power-degree chain that maps the points it is given.

A single step quotients a curve by a small subgroup: the codomain
coefficients come from sums over the nonzero kernel points,

    a' = a - 5 * sum(3*x_Q^2 + a)
    b' = b - 7 * sum(5*x_Q^3 + 3*a*x_Q + 2*b)

and a point maps by adding, for each kernel point Q, the offset between
the translate P+Q and Q itself.  Both formulas are valid for any
finite kernel subgroup.

``push_through`` maps a whole list of points through a step at once:
every translate's chord slope needs 1/(x_Q - x_P), and all of those are
inverted together with one field inversion (Montgomery's trick).  Q and
-Q share their denominator, and a point whose x is a kernel x is itself
a kernel point and maps to the identity.  The translate loop and the
codomain sums are straight-line arithmetic on the unpacked integer
coordinates; points and curves enter and leave them as ``Fp2`` values.

A chain of degree ell^e takes e such steps.  The order-ell kernel of
each step is found by a balanced traversal that keeps the intermediate
multiples of the kernel generator and pushes them through every step,
so a chain costs O(e log e) multiplications by ell rather than e^2/2.
The caller's points ride the same pushes, and nothing of the walk is
kept: a chain is its codomain and the images of those points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import EllipticCurve, Point, INFINITY
from .errors import InvalidKernelError
from .field import Fp2, inv_batch

@dataclass(frozen=True)
class VeluStep:
    """One separable isogeny, recorded by its kernel's nonzero points."""

    domain: EllipticCurve
    codomain: EllipticCurve
    kernel_points: tuple[Point, ...]


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
    p = E.ctx.p
    aa, ab, ba, bb = E.A.a, E.A.b, E.B.a, E.B.b
    va = vb = wa = wb = 0
    for Q in kernel_points:
        xa, xb = Q.x.a, Q.x.b
        xxa, xxb = (xa + xb) * (xa - xb) % p, 2 * xa * xb % p
        va += 3 * xxa + aa
        vb += 3 * xxb + ab
        wa += (5 * (xxa * xa - xxb * xb) + 3 * (aa * xa - ab * xb)
               + 2 * ba) % p
        wb += (5 * (xxa * xb + xxb * xa) + 3 * (aa * xb + ab * xa)
               + 2 * bb) % p
    return EllipticCurve(Fp2(E.ctx, aa - 5 * va, ab - 5 * vb),
                         Fp2(E.ctx, ba - 7 * wa, bb - 7 * wb))


def velu_step(E: EllipticCurve, K: Point, ell: int) -> VeluStep:
    """Quotient E by the order-ell subgroup generated by K.

    K must have exact order ell: ``cyclic_subgroup`` raises
    InvalidKernelError otherwise.
    """
    kernel = cyclic_subgroup(E, K, ell)
    return VeluStep(E, _codomain(E, kernel), kernel)


def push_through(phi: VeluStep, points) -> list[Point]:
    """Images of a list of points under one step, with one batched
    inversion for the whole list.

    Kernel points map to the identity; everything else by the translate
    offsets.  The images always lie on the codomain.
    """
    ctx = phi.domain.ctx
    p = ctx.p
    kernel = {}                      # x_Q -> [y_Q], the pairs Q and -Q
    for Q in phi.kernel_points:
        kernel.setdefault((Q.x.a, Q.x.b), []).append((Q.y.a, Q.y.b))
    to_o = [P.infinity or (P.x.a, P.x.b) in kernel for P in points]
    dens = [((xqa - P.x.a) % p, (xqb - P.x.b) % p)
            for P, o in zip(points, to_o) if not o for xqa, xqb in kernel]
    invs = iter(inv_batch(ctx, dens))
    images = []
    for P, o in zip(points, to_o):
        if o:
            images.append(INFINITY)
            continue
        xpa, xpb, ypa, ypb = P.x.a, P.x.b, P.y.a, P.y.b
        xa, xb, ya, yb = xpa, xpb, ypa, ypb
        for (xqa, xqb), yqs in kernel.items():
            ia, ib = next(invs)
            for yqa, yqb in yqs:
                # slope of the chord through P and Q, then P + Q
                ta, tb = yqa - ypa, yqb - ypb
                la, lb = (ta * ia - tb * ib) % p, (ta * ib + tb * ia) % p
                sxa = ((la + lb) * (la - lb) - xpa - xqa) % p
                sxb = (2 * la * lb - xpb - xqb) % p
                ua, ub = xpa - sxa, xpb - sxb
                xa += sxa - xqa
                xb += sxb - xqb
                ya += la * ua - lb * ub - ypa - yqa
                yb += la * ub + lb * ua - ypb - yqb
        images.append(Point(Fp2(ctx, xa, xb), Fp2(ctx, ya, yb)))
    return images


def evaluate(phi: VeluStep, P: Point) -> Point:
    """Image of one point under one step."""
    return push_through(phi, [P])[0]


def isogeny_chain(E: EllipticCurve, K: Point, ell: int, e: int,
                  push) -> tuple[EllipticCurve, list[Point]]:
    """The codomain of the degree-ell^e isogeny with kernel <K>, and the
    images of the points in ``push``, by e steps of degree ell.

    Step i quotients out the order-ell point [ell^(e-1-i)]K_i, where K_i
    is K pushed through the first i steps.  Those points are reached by
    a balanced traversal (De Feo-Jao-Plut, ePrint 2011/506, 4.2.2)
    rather than by a fresh scalar multiple per step: a stack holds
    points [ell^(e-h-i)]K_i at heights h, the top is split by
    multiplying by ell^(h//2) until it reaches height 1, and after each
    step every stacked point is pushed through it.  That costs
    O(e log e) multiplications by ell and evaluations instead of e^2/2,
    and since the steps are homomorphisms each step sees the same point.
    The points in ``push`` join the stack's batch at every step, so a
    step still makes one inversion.
    """
    n = ell ** e
    if e < 1:
        raise InvalidKernelError(f"kernel generator must have exact order {n}")
    cur = E
    pushed = list(push)
    stack = [(K, e)]
    while stack:
        P, h = stack.pop()
        while h > 1:
            stack.append((P, h))
            P, h = cur.mul(ell ** (h // 2), P), h - h // 2
        # [ell^(e-1)]K of order ell makes K of order ell^e; every later
        # step's point, and K's image under the last step, follow from it
        if cur is E and (P.infinity or not cur.mul(ell, P).infinity):
            raise InvalidKernelError(
                f"kernel generator must have exact order {n}")
        step = velu_step(cur, P, ell)
        images = push_through(step, [Q for Q, _ in stack] + pushed)
        stack = [(Q, h - 1) for Q, (_, h) in zip(images, stack)]
        pushed = images[len(stack):]
        cur = step.codomain
    return cur, pushed

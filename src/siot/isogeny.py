"""Explicit separable isogenies from kernel subgroups, and the walk
along a prime-power-degree chain that maps the points it is given.

A single step quotients a curve by a small subgroup: the codomain
coefficients come from sums over the nonzero kernel points,

    a' = a - 5 * sum(3*x_Q^2 + a)
    b' = b - 7 * sum(5*x_Q^3 + 3*a*x_Q + 2*b)

and a point maps by adding, for each kernel point Q, the offset between
the translate P+Q and Q itself.  Both formulas are valid for any
finite kernel subgroup.

One translate loop, ``_translate``, maps a whole list of points through
a step at once: every translate's chord slope needs 1/(x_Q - x_P), and
all of those are inverted together with one field inversion
(Montgomery's trick).  Its points and kernel points may be Jacobian:
their Z join the same batch, and each denominator is written
projectively.  Q and -Q share their denominator, and a point whose x is
a kernel x is itself a kernel point and maps to the identity.
``push_through`` and the chain walk both use it.  The translate loop and
the codomain sums are straight-line arithmetic on the unpacked integer
coordinates; points and curves enter and leave them as ``Fp2`` values.

A chain of degree ell^e takes e such steps.  The order-ell kernel of
each step is found by a balanced traversal that keeps the intermediate
multiples of the kernel generator, in Jacobian coordinates, and pushes
them through every step, so a chain costs O(e log e) multiplications by
ell rather than e^2/2, and one inversion per step (two for ell >= 5).
The caller's points ride the same pushes, and nothing of the walk is
kept: a chain is its codomain and the images of those points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import (JAC_INFINITY, EllipticCurve, Point, jac_add,
                    jac_add_affine, jac_mul, jac_normalize, jacobian,
                    unit_point)
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
    """The n - 1 nonzero points [1]K, ..., [n-1]K of <K>, for K of exact
    order n.

    [i]K is walked in Jacobian coordinates up to i = n - 1.  No Z may
    vanish on the way, and [n-1]K must be -K, which is [n]K = O.  Since
    [n-i]K = -[i]K, only the points with 2 <= i <= n/2 are brought to
    affine, by one batched inversion; for n <= 3 there are none, and
    nothing is inverted.
    """
    if K.infinity:
        raise InvalidKernelError(f"generator order divides {n} improperly")
    A, p = (E.A.a, E.A.b), E.ctx.p
    xy = (xa, xb), (ya, yb) = (K.x.a, K.x.b), (K.y.a, K.y.b)
    T, half = (*xy, (1, 0)), []
    for i in range(2, n):
        T = jac_add_affine(T, xy, A, p)[0]
        if T[2] == (0, 0):
            raise InvalidKernelError(f"generator order divides {n} improperly")
        if i <= n // 2:
            half.append(T)
    # [n]K = O when [n-1]K = (X, Y, Z) is -K = (x*Z^2, -y*Z^3, Z)
    X, Y, (za, zb) = T
    zza, zzb = (za + zb) * (za - zb) % p, 2 * za * zb % p
    zca, zcb = (zza * za - zzb * zb) % p, (zza * zb + zzb * za) % p
    if n < 2 or (X, Y) != (((xa * zza - xb * zzb) % p,
                            (xa * zzb + xb * zza) % p),
                           ((yb * zcb - ya * zca) % p,
                            (-ya * zcb - yb * zca) % p)):
        raise InvalidKernelError(f"generator does not have order {n}")
    pts = [K]
    if half:
        invs = inv_batch(E.ctx, [T[2] for T in half])
        pts += [unit_point(E.ctx, jac_normalize(T, zi, p))
                for T, zi in zip(half, invs)]
    return tuple(pts + [E.neg(Q) for Q in reversed(pts[:(n - 1) // 2])])


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


def _translate(ctx, kernel, points):
    """The kernel points rescaled to Z = 1, and the images of ``points``
    under the step with that kernel, by one batched inversion.

    ``kernel`` holds one Jacobian point Q per x-coordinate of the
    kernel's nonzero points; -Q is in the kernel too, and is Q itself
    when y_Q = 0.  ``points`` are Jacobian.  The inversion covers every
    Z other than 1 and every chord denominator, written projectively as
    x_Q - x_P = (X_Q*Z_P^2 - X_P*Z_Q^2) / (Z_Q^2*Z_P^2).  O, and a point
    with a kernel x, which is a kernel point, map to O; the other images
    have Z = 1.
    """
    p = ctx.p
    dens = []
    ks = []                      # each Q with Z_Q^2, None when Z_Q = 1
    for Q in kernel:
        za, zb = Q[2]
        if za == 1 and zb == 0:
            ks.append((Q, None))
        else:
            ks.append((Q, ((za + zb) * (za - zb) % p, 2 * za * zb % p)))
            dens.append((za, zb))
    live = []                    # each P that maps off O, with Z_P^2
    for i, P in enumerate(points):
        (xpa, xpb), _, (za, zb) = P
        if za == 0 and zb == 0:
            continue
        zp = None
        if za != 1 or zb != 0:
            zp = (za + zb) * (za - zb) % p, 2 * za * zb % p
        ds = []
        for ((xqa, xqb), _, _), zq in ks:
            # X_Q*Z_P^2 - X_P*Z_Q^2, skipping a square that is 1
            ua, ub, va, vb = xqa, xqb, xpa, xpb
            if zp is not None:
                ua, ub = xqa * zp[0] - xqb * zp[1], xqa * zp[1] + xqb * zp[0]
            if zq is not None:
                va, vb = xpa * zq[0] - xpb * zq[1], xpa * zq[1] + xpb * zq[0]
            ds.append(((ua - va) % p, (ub - vb) % p))
        if (0, 0) in ds:         # a kernel point
            continue
        if zp is not None:
            dens.append((za, zb))
        dens += ds
        live.append((i, P, zp))
    invs = iter(inv_batch(ctx, dens))
    affine = [Q if zq is None else jac_normalize(Q, next(invs), p)
              for Q, zq in ks]
    kpts = [(x, (y,) if y == (0, 0) else (y, (-y[0], -y[1])), zq)
            for (x, y, _), (_, zq) in zip(affine, ks)]
    images = [JAC_INFINITY] * len(points)
    for i, P, zp in live:
        if zp is not None:
            P = jac_normalize(P, next(invs), p)
        (xpa, xpb), (ypa, ypb), _ = P
        xa, xb, ya, yb = xpa, xpb, ypa, ypb
        for (xqa, xqb), ys, zq in kpts:
            # 1/(x_Q - x_P): Z_Q^2*Z_P^2 over the projective difference
            ia, ib = next(invs)
            for z in (zq, zp):
                if z is not None:
                    ia, ib = (ia * z[0] - ib * z[1]) % p, \
                        (ia * z[1] + ib * z[0]) % p
            for yqa, yqb in ys:
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
        images[i] = (xa % p, xb % p), (ya % p, yb % p), (1, 0)
    return affine, images


def push_through(phi: VeluStep, points) -> list[Point]:
    """Images of a list of points under one step, with one batched
    inversion for the whole list.

    Kernel points map to the identity; everything else by the translate
    offsets.  The images always lie on the codomain.
    """
    ctx = phi.domain.ctx
    kernel = {}                  # one kernel point per x
    for Q in phi.kernel_points:
        kernel.setdefault((Q.x.a, Q.x.b), jacobian(Q))
    _, images = _translate(ctx, list(kernel.values()),
                           [jacobian(P) for P in points])
    return [unit_point(ctx, T) for T in images]


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

    The multiples stay Jacobian.  At each step the kernel points
    [1]K', ..., [ell//2]K' of the order-ell point K' are formed in
    Jacobian too, and one batched inversion brings them and the stack
    to Z = 1 and inverts every chord denominator of the push; then
    ``velu_step`` takes the affine K'.  The points in ``push`` join that
    batch, so a step makes one inversion, and one more inside
    ``velu_step`` when ell >= 5.
    """
    n = ell ** e
    if e < 1:
        raise InvalidKernelError(f"kernel generator must have exact order {n}")
    ctx, p, cur = E.ctx, E.ctx.p, E
    pushed = [jacobian(P) for P in push]
    stack = [(jacobian(K), e)]
    while stack:
        T, h = stack.pop()
        A = (cur.A.a, cur.A.b)
        while h > 1:
            stack.append((T, h))
            T, h = jac_mul(T, ell ** (h // 2), A, p), h - h // 2
        # [ell^(e-1)]K of order ell makes K of order ell^e; every later
        # step's point, and K's image under the last step, follow from it
        if cur is E and (T[2] == (0, 0)
                         or jac_mul(T, ell, A, p)[2] != (0, 0)):
            raise InvalidKernelError(
                f"kernel generator must have exact order {n}")
        kernel = [T]
        for _ in range(ell // 2 - 1):
            kernel.append(jac_add(kernel[-1], T, A, p))
        kernel, images = _translate(ctx, kernel,
                                    [Q for Q, _ in stack] + pushed)
        step = velu_step(cur, unit_point(ctx, kernel[0]), ell)
        stack = [(Q, h - 1) for Q, (_, h) in zip(images, stack)]
        pushed = images[len(stack):]
        cur = step.codomain
    return cur, [unit_point(ctx, T) for T in pushed]

"""Explicit separable isogenies from kernel subgroups, and the walk
along a prime-power-degree chain that maps the points it is given.

A single step quotients a curve by a small subgroup: the codomain
coefficients come from sums over the nonzero kernel points,

    a' = a - 5 * sum(3*x_Q^2 + a)
    b' = b - 7 * sum(5*x_Q^3 + 3*a*x_Q + 2*b)

and a point maps by adding, for each kernel point Q, the offset between
the translate P+Q and Q itself.  Both formulas are valid for any
finite kernel subgroup.

A step's kernel is written as one point Q per pair +-Q of its nonzero
points: -Q has Q's x, so it adds the same terms to the codomain sums
and shares Q's chord denominators, and it is Q itself when y_Q = 0.
``velu_step`` takes such a list, affine, from a curve's coefficient
pairs (A, B) to the codomain's.  One straight-line pass,
``_translate``, maps a whole list of points through the step at once:
every translate's chord slope needs 1/(x_Q - x_P), and all of those are
inverted together, by one ``field.inv_batch`` and so one field
inversion.  Its points and kernel points may be Jacobian: their Z join
the same batch, and each denominator is written projectively.  A point
whose x is a kernel x is itself a kernel point and maps to the
identity.  ``evaluate`` maps one ``Point`` through it.
The translate loop and the codomain sums are straight-line arithmetic
on integers: points are ``curve``'s Jacobian triples of (a, b) pairs,
and a curve is its coefficient pairs.

A chain of degree ell^e takes e such steps.  The order-ell kernel of
each step is found by a balanced traversal that keeps the intermediate
multiples of the kernel generator, in Jacobian coordinates, and pushes
them through every step, so a chain costs O(e log e) multiplications by
ell rather than e^2/2, and one inversion per step.  The caller's points
ride the same pushes, and nothing of the walk is kept: a chain is its
codomain and the images of those points, the one ``EllipticCurve`` and
the only ``Point``s it builds.
"""

from __future__ import annotations

from .curve import (JAC_INFINITY, EllipticCurve, Point, jac_add, jac_mul,
                    jac_normalize, jacobian, unit_point)
from .errors import InvalidKernelError
from .field import Fp2, inv_batch


def kernel_generator(E: EllipticCurve, P: Point, r: int, Q: Point) -> Point:
    """P + [r]Q, the generator of a secret kernel subgroup, by one joint
    multiplication: P joins [r]Q's chain of doublings at its last bit,
    and the sum costs one inversion."""
    return E.mul2(1, P, r, Q)


def velu_step(A, B, kernel, p: int):
    """The coefficients (A', B') of the codomain of y^2 = x^3 + Ax + B by
    the subgroup that ``kernel`` lists: one affine Jacobian point Q per
    pair +-Q of its nonzero points, as ``_translate`` returns them.  Q
    is summed once when y_Q = 0 and otherwise twice, for itself and -Q.
    Coefficients go in and come out as (a, b) pairs, reduced mod p.

    Like ``add`` and ``mul``, it trusts its input: the walk proves its
    generator's order once, and every kernel follows from it.
    """
    (aa, ab), (ba, bb) = A, B
    va = vb = wa = wb = 0
    for (xa, xb), y, _ in kernel:
        m = 1 if y == (0, 0) else 2
        xxa, xxb = (xa + xb) * (xa - xb) % p, 2 * xa * xb % p
        va += m * (3 * xxa + aa)
        vb += m * (3 * xxb + ab)
        wa += m * ((5 * (xxa * xa - xxb * xb) + 3 * (aa * xa - ab * xb)
                    + 2 * ba) % p)
        wb += m * ((5 * (xxa * xb + xxb * xa) + 3 * (aa * xb + ab * xa)
                    + 2 * bb) % p)
    return (((aa - 5 * va) % p, (ab - 5 * vb) % p),
            ((ba - 7 * wa) % p, (bb - 7 * wb) % p))


def _translate(ctx, kernel, points):
    """The kernel points rescaled to Z = 1, and the images of ``points``
    under the step with that kernel, with one inversion.

    ``kernel`` holds one Jacobian point Q per x-coordinate of the
    kernel's nonzero points; -Q is in the kernel too, and is Q itself
    when y_Q = 0.  ``points`` are Jacobian.  O, and a point with a
    kernel x, which is a kernel point, map to O; the other images have
    Z = 1.  Each chord denominator is written projectively, as
    x_Q - x_P = (X_Q*Z_P^2 - X_P*Z_Q^2) / (Z_Q^2*Z_P^2).

    Every Z other than 1 and every chord denominator is inverted by one
    ``inv_batch``, in the order they are formed: the kernel's Z first,
    then each point's Z and its denominators.
    """
    p = ctx.p
    factors = []                 # each value to invert, in order
    qs = []                      # each Q's X, Y and Z^2, None when Z_Q = 1
    for X, Y, Z in kernel:
        zq = None
        if Z != (1, 0):
            za, zb = Z
            zq = (za + zb) * (za - zb) % p, 2 * za * zb % p
            factors.append(Z)
        qs.append((X, Y, zq))
    live = []                    # each P that maps off O, with Z_P^2
    for i, (X, Y, Z) in enumerate(points):
        if Z == (0, 0):
            continue
        xpa, xpb = X
        zp = None
        if Z != (1, 0):
            za, zb = Z
            zp = (za + zb) * (za - zb) % p, 2 * za * zb % p
        ds = [Z] if zp is not None else []
        for (ua, ub), _, zq in qs:
            # X_Q*Z_P^2 - X_P*Z_Q^2, skipping a square that is 1
            va, vb = xpa, xpb
            if zp is not None:
                ua, ub = ua * zp[0] - ub * zp[1], ua * zp[1] + ub * zp[0]
            if zq is not None:
                va, vb = xpa * zq[0] - xpb * zq[1], xpa * zq[1] + xpb * zq[0]
            ds.append(((ua - va) % p, (ub - vb) % p))
        if (0, 0) in ds:         # a kernel point
            continue
        factors += ds
        live.append((i, X, Y, zp))
    invs = iter(inv_batch(ctx, factors))
    affine = []                  # the kernel at Z = 1, returned
    shifts = []                  # each x_Q with the y of Q and of -Q
    for X, Y, zq in qs:
        if zq is not None:
            X, Y, _ = jac_normalize((X, Y, None), next(invs), p)
        affine.append((X, Y, (1, 0)))
        shifts.append((X, (Y,) if Y == (0, 0) else (Y, (-Y[0], -Y[1])), zq))
    images = [JAC_INFINITY] * len(points)
    for i, X, Y, zp in live:
        if zp is not None:
            X, Y, _ = jac_normalize((X, Y, None), next(invs), p)
        (xpa, xpb), (ypa, ypb) = X, Y
        xa, xb, ya, yb = xpa, xpb, ypa, ypb
        for (xqa, xqb), ys, zq in shifts:
            # 1/(x_Q - x_P): Z_Q^2*Z_P^2 over the projective difference
            ia, ib = next(invs)
            if zq is not None:
                ia, ib = (ia * zq[0] - ib * zq[1]) % p, \
                    (ia * zq[1] + ib * zq[0]) % p
            if zp is not None:
                ia, ib = (ia * zp[0] - ib * zp[1]) % p, \
                    (ia * zp[1] + ib * zp[0]) % p
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


def evaluate(E: EllipticCurve, kernel, P: Point) -> Point:
    """Image of P under the step of E with ``kernel``, the list that
    ``velu_step`` takes."""
    return unit_point(E.ctx, _translate(E.ctx, kernel, [jacobian(P)])[1][0])


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
    The optimal split under measured costs (a doubling weighing 8 and a
    push 12 at 2^51*3^32 - 1) saves a few percent of the traversal's
    model cost for ell = 2 and none for ell = 3, and was no faster end
    to end, so the split stays balanced.

    The multiples stay Jacobian.  At each step the kernel points
    [1]K', ..., [ell//2]K' of the order-ell point K' are formed in
    Jacobian too, and one batched inversion brings them and the stack
    to Z = 1 and inverts every chord denominator of the push, and
    ``velu_step`` takes the codomain from those affine kernel points.
    The points in ``push`` join that batch, so a step makes one
    inversion.  The walk carries the curve as its coefficient pairs and
    builds one ``EllipticCurve``, for the last codomain.
    """
    n = ell ** e
    if e < 1:
        raise InvalidKernelError(f"kernel generator must have exact order {n}")
    ctx, p = E.ctx, E.ctx.p
    A, B = (E.A.a, E.A.b), (E.B.a, E.B.b)
    pushed = [jacobian(P) for P in push]
    # the stacked points, and for each the step at which its height,
    # which every step lowers by one, would reach 0
    stack, due, step = [jacobian(K)], [e], 0
    while stack:
        T, h = stack.pop(), due.pop() - step
        while h > 1:
            stack.append(T)
            due.append(step + h)
            T, h = jac_mul(T, ell ** (h // 2), A, p), h - h // 2
        # [ell^(e-1)]K of order ell makes K of order ell^e; every later
        # step's point, and K's image under the last step, follow from it
        if step == 0 and (T[2] == (0, 0)
                         or jac_mul(T, ell, A, p)[2] != (0, 0)):
            raise InvalidKernelError(
                f"kernel generator must have exact order {n}")
        kernel = [T]
        for _ in range(ell // 2 - 1):
            kernel.append(jac_add(kernel[-1], T, A, p)[0])
        kernel, images = _translate(ctx, kernel, stack + pushed)
        A, B = velu_step(A, B, kernel, p)
        step += 1
        stack, pushed = images[:len(stack)], images[len(stack):]
    return (EllipticCurve(Fp2(ctx, *A), Fp2(ctx, *B)),
            [unit_point(ctx, T) for T in pushed])

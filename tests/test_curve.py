"""Short Weierstrass group law, checked against pure-integer affine
arithmetic and literal repeated addition."""

import pytest

from oracles import (affine_add, all_points, ec_add_fp, ec_mul_fp,
                     multiplicative_order, naive_mul, naive_order,
                     reference_step)
from siot import det_rng
from siot.curve import (INFINITY, JAC_INFINITY, EllipticCurve, Point, jac_add,
                        jac_mul, jac_triple)
from siot.errors import InvalidPointError, SamplingError
from siot.field import FieldContext

CTX = FieldContext(431)
E0 = EllipticCurve(CTX.elem(1), CTX.elem(0))


def test_point_membership():
    P = E0.point(CTX.elem(0), CTX.elem(0))
    assert E0.is_on_curve(P)
    assert not E0.is_on_curve(Point(CTX.elem(1), CTX.elem(1)))
    with pytest.raises(InvalidPointError):
        E0.check_point(Point(CTX.elem(1), CTX.elem(1)))
    assert E0.is_on_curve(INFINITY)


def test_is_on_curve_matches_the_equation_exhaustively():
    """Every (x, y) of F_{11^2}^2, on y^2 = x^3 + x and on a curve with
    B != 0, against the curve equation in Fp2 objects."""
    ctx = FieldContext(11)
    elems = [ctx.elem(a, b) for a in range(11) for b in range(11)]
    for E in (EllipticCurve(ctx.elem(1), ctx.elem(0)),
              EllipticCurve(ctx.elem(3, 5), ctx.elem(7, 2))):
        on = 0
        for x in elems:
            rhs = x * x * x + E.A * x + E.B
            for y in elems:
                want = y * y == rhs
                assert E.is_on_curve(Point(x, y)) == want
                on += want
        assert on > 0


def test_group_law_against_integer_oracle():
    """Play 300 random additions on a curve with F_p points only and
    compare coordinate by coordinate with the pure-int version."""
    p, A, B = 10007, 1, 9
    ctx = FieldContext(p)
    E = EllipticCurve(ctx.elem(A), ctx.elem(B))
    rng = det_rng(b"curve-oracle")
    pool = []
    while len(pool) < 20:
        x = rng.randrange(p)
        y2 = (x * x * x + A * x + B) % p
        if pow(y2, (p - 1) // 2, p) == 1:
            y = ctx.elem(y2).sqrt()
            if y is not None and y.b == 0:
                pool.append((x, y.a))
    for _ in range(300):
        P1 = rng.choice(pool + [None])
        P2 = rng.choice(pool + [None])
        want = ec_add_fp(p, A, B, P1, P2)
        lift = lambda t: (INFINITY if t is None
                          else E.point(ctx.elem(t[0]), ctx.elem(t[1])))
        got = E.add(lift(P1), lift(P2))
        if want is None:
            assert got.infinity
        else:
            assert (got.x.a, got.y.a) == want and got.x.b == got.y.b == 0
    k = rng.randrange(1, 5000)
    want = ec_mul_fp(p, A, B, k, pool[0])
    got = E.mul(k, lift(pool[0]))
    assert (got.x.a, got.y.a) == want


def test_mul_matches_repeated_addition():
    rng = det_rng(1)
    P = E0.random_point(rng)
    for k in (0, 1, 2, 3, 17, 50, -7):
        assert E0.mul(k, P) == naive_mul(E0, k, P)


def test_group_exponent_annihilates():
    rng = det_rng(2)
    for _ in range(25):
        P = E0.random_point(rng)
        assert E0.mul(432, P).infinity


def test_two_torsion_of_base_curve():
    # x^3 + x = x(x^2 + 1): roots 0, i, -i
    for x in (CTX.elem(0), CTX.elem(0, 1), CTX.elem(0, -1)):
        P = E0.point(x, CTX.zero())
        assert E0.add(P, P).infinity
        assert naive_order(E0, P, 4) == 2


def test_j_invariant_values():
    assert E0.j_invariant() == CTX.elem(1728 % 431)
    # quadratic twist y^2 = x^3 + c^2 x shares the j-invariant
    c2 = CTX.elem(5) * CTX.elem(5)
    assert EllipticCurve(CTX.elem(1) * c2, CTX.zero()).j_invariant() \
        == E0.j_invariant()


def test_point_order_and_torsion_checks():
    rng = det_rng(3)
    P = E0.random_point_of_order(2, 4, 432, rng)
    assert E0.mul(16, P).infinity
    assert naive_order(E0, P, 20) == 16
    Q = E0.random_point_of_order(3, 3, 432, rng)
    assert naive_order(E0, Q, 30) == 27


def test_order_sampling_rejects_impossible():
    rng = det_rng(4)
    with pytest.raises(SamplingError):
        E0.random_point_of_order(5, 1, 432, rng)


def test_order_sampling_proves_torsion_under_a_wrong_exponent():
    """216 understates the exponent 432 of E0(F_431^2), so the cofactor
    27 leaves points of order 16; none may come back as a point of
    order 8."""
    for seed in range(20):
        try:
            P = E0.random_point_of_order(2, 3, 216, det_rng(seed))
        except SamplingError:
            continue
        assert E0.mul(8, P).infinity


def test_torsion_basis_is_certified():
    from siot.pairing import sample_torsion_basis, weil_pairing
    rng = det_rng(5)
    for ell, e in ((2, 4), (3, 3)):
        n = ell ** e
        P, Q = sample_torsion_basis(E0, ell, e, 432, rng)
        assert E0.mul(n, P).infinity and E0.mul(n, Q).infinity
        zeta = weil_pairing(E0, P, Q, n)
        assert multiplicative_order(zeta, n) == n


def test_neg_sub_consistency():
    rng = det_rng(7)
    P, Q = E0.random_point(rng), E0.random_point(rng)
    assert E0.add(P, E0.neg(P)).infinity
    assert E0.sub(P, Q) == E0.add(P, E0.neg(Q))


def test_mul_exhaustive_against_repeated_addition():
    """Every point of two curves over F_{11^2}, and every k with
    |k| <= twice the point's order.  The curves have full 2-torsion
    (Y = 0, where a doubling gives O) and points of order 3, on which
    the accumulator meets P itself ([5]P: P, 2P, 4P = P, then + P) and
    -P ([3]P: P, 2P = -P, then + P).  The second curve, the quotient
    by the 2-torsion point (i, 0), has A = 0 and B outside F_11."""
    ctx = FieldContext(11)
    E = EllipticCurve(ctx.elem(1), ctx.elem(0))
    E2 = reference_step(E, Point(ctx.elem(0, 1), ctx.zero()), 2).codomain
    assert E2.A.is_zero() and E2.B.b
    for curve in (E, E2):
        pts = all_points(curve)
        assert len(pts) == 144
        orders = [naive_order(curve, P, 12) for P in pts]
        assert orders.count(2) == 3 and orders.count(3) == 8
        for P, order in zip(pts, orders):
            for k in range(-2 * order, 2 * order + 1):
                assert curve.mul(k, P) == naive_mul(curve, k, P), (P, k)


def test_add_matches_affine_oracle_exhaustively():
    """E.add against the chord-tangent oracle for every ordered pair of
    points, O included, on the two F_{11^2} curves above: doublings,
    Y = 0 doublings, P + (-P) and every chord."""
    ctx = FieldContext(11)
    E = EllipticCurve(ctx.elem(1), ctx.elem(0))
    E2 = reference_step(E, Point(ctx.elem(0, 1), ctx.zero()), 2).codomain
    for curve in (E, E2):
        pts = all_points(curve)
        for P in pts:
            for Q in pts:
                assert curve.add(P, Q) == affine_add(curve, P, Q), (P, Q)


def _lift(P, z):
    """P as a Jacobian triple with Z = z: (x z^2, y z^3, z)."""
    if P.infinity:
        return JAC_INFINITY
    X, Y = P.x * z * z, P.y * z * z * z
    return (X.a, X.b), (Y.a, Y.b), (z.a, z.b)


def test_jacobian_steps_match_the_oracle_exhaustively():
    """The full addition, the tripling and ``jac_mul`` from a base with
    Z != 1, against the chord-tangent oracle for every point (pair) of
    the two F_{11^2} curves above, O and 2- and 3-torsion included."""
    ctx = FieldContext(11)
    E = EllipticCurve(ctx.elem(1), ctx.elem(0))
    E2 = reference_step(E, Point(ctx.elem(0, 1), ctx.zero()), 2).codomain
    for curve in (E, E2):
        A, p = (curve.A.a, curve.A.b), ctx.p
        pts = all_points(curve) + [INFINITY]
        for P in pts:
            T = _lift(P, ctx.elem(2, 3))
            assert curve._affine(jac_triple(T, A, p)) == naive_mul(curve, 3, P)
            for k in (1, 2, 3, 5, 6, 9, 12, 18, 25):
                assert curve._affine(jac_mul(T, k, A, p)) \
                    == naive_mul(curve, k, P), (P, k)
            for Q in pts:
                U = _lift(Q, ctx.elem(4, 1))
                assert curve._affine(jac_add(T, U, A, p)) \
                    == affine_add(curve, P, Q), (P, Q)

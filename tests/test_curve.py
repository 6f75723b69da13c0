"""Short Weierstrass group law, checked against pure-integer affine
arithmetic and literal repeated addition."""

import pytest

from oracles import (SHAPES, affine_add, affine_slope, all_points, ec_add_fp,
                     ec_mul_fp, is_torsion_basis, multiplicative_order,
                     naive_mul, naive_order, pairs_with_verdicts,
                     reference_step, shape_id, shape_params)
from siot import det_rng, gen_params
from siot.curve import (INFINITY, EllipticCurve, jac_add, jac_mul, jac_mul2,
                        jac_triple, point_text)
from siot.errors import InvalidPointError, ProtocolAbort, SamplingError
from siot.field import FieldContext
from siot.sidh import PublicParams, SidhPublic, Torsion, public_to_obj
from siot.siot import read_public

CTX = FieldContext(431)
E0 = EllipticCurve(CTX, (1, 0), (0, 0))


def test_point_membership():
    """(0, 0) and O are on y^2 = x^3 + x, and (1, 1) is refused in the
    words of ``point_text`` and the curve's repr."""
    P = E0.point((0, 0), (0, 0))
    assert P == ((0, 0), (0, 0), (1, 0))
    assert E0.is_on_curve(P)
    off = ((1, 0), (1, 0), (1, 0))
    assert not E0.is_on_curve(off)
    with pytest.raises(InvalidPointError) as exc:
        E0.check_point(off)
    assert str(exc.value) == ("Point(1+0i, 1+0i) not on EllipticCurve("
                              "A=Fp2(1 + 0i mod 431), B=Fp2(0 + 0i mod 431))")
    assert E0.is_on_curve(INFINITY)
    assert point_text(INFINITY) == "Point(infinity)"


def test_is_on_curve_matches_the_equation_exhaustively():
    """Every (x, y) of F_{11^2}^2, on y^2 = x^3 + x and on a curve with
    B != 0, against the curve equation in Fp2 objects."""
    ctx = FieldContext(11)
    elems = [ctx.elem(a, b) for a in range(11) for b in range(11)]
    for E in (EllipticCurve(ctx, (1, 0), (0, 0)),
              EllipticCurve(ctx, (3, 5), (7, 2))):
        A, B = ctx.elem(*E.A), ctx.elem(*E.B)
        on = 0
        for x in elems:
            rhs = x * x * x + A * x + B
            for y in elems:
                want = y * y == rhs
                assert E.is_on_curve(((x.a, x.b), (y.a, y.b), (1, 0))) == want
                on += want
        assert on > 0


def test_group_law_against_integer_oracle():
    """Play 300 random additions on a curve with F_p points only and
    compare coordinate by coordinate with the pure-int version."""
    p, A, B = 10007, 1, 9
    ctx = FieldContext(p)
    E = EllipticCurve(ctx, (A, 0), (B, 0))
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
                          else E.point((t[0], 0), (t[1], 0)))
        assert E.add(lift(P1), lift(P2)) == lift(want)
    k = rng.randrange(1, 5000)
    assert E.mul(k, lift(pool[0])) == lift(ec_mul_fp(p, A, B, k, pool[0]))


def test_mul_matches_repeated_addition():
    rng = det_rng(1)
    P = E0.random_point(rng)
    for k in (0, 1, 2, 3, 17, 50, -7):
        assert E0.mul(k, P) == naive_mul(E0, k, P)


def test_group_exponent_annihilates():
    rng = det_rng(2)
    for _ in range(25):
        P = E0.random_point(rng)
        assert E0.mul(432, P) == INFINITY


def test_two_torsion_of_base_curve():
    # x^3 + x = x(x^2 + 1): roots 0, i, -i
    for x in ((0, 0), (0, 1), (0, -1)):
        P = E0.point(x, (0, 0))
        assert E0.add(P, P) == INFINITY
        assert naive_order(E0, P, 4) == 2


def test_j_invariant_values():
    assert E0.j_invariant() == CTX.elem(1728 % 431)
    # quadratic twist y^2 = x^3 + c^2 x shares the j-invariant
    assert EllipticCurve(CTX, (5 * 5, 0), (0, 0)).j_invariant() \
        == E0.j_invariant()


def test_point_order_and_torsion_checks():
    rng = det_rng(3)
    for ell, e in ((2, 4), (3, 3)):
        n = ell ** e
        for P in E0.sample_torsion_basis(ell, e, 432, rng):
            assert E0.mul(n, P) == INFINITY
            assert naive_order(E0, P, n + 4) == n


class _Zeros:
    """An rng that draws 0 every time: every sampled point is (0, 0), of
    order 2 on E0."""

    def randrange(self, *args):
        return 0


def test_order_sampling_rejects_impossible():
    """An order that does not divide the exponent is refused at once;
    draws that never reach the order, or never complete a basis, give
    up after SAMPLING_TRIES."""
    rng = det_rng(4)
    with pytest.raises(SamplingError, match="does not divide"):
        E0.sample_torsion_basis(5, 1, 432, rng)
    # the cofactor 2 sends (0, 0) to O
    with pytest.raises(SamplingError, match="no point of order 2"):
        E0.sample_torsion_basis(2, 1, 4, _Zeros())
    # (0, 0) has order 2, and each later draw is the same point
    with pytest.raises(SamplingError, match="no independent partner"):
        E0.sample_torsion_basis(2, 1, 2, _Zeros())


def test_order_sampling_proves_torsion_under_a_wrong_exponent():
    """216 understates the exponent 432 of E0(F_431^2), so the cofactor
    27 leaves points of order 16; no basis may come back with a point
    of order 16 as one of order 8."""
    sampled = 0
    for seed in range(100):
        try:
            basis = E0.sample_torsion_basis(2, 3, 216, det_rng(seed))
        except SamplingError:
            continue
        sampled += 1
        for P in basis:
            assert E0.mul(8, P) == INFINITY
    assert sampled > 0


def test_torsion_basis_is_certified():
    from siot.pairing import weil_pairing
    rng = det_rng(5)
    for ell, e in ((2, 4), (3, 3)):
        n = ell ** e
        P, Q = E0.sample_torsion_basis(ell, e, 432, rng)
        assert E0.mul(n, P) == E0.mul(n, Q) == INFINITY
        zeta = weil_pairing(E0, P, Q, n)
        assert multiplicative_order(zeta, n) == n


def test_neg_sub_consistency():
    rng = det_rng(7)
    P, Q = E0.random_point(rng), E0.random_point(rng)
    assert E0.add(P, E0.neg(P)) == INFINITY
    assert E0.sub(P, Q) == E0.add(P, E0.neg(Q))


def test_mul_exhaustive_against_repeated_addition():
    """Every point of two curves over F_{11^2}, and every k with
    |k| <= twice the point's order.  The curves have full 2-torsion
    (Y = 0, where a doubling gives O) and points of order 3, on which
    the accumulator meets P itself ([5]P: P, 2P, 4P = P, then + P) and
    -P ([3]P: P, 2P = -P, then + P).  The second curve, the quotient
    by the 2-torsion point (i, 0), has A = 0 and B outside F_11."""
    ctx = FieldContext(11)
    E = EllipticCurve(ctx, (1, 0), (0, 0))
    E2 = reference_step(E, ((0, 1), (0, 0), (1, 0)), 2).codomain
    assert E2.A == (0, 0) and E2.B[1]
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
    E = EllipticCurve(ctx, (1, 0), (0, 0))
    E2 = reference_step(E, ((0, 1), (0, 0), (1, 0)), 2).codomain
    for curve in (E, E2):
        pts = all_points(curve)
        for P in pts:
            for Q in pts:
                assert curve.add(P, Q) == affine_add(curve, P, Q), (P, Q)


def _lift(P, z):
    """P as a Jacobian triple with Z = z, an ``Fp2`` value:
    (x z^2, y z^3, z)."""
    if P == INFINITY:
        return INFINITY
    x, y = z.ctx.elem(*P[0]), z.ctx.elem(*P[1])
    X, Y = x * z * z, y * z * z * z
    return (X.a, X.b), (Y.a, Y.b), (z.a, z.b)


def test_jacobian_steps_match_the_oracle_exhaustively():
    """The addition, the tripling, ``jac_mul`` and ``jac_mul2`` from
    bases with Z != 1, and the addition with a second point at Z = 1
    too, against the chord-tangent oracle for every point
    (pair) of the two F_{11^2} curves above, O and 2- and 3-torsion
    included.  The addition's slope numerator N gives the oracle's chord
    or tangent slope as N / Z(T + U) whenever the sum is not O, and is
    None when either point is O."""
    ctx = FieldContext(11)
    E = EllipticCurve(ctx, (1, 0), (0, 0))
    E2 = reference_step(E, ((0, 1), (0, 0), (1, 0)), 2).codomain
    for curve in (E, E2):
        A, p = curve.A, ctx.p
        pts = all_points(curve) + [INFINITY]
        threes = {Q: naive_mul(curve, 3, Q) for Q in pts}
        for P in pts:
            T = _lift(P, ctx.elem(2, 3))
            assert curve._affine(jac_triple(T, A, p)) == threes[P]
            for k in (1, 2, 3, 5, 6, 9, 12, 18, 25):
                assert curve._affine(jac_mul(T, k, A, p)) \
                    == naive_mul(curve, k, P), (P, k)
            fives = naive_mul(curve, 5, P)
            for Q in pts:
                want = affine_add(curve, P, Q)
                U = _lift(Q, ctx.elem(4, 1))
                for V in (U, _lift(Q, ctx.one())):
                    S, N = jac_add(T, V, A, p)
                    assert curve._affine(S) == want, (P, Q)
                    if INFINITY in (P, Q):
                        assert N is None, (P, Q)
                    elif want != INFINITY:
                        assert ctx.elem(*N) * ctx.elem(*S[2]).inv() \
                            == affine_slope(curve, P, Q), (P, Q)
                assert curve._affine(jac_mul2(T, 5, U, 3, A, p)) \
                    == affine_add(curve, fives, threes[Q]), (P, Q)


# -- the joint multiplication -------------------------------------------------

MUL2_SCALARS = (0, 1, -1, 2, 3, 7, 12, -13, 30)


def _multiples(curve, P):
    """[0]P, [1]P, ... up to the order of P, by repeated addition."""
    out = [INFINITY, P]
    while out[-1] != INFINITY:
        out.append(affine_add(curve, out[-1], P))
    return out[:-1]


def test_mul2_matches_repeated_addition_exhaustively():
    """[s]P + [t]Q against the chord-tangent oracle for every ordered
    pair of points of the two F_{11^2} curves, O included.  Each pair
    takes one (s, t) of the scalar grid, cycling so that every grid pair
    meets over 200 point pairs, and every third pair also (+-n, t), with
    n the order of P.  Each point P is also paired with Q = P and
    Q = -P, where the stored P + Q is a doubling or O, under nine grid
    pairs, so that every grid pair meets both cases on 16 points."""
    ctx = FieldContext(11)
    E = EllipticCurve(ctx, (1, 0), (0, 0))
    E2 = reference_step(E, ((0, 1), (0, 0), (1, 0)), 2).codomain
    grid = [(s, t) for s in MUL2_SCALARS for t in MUL2_SCALARS]
    for curve in (E, E2):
        pts = all_points(curve)
        mults = {P: _multiples(curve, P) for P in pts}

        def want(s, P, t, Q):
            mP, mQ = mults[P], mults[Q]
            return affine_add(curve, mP[s % len(mP)], mQ[t % len(mQ)])

        i = 0
        for P in pts:
            n = len(mults[P])
            for Q in pts:
                s, t = grid[i % len(grid)]
                assert curve.mul2(s, P, t, Q) == want(s, P, t, Q), (P, s, Q, t)
                if i % 3 == 0:
                    s = n if i % 2 else -n
                    assert curve.mul2(s, P, t, Q) == want(s, P, t, Q), \
                        (P, s, Q, t)
                i += 1
            for Q in (P, curve.neg(P)):
                for s, t in grid[i % 9::9]:
                    assert curve.mul2(s, P, t, Q) == want(s, P, t, Q), \
                        (P, s, Q, t)


@pytest.mark.parametrize("name", ["p102", "p434"])
def test_mul2_matches_mul_on_sampled_points(name, request):
    """Scalars below 40 against repeated addition, and full-size ones,
    0, +-1 and +-n among them, against two ``mul`` and an ``add``, on
    both torsion bases and random points of each set."""
    params = request.getfixturevalue(name)
    E = params.curve
    rng = det_rng(b"mul2/" + name.encode())
    pts = [*params.side_a.basis, *params.side_b.basis,
           E.random_point(rng), E.random_point(rng)]
    n = params.side_a.n
    big = (0, 1, -1, n, -n, n - 1, params.p + 1)
    for k in range(12):
        P, Q = rng.choice(pts), rng.choice(pts)
        if k % 4 == 0:
            Q = P if k % 8 else E.neg(P)
        s, t = rng.randrange(-40, 40), rng.randrange(-40, 40)
        assert E.mul2(s, P, t, Q) == affine_add(
            E, naive_mul(E, s, P), naive_mul(E, t, Q)), (k, s, t)
        s = rng.choice(big + (rng.randrange(params.p),))
        t = rng.choice(big + (-rng.randrange(params.p),))
        assert E.mul2(s, P, t, Q) == E.add(E.mul(s, P), E.mul(t, Q)), \
            (k, s, t)


# -- the basis test against the pairing certificate ------------------------

def _receiver_verdict(E, P, Q, ell, e):
    """Whether ``read_public`` accepts (P, Q) on E as a receiver pair
    certified in the ell^e-torsion: ``validate_public``'s exact-order
    test, then the pairing of order ell on the multiples it returns.
    Only the A side's shape and the field matter to that reader."""
    params = PublicParams(E.ctx.p, 1, E,
                          Torsion(ell, e, (INFINITY, INFINITY)),
                          Torsion(1, 1, (INFINITY, INFINITY)))
    try:
        read_public(params, "receiver", public_to_obj(SidhPublic(E, P, Q)))
    except ProtocolAbort as exc:
        assert exc.code == "bad-receiver-key", exc
        return False
    return True


def _torsion(E, pts, ell, e):
    """The ell^e-torsion points among ``pts``: those of exact order
    ell^e, and the others (O included)."""
    exact, lower = [], []
    for P in pts:
        if E.mul(ell ** e, P) == INFINITY:
            (lower if E.mul(ell ** (e - 1), P) == INFINITY
             else exact).append(P)
    return exact, lower


@pytest.mark.parametrize("p, sides", [
    (71, ((2, 3), (3, 2))),      # 71 = 2^3 * 3^2 - 1
    (19, ((5, 1),)),             # 19 = 2^2 * 5 - 1: two x-comparisons
], ids=["p71", "p19"])
def test_is_basis_agrees_with_the_pairing_exhaustively(p, sides):
    """Every ordered pair of exact-order points, against the order-n
    Weil pairing certificate, and so is the receiver's certificate in
    ``read_public``, of order ell on the shared multiples; every pair
    with a point of lower order, O included, is refused by both,
    whichever side it is on.  No curve of ``SHAPES`` has p < 100, so
    these two small curves carry the exhaustive check."""
    ctx = FieldContext(p)
    E = EllipticCurve(ctx, (1, 0), (0, 0))
    pts = all_points(E)
    for ell, e in sides:
        exact, lower = _torsion(E, pts, ell, e)
        assert len(exact) == ell ** (2 * e) - ell ** (2 * e - 2)
        verdicts = set()
        for P in exact:
            for Q in exact:
                want = is_torsion_basis(E, P, Q, ell, e)
                assert E.is_basis(P, Q, ell, e) == want, (P, Q)
                assert _receiver_verdict(E, P, Q, ell, e) == want, (P, Q)
                verdicts.add(want)
            for L in lower:
                assert not E.is_basis(P, L, ell, e), (P, L)
                assert not E.is_basis(L, P, ell, e), (L, P)
                assert not _receiver_verdict(E, P, L, ell, e), (P, L)
                assert not _receiver_verdict(E, L, P, ell, e), (L, P)
        assert verdicts == {True, False}
        assert not E.is_basis(INFINITY, INFINITY, ell, e)
        assert not _receiver_verdict(E, INFINITY, INFINITY, ell, e)


def test_is_basis_compares_with_every_multiple():
    """At ell = 17 the x-comparisons must reach every [k]R, 1 <= k <= 8;
    doublings from R would reach only +-R, +-2R, +-4R and +-8R.  Every
    Q = [a]G + [b]H against G, on p = 17 * 2^4 - 1 = 271: a basis
    exactly when b != 0 mod 17."""
    params = gen_params(17, 1, 2, 4, rng=det_rng(b"tests/ell17"))
    E, (G, H) = params.curve, params.side_a.basis
    for a in range(17):
        for b in range(17):
            Q = E.add(E.mul(a, G), E.mul(b, H))
            assert E.is_basis(G, Q, 17, 1) == (b != 0), (a, b)
            assert is_torsion_basis(E, G, Q, 17, 1) == (b != 0), (a, b)
            assert _receiver_verdict(E, G, Q, 17, 1) == (b != 0), (a, b)


def test_is_basis_refuses_a_point_outside_the_torsion():
    """A point outside the ell^e-torsion raises, P's first, and the error
    names the point."""
    P, Q = E0.sample_torsion_basis(2, 4, 432, det_rng(b"outside"))
    T = E0.sample_torsion_basis(3, 3, 432, det_rng(b"outside3"))[0]
    for args, bad in (((E0.add(P, T), Q), E0.add(P, T)),
                      ((P, E0.add(Q, T)), E0.add(Q, T)),
                      ((T, E0.add(Q, T)), T)):
        with pytest.raises(InvalidPointError, match="not 16-torsion") as exc:
            E0.is_basis(*args, 2, 4)
        assert exc.value.point == bad


@pytest.mark.parametrize("name", ["p431", "p2591", "p102", "p434", *SHAPES],
                         ids=lambda n: n if isinstance(n, str) else shape_id(n))
def test_is_basis_agrees_with_the_pairing_on_sampled_pairs(name, request):
    """30 pairs per set, about half of them dependent, on both towers of
    the named sets and of the small shapes, where ell reaches 11: up to
    ell // 2 = 5 x-comparisons each.  The receiver's certificate in
    ``read_public`` agrees too, and refuses each dependent pair
    (P, [k]P) for a unit k and for a multiple k of ell."""
    if isinstance(name, str):
        params, tag = request.getfixturevalue(name), name.encode()
    else:
        params, tag = shape_params(name), shape_id(name).encode()
    rng = det_rng(b"is-basis/" + tag)
    verdicts = []
    for E, P, Q, ell, e, want in pairs_with_verdicts(params, rng, 15):
        assert E.is_basis(P, Q, ell, e) == want
        assert is_torsion_basis(E, P, Q, ell, e) == want
        assert _receiver_verdict(E, P, Q, ell, e) == want
        verdicts.append(want)
        if len(verdicts) % 5 == 1 and E.has_exact_order(P, ell, e):
            for k in (1 + ell * rng.randrange(1 << 20), ell - 1,
                      ell * rng.randrange(1, 1 << 20)):
                Q = E.mul(k, P)
                assert not E.is_basis(P, Q, ell, e), k
                assert not _receiver_verdict(E, P, Q, ell, e), k
    assert len(verdicts) == 30 and verdicts.count(False) >= 16

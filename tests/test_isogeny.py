"""Isogeny steps and chains: codomain formulas, point maps, and the
single-shot full-kernel quotient used as an independent oracle."""

import pytest

from oracles import (full_kernel_quotient, naive_chain, naive_evaluate,
                     naive_order)
from siot import det_rng, gen_params, preset
from siot.curve import INFINITY, EllipticCurve
from siot.errors import InvalidKernelError
from siot.field import FieldContext
from siot.isogeny import (
    cyclic_subgroup,
    evaluate,
    isogeny_chain,
    kernel_generator,
    push_through,
    velu_step,
)

CTX = FieldContext(431)
E0 = EllipticCurve(CTX.elem(1), CTX.elem(0))
EXP = 432


def test_two_isogeny_from_origin_kernel():
    """Quotient by <(0,0)> lands on y^2 = x^3 - 4x."""
    K = E0.point(CTX.zero(), CTX.zero())
    step = velu_step(E0, K, 2)
    assert step.codomain == EllipticCurve(CTX.elem(-4), CTX.zero())
    assert len(step.kernel_points) == 1
    assert evaluate(step, K).infinity


def test_step_maps_points_onto_codomain():
    rng = det_rng(b"step-map")
    K = E0.random_point_of_order(3, 1, EXP, rng)
    step = velu_step(E0, K, 3)
    for _ in range(30):
        P = E0.random_point(rng)
        img = evaluate(step, P)
        assert step.codomain.is_on_curve(img)
    assert evaluate(step, E0.mul(2, K)).infinity


def test_step_is_a_homomorphism():
    rng = det_rng(b"step-hom")
    K = E0.random_point_of_order(2, 1, EXP, rng)
    step = velu_step(E0, K, 2)
    F = step.codomain
    for _ in range(25):
        P, Q = E0.random_point(rng), E0.random_point(rng)
        assert evaluate(step, E0.add(P, Q)) \
            == F.add(evaluate(step, P), evaluate(step, Q))
    assert evaluate(step, INFINITY).infinity


def test_chain_codomain_matches_full_kernel_quotient():
    """Composing e prime steps and quotienting by the whole cyclic
    subgroup at once must land on the same isomorphism class."""
    params = preset("p431")
    for side, (ell, e) in (("A", (2, 4)), ("B", (3, 3))):
        G, H = params.basis(side)
        n = ell ** e
        for r in (0, 1, 5, n - 1):
            K = kernel_generator(E0, G, r, H)
            codomain, _ = isogeny_chain(E0, K, ell, e, ())
            single = full_kernel_quotient(E0, cyclic_subgroup(E0, K, n))
            assert codomain.j_invariant() == single.codomain.j_invariant()


def test_chain_annihilates_kernel_and_preserves_cotorsion(velu_steps):
    params = preset("p431")
    G, H = params.basis_a
    PB, QB = params.basis_b
    K = kernel_generator(E0, G, 7, H)
    F, (imK, im8K, img, imQB) = isogeny_chain(
        E0, K, 2, 4, (K, E0.mul(8, K), PB, QB))
    assert [len(s.kernel_points) + 1 for s in velu_steps] == [2, 2, 2, 2]
    assert imK.infinity
    assert im8K.infinity
    # the 27-torsion passes through with order intact
    assert F.is_on_curve(img)
    assert naive_order(F, img, 30) == 27
    # a point's image does not depend on the points pushed beside it
    assert isogeny_chain(E0, K, 2, 4, (QB,)) == (F, [imQB])


def test_chain_is_a_homomorphism():
    rng = det_rng(b"chain-hom")
    params = preset("p431")
    G, H = params.basis_a
    K = kernel_generator(E0, G, 9, H)
    for _ in range(10):
        P, Q = E0.random_point(rng), E0.random_point(rng)
        F, (iP, iQ, iPQ) = isogeny_chain(E0, K, 2, 4, (P, Q, E0.add(P, Q)))
        assert iPQ == F.add(iP, iQ)


def test_unit_multiple_of_kernel_gives_same_curve():
    params = preset("p431")
    G, H = params.basis_a
    K = kernel_generator(E0, G, 3, H)
    j1 = isogeny_chain(E0, K, 2, 4, ())[0].j_invariant()
    for u in (3, 5, 15):   # units mod 16
        j2 = isogeny_chain(E0, E0.mul(u, K), 2, 4, ())[0].j_invariant()
        assert j1 == j2


def test_chain_rejects_wrong_order_kernels():
    rng = det_rng(b"badkernel")
    K = E0.random_point_of_order(2, 3, EXP, rng)   # order 8, not 16
    with pytest.raises(InvalidKernelError):
        isogeny_chain(E0, K, 2, 4, ())
    with pytest.raises(InvalidKernelError):
        isogeny_chain(E0, INFINITY, 2, 1, ())
    K3 = E0.random_point_of_order(3, 1, EXP, rng)
    with pytest.raises(InvalidKernelError):
        velu_step(E0, K3, ell=2)


@pytest.fixture(scope="module")
def p102():
    return gen_params(2, 51, 3, 32, rng=det_rng(b"tests/p102"))


@pytest.mark.parametrize("name", ["p431", "p2591", "set3", "p102"])
def test_chain_matches_naive_schedule(name, request, velu_steps):
    """The balanced traversal quotients out the same point at every
    step as a fresh scalar multiple would, so the steps, the codomain
    and the image of the other side's basis are all identical."""
    params = request.getfixturevalue(name)
    rng = det_rng(b"naive-chain/" + name.encode())
    E = params.curve
    for side, other in (("A", "B"), ("B", "A")):
        G, H = params.basis(side)
        ell, e, n = params.ell(side), params.e(side), params.n(side)
        for r in (0, 1, n - 1, rng.randrange(n)):
            K = kernel_generator(E, G, r, H)
            velu_steps.clear()
            codomain, images = isogeny_chain(E, K, ell, e,
                                             params.basis(other))
            want = naive_chain(E, K, ell, e)
            assert tuple(velu_steps) == want
            assert codomain == want[-1].codomain
            assert images == [naive_evaluate(want, P)
                              for P in params.basis(other)]


def test_chain_rejects_like_the_naive_schedule():
    rng = det_rng(b"badkernel-naive")
    bad = [
        (E0.random_point_of_order(2, 3, EXP, rng), 2, 4),   # order 8
        (E0.random_point_of_order(3, 3, EXP, rng), 2, 4),   # odd order
        (E0.random_point_of_order(2, 4, EXP, rng), 2, 3),   # order 16
        (INFINITY, 2, 1),
        (INFINITY, 3, 3),
    ]
    for K, ell, e in bad:
        with pytest.raises(InvalidKernelError) as got:
            isogeny_chain(E0, K, ell, e, ())
        with pytest.raises(InvalidKernelError) as want:
            naive_chain(E0, K, ell, e)
        assert str(got.value) == str(want.value) \
            == f"kernel generator must have exact order {ell ** e}"


def test_cyclic_subgroup_enumeration():
    rng = det_rng(b"cyclic")
    K = E0.random_point_of_order(2, 2, EXP, rng)
    pts = cyclic_subgroup(E0, K, 4)
    assert len(pts) == 3
    assert K in pts and E0.neg(K) in pts and E0.add(K, K) in pts


def test_full_kernel_quotient_validates_input():
    rng = det_rng(b"fkq")
    K = E0.random_point_of_order(3, 1, EXP, rng)
    full = cyclic_subgroup(E0, K, 3)
    full_kernel_quotient(E0, full)   # sanity: well-formed input passes
    with pytest.raises(InvalidKernelError):
        full_kernel_quotient(E0, full + (INFINITY,))
    with pytest.raises(InvalidKernelError):
        full_kernel_quotient(E0, full + (K,))
    with pytest.raises(InvalidKernelError):
        full_kernel_quotient(E0, (K,))   # missing -K


def test_degree_two_and_three_composite_order():
    """Quotient by a cyclic order-6 subgroup in one shot; composing its
    2-part step with its 3-part step must land on the same class."""
    rng = det_rng(b"composite")
    # order-6 point: 432 = 16 * 27, so 6 | exponent
    while True:
        P = E0.random_point(rng)
        K = E0.mul(72, P)
        if naive_order(E0, K, 10) == 6:
            break
    single = full_kernel_quotient(E0, cyclic_subgroup(E0, K, 6))
    s2 = velu_step(E0, E0.mul(3, K), 2)       # 2-torsion part
    K3 = evaluate(s2, E0.mul(2, K))           # surviving 3-part
    s3 = velu_step(s2.codomain, K3, 3)
    assert s3.codomain.j_invariant() == single.codomain.j_invariant()


def test_push_through_matches_naive_evaluate(p431):
    """A batched push equals the per-point translate on lists mixing the
    identity, kernel points (Q and -Q, and the 2-torsion point that is
    its own negative) and ordinary points, repeats included, through a
    2-step, a 3-step, an order-6 one-shot quotient and a whole chain."""
    rng = det_rng(b"push-through")
    K2 = E0.random_point_of_order(2, 1, EXP, rng)
    K3 = E0.random_point_of_order(3, 1, EXP, rng)
    K6 = E0.add(K2, K3)
    steps = [velu_step(E0, K2, 2), velu_step(E0, K3, 3),
             full_kernel_quotient(E0, cyclic_subgroup(E0, K6, 6))]
    for step in steps:
        ordinary = [E0.random_point(rng) for _ in range(5)]
        pts = ([INFINITY] + list(step.kernel_points) + ordinary
               + [INFINITY, ordinary[0], step.kernel_points[0]])
        assert push_through(step, pts) == [naive_evaluate(step, P)
                                           for P in pts]
        assert push_through(step, []) == []
    P, Q = p431.basis_a
    K = kernel_generator(p431.curve, P, 5, Q)
    pts = [P, Q, K, p431.curve.mul(8, K), p431.curve.mul(8, P), INFINITY,
           *p431.basis_b]
    want = naive_chain(p431.curve, K, 2, 4)
    assert isogeny_chain(p431.curve, K, 2, 4, pts)[1] \
        == [naive_evaluate(want, T) for T in pts]

"""Isogeny steps and chains: codomain formulas, point maps, and the
single-shot full-kernel quotient used as an independent oracle."""

import pytest

from oracles import (all_points, cyclic_subgroup, expand_kernel,
                     full_kernel_quotient, naive_chain, naive_evaluate,
                     naive_order, push_through, reference_step, velu_codomain,
                     walk_kernel)
from siot import det_rng, preset
from siot.curve import INFINITY, EllipticCurve
from siot.errors import InvalidKernelError
from siot.field import FieldContext
from siot.isogeny import evaluate, isogeny_chain, kernel_generator

CTX = FieldContext(431)
E0 = EllipticCurve(CTX, (1, 0), (0, 0))
EXP = 432


def test_two_isogeny_from_origin_kernel():
    """Quotient by <(0,0)> lands on y^2 = x^3 - 4x."""
    K = E0.point((0, 0), (0, 0))
    kernel = walk_kernel(E0, K, 2)
    assert velu_codomain(E0, kernel) == EllipticCurve(CTX, (-4 % 431, 0),
                                                      (0, 0))
    assert len(expand_kernel(E0, kernel)) == 1
    assert evaluate(E0, kernel, K) == INFINITY


def test_step_maps_points_onto_codomain():
    rng = det_rng(b"step-map")
    K = E0.sample_torsion_basis(3, 1, EXP, rng)[0]
    kernel = walk_kernel(E0, K, 3)
    F = velu_codomain(E0, kernel)
    for _ in range(30):
        P = E0.random_point(rng)
        img = evaluate(E0, kernel, P)
        assert F.is_on_curve(img)
    assert evaluate(E0, kernel, E0.mul(2, K)) == INFINITY


def test_step_is_a_homomorphism():
    rng = det_rng(b"step-hom")
    K = E0.sample_torsion_basis(2, 1, EXP, rng)[0]
    kernel = walk_kernel(E0, K, 2)
    F = velu_codomain(E0, kernel)
    for _ in range(25):
        P, Q = E0.random_point(rng), E0.random_point(rng)
        assert evaluate(E0, kernel, E0.add(P, Q)) \
            == F.add(evaluate(E0, kernel, P), evaluate(E0, kernel, Q))
    assert evaluate(E0, kernel, INFINITY) == INFINITY


def test_step_and_evaluate_match_the_oracles_exhaustively():
    """Every K of order 2 or 3 on the two F_{11^2} curves of
    ``test_curve.py``, its kernel listed the way the walk lists it:
    ``velu_step`` equals the one-shot quotient, and ``evaluate`` equals
    the per-point translate on all 144 points, O included, sending the
    kernel's own points to O."""
    ctx = FieldContext(11)
    E = EllipticCurve(ctx, (1, 0), (0, 0))
    E2 = reference_step(E, ((0, 1), (0, 0), (1, 0)), 2).codomain
    for curve in (E, E2):
        pts = all_points(curve)
        assert len(pts) == 144
        kernels = [(K, ell) for K in pts for ell in (2, 3)
                   if K != INFINITY and naive_order(curve, K, 12) == ell]
        assert len(kernels) == 11
        for K, ell in kernels:
            kernel = walk_kernel(curve, K, ell)
            step = reference_step(curve, K, ell)
            assert velu_codomain(curve, kernel) == step.codomain
            for P in pts:
                assert evaluate(curve, kernel, P) \
                    == naive_evaluate(step, P), (K, P)
            for Q in step.kernel_points:
                assert evaluate(curve, kernel, Q) == INFINITY


def test_chain_codomain_matches_full_kernel_quotient():
    """Composing e prime steps and quotienting by the whole cyclic
    subgroup at once must land on the same isomorphism class."""
    params = preset("p431")
    for own, (ell, e) in ((params.side_a, (2, 4)), (params.side_b, (3, 3))):
        G, H = own.basis
        n = ell ** e
        for r in (0, 1, 5, n - 1):
            K = kernel_generator(E0, G, r, H)
            codomain, _ = isogeny_chain(E0, K, ell, e, ())
            single = full_kernel_quotient(E0, cyclic_subgroup(E0, K, n))
            assert codomain.j_invariant() == single.codomain.j_invariant()


def test_chain_annihilates_kernel_and_preserves_cotorsion(velu_steps):
    params = preset("p431")
    G, H = params.side_a.basis
    PB, QB = params.side_b.basis
    K = kernel_generator(E0, G, 7, H)
    F, (imK, im8K, img, imQB) = isogeny_chain(
        E0, K, 2, 4, (K, E0.mul(8, K), PB, QB))
    assert [len(expand_kernel(D, kernel)) + 1
            for D, kernel, _ in velu_steps] == [2, 2, 2, 2]
    assert imK == INFINITY
    assert im8K == INFINITY
    # the 27-torsion passes through with order intact
    assert F.is_on_curve(img)
    assert naive_order(F, img, 30) == 27
    # a point's image does not depend on the points pushed beside it
    assert isogeny_chain(E0, K, 2, 4, (QB,)) == (F, [imQB])


def test_chain_is_a_homomorphism():
    rng = det_rng(b"chain-hom")
    params = preset("p431")
    G, H = params.side_a.basis
    K = kernel_generator(E0, G, 9, H)
    for _ in range(10):
        P, Q = E0.random_point(rng), E0.random_point(rng)
        F, (iP, iQ, iPQ) = isogeny_chain(E0, K, 2, 4, (P, Q, E0.add(P, Q)))
        assert iPQ == F.add(iP, iQ)


def test_unit_multiple_of_kernel_gives_same_curve():
    params = preset("p431")
    G, H = params.side_a.basis
    K = kernel_generator(E0, G, 3, H)
    j1 = isogeny_chain(E0, K, 2, 4, ())[0].j_invariant()
    for u in (3, 5, 15):   # units mod 16
        j2 = isogeny_chain(E0, E0.mul(u, K), 2, 4, ())[0].j_invariant()
        assert j1 == j2


def test_chain_rejects_wrong_order_kernels():
    rng = det_rng(b"badkernel")
    K = E0.sample_torsion_basis(2, 3, EXP, rng)[0]   # order 8, not 16
    with pytest.raises(InvalidKernelError):
        isogeny_chain(E0, K, 2, 4, ())
    with pytest.raises(InvalidKernelError):
        isogeny_chain(E0, INFINITY, 2, 1, ())
    K3 = E0.sample_torsion_basis(3, 1, EXP, rng)[0]
    with pytest.raises(InvalidKernelError):
        cyclic_subgroup(E0, K3, 2)


def test_chain_rejects_like_the_naive_schedule():
    rng = det_rng(b"badkernel-naive")
    bad = [
        (E0.sample_torsion_basis(2, 3, EXP, rng)[0], 2, 4),   # order 8
        (E0.sample_torsion_basis(3, 3, EXP, rng)[0], 2, 4),   # odd order
        (E0.sample_torsion_basis(2, 4, EXP, rng)[0], 2, 3),   # order 16
        (INFINITY, 2, 1),
        (INFINITY, 3, 3),
        (E0.sample_torsion_basis(2, 1, EXP, rng)[0], 2, 0),   # order 2, e = 0
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
    K = E0.sample_torsion_basis(2, 2, EXP, rng)[0]
    pts = cyclic_subgroup(E0, K, 4)
    assert len(pts) == 3
    assert K in pts and E0.neg(K) in pts and E0.add(K, K) in pts


def test_full_kernel_quotient_validates_input():
    rng = det_rng(b"fkq")
    K = E0.sample_torsion_basis(3, 1, EXP, rng)[0]
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
    k2 = walk_kernel(E0, E0.mul(3, K), 2)     # 2-torsion part
    F2 = velu_codomain(E0, k2)
    K3 = evaluate(E0, k2, E0.mul(2, K))       # surviving 3-part
    F = velu_codomain(F2, walk_kernel(F2, K3, 3))
    assert F.j_invariant() == single.codomain.j_invariant()


def test_push_through_matches_naive_evaluate(p431):
    """A batched push equals the per-point translate on lists mixing the
    identity, kernel points (Q and -Q, and the 2-torsion point that is
    its own negative) and ordinary points, repeats included, through a
    2-step, a 3-step, an order-6 one-shot quotient and a whole chain."""
    rng = det_rng(b"push-through")
    K2 = E0.sample_torsion_basis(2, 1, EXP, rng)[0]
    K3 = E0.sample_torsion_basis(3, 1, EXP, rng)[0]
    K6 = E0.add(K2, K3)
    steps = [reference_step(E0, K2, 2), reference_step(E0, K3, 3),
             full_kernel_quotient(E0, cyclic_subgroup(E0, K6, 6))]
    for step in steps:
        ordinary = [E0.random_point(rng) for _ in range(5)]
        pts = ([INFINITY] + list(step.kernel_points) + ordinary
               + [INFINITY, ordinary[0], step.kernel_points[0]])
        assert push_through(step, pts) == [naive_evaluate(step, P)
                                           for P in pts]
        assert push_through(step, []) == []
    P, Q = p431.side_a.basis
    K = kernel_generator(p431.curve, P, 5, Q)
    pts = [P, Q, K, p431.curve.mul(8, K), p431.curve.mul(8, P), INFINITY,
           *p431.side_b.basis]
    want = naive_chain(p431.curve, K, 2, 4)
    assert isogeny_chain(p431.curve, K, 2, 4, pts)[1] \
        == [naive_evaluate(want, T) for T in pts]

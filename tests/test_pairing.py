"""Weil pairing, distortion pairings and Pohlig-Hellman decomposition,
cross-checked against a linear-time Miller oracle."""

import pytest

from oracles import (Degenerate, affine_miller, multiplicative_order,
                     weil_naive)
from siot import det_rng, preset
from siot.curve import INFINITY, EllipticCurve, sample_torsion_basis
from siot.errors import (
    DecompositionError,
    InvalidPointError,
    UnsupportedParameterError,
)
from siot.field import FieldContext
from siot.pairing import (
    _Degenerate,
    decompose_in_basis,
    distortion_map,
    miller_function,
    modified_pairing,
    symmetric_pairing,
    weil_pairing,
)

CTX = FieldContext(431)
E0 = EllipticCurve(CTX.elem(1), CTX.elem(0))
EXP = 432


def _basis(ell, e, seed):
    return sample_torsion_basis(E0, ell, e, EXP, det_rng(seed))


def test_agrees_with_linear_miller_oracle():
    rng = det_rng(b"pairing-oracle")
    for ell, e in ((2, 4), (3, 3)):
        n = ell ** e
        P, Q = _basis(ell, e, b"po-%d" % ell)
        for _ in range(12):
            a, b = rng.randrange(n), rng.randrange(n)
            R, S = E0.mul(a, P), E0.add(E0.mul(b, P), Q)
            got = weil_pairing(E0, R, S, n)
            want = weil_naive(E0, R, S, n, rng)
            assert got == want


def test_oracle_agreement_off_the_base_curve():
    """Same cross-check on a mid-chain codomain with B != 0."""
    from siot.isogeny import isogeny_chain, kernel_generator

    params = preset("p431")
    P, Q = params.basis_a
    K = kernel_generator(params.curve, P, 3, Q)
    chain = isogeny_chain(params.curve, K, 2, 4)
    E1 = chain.steps[1].codomain
    assert not E1.B.is_zero()
    rng = det_rng(b"mid-chain")
    half = chain.steps[:2]
    PB, QB = params.basis_b

    def push(T):
        for s in half:
            T = s(T)
        return T

    R, S = push(PB), push(QB)   # 27-torsion survives the 2-power steps
    got = weil_pairing(E1, R, S, 27)
    want = weil_naive(E1, R, S, 27, rng)
    assert got == want


def test_bilinearity_alternation_order():
    rng = det_rng(b"bilinear")
    for ell, e in ((2, 4), (3, 3)):
        n = ell ** e
        P, Q = _basis(ell, e, b"bl-%d" % ell)
        zeta = weil_pairing(E0, P, Q, n)
        assert multiplicative_order(zeta) == n
        for _ in range(20):
            a, b = rng.randrange(n), rng.randrange(n)
            assert weil_pairing(E0, E0.mul(a, P), E0.mul(b, Q), n) \
                == zeta ** (a * b)
        R = E0.add(E0.mul(3, P), E0.mul(5, Q))
        assert weil_pairing(E0, R, R, n).is_one()
        assert weil_pairing(E0, P, Q, n) * weil_pairing(E0, Q, P, n) \
            == CTX.one()
        assert (zeta ** n).is_one()


def test_compatibility_across_levels():
    """For R, S in the m-torsion, the level-n pairing is the level-m
    pairing raised to n/m."""
    P, Q = _basis(2, 4, b"compat")
    for k in (1, 2, 3):
        m = 2 ** (4 - k)
        R, S = E0.mul(2 ** k, P), E0.mul(2 ** k, Q)
        zm = weil_pairing(E0, R, S, m)
        assert weil_pairing(E0, R, S, 16) == zm ** (16 // m)
        assert multiplicative_order(zm) == m   # basis survives scaling


def test_degenerate_inputs():
    P, Q = _basis(2, 4, b"degen")
    from siot.curve import INFINITY
    assert weil_pairing(E0, INFINITY, Q, 16).is_one()
    assert weil_pairing(E0, P, INFINITY, 16).is_one()
    assert weil_pairing(E0, P, P, 16).is_one()
    assert weil_pairing(E0, P, E0.neg(P), 16).is_one()


def test_rejects_points_outside_torsion():
    P, _ = _basis(3, 3, b"offtorsion")
    with pytest.raises(InvalidPointError):
        weil_pairing(E0, P, P, 16)    # 27-torsion point, 16 demanded


def test_distortion_is_an_endomorphism():
    rng = det_rng(b"distortion")
    for _ in range(25):
        P, Q = E0.random_point(rng), E0.random_point(rng)
        assert E0.is_on_curve(distortion_map(E0, P))
        assert distortion_map(E0, E0.add(P, Q)) \
            == E0.add(distortion_map(E0, P), distortion_map(E0, Q))
    twisted = EllipticCurve(CTX.elem(1), CTX.elem(3))
    with pytest.raises(UnsupportedParameterError):
        distortion_map(twisted, E0.random_point(rng))


def test_distortion_fixed_points():
    from siot.curve import INFINITY
    assert distortion_map(E0, INFINITY).infinity
    Z = E0.point(CTX.zero(), CTX.zero())
    assert distortion_map(E0, Z) == Z


def test_modified_pairing_nondegenerate_on_diagonal():
    """For P of exact odd prime order the twisted self-pairing never
    collapses: that is the whole point of the distortion map."""
    rng = det_rng(b"modified")
    for _ in range(10):
        P = E0.random_point_of_order(3, 1, EXP, rng)
        z = modified_pairing(E0, P, P, 3)
        assert not z.is_one()
        # bilinear on the cyclic group generated by P
        for a in range(3):
            for b in range(3):
                got = modified_pairing(E0, E0.mul(a, P), E0.mul(b, P), 3)
                assert got == z ** (a * b)
    from siot.curve import INFINITY
    Q = E0.random_point_of_order(3, 1, EXP, rng)
    assert modified_pairing(E0, INFINITY, Q, 3).is_one()


def test_symmetric_pairing_swaps(set3):
    E = set3.curve
    G, H = set3.basis_a
    n = set3.n("A")
    rng = det_rng(b"sympair")
    for _ in range(40):
        P = E.add(E.mul(rng.randrange(n), G), E.mul(rng.randrange(n), H))
        Q = E.add(E.mul(rng.randrange(n), G), E.mul(rng.randrange(n), H))
        assert symmetric_pairing(E, G, H, P, Q, n) \
            == symmetric_pairing(E, G, H, Q, P, n)


def test_symmetric_pairing_rejects_bad_primes():
    P, Q = _basis(2, 4, b"symrej")
    with pytest.raises(UnsupportedParameterError):
        symmetric_pairing(E0, P, Q, P, Q, 16)
    ctx = FieldContext(1499)       # 1500 = 4 * 375 = 2^2 * 3 * 5^3
    E = EllipticCurve(ctx.elem(1), ctx.elem(0))
    B1, B2 = sample_torsion_basis(E, 5, 3, 1500, det_rng(b"five"))
    with pytest.raises(UnsupportedParameterError):
        symmetric_pairing(E, B1, B2, B1, B2, 125)   # 5 = 1 mod 4


def test_decompose_known_combination():
    for ell, e in ((2, 4), (3, 3)):
        n = ell ** e
        G, H = _basis(ell, e, b"dec-%d" % ell)
        P = E0.add(E0.mul(3, G), E0.mul(7, H))
        d = decompose_in_basis(E0, G, H, P, n)
        assert (d.u, d.v) == (3 % n, 7 % n)


def test_decompose_exhaustive_sixteen():
    G, H = _basis(2, 4, b"dec-exh")
    for u in range(16):
        for v in range(16):
            P = E0.add(E0.mul(u, G), E0.mul(v, H))
            d = decompose_in_basis(E0, G, H, P, 16)
            assert (d.u, d.v) == (u, v)


def test_decompose_rejects_degenerate_base():
    G, H = _basis(2, 4, b"dec-bad")
    with pytest.raises(DecompositionError):
        decompose_in_basis(E0, G, E0.mul(3, G), E0.add(G, H), 16)


def _miller_outcome(f, E, P, n, X):
    try:
        return f(E, P, n, X)
    except (_Degenerate, Degenerate):
        return "degenerate"


def test_miller_function_matches_affine_loop():
    """The fraction-form loop gives the affine loop's value at every X,
    or fails as _Degenerate exactly where the affine loop hits a zero or
    pole.  X runs over the multiples [k]R for |k| <= n (the zeros and
    poles of the lines), the 2-torsion and random points.  R runs over
    basis points, lower-order points whose running multiple meets O and
    -R mid-loop, a 2-torsion point and O; n over the full torsion order,
    one more (so that O + R comes last) and 5 (a last vertical through
    [5]R that no line shares), on E0 and on a codomain with B != 0."""
    from siot.isogeny import isogeny_chain, kernel_generator

    params = preset("p431")
    PA, QA = params.basis_a
    E1 = isogeny_chain(params.curve, kernel_generator(params.curve, PA, 3, QA),
                       2, 4).codomain
    assert not E1.B.is_zero()
    rng = det_rng(b"miller-affine")
    outcomes = set()
    for E in (params.curve, E1):
        basis = {2: sample_torsion_basis(E, 2, 4, EXP, rng),
                 3: sample_torsion_basis(E, 3, 3, EXP, rng)}
        two_torsion = [E.mul(8, P) for P in (*basis[2], E.add(*basis[2]))]
        for ell, e in ((2, 4), (3, 3)):
            P, Q = basis[ell]
            for R in (P, E.add(P, Q), E.mul(ell, P), E.mul(ell ** (e - 1), Q),
                      two_torsion[0], INFINITY):
                for n in (ell ** e, ell ** e + 1, 5):
                    xs = ([E.mul(k, R) for k in range(-n, n + 1)]
                          + [E.add(E.mul(k, R), Q) for k in range(0, n, 5)]
                          + two_torsion
                          + [E.random_point(rng) for _ in range(2)])
                    for X in xs:
                        got = _miller_outcome(miller_function, E, R, n, X)
                        want = _miller_outcome(affine_miller, E, R, n, X)
                        assert got == want, (R, n, X)
                        outcomes.add(got == "degenerate")
    assert outcomes == {True, False}

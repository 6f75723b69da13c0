"""Weil pairing, cross-checked against a linear-time Miller oracle, and
the oracles' distortion pairings and Pohlig-Hellman decomposition."""

import pytest

from oracles import (
    Degenerate,
    DecompositionError,
    affine_miller,
    decompose_in_basis,
    distortion_map,
    modified_pairing,
    multiplicative_order,
    symmetric_pairing,
    weil_naive,
)
from siot import det_rng, preset
from siot.curve import INFINITY, EllipticCurve
from siot.errors import UnsupportedParameterError
from siot.field import FieldContext
from siot.pairing import (_aux_point, _Degenerate, miller_function,
                          weil_pairing)

CTX = FieldContext(431)
E0 = EllipticCurve(CTX.elem(1), CTX.elem(0))
EXP = 432


def _basis(ell, e, seed):
    return E0.sample_torsion_basis(ell, e, EXP, det_rng(seed))


def _check_aux_points(E, P, Q, n):
    """The auxiliary draws for two points other than O are affine
    points of E, the same on a second call, and differ from one attempt
    to the next."""
    draws = [_aux_point(E, P, Q, n, attempt) for attempt in range(3)]
    assert draws == [_aux_point(E, P, Q, n, attempt) for attempt in range(3)]
    assert all(not S.infinity and E.is_on_curve(S) for S in draws)
    assert len(set(draws)) == 3


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
            if not R.infinity:        # O pairs to 1 with no draw
                _check_aux_points(E0, R, S, n)


def test_oracle_agreement_off_the_base_curve():
    """Same cross-check on a mid-chain codomain with B != 0."""
    from siot.isogeny import isogeny_chain, kernel_generator

    params = preset("p431")
    P, Q = params.side_a.basis
    K = kernel_generator(params.curve, P, 3, Q)
    # the first two steps of the chain with kernel <K>; the 27-torsion
    # survives the 2-power steps
    E1, (R, S) = isogeny_chain(params.curve, params.curve.mul(4, K), 2, 2,
                               params.side_b.basis)
    assert E1.B
    rng = det_rng(b"mid-chain")
    got = weil_pairing(E1, R, S, 27)
    want = weil_naive(E1, R, S, 27, rng)
    assert got == want
    _check_aux_points(E1, R, S, 27)


def test_bilinearity_alternation_order():
    rng = det_rng(b"bilinear")
    for ell, e in ((2, 4), (3, 3)):
        n = ell ** e
        P, Q = _basis(ell, e, b"bl-%d" % ell)
        zeta = weil_pairing(E0, P, Q, n)
        assert multiplicative_order(zeta, n) == n
        for _ in range(20):
            a, b = rng.randrange(n), rng.randrange(n)
            assert weil_pairing(E0, E0.mul(a, P), E0.mul(b, Q), n) \
                == zeta ** (a * b)
        R = E0.add(E0.mul(3, P), E0.mul(5, Q))
        assert weil_pairing(E0, R, R, n) == CTX.one()
        assert weil_pairing(E0, P, Q, n) * weil_pairing(E0, Q, P, n) \
            == CTX.one()
        assert zeta ** n == CTX.one()


def test_compatibility_across_levels():
    """For R, S in the m-torsion, the level-n pairing is the level-m
    pairing raised to n/m."""
    P, Q = _basis(2, 4, b"compat")
    for k in (1, 2, 3):
        m = 2 ** (4 - k)
        R, S = E0.mul(2 ** k, P), E0.mul(2 ** k, Q)
        zm = weil_pairing(E0, R, S, m)
        assert weil_pairing(E0, R, S, 16) == zm ** (16 // m)
        assert multiplicative_order(zm, m) == m   # basis survives scaling


def test_top_multiples_pair_to_the_power_of_the_pairing():
    """e_n(P, Q)^(n/ell) = e_ell([n/ell]P, [n/ell]Q) for P, Q in the
    n = ell^e torsion: the identity by which the receiver's certificate
    pairs the order-ell multiples in place of the pair.  Over every
    (a, b) and c of P = G, Q = [a]G + [b]H and P' = [c]G + H, so both
    dependent and independent pairs, on both towers of p431."""
    for ell, e in ((2, 4), (3, 3)):
        n, m = ell ** e, ell ** (e - 1)
        G, H = _basis(ell, e, b"top-%d" % ell)
        pairs = [(G, E0.add(E0.mul(a, G), E0.mul(b, H)))
                 for a in range(ell) for b in range(ell ** 2)]
        pairs += [(E0.add(E0.mul(c, G), H), G) for c in range(ell)]
        verdicts = set()
        for P, Q in pairs:
            if E0.mul(m, Q).infinity:
                continue
            want = weil_pairing(E0, P, Q, n) ** m
            got = weil_pairing(E0, E0.mul(m, P), E0.mul(m, Q), ell)
            assert got == want, (P, Q)
            verdicts.add(got == CTX.one())
        assert verdicts == {True, False}


def test_degenerate_inputs():
    P, Q = _basis(2, 4, b"degen")
    from siot.curve import INFINITY
    assert weil_pairing(E0, INFINITY, Q, 16) == CTX.one()
    assert weil_pairing(E0, P, INFINITY, 16) == CTX.one()
    assert weil_pairing(E0, P, P, 16) == CTX.one()
    assert weil_pairing(E0, P, E0.neg(P), 16) == CTX.one()


def test_degenerate_draws_are_retried(monkeypatch):
    """An auxiliary point that puts an evaluation point at O is drawn
    again: with S = -Q on the first attempt Q + S = O, and the value
    of the next attempt is the oracle's.  A draw that is degenerate on
    every attempt gives up after 256."""
    import siot.pairing as pairing

    P, Q = _basis(2, 4, b"retry")
    attempts = []

    def first_degenerate(E, P, Q, n, attempt):
        attempts.append(attempt)
        return E.neg(Q) if attempt == 0 else _aux_point(E, P, Q, n, attempt)
    monkeypatch.setattr(pairing, "_aux_point", first_degenerate)
    got = weil_pairing(E0, P, Q, 16)
    assert attempts[:2] == [0, 1]
    assert got == weil_naive(E0, P, Q, 16, det_rng(b"retry"))
    assert multiplicative_order(got, 16) == 16

    monkeypatch.setattr(pairing, "_aux_point",
                        lambda E, P, Q, n, attempt: E.neg(Q))
    with pytest.raises(ArithmeticError, match="in 256 draws"):
        weil_pairing(E0, P, Q, 16)


def test_weil_pairing_checks_its_order_bound(monkeypatch):
    """weil_pairing checks the value it makes: a quotient that is not
    an n-th root raises."""
    import siot.pairing as pairing

    P, Q = _basis(2, 4, b"bound")
    assert CTX.elem(2) ** 16 != CTX.one()
    one = (1, 0), (1, 0)
    values = iter([((2, 0), (1, 0)), one, one, one])
    monkeypatch.setattr(pairing, "miller_function",
                        lambda E, P, n, X: next(values))
    with pytest.raises(ValueError, match="does not satisfy its order bound"):
        weil_pairing(E0, P, Q, 16)


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
        P = E0.sample_torsion_basis(3, 1, EXP, rng)[0]
        z = modified_pairing(E0, P, P, 3)
        assert z != CTX.one()
        # bilinear on the cyclic group generated by P
        for a in range(3):
            for b in range(3):
                got = modified_pairing(E0, E0.mul(a, P), E0.mul(b, P), 3)
                assert got == z ** (a * b)
    from siot.curve import INFINITY
    Q = E0.sample_torsion_basis(3, 1, EXP, rng)[0]
    assert modified_pairing(E0, INFINITY, Q, 3) == CTX.one()


def test_symmetric_pairing_swaps(set3):
    E = set3.curve
    G, H = set3.side_a.basis
    ell, e, n = set3.side_a.ell, set3.side_a.e, set3.side_a.n
    rng = det_rng(b"sympair")
    for _ in range(40):
        P = E.add(E.mul(rng.randrange(n), G), E.mul(rng.randrange(n), H))
        Q = E.add(E.mul(rng.randrange(n), G), E.mul(rng.randrange(n), H))
        assert symmetric_pairing(E, G, H, P, Q, ell, e) \
            == symmetric_pairing(E, G, H, Q, P, ell, e)


def test_symmetric_pairing_rejects_bad_primes():
    P, Q = _basis(2, 4, b"symrej")
    with pytest.raises(UnsupportedParameterError):
        symmetric_pairing(E0, P, Q, P, Q, 2, 4)
    ctx = FieldContext(1499)       # 1500 = 4 * 375 = 2^2 * 3 * 5^3
    E = EllipticCurve(ctx.elem(1), ctx.elem(0))
    B1, B2 = E.sample_torsion_basis(5, 3, 1500, det_rng(b"five"))
    with pytest.raises(UnsupportedParameterError):
        symmetric_pairing(E, B1, B2, B1, B2, 5, 3)   # 5 = 1 mod 4


def test_decompose_known_combination():
    for ell, e in ((2, 4), (3, 3)):
        n = ell ** e
        G, H = _basis(ell, e, b"dec-%d" % ell)
        P = E0.add(E0.mul(3, G), E0.mul(7, H))
        assert decompose_in_basis(E0, G, H, P, ell, e) == (3 % n, 7 % n)


def test_decompose_exhaustive_sixteen():
    G, H = _basis(2, 4, b"dec-exh")
    for u in range(16):
        for v in range(16):
            P = E0.add(E0.mul(u, G), E0.mul(v, H))
            assert decompose_in_basis(E0, G, H, P, 2, 4) == (u, v)


def test_decompose_rejects_degenerate_base():
    G, H = _basis(2, 4, b"dec-bad")
    with pytest.raises(DecompositionError):
        decompose_in_basis(E0, G, E0.mul(3, G), E0.add(G, H), 2, 4)


def _miller_value(E, P, n, X):
    """miller_function's fraction, divided out."""
    num, den = miller_function(E, P, n, X)
    return E.ctx.elem(*num) / E.ctx.elem(*den)


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
    PA, QA = params.side_a.basis
    E1, _ = isogeny_chain(params.curve,
                          kernel_generator(params.curve, PA, 3, QA), 2, 4, ())
    assert E1.B
    rng = det_rng(b"miller-affine")
    outcomes = set()
    for E in (params.curve, E1):
        basis = {2: E.sample_torsion_basis(2, 4, EXP, rng),
                 3: E.sample_torsion_basis(3, 3, EXP, rng)}
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
                        got = _miller_outcome(_miller_value, E, R, n, X)
                        want = _miller_outcome(affine_miller, E, R, n, X)
                        assert got == want, (R, n, X)
                        outcomes.add(got == "degenerate")
    assert outcomes == {True, False}

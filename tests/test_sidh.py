"""Parameter generation, key generation/validation, the two-sided
exchange, and the serialization codecs."""

import math
import time

import pytest

from oracles import expand_kernel, full_kernel_quotient, multiplicative_order
from siot import (
    derive_shared_j,
    det_rng,
    gen_params,
    keygen,
    params_from_obj,
    params_to_obj,
    preset,
    validate_public,
)
from siot.errors import (
    DecodeError,
    InvalidPointError,
    ParameterSearchError,
    ProtocolAbort,
    UnsupportedParameterError,
)
from siot.analysis import brute_force_secret
from siot.isogeny import isogeny_chain, kernel_generator
from siot.pairing import weil_pairing
from siot.curve import INFINITY, EllipticCurve
from siot.field import FieldContext, is_prime
from siot.sidh import (MAX_ELL, PublicParams, SidhPublic, Torsion,
                       public_from_obj, public_to_obj)
from siot.siot import read_public


def test_preset_shapes():
    def shape(q):
        return q.p, q.side_a.ell, q.side_a.e, q.side_b.ell, q.side_b.e, q.f

    a, b = preset("p431"), preset("p2591")
    assert shape(a) == (431, 2, 4, 3, 3, 1)
    assert shape(b) == (2591, 2, 5, 3, 4, 1)
    assert a.side_a.n == 16 and b.side_b.n == 81
    assert a.p % 4 == 3 and b.p % 4 == 3
    with pytest.raises(UnsupportedParameterError):
        preset("p9001")


def test_preset_bases_are_certified():
    params = preset("p431")
    for side, n in (("A", 16), ("B", 27)):
        own, _ = params.sides(side)
        P, Q = own.basis
        zeta = weil_pairing(params.curve, P, Q, n)
        assert multiplicative_order(zeta, n) == n


def test_gen_params_rejects_bad_shapes():
    rng = det_rng(0)
    with pytest.raises(UnsupportedParameterError):
        gen_params(2, 4, 2, 5, rng=rng)      # towers must use distinct primes
    with pytest.raises(UnsupportedParameterError):
        gen_params(4, 2, 3, 3, rng=rng)      # 4 is not prime
    with pytest.raises(UnsupportedParameterError,
                       match="^exponent must be >= 1$"):
        gen_params(2, 4, 3, 0, rng=rng)
    with pytest.raises(ParameterSearchError):
        gen_params(2, 4, 3, 3, max_f=0, rng=rng)


def test_gen_params_general_cofactor():
    params = gen_params(2, 4, 3, 3, max_f=12, rng=det_rng(1))
    assert params.p % 4 == 3
    assert params.p + 1 == 2 ** 4 * 3 ** 3 * params.f


@pytest.mark.parametrize("name, f", [("p431", 1), ("p2591", 1), ("set3", 1),
                                     ("p102", 1), ("p434", 1), ("set71", 4)])
def test_shapes_in_use_keep_their_cofactor(request, name, f):
    """The search tries every f <= max_f; on each shape the presets, the
    benchmark and the tests run, the smallest admissible f is the one
    a search of f in {1, 4} alone found."""
    assert request.getfixturevalue(name).f == f


def test_keygen_kernel_has_exact_order(p431, velu_steps):
    rng = det_rng(2)
    E = p431.curve
    for side, n in (("A", 16), ("B", 27)):
        velu_steps.clear()
        kp = keygen(p431, side, rng)
        assert 0 <= kp.r < n
        assert math.prod(len(expand_kernel(D, kernel)) + 1
                         for D, kernel, _ in velu_steps) == n
        own, _ = p431.sides(side)
        P, Q = own.basis
        codomain, _ = isogeny_chain(E, kernel_generator(E, P, kp.r, Q),
                                    own.ell, own.e, ())
        assert kp.public.curve.j_invariant() == codomain.j_invariant()


def test_exchange_agreement_random(p431, p2591):
    for params in (p431, p2591):
        rng = det_rng(b"exchange")
        for _ in range(10):
            alice = keygen(params, "A", rng)
            bob = keygen(params, "B", rng)
            ja = derive_shared_j(alice, bob.public, params)
            jb = derive_shared_j(bob, alice.public, params)
            assert ja == jb


def test_exchange_exhaustive_all_secret_pairs(p431):
    """Every (r_a, r_b) pair at the small preset agrees; 16 * 27 runs
    would be slow with fresh chains, so sweep r_a at three fixed r_b."""
    from siot.sidh import SidhKeyPair

    params = p431
    E = params.curve

    def mk(side, r):
        own, other = params.sides(side)
        P, Q = own.basis
        K = kernel_generator(E, P, r, Q)
        curve, (G, H) = isogeny_chain(E, K, own.ell, own.e, other.basis)
        return SidhKeyPair(side, r, SidhPublic(curve, G, H))

    for r_b in (0, 5, 26):
        bob = mk("B", r_b)
        for r_a in range(16):
            alice = mk("A", r_a)
            assert derive_shared_j(alice, bob.public, params) \
                == derive_shared_j(bob, alice.public, params)


def test_shared_j_equals_double_quotient_oracle(p431):
    """The two-stage tower must match quotienting E0 by the group
    generated by both kernels at once."""
    params = p431
    E = params.curve
    rng = det_rng(4)
    alice = keygen(params, "A", rng)
    bob = keygen(params, "B", rng)
    (PA, QA), (PB, QB) = params.side_a.basis, params.side_b.basis
    KA = kernel_generator(E, PA, alice.r, QA)
    KB = kernel_generator(E, PB, bob.r, QB)
    K = E.add(KA, KB)   # order 16 * 27 generator of <KA, KB>
    pts = []
    acc = K
    while acc != INFINITY:
        pts.append(acc)
        acc = E.add(acc, K)
    single = full_kernel_quotient(E, pts)
    assert derive_shared_j(alice, bob.public, params) \
        == single.codomain.j_invariant()


def test_validate_public_rejects_garbage(p431):
    """Each refusal is an ``InvalidPointError`` naming the fault; the
    abort code is the producer role's, chosen by ``read_public``."""
    params = p431
    rng = det_rng(5)
    alice = keygen(params, "A", rng)
    pub = alice.public
    # killing one factor of the order breaks the full-order requirement
    bad = SidhPublic(pub.curve, pub.G, pub.curve.mul(3, pub.H))
    with pytest.raises(InvalidPointError) as info:
        validate_public(params, "A", bad)
    assert str(info.value) == "H does not have full order 27"
    with pytest.raises(ProtocolAbort) as info:
        read_public(params, "sender", public_to_obj(bad))
    assert info.value.code == "bad-sender-key"
    assert info.value.detail == "H does not have full order 27"
    bob = keygen(params, "B", rng)
    bpub = bob.public
    badb = SidhPublic(bpub.curve, bpub.curve.mul(2, bpub.G), bpub.H)
    with pytest.raises(InvalidPointError) as info:
        validate_public(params, "B", badb)
    assert str(info.value) == "G does not have full order 16"
    with pytest.raises(ProtocolAbort) as info:
        read_public(params, "receiver", public_to_obj(badb))
    assert info.value.code == "bad-receiver-key"
    assert info.value.detail == "G does not have full order 16"
    # outside the torsion; each point's two tests fire before the next
    # point's, the torsion test first
    E = pub.curve
    T = next(R for R in (E.mul(27, E.random_point(rng)) for _ in range(50))
             if R != INFINITY)
    for G, H, detail in ((E.add(pub.G, T), pub.H, "G is not 27-torsion"),
                         (E.add(pub.G, T), E.mul(3, pub.H),
                          "G is not 27-torsion"),
                         (E.mul(3, pub.G), E.add(pub.H, T),
                          "G does not have full order 27"),
                         (pub.G, E.add(pub.H, T), "H is not 27-torsion")):
        with pytest.raises(InvalidPointError) as info:
            validate_public(params, "A", SidhPublic(E, G, H))
        assert str(info.value) == detail
    # off-curve point: the text is pinned, point and curve printed as
    # ``point_text`` and ``EllipticCurve.__repr__`` write them
    off = (pub.H[0], pub.H[0], (1, 0))
    with pytest.raises(InvalidPointError) as info:
        validate_public(params, "A", SidhPublic(pub.curve, pub.G, off))
    assert str(info.value) == (
        "public point off curve: Point(107+0i, 107+0i) not on "
        "EllipticCurve(A=Fp2(297 + 0i mod 431), B=Fp2(0 + 215i mod 431))")
    # a unit multiple of a basis image is a different honest-looking key
    validate_public(params, "A",
                    SidhPublic(pub.curve, pub.G, pub.curve.mul(2, pub.H)))


def test_validate_accepts_honest_keys(p431):
    """An honest key passes, and the multiples that proved its orders
    come back: R = [ell^(e-1)]G and S = [ell^(e-1)]H, Jacobian, of
    order ell."""
    rng = det_rng(6)
    for side in ("A", "B"):
        kp = keygen(p431, side, rng)
        E, G, H = kp.public
        own, other = p431.sides(side)
        assert own != other
        ell, e = other.ell, other.e
        R, S = validate_public(p431, side, kp.public)
        for T, P in ((R, G), (S, H)):
            assert E._affine(T) == E.mul(ell ** (e - 1), P)
            assert E._affine(T) != INFINITY
            assert E.mul(ell, E._affine(T)) == INFINITY


@pytest.mark.parametrize("call", [
    lambda p, pub: validate_public(p, "sender", pub),
    lambda p, pub: keygen(p, "receiver", det_rng(10)),
    lambda p, pub: brute_force_secret(p, pub, "C"),
    lambda p, pub: p.sides("a"),
], ids=["validate-role", "keygen-role", "brute-force-stray", "lower-case"])
def test_only_A_and_B_name_a_side(p431, call):
    """A role or a stray string where a side belongs raises, rather
    than picking a torsion: the receiver's honest key, checked as if
    "sender" named side B, would pass."""
    honest = keygen(p431, "B", det_rng(10)).public
    with pytest.raises(ValueError, match="^unknown side "):
        call(p431, honest)
    assert p431.sides("A") == (p431.side_a, p431.side_b)
    assert p431.sides("B") == (p431.side_b, p431.side_a)


def test_public_codec_roundtrip(p431):
    rng = det_rng(7)
    kp = keygen(p431, "A", rng)
    obj = public_to_obj(kp.public)
    back = public_from_obj(p431.ctx, obj)
    assert back == kp.public
    obj2 = dict(obj)
    obj2["extra"] = 1
    with pytest.raises(DecodeError):
        public_from_obj(p431.ctx, obj2)
    obj3 = dict(obj)
    obj3["g"] = {"x": "zz", "y": "00"}
    with pytest.raises(DecodeError):
        public_from_obj(p431.ctx, obj3)


@pytest.mark.parametrize("inf", ["no", [0], 1])
def test_point_at_infinity_is_only_json_true(p431, inf):
    obj = public_to_obj(keygen(p431, "A", det_rng(9)).public)
    obj["g"] = {"inf": inf}
    with pytest.raises(DecodeError):
        public_from_obj(p431.ctx, obj)


def test_singular_curves_raise_decode_error(p431):
    zero = "00" * (2 * p431.ctx.byte_width)
    # 4A^3 + 27B^2 = 0 at (A, B) = (0, 0), at (-3, 2) and at
    # (-3t^2, 2t^3) for a t off F_p
    ctx = p431.ctx
    node = {"a": ctx.elem(-3).hex(), "b": ctx.elem(2).hex()}
    t = ctx.elem(2, 3)
    node_t = {"a": (ctx.elem(-3) * t * t).hex(),
              "b": (ctx.elem(2) * t * t * t).hex()}
    for curve in ({"a": zero, "b": zero}, node, node_t):
        params = params_to_obj(p431)
        params["e0"] = curve
        with pytest.raises(DecodeError, match="e0 is singular") as e0:
            params_from_obj(params)
        pub = public_to_obj(keygen(p431, "A", det_rng(8)).public)
        pub["curve"] = curve
        with pytest.raises(DecodeError, match="curve is singular") as key:
            public_from_obj(p431.ctx, pub)
    # the texts print the coefficients as ``Fp2`` values
    assert str(e0.value) == ("e0 is singular: A=Fp2(15 + 395i mod 431) "
                             "B=Fp2(339 + 18i mod 431)")
    assert str(key.value) == ("curve is singular: A=Fp2(15 + 395i mod 431) "
                              "B=Fp2(339 + 18i mod 431)")


def test_params_codec_roundtrip(p431):
    obj = params_to_obj(p431)
    back = params_from_obj(obj)
    assert back.p == p431.p
    assert back.side_a == p431.side_a
    assert back.side_b == p431.side_b
    bad = dict(obj)
    bad["p"] = 433   # 1 mod 4, and breaks the factorization consistency
    with pytest.raises((DecodeError, ValueError)):
        params_from_obj(bad)


def test_params_integers_reject_json_booleans(p431):
    """true is not the integer 1, though Python's bool is an int."""
    assert p431.f == 1
    with pytest.raises(DecodeError, match="f must be a positive integer"):
        params_from_obj({**params_to_obj(p431), "f": True})


def test_keygen_deterministic_under_seed(p431):
    k1 = keygen(p431, "A", det_rng(99))
    k2 = keygen(p431, "A", det_rng(99))
    assert k1.r == k2.r and k1.public == k2.public


def test_params_from_obj_rejects_off_curve_basis_point(p431):
    obj = params_to_obj(p431)
    obj["pa"] = {"x": obj["pa"]["x"], "y": obj["pb"]["y"]}
    with pytest.raises(DecodeError) as info:
        params_from_obj(obj)
    assert str(info.value) == (
        "basis point pa not on e0: Point(118+387i, 3+348i) not on "
        "EllipticCurve(A=Fp2(1 + 0i mod 431), B=Fp2(0 + 0i mod 431))")


def test_params_from_obj_rejects_off_torsion_basis_point(p431):
    """A basis point of the other side is on e0 but outside its own
    side's torsion: the decoder names the side."""
    swap = {"pa": "pb", "qa": "qb", "pb": "pa", "qb": "qa"}
    for k, other in swap.items():
        obj = params_to_obj(p431)
        obj[k] = obj[other]
        side = k[1].upper()
        with pytest.raises(DecodeError, match=f"^side {side} basis: "):
            params_from_obj(obj)


def test_params_from_obj_refuses_a_composite_p_and_a_dependent_basis(p431):
    obj = params_to_obj(p431)
    with pytest.raises(DecodeError, match="^bad prime: p = 1295 is not "
                                          "prime$"):
        params_from_obj({**obj, "p": 1295, "f": 3})   # 16 * 27 * 3 - 1
    with pytest.raises(DecodeError, match="^side B basis fails "
                                          "independence$"):
        params_from_obj({**obj, "qb": obj["pb"]})


def test_params_from_obj_rejects_unsupported_shapes(p431):
    # 4^2 * 3^3 - 1 is still 431, but 4 is not a prime
    with pytest.raises(DecodeError, match="4 is not prime"):
        params_from_obj({**params_to_obj(p431), "la": 4, "ea": 2})
    with pytest.raises(DecodeError, match="exponents exceed"):
        params_from_obj({**params_to_obj(p431), "eb": 10 ** 7})


def test_params_from_obj_refuses_a_huge_torsion_prime_at_once():
    """p = 2^4 * q - 1 for a 41-bit prime q: a well-formed file whose
    basis test would take q // 2 additions is refused by the shape
    check, before any point is read, and so is the search."""
    q = next(q for q in range(1 << 40, 1 << 41)
             if is_prime(q) and is_prime(16 * q - 1))
    assert q > MAX_ELL
    ctx = FieldContext(16 * q - 1)
    E = EllipticCurve(ctx, (1, 0), (0, 0))
    rng = det_rng(b"tests/huge-ell")
    basis_b = tuple(E.mul(16, E.random_point(rng)) for _ in range(2))
    assert all(P != INFINITY and E.mul(q, P) == INFINITY for P in basis_b)
    params = PublicParams(
        ctx.p, 1, E,
        Torsion(2, 4, E.sample_torsion_basis(2, 4, ctx.p + 1, rng)),
        Torsion(q, 1, basis_b))
    obj = params_to_obj(params)
    start = time.perf_counter()
    with pytest.raises(DecodeError, match=f"{q} exceeds the cap of "
                                          f"{MAX_ELL} on a torsion prime"):
        params_from_obj(obj)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(UnsupportedParameterError, match="exceeds the cap"):
        gen_params(2, 4, q, 1, rng=rng)


@pytest.mark.parametrize("mutate", [
    lambda e0: "junk",
    lambda e0: None,
    lambda e0: [e0["a"], e0["b"]],
    lambda e0: {"a": e0["a"]},
    lambda e0: {"b": e0["b"]},
    lambda e0: {**e0, "c": e0["a"]},
    lambda e0: {"a": 1, "b": e0["b"]},
    lambda e0: {"a": e0["a"], "b": [0, 0]},
], ids=["string", "null", "list", "missing-b", "missing-a", "extra-key",
        "int-coordinate", "list-coordinate"])
def test_params_from_obj_rejects_malformed_e0(p431, mutate):
    obj = params_to_obj(p431)
    obj["e0"] = mutate(obj["e0"])
    with pytest.raises(DecodeError):
        params_from_obj(obj)

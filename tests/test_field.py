"""Quadratic extension arithmetic against hand-checked and exhaustive
oracles."""

import random

import pytest

from oracles import sqrt_by_exponentiation
from siot import Fp2
from siot.field import FieldContext, _strong_lucas, is_prime

CTX = FieldContext(431)


def test_requires_three_mod_four():
    with pytest.raises(ValueError):
        FieldContext(13)
    with pytest.raises(ValueError):
        FieldContext(15)   # composite


def test_known_products_and_inverses():
    # (1 + 2i)(3 + i) = 3 + i + 6i - 2 = 1 + 7i
    assert CTX.elem(1, 2) * CTX.elem(3, 1) == CTX.elem(1, 7)
    # 2 * 216 = 432 = 1 mod 431
    assert CTX.elem(2).inv() == CTX.elem(216)
    assert CTX.elem(0, 1) * CTX.elem(0, 1) == CTX.elem(-1)


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        a = CTX.elem(rng.randrange(431), rng.randrange(431))
        b = CTX.elem(rng.randrange(431), rng.randrange(431))
        c = CTX.elem(rng.randrange(431), rng.randrange(431))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        if a:
            assert a * a.inv() == CTX.one()
            assert a / a == CTX.one()


def test_pow_matches_repeated_multiplication():
    """Every exponent in [-8, 64], negative ones through the inverse, at
    a small and at a SIKE-sized prime."""
    rng = random.Random(64)
    for ctx in (CTX, FieldContext(2 ** 216 * 3 ** 137 - 1)):
        for a in [ctx.elem(5, 11)] + [
                ctx.elem(rng.randrange(ctx.p), rng.randrange(ctx.p))
                for _ in range(2)]:
            for base, sign, top in ((a, 1, 64), (a.inv(), -1, 8)):
                acc = ctx.one()
                for k in range(top + 1):
                    assert a ** (sign * k) == acc
                    acc = acc * base
    assert CTX.zero() ** 0 == CTX.one()
    assert CTX.zero() ** 5 == CTX.zero()
    a = CTX.elem(5, 11)
    assert a ** (431 * 431 - 1) == CTX.one()
    # x^p is conjugation for p = 3 mod 4
    assert a ** 431 == CTX.elem(a.a, -a.b)


def test_norm_lands_in_base_field():
    a = CTX.elem(3, 4)
    assert a.norm() == (3 * 3 + 4 * 4) % 431
    assert a * CTX.elem(a.a, -a.b) == CTX.elem(a.norm())


def test_sqrt_known_value_is_canonical():
    r = CTX.elem(4).sqrt()
    assert r == CTX.elem(2)          # the lexicographically smaller root
    assert CTX.elem(0).sqrt() == CTX.zero()


def test_sqrt_exhaustive_small_field():
    """Over F_49 every element is settled by brute force: sqrt must find
    a root exactly for the true squares."""
    ctx = FieldContext(7)
    elems = [ctx.elem(a, b) for a in range(7) for b in range(7)]
    squares = {e * e for e in elems}
    for e in elems:
        r = e.sqrt()
        assert (r is not None) == (e in squares)
        if e in squares:
            assert r is not None and r * r == e
            # canonical choice: never the bigger of the two encodings
            assert r.encode() <= (-r).encode()
        else:
            assert r is None


def test_sqrt_random_roundtrip():
    rng = random.Random(40)
    for _ in range(300):
        a = CTX.elem(rng.randrange(431), rng.randrange(431))
        sq = a * a
        r = sq.sqrt()
        assert r is not None and r * r == sq


@pytest.mark.parametrize("p", [7, 11, 19, 23, 43])
def test_sqrt_matches_exponentiation_oracle_exhaustively(p):
    """The complex-method root is the oracle's root, or both are None,
    on every element of F_{p^2}."""
    ctx = FieldContext(p)
    for a in range(p):
        for b in range(p):
            x = ctx.elem(a, b)
            assert x.sqrt() == sqrt_by_exponentiation(x)


@pytest.mark.parametrize("p", [2 ** 51 * 3 ** 32 - 1, 2 ** 216 * 3 ** 137 - 1],
                         ids=["p102", "p434"])
def test_sqrt_matches_exponentiation_oracle_at_large_primes(p):
    ctx = FieldContext(p)
    rng = random.Random(p)
    for _ in range(300):
        x = ctx.elem(rng.randrange(p), rng.randrange(p))
        assert x.sqrt() == sqrt_by_exponentiation(x)
        sq = x * x
        r = sq.sqrt()
        assert r is not None and r == sqrt_by_exponentiation(sq)
        assert r == x or r == -x


def test_encode_decode_roundtrip():
    a = CTX.elem(300, 1)
    assert len(a.encode()) == 2 * CTX.byte_width
    assert Fp2.decode(CTX, a.encode()) == a
    assert bytes.fromhex(a.hex()) == a.encode()
    with pytest.raises(Exception):
        Fp2.decode(CTX, a.encode() + b"\x00")


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 431, 2591, 3329, 10007}
    for n in range(2, 60):
        assert is_prime(n) == all(n % d for d in range(2, n))
    for n in primes:
        assert is_prime(n)
    assert not is_prime(431 * 2591)
    assert not is_prime(1)
    # strong pseudoprimes to every prime base up to 37 (the first, and
    # the first to every base up to 41); the Lucas test rejects them
    assert not is_prime(318665857834031151167461)   # 399165290221 * 798330580441
    assert not is_prime(3317044064679887385961981)
    # the Lucas test's own refusals: a square, where no D has (D/n) = -1
    # (1093^2 is a strong pseudoprime to base 2), and a D = 5 that
    # shares the factor 5 with n
    assert not _strong_lucas(1093 ** 2)
    assert not _strong_lucas(5 * 41)

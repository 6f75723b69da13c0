"""Arithmetic in F_p and its quadratic extension F_{p^2} = F_p[i]/(i^2+1).

Requires p = 3 (mod 4) so that i^2 = -1 is a non-residue and the
extension is a field, and so the exponentiation-based square root
applies.  Elements are immutable and always stored reduced.

The hot loops above this layer (scalar multiplication, the Velu
push-through and the Miller loop) skip the Fp2 objects: they carry
elements as (a, b) pairs of ints reduced mod p and combine them with the
``p``-prefixed functions at the end of this module.  Their inversions
still go through ``Fp2.inv``, one per loop; ``inv_batch`` makes one
inversion serve many values.
"""

from __future__ import annotations

from .errors import FieldMismatchError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin; the fixed base set is deterministic below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldContext:
    """Shared modulus plus exponents precomputed for inv/sqrt.

    Read-only after construction; safe to share across threads.
    """

    def __init__(self, p: int, check_prime: bool = True):
        if p % 4 != 3:
            raise ValueError(f"p = {p} must be 3 mod 4")
        if check_prime and not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        self.byte_width = (p.bit_length() + 7) // 8
        self._sqrt_exp = (p - 3) // 4      # x^((p-3)/4) step of Fp2 sqrt
        self._legendre_exp = (p - 1) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldContext) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("FieldContext", self.p))

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p})"

    def elem(self, a: int, b: int = 0) -> Fp2:
        return Fp2(self, a, b)

    def zero(self) -> Fp2:
        return Fp2(self, 0, 0)

    def one(self) -> Fp2:
        return Fp2(self, 1, 0)

    def i(self) -> Fp2:
        return Fp2(self, 0, 1)


class Fp2:
    """Element a + b*i of F_{p^2}, always reduced mod p."""

    __slots__ = ("ctx", "a", "b")

    def __init__(self, ctx: FieldContext, a: int, b: int = 0):
        self.ctx = ctx
        self.a = a % ctx.p
        self.b = b % ctx.p

    def _match(self, other: Fp2) -> None:
        if self.ctx.p != other.ctx.p:
            raise FieldMismatchError(
                f"moduli differ: {self.ctx.p} vs {other.ctx.p}")

    def __add__(self, other: Fp2) -> Fp2:
        self._match(other)
        return Fp2(self.ctx, self.a + other.a, self.b + other.b)

    def __sub__(self, other: Fp2) -> Fp2:
        self._match(other)
        return Fp2(self.ctx, self.a - other.a, self.b - other.b)

    def __mul__(self, other: Fp2) -> Fp2:
        self._match(other)
        # (a+bi)(c+di) = (ac-bd) + (ad+bc)i
        a, b, c, d = self.a, self.b, other.a, other.b
        return Fp2(self.ctx, a * c - b * d, a * d + b * c)

    def __neg__(self) -> Fp2:
        return Fp2(self.ctx, -self.a, -self.b)

    def __truediv__(self, other: Fp2) -> Fp2:
        return self * other.inv()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Fp2) and self.ctx.p == other.ctx.p
                and self.a == other.a and self.b == other.b)

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __repr__(self) -> str:
        return f"Fp2({self.a} + {self.b}i mod {self.ctx.p})"

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def square(self) -> Fp2:
        return self * self

    def __pow__(self, n: int) -> Fp2:
        if n < 0:
            return self.inv() ** (-n)
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> Fp2:
        return Fp2(self.ctx, self.a, -self.b)

    def norm(self) -> int:
        """N(a+bi) = a^2 + b^2 in F_p."""
        return (self.a * self.a + self.b * self.b) % self.ctx.p

    def inv(self) -> Fp2:
        """(a+bi)^-1 = (a-bi)/(a^2+b^2)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in F_p^2")
        n_inv = pow(self.norm(), -1, self.ctx.p)
        return Fp2(self.ctx, self.a * n_inv, -self.b * n_inv)

    def sqrt(self) -> Fp2 | None:
        """Canonical square root, or None when no root exists.

        Exponentiation method for p = 3 (mod 4): with s = x^((p-3)/4),
        either i*x^((p+1)/4) or ((1+x^((p-1)/2))^((p-1)/2))*x^((p+1)/4)
        is a root; a final squaring rejects non-residues.  Of the pair
        {r, -r} the one with the smaller canonical byte encoding is
        returned.
        """
        if self.is_zero():
            return self.ctx.zero()
        s = self ** self.ctx._sqrt_exp
        alpha = s * s * self            # x^((p-1)/2)
        x0 = s * self                   # x^((p+1)/4)
        if alpha == -self.ctx.one():
            root = self.ctx.i() * x0
        else:
            root = (self.ctx.one() + alpha) ** self.ctx._legendre_exp * x0
        if root * root != self:
            return None
        other = -root
        return root if root.encode() <= other.encode() else other

    def encode(self) -> bytes:
        """Fixed-width big-endian bytes of a then b."""
        w = self.ctx.byte_width
        return self.a.to_bytes(w, "big") + self.b.to_bytes(w, "big")

    def hex(self) -> str:
        return self.encode().hex()

    @classmethod
    def decode(cls, ctx: FieldContext, data: bytes) -> Fp2:
        w = ctx.byte_width
        if len(data) != 2 * w:
            raise ValueError(f"expected {2*w} bytes, got {len(data)}")
        a = int.from_bytes(data[:w], "big")
        b = int.from_bytes(data[w:], "big")
        if a >= ctx.p or b >= ctx.p:
            raise ValueError("encoded component not reduced mod p")
        return cls(ctx, a, b)

    @classmethod
    def from_hex(cls, ctx: FieldContext, text: str) -> Fp2:
        return cls.decode(ctx, bytes.fromhex(text))


# -- (a, b) integer pairs ------------------------------------------------

ZERO = (0, 0)
ONE = (1, 0)


def pair(x: Fp2) -> tuple[int, int]:
    return x.a, x.b


def padd(x, y, p: int) -> tuple[int, int]:
    return (x[0] + y[0]) % p, (x[1] + y[1]) % p


def psub(x, y, p: int) -> tuple[int, int]:
    return (x[0] - y[0]) % p, (x[1] - y[1]) % p


def pscale(k: int, x, p: int) -> tuple[int, int]:
    return k * x[0] % p, k * x[1] % p


def pmul(x, y, p: int) -> tuple[int, int]:
    a, b = x
    c, d = y
    return (a * c - b * d) % p, (a * d + b * c) % p


def psqr(x, p: int) -> tuple[int, int]:
    a, b = x
    return (a + b) * (a - b) % p, 2 * a * b % p


def inv_batch(ctx: FieldContext, xs: list) -> list:
    """Inverses of the nonzero pairs xs with a single ``Fp2.inv``.

    Montgomery's simultaneous inversion: invert the product of all the
    values, then peel each inverse off with the running prefix products,
    at three multiplications per value.
    """
    if not xs:
        return []
    p = ctx.p
    prefix = [xs[0]]
    for x in xs[1:]:
        prefix.append(pmul(prefix[-1], x, p))
    acc = pair(Fp2(ctx, *prefix[-1]).inv())
    out = [acc] * len(xs)
    for i in range(len(xs) - 1, 0, -1):
        out[i] = pmul(acc, prefix[i - 1], p)
        acc = pmul(acc, xs[i], p)
    out[0] = acc
    return out

"""Arithmetic in F_p and its quadratic extension F_{p^2} = F_p[i]/(i^2+1).

Requires p = 3 (mod 4) so that i^2 = -1 is a non-residue and the
extension is a field, and so F_p square roots are one exponentiation.
Elements are immutable and always stored reduced.

Functions take and return ``Fp2`` values.  The kernels inside them skip
the objects and are written as straight-line arithmetic on the unpacked
integer coordinates: ``Fp2.__pow__``, ``Fp2.sqrt`` and ``inv_batch``
here, and above this layer the Jacobian steps and the conversion out of
them, the on-curve and singularity tests, the Miller loop, the Weil
pairing's quotient and the Velu step.

Arithmetic trusts its moduli: ``+``, ``-`` and ``*`` take the left
operand's field and do not compare it with the right one's.  Fields
can only meet where outside data enters, and each of those places
tests them once: ``is_on_curve``, and the decoders, which build every
element, a decoded curve's A and B included, in the parameters' field.
"""

from __future__ import annotations

from math import isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Baillie-PSW: Miller-Rabin to the twelve prime bases up to 37,
    then a strong Lucas test.

    The bases alone are deterministic only below 3.18e23; with the
    Lucas test no composite is known to pass, and none below 2^64 does.
    """
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
    return _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n), for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 37 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1, Q = (1 - D)/4 (Baillie-Wagstaff, Math. Comp. 35, 1980)."""
    if isqrt(n) ** 2 == n:          # no D would have (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:  # D shares a proper factor with n
            return False
        D = -(D + 2) if D > 0 else 2 - D
    Q, half = (1 - D) // 4, (n + 1) // 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1      # n + 1 = d * 2^s, d odd
    # U_k, V_k and Q^k from k = 1 up the bits of d (P = 1)
    U, V, Qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) * half % n, (D * U + V) * half % n
            Qk = Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):              # V_d, V_2d, ..., V_(2^(s-1) d)
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


class FieldContext:
    """Shared modulus plus exponents precomputed for inv/sqrt.

    Read-only after construction; safe to share across threads.
    """

    def __init__(self, p: int):
        if p % 4 != 3:
            raise ValueError(f"p = {p} must be 3 mod 4")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        self.byte_width = (p.bit_length() + 7) // 8
        self._sqrt_exp = (p + 1) // 4      # x^((p+1)/4) is an F_p root
        self._half = (p + 1) // 2          # 1/2 mod p

    def elem(self, a: int, b: int = 0) -> Fp2:
        return Fp2(self, a, b)

    def zero(self) -> Fp2:
        return Fp2(self, 0, 0)

    def one(self) -> Fp2:
        return Fp2(self, 1, 0)


class Fp2:
    """Element a + b*i of F_{p^2}, always reduced mod p."""

    __slots__ = ("ctx", "a", "b")

    def __init__(self, ctx: FieldContext, a: int, b: int = 0):
        self.ctx = ctx
        self.a = a % ctx.p
        self.b = b % ctx.p

    def __add__(self, other: Fp2) -> Fp2:
        return Fp2(self.ctx, self.a + other.a, self.b + other.b)

    def __sub__(self, other: Fp2) -> Fp2:
        return Fp2(self.ctx, self.a - other.a, self.b - other.b)

    def __mul__(self, other: Fp2) -> Fp2:
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

    def __pow__(self, n: int) -> Fp2:
        if n < 0:
            return self.inv() ** (-n)
        p = self.ctx.p
        a, b = self.a, self.b
        ra, rb = 1, 0
        for bit in bin(n)[2:]:
            ra, rb = (ra + rb) * (ra - rb) % p, 2 * ra * rb % p
            if bit == "1":
                ra, rb = (ra * a - rb * b) % p, (ra * b + rb * a) % p
        return Fp2(self.ctx, ra, rb)

    def norm(self) -> int:
        """N(a+bi) = a^2 + b^2 in F_p."""
        return (self.a * self.a + self.b * self.b) % self.ctx.p

    def inv(self) -> Fp2:
        """(a+bi)^-1 = (a-bi)/(a^2+b^2)."""
        a, b, p = self.a, self.b, self.ctx.p
        if a == 0 and b == 0:
            raise ZeroDivisionError("inverse of zero in F_p^2")
        n_inv = pow((a * a + b * b) % p, -1, p)
        return Fp2(self.ctx, a * n_inv, -b * n_inv)

    def sqrt(self) -> Fp2 | None:
        """Canonical square root, or None when no root exists.

        Complex method for p = 3 (mod 4) (Adj and Rodriguez-Henriquez,
        IEEE Trans. Computers 63(11), 2014): a + bi is a square exactly
        when its norm a^2 + b^2 is a square n^2 in F_p.  A root x0 + x1*i
        then has x0^2 = (a + n)/2 and x1 = b/(2*x0); when (a + n)/2 is a
        non-residue, its negative is x1^2 and x0 = b/(2*x1) instead.
        That takes two F_p exponentiations and one F_p inversion, and a
        final squaring confirms the root.  Of the pair {r, -r} the one
        with the smaller canonical byte encoding is returned.
        """
        ctx = self.ctx
        p, a, b = ctx.p, self.a, self.b
        if a == 0 and b == 0:
            return ctx.zero()
        norm = self.norm()
        n = pow(norm, ctx._sqrt_exp, p)
        if n * n % p != norm:
            return None
        delta = (a + n) * ctx._half % p
        if delta == 0:               # b = 0 and n = -a: take the other sign
            delta = a
        t = pow(delta, ctx._sqrt_exp, p)
        if t * t % p == delta:
            x0, x1 = t, b * pow(2 * t, -1, p) % p
        else:                        # t^2 = -delta
            x0, x1 = b * pow(2 * t, -1, p) % p, t
        if ((x0 + x1) * (x0 - x1) - a) % p or (2 * x0 * x1 - b) % p:
            return None
        if (x0, x1) > ((-x0) % p, (-x1) % p):    # encodings compare so
            x0, x1 = (-x0) % p, (-x1) % p
        return Fp2(ctx, x0, x1)

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


def inv_batch(ctx: FieldContext, xs: list) -> list:
    """Inverses of the nonzero values xs, given and returned as (a, b)
    coordinate tuples, with a single ``Fp2.inv``.

    Montgomery's simultaneous inversion: invert the product of all the
    values, then peel each inverse off with the running prefix products,
    at three multiplications per value.
    """
    if not xs:
        return []
    p = ctx.p
    a, b = xs[0]
    prefix = [(a, b)]
    for c, d in xs[1:]:
        a, b = (a * c - b * d) % p, (a * d + b * c) % p
        prefix.append((a, b))
    acc = Fp2(ctx, a, b).inv()
    a, b = acc.a, acc.b
    out = [None] * len(xs)
    for i in range(len(xs) - 1, 0, -1):
        c, d = prefix[i - 1]
        out[i] = (a * c - b * d) % p, (a * d + b * c) % p
        c, d = xs[i]
        a, b = (a * c - b * d) % p, (a * d + b * c) % p
    out[0] = a, b
    return out

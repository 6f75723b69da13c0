"""Public parameters, and the first stage of the two-party isogeny key
exchange the oblivious-transfer layer is built on: key generation, the
one check of a public key, which raises ``InvalidPointError`` and leaves
the protocol's abort code to ``siot.siot``, and the codecs.

Parameters fix a prime p = lA^eA * lB^eB * f - 1 with p = 3 (mod 4),
the curve E0: y^2 = x^3 + x over F_{p^2} (group structure
(Z/(p+1))^2), and one ``Torsion`` record per side: side "A" works with
lA^eA-torsion, side "B" with lB^eB-torsion, each with a basis
certified without a pairing by ``EllipticCurve.is_basis`` where it is
drawn (``gen_params``) and where a parameter file enters
(``params_from_obj``).  ``PublicParams.sides`` is the one lookup from
a side's name to its own and its peer's torsion, and refuses any name
but "A" and "B".  Each side's public key is its codomain curve
together with the images of the other side's basis.  The second stage,
completing the exchange against a peer's key (``derive_shared_j``),
lives in ``siot.siot``, where the sender also completes it along its
two branch kernels.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .curve import EllipticCurve, Point, INFINITY
from .errors import (
    DecodeError,
    InvalidPointError,
    ParameterSearchError,
    UnsupportedParameterError,
)
from .field import FieldContext, Fp2, is_prime
from .isogeny import isogeny_chain, kernel_generator
from .util import det_rng, strict_fromhex

# The largest torsion prime a parameter set may use.  A basis test, a
# Velu step and a kernel listing each cost O(ell) group operations, so
# without a cap a parameter file with one huge prime never finishes
# loading.
MAX_ELL = 1 << 10


class SidhPublic(NamedTuple):
    """One side's public key: codomain curve and pushed-through basis."""

    curve: EllipticCurve
    G: Point
    H: Point


class Torsion(NamedTuple):
    """One side's torsion: the prime power ell^e and its basis (P, Q)."""

    ell: int
    e: int
    basis: tuple[Point, Point]

    @property
    def n(self) -> int:
        return self.ell ** self.e


class PublicParams(NamedTuple):
    p: int
    f: int
    curve: EllipticCurve
    side_a: Torsion
    side_b: Torsion

    @property
    def ctx(self) -> FieldContext:
        return self.curve.ctx

    def sides(self, side: str) -> tuple[Torsion, Torsion]:
        """The torsion of ``side`` and of its peer: the one place a
        side's name picks a torsion."""
        if side == "A":
            return self.side_a, self.side_b
        if side == "B":
            return self.side_b, self.side_a
        raise ValueError(f"unknown side {side!r}")


class SidhKeyPair(NamedTuple):
    side: str
    r: int
    public: SidhPublic


def _check_shape(ell_a, e_a, ell_b, e_b) -> None:
    for ell, e in ((ell_a, e_a), (ell_b, e_b)):
        if ell > MAX_ELL:
            raise UnsupportedParameterError(
                f"{ell} exceeds the cap of {MAX_ELL} on a torsion prime")
        if not is_prime(ell):
            raise UnsupportedParameterError(f"{ell} is not prime")
        if e < 1:
            raise UnsupportedParameterError("exponent must be >= 1")
        if ell == 2 and e < 4:
            raise UnsupportedParameterError(
                "the prime 2 needs exponent >= 4 for a usable torsion tower")
    if ell_a == ell_b:
        raise UnsupportedParameterError("the two primes must differ")


def gen_params(ell_a: int, e_a: int, ell_b: int, e_b: int,
               max_f: int = 4, *, rng) -> PublicParams:
    """Search the smallest admissible cofactor f <= max_f and build
    parameters.

    Admissible means p = lA^eA*lB^eB*f - 1 is prime and 3 mod 4.  Bases
    are sampled with the given rng by
    ``EllipticCurve.sample_torsion_basis``, which certifies each one
    without a pairing.
    """
    _check_shape(ell_a, e_a, ell_b, e_b)
    base = ell_a ** e_a * ell_b ** e_b
    for f in range(1, max_f + 1):
        p = base * f - 1
        if p % 4 == 3 and p > 4 and is_prime(p):
            break
    else:
        raise ParameterSearchError(
            f"no admissible cofactor <= {max_f} for {ell_a}^{e_a}*{ell_b}^{e_b}")
    ctx = FieldContext(p)
    curve = EllipticCurve(ctx.one(), ctx.zero())
    return PublicParams(p, f, curve, *(
        Torsion(ell, e, curve.sample_torsion_basis(ell, e, p + 1, rng))
        for ell, e in ((ell_a, e_a), (ell_b, e_b))))


# Named presets; fixed seeds keep every run and process in agreement.
_PRESETS = {
    "p431": ((2, 4, 3, 3), b"preset/p431"),
    "p2591": ((2, 5, 3, 4), b"preset/p2591"),
}
PRESET_NAMES = tuple(sorted(_PRESETS))


@functools.lru_cache(maxsize=None)
def preset(name: str) -> PublicParams:
    if name not in _PRESETS:
        raise UnsupportedParameterError(
            f"unknown preset {name!r}; have {sorted(_PRESETS)}")
    (la, ea, lb, eb), seed = _PRESETS[name]
    return gen_params(la, ea, lb, eb, rng=det_rng(seed))


def keygen(params: PublicParams, side: str, rng) -> SidhKeyPair:
    """Secret scalar, and the public codomain with the other side's
    basis pushed through the secret chain in the same walk.

    Every PublicParams carries a certified basis (P, Q), on which the
    kernel generator P + [r]Q has exact order for every r.
    """
    own, other = params.sides(side)
    E0 = params.curve
    P, Q = own.basis
    r = rng.randrange(own.n)
    curve, (G, H) = isogeny_chain(E0, kernel_generator(E0, P, r, Q),
                                  own.ell, own.e, other.basis)
    return SidhKeyPair(side, r, SidhPublic(curve, G, H))


def validate_public(params: PublicParams, producer_side: str,
                    pub: SidhPublic):
    """The one check of a public key: points on curve and of exact
    torsion order.  ``siot.siot.read_public`` runs it where a key enters,
    and turns its ``InvalidPointError`` into the producer's abort code.

    A public key from side s carries images of the other side's basis,
    so its points must have that side's exact order n = ell^e; a point
    off the curve, outside that torsion or short of that order raises
    ``InvalidPointError``.  Returns the multiples R = [ell^(e-1)]G and
    S = [ell^(e-1)]H that proved the orders, Jacobian and of order ell,
    on which ``read_public`` certifies the receiver's pair.
    """
    _, other = params.sides(producer_side)
    n, ell, e = other.n, other.ell, other.e
    try:
        pub.curve.check_point(pub.G)
        pub.curve.check_point(pub.H)
    except InvalidPointError as exc:
        raise InvalidPointError(f"public point off curve: {exc}") from exc
    multiples = []
    for name, pt in (("G", pub.G), ("H", pub.H)):
        try:
            R = pub.curve.top_multiple(pt, ell, e)
        except InvalidPointError as exc:
            raise InvalidPointError(f"{name} is not {n}-torsion") from exc
        if R[2] == (0, 0):
            raise InvalidPointError(f"{name} does not have full order {n}")
        multiples.append(R)
    return tuple(multiples)


# -- serialization ----------------------------------------------------

def elem_from_hex(ctx: FieldContext, s) -> Fp2:
    if not isinstance(s, str):
        raise DecodeError("field element must be a hex string")
    try:
        return Fp2.decode(ctx, strict_fromhex(s))
    except ValueError as exc:
        raise DecodeError(f"bad field element: {exc}") from exc


def point_to_obj(P: Point) -> dict:
    if P.infinity:
        return {"inf": True}
    return {"x": P.x.hex(), "y": P.y.hex()}


def point_from_obj(ctx: FieldContext, obj) -> Point:
    if not isinstance(obj, dict):
        raise DecodeError("point must be an object")
    if "inf" in obj:
        if set(obj) != {"inf"} or obj["inf"] is not True:
            raise DecodeError('the point at infinity is exactly {"inf": true}')
        return INFINITY
    if set(obj) != {"x", "y"}:
        raise DecodeError("point object needs exactly x and y")
    return Point(elem_from_hex(ctx, obj["x"]), elem_from_hex(ctx, obj["y"]))


def _curve_from_obj(ctx: FieldContext, obj, name: str) -> EllipticCurve:
    """The one reader of outside curves, and so the one test that
    4A^3 + 27B^2 != 0, in straight-line integer arithmetic like the
    on-curve test: ``EllipticCurve`` trusts its coefficients, and every
    other curve is a constant or a Velu codomain of a checked one."""
    if not isinstance(obj, dict) or set(obj) != {"a", "b"}:
        raise DecodeError(f"{name} object needs exactly a and b")
    A, B = elem_from_hex(ctx, obj["a"]), elem_from_hex(ctx, obj["b"])
    p, (aa, ab), (ba, bb) = ctx.p, (A.a, A.b), (B.a, B.b)
    a2a, a2b = (aa + ab) * (aa - ab) % p, 2 * aa * ab % p
    if (4 * (a2a * aa - a2b * ab) + 27 * (ba + bb) * (ba - bb)) % p == 0 \
            and (4 * (a2a * ab + a2b * aa) + 54 * ba * bb) % p == 0:
        raise DecodeError(f"{name} is singular: A={A!r} B={B!r}")
    return EllipticCurve(A, B)


def public_to_obj(pub: SidhPublic) -> dict:
    return {
        "curve": {"a": pub.curve.A.hex(), "b": pub.curve.B.hex()},
        "g": point_to_obj(pub.G),
        "h": point_to_obj(pub.H),
    }


_PUBLIC_JSON = ('{"curve":{"a":"%s","b":"%s"},"g":{"x":"%s","y":"%s"},'
                '"h":{"x":"%s","y":"%s"}}')


def public_json(body: dict) -> bytes:
    """``canonical_json`` of a key body ``public_to_obj`` made or
    ``siot.siot.read_public`` accepted, written by one format: such a
    body has exactly these keys, two points other than O, and lowercase
    hex, which ``canonical_json`` copies verbatim."""
    c, g, h = body["curve"], body["g"], body["h"]
    return (_PUBLIC_JSON % (c["a"], c["b"], g["x"], g["y"], h["x"],
                            h["y"])).encode()


def public_from_obj(ctx: FieldContext, obj) -> SidhPublic:
    """The key's shape and field elements only; its points are checked
    on the curve by ``validate_public``, which its one caller in the
    package, ``siot.siot.read_public``, runs next."""
    if not isinstance(obj, dict) or set(obj) != {"curve", "g", "h"}:
        raise DecodeError("public key needs curve, g, h")
    curve = _curve_from_obj(ctx, obj["curve"], "curve")
    return SidhPublic(curve, point_from_obj(ctx, obj["g"]),
                      point_from_obj(ctx, obj["h"]))


def params_to_obj(params: PublicParams) -> dict:
    return {
        "p": params.p,
        "la": params.side_a.ell, "ea": params.side_a.e,
        "lb": params.side_b.ell, "eb": params.side_b.e,
        "f": params.f,
        "e0": {"a": params.curve.A.hex(), "b": params.curve.B.hex()},
        "pa": point_to_obj(params.side_a.basis[0]),
        "qa": point_to_obj(params.side_a.basis[1]),
        "pb": point_to_obj(params.side_b.basis[0]),
        "qb": point_to_obj(params.side_b.basis[1]),
    }


def params_from_obj(obj) -> PublicParams:
    want = {"p", "la", "ea", "lb", "eb", "f", "e0", "pa", "qa", "pb", "qb"}
    if not isinstance(obj, dict) or set(obj) != want:
        raise DecodeError("params object has wrong keys")
    ints = {k: obj[k] for k in ("p", "la", "ea", "lb", "eb", "f")}
    for k, v in ints.items():
        if type(v) is not int or v < 1:
            raise DecodeError(f"params field {k} must be a positive integer")
    try:
        _check_shape(ints["la"], ints["ea"], ints["lb"], ints["eb"])
    except UnsupportedParameterError as exc:
        raise DecodeError(f"unsupported params shape: {exc}") from exc
    # both primes are >= 2, so a longer exponent cannot match p; checked
    # before the powers, which for a huge exponent take minutes and GBs
    if max(ints["ea"], ints["eb"]) > ints["p"].bit_length():
        raise DecodeError("params exponents exceed the size of the prime")
    if ints["la"] ** ints["ea"] * ints["lb"] ** ints["eb"] * ints["f"] - 1 \
            != ints["p"]:
        raise DecodeError("params prime does not match its factorization")
    try:
        ctx = FieldContext(ints["p"])
    except ValueError as exc:
        raise DecodeError(f"bad prime: {exc}") from exc
    curve = _curve_from_obj(ctx, obj["e0"], "e0")
    pts = {}
    for k in ("pa", "qa", "pb", "qb"):
        pts[k] = point_from_obj(ctx, obj[k])
        try:
            curve.check_point(pts[k])
        except InvalidPointError as exc:
            raise DecodeError(f"basis point {k} not on e0: {exc}") from exc
    params = PublicParams(
        ints["p"], ints["f"], curve,
        Torsion(ints["la"], ints["ea"], (pts["pa"], pts["qa"])),
        Torsion(ints["lb"], ints["eb"], (pts["pb"], pts["qb"])))
    for side, keys in (("A", ("pa", "qa")), ("B", ("pb", "qb"))):
        own, _ = params.sides(side)
        P, Q = own.basis
        try:
            basis = curve.is_basis(P, Q, own.ell, own.e)
        except InvalidPointError as exc:
            k = keys[1] if exc.point is Q else keys[0]
            raise DecodeError(f"side {side} basis: {k} is not "
                              f"{own.n}-torsion") from exc
        if not basis:
            raise DecodeError(f"side {side} basis fails independence")
    return params

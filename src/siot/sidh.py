"""Public parameters, and the first stage of the two-party isogeny key
exchange the oblivious-transfer layer is built on: key generation, the
one check of a public key, and the codecs.

Parameters fix a prime p = lA^eA * lB^eB * f - 1 with p = 3 (mod 4),
the curve E0: y^2 = x^3 + x over F_{p^2} (group structure
(Z/(p+1))^2), and torsion bases for both sides, certified without a
pairing by ``EllipticCurve.is_basis`` where they are drawn
(``gen_params``) and where a parameter file enters
(``params_from_obj``).  Side "A" works with lA^eA-torsion, side "B"
with lB^eB-torsion; each side's public key is its codomain curve
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
    ProtocolAbort,
    UnsupportedParameterError,
)
from .field import FieldContext, Fp2, is_prime
from .isogeny import isogeny_chain, kernel_generator
from .util import det_rng, strict_fromhex

SIDES = ("A", "B")

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


class PublicParams(NamedTuple):
    p: int
    ell_a: int
    e_a: int
    ell_b: int
    e_b: int
    f: int
    curve: EllipticCurve
    basis_a: tuple[Point, Point]
    basis_b: tuple[Point, Point]

    @property
    def ctx(self) -> FieldContext:
        return self.curve.ctx

    def n(self, side: str) -> int:
        if side == "A":
            return self.ell_a ** self.e_a
        if side == "B":
            return self.ell_b ** self.e_b
        raise ValueError(f"unknown side {side!r}")

    def ell(self, side: str) -> int:
        return self.ell_a if side == "A" else self.ell_b

    def e(self, side: str) -> int:
        return self.e_a if side == "A" else self.e_b

    def basis(self, side: str) -> tuple[Point, Point]:
        return self.basis_a if side == "A" else self.basis_b


class SidhKeyPair(NamedTuple):
    side: str
    r: int
    public: SidhPublic


def other_side(side: str) -> str:
    return "B" if side == "A" else "A"


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
               max_f: int = 4, rng=None, general_f: bool = False
               ) -> PublicParams:
    """Search the smallest admissible cofactor f and build parameters.

    By default f ranges over {1, 4} only; general_f opens the search to
    every f <= max_f.  Admissible means p = lA^eA*lB^eB*f - 1 is prime
    and 3 mod 4.  Bases are sampled with the given rng by
    ``EllipticCurve.sample_torsion_basis``, which certifies each one
    without a pairing.
    """
    _check_shape(ell_a, e_a, ell_b, e_b)
    rng = rng if rng is not None else det_rng(None)
    base = ell_a ** e_a * ell_b ** e_b
    candidates = range(1, max_f + 1) if general_f else (1, 4)
    p = None
    chosen_f = None
    for f in candidates:
        if f > max_f:
            continue
        q = base * f - 1
        if q % 4 == 3 and q > 4 and is_prime(q):
            p, chosen_f = q, f
            break
    if p is None:
        raise ParameterSearchError(
            f"no admissible cofactor <= {max_f} for {ell_a}^{e_a}*{ell_b}^{e_b}")
    ctx = FieldContext(p)
    curve = EllipticCurve(ctx.one(), ctx.zero())
    exponent = p + 1
    basis_a = curve.sample_torsion_basis(ell_a, e_a, exponent, rng)
    basis_b = curve.sample_torsion_basis(ell_b, e_b, exponent, rng)
    return PublicParams(p, ell_a, e_a, ell_b, e_b, chosen_f, curve,
                        basis_a, basis_b)


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
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    E0 = params.curve
    P, Q = params.basis(side)
    P2, Q2 = params.basis(other_side(side))
    r = rng.randrange(params.n(side))
    curve, (G, H) = isogeny_chain(E0, kernel_generator(E0, P, r, Q),
                                  params.ell(side), params.e(side), (P2, Q2))
    return SidhKeyPair(side, r, SidhPublic(curve, G, H))


def validate_public(params: PublicParams, producer_side: str,
                    pub: SidhPublic):
    """The one check of a public key: points on curve and of exact
    torsion order.  ``siot.siot.read_public`` runs it where a key enters.

    A public key from side s carries images of the other side's basis,
    so its points must have exact order n(other(s)).  Failure aborts.
    Returns the multiples R = [ell^(e-1)]G and S = [ell^(e-1)]H that
    proved the orders, Jacobian and of order ell, on which
    ``read_public`` certifies the receiver's pair.
    """
    code = "bad-sender-key" if producer_side == "A" else "bad-receiver-key"
    side = other_side(producer_side)
    n, ell, e = params.n(side), params.ell(side), params.e(side)
    try:
        pub.curve.check_point(pub.G)
        pub.curve.check_point(pub.H)
    except InvalidPointError as exc:
        raise ProtocolAbort(code, f"public point off curve: {exc}") from exc
    multiples = []
    for name, pt in (("G", pub.G), ("H", pub.H)):
        try:
            R = pub.curve.top_multiple(pt, ell, e)
        except InvalidPointError as exc:
            raise ProtocolAbort(code, f"{name} is not {n}-torsion") from exc
        if R[2] == (0, 0):
            raise ProtocolAbort(code, f"{name} does not have full order {n}")
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
    4A^3 + 27B^2 != 0: ``EllipticCurve`` trusts its coefficients, and
    every other curve is a constant or a Velu codomain of a checked one."""
    if not isinstance(obj, dict) or set(obj) != {"a", "b"}:
        raise DecodeError(f"{name} object needs exactly a and b")
    A, B = elem_from_hex(ctx, obj["a"]), elem_from_hex(ctx, obj["b"])
    if (ctx.elem(4) * A ** 3 + ctx.elem(27) * B * B).is_zero():
        raise DecodeError(f"{name} is singular: A={A!r} B={B!r}")
    return EllipticCurve(A, B)


def public_to_obj(pub: SidhPublic) -> dict:
    return {
        "curve": {"a": pub.curve.A.hex(), "b": pub.curve.B.hex()},
        "g": point_to_obj(pub.G),
        "h": point_to_obj(pub.H),
    }


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
        "la": params.ell_a, "ea": params.e_a,
        "lb": params.ell_b, "eb": params.e_b,
        "f": params.f,
        "e0": {"a": params.curve.A.hex(), "b": params.curve.B.hex()},
        "pa": point_to_obj(params.basis_a[0]),
        "qa": point_to_obj(params.basis_a[1]),
        "pb": point_to_obj(params.basis_b[0]),
        "qb": point_to_obj(params.basis_b[1]),
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
    params = PublicParams(ints["p"], ints["la"], ints["ea"], ints["lb"],
                          ints["eb"], ints["f"], curve,
                          (pts["pa"], pts["qa"]), (pts["pb"], pts["qb"]))
    for side, keys in (("A", ("pa", "qa")), ("B", ("pb", "qb"))):
        P, Q = params.basis(side)
        try:
            basis = curve.is_basis(P, Q, params.ell(side), params.e(side))
        except InvalidPointError as exc:
            k = keys[1] if exc.point is Q else keys[0]
            raise DecodeError(f"side {side} basis: {k} is not "
                              f"{params.n(side)}-torsion") from exc
        if not basis:
            raise DecodeError(f"side {side} basis fails independence")
    return params

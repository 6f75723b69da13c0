"""Adversarial probes and brute-force oracles, all desk-scale.

Nothing here is a security proof; the scans demonstrate, on toy
parameters, that the mask constraints do what they claim: the pairing
probe available to the sender cannot see the receiver's bit, a cheating
receiver cannot collapse the sender's two kernels into one, and the
underlying search problems are only tractable because the parameters
are tiny.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .curve import EllipticCurve
from .errors import (DecryptionError, InconsistentKeyError,
                     InvalidPointError, UnsupportedParameterError)
from .field import Fp2
from .isogeny import isogeny_chain, kernel_generator
from .pairing import weil_pairing
from .sidh import PublicParams, SidhPublic, keygen
from .siot import (MaskCoefficients, branch_kernels, derive_mask_coeffs,
                   derive_shared_j, encode_mask_points, kdf_dec, kdf_enc,
                   mask_public)


class DistinguisherReport(NamedTuple):
    """Outcome of the pairing sweep over the masking parameter lambda.

    For every lambda two hypotheses are evaluated against the public
    target value: "the transcript pair is unmasked" and "the transcript
    pair is masked".  The bit leaks exactly when some lambda separates
    them.
    """

    lambdas: tuple
    verdicts: dict
    separations: tuple
    verdict: str

    def to_obj(self) -> dict:
        return {
            "lambdas": list(self.lambdas),
            "verdicts": {str(k): list(v) for k, v in self.verdicts.items()},
            "separations": list(self.separations),
            "verdict": self.verdict,
        }


class OracleResult(NamedTuple):
    r: int
    space: int
    seconds: float


def equivariance_precheck(params: PublicParams, rng) -> Fp2:
    """Assert e(phi(P), phi(Q)) = e(P, Q)^(deg phi) on a fresh keypair,
    and return the right side, e(PA, QA)^(lB^eB) on E0.

    That value is the distinguisher's public target, and the target
    rests on this relation; it is re-verified from scratch before any
    scan trusts it.
    """
    n = params.side_a.n
    P, Q = params.side_a.basis
    kp = keygen(params, "B", rng)
    lhs = weil_pairing(kp.public.curve, kp.public.G, kp.public.H, n)
    rhs = weil_pairing(params.curve, P, Q, n) ** params.side_b.n
    if lhs != rhs:
        raise AssertionError("pairing does not commute with the isogeny "
                             "at the expected exponent")
    return rhs


# lambdas a scan samples where n is too large to sweep them all
LAMBDA_COUNT = 64


def _lambda_values(n: int, rng) -> tuple:
    if n <= 256:
        return tuple(range(n))
    # the first LAMBDA_COUNT distinct draws, sorted: for n > 277 exactly
    # what random.sample takes, and unlike it valid for n >= 2^63
    picked = set()
    while len(picked) < LAMBDA_COUNT:
        picked.add(rng.randrange(n))
    return tuple(sorted(picked))


def distinguisher_scan(params: PublicParams, masked_public: SidhPublic,
                       coeffs: MaskCoefficients,
                       rng) -> DistinguisherReport:
    """Sweep e(G' + lambda*U, H' + lambda*V) against the public target.

    masked_public is the receiver key as seen on the wire, and (U, V)
    is derived from it with the transcript's coefficients, exactly as a
    curious sender would derive it.  Hypothesis 0 treats the
    transcript pair as unmasked, hypothesis 1 as masked; a compliant
    mask family makes the two sweeps identical for every lambda.
    """
    target = equivariance_precheck(params, rng)
    n = params.side_a.n
    E = masked_public.curve
    G, H = masked_public.G, masked_public.H
    U, V = encode_mask_points(coeffs, E, G, H)
    G1, H1 = E.add(G, U), E.add(H, V)
    lambdas = _lambda_values(n, rng)
    verdicts = {}
    separations = []
    for lam in lambdas:
        lamU, lamV = E.mul(lam, U), E.mul(lam, V)
        v0 = weil_pairing(E, E.add(G, lamU), E.add(H, lamV), n)
        v1 = weil_pairing(E, E.add(G1, lamU), E.add(H1, lamV), n)
        verdicts[lam] = (v0 == target, v1 == target)
        if v0 != v1:
            separations.append(lam)
    verdict = "leaked-b" if separations else "indistinguishable"
    return DistinguisherReport(lambdas, verdicts, tuple(separations), verdict)


def distinguisher_fixture(params: PublicParams, rng, b: int = 1,
                          violate: bool = False):
    """A receiver transcript to aim the scan at.

    Honest path: coefficients derived from a random w, mask applied for
    the chosen bit.  Violating path: a tuple breaking delta = -alpha,
    which makes the pairing exponent move with lambda and leaks the bit.
    Returns (masked_public, coeffs).
    """
    kp = keygen(params, "B", rng)
    n = params.side_a.n
    if violate:
        coeffs = MaskCoefficients(alpha=0, beta=1, gamma=0, delta=2 % n)
    else:
        coeffs = derive_mask_coeffs(rng.randbytes(32), params)
    return mask_public(coeffs, kp.public, b, n), coeffs


def same_cyclic_subgroup(E: EllipticCurve, K1, K2, ell: int, e: int) -> bool:
    """Whether K1 and K2, two ell^e-torsion points of E, both have exact
    order n = ell^e and generate the same subgroup.

    Complete K1 to a basis (K1, Q) and write K2 = [a]K1 + [b]Q: then
    e_n(K1, K2) = e_n(K1, Q)^b, and e_n(K1, Q) has order n, so the
    pairing is 1 exactly when K2 lies in <K1>.  Points of lower order,
    or outside the ell^e-torsion, answer False.

    The pairing stays at order n.  The order-ell pairing of the
    multiples [ell^(e-1)]K1 and [ell^(e-1)]K2, on which
    ``siot.read_public`` certifies a basis, is e_n(K1, K2)^(n/ell): it
    is 1 exactly when b = 0 mod ell, that is when the two subgroups
    share their order-ell subgroup, the first step of their walks, and
    not only when they are equal.
    """
    try:
        if not (E.has_exact_order(K1, ell, e)
                and E.has_exact_order(K2, ell, e)):
            return False
    except InvalidPointError:
        return False
    return weil_pairing(E, K1, K2, ell ** e) == E.ctx.one()


def dishonest_bob_probe(params: PublicParams, rng) -> dict:
    """Exercise the kernel-collapse condition from both directions.

    Honest fixture: protocol coefficients leave the collapse quadratic
    rootless and the sender's two j-invariants distinct, and a receiver
    key opens exactly one ciphertext.  Positive control: coefficients
    crafted against the fixture's sender secret (det = 0, unit ratio)
    make both kernels literally the same subgroup, hence equal j.
    Degenerate control: all-zero coefficients collapse trivially.
    """
    n, ell, e = params.side_a.n, params.side_a.ell, params.side_a.e
    sender = keygen(params, "A", rng)
    receiver = keygen(params, "B", rng)
    w = rng.randbytes(32)
    coeffs = derive_mask_coeffs(w, params)
    pub = receiver.public
    E = pub.curve
    r_a = sender.r

    def branches(c):
        """The sender's two branch kernels and j-invariants under c,
        each kernel formed once."""
        kernels = branch_kernels(c, pub, r_a, n)
        return kernels, [derive_shared_j(sender, pub, params, K)
                         for K in kernels]

    report: dict = {}
    (K0, K1), (j0, j1) = branches(coeffs)
    k0 = kdf_enc(j0, b"probe-x0")
    k1 = kdf_enc(j1, b"probe-x1")
    opened = []
    for c in (k0, k1):
        try:
            kdf_dec(j0, c)
            opened.append(True)
        except DecryptionError:
            opened.append(False)
    report["honest"] = {
        "quad_root_free": coeffs.quadratic_root_free(ell),
        "kernels_same_subgroup": same_cyclic_subgroup(E, K0, K1, ell, e),
        "j_equal": j0 == j1,
        "opens_under_j0": opened,
    }

    # crafted: alpha = lA and beta = lA*r make K1 = (1 + lA)*K0, a unit
    # multiple for every lA, so <K1> = <K0> exactly
    crafted = MaskCoefficients(alpha=ell % n, beta=ell * r_a % n, gamma=0,
                               delta=0)
    (Kc0, Kc1), (cj0, cj1) = branches(crafted)
    report["crafted"] = {
        "alpha": crafted.alpha, "beta": crafted.beta,
        "quad_has_root": not crafted.quadratic_root_free(ell),
        "kernels_same_subgroup": same_cyclic_subgroup(E, Kc0, Kc1, ell, e),
        "j_equal": cj0 == cj1,
    }

    zero = MaskCoefficients(0, 0, 0, 0)
    _, (zj0, zj1) = branches(zero)
    report["degenerate"] = {"j_equal": zj0 == zj1}
    return report


_TOY_LIMIT = 1 << 16


def brute_force_secret(params: PublicParams, public: SidhPublic,
                       side: str) -> OracleResult:
    """Recover the secret scalar behind a public key by exhaustive sweep.

    Test oracle only; refuses parameter sets beyond toy scale.  The
    recovered scalar regenerates the public key exactly (same curve
    coefficients and basis images), not merely up to isomorphism.
    """
    own, other = params.sides(side)
    n, ell, e = own.n, own.ell, own.e
    if n > _TOY_LIMIT:
        raise UnsupportedParameterError(
            f"search space {n} exceeds the toy-scale bound {_TOY_LIMIT}")
    P, Q = own.basis
    E0 = params.curve
    started = time.perf_counter()
    for r in range(n):
        K = kernel_generator(E0, P, r, Q)
        curve, _ = isogeny_chain(E0, K, ell, e, ())
        if curve != public.curve:
            continue
        # only a candidate with the right codomain walks again to push
        _, images = isogeny_chain(E0, K, ell, e, other.basis)
        if images == [public.G, public.H]:
            return OracleResult(r, n, time.perf_counter() - started)
    raise InconsistentKeyError("no scalar regenerates the given public key")

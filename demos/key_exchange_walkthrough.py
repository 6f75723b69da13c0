"""Walk through one two-sided isogeny key exchange at desk scale.

Every value is printed so the whole dance fits on a screen: the shared
curve, both torsion bases, each party's secret walk, the exchanged
public triples, and the matching j-invariants at the end.
"""

from siot import derive_shared_j, det_rng, keygen, preset, validate_public
from siot.errors import InvalidPointError


def banner(text: str) -> None:
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


def show_public(name, pub):
    print(f"{name} sends the codomain curve and two pushed basis points:")
    print(f"  curve : y^2 = x^3 + ({pub.curve.A})x + ({pub.curve.B})")
    print(f"  G     : {pub.G}")
    print(f"  H     : {pub.H}")


def main() -> None:
    params = preset("p431")
    banner(f"Public parameters, p = {params.p}")
    a, b = params.side_a, params.side_b
    print(f"torsion split : {a.ell}^{a.e} * {b.ell}^{b.e} * {params.f}"
          " = p + 1")
    print(f"start curve   : y^2 = x^3 + x over F_p^2,  j = "
          f"{params.curve.j_invariant()}")
    for side in ("A", "B"):
        own, _ = params.sides(side)
        P, Q = own.basis
        print(f"side {side} basis  : {P}  /  {Q}")

    rng = det_rng(b"walkthrough")
    banner("Secret walks")
    alice = keygen(params, "A", rng)
    bob = keygen(params, "B", rng)
    print(f"Alice draws r_A = {alice.r} and quotients by "
          f"<P_A + [r_A]Q_A>, a degree-{a.n} step")
    print(f"Bob   draws r_B = {bob.r} and quotients by "
          f"<P_B + [r_B]Q_B>, a degree-{b.n} step")

    banner("Exchange")
    show_public("Alice", alice.public)
    print()
    show_public("Bob", bob.public)

    banner("Second quotients")
    j_a = derive_shared_j(alice, bob.public, params)
    j_b = derive_shared_j(bob, alice.public, params)
    print(f"Alice walks again on Bob's curve  -> j = {j_a}")
    print(f"Bob walks again on Alice's curve  -> j = {j_b}")
    print("agree!" if j_a == j_b else "MISMATCH, this is a bug")

    banner("A mangled public key is refused")
    # Bob's triple carries side-A torsion images, so halving an order
    # (multiplying by lA) breaks the full-order requirement
    pub = bob.public
    bad = type(pub)(pub.curve, pub.curve.mul(a.ell, pub.G), pub.H)
    try:
        validate_public(params, "B", bad)
    except InvalidPointError as exc:
        print(f"validate_public: {exc}")


if __name__ == "__main__":
    main()

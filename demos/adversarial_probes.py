"""Point the analysis harness at the protocol and watch it fail to win.

Four probes:
  1. pairing distinguisher scan: a curious sender tries to read the
     receiver's bit off the masked pair, honestly and with a planted
     coefficient violation as the positive control;
  2. dishonest receiver: tries to craft a mask whose two branch kernels
     collapse into one subgroup (so both ciphertexts would open);
  3. exhaustive secret recovery, which does work at desk scale and is
     exactly why these primes are toys;
  4. the classical-group baseline OT for comparison.
"""

from siot import det_rng, keygen, preset
from siot.analysis import (
    brute_force_secret,
    dishonest_bob_probe,
    distinguisher_fixture,
    distinguisher_scan,
)
from siot.baseline_ot import CURVE, Q, run_baseline_local


def banner(text: str) -> None:
    print()
    print("#" * 64)
    print("#", text)
    print("#" * 64)


def probe_distinguisher(params) -> None:
    banner("1. distinguisher scan on the masked public pair")
    rng = det_rng(b"probe-1")
    for violate in (False, True):
        masked, coeffs = distinguisher_fixture(params, rng, b=1,
                                               violate=violate)
        rep = distinguisher_scan(params, masked, coeffs, rng=rng)
        kind = "violating" if violate else "compliant"
        print(f"coefficients ({kind:>9}): alpha={coeffs.alpha} "
              f"beta={coeffs.beta} gamma={coeffs.gamma} delta={coeffs.delta}")
        print(f"  scanned {len(rep.lambdas)} lambda values "
              f"-> verdict: {rep.verdict}")
        if rep.separations:
            print(f"  separating lambdas: {list(rep.separations)[:8]}")


def probe_dishonest_receiver(params) -> None:
    banner("2. dishonest receiver hunting for a kernel collapse")
    rep = dishonest_bob_probe(params, det_rng(b"probe-2"))
    h, c = rep["honest"], rep["crafted"]
    print(f"protocol coefficients: quadratic root-free={h['quad_root_free']}"
          f"  same-subgroup={h['kernels_same_subgroup']}"
          f"  j0==j1: {h['j_equal']}")
    print(f"  one key opens the branches as {h['opens_under_j0']}")
    print(f"crafted against r_A   : quadratic has root={c['quad_has_root']}"
          f"  same-subgroup={c['kernels_same_subgroup']}"
          f"  j0==j1: {c['j_equal']}")
    print("  ...which the coefficient constraints exist to forbid")


def probe_brute_force(params) -> None:
    banner("3. exhaustive key recovery (the toy-scale break)")
    rng = det_rng(b"probe-3")
    for side in ("A", "B"):
        kp = keygen(params, side, rng)
        res = brute_force_secret(params, kp.public, side)
        print(f"side {side}: swept {res.space} candidates in "
              f"{res.seconds * 1000:.1f} ms -> r = {res.r} "
              f"(planted {kp.r}, {'hit' if res.r == kp.r else 'miss'})")


def probe_baseline(_) -> None:
    banner("4. classical-group baseline OT, same shape, old assumptions")
    print(f"group: order-{Q} subgroup of a curve over F_{CURVE.A.ctx.p}")
    for b in (0, 1):
        art = run_baseline_local(b, b"message zero", b"message one!",
                                 seed=b"probe-4/%d" % b)
        print(f"b={b}: delivered {art['output']!r}")


def main() -> None:
    params = preset("p431")
    probe_distinguisher(params)
    probe_dishonest_receiver(params)
    probe_brute_force(params)
    probe_baseline(params)


if __name__ == "__main__":
    main()

"""Acceptance gate.

Twelve end-to-end properties, one test and one printed verdict line
each.  Run `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import pytest

from oracles import (check_mask_coefficients, cyclic_subgroup,
                     full_kernel_quotient, multiplicative_order,
                     symmetric_constraint_check, symmetric_pairing)
from siot import (
    SessionConfig,
    derive_shared_j,
    det_rng,
    kdf_dec,
    keygen,
    preset,
    run_local,
)
from siot.analysis import (
    brute_force_secret,
    dishonest_bob_probe,
    distinguisher_fixture,
    distinguisher_scan,
    equivariance_precheck,
)
from siot.baseline_ot import (
    CURVE,
    bo_receiver_round,
    bo_sender_keys,
    bo_sender_setup,
    run_baseline_local,
)
from siot.errors import DecryptionError, ProtocolAbort, RestartRequired
from siot.isogeny import isogeny_chain, kernel_generator
from siot.pairing import weil_pairing
from siot.sidh import SidhPublic
from siot.siot import (
    MaskCoefficients,
    SiotSession,
    derive_mask_coeffs,
    encode_mask_points,
    exchange,
)
from siot.util import open_sealed


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _pump(params, b, x0, x1, seed):
    rng_s = det_rng(seed + b"/s")
    rng_r = det_rng(seed + b"/r")
    sid = b"\x07" * 16
    for _ in range(8):   # rerun on restart signals, fresh coins each time
        s = SiotSession(params, "sender", rng_s, sid, x0=x0, x1=x1)
        r = SiotSession(params, "receiver", rng_r, sid, b=b)
        try:
            exchange(s, r)
        except RestartRequired:
            continue
        return s, r, r.output
    raise RuntimeError("restart budget exhausted")


@pytest.fixture(scope="module")
def corpus(p431):
    """100 honest sessions, both choice bits, kept for criteria 2-4."""
    runs = []
    for i in range(100):
        b = i % 2
        x0 = b"left-%03d" % i
        x1 = b"right %03d!" % i
        s, r, out = _pump(p431, b, x0, x1, b"corpus-%d" % i)
        runs.append((b, x0, x1, s, r, out))
    return runs


def test_01_key_exchange_agreement(p431, p2591):
    t0 = time.monotonic()
    good = 0
    for params in (p431, p2591):
        rng = det_rng(b"acc01/" + str(params.p).encode())
        for _ in range(100):
            alice = keygen(params, "A", rng)
            bob = keygen(params, "B", rng)
            ja = derive_shared_j(alice, bob.public, params)
            jb = derive_shared_j(bob, alice.public, params)
            good += ja == jb
    dt = time.monotonic() - t0
    _verdict(1, "two-sided key exchange agreement",
             good == 200 and dt < 5.0, f"{good}/200 matches in {dt:.2f}s")


def test_02_ot_delivers_exactly_chosen_input(corpus):
    delivered = sum(out == (x1 if b else x0)
                    for b, x0, x1, s, r, out in corpus)
    wrong_branch_fails = 0
    for b, x0, x1, s, r, out in corpus:
        other = s.ciphertexts[1 - b]
        try:
            kdf_dec(r.shared_j[0], other, r._transcript_hash())
        except DecryptionError:
            wrong_branch_fails += 1
    _verdict(2, "chosen input delivered, other branch sealed",
             delivered == 100 and wrong_branch_fails == 100,
             f"{delivered}/100 delivered, {wrong_branch_fails}/100 refusals")


def test_03_branch_keys_always_differ(corpus):
    distinct = sum(s.shared_j[0] != s.shared_j[1]
                   for b, x0, x1, s, r, out in corpus)
    _verdict(3, "sender branch j-invariants distinct",
             distinct == 100, f"{distinct}/100")


def test_04_mask_rederivation_fixed_point(corpus, p431):
    matches = 0
    for b, x0, x1, s, r, out in corpus:
        pub = r.keypair.public
        local = encode_mask_points(r.coeffs, pub.curve, pub.G, pub.H)
        seen = s.their_public
        remote = encode_mask_points(s.coeffs, seen.curve, seen.G, seen.H)
        matches += local == remote
    _verdict(4, "sender re-derives the receiver's mask points",
             matches == 100, f"{matches}/100 (both b values)")


def test_05_distinguisher_neutrality(p431):
    t0 = time.monotonic()
    rng = det_rng(b"acc05")
    ok = True
    for b in (0, 1):
        masked, coeffs = distinguisher_fixture(p431, rng, b=b)
        rep = distinguisher_scan(p431, masked, coeffs, rng=rng)
        ok &= rep.verdict == "indistinguishable"
        ok &= len(rep.lambdas) == p431.side_a.n   # exhaustive scan
    masked, coeffs = distinguisher_fixture(p431, rng, b=1, violate=True)
    leak = distinguisher_scan(p431, masked, coeffs, rng=rng)
    ok &= leak.verdict == "leaked-b" and coeffs.delta != -coeffs.alpha
    dt = time.monotonic() - t0
    _verdict(5, "mask indistinguishable, planted violation leaks",
             ok and dt < 30.0, f"{dt:.2f}s")


def test_06_collapse_quadratic_root_free(p431):
    rng = det_rng(b"acc06")
    root_free = 0
    for _ in range(1000):
        coeffs = derive_mask_coeffs(rng.randbytes(32), p431)
        check_mask_coefficients(coeffs, p431)
        root_free += coeffs.quadratic_root_free(p431.side_a.ell)
    probe = dishonest_bob_probe(p431, rng)
    control = (probe["crafted"]["quad_has_root"]
               and probe["crafted"]["kernels_same_subgroup"]
               and probe["crafted"]["j_equal"]
               and not probe["honest"]["j_equal"])
    _verdict(6, "derived masks root-free, crafted root collapses kernels",
             root_free == 1000 and control, f"{root_free}/1000 root-free")


def test_07_chain_matches_full_kernel_quotient(p431):
    E0 = p431.curve
    agree = total = 0
    for own in (p431.side_a, p431.side_b):
        n, ell, e = own.n, own.ell, own.e
        P, Q = own.basis
        for r in range(n):
            K = kernel_generator(E0, P, r, Q)
            chained = isogeny_chain(E0, K, ell, e, ())[0].j_invariant()
            single = full_kernel_quotient(
                E0, cyclic_subgroup(E0, K, n)).codomain.j_invariant()
            agree += chained == single
            total += 1
    _verdict(7, "stepwise chain equals one-shot kernel quotient",
             agree == total, f"{agree}/{total} (exhaustive, both sides)")


def test_08_pairing_suite(p431, p2591):
    rng = det_rng(b"acc08")
    arenas = [(p431.curve, p431.side_a.basis, p431.side_a.n),
              (p431.curve, p431.side_b.basis, p431.side_b.n)]
    for side in ("A", "B"):
        kp = keygen(p431, side, rng)
        pub = kp.public
        _, other = p431.sides(side)
        arenas.append((pub.curve, (pub.G, pub.H), other.n))
    trials = 0
    for i in range(500):
        E, (G, H), n = arenas[i % len(arenas)]
        a, b, c, d = (rng.randrange(n) for _ in range(4))
        f, g = rng.randrange(n), rng.randrange(n)
        P = E.add(E.mul(a, G), E.mul(b, H))
        Q = E.add(E.mul(c, G), E.mul(d, H))
        R = E.add(E.mul(f, G), E.mul(g, H))
        z = weil_pairing(E, P, Q, n)
        one = E.ctx.one()
        assert z ** n == one
        assert weil_pairing(E, P, P, n) == one
        assert z * weil_pairing(E, Q, P, n) == one
        assert weil_pairing(E, E.add(P, R), Q, n) \
            == z * weil_pairing(E, R, Q, n)
        det = (a * d - b * c) % n
        assert multiplicative_order(z, n) == n // math.gcd(det, n)
        trials += 1
    chains = 0
    for params in (p431, p2591):
        equivariance_precheck(params, rng)
        for side in ("A", "B"):
            own, other = params.sides(side)
            deg, m = own.n, other.n
            P, Q = other.basis
            for _ in range(3):
                # keygen's public points are the images of (P, Q)
                pub = keygen(params, side, rng).public
                lhs = weil_pairing(pub.curve, pub.G, pub.H, m)
                assert lhs == weil_pairing(params.curve, P, Q, m) ** deg
                chains += 1
    _verdict(8, "pairing laws and isogeny equivariance",
             trials == 500 and chains == 12,
             f"{trials} randomized trials, {chains} chains + prechecks")


def test_09_brute_force_inverts_every_key(p431):
    E0 = p431.curve
    worst = 0.0
    recovered = total = 0
    for side in ("A", "B"):
        own, other = p431.sides(side)
        n, ell, e = own.n, own.ell, own.e
        P, Q = own.basis
        for r in range(n):
            K = kernel_generator(E0, P, r, Q)
            curve, (G, H) = isogeny_chain(E0, K, ell, e, other.basis)
            pub = SidhPublic(curve, G, H)
            res = brute_force_secret(p431, pub, side)
            recovered += res.r == r and res.space == n
            total += 1
            worst = max(worst, res.seconds)
    _verdict(9, "toy-scale exhaustive secret recovery",
             recovered == total and worst < 1.0,
             f"{recovered}/{total} keys, worst sweep {worst:.3f}s")


def test_10_baseline_ot_bulk(p431):
    rng = det_rng(b"acc10")
    good = sealed = 0
    for i in range(1000):
        b = i % 2
        m0 = b"plain zero %d" % i
        m1 = b"plain one. %d" % i
        art = run_baseline_local(b, m0, m1, seed=b"acc10/%d" % i)
        good += art["output"] == (m1 if b else m0)
        other = art["ciphertexts"][1 - b]
        try:
            open_sealed(art["receiver_key"], other)
        except DecryptionError:
            sealed += 1
    off = CURVE.point(CURVE.A.ctx.elem(8144), CURVE.A.ctx.elem(4842))
    refusals = 0
    try:
        bo_receiver_round(off, 0, rng)
    except ProtocolAbort as exc:
        refusals += exc.code == "refused-point"
    y, S, T = bo_sender_setup(rng)
    try:
        bo_sender_keys(y, S, T, off)
    except ProtocolAbort as exc:
        refusals += exc.code == "refused-point"
    _verdict(10, "reference OT bulk run and refusal paths",
             good == 1000 and sealed == 1000 and refusals == 2,
             f"{good}/1000 delivered, {sealed}/1000 sealed, "
             f"{refusals}/2 refusals")


def test_11_symmetric_pairing_and_family(set3):
    E0 = set3.curve
    ell, e, n = set3.side_a.ell, set3.side_a.e, set3.side_a.n
    G, H = set3.side_a.basis
    rng = det_rng(b"acc11")
    symmetric = 0
    for _ in range(500):
        P = E0.add(E0.mul(rng.randrange(n), G), E0.mul(rng.randrange(n), H))
        Q = E0.add(E0.mul(rng.randrange(n), G), E0.mul(rng.randrange(n), H))
        symmetric += symmetric_pairing(E0, G, H, P, Q, ell, e) \
            == symmetric_pairing(E0, G, H, Q, P, ell, e)
    lift = ell ** ((e + 1) // 2)
    family_ok = all(
        symmetric_constraint_check(set3, c) and c.alpha % lift == 0
        for c in (derive_mask_coeffs(rng.randbytes(32), set3)
                  for _ in range(100)))
    outsider = MaskCoefficients(alpha=3, beta=1, gamma=(-9) % n,
                                delta=(-3) % n)
    _verdict(11, "swap-symmetric pairing and hardened coefficient family",
             symmetric == 500 and family_ok
             and not symmetric_constraint_check(set3, outsider),
             f"{symmetric}/500 symmetric pairs")


def test_12_deterministic_transcripts(p431):
    blobs = []
    for _ in range(2):
        cfg = SessionConfig(p431, seed=b"acc12-seed", b=1,
                            x0=b"fixed zero", x1=b"fixed one.")
        out = run_local(cfg)
        blobs.append(out["transcript"].to_bytes())
    base = [run_baseline_local(0, b"m zero", b"m one.",
                               seed=b"acc12-base")["transcript"].to_bytes()
            for _ in range(2)]
    _verdict(12, "fixed seeds give byte-identical transcripts",
             blobs[0] == blobs[1] and base[0] == base[1] and len(blobs[0]) > 0,
             f"{len(blobs[0])} transcript bytes")

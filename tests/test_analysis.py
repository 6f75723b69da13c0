"""Adversarial probes and toy-scale oracles: the pairing distinguisher,
kernel-collapse probe, brute-force inversion, and reachability."""

import pytest

import siot.analysis
from oracles import (decompose_in_basis, isogeny_path_exists,
                     reachable_j_values, shared_j_oracle,
                     symmetric_constraint_check)
from siot import derive_shared_j, det_rng, gen_params, keygen
from siot.analysis import (
    LAMBDA_COUNT,
    _lambda_values,
    brute_force_secret,
    dishonest_bob_probe,
    distinguisher_fixture,
    distinguisher_scan,
    equivariance_precheck,
    same_cyclic_subgroup,
)
from siot.errors import InconsistentKeyError, UnsupportedParameterError
from siot.isogeny import kernel_generator
from siot.sidh import SidhPublic, Torsion
from siot.siot import MaskCoefficients, derive_mask_coeffs


def test_equivariance_precheck_passes(p431, p2591):
    equivariance_precheck(p431, det_rng(b"eq1"))
    equivariance_precheck(p2591, det_rng(b"eq2"))


def test_equivariance_precheck_refuses_a_broken_relation(p431, monkeypatch):
    """No parameter file reaches the precheck's error, since
    ``params_from_obj`` certifies the bases, so a pairing that swaps its
    points on the codomain, e(H, G) = e(G, H)^-1, breaks the relation."""
    real = siot.analysis.weil_pairing

    def swapped_on_codomain(E, P, Q, n):
        return real(E, Q, P, n) if E != p431.curve else real(E, P, Q, n)

    monkeypatch.setattr(siot.analysis, "weil_pairing", swapped_on_codomain)
    with pytest.raises(AssertionError, match="does not commute"):
        equivariance_precheck(p431, det_rng(b"eq1"))


def test_honest_mask_is_indistinguishable(p431):
    for b in (0, 1):
        masked, coeffs = distinguisher_fixture(p431, det_rng(b"hn%d" % b), b=b)
        report = distinguisher_scan(p431, masked, coeffs,
                                    det_rng(b"distinguisher-scan"))
        assert report.verdict == "indistinguishable"
        assert report.separations == ()
        assert len(report.lambdas) == p431.side_a.n   # exhaustive here


def test_planted_violation_leaks_the_bit(p431):
    masked, coeffs = distinguisher_fixture(p431, det_rng(b"viol"), b=1,
                                           violate=True)
    report = distinguisher_scan(p431, masked, coeffs,
                                det_rng(b"distinguisher-scan"))
    assert report.verdict == "leaked-b"
    assert len(report.separations) > 0
    obj = report.to_obj()
    assert obj["verdict"] == "leaked-b"


def test_scan_samples_distinct_lambdas_past_256(set71):
    """At n_A = 1024 and at n_A = 2^71 the scan samples its lambdas
    instead of sweeping them; the sample must still tell an honest mask
    from a violating one."""
    small = gen_params(2, 10, 3, 3, rng=det_rng(b"tests/p27647"))
    assert small.p == 27647 and small.side_a.n == 1024
    assert set71.side_a.n == 2 ** 71
    for params in (small, set71):
        for violate, verdict in ((False, "indistinguishable"),
                                 (True, "leaked-b")):
            rng = det_rng(b"sampled-%d" % violate)
            masked, coeffs = distinguisher_fixture(params, rng,
                                                   violate=violate)
            report = distinguisher_scan(params, masked, coeffs, rng=rng)
            assert report.verdict == verdict
            lambdas = report.lambdas
            assert len(set(lambdas)) == LAMBDA_COUNT
            assert list(lambdas) == sorted(lambdas)
            assert all(0 <= lam < params.side_a.n for lam in lambdas)


@pytest.mark.parametrize("n", [512, 3 ** 32, 2 ** 51])
def test_sampled_lambdas_are_random_sample_draws(n):
    """Past random.sample's pool branch (n > 277) the scan's lambdas are
    the ones ``rng.sample(range(n), 64)`` takes, sorted, and leave the
    rng in the same state, so reports from before it went by
    ``randrange`` still hold."""
    mine, ref = det_rng(b"lambdas-%d" % n), det_rng(b"lambdas-%d" % n)
    assert _lambda_values(n, mine) == tuple(
        sorted(ref.sample(range(n), LAMBDA_COUNT)))
    assert mine.getstate() == ref.getstate()


def test_scan_accepts_transcript_coefficients(p431):
    """The scan takes the raw coefficients: that is what a curious
    sender actually holds."""
    masked, coeffs = distinguisher_fixture(p431, det_rng(b"raw"), b=0)
    r1 = distinguisher_scan(p431, masked, coeffs,
                            det_rng(b"distinguisher-scan"))
    assert r1.verdict == "indistinguishable"


def test_same_cyclic_subgroup_detects_unit_multiples(p431):
    E = p431.curve
    G, H = p431.side_a.basis
    K = kernel_generator(E, G, 5, H)
    assert same_cyclic_subgroup(E, K, E.mul(3, K), 2, 4)
    assert same_cyclic_subgroup(E, K, E.neg(K), 2, 4)
    assert not same_cyclic_subgroup(E, K, E.mul(2, K), 2, 4)
    K2 = kernel_generator(E, G, 6, H)
    assert not same_cyclic_subgroup(E, K, K2, 2, 4)


def _same_by_decomposition(E, basis, K1, K2, ell, e):
    """Both points of exact order ell^e and <K1> = <K2>, read off their
    coordinates over a basis: each has a unit coordinate, and the two
    coordinate vectors are dependent."""
    n = ell ** e
    (u1, v1), (u2, v2) = (decompose_in_basis(E, *basis, K, ell, e)
                          for K in (K1, K2))
    full = all(u % ell or v % ell for u, v in ((u1, v1), (u2, v2)))
    return full and (u1 * v2 - v1 * u2) % n == 0


def test_same_cyclic_subgroup_agrees_with_decomposition(p431, p2591, set3):
    """The one-pairing test against the decomposition oracle, on a
    public key's curve for both sides of three parameter sets: unit and
    non-unit multiples, independent points, and points of lower order,
    which it must refuse even where they span one subgroup."""
    rng = det_rng(b"same-subgroup")
    answers = set()
    for params in (p431, p2591, set3):
        for producer in ("B", "A"):
            # a key carries images of the other side's torsion
            _, other = params.sides(producer)
            ell, e, n = other.ell, other.e, other.n
            pub = keygen(params, producer, rng).public
            E, basis = pub.curve, (pub.G, pub.H)

            def point(u, v):
                return E.add(E.mul(u, basis[0]), E.mul(v, basis[1]))

            for _ in range(8):
                u, v = rng.randrange(n), 1
                if rng.randrange(2):
                    u, v = 1, ell * rng.randrange(n)
                K = point(u, v)
                unit = rng.choice([u for u in range(1, n) if u % ell])
                pairs = [(K, E.mul(unit, K)), (K, E.neg(K)),
                         (K, E.mul(ell * unit, K)),
                         (K, point(rng.randrange(n), rng.randrange(n))),
                         (E.mul(ell, K), E.mul(ell * unit, K)),
                         (E.mul(ell ** (e - 1), K), K)]
                for K1, K2 in pairs:
                    got = same_cyclic_subgroup(E, K1, K2, ell, e)
                    assert got == _same_by_decomposition(E, basis, K1, K2,
                                                         ell, e)
                    answers.add(got)
            # a point outside the ell^e-torsion is refused, not raised
            other = E.mul(n, E.random_point(rng))
            assert not same_cyclic_subgroup(E, K, other, ell, e)
    assert answers == {True, False}


def _assert_probe_reports(report):
    """Honest coefficients keep the sender's kernels apart; the crafted
    and the all-zero ones collapse them."""
    honest = report["honest"]
    assert honest["quad_root_free"]
    assert not honest["kernels_same_subgroup"]
    assert not honest["j_equal"]
    assert honest["opens_under_j0"] == [True, False]
    crafted = report["crafted"]
    assert crafted["quad_has_root"]
    assert crafted["kernels_same_subgroup"]
    assert crafted["j_equal"]
    assert report["degenerate"]["j_equal"]


def test_dishonest_receiver_probe(p431):
    _assert_probe_reports(dishonest_bob_probe(p431, det_rng(b"bobprobe")))


def test_dishonest_receiver_probe_on_a_3_power_side(set3):
    """The crafted ratio 1 + lA is a unit whatever lA is, so a 3-power A
    side reports rather than raising on a kernel of too small order."""
    for seed in (b"bob3-0", b"bob3-1", b"bob3-2"):
        report = dishonest_bob_probe(set3, det_rng(seed))
        _assert_probe_reports(report)
        assert report["crafted"]["alpha"] == 3


def test_brute_force_recovers_both_sides(p431):
    rng = det_rng(b"bf")
    for side, space in (("A", 16), ("B", 27)):
        kp = keygen(p431, side, rng)
        res = brute_force_secret(p431, kp.public, side)
        assert res.r == kp.r
        assert res.space == space
        assert res.seconds < 1.0


def test_brute_force_rejects_foreign_key(p431):
    rng = det_rng(b"bf2")
    kp = keygen(p431, "A", rng)
    pub = kp.public
    forged = SidhPublic(pub.curve, pub.G, pub.curve.add(pub.H, pub.G))
    with pytest.raises(InconsistentKeyError):
        brute_force_secret(p431, forged, "A")


def test_brute_force_refuses_big_spaces(p431):
    big = p431._replace(side_a=Torsion(2, 40, p431.side_a.basis))
    with pytest.raises(UnsupportedParameterError):
        brute_force_secret(big, keygen(p431, "A", det_rng(0)).public, "A")


def test_symmetric_family_membership(set3):
    rng = det_rng(b"symfam")
    n = set3.side_a.n
    for _ in range(20):
        c = derive_mask_coeffs(rng.randbytes(32), set3)
        assert symmetric_constraint_check(set3, c)
    # alpha outside the lifted family fails the membership test
    bad = MaskCoefficients(3, 1, (-9) % n, (-3) % n)
    assert not symmetric_constraint_check(set3, bad)


def test_shared_j_oracle_matches_protocol(p431):
    rng = det_rng(b"oracle-j")
    alice = keygen(p431, "A", rng)
    bob = keygen(p431, "B", rng)
    want = derive_shared_j(alice, bob.public, p431)
    assert shared_j_oracle(p431, alice.r, bob.r) == want


def test_reachability_counts_and_membership(p431):
    rng = det_rng(b"reach")
    js_a = reachable_j_values(p431, "A")
    js_b = reachable_j_values(p431, "B")
    # cyclic subgroups of order l^e in (Z/l^e)^2: l^e + l^(e-1)
    assert len(js_a) <= 16 + 8
    assert len(js_b) <= 27 + 9
    kp = keygen(p431, "A", rng)
    j = kp.public.curve.j_invariant()
    assert isogeny_path_exists(p431, "A", j)
    ctx = p431.ctx
    far = ctx.elem(5, 5)
    assert isogeny_path_exists(p431, "A", far) == (far in js_a)

"""Adversarial probes and toy-scale oracles: the pairing distinguisher,
kernel-collapse probe, brute-force inversion, and reachability."""

import pytest

from oracles import (isogeny_path_exists, reachable_j_values, shared_j_oracle,
                     symmetric_constraint_check)
from siot import derive_shared_j, det_rng, keygen
from siot.analysis import (
    brute_force_secret,
    dishonest_bob_probe,
    distinguisher_fixture,
    distinguisher_scan,
    equivariance_precheck,
    same_cyclic_subgroup,
)
from siot.errors import InconsistentKeyError, UnsupportedParameterError
from siot.isogeny import kernel_generator
from siot.sidh import SidhPublic
from siot.siot import MaskCoefficients, derive_mask_coeffs


def test_equivariance_precheck_passes(p431, p2591):
    equivariance_precheck(p431, det_rng(b"eq1"))
    equivariance_precheck(p2591, det_rng(b"eq2"))


def test_honest_mask_is_indistinguishable(p431):
    for b in (0, 1):
        masked, coeffs = distinguisher_fixture(p431, det_rng(b"hn%d" % b), b=b)
        report = distinguisher_scan(p431, masked, coeffs)
        assert report.verdict == "indistinguishable"
        assert report.separations == ()
        assert len(report.lambdas) == p431.n("A")   # exhaustive here


def test_planted_violation_leaks_the_bit(p431):
    masked, coeffs = distinguisher_fixture(p431, det_rng(b"viol"), b=1,
                                           violate=True)
    report = distinguisher_scan(p431, masked, coeffs)
    assert report.verdict == "leaked-b"
    assert len(report.separations) > 0
    obj = report.to_obj()
    assert obj["verdict"] == "leaked-b"


def test_scan_accepts_transcript_coefficients(p431):
    """The scan takes the raw coefficients: that is what a curious
    sender actually holds."""
    masked, coeffs = distinguisher_fixture(p431, det_rng(b"raw"), b=0)
    r1 = distinguisher_scan(p431, masked, coeffs)
    assert r1.verdict == "indistinguishable"


def test_same_cyclic_subgroup_detects_unit_multiples(p431):
    E = p431.curve
    G, H = p431.basis_a
    K = kernel_generator(E, G, 5, H)
    assert same_cyclic_subgroup(E, (G, H), K, E.mul(3, K), 2, 4)
    assert same_cyclic_subgroup(E, (G, H), K, E.neg(K), 2, 4)
    assert not same_cyclic_subgroup(E, (G, H), K, E.mul(2, K), 2, 4)
    K2 = kernel_generator(E, G, 6, H)
    assert not same_cyclic_subgroup(E, (G, H), K, K2, 2, 4)


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
    big = p431._replace(e_a=40)
    with pytest.raises(UnsupportedParameterError):
        brute_force_secret(big, keygen(p431, "A", det_rng(0)).public, "A")


def test_symmetric_family_membership(set3):
    rng = det_rng(b"symfam")
    n = set3.n("A")
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

"""Byte-exact transcripts for fixed seeds, one per session driver.

The digests pin the wire bytes of a clean local run, a local run that
restarts once, an online run over a loopback pipe and a baseline run,
so that any change to the message schedule or to a driver that alters
what goes on the wire fails here.  A local and an online run with
64 KiB inputs, the size of the benchmark's online workload, pin the
JSON writer on ciphertext hex of 131,144 digits a field.  A run at
2^51*3^32 - 1, for each bit, pins the long chains: 51 and 32 steps per
walk.  Runs at p2591 and at the swapped-roles set, where the sender
walks 3-isogenies, pin both bits on the two other towers.  The
parameter files of the presets, of that set, of the benchmark's
2^51*3^32 - 1 set and of p434 pin ``gen_params``: its draws and the
basis test that accepts them.  The reports of the two probes of
``siot.analysis`` at p431 and p2591, the honest and the violated scan
and the dishonest-receiver probe, pin the Weil pairing they go through.
"""

import hashlib

import pytest

from loopback import JOIN_S, LoopbackPipe, closing_thread
from siot import (
    SessionConfig,
    canonical_json,
    det_rng,
    gen_params,
    params_to_obj,
    preset,
    run_local,
    run_session,
)
from siot.analysis import (dishonest_bob_probe, distinguisher_fixture,
                           distinguisher_scan)
from siot.baseline_ot import run_baseline_local

X0, X1 = b"golden zero", b"golden one!"
BULK = 64 * 1024


def _digest(transcript) -> str:
    return hashlib.sha256(transcript.to_bytes()).hexdigest()


def test_clean_local_run():
    out = run_local(SessionConfig(preset("p431"), seed=b"golden-0", b=1,
                                  x0=X0, x1=X1))
    assert out["restarts"] == 0
    assert out["output"] == X1
    assert _digest(out["transcript"]) == (
        "e86aaf51d1643e14eeb587099e3153189e740aa7feeb7fc428bb1e9caf85da8a")


def test_restarting_local_run():
    out = run_local(SessionConfig(preset("p431"), seed=b"golden-57", b=1,
                                  x0=X0, x1=X1))
    assert out["restarts"] == 1
    assert out["output"] == X1
    assert _digest(out["transcript"]) == (
        "846f7c5579899465cde37508fbace6b0984c1b9686c3b6a812c2a9b7023cff22")


P102_DIGESTS = (
    "c2ed69464213530a630369bec2b54c47709b61817d52f4e9cd35de31c9ee0ef9",
    "e0ce3b0f79e17e1ddfc0085ad11cbae24736171067b269961b6a6d311ebb709e",
)


@pytest.mark.parametrize("b", [0, 1])
def test_long_chain_local_run(b, p102):
    out = run_local(SessionConfig(p102, seed=b"golden-p102", b=b,
                                  x0=X0, x1=X1))
    assert out["restarts"] == 0
    assert out["output"] == (X0, X1)[b]
    assert _digest(out["transcript"]) == P102_DIGESTS[b]


OTHER_TOWER_DIGESTS = {
    "set3": (
        "92506a7c2398a7ca26552d383cefb372be2cc45819f71dcf522664e28c084e51",
        "a38f72bcfb240485cc201b362dc5ce2c57c355a14adab00e01005b636595582d",
    ),
    "p2591": (
        "1db761825a7930f766197b911c2de2ea9b718ea29a91d74ebe49ff00384446da",
        "23a7ec826c6ca47348fc75cbf8c95fa4534b794a64533b232da19ce96e25e39c",
    ),
}


@pytest.mark.parametrize("b", [0, 1])
@pytest.mark.parametrize("name", sorted(OTHER_TOWER_DIGESTS))
def test_other_tower_local_run(name, b, request):
    params = request.getfixturevalue(name)
    out = run_local(SessionConfig(params, seed=b"golden-" + name.encode(),
                                  b=b, x0=X0, x1=X1))
    assert out["restarts"] == 0
    assert out["output"] == (X0, X1)[b]
    assert _digest(out["transcript"]) == OTHER_TOWER_DIGESTS[name][b]


def _online_pair(x0, x1):
    """Both ends of one online session over a loopback pipe; the two
    transcripts must be the same bytes."""
    params = preset("p431")
    pipe = LoopbackPipe()
    results = {}

    def receiver():
        cfg = SessionConfig(params, seed=b"golden-r", b=0)
        results["r"] = run_session("receiver", cfg, pipe.b)

    th = closing_thread(pipe.b, receiver)
    try:
        results["s"] = run_session(
            "sender", SessionConfig(params, seed=b"golden-s", x0=x0, x1=x1),
            pipe.a)
    finally:
        pipe.a.close()
    th.join(JOIN_S)
    assert not th.is_alive()
    sent = results["s"]["transcript"].to_bytes()
    assert results["r"]["transcript"].to_bytes() == sent
    assert results["r"]["output"] == x0
    return hashlib.sha256(sent).hexdigest()


def test_online_run():
    assert _online_pair(X0, X1) == (
        "0922d9bf7547e8696348f5397e9ee86f211ee9640162057e1845489a94dcfd8b")


def _bulk_inputs():
    """Two 64 KiB inputs, the size of the online-bulk-p431 workload's."""
    rng = det_rng(b"golden-bulk")
    return rng.randbytes(BULK), rng.randbytes(BULK)


def test_bulk_local_run():
    x0, x1 = _bulk_inputs()
    out = run_local(SessionConfig(preset("p431"), seed=b"golden-bulk", b=1,
                                  x0=x0, x1=x1))
    assert out["restarts"] == 0
    assert out["output"] == x1
    assert _digest(out["transcript"]) == (
        "f28012ab35a030db1e3031c38eff496bed0aaf413981a8fbe2ce1b5d1e5dd7e7")


def test_bulk_online_run():
    assert _online_pair(*_bulk_inputs()) == (
        "84c2e8afad3e6a3d541e8af0e5b7ea46c957db7c5ecd22d79dbef0b62d0b7596")


def test_baseline_run():
    out = run_baseline_local(0, b"m zero", b"m one.", seed=b"golden-bo")
    assert out["output"] == b"m zero"
    assert _digest(out["transcript"]) == (
        "d2b5a3f629e21de7bd6babe07b5f6ad0a95089d3f2a21531b54a805e0d7d0abe")


PARAMS_DIGESTS = {
    "p431": "89005a2334d8b20e5f70ef0f0b3b293ad0116f0348b49ade1db049eb253d34c8",
    "p2591": "688c14843c16636c51f61e8adb5e44bbf41c238c18fdb93d3a652b6b870f3931",
    "set3": "f9dd91a5b8438dfba8ad95fa2f623429e5d5d2b9c3acbd5a166c35ef814c0f7a",
    "p434": "9ee0698e832d503e820619ea9cd39e7188897b4b08e3aed67d4ec6bddf5d6516",
}


def _params_digest(params) -> str:
    return hashlib.sha256(canonical_json(params_to_obj(params))).hexdigest()


@pytest.mark.parametrize("name", sorted(PARAMS_DIGESTS))
def test_params_file(name, request):
    assert _params_digest(request.getfixturevalue(name)) \
        == PARAMS_DIGESTS[name]


def test_bench_params_file():
    """The local-102bit workload's parameters, from its fixed seed."""
    params = gen_params(2, 51, 3, 32, rng=det_rng(b"bench/local-102bit"))
    assert _params_digest(params) == (
        "a14e787b45703f207493ca8a6a005e45f77b844376c28b4c9188ba8b646a1155")


PROBE_DIGESTS = {
    ("p431", "distinguisher"):
        "8f2325da87c516692e7e5bced59de73822eff23a305d3d72730f09edddb33f55",
    ("p431", "distinguisher-violated"):
        "0292e9fcccf0d249bc19a637dfad0da8946a0b84d53589991d6582e905d2c692",
    ("p431", "dishonest-bob"):
        "b0cead8c9163d2522090e67ba07792d193af84971e4dad2bd13d683e1af416ee",
    ("p2591", "distinguisher"):
        "b0f82d7db62bb8587ce9ebbd48bf91befa8adfa78fada93db1c634e966aea5bb",
    ("p2591", "distinguisher-violated"):
        "9f6dd1d6ef961223b0b20805d257833f10ca1fe66b1bd85dc016fb1acba07a15",
    ("p2591", "dishonest-bob"):
        "b0cead8c9163d2522090e67ba07792d193af84971e4dad2bd13d683e1af416ee",
}


@pytest.mark.parametrize("name, probe", sorted(PROBE_DIGESTS))
def test_probe_report(name, probe, request):
    """The scan over every lambda, on an honest fixture and on one whose
    coefficients break delta = -alpha, and the dishonest-receiver probe,
    each from a fixed rng.  The dishonest-receiver report holds
    verdicts and the crafted (alpha, beta), which is (2, 6) on both
    presets, so its two digests are equal."""
    params = request.getfixturevalue(name)
    rng = det_rng(b"golden/%s/%s" % (probe.encode(), name.encode()))
    if probe == "dishonest-bob":
        report = dishonest_bob_probe(params, rng)
    else:
        masked, coeffs = distinguisher_fixture(
            params, rng, violate=probe == "distinguisher-violated")
        report = distinguisher_scan(params, masked, coeffs, rng).to_obj()
    assert hashlib.sha256(canonical_json(report)).hexdigest() \
        == PROBE_DIGESTS[name, probe]

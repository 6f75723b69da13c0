"""Byte-exact transcripts for fixed seeds, one per session driver.

The digests pin the wire bytes of a clean local run, a local run that
restarts once, an online run over a loopback pipe and a baseline run,
so that any change to the message schedule or to a driver that alters
what goes on the wire fails here.  A run at 2^51*3^32 - 1, for each
bit, pins the long chains: 51 and 32 steps per walk.  Runs at p2591 and
at the swapped-roles set, where the sender walks 3-isogenies, pin both
bits on the two other towers.
"""

import hashlib

import pytest

from loopback import JOIN_S, LoopbackPipe, closing_thread
from siot import (
    SessionConfig,
    det_rng,
    gen_params,
    preset,
    run_local,
    run_session,
)
from siot.baseline_ot import run_baseline_local

X0, X1 = b"golden zero", b"golden one!"


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
def test_long_chain_local_run(b):
    params = gen_params(2, 51, 3, 32, rng=det_rng(b"tests/p102"))
    out = run_local(SessionConfig(params, seed=b"golden-p102", b=b,
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


def test_online_run():
    params = preset("p431")
    pipe = LoopbackPipe()
    results = {}

    def receiver():
        cfg = SessionConfig(params, seed=b"golden-r", b=0)
        results["r"] = run_session("receiver", cfg, pipe.b)

    th = closing_thread(pipe.b, receiver)
    try:
        results["s"] = run_session(
            "sender", SessionConfig(params, seed=b"golden-s", x0=X0, x1=X1),
            pipe.a)
    finally:
        pipe.a.close()
    th.join(JOIN_S)
    assert not th.is_alive()
    sent = results["s"]["transcript"].to_bytes()
    assert results["r"]["transcript"].to_bytes() == sent
    assert results["r"]["output"] == X0
    assert _digest(results["s"]["transcript"]) == (
        "0922d9bf7547e8696348f5397e9ee86f211ee9640162057e1845489a94dcfd8b")


def test_baseline_run():
    out = run_baseline_local(0, b"m zero", b"m one.", seed=b"golden-bo")
    assert out["output"] == b"m zero"
    assert _digest(out["transcript"]) == (
        "d2b5a3f629e21de7bd6babe07b5f6ad0a95089d3f2a21531b54a805e0d7d0abe")

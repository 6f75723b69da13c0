"""End-to-end session orchestration: local pump, online pump over a
loopback stream, restart handling, and transcript verification."""

import hashlib

import pytest

from loopback import JOIN_S, LoopbackPipe, ReplayStream, closing_thread
from siot import (
    SessionConfig,
    Transcript,
    det_rng,
    gen_params,
    run_local,
    run_session,
    verify_transcript,
)
import siot.runner
import siot.siot
from siot.baseline_ot import run_baseline_local
from siot.errors import DecodeError, ProtocolAbort, RestartRequired
from siot.field import Fp2
from siot.sidh import point_to_obj, public_from_obj
from siot.siot import SCHEDULE, MaskCoefficients, SiotSession
from siot.util import sub_seed
from siot.wire import WireMessage


def _config(params, b, seed=b"runner-seed"):
    return SessionConfig(params, seed=seed, b=b,
                         x0=b"zero input", x1=b"one input!")


def test_run_local_delivers_choice(p431):
    # b=0 run hits one branch-j collision with this seed and retries
    for b, restarts in ((0, 1), (1, 0)):
        out = run_local(_config(p431, b))
        assert out["output"] == (b"one input!" if b else b"zero input")
        assert out["restarts"] == restarts
        assert out["sender_j"][b] == out["receiver_j"]
        assert len(out["transcript"].entries) == 7


def test_run_local_without_a_seed(p431):
    """``siot run-local`` without ``--seed``: each stream draws system
    entropy, and the session still delivers and audits clean."""
    sids = set()
    for b in (0, 1):
        out = run_local(_config(p431, b, seed=None))
        assert out["output"] == (b"one input!" if b else b"zero input")
        assert verify_transcript(out["transcript"], p431)["ok"]
        sids.add(out["session_id"])
    assert len(sids) == 2


def test_run_local_offline_dir(p431, tmp_path):
    """A run's transcript survives a write to disk and a read back."""
    out = run_local(_config(p431, 1))
    path = tmp_path / "transcript.jsonl"
    path.write_bytes(out["transcript"].to_bytes())
    loaded = Transcript.from_bytes(path.read_bytes())
    assert loaded.entries == out["transcript"].entries
    assert loaded.to_bytes() == out["transcript"].to_bytes()


def test_transcripts_are_reproducible(p431):
    t1 = run_local(_config(p431, 0))["transcript"].to_bytes()
    t2 = run_local(_config(p431, 0))["transcript"].to_bytes()
    assert t1 == t2
    t3 = run_local(_config(p431, 0, seed=b"other"))["transcript"].to_bytes()
    assert t3 != t1


def test_verify_transcript_accepts_honest(p431):
    out = run_local(_config(p431, 1))
    report = verify_transcript(out["transcript"], p431)
    assert report["ok"]
    assert [c["check"] for c in report["checks"]] == [
        "message-order", "session-id-consistent", "coinflip-binding",
        "public-key-A", "public-key-B", "ciphertext-shape"]


def _tamper(transcript, index, mutate):
    t = Transcript()
    for i, (direction, msg) in enumerate(transcript.entries):
        if i == index:
            body = dict(msg.body)
            mutate(body)
            msg = WireMessage(msg.type, msg.session, body)
        t.append(direction, msg)
    return t


def test_verify_transcript_flags_broken_commitment(p431):
    out = run_local(_config(p431, 0))
    bad = _tamper(out["transcript"], 2,
                  lambda b: b.update(nonce="00" * 32))
    report = verify_transcript(bad, p431)
    assert not report["ok"]
    failed = {c["check"] for c in report["checks"] if not c["ok"]}
    assert "coinflip-binding" in failed


def test_verify_transcript_flags_bad_public_key(p431):
    out = run_local(_config(p431, 0))

    def clobber(body):
        body["g"] = body["h"]

    bad = _tamper(out["transcript"], 5, clobber)
    report = verify_transcript(bad, p431)
    assert not report["ok"]


def test_verify_transcript_flags_wrong_order(p431):
    out = run_local(_config(p431, 0))
    t = Transcript()
    for direction, msg in reversed(out["transcript"].entries):
        t.append(direction, msg)
    report = verify_transcript(t, p431)
    assert not report["ok"]
    assert report["checks"][0]["check"] == "message-order"
    assert not report["checks"][0]["ok"]


# (transcript row, body key, new value from old, verifier row that fails)
MALFORMED_FIELDS = [
    pytest.param(2, "nonce", lambda v: "zz" * 32, "coinflip-binding",
                 id="nonhex-nonce"),
    pytest.param(2, "nonce", lambda v: v[2:], "coinflip-binding",
                 id="short-nonce"),                    # 31 bytes
    pytest.param(3, "nonce", lambda v: 12345, "coinflip-binding",
                 id="int-nonce"),
    pytest.param(0, "commit", lambda v: None, "coinflip-binding",
                 id="null-commit"),
    pytest.param(6, "c0", lambda v: 7, "ciphertext-shape", id="int-c0"),
    pytest.param(6, "c1", lambda v: "z" * len(v), "ciphertext-shape",
                 id="nonhex-c1"),                      # same length
    pytest.param(6, "c0", lambda v: v[:2] + "  " + v[2:], "ciphertext-shape",
                 id="spaced-c0"),
    pytest.param(2, "nonce", lambda v: v[:2] + "  " + v[2:],
                 "coinflip-binding", id="spaced-nonce"),
]


@pytest.mark.parametrize("index, key, value, failed_check", MALFORMED_FIELDS)
def test_verify_transcript_fails_malformed_fields(p431, index, key, value,
                                                  failed_check):
    """A malformed field is a failed check in the report, not an
    exception out of the verifier."""
    out = run_local(_config(p431, 1))
    bad = _tamper(out["transcript"], index,
                  lambda b: b.update({key: value(b[key])}))
    report = verify_transcript(bad, p431)
    assert report["ok"] is False
    failed = {c["check"] for c in report["checks"] if not c["ok"]}
    assert failed_check in failed


def test_verify_transcript_fails_singular_public_curve(p431):
    out = run_local(_config(p431, 0))
    zero = "00" * (2 * p431.ctx.byte_width)
    bad = _tamper(out["transcript"], 4,
                  lambda b: b.update(curve={"a": zero, "b": zero}))
    report = verify_transcript(bad, p431)
    assert report["ok"] is False
    assert "public-key-A" in {c["check"] for c in report["checks"]}


def _off_curve_g(body, params):
    x = body["g"]["x"]
    body["g"] = {**body["g"], "x": x[:-1] + ("1" if x[-1] == "0" else "0")}


def _low_order_g(body, params):
    """g := [lB]G: on the curve and in the lB^eB-torsion, but short of
    its full order there."""
    pub = public_from_obj(params.ctx, body)
    body["g"] = point_to_obj(pub.curve.mul(params.side_b.ell, pub.G))


def _dependent_pair(body, params):
    pub = public_from_obj(params.ctx, body)
    body["h"] = point_to_obj(pub.curve.mul(3, pub.G))


def _set_field(key, value):
    return lambda body, params: body.update({key: value(body[key])})


def _false_reveal(body, params):
    """One digit of a well-formed nonce changed, so that it does not open
    its commitment: the session aborts ``coinflip-cheat``."""
    nonce = body["nonce"]
    body["nonce"] = ("1" if nonce[0] == "0" else "0") + nonce[1:]


def _cut_ciphertexts(length):
    """Both ciphertexts cut to their first ``length`` bytes; an honest
    one holds at least a 4-byte length prefix and a 32-byte tag."""
    return lambda body, params: body.update(
        {k: body[k][:2 * length] for k in ("c0", "c1")})


# (transcript row, mutation of its body, verifier row that fails, the
# session's abort code)
BAD_BODIES = [
    pytest.param(index, _set_field(key, value), row, "bad-message",
                 id=case.id)
    for case in MALFORMED_FIELDS
    for index, key, value, row in [case.values]
] + [
    pytest.param(2, _false_reveal, "coinflip-binding", "coinflip-cheat",
                 id="false-reveal-sender"),
    pytest.param(3, _false_reveal, "coinflip-binding", "coinflip-cheat",
                 id="false-reveal-receiver"),
    pytest.param(4, _off_curve_g, "public-key-A", "bad-sender-key",
                 id="off-curve-pk-sender"),
    pytest.param(5, _off_curve_g, "public-key-B", "bad-receiver-key",
                 id="off-curve-pk-receiver"),
    pytest.param(4, _low_order_g, "public-key-A", "bad-sender-key",
                 id="low-order-pk-sender"),
    pytest.param(5, _dependent_pair, "public-key-B", "bad-receiver-key",
                 id="dependent-pk-receiver"),
    pytest.param(6, _cut_ciphertexts(0), "ciphertext-shape", "bad-message",
                 id="empty-ciphertexts"),
    pytest.param(6, _cut_ciphertexts(35), "ciphertext-shape", "bad-message",
                 id="35-byte-ciphertexts"),
]


@pytest.mark.parametrize("index, mutate, row, code", BAD_BODIES)
def test_verifier_and_session_refuse_the_same_body(p431, index, mutate, row,
                                                   code):
    """The verifier's row for a bad body fails, and the session phase
    that consumes the body refuses it with the same text and the code
    the body's producer earns: both call the one reader of that body."""
    config = _config(p431, 1)
    out = run_local(config)
    assert out["restarts"] == 0
    bad = _tamper(out["transcript"], index, lambda b: mutate(b, p431))
    report = verify_transcript(bad, p431)
    failed = [c for c in report["checks"] if not c["ok"]]
    assert [c["check"] for c in failed] == [row]

    info = _refusal_at(p431, config, out, [wm.body for _, wm in bad.entries],
                       index, (ProtocolAbort, DecodeError))
    assert str(info.value) == failed[0]["detail"]
    assert info.value.code == code


def _refusal_at(params, config, out, bodies, index, expected=ProtocolAbort):
    """Replay run_local's two sessions on ``bodies`` and return what the
    phase consuming row ``index`` raises; the earlier rows must be the
    honest bodies."""
    sid = out["session_id"]
    parties = {
        "sender": SiotSession(params, "sender",
                              det_rng(sub_seed(config.seed, "sender")), sid,
                              x0=config.x0, x1=config.x1),
        "receiver": SiotSession(params, "receiver",
                                det_rng(sub_seed(config.seed, "receiver")),
                                sid, b=config.b),
    }
    for msg, body in zip(SCHEDULE[:index], bodies):
        assert getattr(parties[msg.producer], msg.produce)() == body
        getattr(parties[msg.consumer], msg.consume)(body)
    msg = SCHEDULE[index]
    with pytest.raises(expected) as info:
        getattr(parties[msg.consumer], msg.consume)(bodies[index])
    return info


# the first row of each body type, and the verifier row that reads it
BODY_ROWS = [(0, "coinflip-binding"), (2, "coinflip-binding"),
             (4, "public-key-A"), (5, "public-key-B"),
             (6, "ciphertext-shape")]


def _extra_key(body):
    body["extra"] = 1


def _missing_key(body):
    del body[sorted(body)[0]]


@pytest.mark.parametrize("index, row", BODY_ROWS,
                         ids=[SCHEDULE[i].type for i, _ in BODY_ROWS])
@pytest.mark.parametrize("mutate", [_extra_key, _missing_key],
                         ids=["extra-key", "missing-key"])
def test_body_keys_are_checked_by_the_reader(p431, index, row, mutate):
    """A body with a key too many or too few passes the wire, through a
    transcript file too, and is refused by its reader with
    ``bad-message`` and the same text in the session and the verifier."""
    config = _config(p431, 1)
    out = run_local(config)
    bad = Transcript.from_bytes(
        _tamper(out["transcript"], index, mutate).to_bytes())
    report = verify_transcript(bad, p431)
    failed = [c for c in report["checks"] if not c["ok"]]
    assert [c["check"] for c in failed] == [row]
    info = _refusal_at(p431, config, out, [wm.body for _, wm in bad.entries],
                       index)
    assert info.value.code == "bad-message"
    assert str(info.value) == failed[0]["detail"]


@pytest.mark.parametrize("index", [i for i, _ in BODY_ROWS],
                         ids=[SCHEDULE[i].type for i, _ in BODY_ROWS])
def test_body_that_is_not_an_object_is_a_coded_abort(p431, index):
    """An in-process session hands its phases bodies the wire never
    checked; one that is not an object is refused by the reader, as
    every other bad body is."""
    config = _config(p431, 1)
    out = run_local(config)
    bodies = [wm.body for _, wm in out["transcript"].entries]
    for body in (list(bodies[index].values()), None, "body"):
        info = _refusal_at(p431, config, out,
                           bodies[:index] + [body], index)
        assert info.value.code == "bad-message"


def test_session_with_torsion_order_above_2_64(set71):
    """2^71 * 3^38 - 1: the A-side torsion order no longer fits the
    8 bytes the pairing's auxiliary-point hash once used for it."""
    assert set71.side_a.n >= 2 ** 64
    out = run_local(_config(set71, 1, seed=b"big-session"))
    assert out["output"] == b"one input!"
    assert out["sender_j"][1] == out["receiver_j"]


def test_session_at_sike_size(counter):
    """p434 = 2^216 * 3^137 - 1, the SIKE-sized prime: a whole session,
    parameter search and basis certificates included, runs in tier-1.
    Its 922 Velu steps make one inversion each at most: the session
    makes 932 in all (2,146 when every traversal multiple was brought
    back to affine, 951 before the kernels and mask points were joint
    multiplications, 938 before the receiver formed its shifted pair by
    joint multiplications and its certificate took one batched
    inversion to pair the order-2 multiples, 937 before that pairing's
    Miller values stayed fractions and its evaluation points shared one
    inversion).  The transcript's digest pins the session at this size,
    where the walks are longest."""
    params = gen_params(2, 216, 3, 137, rng=det_rng(b"tests/p434"))
    assert params.p.bit_length() == 434
    inversions = counter(Fp2, "inv")
    out = run_local(_config(params, 1, seed=b"p434-session"))
    assert out["output"] == b"one input!"
    assert out["sender_j"][1] == out["receiver_j"]
    assert inversions[0] == 932
    assert hashlib.sha256(out["transcript"].to_bytes()).hexdigest() == (
        "920006cede50f1221d1fb8225cd3445560772ed8c39f743744f2252decb57e8b")


def test_forced_non_basis_pair_aborts(p431, monkeypatch):
    """Inject one constraint-breaking coefficient tuple: I - M is then
    singular, the receiver publishes a dependent pair, and the sender's
    basis certificate aborts the session."""
    import siot.siot as siot_mod

    monkeypatch.setattr(
        siot_mod, "derive_mask_coeffs",
        lambda w, params: MaskCoefficients(0, 1, 1, 0))
    with pytest.raises(ProtocolAbort) as info:
        run_local(_config(p431, 1))
    assert info.value.code == "bad-receiver-key"


def _collide_branches(monkeypatch, attempts):
    """Give the sender two equal branch kernels, so its two
    j-invariants collide, on its first ``attempts`` attempts."""
    import siot.siot as siot_mod

    real = siot_mod.branch_kernels
    calls = []

    def colliding(coeffs, pub, r, n):
        calls.append(1)
        K0, K1 = real(coeffs, pub, r, n)
        return (K0, K0) if len(calls) <= attempts else (K0, K1)

    monkeypatch.setattr(siot_mod, "branch_kernels", colliding)


def test_forced_j_collision_restarts(p431, monkeypatch):
    """A branch j-collision signals a restart, and the rerun with a
    fresh coin flip succeeds."""
    _collide_branches(monkeypatch, 1)
    out = run_local(_config(p431, 1))
    assert out["restarts"] == 1
    assert out["output"] == b"one input!"


def test_restart_budget_exhausts(p431, monkeypatch):
    monkeypatch.setattr(siot.runner, "MAX_RESTARTS", 1)
    _collide_branches(monkeypatch, siot.runner.MAX_RESTARTS + 1)
    with pytest.raises(RestartRequired, match="collided"):
        run_local(_config(p431, 1))


def test_online_session_over_loopback(p431):
    pipe = LoopbackPipe()
    results = {}

    def sender():
        cfg = SessionConfig(p431, seed=b"net-s", x0=b"first", x1=b"second")
        results["s"] = run_session("sender", cfg, pipe.a)

    def receiver():
        cfg = SessionConfig(p431, seed=b"net-r", b=1)
        results["r"] = run_session("receiver", cfg, pipe.b)

    ts = [closing_thread(pipe.a, sender), closing_thread(pipe.b, receiver)]
    for t in ts:
        t.join(JOIN_S)
        assert not t.is_alive()
    assert results["r"]["output"] == b"second"
    assert results["s"]["session_id"] == results["r"]["session_id"]
    assert results["s"]["transcript"].to_bytes() \
        == results["r"]["transcript"].to_bytes()
    report = verify_transcript(results["r"]["transcript"], p431)
    assert report["ok"]


def test_online_receiver_rejects_out_of_order(p431):
    from siot.transport import send_frame
    from siot.wire import encode

    pipe = LoopbackPipe()
    err = {}

    def receiver():
        cfg = SessionConfig(p431, seed=b"oo-r", b=0)
        try:
            run_session("receiver", cfg, pipe.b)
        except ProtocolAbort as exc:
            err["code"] = exc.code

    th = closing_thread(pipe.b, receiver)
    try:
        send_frame(pipe.a, encode(WireMessage("coin-reveal", b"\x11" * 16,
                                              {"nonce": "ab" * 32})))
    finally:
        pipe.a.close()
    th.join(JOIN_S)
    assert not th.is_alive()
    assert err["code"] == "out-of-order"


def test_frame_of_unknown_type_is_out_of_order(p431, counter):
    """The wire passes any string as a type; the driver's schedule is the
    one check of a frame's type, which the receiver makes before its
    session's keygen."""
    from siot.wire import encode

    keygens = counter(siot.siot, "keygen")
    frame = encode(WireMessage("gossip", b"\x11" * 16,
                               {"commit": "ab" * 32}))
    cfg = SessionConfig(p431, seed=b"uk-r", b=0)
    with pytest.raises(ProtocolAbort) as info:
        run_session("receiver", cfg, ReplayStream([frame]))
    assert info.value.code == "out-of-order"
    assert str(info.value).endswith("peer sent gossip")
    assert keygens[0] == 0


def test_run_session_refuses_an_unknown_role(p431):
    with pytest.raises(ValueError, match="^role must be sender or receiver$"):
        run_session("observer", SessionConfig(p431, seed=b"uk"),
                    ReplayStream([]))


def test_two_interleaved_local_sessions(p431):
    """Independent session ids and seeds do not cross-contaminate."""
    a = run_local(_config(p431, 0, seed=b"s-one"))
    b = run_local(_config(p431, 1, seed=b"s-two"))
    assert a["session_id"] != b["session_id"]
    assert a["output"] == b"zero input" and b["output"] == b"one input!"


def test_run_baseline_local_transcript_shape():
    out = run_baseline_local(0, b"em zero", b"em one.", seed=b"bl")
    assert out["output"] == b"em zero"
    types = [m.type for _, m in out["transcript"].entries]
    assert types == ["baseline-setup", "baseline-response",
                     "baseline-ciphertexts"]
    again = run_baseline_local(0, b"em zero", b"em one.", seed=b"bl")
    assert again["transcript"].to_bytes() == out["transcript"].to_bytes()

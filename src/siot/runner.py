"""Drives protocol sessions: in-process pairs, online endpoints over a
framed stream, and deterministic transcript verification through the
body readers the sessions call, all walking the one message schedule
``siot.SCHEDULE``; plus the in-process driver of the classical-group
baseline OT.

Restart semantics: a collision of the sender's two branch j-invariants
raises a restart signal; the in-process runner then rebuilds both
sessions and reruns, continuing the same deterministic rng streams so
the retry flips a fresh coin.  Online endpoints surface the signal to
the caller instead, since restart negotiation is not part of the wire
protocol.
"""

from __future__ import annotations

from typing import NamedTuple

from .baseline_ot import (
    bo_receiver_round,
    bo_sender_keys,
    bo_sender_setup,
    default_group,
)
from .errors import DecodeError, ProtocolAbort, RestartRequired
from .sidh import PublicParams, point_to_obj
from .siot import (
    SCHEDULE,
    SiotSession,
    commitment,
    exchange,
    read_ciphertexts,
    read_commit,
    read_nonce,
    read_public,
)
from .transport import recv_frame, send_frame
from .util import det_rng, open_sealed, seal, sub_seed
from .wire import Transcript, WireMessage, decode, encode


class SessionConfig(NamedTuple):
    params: PublicParams
    seed: object = None
    b: int | None = None
    x0: bytes | None = None
    x1: bytes | None = None
    max_restarts: int = 4


def run_local(config: SessionConfig) -> dict:
    """Both parties in one process, fixed schedule, full transcript.

    Returns the receiver's output, the sender's two j-invariants, the
    transcript, and the restart count.
    """
    rng_s = det_rng(sub_seed(config.seed, "sender"))
    rng_r = det_rng(sub_seed(config.seed, "receiver"))
    sid = det_rng(sub_seed(config.seed, "session-id")).randbytes(16)

    restarts = 0
    while True:
        try:
            sender = SiotSession(config.params, "sender", rng_s, sid,
                                 x0=config.x0, x1=config.x1)
            receiver = SiotSession(config.params, "receiver", rng_r, sid,
                                   b=config.b)
            bodies = exchange(sender, receiver)
            break
        except RestartRequired:
            restarts += 1
            if restarts > config.max_restarts:
                raise
    transcript = Transcript()
    for msg, body in zip(SCHEDULE, bodies):
        transcript.append(msg.direction, WireMessage(msg.type, sid.hex(), body))
    return {
        "output": receiver.output,
        "sender_j": sender.shared_j,
        "receiver_j": receiver.shared_j[0],
        "transcript": transcript,
        "sender_session": sender,
        "receiver_session": receiver,
        "session_id": sid,
        "restarts": restarts,
    }


def run_session(role: str, config: SessionConfig, stream) -> dict:
    """One online endpoint over a framed stream.

    The sender picks the session id; the receiver adopts it from the
    first frame.  Every inbound frame must match the schedule's type and
    carry the session id, else the session aborts.
    """
    if role not in ("sender", "receiver"):
        raise ValueError("role must be sender or receiver")
    rng = det_rng(config.seed)
    transcript = Transcript()
    if role == "sender":
        session = SiotSession(config.params, "sender", rng, rng.randbytes(16),
                              x0=config.x0, x1=config.x1)
    else:
        session = None   # built after the session id is learned

    for msg in SCHEDULE:
        if msg.producer == role:
            wm = WireMessage(msg.type, session.session_id.hex(),
                             getattr(session, msg.produce)())
            send_frame(stream, encode(wm))
            transcript.append(msg.direction, wm)
        else:
            wm = decode(recv_frame(stream))
            if session is None:
                session = SiotSession(config.params, "receiver", rng,
                                      bytes.fromhex(wm.session), b=config.b)
            if wm.session != session.session_id.hex():
                raise ProtocolAbort("bad-message", "session id mismatch")
            if wm.type != msg.type:
                raise ProtocolAbort(
                    "out-of-order",
                    f"expected {msg.type}, peer sent {wm.type}")
            transcript.append(msg.direction, wm)
            getattr(session, msg.consume)(wm.body)
    return {
        "output": session.output,
        "session": session,
        "transcript": transcript,
        "session_id": session.session_id,
    }


def verify_transcript(transcript: Transcript, params: PublicParams) -> dict:
    """Deterministic replay of every public validation over a transcript.

    After the schedule and session id, one row per body reader, the one
    its session phase calls: ``coinflip-binding`` (each reveal opens its
    commitment), ``public-key-A``, ``public-key-B`` (the receiver pair's
    basis certificate included) and ``ciphertext-shape``.  A reader's
    abort is a failed row, never an exception out of the verifier.  No
    secrets are needed, and the mask coefficients are not re-derived:
    any coin-flip string yields coefficients meeting every constraint.
    """
    checks = []

    def check(name, ok, detail=""):
        checks.append({"check": name, "ok": bool(ok), "detail": detail})

    entries = transcript.entries
    order_ok = len(entries) == len(SCHEDULE) and all(
        (m.type, d) == (s.type, s.direction)
        for (d, m), s in zip(entries, SCHEDULE))
    check("message-order", order_ok,
          "seven messages in the fixed schedule")
    if not order_ok:
        return {"ok": False, "checks": checks}

    sids = {m.session for _, m in entries}
    check("session-id-consistent", len(sids) == 1, f"ids seen: {sorted(sids)}")

    bodies = [m.body for _, m in entries]

    def coinflip_binding():   # rows 0 and 1 commit, rows 2 and 3 reveal
        for i in (0, 1):
            if commitment(read_nonce(bodies[i + 2])) != read_commit(bodies[i]):
                raise ProtocolAbort("coinflip-cheat", "revealed nonce does "
                                    "not open the commitment")

    rows = (
        ("coinflip-binding", coinflip_binding,
         "each reveal opens its commitment"),
        ("public-key-A", lambda: read_public(params, "A", bodies[4]),
         "key passes torsion validation"),
        ("public-key-B", lambda: read_public(params, "B", bodies[5]),
         "key passes torsion validation; pair is a torsion basis"),
        ("ciphertext-shape", lambda: read_ciphertexts(bodies[6]),
         "two equal-length hex ciphertexts"),
    )
    for name, read, detail in rows:
        try:
            read()
        except (DecodeError, ProtocolAbort) as exc:
            check(name, False, str(exc))
        else:
            check(name, True, detail)

    return {"ok": all(c["ok"] for c in checks), "checks": checks}


# -- baseline OT over the same plumbing ---------------------------------

def run_baseline_local(b: int, m0: bytes, m1: bytes, seed=None) -> dict:
    """In-process baseline OT session with a wire-shaped transcript."""
    ctx = default_group()
    rng_s = det_rng(sub_seed(seed, "bo-sender"))
    rng_r = det_rng(sub_seed(seed, "bo-receiver"))
    sid = det_rng(sub_seed(seed, "bo-session")).randbytes(16).hex()

    y, S, T = bo_sender_setup(ctx, rng_s)
    transcript = Transcript()
    transcript.append("sender->receiver", WireMessage("baseline-setup", sid, {
        "s": point_to_obj(S), "t": point_to_obj(T)}))
    x, R, k_b = bo_receiver_round(ctx, S, b, rng_r)
    transcript.append("receiver->sender", WireMessage("baseline-response", sid, {
        "r": point_to_obj(R)}))
    k0, k1 = bo_sender_keys(ctx, y, S, T, R)
    d0, d1 = seal(k0, m0), seal(k1, m1)
    transcript.append("sender->receiver",
                      WireMessage("baseline-ciphertexts", sid, {
                          "d0": d0.hex(), "d1": d1.hex()}))
    delivered = open_sealed(k_b, d1 if b else d0)
    return {
        "output": delivered,
        "transcript": transcript,
        "keys": (k0, k1),
        "receiver_key": k_b,
        "ciphertexts": (d0, d1),
    }

"""Drives isogeny OT sessions: in-process pairs, online endpoints over
a framed stream, and deterministic transcript verification through the
body readers the sessions call, all walking the one message schedule
``siot.SCHEDULE``.  The classical-group reference OT drives itself, in
``baseline_ot``.

Restart semantics: a collision of the sender's two branch j-invariants
raises a restart signal; the in-process runner then rebuilds both
sessions and reruns, continuing the same deterministic rng streams so
the retry flips a fresh coin.  Online endpoints surface the signal to
the caller instead, since restart negotiation is not part of the wire
protocol.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ProtocolAbort, RestartRequired
from .sidh import PublicParams
from .siot import (SCHEDULE, SESSION_ID_LEN, SIDE, SiotSession, exchange,
                   read_ciphertexts, read_commit, read_public, read_reveal)
from .transport import recv_frame, send_frame
from .util import det_rng, sub_seed
from .wire import Transcript, WireMessage, decode, encode


class SessionConfig(NamedTuple):
    params: PublicParams
    seed: bytes | None = None
    b: int | None = None
    x0: bytes | None = None
    x1: bytes | None = None


# branch j-collisions run_local reruns past before it gives up
MAX_RESTARTS = 4


def run_local(config: SessionConfig) -> dict:
    """Both parties in one process, fixed schedule, full transcript.

    Returns the receiver's output, the sender's two j-invariants, the
    transcript, and the restart count.
    """
    rng_s = det_rng(sub_seed(config.seed, "sender"))
    rng_r = det_rng(sub_seed(config.seed, "receiver"))
    sid = det_rng(sub_seed(config.seed, "session-id")).randbytes(
        SESSION_ID_LEN)

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
            if restarts > MAX_RESTARTS:
                raise
    transcript = Transcript()
    for msg, body in zip(SCHEDULE, bodies):
        transcript.append(msg.direction, WireMessage(msg.type, sid, body))
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
    first frame.  Every inbound frame must carry the session id and the
    schedule's type, else the session aborts; this is the one check of
    a frame's type, and the consuming phase's reader the one of its body.
    """
    if role not in SIDE:
        raise ValueError("role must be sender or receiver")
    rng = det_rng(config.seed)
    transcript = Transcript()
    if role == "sender":
        session = SiotSession(config.params, "sender", rng,
                              rng.randbytes(SESSION_ID_LEN),
                              x0=config.x0, x1=config.x1)
    else:
        session = None   # built after the session id is learned

    for msg in SCHEDULE:
        if msg.producer == role:
            wm = WireMessage(msg.type, session.session_id,
                             getattr(session, msg.produce)())
            send_frame(stream, encode(wm))
            transcript.append(msg.direction, wm)
        else:
            wm = decode(recv_frame(stream))
            if session is not None and wm.session != session.session_id:
                raise ProtocolAbort("bad-message", "session id mismatch")
            if wm.type != msg.type:
                raise ProtocolAbort(
                    "out-of-order",
                    f"expected {msg.type}, peer sent {wm.type}")
            if session is None:   # its keygen waits for a frame it accepts
                session = SiotSession(config.params, "receiver", rng,
                                      wm.session, b=config.b)
            transcript.append(msg.direction, wm)
            getattr(session, msg.consume)(wm.body)
    return {
        "output": session.output,
        "transcript": transcript,
        "session_id": session.session_id,
    }


def verify_transcript(transcript: Transcript, params: PublicParams) -> dict:
    """Deterministic replay of every public validation over a transcript.

    After the schedule and session id, one row per body reader, the one
    its session phase calls: ``coinflip-binding`` (each reveal opens its
    commitment), ``public-key-A``, ``public-key-B`` (the receiver pair's
    basis certificate included) and ``ciphertext-shape``, each taking
    its bodies by their SCHEDULE rows' type and producer, and reading a
    commit before its reveal.  A reader's abort is a failed row, never
    an exception out of the verifier.  No secrets are needed, and the
    mask coefficients are not re-derived: any coin-flip string yields
    coefficients meeting every constraint.
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
    check("session-id-consistent", len(sids) == 1,
          f"ids seen: {sorted(sid.hex() for sid in sids)}")

    body = {(s.type, s.producer): m.body
            for s, (_, m) in zip(SCHEDULE, entries)}

    def coinflip_binding():   # each party's commit, then its reveal
        for role in SIDE:
            read_reveal(body["coin-reveal", role],
                        read_commit(body["coin-commit", role]))

    def public_key(mtype, role):
        return lambda: read_public(params, role, body[mtype, role])

    rows = (
        ("coinflip-binding", coinflip_binding,
         "each reveal opens its commitment"),
        ("public-key-A", public_key("pk-sender", "sender"),
         "key passes torsion validation"),
        ("public-key-B", public_key("pk-receiver", "receiver"),
         "key passes torsion validation; pair is a torsion basis"),
        ("ciphertext-shape",
         lambda: read_ciphertexts(body["ciphertexts", "sender"]),
         "two equal-length hex ciphertexts"),
    )
    for name, read, detail in rows:
        try:
            read()
        except ProtocolAbort as exc:
            check(name, False, str(exc))
        else:
            check(name, True, detail)

    return {"ok": all(c["ok"] for c in checks), "checks": checks}


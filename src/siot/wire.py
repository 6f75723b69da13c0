"""Canonical wire encoding for protocol messages and transcripts.

Messages are canonical JSON (sorted keys, no whitespace, lowercase hex
for byte fields) with four fixed top-level fields: type, version,
session, body.  Anything that fails to parse, carries an unknown tag or
version, or violates field shape is rejected with a positioned decode
error; malformed input never passes silently.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import DecodeError
from .util import canonical_json, strict_fromhex

VERSION = 1
SESSION_ID_LEN = 16

# required body keys per type; bodies may not carry extras
_BODY_KEYS = {
    "coin-commit": {"commit"},
    "coin-reveal": {"nonce"},
    "pk-sender": {"curve", "g", "h"},
    "pk-receiver": {"curve", "g", "h"},
    "ciphertexts": {"c0", "c1"},
    "baseline-setup": {"s", "t"},
    "baseline-response": {"r"},
    "baseline-ciphertexts": {"d0", "d1"},
}


class WireMessage(NamedTuple):
    type: str
    session: str
    body: dict
    version: int = VERSION


def _check_session(session: str) -> None:
    if not isinstance(session, str) or len(session) != 2 * SESSION_ID_LEN:
        raise DecodeError(
            f"session id must be {2 * SESSION_ID_LEN} lowercase hex chars")
    try:
        strict_fromhex(session)
    except ValueError as exc:
        raise DecodeError("session id is not hex") from exc


def _check(msg: WireMessage) -> None:
    """The one structural check of a message, written or read."""
    if not isinstance(msg.type, str) or msg.type not in _BODY_KEYS:
        raise DecodeError(f"unknown message type {msg.type!r}")
    if type(msg.version) is not int or msg.version != VERSION:
        raise DecodeError(f"unsupported version {msg.version!r}")
    _check_session(msg.session)
    if not isinstance(msg.body, dict):
        raise DecodeError("body must be an object")
    missing = _BODY_KEYS[msg.type] - set(msg.body)
    extra = set(msg.body) - _BODY_KEYS[msg.type]
    if missing or extra:
        raise DecodeError(f"body keys wrong for {msg.type}: "
                          f"missing {sorted(missing)}, extra {sorted(extra)}")


def _to_obj(msg: WireMessage) -> dict:
    _check(msg)
    return {"body": msg.body, "session": msg.session, "type": msg.type,
            "version": msg.version}


def _from_obj(obj) -> WireMessage:
    if not isinstance(obj, dict):
        raise DecodeError("top level must be an object")
    if set(obj) != {"body", "session", "type", "version"}:
        raise DecodeError("top-level keys must be exactly "
                          "body, session, type, version")
    msg = WireMessage(obj["type"], obj["session"], obj["body"], obj["version"])
    _check(msg)
    return msg


def encode(msg: WireMessage) -> bytes:
    return canonical_json(_to_obj(msg))


def read_json(data: bytes):
    """The one reader of outside JSON: frames, transcript lines and
    parameter files.  Strict UTF-8, then ``json.loads``; every fault is
    a ``DecodeError``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError("not UTF-8", position=exc.start) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DecodeError(f"bad JSON: {exc.msg}", position=exc.pos) from exc
    except ValueError as exc:        # an integer past int_max_str_digits
        raise DecodeError(f"bad JSON: {exc}") from exc
    except RecursionError as exc:
        raise DecodeError("nested too deeply") from exc


def decode(data: bytes) -> WireMessage:
    return _from_obj(read_json(data))


class Transcript:
    """Ordered message log with direction markers, JSONL on disk."""

    def __init__(self):
        self.entries = []

    def append(self, direction: str, msg: WireMessage) -> None:
        if direction not in ("sender->receiver", "receiver->sender"):
            raise ValueError(f"bad direction {direction!r}")
        self.entries.append((direction, msg))

    def to_bytes(self) -> bytes:
        lines = []
        for direction, msg in self.entries:
            lines.append(canonical_json({"dir": direction,
                                         "msg": _to_obj(msg)}))
        return b"\n".join(lines) + (b"\n" if lines else b"")

    @classmethod
    def from_bytes(cls, data: bytes) -> Transcript:
        t = cls()
        for i, line in enumerate(data.splitlines()):
            if not line.strip():
                continue
            try:
                obj = read_json(line)
                if not isinstance(obj, dict) or set(obj) != {"dir", "msg"}:
                    raise DecodeError("needs dir and msg")
                if obj["dir"] not in ("sender->receiver", "receiver->sender"):
                    raise DecodeError("bad direction")
                msg = _from_obj(obj["msg"])
            except DecodeError as exc:
                raise DecodeError(f"transcript line {i + 1}: {exc}") from exc
            t.append(obj["dir"], msg)
        return t

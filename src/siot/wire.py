"""Canonical wire encoding for protocol messages and transcripts.

Messages are canonical JSON (sorted keys, no whitespace, lowercase hex
for byte fields) with four fixed top-level fields: type, version,
session, body.  The version is always 1: it is written on the way out
and checked on the way in, and a ``WireMessage`` does not carry it.
This module checks the envelope only, and only on the way in, in
``_from_obj``: the type is a string, the version the integer 1, the
session id 32 lowercase hex digits, which a ``WireMessage`` holds as
bytes, the body an object.  Anything else is refused with a positioned
decode error.  What a type's body holds is checked by that body's
reader in ``siot.siot``, and which type may come next by the session
driver against ``SCHEDULE``; messages the library built are written
without a check.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import DecodeError
from .siot import DIRECTION, SESSION_ID_LEN
from .util import canonical_json, strict_fromhex

VERSION = 1


class WireMessage(NamedTuple):
    type: str
    session: bytes
    body: dict


def _to_obj(msg: WireMessage) -> dict:
    return {"body": msg.body, "session": msg.session.hex(), "type": msg.type,
            "version": VERSION}


def _from_obj(obj) -> WireMessage:
    """The one check of an envelope read from outside."""
    if not isinstance(obj, dict):
        raise DecodeError("top level must be an object")
    if set(obj) != {"body", "session", "type", "version"}:
        raise DecodeError("top-level keys must be exactly "
                          "body, session, type, version")
    mtype, session, body, version = (obj["type"], obj["session"],
                                      obj["body"], obj["version"])
    if not isinstance(mtype, str):
        raise DecodeError(f"unknown message type {mtype!r}")
    if type(version) is not int or version != VERSION:
        raise DecodeError(f"unsupported version {version!r}")
    if not isinstance(session, str) or len(session) != 2 * SESSION_ID_LEN:
        raise DecodeError(
            f"session id must be {2 * SESSION_ID_LEN} lowercase hex chars")
    try:
        session = strict_fromhex(session)
    except ValueError as exc:
        raise DecodeError("session id is not hex") from exc
    if not isinstance(body, dict):
        raise DecodeError("body must be an object")
    return WireMessage(mtype, session, body)


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
        self.entries.append((direction, msg))

    def to_bytes(self) -> bytes:
        lines = [canonical_json({"dir": direction, "msg": _to_obj(msg)})
                 for direction, msg in self.entries]
        if lines:
            lines.append(b"")   # the last line's newline, in the one join
        return b"\n".join(lines)

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
                if obj["dir"] not in DIRECTION.values():
                    raise DecodeError("bad direction")
                msg = _from_obj(obj["msg"])
            except DecodeError as exc:
                raise DecodeError(f"transcript line {i + 1}: {exc}") from exc
            t.append(obj["dir"], msg)
        return t

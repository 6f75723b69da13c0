"""Canonical message encoding: the envelope checked on the way in,
deterministic bytes, positioned decode errors, and transcript
persistence."""

import json

import pytest

from siot import Transcript, det_rng
from siot.errors import DecodeError, ProtocolAbort
from siot.siot import read_commit
from siot.wire import WireMessage, decode, encode

SID = bytes(16)


def _msg(**kw):
    args = {"type": "coin-commit", "session": SID,
            "body": {"commit": "ab" * 32}}
    args.update(kw)
    return WireMessage(**args)


def test_roundtrip_all_types():
    bodies = {
        "coin-commit": {"commit": "ab" * 32},
        "coin-reveal": {"nonce": "cd" * 32},
        "pk-sender": {"curve": {"a": "00", "b": "00"}, "g": {}, "h": {}},
        "pk-receiver": {"curve": {}, "g": {}, "h": {}},
        "ciphertexts": {"c0": "aa", "c1": "bb"},
        "baseline-setup": {"s": {}, "t": {}},
        "baseline-response": {"r": {}},
        "baseline-ciphertexts": {"d0": "", "d1": ""},
    }
    for mtype, body in bodies.items():
        msg = WireMessage(mtype, SID, body)
        back = decode(encode(msg))
        assert back == msg


def test_encoding_is_canonical_and_stable():
    msg = _msg()
    data = encode(msg)
    assert data == encode(msg)
    assert b" " not in data and b"\n" not in data
    obj = json.loads(data)
    assert list(obj) == sorted(obj)   # sorted top-level keys


def test_unknown_type_and_version_rejected():
    raw = json.loads(encode(_msg()))
    raw["version"] = 99
    with pytest.raises(DecodeError):
        decode(json.dumps(raw).encode())
    for mtype in ([], ["coin-commit"], {}):     # unhashable: no dict lookup
        raw = dict(json.loads(encode(_msg())), type=mtype)
        with pytest.raises(DecodeError, match="unknown message type"):
            decode(json.dumps(raw).encode())


def test_body_schema_enforced():
    """The envelope holds an object; which keys it holds is for the
    body's reader in ``siot.siot`` to check, not the wire."""
    raw = json.loads(encode(_msg()))
    for body in ([], "commit", None):
        with pytest.raises(DecodeError, match="body must be an object"):
            decode(json.dumps(dict(raw, body=body)).encode())
    for body in ({}, {"commit": "ab" * 32, "extra": 1}):
        msg = decode(json.dumps(dict(raw, body=body)).encode())
        with pytest.raises(ProtocolAbort) as info:
            read_commit(msg.body)
        assert info.value.code == "bad-message"


def test_session_id_shape_enforced():
    raw = json.loads(encode(_msg()))
    for sid in ("", "zz" * 16, "AB" * 16, "00" * 15, "ab" * 15 + "  ",
                "ab " * 10 + "ab", 7, None):
        with pytest.raises(DecodeError, match="session id"):
            decode(json.dumps(dict(raw, session=sid)).encode())


def test_decode_reports_positions():
    with pytest.raises(DecodeError) as info:
        decode(b'{"type": ')
    assert info.value.position is not None
    with pytest.raises(DecodeError) as info:
        decode(b"\xff\xfe broken")
    assert info.value.position == 0


def test_decode_rejects_non_object_and_wrong_keys():
    with pytest.raises(DecodeError):
        decode(b"[1, 2]")
    with pytest.raises(DecodeError):
        decode(b'{"type": "coin-commit"}')


def test_decode_fuzz_never_crashes():
    """Arbitrary bytes either decode or raise the one decode error."""
    rng = det_rng(b"wire-fuzz")
    corpus = [encode(_msg())]
    for _ in range(400):
        base = bytearray(rng.choice(corpus))
        for _ in range(rng.randrange(1, 6)):
            op = rng.randrange(3)
            if op == 0 and base:
                base[rng.randrange(len(base))] = rng.randrange(256)
            elif op == 1:
                base.insert(rng.randrange(len(base) + 1), rng.randrange(256))
            elif op == 2 and base:
                del base[rng.randrange(len(base))]
        try:
            decode(bytes(base))
        except DecodeError:
            pass


def test_transcript_roundtrip(tmp_path):
    t = Transcript()
    t.append("sender->receiver", _msg())
    t.append("receiver->sender", _msg(type="coin-reveal",
                                      body={"nonce": "cd" * 32}))
    data = t.to_bytes()
    back = Transcript.from_bytes(data)
    assert back.entries == t.entries
    path = tmp_path / "t.jsonl"
    path.write_bytes(data)
    assert Transcript.from_bytes(path.read_bytes()).entries == t.entries


def test_transcript_rejects_bad_direction():
    with pytest.raises(DecodeError):
        Transcript.from_bytes(b'{"direction": "up", "message": {}}\n')
    line = json.dumps({"dir": "east->west", "msg": json.loads(encode(_msg()))})
    with pytest.raises(DecodeError, match="bad direction"):
        Transcript.from_bytes(line.encode())


def test_version_must_be_the_json_integer_1():
    """true and 1.0 compare equal to 1 in Python; a frame carrying one
    would be logged verbatim, so the two endpoints' transcripts would
    differ.  Only the integer passes, through a frame or a transcript."""
    good = json.loads(encode(_msg()))
    for version in (True, 1.0, "1"):
        raw = dict(good, version=version)
        with pytest.raises(DecodeError, match="unsupported version"):
            decode(json.dumps(raw).encode())
        line = json.dumps({"dir": "sender->receiver", "msg": raw})
        with pytest.raises(DecodeError, match="unsupported version"):
            Transcript.from_bytes(line.encode() + b"\n")


def test_deeply_nested_json_is_a_decode_error():
    """The JSON parser recurses once per bracket; past the interpreter's
    limit that is a RecursionError, which must surface as DecodeError."""
    deep = b"[" * 100000
    with pytest.raises(DecodeError, match="nested too deeply"):
        decode(deep)
    with pytest.raises(DecodeError, match="transcript line 1: nested"):
        Transcript.from_bytes(deep)


def test_transcript_message_faults_name_their_line():
    good = json.dumps({"dir": "sender->receiver",
                       "msg": json.loads(encode(_msg()))})
    bad = json.loads(good)
    bad["msg"]["version"] = True
    data = "\n".join([good, good, json.dumps(bad)]).encode()
    with pytest.raises(DecodeError,
                       match=r"^transcript line 3: unsupported version True"):
        Transcript.from_bytes(data)


def test_transcript_line_not_utf8_is_a_decode_error():
    with pytest.raises(DecodeError, match=r"^transcript line 2: not UTF-8"):
        Transcript.from_bytes(b"\n".join([b"", b'{"dir":"\xc3\x28"}', b""]))


def test_json_integer_past_the_digit_limit_is_a_decode_error():
    """Python refuses to parse integers of more than int_max_str_digits
    digits with a plain ValueError; it must surface as DecodeError."""
    data = b'{"version": ' + b"1" * 5000 + b"}"
    with pytest.raises(DecodeError, match="bad JSON: Exceeds the limit"):
        decode(data)
    with pytest.raises(DecodeError,
                       match="transcript line 1: bad JSON: Exceeds"):
        Transcript.from_bytes(data)


@pytest.mark.parametrize("encoding",
                         ["utf-16", "utf-16-le", "utf-32", "utf-32-be"])
def test_json_in_other_unicode_encodings_is_a_decode_error(encoding):
    """Outside JSON is strict UTF-8, whatever reads it; ``json.loads``
    given bytes would detect and accept UTF-16 and UTF-32."""
    line = json.dumps({"dir": "sender->receiver",
                       "msg": json.loads(encode(_msg()))})
    with pytest.raises(DecodeError, match="^transcript line 1: "):
        Transcript.from_bytes(line.encode(encoding))
    with pytest.raises(DecodeError):
        decode(encode(_msg()).decode().encode(encoding))


def test_utf8_encoded_surrogate_is_a_decode_error():
    """A lone surrogate's three UTF-8-style bytes are not UTF-8."""
    line = json.dumps({"dir": "sender->receiver",
                       "msg": json.loads(encode(_msg(body={"commit": "@"})))})
    data = line.encode().replace(b"@", b"\xed\xa0\x80")
    with pytest.raises(DecodeError, match="^transcript line 1: not UTF-8"):
        Transcript.from_bytes(data)
    with pytest.raises(DecodeError, match="^not UTF-8"):
        decode(data)

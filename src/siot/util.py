"""Deterministic randomness, hash expansion, and the authenticated
stream cipher used for protocol payloads.

Every derived quantity is domain-separated, so two uses of the same
seed material for different purposes never collide.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import random
from binascii import unhexlify

from .errors import DecryptionError

_TAG_PREFIX = b"siot/v1/"


def det_rng(seed) -> random.Random:
    """Seeded RNG from bytes, an int, or None (system entropy).  Any
    other seed, a hex str included, is a TypeError rather than a stream
    ``random.Random`` would derive from it."""
    if isinstance(seed, bytes):
        seed = int.from_bytes(hashlib.sha256(_TAG_PREFIX + b"rng" + seed).digest(),
                              "big")
    elif seed is not None and not isinstance(seed, int):
        raise TypeError(f"seed must be bytes, an int or None, "
                        f"not {type(seed).__name__}")
    return random.Random(seed)


def sub_seed(seed: bytes | None, label: str) -> bytes | None:
    """Independent child seed for a labeled role; None stays None."""
    if seed is None:
        return None
    return hashlib.sha256(_TAG_PREFIX + b"subseed/" + label.encode() + b"/"
                          + seed).digest()


def strict_fromhex(text: str) -> bytes:
    """Bytes of a string of lowercase hex digit pairs; ValueError on
    anything else, including the whitespace ``bytes.fromhex`` skips,
    and TypeError for a value that is no ``str``.

    ``binascii.unhexlify`` reads the pairs and refuses odd lengths,
    whitespace, non-hex and non-ASCII text by itself, which leaves the
    digits A-F to refuse.  A refused text is worded as ``bytes.fromhex``
    words it, with the position it names, and what that reads was
    refused for whitespace or A-F: "not lowercase hex digit pairs".
    """
    if isinstance(text, str):
        try:
            out = unhexlify(text)
        except ValueError:
            pass
        else:
            if not ("A" in text or "B" in text or "C" in text
                    or "D" in text or "E" in text or "F" in text):
                return out
    bytes.fromhex(text)
    raise ValueError("not lowercase hex digit pairs")


def tagged_hash(tag: str, *parts: bytes) -> bytes:
    h = hashlib.sha256()
    h.update(_TAG_PREFIX + tag.encode() + b"\x00")
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


def expand(tag: str, material: bytes, length: int) -> bytes:
    """Variable-length output from fixed material (keystreams, sampling)."""
    shake = hashlib.shake_256()
    shake.update(_TAG_PREFIX + tag.encode() + b"\x00" + material)
    return shake.digest(length)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return (int.from_bytes(a, "big")
            ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


TAG_LEN = 32


def seal(key: bytes, plaintext: bytes) -> bytes:
    """Keystream XOR plus a MAC over the ciphertext."""
    stream = expand("cipher-stream", key, len(plaintext))
    body = xor_bytes(plaintext, stream)
    mac = hmac.new(tagged_hash("cipher-mac-key", key), body,
                   hashlib.sha256).digest()
    return body + mac


def open_sealed(key: bytes, ciphertext: bytes) -> bytes:
    if len(ciphertext) < TAG_LEN:
        raise DecryptionError("ciphertext shorter than its tag")
    body, mac = ciphertext[:-TAG_LEN], ciphertext[-TAG_LEN:]
    want = hmac.new(tagged_hash("cipher-mac-key", key), body,
                    hashlib.sha256).digest()
    if not hmac.compare_digest(mac, want):
        raise DecryptionError("authentication tag mismatch")
    return xor_bytes(body, expand("cipher-stream", key, len(body)))


# every value the writer does not write itself goes through this encoder
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> bytes:
    """The one JSON writer the wire uses: sorted keys, no whitespace.

    The output is defined as ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"), ensure_ascii=True).encode()`` for any acyclic
    JSON value.  A ``str`` of ASCII letters and digits needs no escaping,
    so it is copied between quotes as it is: every hex field is one, and
    skips ``json``'s per-character escape pass.  Dicts with ``str`` keys
    are written here in sorted key order and an ``int`` by its ``repr``;
    every other value goes through ``json``'s encoder.  The pieces are
    joined once.
    """
    parts: list[bytes] = []
    _write(obj, parts)
    return b"".join(parts)


def _write(obj, parts: list[bytes]) -> None:
    kind = type(obj)
    if kind is str:
        if obj.isascii():
            raw = obj.encode()
            if raw.isalnum():
                parts += (b'"', raw, b'"')
                return
    elif kind is int:
        parts.append(repr(obj).encode())
        return
    elif kind is dict:
        # sorting refuses str keys mixed with others, as json does, so
        # if the first key is a str, every key is one
        keys = sorted(obj)
        if not keys or type(keys[0]) is str:
            sep = b"{"
            for key in keys:
                parts.append(sep)
                _write(key, parts)
                parts.append(b":")
                _write(obj[key], parts)
                sep = b","
            parts.append(b"}" if keys else b"{}")
            return
    parts.append(_ENCODER.encode(obj).encode())

"""The byte helpers under sealing and the coin flip."""

import pytest

from siot import det_rng, kdf_dec
from siot.errors import DecryptionError
from siot.field import FieldContext
from siot.util import TAG_LEN, open_sealed, sub_seed, xor_bytes


def _reference_xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def test_xor_bytes_matches_the_bytewise_reference():
    """The big-integer XOR keeps every byte, zero bytes at either end
    included, at every length the sealing and the coin flip use."""
    rng = det_rng(b"tests/xor")
    cases = [(b"\x00\x00\x01", b"\x00\x00\x02"),
             (b"\x01\x00\x00", b"\x01\x00\x00"),
             (b"\x00ab\x00", b"\x00cd\x00"),
             (b"\x00" * 9, b"\x00" * 9)]
    for n in (0, 1, 31, 32, 33, 65536):
        ones = b"\xff" * n
        cases += [(rng.randbytes(n), rng.randbytes(n)), (ones, ones),
                  (ones, rng.randbytes(n)), (b"\x00" * n, ones)]
    for a, b in cases:
        out = xor_bytes(a, b)
        assert out == _reference_xor(a, b)
        assert len(out) == len(a)


def test_xor_bytes_rejects_length_mismatch():
    for a, b in ((b"", b"\x00"), (b"ab", b"a"), (b"\x00" * 32, b"\x00" * 33)):
        with pytest.raises(ValueError):
            xor_bytes(a, b)


def test_ciphertexts_shorter_than_the_tag_are_refused():
    j = FieldContext(431).one()
    for n in (0, TAG_LEN - 1):
        with pytest.raises(DecryptionError, match="shorter than its tag"):
            open_sealed(b"\x07" * 32, b"\x00" * n)
        with pytest.raises(DecryptionError, match="shorter than its tag"):
            kdf_dec(j, b"\x00" * n)


def test_seeds_are_bytes_not_hex_text():
    """A seed is bytes (the CLI reads ``--seed`` hex into bytes), an int
    for ``det_rng``, or None.  Hex text is refused, not turned into a
    stream of its own that ``random.Random`` would derive from it."""
    for seed in ("0a0b", "0A0B", 1.0):
        with pytest.raises(TypeError):
            det_rng(seed)
    for seed in ("0a0b", 10):
        with pytest.raises(TypeError):
            sub_seed(seed, "x")
    assert sub_seed(None, "x") is None

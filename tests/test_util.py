"""The byte helpers under sealing and the coin flip."""

import pytest

from siot import det_rng
from siot.util import sub_seed, xor_bytes


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


def test_hex_seeds_follow_the_strict_hex_rule():
    """Uppercase digits and whitespace would make several spellings of
    one seed; only lowercase digit pairs are a hex seed."""
    assert det_rng("0a0b").random() == det_rng(b"\x0a\x0b").random()
    assert sub_seed("0a0b", "x") == sub_seed(b"\x0a\x0b", "x")
    for seed in ("0A0B", "0a 0b", " 0a0b "):
        with pytest.raises(ValueError):
            det_rng(seed)
        with pytest.raises(ValueError):
            sub_seed(seed, "x")

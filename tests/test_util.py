"""The byte helpers under sealing and the coin flip, and the canonical
JSON writer."""

import json
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from siot import canonical_json, det_rng, kdf_dec
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


# text the escaper must rewrite: quotes, backslash, control characters,
# DEL, non-ASCII, a line separator, lone surrogates and an astral character
ESCAPED = '"\\/\x00\x08\x1f\x7f\x80\xe9\u2028\ud800\udfff\U0001f600'
TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()) | st.sampled_from(ESCAPED),
            max_size=8),
    st.text("0123456789abcdef", max_size=70),
    st.text(string.ascii_letters + string.digits + "-_ ", max_size=12),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-2 ** 3000, 2 ** 3000), st.floats(), TEXT,
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(TEXT, inner, max_size=4),
        st.dictionaries(st.integers(-9, 99), inner, max_size=3),
    ),
    max_leaves=16,
)


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(JSON_VALUES)
def test_canonical_json_is_json_dumps(value):
    """The writer copies alphanumeric strings as they are; its output is
    still exactly ``json.dumps``' bytes, whatever else the value holds."""
    assert canonical_json(value) == json.dumps(
        value, sort_keys=True, separators=(",", ":"),
        ensure_ascii=True).encode()

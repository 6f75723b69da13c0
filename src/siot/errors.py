"""Exception hierarchy shared by all protocol layers.

Every abort the two-party protocol can take maps to a distinct
machine-readable ``code`` so transcripts stay greppable.
"""

from __future__ import annotations


class SiotError(Exception):
    """Base class for every error raised by this package."""


class InvalidPointError(SiotError):
    """A coordinate pair does not satisfy its curve equation, or a point
    lies outside the torsion it must be in or falls short of its full
    order there; ``point`` is that point when the raiser names it."""

    def __init__(self, message: str, point=None):
        self.point = point
        super().__init__(message)


class InvalidKernelError(SiotError):
    """Kernel point is missing, of wrong order, or off-curve."""


class SamplingError(SiotError):
    """Bounded random search exhausted its retry budget."""


class ParameterSearchError(SiotError):
    """No admissible cofactor produced a usable prime."""


class UnsupportedParameterError(SiotError):
    """Operation is refused for this parameter set (e.g. an exhaustive
    secret search beyond toy scale)."""


class InconsistentKeyError(SiotError):
    """Exhaustive secret search found no preimage for a public key."""


class DecryptionError(SiotError):
    """Authentication tag mismatch while decrypting."""


class ProtocolAbort(SiotError):
    """A protocol-level abort with a machine-readable code.

    Codes in use: ``bad-sender-key``, ``bad-receiver-key``,
    ``coinflip-cheat``, ``decrypt-fail``, ``out-of-order``,
    ``bad-message``, and ``refused-point`` from the baseline OT.  The
    two key codes are chosen by the key's role in ``siot.siot``; the
    key check of ``siot.sidh`` raises ``InvalidPointError``.
    """

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}" if detail else code)


class RestartRequired(SiotError):
    """The sender's two branch j-invariants collided; the whole
    protocol must restart with a fresh coin-flip string."""


class DecodeError(SiotError):
    """Wire message failed to decode; ``position`` points at the
    offending field or byte offset when known."""

    def __init__(self, message: str, position: str | int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at {position})"
        super().__init__(message)


class TransportError(SiotError):
    """Framing violation or unexpected end of stream."""

"""The 1-out-of-2 oblivious transfer built on the isogeny exchange.

Flow, in fixed message order: both parties commit to coin-flip nonces,
both reveal, the shared string w is hashed to mask coefficients
(alpha, beta, gamma, delta), the sender ships its plain public key, the
receiver ships its public key with the basis images masked by
(U, V) = (alpha*G + beta*H, -(alpha/beta)*U) when its choice bit is 1,
and the sender answers with two ciphertexts, one per derived
j-invariant.  The receiver can open exactly the one indexed by its bit.

The coefficient constraints enforced here make the two receiver
branches pairing-indistinguishable to the sender and leave the sender's
two j-invariants distinct, so neither party learns the other's input.

The message order is written down once, in SCHEDULE; every session,
driver and the transcript verifier derive theirs from that table.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

from .curve import EllipticCurve, Point
from .errors import (
    DecryptionError,
    InvalidKernelError,
    ProtocolAbort,
    RestartRequired,
)
from .field import Fp2
from .isogeny import isogeny_chain, kernel_generator
from .pairing import is_torsion_basis
from .sidh import (
    PublicParams,
    SidhKeyPair,
    SidhPublic,
    keygen,
    params_to_obj,
    public_from_obj,
    public_to_obj,
    validate_public,
)
from .util import (canonical_json, expand, open_sealed, seal, strict_fromhex,
                   tagged_hash, xor_bytes)

NONCE_LEN = 32


@dataclass
class CoinFlip:
    """One party's view of the commit-reveal coin flip."""

    local_nonce: bytes
    commitment: bytes
    remote_commitment: bytes | None = None
    remote_nonce: bytes | None = None
    w: bytes | None = None


def coinflip_commit(rng) -> CoinFlip:
    nonce = rng.randbytes(NONCE_LEN)
    return CoinFlip(nonce, tagged_hash("coinflip-commit", nonce))


def coinflip_reveal(cf: CoinFlip, remote_nonce: bytes) -> bytes:
    """Check the remote opening against its commitment and combine."""
    if cf.remote_commitment is None:
        raise ProtocolAbort("out-of-order", "reveal before remote commitment")
    if tagged_hash("coinflip-commit", remote_nonce) != cf.remote_commitment:
        raise ProtocolAbort("coinflip-cheat",
                            "revealed nonce does not open the commitment")
    cf.remote_nonce = remote_nonce
    cf.w = xor_bytes(cf.local_nonce, remote_nonce)
    return cf.w


@dataclass(frozen=True)
class MaskCoefficients:
    """Scalars (alpha, beta, gamma, delta) mod lA^eA derived from w.

    Constraints: delta = -alpha and alpha^2 + beta*gamma = 0, so the
    sender's pairing probe is blind to the choice bit; beta is a unit
    and the quadratic gamma*r^2 + (alpha-delta)*r - beta has no root
    mod lA, so a dishonest receiver cannot collapse the sender's two
    kernels; and alpha is a multiple of lA^ceil(eA/2) (the hardened
    family), which kills the order-2 pairing leak as well.
    """

    alpha: int
    beta: int
    gamma: int
    delta: int
    w: bytes

    def quadratic_root_free(self, ell: int) -> bool:
        # exhaustive over Z/ell; ell is tiny in every supported set
        return all(
            (self.gamma * r * r + (self.alpha - self.delta) * r - self.beta)
            % ell != 0
            for r in range(ell))

    def check(self, params: PublicParams) -> None:
        n = params.n("A")
        ell, e = params.ell_a, params.e_a
        if self.beta % ell == 0:
            raise ValueError("beta must be a unit")
        if (self.delta + self.alpha) % n != 0:
            raise ValueError("delta must equal -alpha")
        if (self.alpha * self.alpha + self.beta * self.gamma) % n != 0:
            raise ValueError("alpha^2 + beta*gamma must vanish")
        if not self.quadratic_root_free(ell):
            raise ValueError("kernel-collapse quadratic has a root")
        if self.alpha % ell ** ((e + 1) // 2) != 0:
            raise ValueError("alpha outside the hardened family")


def params_fingerprint(params: PublicParams) -> bytes:
    return tagged_hash("params-fp", canonical_json(params_to_obj(params)))


def derive_mask_coeffs(w: bytes, params: PublicParams) -> MaskCoefficients:
    """Hash-expand w into coefficients satisfying every mask constraint.

    Deterministic: both parties compute the identical tuple.  Rejection
    sampling over a counter; admissible (alpha0, beta) pairs are dense,
    so this terminates after a handful of draws.
    """
    n = params.n("A")
    ell, e = params.ell_a, params.e_a
    lift = ell ** ((e + 1) // 2)
    fp = params_fingerprint(params)
    width = max(32, 2 * ((n.bit_length() + 7) // 8) + 16)
    ctr = 0
    while True:
        # the trailing byte 1 tags the hardened family, the only one
        material = w + fp + struct.pack("!IB", ctr, 1)
        stream = expand("mask-coeffs", material, 2 * width)
        alpha0 = int.from_bytes(stream[:width], "big") % n
        beta = int.from_bytes(stream[width:], "big") % n
        ctr += 1
        if beta % ell == 0:
            continue
        alpha = alpha0 * lift % n
        delta = -alpha % n
        gamma = -alpha * alpha * pow(beta, -1, n) % n
        coeffs = MaskCoefficients(alpha, beta, gamma, delta, w)
        if not coeffs.quadratic_root_free(ell):
            continue
        coeffs.check(params)
        return coeffs


def encode_mask_points(coeffs: MaskCoefficients, curve: EllipticCurve,
                       G: Point, H: Point) -> tuple[Point, Point]:
    """(U, V) = (alpha*G + beta*H, gamma*G + delta*H) in the lA^eA-torsion.

    Under the protocol constraints V collapses to -(alpha/beta)*U, and
    feeding the receiver's masked pair instead of its true pair yields
    the same (U, V): the mask family is a fixed point of its own
    re-derivation, which is what lets the sender reconstruct the mask
    without learning the bit.

    Callers pass checked points: the sender a pair ``validate_public``
    accepted, the receiver its own keygen output.
    """
    U = curve.add(curve.mul(coeffs.alpha, G), curve.mul(coeffs.beta, H))
    V = curve.add(curve.mul(coeffs.gamma, G), curve.mul(coeffs.delta, H))
    return U, V


def mask_public(coeffs: MaskCoefficients, pub: SidhPublic,
                b: int) -> SidhPublic:
    """The receiver's published key: its own for bit 0, and for bit 1
    its basis images shifted to (G - U, H - V).  The mask is computed
    for either bit, so both bits do the same work."""
    E = pub.curve
    U, V = encode_mask_points(coeffs, E, pub.G, pub.H)
    if b == 0:
        return pub
    return SidhPublic(E, E.sub(pub.G, U), E.sub(pub.H, V))


def branch_kernels(coeffs: MaskCoefficients, pub: SidhPublic,
                   r: int) -> tuple[Point, Point]:
    """The sender's two kernel generators from the received pair (G, H):
    K0 = G + [r]H, and K1 from (G + U, H + V) likewise.  Their orders
    are checked by the isogeny chains that take them."""
    E = pub.curve
    U, V = encode_mask_points(coeffs, E, pub.G, pub.H)
    return (kernel_generator(E, pub.G, r, pub.H),
            kernel_generator(E, E.add(pub.G, U), r, E.add(pub.H, V)))


# -- authenticated payload encryption ----------------------------------

def kdf_enc(j: Fp2, plaintext: bytes, transcript_hash: bytes = b"") -> bytes:
    key = tagged_hash("payload-key", j.encode(), transcript_hash)
    return seal(key, plaintext)


def kdf_dec(j: Fp2, ciphertext: bytes, transcript_hash: bytes = b"") -> bytes:
    key = tagged_hash("payload-key", j.encode(), transcript_hash)
    return open_sealed(key, ciphertext)


def _pack_input(x: bytes, width: int) -> bytes:
    if len(x) > width:
        raise ValueError("input longer than declared width")
    return struct.pack("!I", len(x)) + x + b"\x00" * (width - len(x))


def _unpack_input(data: bytes) -> bytes:
    if len(data) < 4:
        raise DecryptionError("plaintext too short to carry its length")
    (n,) = struct.unpack("!I", data[:4])
    if n > len(data) - 4:
        raise DecryptionError("declared length exceeds payload")
    return data[4:4 + n]


# -- session state machine ---------------------------------------------

class Message(NamedTuple):
    """One row of the fixed schedule: wire type, producing role, and the
    SiotSession methods that build and take the body."""

    type: str
    producer: str
    produce: str
    consume: str

    @property
    def consumer(self) -> str:
        return "receiver" if self.producer == "sender" else "sender"

    @property
    def direction(self) -> str:
        return f"{self.producer}->{self.consumer}"


# the one legal message order
SCHEDULE = (
    Message("coin-commit", "sender", "produce_commit", "consume_commit"),
    Message("coin-commit", "receiver", "produce_commit", "consume_commit"),
    Message("coin-reveal", "sender", "produce_reveal", "consume_reveal"),
    Message("coin-reveal", "receiver", "produce_reveal", "consume_reveal"),
    Message("pk-sender", "sender", "produce_public", "consume_public"),
    Message("pk-receiver", "receiver", "produce_public", "consume_public"),
    Message("ciphertexts", "sender", "produce_ciphertexts",
            "consume_ciphertexts"),
)


class SiotSession:
    """Single-owner protocol endpoint; methods must follow message order.

    The sender is the A side (it holds x0, x1), the receiver the B side
    (it holds the bit b).  Any out-of-order call aborts; a degenerate
    masked basis or kernel, or a collision between the sender's two
    branch j-invariants, raises a restart signal, on which the caller
    reruns the whole protocol so a fresh w is flipped.
    """

    def __init__(self, params: PublicParams, role: str, rng,
                 session_id: bytes = b"\x00" * 16,
                 x0: bytes | None = None, x1: bytes | None = None,
                 b: int | None = None):
        if role not in ("sender", "receiver"):
            raise ValueError("role must be sender or receiver")
        if role == "sender":
            if x0 is None or x1 is None:
                raise ValueError("sender needs both input strings")
            if b is not None:
                raise ValueError("sender holds no choice bit")
        else:
            if b not in (0, 1):
                raise ValueError("receiver needs a choice bit in {0, 1}")
            if x0 is not None or x1 is not None:
                raise ValueError("receiver holds no input strings")
        if len(session_id) != 16:
            raise ValueError("session id must be 16 bytes")
        self.params = params
        self.role = role
        self.rng = rng
        self.session_id = session_id
        self.x0, self.x1, self.b = x0, x1, b
        self.coin = coinflip_commit(rng)
        self.keypair: SidhKeyPair = keygen(
            params, "A" if role == "sender" else "B", rng)
        self.coeffs: MaskCoefficients | None = None
        self.their_public: SidhPublic | None = None
        self.ciphertexts: tuple[bytes, bytes] | None = None
        self.shared_j: tuple | None = None
        self.output: bytes | None = None
        self.transcript: list = []
        self._cursor = 0   # index of the next SCHEDULE row

    # phase bookkeeping

    def _expect(self, method: str) -> str:
        """Advance past the next schedule row if it calls for ``method``
        on this side; return that row's message type."""
        if self._cursor == len(SCHEDULE):
            want = "done"
        else:
            msg = SCHEDULE[self._cursor]
            want = msg.produce if msg.producer == self.role else msg.consume
        if want != method:
            raise ProtocolAbort(
                "out-of-order", f"{method} called, expected {want}")
        self._cursor += 1
        return msg.type

    def _log(self, mtype: str, body: dict) -> None:
        self.transcript.append((mtype, body))

    # coin flip

    def produce_commit(self) -> dict:
        mtype = self._expect("produce_commit")
        body = {"commit": self.coin.commitment.hex()}
        self._log(mtype, body)
        return body

    def consume_commit(self, body: dict) -> None:
        mtype = self._expect("consume_commit")
        self.coin.remote_commitment = _hex_field(body, "commit", NONCE_LEN)
        self._log(mtype, body)

    def produce_reveal(self) -> dict:
        mtype = self._expect("produce_reveal")
        body = {"nonce": self.coin.local_nonce.hex()}
        self._log(mtype, body)
        return body

    def consume_reveal(self, body: dict) -> None:
        mtype = self._expect("consume_reveal")
        w = coinflip_reveal(self.coin, _hex_field(body, "nonce", NONCE_LEN))
        self.coeffs = derive_mask_coeffs(w, self.params)
        self._log(mtype, body)

    # public keys

    def produce_public(self) -> dict:
        mtype = self._expect("produce_public")
        if self.role == "sender":
            body = public_to_obj(self.keypair.public)
            self._log(mtype, body)
            return body
        masked = mask_public(self.coeffs, self.keypair.public, self.b)
        if not is_torsion_basis(masked.curve, masked.G, masked.H,
                                self.params.ell_a, self.params.e_a):
            raise RestartRequired("masked pair is not a torsion basis")
        body = public_to_obj(masked)
        self._log(mtype, body)
        return body

    def consume_public(self, body: dict) -> None:
        mtype = self._expect("consume_public")
        producer = "A" if self.role == "receiver" else "B"
        pub = public_from_obj(self.params.ctx, body)
        validate_public(self.params, producer, pub)
        self.their_public = pub
        self._log(mtype, body)
        if self.role == "sender":
            self._derive_ciphertext_keys()

    def _transcript_hash(self) -> bytes:
        pk_bodies = [body for mtype, body in self.transcript
                     if mtype in ("pk-sender", "pk-receiver")]
        if len(pk_bodies) != 2:
            raise ProtocolAbort("out-of-order", "transcript missing keys")
        return tagged_hash("transcript", self.session_id,
                           *(canonical_json(b) for b in pk_bodies))

    def _derive_ciphertext_keys(self) -> None:
        """Sender: form the two branch kernels from the received pair and
        encrypt one input under each branch's j-invariant."""
        pub, params = self.their_public, self.params
        js = []
        for i, K in enumerate(branch_kernels(self.coeffs, pub,
                                             self.keypair.r)):
            try:
                curve, _ = isogeny_chain(pub.curve, K, params.ell_a,
                                         params.e_a, ())
            except InvalidKernelError as exc:
                raise RestartRequired(
                    f"branch {i} kernel is order-degenerate") from exc
            js.append(curve.j_invariant())
        if js[0] == js[1]:
            # distinct kernels can still land on the same j in a desk-scale
            # isogeny graph; a collision would open both branches, so flip
            # fresh coins instead of sending
            raise RestartRequired("branch j-invariants collided")
        th = self._transcript_hash()
        width = max(len(self.x0), len(self.x1))
        self.shared_j = tuple(js)
        self.ciphertexts = tuple(kdf_enc(j, _pack_input(x, width), th)
                                 for j, x in zip(js, (self.x0, self.x1)))

    # ciphertexts

    def produce_ciphertexts(self) -> dict:
        mtype = self._expect("produce_ciphertexts")
        body = {"c0": self.ciphertexts[0].hex(), "c1": self.ciphertexts[1].hex()}
        self._log(mtype, body)
        return body

    def consume_ciphertexts(self, body: dict) -> bytes:
        mtype = self._expect("consume_ciphertexts")
        c0 = _bytes_field(body, "c0")
        c1 = _bytes_field(body, "c1")
        if len(c0) != len(c1):
            raise ProtocolAbort("bad-message", "ciphertext lengths differ")
        self._log(mtype, body)
        params = self.params
        pub = self.their_public
        K = kernel_generator(pub.curve, pub.G, self.keypair.r, pub.H)
        curve, _ = isogeny_chain(pub.curve, K, params.ell_b, params.e_b, ())
        j = curve.j_invariant()
        self.shared_j = (j,)
        th = self._transcript_hash()
        try:
            plain = kdf_dec(j, c1 if self.b else c0, th)
        except DecryptionError as exc:
            raise ProtocolAbort("decrypt-fail", str(exc)) from exc
        self.output = _unpack_input(plain)
        return self.output

    @property
    def done(self) -> bool:
        return self._cursor == len(SCHEDULE)


def exchange(sender: SiotSession, receiver: SiotSession) -> list[dict]:
    """Run SCHEDULE between two in-process sessions; return the bodies.

    The receiver's result is left in ``receiver.output``.  A restart
    signal propagates to the caller, which may rebuild both and rerun.
    """
    parties = {"sender": sender, "receiver": receiver}
    bodies = []
    for msg in SCHEDULE:
        bodies.append(getattr(parties[msg.producer], msg.produce)())
        getattr(parties[msg.consumer], msg.consume)(bodies[-1])
    return bodies


def _hex_field(body: dict, key: str, length: int) -> bytes:
    v = _bytes_field(body, key)
    if len(v) != length:
        raise ProtocolAbort("bad-message", f"field {key} must be {length} bytes")
    return v


def _bytes_field(body: dict, key: str) -> bytes:
    v = body.get(key)
    if not isinstance(v, str):
        raise ProtocolAbort("bad-message", f"field {key} must be hex")
    try:
        return strict_fromhex(v)
    except ValueError as exc:
        raise ProtocolAbort("bad-message", f"field {key} not hex") from exc

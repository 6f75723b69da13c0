"""The 1-out-of-2 oblivious transfer built on the isogeny exchange.

Flow, in fixed message order: both parties commit to coin-flip nonces,
both reveal, the shared string w is hashed to mask coefficients
(alpha, beta, gamma, delta), the sender ships its plain public key, the
receiver ships its public key with the basis images masked by
(U, V) = (alpha*G + beta*H, -(alpha/beta)*U) when its choice bit is 1,
and the sender answers with two ciphertexts, one per derived
j-invariant.  The receiver can open exactly the one indexed by its bit.

As in Chou-Orlandi, the sender completes one key exchange twice: the
second stage of the isogeny exchange, ``derive_shared_j``, walks each
of its two branch kernels (``branch_kernels``), one against the
received key and one against that key shifted by the mask (U, V).
Both kernels are combinations of the received pair, so the sender
forms each by one joint multiplication and never the mask points.
``derive_shared_j`` is the one walk to a shared j; the receiver calls
it once, against the sender's key.

The coefficient constraints enforced here make the two receiver
branches pairing-indistinguishable to the sender and keep the sender's
two kernels apart, so neither party learns the other's input.  They
give the mask matrix M = [[alpha, beta], [gamma, delta]] the square
M^2 = 0, so det(I - M) = det(I + M) = 1: an honest receiver's masked
pair is always a basis and both branch kernels have full order.  Each
party certifies the other's pair as a basis where it enters, so the
receiver's kernel has full order too, and the one restart left is a
collision of the sender's two branch j-invariants.

The message order is written down once, in SCHEDULE, whose rows give
each message's place, type and producer; every session, driver and the
transcript verifier derive theirs from that table.  Each body has one
reader (``read_*``), the one check of that body, which the session
phase consuming the body and the transcript verifier both call: it
refuses a body that is not an object of exactly its own keys, or whose
fields are malformed, with ``bad-message``, whichever path the body
came by.  The wire checks only the envelope.
"""

from __future__ import annotations

import functools
import struct
from typing import NamedTuple

from .curve import EllipticCurve, jac_normalize
from .errors import (DecodeError, DecryptionError, InvalidPointError,
                     ProtocolAbort, RestartRequired)
from .field import Fp2, inv_batch
from .isogeny import isogeny_chain, kernel_generator
from .pairing import weil_pairing
from .sidh import (PublicParams, SidhKeyPair, SidhPublic, keygen,
                   params_to_obj, public_from_obj, public_json,
                   public_to_obj, validate_public)
from .util import (TAG_LEN, canonical_json, expand, open_sealed, seal,
                   strict_fromhex, tagged_hash, xor_bytes)

NONCE_LEN = 32
SESSION_ID_LEN = 16
SIDE = {"sender": "A", "receiver": "B"}   # each role's side of the exchange
PEER = {"sender": "receiver", "receiver": "sender"}   # whom each sends to
DIRECTION = {role: f"{role}->{peer}" for role, peer in PEER.items()}
_LENGTH_PREFIX = struct.Struct("!I")   # an input's length, ahead of it


class MaskCoefficients(NamedTuple):
    """Scalars (alpha, beta, gamma, delta) mod lA^eA derived from w.

    Constraints: delta = -alpha and alpha^2 + beta*gamma = 0, so the
    sender's pairing probe is blind to the choice bit; beta is a unit
    and the quadratic gamma*r^2 + (alpha-delta)*r - beta has no root
    mod lA, so a dishonest receiver cannot collapse the sender's two
    kernels; and alpha is a multiple of lA^ceil(eA/2) (the hardened
    family), which kills the order-2 pairing leak as well.  So alpha^2
    vanishes mod lA^eA, and every derived tuple has gamma = 0 mod lA^eA.
    """

    alpha: int
    beta: int
    gamma: int
    delta: int

    def quadratic_root_free(self, ell: int) -> bool:
        # exhaustive over Z/ell; ell is tiny in every supported set
        return all(
            (self.gamma * r * r + (self.alpha - self.delta) * r - self.beta)
            % ell != 0
            for r in range(ell))


@functools.lru_cache(maxsize=8)
def params_fingerprint(params: PublicParams) -> bytes:
    """The hash of the parameters' canonical JSON, which every mask
    derivation binds.  Memoized on the parameter value, which is an
    immutable tuple whose hash and equality cover every field: a
    session's two derivations, and every later session on the same
    parameters, write the JSON once."""
    return tagged_hash("params-fp", canonical_json(params_to_obj(params)))


def derive_mask_coeffs(w: bytes, params: PublicParams) -> MaskCoefficients:
    """Hash-expand w into coefficients satisfying every mask constraint.

    Deterministic: both parties compute the identical tuple.  Rejection
    sampling over a counter until beta is a unit, which a draw is with
    probability (lA - 1)/lA.  The rest holds by construction:
    delta = -alpha and gamma = -alpha^2/beta, and alpha is in the hardened
    family, a multiple of lA^ceil(eA/2), so alpha and delta are 0 mod lA
    and alpha^2, hence gamma, is 0 mod lA^eA: gamma is set to 0 with no
    inversion of beta, and the collapse quadratic reduces to -beta, a
    unit.
    """
    n, ell, e = params.side_a.n, params.side_a.ell, params.side_a.e
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
        return MaskCoefficients(alpha, beta, 0, -alpha % n)


def encode_mask_points(coeffs: MaskCoefficients, curve: EllipticCurve,
                       G, H) -> tuple:
    """(U, V) = (alpha*G + beta*H, gamma*G + delta*H) in the lA^eA-torsion,
    each by one joint multiplication: one chain of doublings and one
    inversion per point.

    Under the protocol constraints V collapses to -(alpha/beta)*U, and
    feeding the receiver's masked pair instead of its true pair yields
    the same (U, V): the mask family is a fixed point of its own
    re-derivation, which is what lets the sender reconstruct the mask
    without learning the bit.  Derived coefficients have gamma = 0, so
    V's chain is delta's alone.

    Callers pass checked points: the receiver its own keygen output, and
    the distinguisher scan a receiver key.
    """
    return (curve.mul2(coeffs.alpha, G, coeffs.beta, H),
            curve.mul2(coeffs.gamma, G, coeffs.delta, H))


def mask_public(coeffs: MaskCoefficients, pub: SidhPublic, b: int,
                n: int) -> SidhPublic:
    """The receiver's published key: its own for bit 0, and for bit 1
    its basis images shifted to (G - U, H - V).

    The shifted pair is the mask of I - M, [1 - alpha]G + [-beta]H and
    [-gamma]G + [1 - delta]H, with its scalars reduced mod the torsion
    order n = lA^eA, which G and H have: two joint multiplications and
    no subtraction.  Bit 0 forms the mask (U, V) of M, so both bits do
    the same work.
    """
    E = pub.curve
    if b == 0:
        encode_mask_points(coeffs, E, pub.G, pub.H)
        return pub
    alpha, beta, gamma, delta = coeffs
    shifted = MaskCoefficients((1 - alpha) % n, -beta % n, -gamma % n,
                               (1 - delta) % n)
    return SidhPublic(E, *encode_mask_points(shifted, E, pub.G, pub.H))


def branch_kernels(coeffs: MaskCoefficients, pub: SidhPublic, r: int,
                   n: int) -> tuple:
    """The sender's two branch kernels on the received key's curve, for
    its secret r and the torsion order n = lA^eA: K0 = G + [r]H against
    the received pair, and K1 = (G + U) + [r](H + V) against that pair
    shifted by the mask (U, V).  The receiver's own key is the first
    pair for bit 0 and the second for bit 1, so each branch completes
    the exchange with one of them.

    K1 is a combination of G and H too, [1 + alpha + r*gamma]G +
    [beta + r(1 + delta)]H, whose scalars reduce mod n since G and H
    have order n, so no mask point is formed: each kernel is one joint
    multiplication.  The formula holds for any tuple, derived or not.
    """
    alpha, beta, gamma, delta = coeffs
    E, G, H = pub.curve, pub.G, pub.H
    return (kernel_generator(E, G, r, H),
            E.mul2((1 + alpha + r * gamma) % n, G,
                   (beta + r * (1 + delta)) % n, H))


def derive_shared_j(keypair: SidhKeyPair, their_public: SidhPublic,
                    params: PublicParams, kernel=None) -> Fp2:
    """The exchange's second stage: walk from the peer's curve along
    K = G + [r]H with this side's secret r, or along ``kernel``, a point
    of that curve formed from the same key (the sender's
    ``branch_kernels``), and take the codomain's j-invariant, which both
    honest parties agree on.

    Checks nothing: every key reaching it is keygen output or a key
    ``read_public`` accepted, whose pair is certified as a basis, so K
    has full order.  The walk proves that order all the same, and
    raises ``InvalidKernelError`` for a pair that is no basis.
    """
    own, _ = params.sides(keypair.side)
    E = their_public.curve
    K = kernel if kernel is not None else kernel_generator(
        E, their_public.G, keypair.r, their_public.H)
    curve, _ = isogeny_chain(E, K, own.ell, own.e, ())
    return curve.j_invariant()


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
    return _LENGTH_PREFIX.pack(len(x)) + x + b"\x00" * (width - len(x))


def _unpack_input(data: bytes) -> bytes:
    if len(data) < _LENGTH_PREFIX.size:
        raise DecryptionError("plaintext too short to carry its length")
    (n,) = _LENGTH_PREFIX.unpack_from(data)
    payload = data[_LENGTH_PREFIX.size:]
    if n > len(payload):
        raise DecryptionError("declared length exceeds payload")
    return payload[:n]


# -- message bodies: one reader each, returning checked values ---------

def commitment(nonce: bytes) -> bytes:
    return tagged_hash("coinflip-commit", nonce)


def read_commit(body: dict) -> bytes:
    _require_keys(body, "commit")
    return _bytes_field(body, "commit", NONCE_LEN)


def read_reveal(body: dict, commit: bytes) -> bytes:
    """The revealed nonce, which must open its party's ``commit``."""
    _require_keys(body, "nonce")
    nonce = _bytes_field(body, "nonce", NONCE_LEN)
    if commitment(nonce) != commit:
        raise ProtocolAbort("coinflip-cheat",
                            "revealed nonce does not open the commitment")
    return nonce


def _bad_key(role: str, detail: str) -> ProtocolAbort:
    """The abort for a public key ``role`` sent: ``bad-sender-key`` or
    ``bad-receiver-key``."""
    return ProtocolAbort(f"bad-{role}-key", detail)


def read_public(params: PublicParams, role: str, body: dict) -> SidhPublic:
    """A public key from ``role``, decoded and validated, with its pair
    certified as a torsion basis on the multiples of order ell that
    proved the points' orders: the sender's by ``independent``, one
    projective comparison at ell = 3, and the receiver's by a pairing."""
    try:
        pub = public_from_obj(params.ctx, body)
    except DecodeError as exc:
        raise ProtocolAbort("bad-message", str(exc)) from exc
    try:
        R, S = validate_public(params, SIDE[role], pub)
    except InvalidPointError as exc:
        raise _bad_key(role, str(exc)) from exc
    # The receiver's pair takes the one pairing on the session path,
    # kept because bench/test_bench.py pins it (weil > 0 on every
    # workload, weil == 1 and miller == 4 per clean p431 attempt).  Once
    # ROADMAP item 1 moves those pins, pub.curve.independent(R, S,
    # params.side_a.ell) on the same multiples gives the same verdict
    # without it, and both roles share the one call.
    if role == "sender":
        if not pub.curve.independent(R, S, params.side_b.ell):
            raise _bad_key(role, "pair is not a torsion basis")
    elif not _independent_by_pairing(pub.curve, R, S, params.side_a.ell):
        raise _bad_key(role, "masked pair is not a torsion basis")
    return pub


def _independent_by_pairing(E: EllipticCurve, R, S, ell: int) -> bool:
    """Whether the Jacobian points R and S of E, of order ell, are
    independent: e_ell(R, S) != 1.

    With R = [n/ell]G and S = [n/ell]H for G, H of order n = ell^e,
    bilinearity gives e_n(G, H)^(n/ell) = e_ell(R, S), so this is the
    order-n certificate's verdict on (G, H) at O(log ell) Miller steps
    instead of O(e log ell).  R and S come to Z = 1 by one batched
    inversion, the form ``weil_pairing`` takes.
    """
    ctx, p = E.ctx, E.ctx.p
    zr, zs = inv_batch(ctx, [R[2], S[2]])
    return weil_pairing(E, jac_normalize(R, zr, p), jac_normalize(S, zs, p),
                        ell) != ctx.one()


def read_ciphertexts(body: dict) -> tuple[bytes, bytes]:
    """Two equal-length ciphertexts, each long enough to hold a sealed
    length prefix and the seal's tag, as every honest one is."""
    _require_keys(body, "c0", "c1")
    c0, c1 = _bytes_field(body, "c0"), _bytes_field(body, "c1")
    if len(c0) != len(c1):
        raise ProtocolAbort("bad-message", "ciphertext lengths differ")
    shortest = _LENGTH_PREFIX.size + TAG_LEN
    if len(c0) < shortest:
        raise ProtocolAbort("bad-message",
                            f"ciphertexts shorter than {shortest} bytes")
    return c0, c1


def _require_keys(body, *keys: str) -> None:
    if not isinstance(body, dict) or set(body) != set(keys):
        raise ProtocolAbort("bad-message",
                            f"body must be an object of {', '.join(keys)}")


def _bytes_field(body: dict, key: str, length: int | None = None) -> bytes:
    v = body[key]
    if not isinstance(v, str):
        raise ProtocolAbort("bad-message", f"field {key} must be hex")
    try:
        v = strict_fromhex(v)
    except ValueError as exc:
        raise ProtocolAbort("bad-message", f"field {key} not hex") from exc
    if length is not None and len(v) != length:
        raise ProtocolAbort("bad-message", f"field {key} must be {length} bytes")
    return v


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
        return PEER[self.producer]

    @property
    def direction(self) -> str:
        return DIRECTION[self.producer]


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


def _phase(method):
    """A session phase, named by its method: it runs only where
    SCHEDULE calls for it on the session's side, and one that raises
    closes the session, so every later call aborts ``out-of-order``
    instead of running on the half-done state."""
    name = method.__name__

    @functools.wraps(method)
    def phase(self, *args):
        self._expect(name)
        try:
            return method(self, *args)
        except BaseException:
            self._cursor = None
            raise
    return phase


class SiotSession:
    """Single-owner protocol endpoint; methods must follow message order.

    The sender is the A side (it holds x0, x1), the receiver the B side
    (it holds the bit b).  Each holds its coin-flip nonce and the peer's
    commitment; w is the XOR of the two nonces.  Each consume_* phase
    reads its body with the body's reader.  An out-of-order call, a
    refused body (a key whose pair is no basis included) and a false
    reveal all abort, and an abort closes the session.
    A collision between the sender's two branch j-invariants raises a
    restart signal, on which the caller reruns the whole protocol so a
    fresh w is flipped.
    """

    def __init__(self, params: PublicParams, role: str, rng,
                 session_id: bytes, x0: bytes | None = None,
                 x1: bytes | None = None, b: int | None = None):
        if role not in SIDE:
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
        if len(session_id) != SESSION_ID_LEN:
            raise ValueError(f"session id must be {SESSION_ID_LEN} bytes")
        self.params = params
        self.role = role
        self.session_id = session_id
        self.x0, self.x1, self.b = x0, x1, b
        # drawn before the key pair: transcripts follow the rng's order
        self.nonce = rng.randbytes(NONCE_LEN)
        self.remote_commitment: bytes | None = None
        self.keypair: SidhKeyPair = keygen(params, SIDE[role], rng)
        self.coeffs: MaskCoefficients | None = None
        self.their_public: SidhPublic | None = None
        self.ciphertexts: tuple[bytes, bytes] | None = None
        self.shared_j: tuple | None = None
        self.output: bytes | None = None
        self._pk_bodies: list[dict] = []   # pk-sender, then pk-receiver
        self._cursor = 0   # index of the next SCHEDULE row; None once closed

    # phase bookkeeping

    def _expect(self, method: str) -> None:
        """Advance past the next schedule row if it calls for ``method``
        on this side."""
        if self._cursor is None:
            want = "nothing: a phase raised and closed the session"
        elif self._cursor == len(SCHEDULE):
            want = "done"
        else:
            msg = SCHEDULE[self._cursor]
            want = msg.produce if msg.producer == self.role else msg.consume
        if want != method:
            raise ProtocolAbort(
                "out-of-order", f"{method} called, expected {want}")
        self._cursor += 1

    # coin flip

    @_phase
    def produce_commit(self) -> dict:
        return {"commit": commitment(self.nonce).hex()}

    @_phase
    def consume_commit(self, body: dict) -> None:
        self.remote_commitment = read_commit(body)

    @_phase
    def produce_reveal(self) -> dict:
        return {"nonce": self.nonce.hex()}

    @_phase
    def consume_reveal(self, body: dict) -> None:
        nonce = read_reveal(body, self.remote_commitment)
        self.coeffs = derive_mask_coeffs(xor_bytes(self.nonce, nonce),
                                         self.params)

    # public keys

    @_phase
    def produce_public(self) -> dict:
        pub = self.keypair.public
        if self.role == "receiver":
            pub = mask_public(self.coeffs, pub, self.b,
                              self.params.side_a.n)
        body = public_to_obj(pub)
        self._pk_bodies.append(body)
        return body

    @_phase
    def consume_public(self, body: dict) -> None:
        self.their_public = read_public(self.params, PEER[self.role], body)
        self._pk_bodies.append(body)
        if self.role == "sender":
            self._derive_ciphertext_keys()

    def _transcript_hash(self) -> bytes:
        """Binds the ciphertexts to the session id and both public-key
        bodies, each as its canonical JSON; SCHEDULE puts both keys
        before either caller."""
        return tagged_hash("transcript", self.session_id,
                           *map(public_json, self._pk_bodies))

    def _derive_ciphertext_keys(self) -> None:
        """Sender: complete the exchange along both branch kernels and
        encrypt one input under each branch's j-invariant.  The
        certified pair and derived coefficients give both kernels full
        order."""
        kernels = branch_kernels(self.coeffs, self.their_public,
                                 self.keypair.r, self.params.side_a.n)
        js = [derive_shared_j(self.keypair, self.their_public, self.params, K)
              for K in kernels]
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

    @_phase
    def produce_ciphertexts(self) -> dict:
        return {"c0": self.ciphertexts[0].hex(), "c1": self.ciphertexts[1].hex()}

    @_phase
    def consume_ciphertexts(self, body: dict) -> bytes:
        c0, c1 = read_ciphertexts(body)
        j = derive_shared_j(self.keypair, self.their_public, self.params)
        self.shared_j = (j,)
        th = self._transcript_hash()
        try:
            # a sender holds both j, so it can seal a false length prefix
            self.output = _unpack_input(kdf_dec(j, c1 if self.b else c0, th))
        except DecryptionError as exc:
            raise ProtocolAbort("decrypt-fail", str(exc)) from exc
        return self.output


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

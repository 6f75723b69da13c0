"""Oblivious transfer from supersingular isogenies, at toy scale.

Layers, bottom up: quadratic extension field arithmetic (field), short
Weierstrass curves (curve), Weil and distortion pairings with basis
decomposition (pairing), prime-power isogeny chains (isogeny), the
two-torsion-tower key exchange (sidh), the masked 1-of-2 OT protocol
and its one message schedule (siot), a classical-group reference OT
(baseline_ot), adversarial probes and oracles (analysis), and the wire
format, framing, session drivers and CLI (wire, transport, runner,
cli).
"""

from .analysis import (
    brute_force_secret,
    dishonest_bob_probe,
    distinguisher_fixture,
    distinguisher_scan,
    equivariance_precheck,
    isogeny_path_exists,
    reachable_j_values,
    same_cyclic_subgroup,
    shared_j_oracle,
    symmetric_constraint_check,
)
from .baseline_ot import (
    OtGroupContext,
    bo_decrypt,
    bo_encrypt,
    bo_receiver_round,
    bo_sender_keys,
    bo_sender_setup,
    default_group,
)
from .curve import INFINITY, EllipticCurve, Point, sample_torsion_basis
from .errors import (
    DecodeError,
    DecompositionError,
    DecryptionError,
    FieldMismatchError,
    InconsistentKeyError,
    InvalidKernelError,
    InvalidPointError,
    ParameterSearchError,
    ProtocolAbort,
    RestartRequired,
    SamplingError,
    SingularCurveError,
    SiotError,
    TransportError,
    UnsupportedParameterError,
)
from .field import FieldContext, Fp2
from .isogeny import (
    IsogenyChain,
    VeluStep,
    cyclic_subgroup,
    evaluate,
    full_kernel_quotient,
    isogeny_chain,
    kernel_generator,
    velu_step,
)
from .pairing import (
    BasisDecomposition,
    RootOfUnity,
    decompose_in_basis,
    distortion_map,
    miller_function,
    modified_pairing,
    symmetric_pairing,
    weil_pairing,
)
from .runner import (
    SessionConfig,
    run_baseline_local,
    run_local,
    run_session,
    verify_transcript,
)
from .sidh import (
    PublicParams,
    SidhKeyPair,
    SidhPublic,
    derive_shared_j,
    gen_params,
    keygen,
    params_from_obj,
    params_to_obj,
    preset,
    public_from_obj,
    public_to_obj,
    validate_public,
)
from .siot import (
    MaskCoefficients,
    MaskPoints,
    SiotSession,
    coinflip_commit,
    coinflip_reveal,
    derive_mask_coeffs,
    encode_mask_points,
    kdf_dec,
    kdf_enc,
)
from .transport import LoopbackPipe, connect, recv_frame, send_frame, serve_one
from .util import canonical_json, det_rng, sub_seed, tagged_hash
from .wire import Transcript, WireMessage, decode, encode

__version__ = "0.1.0"

__all__ = [
    "BasisDecomposition", "DecodeError", "DecompositionError",
    "DecryptionError", "EllipticCurve", "FieldContext", "FieldMismatchError",
    "Fp2", "INFINITY", "InconsistentKeyError", "InvalidKernelError",
    "InvalidPointError", "IsogenyChain", "LoopbackPipe", "MaskCoefficients",
    "MaskPoints", "OtGroupContext", "ParameterSearchError", "Point",
    "ProtocolAbort", "PublicParams", "RestartRequired", "RootOfUnity",
    "SamplingError", "SessionConfig", "SidhKeyPair", "SidhPublic",
    "SingularCurveError", "SiotError", "SiotSession", "Transcript",
    "TransportError", "UnsupportedParameterError", "VeluStep", "WireMessage",
    "bo_decrypt", "bo_encrypt", "bo_receiver_round", "bo_sender_keys",
    "bo_sender_setup", "brute_force_secret", "canonical_json",
    "coinflip_commit", "coinflip_reveal", "connect", "cyclic_subgroup",
    "decode", "decompose_in_basis", "default_group", "derive_mask_coeffs",
    "derive_shared_j", "det_rng", "dishonest_bob_probe",
    "distinguisher_fixture", "distinguisher_scan", "distortion_map",
    "encode", "encode_mask_points", "equivariance_precheck", "evaluate",
    "full_kernel_quotient", "gen_params", "isogeny_chain",
    "isogeny_path_exists", "kdf_dec", "kdf_enc", "kernel_generator",
    "keygen", "miller_function", "modified_pairing", "params_from_obj",
    "params_to_obj", "preset", "public_from_obj", "public_to_obj",
    "reachable_j_values", "recv_frame", "run_baseline_local", "run_local",
    "run_session", "same_cyclic_subgroup", "sample_torsion_basis",
    "send_frame", "serve_one", "shared_j_oracle", "sub_seed",
    "symmetric_constraint_check", "symmetric_pairing", "tagged_hash",
    "validate_public", "velu_step", "verify_transcript", "weil_pairing",
]

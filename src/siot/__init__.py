"""Oblivious transfer from supersingular isogenies, at toy scale.

Layers, bottom up: quadratic extension field arithmetic (field), short
Weierstrass curves (curve), prime-power isogeny chains (isogeny), Weil
and distortion pairings with basis sampling and decomposition
(pairing), the two-torsion-tower key exchange (sidh), the masked 1-of-2
OT protocol and its one message schedule (siot), a classical-group
reference OT (baseline_ot), the wire format, framing and session
drivers (wire, transport, runner), adversarial probes and oracles
(analysis), and the CLI (cli).  ``tests/test_layers.py`` holds each
module to importing only those below it.

The package namespace holds the session drivers and what the demos and
the benchmark use; every other name is imported from its submodule,
e.g. ``from siot.curve import EllipticCurve``.
"""

from .analysis import (
    brute_force_secret,
    dishonest_bob_probe,
    distinguisher_fixture,
    distinguisher_scan,
)
from .baseline_ot import default_group
from .errors import RestartRequired, TransportError
from .field import Fp2
from .runner import (
    SessionConfig,
    run_baseline_local,
    run_local,
    run_session,
    verify_transcript,
)
from .sidh import (
    gen_params,
    keygen,
    params_from_obj,
    params_to_obj,
    preset,
    validate_public,
)
from .siot import derive_shared_j, kdf_dec
from .util import canonical_json, det_rng
from .wire import Transcript

__version__ = "0.1.0"

__all__ = [
    "Fp2", "RestartRequired", "SessionConfig", "Transcript",
    "TransportError", "brute_force_secret", "canonical_json",
    "default_group", "derive_shared_j", "det_rng", "dishonest_bob_probe",
    "distinguisher_fixture", "distinguisher_scan", "gen_params", "kdf_dec",
    "keygen", "params_from_obj", "params_to_obj", "preset",
    "run_baseline_local", "run_local", "run_session", "validate_public",
    "verify_transcript",
]

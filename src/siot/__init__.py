"""Oblivious transfer from supersingular isogenies, at toy scale.

Layers, bottom up: quadratic extension field arithmetic (field), short
Weierstrass curves with torsion-basis sampling and its certificate
(curve), prime-power isogeny chains (isogeny), the Weil pairing
(pairing), the two-torsion-tower key exchange (sidh), the masked 1-of-2 OT
protocol and its one message schedule (siot), the wire format and
framing over any stream (wire, transport), a classical-group reference
OT and its driver (baseline_ot), the isogeny OT's session drivers
(runner), adversarial probes and oracles (analysis), and the CLI, which
opens the sockets (cli).
``tests/test_layers.py`` holds each module to importing only those
below it.

The package namespace holds the session drivers and what the demos and
the benchmark use, and importing it loads only what a session runs:
each CLI command pays that import in a fresh interpreter.  Every other
name, the probes and the baseline OT included, is imported from its
submodule, e.g. ``from siot.analysis import dishonest_bob_probe`` or
``from siot.baseline_ot import run_baseline_local``.
"""

from .errors import RestartRequired, TransportError
from .field import Fp2
from .runner import (
    SessionConfig,
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
    "TransportError", "canonical_json", "derive_shared_j", "det_rng",
    "gen_params", "kdf_dec", "keygen", "params_from_obj", "params_to_obj",
    "preset", "run_local", "run_session", "validate_public",
    "verify_transcript",
]

"""The behaviour manifest: named rows of what the package does, each
reduced to one SHA-256 in ``manifest.json``.

A row is the canonical JSON of a list of records, built by running the
package through its public entry points on fixed seeds:

- ``run_local/<set>/b<bit>``: per seed, the transcript's digest, the
  receiver's output, the restart count and the sender's and receiver's
  j-invariants in hex, on p431, p2591 and the swapped-roles set over 24
  seeds and on 2^51*3^32 - 1 over 3;
- ``mutants/<set>``: the verifier report of single-hex-digit mutants
  of each of those transcripts, one per hex field of each message,
  refusal texts included;
- ``keygen/<set>/<side>``: the public-key bodies of eight key pairs;
- ``probe/<preset>``, ``scan-honest/<preset>`` and
  ``scan-violated/<preset>``: the dishonest-receiver probe and the two
  distinguisher scans of ``siot.analysis`` at p431 and p2591;
- ``baseline/b<bit>``: the baseline OT's transcripts and outputs;
- ``demo/key_exchange_walkthrough``: that demo's stdout.

A change meant to keep behaviour leaves every row as it is;
``tests/test_manifest.py`` names the rows that moved.  A change that
moves rows on purpose rewrites the file with

    PYTHONPATH=src python tests/manifest.py --write

and names each moved row in its change record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import runpy
import sys
from pathlib import Path

from siot import (SessionConfig, Transcript, canonical_json, det_rng,
                  gen_params, keygen, preset, run_local, verify_transcript)
from siot.analysis import (dishonest_bob_probe, distinguisher_fixture,
                           distinguisher_scan)
from siot.baseline_ot import run_baseline_local
from siot.sidh import public_to_obj
from siot.wire import WireMessage

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("manifest.json")
X0, X1 = b"manifest zero", b"manifest one!"

# name -> (parameters, number of run_local seeds)
SETS = {
    "p431": (lambda: preset("p431"), 24),
    "p2591": (lambda: preset("p2591"), 24),
    "set3": (lambda: gen_params(3, 3, 2, 4, rng=det_rng(b"tests/set3")), 24),
    "p102": (lambda: gen_params(2, 51, 3, 32, rng=det_rng(b"tests/p102")), 3),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hex_paths(obj, path=()):
    """The paths of every hex string in a message body, in key order."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _hex_paths(obj[k], path + (k,))
    elif isinstance(obj, str):
        yield path


def _mutant(body: dict, path, rng) -> dict:
    """A copy of ``body`` with one digit of the hex string at ``path``
    replaced by another, at a position and by a digit ``rng`` draws."""
    body = json.loads(json.dumps(body))
    node = body
    for k in path[:-1]:
        node = node[k]
    s = node[path[-1]]
    i = rng.randrange(len(s))
    digit = "0123456789abcdef".replace(s[i], "")[rng.randrange(15)]
    node[path[-1]] = s[:i] + digit + s[i + 1:]
    return body


def _mutant_reports(transcript: Transcript, params, rng) -> list:
    reports = []
    for row, (direction, msg) in enumerate(transcript.entries):
        for path in _hex_paths(msg.body):
            t = Transcript()
            for i, (d, m) in enumerate(transcript.entries):
                if i == row:
                    m = WireMessage(m.type, m.session,
                                    _mutant(m.body, path, rng))
                t.append(d, m)
            reports.append([row, list(path),
                            verify_transcript(t, params)])
    return reports


def rows() -> dict:
    """Every row's name and its bytes."""
    out = {}
    for name, (make, seeds) in SETS.items():
        params = make()
        mrng = det_rng(b"manifest/mutants/" + name.encode())
        mutants = []
        for b in (0, 1):
            records = []
            for s in range(seeds):
                res = run_local(SessionConfig(
                    params, seed=b"manifest-%d" % s, b=b, x0=X0, x1=X1))
                data = res["transcript"].to_bytes()
                records.append([s, _sha(data), res["output"].hex(),
                                res["restarts"],
                                [j.hex() for j in res["sender_j"]],
                                res["receiver_j"].hex()])
                mutants.append([b, s, _mutant_reports(
                    Transcript.from_bytes(data), params, mrng)])
            out[f"run_local/{name}/b{b}"] = records
        out[f"mutants/{name}"] = mutants
        for side in ("A", "B"):
            krng = det_rng(b"manifest/keygen/%s/%s" % (name.encode(),
                                                       side.encode()))
            out[f"keygen/{name}/{side}"] = [
                public_to_obj(keygen(params, side, krng).public)
                for _ in range(8)]
    for name in ("p431", "p2591"):
        params = preset(name)
        out[f"probe/{name}"] = dishonest_bob_probe(
            params, det_rng(b"manifest/probe/" + name.encode()))
        for violate in (False, True):
            tag = b"manifest/scan/%s/%d" % (name.encode(), violate)
            masked, coeffs = distinguisher_fixture(
                params, det_rng(tag), b=1, violate=violate)
            report = distinguisher_scan(params, masked, coeffs,
                                        det_rng(tag + b"/scan"))
            key = "scan-violated" if violate else "scan-honest"
            out[f"{key}/{name}"] = report.to_obj()
    for b in (0, 1):
        records = []
        for s in range(4):
            art = run_baseline_local(b, X0, X1, seed=b"manifest-%d" % s)
            records.append([s, art["transcript"].to_bytes().decode(),
                            art["output"].hex()])
        out[f"baseline/b{b}"] = records
    demo = ROOT / "demos" / "key_exchange_walkthrough.py"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(demo), run_name="__main__")
    out["demo/key_exchange_walkthrough"] = stdout.getvalue()
    return {k: canonical_json(v) for k, v in out.items()}


def digests() -> dict:
    return {name: _sha(data) for name, data in rows().items()}


def moved(recorded: dict, now: dict) -> list:
    """The names of the rows whose digest differs, or that one side
    lacks."""
    return sorted(k for k in set(recorded) | set(now)
                  if recorded.get(k) != now.get(k))


if __name__ == "__main__":
    now = digests()
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
    else:
        diff = moved(json.loads(MANIFEST.read_text()), now)
        print("\n".join(diff) or "every row holds")
        sys.exit(1 if diff else 0)

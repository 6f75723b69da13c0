"""Command-line interface: parameter generation, key generation, online
and local protocol runs, transcript verification, the adversarial
probes, and the baseline OT.  The online commands open their TCP
stream here and hand it to the session driver, which frames over any
stream (``siot.transport``).  What only some commands run (the probes,
the baseline OT, the sockets) is imported inside the functions that
run it, so no other command pays for loading it.

Exit codes: 0 success, 2 protocol abort (including verification
failures), 3 transport error, 4 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    DecodeError,
    ProtocolAbort,
    RestartRequired,
    SiotError,
    TransportError,
)
from .runner import (
    SessionConfig,
    run_local,
    run_session,
    verify_transcript,
)
from .sidh import (
    PRESET_NAMES,
    gen_params,
    keygen,
    params_from_obj,
    params_to_obj,
    preset,
    public_to_obj,
)
from .util import det_rng, strict_fromhex
from .wire import Transcript, read_json


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="siot", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_params_opts(sp):
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--preset", choices=PRESET_NAMES,
                       help="named parameter set")
        g.add_argument("--params", metavar="FILE",
                       help="parameter JSON produced by gen-params")

    def add_net_opts(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--listen", metavar="ADDR", help="host:port to bind")
        g.add_argument("--connect", metavar="ADDR", help="host:port to dial")

    sp = sub.add_parser("gen-params", help="search and write parameters")
    sp.add_argument("--la", type=int, required=True)
    sp.add_argument("--ea", type=int, required=True)
    sp.add_argument("--lb", type=int, required=True)
    sp.add_argument("--eb", type=int, required=True)
    sp.add_argument("--max-f", type=int, default=4)
    sp.add_argument("--general-f", action="store_true",
                    help="search every cofactor, not just 1 and 4")
    sp.add_argument("--seed", metavar="HEX")
    sp.add_argument("-o", "--out", metavar="FILE")

    sp = sub.add_parser("keygen", help="generate one side's key pair")
    add_params_opts(sp)
    sp.add_argument("--side", choices=("A", "B"), required=True)
    sp.add_argument("--seed", metavar="HEX")
    sp.add_argument("--export-secret", action="store_true")
    sp.add_argument("-o", "--out", metavar="FILE")

    sp = sub.add_parser("send", help="run the sender over the network")
    add_params_opts(sp)
    add_net_opts(sp)
    sp.add_argument("--msg0", metavar="FILE", required=True)
    sp.add_argument("--msg1", metavar="FILE", required=True)
    sp.add_argument("--seed", metavar="HEX")
    sp.add_argument("--transcript", metavar="FILE")

    sp = sub.add_parser("receive", help="run the receiver over the network")
    add_params_opts(sp)
    add_net_opts(sp)
    sp.add_argument("--choice", type=int, choices=(0, 1), required=True)
    sp.add_argument("--seed", metavar="HEX")
    sp.add_argument("--transcript", metavar="FILE")
    sp.add_argument("-o", "--out", metavar="FILE",
                    help="write the delivered bytes here")

    sp = sub.add_parser("run-local", help="run both parties in-process")
    add_params_opts(sp)
    sp.add_argument("--choice", type=int, choices=(0, 1), required=True)
    sp.add_argument("--msg0", metavar="FILE", required=True)
    sp.add_argument("--msg1", metavar="FILE", required=True)
    sp.add_argument("--seed", metavar="HEX")
    sp.add_argument("--transcript", metavar="FILE")
    sp.add_argument("-o", "--out", metavar="FILE")

    sp = sub.add_parser("verify-transcript", help="replay all validations")
    sp.add_argument("transcript", metavar="FILE")
    add_params_opts(sp)

    sp = sub.add_parser("attack", help="adversarial probes and oracles")
    asub = sp.add_subparsers(dest="attack", required=True)
    ap = asub.add_parser("distinguisher")
    add_params_opts(ap)
    ap.add_argument("--seed", metavar="HEX")
    ap.add_argument("--violate", action="store_true",
                    help="plant a constraint violation as positive control")
    ap.add_argument("--bit", type=int, choices=(0, 1), default=1)
    ap = asub.add_parser("dishonest-bob")
    add_params_opts(ap)
    ap.add_argument("--seed", metavar="HEX")
    ap = asub.add_parser("brute-force")
    add_params_opts(ap)
    ap.add_argument("--seed", metavar="HEX")
    ap.add_argument("--side", choices=("A", "B"), default="A")

    sp = sub.add_parser("baseline-ot", help="the classical-group reference OT")
    bsub = sp.add_subparsers(dest="baseline", required=True)
    bp = bsub.add_parser("run")
    bp.add_argument("--choice", type=int, choices=(0, 1), required=True)
    bp.add_argument("--msg0", metavar="FILE", required=True)
    bp.add_argument("--msg1", metavar="FILE", required=True)
    bp.add_argument("--seed", metavar="HEX")
    bp.add_argument("--transcript", metavar="FILE")
    bp.add_argument("-o", "--out", metavar="FILE")

    return p


def _params_from_args(args):
    if getattr(args, "params", None):
        try:
            obj = read_json(_read_file(args.params))
        except DecodeError as exc:
            raise DecodeError(f"params file: {exc}") from exc
        return params_from_obj(obj)
    return preset(args.preset or "p431")


def _seed_from_args(args):
    seed = getattr(args, "seed", None)
    if seed is not None:
        try:
            strict_fromhex(seed)
        except ValueError as exc:
            raise UsageError(f"--seed must be hex: {exc}") from exc
    return seed


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_file(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit(obj, out_path=None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out_path:
        _write_file(out_path, (text + "\n").encode())
    else:
        print(text)


def _emit_delivered(output: bytes, out_path=None) -> None:
    if out_path:
        _write_file(out_path, output)
    print(f"delivered-hex: {output.hex()}")
    try:
        print(f"delivered-text: {output.decode('utf-8')}")
    except UnicodeDecodeError:
        pass


def _cmd_gen_params(args) -> int:
    params = gen_params(args.la, args.ea, args.lb, args.eb,
                        max_f=args.max_f, rng=det_rng(_seed_from_args(args)),
                        general_f=args.general_f)
    _emit(params_to_obj(params), args.out)
    return 0


def _cmd_keygen(args) -> int:
    params = _params_from_args(args)
    kp = keygen(params, args.side, det_rng(_seed_from_args(args)))
    obj = {"side": kp.side, "public": public_to_obj(kp.public)}
    if args.export_secret:
        obj["secret_r"] = kp.r
    _emit(obj, args.out)
    return 0


def _save_transcript(outcome, path) -> None:
    if path:
        _write_file(path, outcome["transcript"].to_bytes())


def parse_addr(addr: str) -> tuple[str, int]:
    host, sep, port = addr.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"address must be host:port, got {addr!r}")
    return host or "127.0.0.1", int(port)


def connect(addr: str):
    import socket

    host, port = parse_addr(addr)
    try:
        sock = socket.create_connection((host, port), timeout=30)
    except OSError as exc:
        raise TransportError(f"connect to {addr} failed: {exc}") from exc
    stream = sock.makefile("rwb")
    sock.close()    # the stream holds the connection until it is closed
    return stream


def serve_one(addr: str, ready_event=None):
    """Accept a single connection and return its stream; ``ready_event``
    (a ``threading.Event``), if given, is set once the socket listens."""
    import socket

    host, port = parse_addr(addr)
    try:
        srv = socket.create_server((host, port))
    except OSError as exc:
        raise TransportError(f"listen on {addr} failed: {exc}") from exc
    try:
        srv.settimeout(30)
        if ready_event is not None:
            ready_event.set()
        conn, _ = srv.accept()
    except OSError as exc:
        srv.close()
        raise TransportError(f"accept on {addr} failed: {exc}") from exc
    srv.close()
    stream = conn.makefile("rwb")
    conn.close()    # the stream holds the connection until it is closed
    return stream


def _open_stream(args):
    try:
        if args.listen:
            return serve_one(args.listen)
        return connect(args.connect)
    except ValueError as exc:        # a malformed host:port
        raise UsageError(str(exc)) from exc


def _cmd_send(args) -> int:
    params = _params_from_args(args)
    config = SessionConfig(params, seed=_seed_from_args(args),
                           x0=_read_file(args.msg0), x1=_read_file(args.msg1))
    stream = _open_stream(args)
    try:
        outcome = run_session("sender", config, stream)
    finally:
        stream.close()
    _save_transcript(outcome, args.transcript)
    print("sent both ciphertexts")
    return 0


def _cmd_receive(args) -> int:
    params = _params_from_args(args)
    config = SessionConfig(params, seed=_seed_from_args(args), b=args.choice)
    stream = _open_stream(args)
    try:
        outcome = run_session("receiver", config, stream)
    finally:
        stream.close()
    _save_transcript(outcome, args.transcript)
    _emit_delivered(outcome["output"], args.out)
    return 0


def _cmd_run_local(args) -> int:
    params = _params_from_args(args)
    config = SessionConfig(params, seed=_seed_from_args(args), b=args.choice,
                           x0=_read_file(args.msg0), x1=_read_file(args.msg1))
    outcome = run_local(config)
    _emit_delivered(outcome["output"], args.out)
    _save_transcript(outcome, args.transcript)
    return 0


def _cmd_verify_transcript(args) -> int:
    params = _params_from_args(args)
    transcript = Transcript.from_bytes(_read_file(args.transcript))
    report = verify_transcript(transcript, params)
    _emit(report)
    return 0 if report["ok"] else 2


def _cmd_attack(args) -> int:
    from .analysis import (brute_force_secret, dishonest_bob_probe,
                           distinguisher_fixture, distinguisher_scan)

    params = _params_from_args(args)
    rng = det_rng(_seed_from_args(args))
    if args.attack == "distinguisher":
        masked, coeffs = distinguisher_fixture(params, rng, b=args.bit,
                                               violate=args.violate)
        report = distinguisher_scan(params, masked, coeffs, rng=rng)
        _emit(report.to_obj())
        return 0
    if args.attack == "dishonest-bob":
        _emit(dishonest_bob_probe(params, rng))
        return 0
    kp = keygen(params, args.side, rng)
    result = brute_force_secret(params, kp.public, args.side)
    _emit({"recovered_r": result.r, "planted_r": kp.r,
           "match": result.r == kp.r, "space": result.space,
           "seconds": round(result.seconds, 4)})
    return 0


def _cmd_baseline(args) -> int:
    from .baseline_ot import run_baseline_local

    outcome = run_baseline_local(args.choice, _read_file(args.msg0),
                                 _read_file(args.msg1), seed=_seed_from_args(args))
    _save_transcript(outcome, args.transcript)
    _emit_delivered(outcome["output"], args.out)
    return 0


_HANDLERS = {
    "gen-params": _cmd_gen_params,
    "keygen": _cmd_keygen,
    "send": _cmd_send,
    "receive": _cmd_receive,
    "run-local": _cmd_run_local,
    "verify-transcript": _cmd_verify_transcript,
    "attack": _cmd_attack,
    "baseline-ot": _cmd_baseline,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 4
    except (ProtocolAbort, RestartRequired, DecodeError) as exc:
        print(f"protocol abort: {exc}", file=sys.stderr)
        return 2
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3
    except SiotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
